"""Deterministic synthetic generator and its RNG."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coocbias.dataset import parse_jsonl, serialize_jsonl
from coocbias.synth import BiasSpec, SplitMix64, generate
from support import ReferenceSplitMix64, reference_generate, reference_serialize_jsonl

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None)
SRC = str(Path(__file__).resolve().parents[1] / "src")

TWO_GROUPS = {
    "landbird": ("bamboo", "field", "forest", "grass", "tree"),
    "waterbird": ("beach", "boat", "dock", "lake", "ocean"),
}


def reference_splitmix64(seed, n):
    """Straight transcription of the published C reference, used as oracle."""
    mask = (1 << 64) - 1
    x = seed & mask
    out = []
    for _ in range(n):
        x = (x + 0x9E3779B97F4A7C15) & mask
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestSplitMix64:
    def test_matches_reference(self):
        for seed in (0, 1, 42, 2**64 - 1, 0xDEADBEEF):
            rng = SplitMix64(seed)
            assert [rng.next_u64() for _ in range(50)] == reference_splitmix64(seed, 50)

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(2**64 + 5).next_u64() == SplitMix64(5).next_u64()

    @pytest.mark.parametrize("seed", [1.5, True, "7", None], ids=repr)
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
            SplitMix64(seed)
        spec = BiasSpec(groups=TWO_GROUPS, rho=0.95, per_class_n=2)
        with pytest.raises(ValueError, match="^seed must be an integer"):
            generate(spec, seed)

    @PROPERTY_SETTINGS
    @given(st.integers(0, 2**64 - 1))
    def test_random_unit_interval(self, seed):
        rng = SplitMix64(seed)
        for _ in range(20):
            u = rng.random()
            assert 0.0 <= u < 1.0

    @PROPERTY_SETTINGS
    @given(st.integers(0, 2**64 - 1), st.integers(1, 100))
    def test_randrange_in_range(self, seed, n):
        rng = SplitMix64(seed)
        for _ in range(20):
            assert 0 <= rng.randrange(n) < n

    @pytest.mark.parametrize("n", [0, 2**64 + 1], ids=["zero", "above-2**64"])
    def test_randrange_rejects_nonpositive(self, n):
        # In a child process, so that a draw loop that never ends fails on the timeout.
        code = f"from coocbias.synth import SplitMix64\nSplitMix64(0).randrange({n})"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30)
        assert child.stderr.strip().splitlines()[-1].startswith("ValueError:"), child.stderr

    def test_randrange_full_width_is_the_raw_draw(self):
        assert SplitMix64(5).randrange(2**64) == SplitMix64(5).next_u64()

    def test_sample_distinct_members(self):
        rng = SplitMix64(9)
        items = [f"i{j}" for j in range(10)]
        for _ in range(50):
            got = rng.sample(items, 4)
            assert len(set(got)) == 4
            assert set(got) <= set(items)

    @pytest.mark.parametrize("items, k", [(["a"], 2), (["a", "b", "c"], -1)], ids=["too-large", "negative"])
    def test_sample_too_large_rejected(self, items, k):
        with pytest.raises(ValueError):
            SplitMix64(0).sample(items, k)

    def test_randrange_roughly_uniform(self):
        rng = SplitMix64(123)
        buckets = [0] * 7
        for _ in range(7000):
            buckets[rng.randrange(7)] += 1
        assert min(buckets) > 800  # expectation 1000 per bucket


class TestBiasSpecValidation:
    def good(self, **overrides):
        kwargs = dict(groups=TWO_GROUPS, rho=0.95, per_class_n=10, concepts_per_record=(1, 3))
        kwargs.update(overrides)
        return BiasSpec(**kwargs)

    def test_accepts_valid(self):
        self.good()

    def test_needs_two_classes(self):
        with pytest.raises(ValueError, match="two classes"):
            self.good(groups={"only": ("x",)})

    def test_rho_range(self):
        with pytest.raises(ValueError, match="rho"):
            self.good(rho=0.5)
        with pytest.raises(ValueError, match="rho"):
            self.good(rho=1.2)
        self.good(rho=1.0)

    def test_groups_disjoint(self):
        with pytest.raises(ValueError, match="appears in groups"):
            self.good(groups={"a": ("x", "y"), "b": ("y", "z")})

    def test_group_name_collision(self):
        with pytest.raises(ValueError, match="both a class and a concept"):
            self.good(groups={"a": ("b",), "b": ("z",)})

    def test_range_within_group_size(self):
        with pytest.raises(ValueError, match="smallest group"):
            self.good(concepts_per_record=(1, 6))
        with pytest.raises(ValueError, match="lo <= hi"):
            self.good(concepts_per_record=(0, 3))
        with pytest.raises(ValueError, match="lo <= hi"):
            self.good(concepts_per_record=(3, 2))

    def test_per_class_n_positive(self):
        with pytest.raises(ValueError, match="per_class_n"):
            self.good(per_class_n=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("per_class_n", True),
            ("per_class_n", 2.5),
            ("rho", "0.9"),
            ("rho", True),
            ("rho", float("nan")),
            ("rho", float("inf")),
            ("rho", float("-inf")),
            ("rho", 10**400),
            ("groups", {"landbird": "xy", "waterbird": ("a", "b", "c")}),
            ("groups", {"landbird": ("x", 1), "waterbird": ("a", "b", "c")}),
            ("groups", [("landbird", ("x",)), ("waterbird", ("y",))]),
            ("concepts_per_record", (1, 1, 1)),
            ("concepts_per_record", (1.0, 2)),
            ("concepts_per_record", 2),
        ],
        ids=lambda v: repr(v)[:24],
    )
    def test_bad_field_is_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}"):
            self.good(**{field: value})


class TestGenerate:
    def spec(self, rho=0.95, n=200, rng=(1, 3)):
        return BiasSpec(groups=TWO_GROUPS, rho=rho, per_class_n=n, concepts_per_record=rng)

    def test_shape(self):
        ds = generate(self.spec(n=100), seed=7)
        assert ds.n == 200
        assert ds.classes == ("landbird", "waterbird")
        assert len(ds.concepts) == 10
        assert [r.id for r in ds.records[:2]] == ["landbird-0", "landbird-1"]
        assert ds.records[100].id == "waterbird-0"

    def test_deterministic(self):
        a = generate(self.spec(), seed=11)
        b = generate(self.spec(), seed=11)
        assert a == b
        assert serialize_jsonl(a) == serialize_jsonl(b)
        c = generate(self.spec(), seed=12)
        assert a != c

    def test_round_trips_through_parser(self):
        ds = generate(self.spec(n=50), seed=3)
        ds2, rep = parse_jsonl(serialize_jsonl(ds))
        assert rep.ok
        assert ds2 == ds

    def test_sizes_within_bounds(self):
        ds = generate(self.spec(rng=(2, 4), n=300), seed=5)
        for r in ds.records:
            assert 2 <= len(r.concepts) <= 4

    def test_each_record_single_group(self):
        groups = {y: set(g) for y, g in TWO_GROUPS.items()}
        ds = generate(self.spec(n=300), seed=9)
        for r in ds.records:
            hits = [y for y, g in groups.items() if set(r.concepts) <= g]
            assert len(hits) == 1  # concepts never straddle groups

    def test_rho_one_no_cross_group(self):
        groups = {y: set(g) for y, g in TWO_GROUPS.items()}
        ds = generate(self.spec(rho=1.0, n=500), seed=21)
        for r in ds.records:
            assert set(r.concepts) <= groups[r.label]

    def test_rho_095_cross_fraction(self):
        groups = {y: set(g) for y, g in TWO_GROUPS.items()}
        ds = generate(self.spec(rho=0.95, n=2000), seed=7)
        cross = sum(1 for r in ds.records if not set(r.concepts) <= groups[r.label])
        # expectation 5% of 4000 = 200; allow a generous band
        assert 120 <= cross <= 280

    def test_three_classes_cross_pick_uniformish(self):
        groups = {
            "a": ("a1", "a2", "a3"),
            "b": ("b1", "b2", "b3"),
            "c": ("c1", "c2", "c3"),
        }
        spec = BiasSpec(groups=groups, rho=0.6, per_class_n=3000, concepts_per_record=(1, 2))
        ds = generate(spec, seed=13)
        sets = {y: set(g) for y, g in groups.items()}
        tallies = {"b": 0, "c": 0}
        for r in ds.records:
            if r.label != "a":
                continue
            if set(r.concepts) <= sets["a"]:
                continue
            for other in ("b", "c"):
                if set(r.concepts) <= sets[other]:
                    tallies[other] += 1
        total = sum(tallies.values())
        assert total > 800  # about 40% of 3000
        assert abs(tallies["b"] - tallies["c"]) < total * 0.2


# A batch is 512 outputs; the stream tests cross at least three boundaries.
BATCH = 512
seeds = st.integers(-(2**70), 2**70) | st.sampled_from([0, 2**64 - 1, 2**64, 2**64 + 5, -1])

README_SPEC = BiasSpec(
    groups={
        "landbird": ("tree", "forest", "grass", "bamboo", "field"),
        "waterbird": ("ocean", "beach", "lake", "boat", "dock"),
    },
    rho=0.95,
    per_class_n=1000,
    concepts_per_record=(1, 3),
)

# sha256 of serialize_jsonl(generate(README_SPEC, 7)) from the one-draw-at-a-time
# generator and the json-encoder writer, before batching.
README_SPEC_SEED_7_SHA256 = "855fda74a414b05dab54f76a6dc1a1ee46cfa91731bc27c98052cc204f1d4de0"

names = st.text(
    st.sampled_from(['"', "\\", "\x00", "\x1f", " ", "\U0001F600", "\ud800", "a", "é"])
    | st.characters(),
    min_size=1,
    max_size=4,
)


@st.composite
def bias_specs(draw):
    n_classes = draw(st.integers(2, 4))
    pool = draw(st.lists(names, min_size=n_classes + n_classes, max_size=n_classes * 6, unique=True))
    labels, concepts = pool[:n_classes], pool[n_classes:]
    cuts = sorted(draw(st.lists(st.integers(1, len(concepts) - 1), min_size=n_classes - 1, max_size=n_classes - 1, unique=True)))
    bounds = [0, *cuts, len(concepts)]
    groups = {y: tuple(concepts[a:b]) for y, a, b in zip(labels, bounds, bounds[1:])}
    smallest = min(len(g) for g in groups.values())
    hi = draw(st.integers(1, smallest))
    lo = draw(st.integers(1, hi))
    return BiasSpec(
        groups=groups,
        rho=draw(st.floats(0.5, 1.0, exclude_min=True)),
        per_class_n=draw(st.integers(1, 40)),
        concepts_per_record=(lo, hi),
    )


# One call on the RNG: ("skip", n) draws n raw outputs; the rest name a method.
calls = st.one_of(
    st.tuples(st.just("skip"), st.integers(0, 3 * BATCH)),
    st.tuples(st.just("random")),
    st.tuples(st.just("randrange"), st.integers(-2, 8) | st.integers(1, 2**64)),
    st.tuples(
        st.just("sample"),
        st.lists(st.text(max_size=2), max_size=8),
        st.integers(0, 9),
    ),
)


def play(rng, call):
    """Result of one call, or the exception type it raised."""
    try:
        if call[0] == "skip":
            return [rng.next_u64() for _ in range(call[1])]
        if call[0] == "random":
            return rng.random()
        if call[0] == "randrange":
            return rng.randrange(call[1])
        return rng.sample(list(call[1]), call[2])
    except ValueError as exc:
        return type(exc)


class TestBatchedStream:
    @settings(max_examples=60, deadline=None)
    @given(seeds, st.integers(3 * BATCH + 1, 4 * BATCH + 7))
    def test_stream_matches_reference_across_batches(self, seed, n):
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(n)] == reference_splitmix64(seed, n)

    @settings(max_examples=100, deadline=None)
    @given(seeds, st.lists(calls, max_size=40))
    def test_interleaved_calls_match_reference_class(self, seed, script):
        ours, ref = SplitMix64(seed), ReferenceSplitMix64(seed)
        for call in script:
            assert play(ours, call) == play(ref, call), call
        assert ours.next_u64() == ref.next_u64()

    def test_instances_do_not_share_a_stream(self):
        a, b = SplitMix64(3), SplitMix64(3)
        first = [a.next_u64() for _ in range(BATCH + 1)]
        assert [b.next_u64() for _ in range(BATCH + 1)] == first


class TestGenerateAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(bias_specs(), seeds)
    def test_generate_matches_reference(self, spec, seed):
        ours, ref = generate(spec, seed), reference_generate(spec, seed)
        assert ours == ref
        assert serialize_jsonl(ours) == reference_serialize_jsonl(ref)

    def test_readme_spec_golden_sha256(self):
        text = serialize_jsonl(generate(README_SPEC, 7))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == README_SPEC_SEED_7_SHA256
