"""canonical_json and its chunks against the json module they replace, as
the oracle; the streamed writer's memory and file mode."""

import enum
import itertools
import json
import math
import os
import stat
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coocbias import BiasSpec, DiagnosisConfig, diagnose, generate
from coocbias.report import _BATCH, canonical_chunks, canonical_json, report_dict, write_text


def oracle_json(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.text(),
)

# Keys of one type per dict, since sort_keys cannot order mixed types.
keyed_dicts = st.one_of(
    *(
        st.dictionaries(keys, st.none() | st.integers() | st.text(), max_size=4)
        for keys in (
            st.integers(),
            st.floats(allow_nan=False),
            st.booleans(),
            st.none(),
        )
    )
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(st.text(), max_size=5),
        st.lists(st.text() | children, max_size=5),
        st.dictionaries(st.text(), children, max_size=5),
        keyed_dicts,
    ),
    max_leaves=40,
)


@settings(max_examples=500, deadline=None)
@given(values)
def test_matches_json_dumps(value):
    assert canonical_json(value) == oracle_json(value)


class Level(enum.IntEnum):
    LOW = 1


class Tag(str, enum.Enum):
    SKY = "sky"


class Ratio(float):
    pass


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": ()},
        [[[]]],
        {"x": [{"y": []}]},
        [Level.LOW, Tag.SKY, Ratio(0.5), Ratio(math.inf)],
        {Level.LOW: Tag.SKY, 2: [Tag.SKY, "tree"]},
        {Tag.SKY: (Level.LOW,), "a": Ratio(-0.0)},
    ],
    ids=repr,
)
def test_fixed_cases(value):
    assert canonical_json(value) == oracle_json(value)


@pytest.mark.parametrize(
    "value",
    [object(), {"a": {1, 2}}, [b"bytes"], {("tuple", "key"): 1}, {"a": [1, object()]}],
    ids=["object", "set", "bytes", "tuple-key", "nested-object"],
)
def test_unserializable_raises_type_error(value):
    with pytest.raises(TypeError):
        oracle_json(value)
    with pytest.raises(TypeError):
        canonical_json(value)


def repeated(items, n):
    """A list of n items cycling through ``items``."""
    return list(itertools.islice(itertools.cycle(items), n))


# Lists around one and two batches long, and containers nested in containers.
long_lists = st.tuples(
    st.lists(scalars | st.lists(st.text(), max_size=3), min_size=1, max_size=3),
    st.sampled_from([_BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH, 2 * _BATCH + 1]),
).map(lambda t: repeated(*t))

chunked_values = st.recursive(
    scalars | long_lists | long_lists.map(tuple),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(), children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=3),
        keyed_dicts,
    ),
    max_leaves=12,
)


class TestCanonicalChunks:
    @settings(max_examples=200, deadline=None)
    @given(chunked_values)
    def test_joined_chunks_match_json_dumps(self, value):
        assert "".join(canonical_chunks(value)) == oracle_json(value)

    def test_long_list_comes_in_batches(self):
        payload = {"a": {"b": list(range(2 * _BATCH + 1))}, "c": 1}
        chunks = list(canonical_chunks(payload))
        assert "".join(chunks) == oracle_json(payload)
        head, batches, tail = chunks[:2], chunks[2:5], chunks[5:]
        assert head == ['{\n  "a": ', '{\n    "b": ']
        # Each batch opens with the separator (or bracket) and its items' lines.
        assert [b.count("\n") for b in batches] == [_BATCH, _BATCH, 1]
        assert batches[2] == f",\n      {2 * _BATCH}"
        assert tail == ["\n    ]", "\n  }", ',\n  "c": ', "1", "\n}", "\n"]

    def test_leaf_containers_are_one_chunk(self):
        assert list(canonical_chunks({"a": 1, "b": "x"})) == [oracle_json({"a": 1, "b": "x"})[:-1], "\n"]
        assert list(canonical_chunks(list(range(_BATCH)))) == [oracle_json(list(range(_BATCH)))[:-1], "\n"]

    def test_unserializable_value_raises_when_reached(self):
        chunks = canonical_chunks({"a": [1], "b": [object()]})
        assert next(chunks) == '{\n  "a": '
        with pytest.raises(TypeError):
            list(chunks)


def dense_report() -> dict:
    """The report of a small dataset with many shared cliques (1.4 MB of JSON)."""
    groups = {f"class{i}": tuple(f"g{i}c{j:02d}" for j in range(20)) for i in range(4)}
    spec = BiasSpec(groups=groups, rho=0.6, per_class_n=600, concepts_per_record=(2, 4))
    dataset = generate(spec, 3)
    return report_dict(diagnose(dataset, DiagnosisConfig(k_max=3)), dataset, "0" * 64)


class TestWriteText:
    def test_streamed_write_holds_far_less_than_the_report(self, tmp_path):
        report = dense_report()
        text = canonical_json(report)
        size = len(text.encode("utf-8"))
        assert len(report["imbalances"]) > 4 * _BATCH
        path = tmp_path / "report.json"
        tracemalloc.start()
        try:
            write_text(path, canonical_chunks(report))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.read_text(encoding="utf-8") == text
        assert peak < size / 4, f"traced peak {peak} B against a {size} B report"

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077, 0o002])
    def test_file_mode_follows_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            write_text(tmp_path / "out.json", ["{}", "\n"])
            with open(tmp_path / "plain.json", "w") as fh:
                fh.write("{}\n")
        finally:
            os.umask(old)
        mode = stat.S_IMODE((tmp_path / "out.json").stat().st_mode)
        assert mode == 0o666 & ~umask
        assert mode == stat.S_IMODE((tmp_path / "plain.json").stat().st_mode)

    def test_overwrite_takes_the_umask_mode(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old")
        path.chmod(0o600)
        old = os.umask(0o022)
        try:
            write_text(path, "new\n")
        finally:
            os.umask(old)
        assert path.read_text() == "new\n"
        assert stat.S_IMODE(path.stat().st_mode) == 0o644

    def test_error_mid_stream_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.json"

        def chunks():
            yield "{"
            raise TypeError("not serializable")

        with pytest.raises(TypeError):
            write_text(path, chunks())
        assert list(tmp_path.iterdir()) == []

    def test_error_mid_stream_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.json"
        write_text(path, "old\n")
        with pytest.raises(TypeError):
            write_text(path, canonical_chunks({"a": [1], "b": object()}))
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
