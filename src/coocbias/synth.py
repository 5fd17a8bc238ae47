"""Seeded generator for datasets with a planted class-concept correlation.

Each class is tied to one concept group. A record of that class draws most of
its concepts from the tied group with probability ``rho`` per record (the
bias strength), otherwise from one uniformly chosen other group. rho near 1
plants a strong spurious correlation, the regime where background concepts
predict the label almost perfectly; rho near 0.5 is mild.

Determinism matters more here than statistical pedigree, so the randomness
comes from a small self-contained SplitMix64 generator rather than the
platform RNG: same seed, same dataset, on any machine and Python build.
``generate`` builds the dataset from its own rows, as ``apply_virtual`` does,
with no second validation pass over them.

SplitMix64's output *i* depends only on ``seed + i * golden``, so the
generator computes its outputs in batches of 512. One ``int`` holds a batch
as 512 lanes of 128 bits, one state per lane, and each mixing step is one
whole-integer operation: shift and xor, mask every lane back to 64 bits,
then multiply, which cannot carry out of a 128-bit lane. An explicit
little-endian ``struct`` format unpacks the batch, so the bytes are the same
on any platform. A batch costs about 60 µs, 0.12 µs per output, and a draw
reads the next output with one step of a C iterator (2-vCPU VM, CPython
3.11.7).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain

from .dataset import Dataset, _Columns

__all__ = ["SplitMix64", "BiasSpec", "generate"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

_LANES = 512
# Lane j (16 little-endian bytes) holds 1 in _ONES, (j + 1) * golden in
# _OFFSETS (below 2^74, so adding a seed cannot carry out of the lane) and the
# 64-bit mask in _LOW.
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")
_OFFSETS = int.from_bytes(struct.pack("<" + "Q8x" * _LANES, *range(1, _LANES + 1)), "little") * _GOLDEN
_LOW = int.from_bytes((b"\xff" * 8 + bytes(8)) * _LANES, "little")
_UNPACK = struct.Struct("<" + "Q8x" * _LANES).unpack


def _batches(state: int):
    """Yield SplitMix64's outputs after ``state``, 512 at a time, as tuples."""
    while True:
        z = (state * _ONES + _OFFSETS) & _LOW
        z = ((z ^ (z >> 30)) & _LOW) * 0xBF58476D1CE4E5B9 & _LOW
        z = ((z ^ (z >> 27)) & _LOW) * 0x94D049BB133111EB & _LOW
        # Bits shifted in from the next lane land in this lane's high 8 bytes,
        # which the format skips.
        yield _UNPACK((z ^ (z >> 31)).to_bytes(16 * _LANES, "little"))
        state = (state + _LANES * _GOLDEN) & _MASK


class SplitMix64:
    """Minimal 64-bit mixing RNG (public-domain constants).

    State advances by the golden-ratio increment; output runs through two
    xor-shift-multiply rounds. Tiny state, full 2^64 period, and completely
    reproducible across platforms, which is all the generator needs. The
    outputs come from one iterator over 512-output batches (see the module
    docstring), which every draw reads directly. The seed is any ``int``
    (not a ``bool``), taken modulo 2^64; anything else raises ValueError.
    """

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        self._u64 = chain.from_iterable(_batches(seed & _MASK))

    def next_u64(self) -> int:
        return next(self._u64)

    def random(self) -> float:
        """Uniform float in [0, 1) from the top 53 bits."""
        return (next(self._u64) >> 11) * (2.0**-53)

    def randrange(self, n: int) -> int:
        """Uniform int in [0, n) by rejection, no modulo bias."""
        if not 1 <= n <= 1 << 64:
            raise ValueError(f"randrange needs 1 <= n <= 2**64, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        for u in self._u64:
            if u < limit:
                return u % n

    def sample(self, items: list[str], k: int) -> list[str]:
        """k distinct items, partial Fisher-Yates over a copy."""
        if not 0 <= k <= len(items):
            raise ValueError(f"sample size {k} is outside 0..{len(items)}")
        pool = list(items)
        randrange = self.randrange
        for i in range(k):
            j = i + randrange(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


@dataclass(frozen=True)
class BiasSpec:
    """Recipe for a biased dataset.

    ``groups`` maps each class to its tied concept group, a list or tuple of
    names. Groups must be pairwise disjoint and share no name with any class.
    ``rho`` is the per-record probability of drawing concepts from the tied
    group; ``concepts_per_record`` bounds the draw size (inclusive).

    This is the one validator of a spec, for library callers and the CLI
    alike: each field gets one check of its type and range, and a bad field
    raises ValueError naming it. A name may be any ``str``; ``generate`` uses
    it as given.
    """

    groups: dict[str, tuple[str, ...]]
    rho: float
    per_class_n: int
    concepts_per_record: tuple[int, int] = (1, 3)

    def __post_init__(self) -> None:
        groups, rho, n, cpr = self.groups, self.rho, self.per_class_n, self.concepts_per_record
        if not isinstance(groups, dict) or len(groups) < 2:
            raise ValueError("groups must map at least two classes to concept groups")
        seen: dict[str, str] = {}
        for label, group in groups.items():
            names = group if isinstance(label, str) and isinstance(group, (list, tuple)) else ()
            if not names or not all(isinstance(c, str) for c in names) or len(set(names)) < len(names):
                raise ValueError(f"groups: class {label!r} needs a non-empty list of distinct concept names")
            for c in names:
                if c in seen:
                    raise ValueError(f"groups: concept {c!r} appears in groups of both {seen[c]!r} and {label!r}")
                if c in groups:
                    raise ValueError(f"groups: name {c!r} is both a class and a concept")
                seen[c] = label
        # The comparison also rejects NaN, the infinities and ints too large for a float.
        if isinstance(rho, bool) or not isinstance(rho, (int, float)) or not 0.5 < rho <= 1.0:
            raise ValueError(f"rho must be a number in (0.5, 1.0], got {rho!r}")
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"per_class_n must be an integer >= 1, got {n!r}")
        smallest = min(map(len, groups.values()))
        lo, hi = cpr if isinstance(cpr, (list, tuple)) and len(cpr) == 2 else (0, 0)
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (lo, hi)) or not 1 <= lo <= hi <= smallest:
            raise ValueError(
                f"concepts_per_record must be two integers with 1 <= lo <= hi <= {smallest}, "
                f"the smallest group size; got {cpr!r}"
            )


def generate(spec: BiasSpec, seed: int) -> Dataset:
    """Produce the dataset a BiasSpec describes, deterministically from seed.

    Records are emitted class by class (classes in sorted order), ids
    "<label>-<i>" with i counting from 0. Per record the generator draws, in
    a fixed order: the bias coin, the cross-group pick when the coin says so,
    the record size, then the concept sample. Fixed order keeps one stream of
    randomness reproducible regardless of outcome.

    The rows go straight into the ``Dataset``, without ``from_records``'
    per-row check: ids ``"<label>-<i>"`` cannot collide, ``BiasSpec`` keeps
    class and concept names apart, and each concept sample is sorted and
    duplicate-free. Names are used as the spec gives them, an empty one
    included; ``parse_jsonl`` reads a name back unchanged only when it is
    non-empty, trimmed and NFC, which the CLI checks before it generates.
    """
    rng = SplitMix64(seed)
    coin, randrange, sample = rng.random, rng.randrange, rng.sample
    rho = spec.rho
    labels = sorted(spec.groups)
    lo, hi = spec.concepts_per_record
    rows = _Columns([], [], [])
    ids, row_labels, lists = rows
    # One tuple per distinct concept list, as the parsers share them.
    shared: dict[tuple[str, ...], tuple[str, ...]] = {}
    for label in labels:
        own = list(spec.groups[label])
        others = [list(spec.groups[y]) for y in labels if y != label]
        for i in range(spec.per_class_n):
            tied = coin() < rho
            pick = randrange(len(others))
            size = lo + randrange(hi - lo + 1)
            pool = own if tied else others[pick]
            concepts = tuple(sorted(sample(pool, min(size, len(pool)))))
            ids.append(f"{label}-{i}")
            row_labels.append(label)
            lists.append(shared.setdefault(concepts, concepts))
    return Dataset(records=rows, classes=tuple(labels), concepts=tuple(sorted(set().union(*shared))))
