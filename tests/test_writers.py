"""The direct JSONL writers against their json-encoder references."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from coocbias.dataset import AnnotationRecord, Dataset, serialize_jsonl
from coocbias.rebalance import GenerationPlan, GenerationQuery
from coocbias.report import plan_jsonl
from support import reference_plan_jsonl, reference_serialize_jsonl

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None)

# Characters json escapes or passes through specially: quotes, backslashes,
# control characters, line and paragraph separators, a non-BMP character
# and lone surrogates.
awkward = st.sampled_from(
    ['"', "\\", "\x00", "\b", "\n", "\x1f", "\x7f", "\u2028", "\u2029", "\U0001F600", "\ud800", "\udfff", "é", "a"]
)
names = st.text(awkward | st.characters(), max_size=6)
concept_tuples = st.lists(names, max_size=4, unique=True).map(lambda cs: tuple(sorted(cs)))


@st.composite
def record_sets(draw):
    labels = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    shapes = draw(st.lists(concept_tuples, min_size=1, max_size=4))
    records = [
        AnnotationRecord(rid, draw(st.sampled_from(labels)), draw(st.sampled_from(shapes)))
        for rid in draw(st.lists(names, min_size=0, max_size=12, unique=True))
    ]
    return Dataset(records=tuple(records), classes=tuple(sorted(labels)), concepts=())


thresholds = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.6, 1]),
    st.integers(-(2**70), 2**70),
    st.booleans(),
)

queries = st.builds(
    GenerationQuery,
    label=names,
    concepts=concept_tuples,
    count=st.integers(-(2**70), 2**70),
    prompt=names,
    clip_threshold=thresholds,
    capped=st.booleans(),
)


def plan_of(qs) -> GenerationPlan:
    return GenerationPlan(
        queries=tuple(qs),
        total_count=sum(q.count for q in qs),
        truncated=any(q.capped for q in qs),
        per_class={},
        per_level={},
    )


AWKWARD_RECORD = AnnotationRecord('q"\\\x00\u2028\U0001F600\ud800', "L\x1f", ("\udfff", "b\\"))
CAPPED_QUERY = GenerationQuery("a\u2028", ("\ud800", 'x"'), 3, "a photo of x", 0.6, capped=True)


class TestSerializeJsonl:
    @PROPERTY_SETTINGS
    @given(record_sets())
    @example(Dataset(records=(AWKWARD_RECORD, AWKWARD_RECORD), classes=("L\x1f",), concepts=()))
    def test_matches_reference(self, dataset):
        assert serialize_jsonl(dataset) == reference_serialize_jsonl(dataset)


class TestPlanJsonl:
    @PROPERTY_SETTINGS
    @given(st.lists(queries, max_size=6))
    @example([CAPPED_QUERY, GenerationQuery("b", (), 1, "p", 1, capped=False)])
    @example([])
    def test_matches_reference(self, qs):
        plan = plan_of(qs)
        assert plan_jsonl(plan) == reference_plan_jsonl(plan)
