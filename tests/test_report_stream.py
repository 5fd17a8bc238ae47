"""The diagnose report streamed from the table's columns, one batch of entries at a time."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coocbias.cli import main
from coocbias.dataset import AnnotationRecord, Dataset, serialize_jsonl
from coocbias.rebalance import RebalanceConfig
from coocbias.report import _BATCH, DiagnosisConfig, canonical_json, diagnose, report_chunks, report_dict
from coocbias.synth import BiasSpec, generate
from support import datasets

# sha256 of stdout for the pinned input below, taken before the report was
# streamed from the table's columns; the reports hold 540 (relaxed: 720)
# imbalance entries, so the stream crosses two batch boundaries.
PINNED = {
    "diagnose": "f5883e31ccb642593fff362b0a92991f9fd94534ad49d51e5e86d69650039f98",
    "diagnose --relax 0.5": "650a0c691237e9a7c038567b9f9411bd969768a9bebd0ee2cdb0dba796d5bc58",
    "diagnose --cap 3": "f00d4e09a3a8154c72f4957d19295c9e4b844835b9c363751a0f87adcd2ce84f",
    "sample": "376efe2e668a3693f8deacf328f62307b6c5018c5fa1ec26dc53ac5dde18207f",
}


@pytest.fixture(scope="module")
def pinned_input(tmp_path_factory):
    groups = {f"c{i}": tuple(f"g{i}x{j:02d}" for j in range(16)) for i in range(4)}
    spec = BiasSpec(groups=groups, rho=0.6, per_class_n=200)
    path = tmp_path_factory.mktemp("pinned") / "input.jsonl"
    path.write_text(serialize_jsonl(generate(spec, 5)), encoding="utf-8", newline="\n")
    return path


@pytest.mark.parametrize("command", sorted(PINNED))
def test_pinned_output(pinned_input, capsys, command):
    name, *flags = command.split()
    assert main([name, "--input", str(pinned_input), "--k-max", "3", *flags]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == PINNED[command]


@settings(max_examples=150, deadline=None)
@given(datasets(max_concepts=6), st.sampled_from([None, 0.5]), st.sampled_from([None, 1]))
def test_stream_equals_the_report(ds, relax, cap):
    result = diagnose(ds, DiagnosisConfig(relax_fraction=relax, rebalance=RebalanceConfig(per_query_cap=cap)))
    streamed = "".join(report_chunks(result, ds, "0" * 64))
    assert streamed == canonical_json(report_dict(result, ds, "0" * 64))
    assert result.imbalances == result.imbalances  # built: the report now reads the entries
    assert "".join(report_chunks(result, ds, "0" * 64)) == streamed


def uneven_singletons(n: int) -> Dataset:
    """Classes A and B; concept u<i> is in two A records and one B record for
    each i < n, so exactly n cliques are uneven; concept even is balanced."""
    records = [AnnotationRecord("e0", "A", ("even",)), AnnotationRecord("e1", "B", ("even",))]
    for i in range(n):
        name = f"u{i:03d}"
        records += [AnnotationRecord(f"{name}-{j}", label, (name,)) for j, label in enumerate("AAB")]
    return Dataset.from_records(records)


@pytest.mark.parametrize("n", [0, 1, _BATCH, _BATCH + 1])
def test_entry_counts_at_the_batch_edges(n):
    ds = uneven_singletons(n)
    result = diagnose(ds, DiagnosisConfig(k_max=2))
    pieces = list(report_chunks(result, ds, "0" * 64))
    report = report_dict(result, ds, "0" * 64)
    assert len(report["imbalances"]) == n
    assert "".join(pieces) == canonical_json(report)
    # After its key, one piece per batch of entries, then the closing piece.
    at = pieces.index(',\n  "imbalances": ')
    closed = pieces.index("\n  ]" if n else "[]", at)
    assert closed - at == (n + _BATCH - 1) // _BATCH + 1
