"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import gzip
import math
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import outcheck  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402


def test_self_time_subtracts_children_once():
    tree = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("c", 2.0, 3.0, 1, 0),  # grandchild: counts against a, not root
        Span("b", 5.0, 6.0, 0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_as_their_union():
    tree = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 5.0, 0, 0),
        Span("c", 9.0, 12.0, 0, 0),  # clipped to the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 4.0 - 1.0)


@pytest.mark.parametrize(
    "n, pct",
    [(5, None), (10, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
     (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    values = list(range(1, n + 1))
    random.Random(n).shuffle(values)
    got_pct, got = spans.tail(values)
    assert got_pct == pct
    if pct is not None:
        assert got == math.ceil(pct / 100.0 * n - 1e-9)  # nearest rank
        assert sum(v > got for v in values) >= 10


def _reference_rows(n):
    with gzip.open(BENCH / "reference" / "stock.csv.gz", "rt") as fh:
        return fh.read().splitlines()[1 : n + 1]


def test_output_check_detects_one_ulp_in_a_copied_row():
    rows = _reference_rows(5)
    want = outcheck.join_rows("h", [rows])
    fields = rows[3].split(",")
    x = float(fields[5])
    fields[5] = repr(math.nextafter(x, math.inf))
    got = outcheck.join_rows("h", [rows[:3] + [",".join(fields)] + rows[4:]])

    same = outcheck.compare(want, want)
    assert same.identical and same.max_dev == 0.0 and same.passed
    c = outcheck.compare(got, want)
    assert not c.identical
    assert c.max_dev == math.ulp(x)
    assert c.key_mismatches == 0


def test_output_check_fails_on_counts_and_large_deviations():
    rows = _reference_rows(2)
    want = outcheck.join_rows("h", [rows])
    fields = rows[1].split(",")
    fields[4] = str(int(fields[4]) + 1)  # map_n
    assert not outcheck.compare(outcheck.join_rows("h", [[rows[0], ",".join(fields)]]), want).passed
    fields = rows[1].split(",")
    fields[8] = repr(float(fields[8]) + 10 * outcheck.FLOAT_TOL)
    assert not outcheck.compare(outcheck.join_rows("h", [[rows[0], ",".join(fields)]]), want).passed
    fields[8] = "nan"
    assert not outcheck.compare(outcheck.join_rows("h", [[rows[0], ",".join(fields)]]), want).passed
    assert not outcheck.compare(outcheck.join_rows("h", [rows[:1]]), want).passed


def _originals():
    return [getattr(sys.modules[c], n) for c, n, _ in spans.CALL_SITES]


def test_wrappers_are_restored_after_an_error():
    spans.resolve_call_sites()
    before = _originals()
    with pytest.raises(KeyError):
        with spans.installed(spans.Tracer()):
            assert all(a is not b for a, b in zip(_originals(), before))
            raise KeyError("boom")
    assert all(a is b for a, b in zip(_originals(), before))


def test_missing_or_replaced_call_site_is_refused(monkeypatch):
    before = _originals()
    missing = spans.CALL_SITES + (("spawncphd.filtering", "no_such_layer", "spawncphd.filtering"),)
    with pytest.raises(spans.TraceSetupError, match="no_such_layer"):
        with spans.installed(spans.Tracer(), missing):
            pass
    assert all(a is b for a, b in zip(_originals(), before))

    import spawncphd.filtering as filtering

    monkeypatch.setattr(filtering, "reduce_mixture", lambda mix, cfg: mix)
    with pytest.raises(spans.TraceSetupError, match="reduce_mixture"):
        spans.resolve_call_sites()


def test_traced_run_reproduces_rows_and_fills_every_layer(tmp_path):
    from spawncphd.config import CSV_HEADER, load_config
    from spawncphd.experiment import run_experiment, run_one

    base = load_config(None)
    cfg = dataclasses.replace(
        base,
        n_runs=2,
        scenario=dataclasses.replace(base.scenario, n_scans=4, spawn_events=()),
    )
    untraced = outcheck.join_rows(CSV_HEADER, [run_one(cfg, r) for r in range(2)])
    tracer = spans.Tracer()
    with spans.installed(tracer):
        path = tracer.call(spans.EXPERIMENT_SPAN, run_experiment, cfg, tmp_path, jobs=1)
    assert path.read_text() == untraced

    names = {s.name for s in tracer.spans}
    assert names == {spans.span_name(o, n) for _, n, o in spans.CALL_SITES} | {spans.EXPERIMENT_SPAN}
    assert {s.run for s in tracer.spans if s.name == "filtering.update"} == {0, 1}
    m = spans.layer_metrics(tracer.spans, model_scans=2 * 4 * 4, untraced_scan_rate=1.0)
    assert m["filtering.step_ms.n"][0] == 2 * 4 * 4
    assert m["sim.meas_per_scan.p50"][0] > 0
    assert all(math.isfinite(v) for v, _ in m.values() if v is not None)
    assert {k: unit for k, (_, unit) in m.items()} == _declared("per_layer")


def _declared(kind):
    import json

    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def test_reported_metrics_are_the_declared_ones():
    import run

    row = "0,0,zip,2,2,10.0,1.0,0.5,0.25"
    u = {"rows": [[row, row], [row], None], "times": [[1.0, 3.0, 9.0], [1.0], [2.0]]}
    e2e = run.end_to_end([1.0, 3.0, 2.0], u, 100.0)
    assert {k: unit for k, (_, unit) in e2e.items()} == _declared("end_to_end")
    assert e2e["ospa_pos_m"][0] == 10.0 and e2e["hellinger_upd"][0] == 0.25
    assert e2e["setup_s"][0] == 2.0
    # one median time per config; the failed config's time counts, its scans do not
    assert e2e["scan_rate"][0] == 3 / (3.0 + 1.0 + 2.0)
    assert e2e["run_s.p50"][0] == 2.0
