"""Self-tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

import inputs
import run  # puts the checkout's src on sys.path
import tracing
import workloads


def _stored(workload: str, input_set: int) -> dict:
    with open(run.STORED_REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)[workload][str(input_set)]


def _is_metric(doc: dict) -> bool:
    d = inputs.rows_of(doc)
    n = len(d)
    return all(d[i][i] == 0 for i in range(n)) and all(
        d[i][j] == d[j][i] and d[i][j] > 0 and d[i][j] <= d[i][k] + d[k][j]
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if i != j
    )


def test_generator_is_deterministic_and_valid():
    for workload in workloads.WORKLOADS:
        a = json.dumps(workloads.pool(workload, 7), sort_keys=True).encode()
        b = json.dumps(workloads.pool(workload, 7), sort_keys=True).encode()
        assert a == b
        other = inputs.digest(workloads.pool(workload, 8))
        assert other != inputs.digest(workloads.pool(workload, 7))
    for query in workloads.pool("search", 7):
        assert _is_metric(query["x"]) and _is_metric(query["y"])
    for query in workloads.pool("cli-float", 7)[:60]:
        for doc in query["docs"].values():
            space = doc.get("space") or doc.get("host") or doc.get("gluing", {}).get("host") or doc
            assert _is_metric(space)


def test_stored_references_were_made_from_these_inputs():
    with open(run.STORED_REFERENCES, encoding="utf-8") as fh:
        stored = json.load(fh)
    for workload in workloads.WORKLOADS:
        assert sorted(map(int, stored[workload])) == list(range(run.INPUT_SETS))
        for input_set, entry in stored[workload].items():
            pool = workloads.pool(workload, int(input_set))
            assert entry["digest"] == inputs.digest(pool)
            assert len(entry["refs"]) == len(pool)
            # no exact reference is itself a failure
            assert not any(isinstance(ref, dict) for ref in entry["refs"])
            assert ("float_errors" in entry) == (workload == "cli-float")


def test_self_times_on_a_nested_span_tree():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9];  root > c [8,9.5]
    # (c overlaps b, so the root's children cover [1,4] and [5,9.5])
    start = [0.0, 1.0, 2.0, 5.0, 8.0]
    end = [10.0, 4.0, 3.0, 9.0, 9.5]
    parent = [-1, 0, 1, 0, 0]
    assert tracing.self_times(start, end, parent) == [2.5, 2.0, 1.0, 4.0, 1.5]


def test_tracer_sees_internal_calls_and_restores_every_original():
    before = tracing.snapshot()
    assert before, "no traced function found in the ghlab modules"
    query = workloads.pool("search", 3)[0]
    op, args = workloads.prepare_api(query)
    plain = workloads.execute(op, args)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = tracer.call(tracing.ROOT, workloads.execute, op, args)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracing.originals_restored(before)
    for mod in tracing._ghlab_modules():
        for _, func in tracing.wrapped_names():
            assert not hasattr(getattr(mod, func, None), "__wrapped__"), (mod.__name__, func)
    calls, self_s = tracer.layer_totals()
    # validate_metric is reached through gluing's own `from .metric_core import`
    assert calls["metric_core.validate_metric"] > 0
    assert calls["gluing.glue_from_correspondence"] == tracer.counts["gluing.correspondences"]
    assert abs(sum(self_s.values()) - (tracer.end[0] - tracer.start[0])) < 1e-9


def test_planted_wrong_value_is_counted_in_wrong_share():
    pool = workloads.pool("tunnel", 5)[:4]
    prepared = [workloads.prepare_api(q) for q in pool]
    stored = _stored("tunnel", 5)
    records, wall = run.run_queries(prepared, range(len(pool)))
    assert run.evaluate("tunnel", pool, prepared, stored, records).passed
    planted = dict(stored, refs=list(stored["refs"]))
    extent = next(i for i, q in enumerate(pool) if q["op"] == "extent")
    planted["refs"][extent] = inputs.scalar(Fraction(10**6, 7))
    tally = run.evaluate("tunnel", pool, prepared, planted, records)
    assert tally.wrong == 1 and tally.correct == len(pool) - 1 and not tally.passed
    assert "reference" in tally.first_failure
    metrics = run.end_to_end(tally, wall, 0.1)
    assert metrics["wrong_share"][0] == 1 / len(pool)
    assert metrics["error_share"][0] == 0


def test_any_error_fails_search_and_tunnel():
    pool = workloads.pool("search", 2)[:2]
    prepared = [workloads.prepare_api(q) for q in pool]
    records, _ = run.run_queries(prepared, range(len(pool)))
    records[1] = (1, records[1][1], RuntimeError("planted"))
    tally = run.evaluate("search", pool, prepared, _stored("search", 2), records)
    assert tally.errors == {"RuntimeError": 1} and tally.unexpected == 1
    assert not tally.passed and tally.wrong == 0


def test_cli_float_accepts_only_the_stored_errors(tmp_path):
    stored = _stored("cli-float", 0)
    assert stored["float_errors"], "seed 0 should show the float-ingestion defect"
    pool = workloads.pool("cli-float", 0)
    prepared = [workloads.write_cli_docs(q, i, str(tmp_path)) for i, q in enumerate(pool)]
    failing = int(next(iter(stored["float_errors"])))
    passing = next(i for i in range(len(pool)) if str(i) not in stored["float_errors"])
    records, _ = run.run_queries(prepared, [failing, passing])
    tally = run.evaluate("cli-float", pool, prepared, stored, records)
    assert sum(tally.errors.values()) == 1 and tally.passed and tally.failed == 0
    # the same error on a query that answered when the references were made
    records[1] = (passing, records[1][1], records[0][2])
    tally = run.evaluate("cli-float", pool, prepared, stored, records)
    assert tally.unexpected == 1 and not tally.passed and tally.failed == 1
    # another kind of error on the query that is known to fail
    records[0] = (failing, records[0][1], RuntimeError("planted"))
    tally = run.evaluate("cli-float", pool, prepared, stored, records)
    assert tally.unexpected == 2


def test_speed_meter_scales_each_query_by_the_kernels_around_it():
    meter = run.SpeedMeter()
    for secs in (0.003, 0.001, 0.002):
        meter.after(secs)
    assert meter.position[0] == 0 and meter.kernel_s >= run.CALIBRATION_SHARE * 0.006
    # 30 kernel runs: ten at 1 ms, ten at 2 ms, ten at 0.5 ms
    meter.kernel_times = [0.001] * 10 + [0.002] * 10 + [0.0005] * 10
    meter.position = [0, 10, 10, 20, 30]
    assert run.LOCAL_KERNELS == 20  # the windows below assume it
    # the second query is followed by no kernel, the fourth by ten
    expected = [20 / 0.03, 20 / 0.03, 20 / 0.03, 20 / 0.025, 20 / 0.025]
    assert meter.scales() == pytest.approx([r / run.REFERENCE_RATE for r in expected])
    # a long query: all 25 kernels that ran before the next one
    meter.position = [0, 25]
    expected = [25 / 0.0325, 20 / 0.025]
    assert meter.scales() == pytest.approx([r / run.REFERENCE_RATE for r in expected])


def test_float_answers_match_within_tolerance_and_in_exact_form():
    query = {"op": "propinquity", "docs": {}}
    assert workloads.matches("cli-float", query, ["1/3", "5/8"], ["5/8", "5/8"])
    assert not workloads.matches("cli-float", query, ["0", "1/2"], ["5/8", "5/8"])
    assert workloads.matches("cli-float", {"op": "w1"}, 1 / 3, "1/3")
    assert not workloads.matches("cli-float", {"op": "w1"}, 0.3333, "1/3")
    assert not workloads.matches("search", {"op": "Delta_r"}, "1/3", {"error": "KeyError"})
