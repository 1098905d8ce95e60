"""The verification harness itself: suites, determinism, self-test."""

from __future__ import annotations

import dataclasses
import itertools
import json

import pytest

import ghlab.tunnels as tunnels
import ghlab.verify as verify
from ghlab import correspondence, diameter, glue_from_correspondence
from ghlab.cli import EXIT_VALIDATION, main
from ghlab.metric_core import MetricError
from ghlab.verify import SUITES, TheoremResult, run_suite


def test_every_suite_passes():
    for name in SUITES:
        results = run_suite(name, seed=0)
        assert results, name
        for tr in results:
            assert tr.passed, (name, tr.theorem, tr.counterexample)
            assert tr.cases > 0


def test_runs_are_deterministic_under_a_seed():
    a = [tr.to_json() for tr in run_suite("all", seed=5)]
    b = [tr.to_json() for tr in run_suite("all", seed=5)]
    assert json.dumps(a, sort_keys=True, default=str) == json.dumps(
        b, sort_keys=True, default=str
    )


def test_unknown_suite_raises():
    with pytest.raises(ValueError):
        run_suite("nope")


@pytest.mark.parametrize("cases", [0, -1])
def test_a_run_over_no_cases_is_refused(capsys, cases):
    # a theorem checked on no case would report a pass over nothing
    with pytest.raises(MetricError):
        run_suite("fundamental", cases=cases)
    assert main(["verify", "--cases", str(cases)]) == EXIT_VALIDATION
    report = json.loads(capsys.readouterr().out)
    assert report["error"]["kind"] == "MetricError"


def test_case_count_override_shrinks_the_run():
    small = run_suite("fundamental", seed=1, cases=5)
    assert small and all(tr.cases == 5 for tr in small)
    assert sum(tr.cases for tr in small) < sum(
        tr.cases for tr in run_suite("fundamental", seed=1)
    )


def test_result_json_shape():
    tr = run_suite("inframetric", seed=2, cases=4)[0]
    obj = tr.to_json()
    assert set(obj) == {"theorem", "cases", "failures", "counterexample"}
    json.dumps(obj)  # must be serializable as-is


def test_injected_bug_is_caught_with_a_counterexample(monkeypatch):
    # corrupt the delta_r the suites call: the harness must notice and
    # return a counterexample rather than passing silently
    real = verify.delta_r

    def skewed(glued, r, strict=False, tol=0):
        return real(glued, r, strict=strict, tol=tol) + 1

    monkeypatch.setattr(verify, "delta_r", skewed)
    results = run_suite("inframetric", seed=0, cases=10)
    broken = [tr for tr in results if not tr.passed]
    assert broken
    assert all(isinstance(tr.counterexample, dict) for tr in broken)
    json.dumps([tr.to_json() for tr in broken])


def test_witness_threshold_catches_a_witness_that_does_not_attain_raw(monkeypatch):
    # a witness glued wider than the search's winner has a larger delta
    # profile than raw; the checks that read raw alone still pass
    real = verify.gh_inframetric

    def wide_witness(x, y, **kw):
        res = real(x, y, **kw)
        full = correspondence([(i, j) for i in range(x.n) for j in range(y.n)], x.n, y.n)
        eta = 1 + max(diameter(x.space), diameter(y.space))
        return dataclasses.replace(res, witness=glue_from_correspondence(x, y, full, eta))

    monkeypatch.setattr(verify, "gh_inframetric", wide_witness)
    results = run_suite("inframetric", seed=0, cases=10)
    assert [tr.theorem for tr in results if not tr.passed] == ["witness-threshold"]


def test_target_inversion_counts_an_empty_inverse_lift_set_as_a_failure(monkeypatch):
    # every second call is a case's lift back through the inverse passage;
    # planting an empty lift set there must give a counted failure with its
    # counterexample, not an exception that ends `gh verify`
    real, calls = verify.lift_target_bounds, itertools.count(1)

    def empty_inverse(p, a, l, r, eps, K, strict=True, tol=0):
        if next(calls) % 2 == 0:
            return tunnels._infeasible_bounds(p, strict)
        return real(p, a, l, r, eps, K, strict, tol)

    monkeypatch.setattr(verify, "lift_target_bounds", empty_inverse)
    results = run_suite("fundamental", seed=0, cases=4)
    broken = [tr for tr in results if not tr.passed]
    assert [(tr.theorem, tr.failures) for tr in broken] == [("target-inversion", 4)]
    assert isinstance(broken[0].counterexample, dict)
