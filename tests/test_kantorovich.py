"""Monge-Kantorovich distances: the transport simplex over the host metric and
the certificate its own potentials give, against the vertex oracle."""

from __future__ import annotations

import inspect
import random
import sys
from fractions import Fraction as F

import pytest

import oracles
from ghlab import (
    MetricError,
    lip_constant,
    line_space,
    measure,
    real_function,
    space_from_json,
    validate_metric,
    w1,
    w1_dual_potential,
)
from ghlab import kantorovich
from ghlab.kantorovich import HostMismatch
from ghlab.metric_core import dist_to_set
from ghlab.numerics import INF, parse_scalar
from ghlab.simplex import IterationBudgetExceeded, solve_lp, transportation_simplex
from ghlab.verify import random_pointed_space


def random_measure(rng, space):
    w = [F(rng.randint(0, 6)) for _ in range(space.n)]
    if sum(w) == 0:
        w[rng.randrange(space.n)] = F(1)
    total = sum(w)
    return measure(space, [v / total for v in w])


def test_two_point_half_mass_transport():
    s = line_space([F(0), F(1)])
    mu = measure(s, [F(1, 2), F(1, 2)])
    nu = measure(s, [F(1), F(0)])
    assert w1(mu, nu) == F(1, 2)


def test_primal_dual_and_vertex_oracle_agree():
    rng = random.Random(23)
    for _ in range(40):
        s = random_pointed_space(rng, 2, 5).space
        mu, nu = random_measure(rng, s), random_measure(rng, s)
        primal = transportation_simplex(s.dist, mu.weights, nu.weights)[0]
        delta = [a - b for a, b in zip(mu.weights, nu.weights)]
        dual = sum(d * fv for d, fv in zip(delta, w1_dual_potential(mu, nu)[1]))
        both = w1(mu, nu)
        dist = [list(row) for row in s.dist]
        assert primal == dual == both == oracles.w1_dual_vertices(dist, delta)


def test_dirac_pair_recovers_the_distance():
    rng = random.Random(5)
    for _ in range(20):
        s = random_pointed_space(rng, 1, 5).space
        diracs = [measure(s, [int(k == i) for k in range(s.n)]) for i in range(s.n)]
        for x in range(s.n):
            for y in range(s.n):
                assert w1(diracs[x], diracs[y]) == s.d(x, y)


def test_metric_axioms_on_random_triples():
    rng = random.Random(9)
    for _ in range(25):
        s = random_pointed_space(rng, 2, 4).space
        a, b, c = (random_measure(rng, s) for _ in range(3))
        dab, dba = w1(a, b), w1(b, a)
        assert dab == dba >= 0
        assert w1(a, a) == 0
        assert w1(a, c) <= dab + w1(b, c)


def test_convexity_on_random_quadruples():
    rng = random.Random(13)
    for _ in range(25):
        s = random_pointed_space(rng, 2, 4).space
        m1, m2, n1, n2 = (random_measure(rng, s) for _ in range(4))
        lam = F(rng.randint(0, 8), 8)
        mix_m, mix_n = (
            measure(s, [lam * wa + (1 - lam) * wb for wa, wb in zip(a.weights, b.weights)])
            for a, b in ((m1, m2), (n1, n2))
        )
        left = w1(mix_m, mix_n)
        assert left <= lam * w1(m1, n1) + (1 - lam) * w1(m2, n2)


def test_dual_potential_is_feasible_and_tight():
    rng = random.Random(31)
    for _ in range(15):
        s = random_pointed_space(rng, 2, 4).space
        mu, nu = random_measure(rng, s), random_measure(rng, s)
        value, f = w1_dual_potential(mu, nu)
        assert lip_constant(real_function(s, f)) <= 1
        assert sum((wm - wn) * fv for wm, wn, fv in zip(mu.weights, nu.weights, f)) == value


# four points at mutual distance 0: every pair is a zero pair, on which the
# potential takes one value
ZERO_PAIRS_W1 = {
    "space": {"points": ["0", "1", "2", "3"], "dist": [[0] * 4 for _ in range(4)]},
    "mu": ["3/7", "1/7", "2/7", "1/7"],
    "nu": ["1/3", 0, "1/6", "1/2"],
}


def test_exact_dual_divides_exactly_on_zero_pairs():
    # the potential is the c-transform of the simplex's potentials, sums and
    # differences of the rows' rationals, so no float gets in
    s = space_from_json(ZERO_PAIRS_W1["space"], "rational")
    mu, nu = (measure(s, [parse_scalar(v) for v in ZERO_PAIRS_W1[k]]) for k in ("mu", "nu"))
    value, f = w1_dual_potential(mu, nu)
    assert value == 0 and isinstance(value, F)
    assert not any(isinstance(v, float) for v in f)
    rng = random.Random(43)
    for _ in range(40):
        base = random_pointed_space(rng, 1, 3).space
        idx = list(range(base.n)) + [rng.randrange(base.n) for _ in range(rng.randint(1, 2))]
        rows = [[base.d(i, j) for j in idx] for i in idx]
        s = validate_metric([str(k) for k in range(len(idx))], rows)
        mu, nu = random_measure(rng, s), random_measure(rng, s)
        value, f = w1_dual_potential(mu, nu)
        assert isinstance(value, F) and not any(isinstance(v, float) for v in f)
        assert lip_constant(real_function(s, f)) <= 1
        assert w1(mu, nu) == value


# a line a, b, c at 0, 1, 2: mu = a, nu = half on b and half on c, so W1 = 3/2;
# the simplex's column potentials there are v = (0, 1, 2)
LINE_W1 = {
    "space": {"points": ["a", "b", "c"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
    "mu": [1, 0, 0],
    "nu": [0, "1/2", "1/2"],
}


def _planted(monkeypatch, plant):
    """Route the one transport solve of w1 through plant(value, flow, u, v)."""
    monkeypatch.setattr(
        kantorovich,
        "transportation_simplex",
        lambda *args, **kw: plant(*transportation_simplex(*args, **kw)),
    )


@pytest.mark.parametrize("backend, tol", [("rational", 0), ("float", 1e-9)])
def test_certificate_refuses_a_planted_potential_or_primal(monkeypatch, backend, tol):
    s = space_from_json(LINE_W1["space"], backend)
    mu, nu = (measure(s, [parse_scalar(v, backend) for v in LINE_W1[k]]) for k in ("mu", "nu"))
    step = parse_scalar("1/1000000", backend)
    value, f = w1_dual_potential(mu, nu, tol)
    assert value == parse_scalar("3/2", backend) and f == (0, -1, -2)
    # v_0 or v_1 raised, or v_2 lowered, by any step: the c-transform's
    # pairing with mu - nu drops below the primal
    for j, sign in ((0, 1), (1, 1), (2, -1)):
        for size in (step, 1):

            def shifted(value, flow, u, v):
                return value, flow, u, [vk + sign * size * (k == j) for k, vk in enumerate(v)]

            _planted(monkeypatch, shifted)
            with pytest.raises(RuntimeError, match="disagrees"):
                w1(mu, nu, tol)
    # raising v_2 moves f by a constant, still optimal: the check reads f, not v
    _planted(monkeypatch, lambda value, flow, u, v: (value, flow, u, [v[0], v[1], v[2] + 1]))
    assert w1_dual_potential(mu, nu, tol) == (value, tuple(fi - 1 for fi in f))
    # a primal off by a step, either way, disagrees with the potential
    for wrong in (value + step, value - step):
        _planted(monkeypatch, lambda value, flow, u, v: (wrong, flow, u, v))
        with pytest.raises(RuntimeError, match="disagrees"):
            w1(mu, nu, tol)


def test_certificate_accepts_a_float_w1_across_a_short_pair():
    # f = (0, -1000, -D) rounds D - 1000 to 1.5e-6 * (1 + 3.5e-8): a ratio
    # |f_b - f_c| / d(b, c) just above 1, while the sum agrees within 5e-14
    d = 1000.0000015
    dist = [[0, 1000, d], [1000, 0, 1.5e-6], [d, 1.5e-6, 0]]
    s = space_from_json({"points": ["a", "b", "c"], "dist": dist}, "float")
    b, c = measure(s, [0.0, 1.0, 0.0]), measure(s, [0.0, 0.0, 1.0])
    assert w1(b, c, 1e-9) == w1(c, b, 1e-9) == 1.5e-6


def test_measure_validation():
    s = line_space([F(0), F(1)])
    with pytest.raises(MetricError):
        measure(s, [F(1, 2), F(1, 4)])  # mass 3/4
    with pytest.raises(MetricError):
        measure(s, [F(3, 2), F(-1, 2)])  # negative weight
    with pytest.raises(MetricError):
        measure(s, [F(1)])  # wrong length


def test_host_mismatch():
    s = line_space([F(0), F(1)])
    t = line_space([F(0), F(2)])
    with pytest.raises(HostMismatch):
        w1(measure(s, [1, 0]), measure(t, [1, 0]))


def test_dirac_to_pushforward_set_closed_form_vs_lp():
    # W1 from the Dirac at z to the measures supported in a set is the
    # point-to-set distance
    s = line_space([F(0), F(2), F(7, 3)])
    # point at coordinate 2 against the set {0, 7/3}
    assert dist_to_set(s, 1, [0, 2]) == F(1, 3)
    assert dist_to_set(s, 1, [1]) == 0
    assert dist_to_set(s, 1, []) == INF
    rng = random.Random(17)
    for _ in range(20):
        sp = random_pointed_space(rng, 2, 5).space
        z = rng.randrange(sp.n)
        subset = [i for i in range(sp.n) if rng.random() < 0.5] or [0]
        closed = dist_to_set(sp, z, subset)
        # convexity collapses the LP optimum onto a single support point
        diracs = [measure(sp, [int(k == i) for k in range(sp.n)]) for i in range(sp.n)]
        lp = min(w1(diracs[z], diracs[j]) for j in subset)
        assert closed == lp


def test_simplex_iteration_budget_raises_its_own_error():
    # the northwest corner ships along the costly diagonal, so one pivot is due
    cost = [[F(2), F(0)], [F(0), F(2)]]
    supply = demand = [F(1), F(1)]
    assert transportation_simplex(cost, supply, demand)[0] == 0
    with pytest.raises(IterationBudgetExceeded, match="transportation simplex"):
        transportation_simplex(cost, supply, demand, max_iter=1)
    # min -x subject to x + s = 1: phase 1 pivots x or s in for the artificial
    c, a_rows, b = [F(-1), F(0)], [[F(1), F(1)]], [F(1)]
    assert solve_lp(c, a_rows, b)[0] == -1
    with pytest.raises(IterationBudgetExceeded):
        solve_lp(c, a_rows, b, max_iter=1)
    assert issubclass(IterationBudgetExceeded, RuntimeError)


def _run_lines(fn, *args):
    """fn(*args) and the numbers of the lines of fn that it ran."""
    code, ran, previous = fn.__code__, set(), sys.gettrace()

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line":
            ran.add(frame.f_lineno)
        return trace

    sys.settrace(trace)
    try:
        return fn(*args), ran
    finally:
        sys.settrace(previous)


def _line_of(fn, text):
    lines, start = inspect.getsourcelines(fn)
    return start + next(k for k, line in enumerate(lines) if text in line)


def test_transportation_simplex_switches_to_blands_rule_after_a_degenerate_stall():
    # two units from row 6 to columns 2 and 4 of an 8 x 5 cost matrix: once
    # the mass is placed, the most-negative rule makes more than m * n = 40
    # degenerate pivots in a row, so the run switches to Bland's rule, which
    # enters two more cells before it finds no negative reduced cost
    cost = [[0, 2, 4, 0, 1]] * 4 + [
        [0, 2, 4, 0, 2],
        [0, 2, 4, 1, 0],
        [0, 2, 1, 3, 2],
        [0, 3, 0, 0, 4],
    ]
    supply, demand = [0, 0, 0, 0, 0, 0, 2, 0], [0, 0, 1, 0, 1]
    (value, flow, _, _), ran = _run_lines(transportation_simplex, cost, supply, demand)
    switch = _line_of(transportation_simplex, "bland = True")
    # the entering loop stops at the first negative reduced cost only under
    # Bland's rule
    bland_entry = _line_of(transportation_simplex, "if bland:") + 1
    assert {switch, bland_entry} <= ran
    assert (value, flow) == (3, {(6, 2): 1, (6, 4): 1})
    assert _coupling_lp(cost, supply, demand) == (value, flow)


def _coupling_lp(cost, supply, demand):
    """The coupling LP on solve_lp, one column per cell and one row per
    supply and per demand: its value and the cells it ships on."""
    cells = [(i, j) for i in range(len(supply)) for j in range(len(demand))]
    a_rows = [[int(c[0] == i) for c in cells] for i in range(len(supply))]
    a_rows += [[int(c[1] == j) for c in cells] for j in range(len(demand))]
    value, x, _ = solve_lp([cost[i][j] for i, j in cells], a_rows, [*supply, *demand])
    return value, {c: xc for c, xc in zip(cells, x) if xc}


def _transport_instance(rng):
    """Integer costs 0-3, so with ties, and supplies and demands 0-4 with
    equal totals; one in four is 1 x n, one in four m x 1, and the rest
    m x n, with m and n from 2 to 6."""
    shape = rng.randrange(4)
    m = 1 if shape == 0 else rng.randint(2, 6)
    n = 1 if shape == 1 else rng.randint(2, 6)
    cost = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
    supply = [rng.randint(0, 4) for _ in range(m)]
    demand = [rng.randint(0, 4) for _ in range(n)]
    gap = sum(supply) - sum(demand)
    (demand if gap > 0 else supply)[-1] += abs(gap)
    return cost, supply, demand


def _each(fn, cost, supply, demand):
    return [[fn(c) for c in row] for row in cost], [fn(s) for s in supply], [fn(d) for d in demand]


def _transport_twins(rng):
    """One instance on ints, on Fractions (every entry over one denominator
    of 2-9) and on those Fractions' floats, each as (cost, supply, demand)."""
    ints = _transport_instance(rng)
    k = rng.randint(2, 9)
    fractions = _each(lambda x: F(x, k), *ints)
    return ints, fractions, _each(float, *fractions)


def test_transportation_simplex_meets_the_coupling_lp_off_the_w1_shapes():
    # w1 passes only square metric costs with unit totals; these are
    # rectangular with ties, zero supplies and demands, and single rows or
    # columns.  The LP is exact, so a float twin reads its Fraction's value.
    rng = random.Random(2801)
    for _ in range(200):
        ints, fractions, floats = _transport_twins(rng)
        lp_ints, lp_fractions = (_coupling_lp(*twin)[0] for twin in (ints, fractions))
        for (cost, supply, demand), lp_value, tol in (
            (ints, lp_ints, 0),
            (fractions, lp_fractions, 0),
            (floats, lp_fractions, 1e-9),
        ):
            value, flow, u, v = transportation_simplex(cost, supply, demand, tol)
            assert abs(value - lp_value) <= tol
            assert all(q > tol for q in flow.values())
            for i, s in enumerate(supply):
                assert abs(sum(q for (a, _), q in flow.items() if a == i) - s) <= tol
            for j, d in enumerate(demand):
                assert abs(sum(q for (_, b), q in flow.items() if b == j) - d) <= tol
            assert all(abs(u[i] + v[j] - cost[i][j]) <= tol for i, j in flow)
            cells = [(i, j) for i in range(len(supply)) for j in range(len(demand))]
            assert all(cost[i][j] - u[i] - v[j] >= -tol for i, j in cells)


def test_solve_lp_switches_to_blands_rule_on_beales_cycling_example():
    # Beale's example: min c.x subject to A x = b, x >= 0, whose degenerate
    # pivots cycle under the most-negative entering rule
    c = [F(-3, 4), 20, F(-1, 2), 6, 0, 0, 0]
    a_rows = [
        [F(1, 4), -8, -1, 9, 1, 0, 0],
        [F(1, 2), -12, F(-1, 2), 3, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ]
    b = [0, 0, 1]
    x = [1, 0, 1, 0, F(3, 4), 0, 0]
    y = [0, F(-3, 2), F(-5, 4)]
    # in this column order the run never stalls long enough to switch rules,
    # so this pins only the answer
    assert solve_lp(c, a_rows, b) == (F(-5, 4), x, y)
    # with the last two slack columns swapped the degenerate pivots cycle,
    # and the switch to Bland's rule is what ends the run: with the switch
    # disabled it exceeds the iteration budget.  This pins the answer of the
    # Bland path.
    swap = [0, 1, 2, 3, 4, 6, 5]
    swapped = [[row[k] for k in swap] for row in a_rows]
    assert solve_lp([c[k] for k in swap], swapped, b) == (F(-5, 4), [x[k] for k in swap], y)
