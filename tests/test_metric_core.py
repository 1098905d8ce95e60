"""Spaces, validation, balls, Hausdorff distance, and serialization."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghlab import (
    AxiomViolation,
    EmptySet,
    MetricError,
    closed_ball,
    diameter,
    eps_contained,
    hausdorff,
    line_space,
    min_plus_closure,
    pointed,
    pointed_from_json,
    space_from_csv,
    space_from_json,
    space_to_json,
    validate_metric,
)
from ghlab import metric_core
from ghlab.metric_core import FiniteMetricSpace, NotSquare, dist_to_set
from ghlab.numerics import INF, half, inv, leq, quarter
from ghlab.verify import random_pointed_space


def test_validate_metric_accepts_a_line():
    s = validate_metric(("a", "b", "c"), [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert s.n == 3
    assert s.d(0, 2) == 2
    # a float tol on rational rows enters at its exact value: it rounds no
    # sum of these tight triangles, so it rejects nothing tol 0 accepts
    a = 10**17 + F(1, 3)
    rows = [[0, a, 2 * a], [a, 0, a], [2 * a, a, 0]]
    for tol in (0, 1e-9, 0.5):
        assert validate_metric(("a", "b", "c"), rows, tol=tol).dist[0][2] == 2 * a


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1], [2, 0]],  # asymmetric
        [[0, -1], [-1, 0]],  # negative
        [[1, 1], [1, 0]],  # nonzero diagonal
        [[0, 5, 1], [5, 0, 1], [1, 1, 0]],  # triangle violation
    ],
)
def test_validate_metric_rejects_axiom_violations(rows):
    labels = tuple(str(i) for i in range(len(rows)))
    with pytest.raises(AxiomViolation):
        validate_metric(labels, rows)


def test_validate_metric_rejects_non_square():
    with pytest.raises(NotSquare):
        validate_metric(("a", "b"), [[0, 1]])
    with pytest.raises(AxiomViolation):
        validate_metric(("a", "a"), [[0, 1], [1, 0]])  # duplicate labels


def test_empty_inputs_raise_where_points_are_needed():
    empty = validate_metric((), [])
    with pytest.raises(EmptySet):
        diameter(empty)
    s = line_space([F(0), F(1)])
    with pytest.raises(EmptySet):
        hausdorff(s, [], [0])


def test_zero_distance_pairs_are_allowed():
    # gluings at bridge width 0 produce such hosts; they must validate
    s = validate_metric(("a", "b"), [[0, 0], [0, 0]])
    assert s.d(0, 1) == 0


def test_pointed_accepts_index_and_label():
    s = line_space([F(0), F(2)], labels=("p", "q"))
    assert pointed(s, 1).base == pointed(s, "q").base == 1


def test_closed_ball_and_dist_to_set():
    s = line_space([F(0), F(1), F(3)])
    assert sorted(closed_ball(s, 0, F(1))) == [0, 1]
    assert sorted(closed_ball(s, 0, F(3))) == [0, 1, 2]
    assert dist_to_set(s, 0, [2]) == 3
    assert dist_to_set(s, 0, []) == INF


def test_hausdorff_matches_brute_force():
    rng = random.Random(3)
    for _ in range(50):
        s = random_pointed_space(rng, 2, 6).space
        a = [i for i in range(s.n) if rng.random() < 0.5] or [0]
        b = [i for i in range(s.n) if rng.random() < 0.5] or [s.n - 1]
        expected = max(
            max(min(s.d(i, j) for j in b) for i in a),
            max(min(s.d(i, j) for i in a) for j in b),
        )
        assert hausdorff(s, a, b) == expected
        assert hausdorff(s, b, a) == expected


def test_hausdorff_is_the_least_two_sided_inclusion_threshold():
    s = line_space([F(0), F(1), F(5)])
    a, b = [0, 2], [1]
    h = hausdorff(s, a, b)
    assert eps_contained(s, a, b, h) and eps_contained(s, b, a, h)
    shave = h - F(1, 7)
    assert not (eps_contained(s, a, b, shave) and eps_contained(s, b, a, shave))


@given(
    st.integers(2, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 9), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
@settings(max_examples=120, deadline=None)
def test_min_plus_closure_yields_triangle_valid_rows(raw):
    n = len(raw)
    rows = [[0 if i == j else raw[i][j] + raw[j][i] for j in range(n)] for i in range(n)]
    out = min_plus_closure(rows)
    for i in range(n):
        for j in range(n):
            assert out[i][j] <= rows[i][j]
            assert out[i][j] == out[j][i]
            for k in range(n):
                assert out[i][j] <= out[i][k] + out[k][j]
    validate_metric(tuple(str(i) for i in range(n)), out)


def test_diameter():
    assert diameter(line_space([F(0), F(2), F(7)])) == 7
    assert diameter(line_space([F(1)])) == 0


def test_json_round_trip_keeps_basepoint_index():
    s = line_space([F(0), F(1, 3)], labels=("p", "q"))
    obj = space_to_json(s, 1)
    assert obj["basepoint"] == 1
    back = pointed_from_json(obj)
    assert back.base == 1
    assert back.space.dist == s.dist
    assert space_from_json(space_to_json(s)).points == s.points


def test_json_accepts_label_basepoint_and_rejects_unknown():
    s = line_space([F(0), F(1)], labels=("p", "q"))
    obj = space_to_json(s, 0)
    obj["basepoint"] = "q"
    assert pointed_from_json(obj).base == 1
    obj["basepoint"] = "nope"
    with pytest.raises(MetricError):
        pointed_from_json(obj)


def test_csv_parses_square_matrix_with_header():
    s = space_from_csv("a,b\n0,1\n1,0\n")
    assert s.points == ("a", "b")
    assert s.d(0, 1) == F(1)
    sf = space_from_csv("a,b\n0,0.5\n0.5,0\n", backend="float")
    assert sf.d(0, 1) == 0.5


def test_float_backend_accepts_float_rows():
    s = validate_metric(("a", "b"), [[0.0, 1.5], [1.5, 0.0]])
    assert s.d(0, 1) == 1.5


def test_half_keeps_even_ints_and_inv_takes_a_unit():
    assert half(4) == 2 and type(half(4)) is int
    assert half(-6) == -3 and type(half(-6)) is int
    assert half(3) == F(3, 2) and half(F(5, 3)) == F(5, 6)
    assert half(3.0) == 1.5
    assert quarter(12) == 3 and type(quarter(12)) is int and quarter(-8) == -2
    assert quarter(6) == F(3, 2) and quarter(F(2, 3)) == F(1, 6) and quarter(3.0) == 0.75
    assert leq(1, 1) and not leq(F(3, 2), 1) and leq(F(3, 2), 1, F(1, 2)) and not leq(1, 1, -0.5)
    assert inv(F(2, 3)) == F(3, 2) and inv(4, 36) == 9 and inv(8, 36) == F(9, 2)
    assert inv(INF) == 0 and inv(INF, 36) == 0 and inv(0.5, 4) == 8.0


@pytest.mark.parametrize("tol", [0, 0.0, F(1, 10), F(-1, 10), 1e-9])
def test_leq_agrees_with_its_inf_checked_reference(tol):
    values = [0, 3, -2, F(1, 3), F(-7, 10), F(3, 1), 0.0, -0.0, 0.1, 1 / 3, -2.5, 3.0, INF]
    for a in values:
        for b in values:
            assert leq(a, b, tol) == oracles.leq_reference(a, b, tol), (a, b, tol)


def test_leq_orders_minus_inf_below_every_value():
    # -inf never reaches leq (parse_scalar maps it to +inf); it is ordered as
    # Python orders it
    assert leq(-INF, 0) and leq(-INF, F(-5)) and not leq(0, -INF)


# pairwise coprime, and large enough that the grid unit of one matrix is huge
PRIMES = (10**9 + 7, 10**9 + 9, 998244353, 2**31 - 1)
CLAUSES = (
    "none", "labels", "shape", "diagonal", "symmetry", "negative", "separation", "triangle", "inf"
)


def _mixed_metric(rng, n):
    """A random rational metric by min-plus repair, with denominators up to
    the large primes; whole entries are ints on a random side."""
    dens = (1, 2, 3, 12) + PRIMES
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = F(rng.randint(1, 40 * rng.choice(dens)), rng.choice(dens))
    rows = min_plus_closure(rows)
    return [[int(v) if v.denominator == 1 and rng.random() < 0.5 else v for v in row]
            for row in rows]


def _float_metric(rng, n):
    """A random float metric by min-plus repair, from entries that round:
    1e17 plus a fraction, multiples of 0.1 + 0.2, plain floats and inf."""
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.choice(
                (1e17 + rng.random(), (0.1 + 0.2) * rng.randint(1, 3), rng.uniform(0, 10), INF)
            )
    return min_plus_closure(rows)


def _planted(rng, clause, tol, metric=_mixed_metric):
    """(labels, rows, require_strict) breaking the clause at most, at a tol
    that a triangle violation exceeds or meets exactly."""
    n = rng.randint(1 if clause in ("none", "diagonal") else 3, 6)
    labels = [f"p{k}" for k in range(n)]
    rows = metric(rng, n)
    i, j, k = rng.sample(range(n), 3) if n >= 3 else (0, n - 1, 0)
    tiny = F(1, rng.choice(PRIMES))
    if clause == "labels":
        labels[j] = labels[i]
    elif clause == "shape":
        rows[j] = rows[j][:-1]
    elif clause == "diagonal":
        rows[i][i] = tiny
    elif clause == "symmetry":
        rows[i][j] += tiny
    elif clause == "negative":
        rows[i][j] = rows[j][i] = -rows[i][j]
    elif clause == "separation":
        rows[i][j] = rows[j][i] = 0
    elif clause == "triangle":
        rows[i][j] = rows[j][i] = rows[i][k] + rows[k][j] + tol + rng.choice((0, tiny))
    elif clause == "inf":
        rows[i][j] = rows[j][i] = INF
    return labels, rows, clause == "separation" and rng.random() < 0.5


def _outcome(validate, labels, rows, require_strict, tol):
    try:
        return validate(labels, rows, require_strict=require_strict, tol=tol)
    except MetricError as exc:
        return type(exc), getattr(exc, "kind", None), getattr(exc, "witness", None), str(exc)


def _grid_reference(rows):
    if any(isinstance(v, float) for row in rows for v in row):
        return None
    unit = math.lcm(*(F(v).denominator for row in rows for v in row))
    return unit, tuple(tuple(int(v * unit) for v in row) for row in rows)


def test_validate_metric_on_the_grid_matches_the_rational_scan():
    rng = random.Random(29)
    raised = set()
    for clause in CLAUSES * 40:
        tol = rng.choice((0, 1, F(1, 3), F(2, rng.choice(PRIMES)), F(-1, 5), 1e-9))
        labels, rows, require_strict = _planted(rng, clause, tol)
        want = _outcome(oracles.validate_metric_reference, labels, rows, require_strict, tol)
        got = _outcome(validate_metric, labels, rows, require_strict, tol)
        assert got == want, (clause, labels, rows, tol)
        if isinstance(want, tuple):
            raised.add(want[1] or want[0].__name__)
        else:
            # the space keeps the caller's own entries, and the grid its
            # checks ran on scaled by the rows' own lcm, whatever the tol
            assert all(a is b for row, given in zip(got.dist, rows) for a, b in zip(row, given))
            assert got.grid == _grid_reference(rows)
    assert raised == {
        "labels", "NotSquare", "diagonal", "symmetry", "negative", "separation", "triangle"
    }
    # a float tol on rational rows counts at its exact value in both: on this
    # tight line adding 1e-9 to an exact sum would round it and reject it
    a = 10**17 + F(1, 3)
    rows = [[0, a, 2 * a], [a, 0, a], [2 * a, a, 0]]
    want = _outcome(oracles.validate_metric_reference, ("a", "b", "c"), rows, False, 1e-9)
    assert _outcome(validate_metric, ("a", "b", "c"), rows, False, 1e-9) == want
    assert want.dist[0][2] == 2 * a


def test_validate_metric_on_float_rows_matches_the_full_scan():
    # the half scan holds off the grid too: float rows are exactly symmetric,
    # float addition commutes and d + t >= d for t >= 0
    rng = random.Random(31)
    raised = set()
    for clause in CLAUSES * 40:
        tol = rng.choice((0, 1e-9, 1e-3, 0.5, -1e-3))
        labels, rows, require_strict = _planted(rng, clause, tol, _float_metric)
        want = _outcome(oracles.validate_metric_reference, labels, rows, require_strict, tol)
        got = _outcome(validate_metric, labels, rows, require_strict, tol)
        assert got == want, (clause, labels, rows, tol)
        if isinstance(want, tuple):
            raised.add(want[1] or want[0].__name__)
    assert raised == {
        "labels", "NotSquare", "diagonal", "symmetry", "negative", "separation", "triangle"
    }


GRID_DOC = {
    "points": ["a", "b", "c"],
    "dist": [["0", "1/2", "5/6"], ["1/2", "0", "1/3"], ["5/6", "1/3", "0"]],
    "basepoint": 1,
}
GRID_CSV = "a,b,c\n0,1/2,5/6\n1/2,0,1/3\n5/6,1/3,0\n"
GRID_ROWS = [[0, F(1, 2), F(5, 6)], [F(1, 2), 0, F(1, 3)], [F(5, 6), F(1, 3), 0]]


def test_ingested_rational_spaces_carry_their_grid_and_float_ones_none(monkeypatch):
    # validation leaves the int copy its checks ran on, so reading the grid
    # of an ingested space converts nothing; a tol's denominator stays out
    converted = []
    on_grid = metric_core.on_grid
    monkeypatch.setattr(metric_core, "on_grid", lambda v, unit: converted.append(v) or on_grid(v, unit))
    spaces = [
        space_from_json(GRID_DOC),
        pointed_from_json(GRID_DOC).space,
        space_from_csv(GRID_CSV),
        validate_metric("abc", GRID_ROWS),
        validate_metric("abc", GRID_ROWS, tol=F(1, 7)),
    ]
    for space in spaces:
        converted.clear()
        assert space.grid == (6, ((0, 3, 5), (3, 0, 2), (5, 2, 0))) == _grid_reference(space.dist)
        assert all(type(v) is int for row in space.grid[1] for v in row)
        assert converted == []
    # int rows are their own grid: no copy
    ints = validate_metric("ab", [[0, 2], [2, 0]])
    assert ints.grid == (1, ints.dist) and ints.grid[1] is ints.dist
    # dyadic entries, so that float ingestion at tol 0 accepts the triangle
    dyadic = {"points": ["a", "b"], "dist": [["0", "1/4"], ["1/4", "0"]]}
    for space in (
        space_from_json(dyadic, "float"),
        space_from_csv("a,b\n0,1/4\n1/4,0\n", "float"),
        validate_metric("ab", [[0, INF], [INF, 0]]),
        validate_metric("ab", [[0, F(1, 2)], [0.5, 0]]),
    ):
        assert space.grid is None


def test_a_space_built_without_validation_computes_its_grid_once(monkeypatch):
    converted = []
    on_grid = metric_core.on_grid
    monkeypatch.setattr(metric_core, "on_grid", lambda v, unit: converted.append(v) or on_grid(v, unit))
    rows = ((F(0), F(2, 3)), (F(2, 3), F(0)))
    raw = FiniteMetricSpace(("a", "b"), rows, True)
    assert raw.grid == (3, ((0, 2), (2, 0)))
    assert len(converted) == 4
    assert raw.grid == (3, ((0, 2), (2, 0)))
    assert len(converted) == 4
    # the grid takes no part in equality, hashing or repr
    validated = validate_metric(("a", "b"), rows)
    fresh = FiniteMetricSpace(("a", "b"), rows, True)
    assert validated == raw == fresh and hash(validated) == hash(fresh)
    assert repr(validated) == repr(raw) == repr(fresh)
