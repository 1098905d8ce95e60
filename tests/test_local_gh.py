"""Local distances between pointed spaces and the classical inframetric."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

import oracles
from conftest import random_correspondence_pairs, random_glued
from ghlab import (
    Delta_r,
    GluedSpace,
    delta_r,
    delta_r_alt_form,
    delta_r_def_form,
    delta_r_equivalents,
    diameter,
    gh_inframetric,
    hausdorff,
    line_space,
    pointed,
    validate_gluing,
    validate_metric,
)
from ghlab import local_gh
from ghlab.gluing import (
    _base_gap,
    _distortion,
    correspondence,
    correspondence_stream,
    glue_from_correspondence,
)
from ghlab.local_gh import NoBreakpoint, NonPositiveRadius
from ghlab.metric_core import MetricError
from ghlab.verify import random_pointed_space


def two_interval_gluing():
    """X = {0, 7/3} and Y = {0, 2} glued along the real line."""
    host = line_space([F(0), F(2), F(7, 3)])
    X = pointed(line_space([F(0), F(7, 3)]), 0)
    Y = pointed(line_space([F(0), F(2)]), 0)
    return validate_gluing(host, X, (0, 2), Y, (0, 1))


def test_pinned_interval_value():
    g = two_interval_gluing()
    assert delta_r(g, F(2), strict=True) == F(1, 3)
    assert delta_r_def_form(g, F(2)) == F(1, 3)
    assert delta_r_alt_form(g, F(2)) == F(1, 3)
    assert oracles.delta_r_closed_form(g, F(2)) == F(1, 3)
    assert oracles.delta_r_alt_scan(g, F(2)) == F(1, 3)


def test_rejects_nonpositive_radius():
    x = pointed(line_space([F(0), F(1)]), 0)
    g = GluedSpace(x.space, (0, 1), (0, 1), x, x)
    for bad in (F(0), F(-1)):
        with pytest.raises(NonPositiveRadius):
            delta_r(g, bad)


def test_no_breakpoint_within_a_negative_tol_raises_a_metric_error_naming_it():
    # on one point the sup formula and the only breakpoint are both 0, and 0
    # is not within tol -1/10 above 0; Delta_r names the caller's tol, not
    # its grid copy
    assert issubclass(NoBreakpoint, MetricError)
    x = pointed(line_space([F(0)]), 0)
    g = GluedSpace(x.space, (0,), (0,), x, x)
    for tol in (F(-1, 10), -0.1):
        with pytest.raises(NoBreakpoint, match=f"tol {tol} "):
            delta_r(g, 1, tol=tol)
        with pytest.raises(NoBreakpoint, match=f"tol {tol} "):
            Delta_r(x, x, 1, tol=tol)
    # random pairs at tol -1/10 answer or raise it, never StopIteration
    rng = random.Random(61)
    raised = 0
    for _ in range(40):
        x, y = random_pointed_space(rng, 1, 3), random_pointed_space(rng, 1, 2)
        try:
            value, _ = Delta_r(x, y, F(rng.randint(1, 8), 2), tol=F(-1, 10))
        except NoBreakpoint:
            raised += 1
        else:
            assert value >= 0
    assert 0 < raised < 40


def test_both_routes_match_both_oracles_on_random_gluings():
    rng = random.Random(7)
    for _ in range(60):
        g = random_glued(rng)
        r = F(rng.randint(1, 18), rng.randint(1, 3))
        a = delta_r_def_form(g, r)
        b = delta_r_alt_form(g, r)
        assert a == b == delta_r(g, r, strict=True)
        assert a == oracles.delta_r_closed_form(g, r)
        assert a == oracles.delta_r_alt_scan(g, r)


def test_float_backend_within_one_grid_step():
    host = line_space([0.0, 2.0, 7 / 3])
    X = pointed(line_space([0.0, 7 / 3]), 0)
    Y = pointed(line_space([0.0, 2.0]), 0)
    g = validate_gluing(host, X, (0, 2), Y, (0, 1))
    v = delta_r(g, 2.0, tol=1e-12)
    scan = oracles.delta_r_grid_scan(g, 2.0, step=1e-4)
    assert 0 <= scan - v <= 1e-4 + 1e-9


def _near_tie_gluing(rng, offsets, cast):
    """Correspondence gluing of two random pointed spaces whose distances are
    small integers plus one of the offsets, so that distinct distances, and
    the breakpoints built from them, can differ by less than an offset."""

    def space(n):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = cast(rng.randint(1, 4)) + rng.choice(offsets)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    rows[i][j] = min(rows[i][j], rows[i][k] + rows[k][j])
        return pointed(validate_metric(tuple(map(str, range(n))), rows), rng.randrange(n))

    x, y = space(rng.randint(1, 4)), space(rng.randint(1, 3))
    rel = correspondence(random_correspondence_pairs(rng, x.n, y.n), x.n, y.n)
    return glue_from_correspondence(x, y, rel)


@pytest.mark.parametrize(
    "tol,offsets,cast",
    [
        (F(1, 10), (0, F(1, 30), F(1, 20), F(1, 15)), F),
        (F(1, 11), (0, F(1, 33), F(1, 22), F(2, 33)), F),
        # binary offsets below 1e-9 keep every float sum exact
        (1e-9, (0.0, 2.0**-31, 2.0**-30), float),
    ],
)
def test_delta_r_at_a_tolerance_is_the_first_breakpoint_the_predicate_accepts(tol, offsets, cast):
    rng = random.Random(53)
    snapped = 0
    for _ in range(150):
        g = _near_tie_gluing(rng, offsets, cast)
        h = g.host
        # half of d(x0, q) - r lands an offset below a host distance, near
        # the values the sup formula takes
        q, i, j = (rng.randrange(h.n) for _ in range(3))
        r = h.d(g.x0_host, q) - 2 * h.d(i, j) + 2 * rng.choice(offsets)
        if r <= 0:
            r = cast(rng.randint(1, 5)) + rng.choice(offsets)
        value = delta_r(g, r, tol=tol)
        assert value == oracles.delta_r_predicate_scan(g, r, tol)
        snapped += value != delta_r(g, r)
    assert snapped >= 10  # the near-ties do move the value


def test_delta_is_nondecreasing_in_radius():
    rng = random.Random(19)
    for _ in range(30):
        g = random_glued(rng)
        radii = sorted(F(rng.randint(1, 20), rng.randint(1, 4)) for _ in range(4))
        values = [delta_r(g, r) for r in radii]
        assert all(x <= y for x, y in zip(values, values[1:]))


def test_saturated_radius_closed_form():
    rng = random.Random(29)
    for _ in range(30):
        g = random_glued(rng)
        r = diameter(g.host) + F(rng.randint(1, 3))
        expected = max(
            g.host.d(g.x0_host, g.y0_host),
            hausdorff(g.host, g.embed_x, g.embed_y),
        )
        assert delta_r(g, r, strict=True) == expected


def test_equivalence_report_flips_exactly_at_the_value():
    rng = random.Random(37)
    for _ in range(40):
        g = random_glued(rng)
        r = F(rng.randint(1, 12), rng.randint(1, 3))
        v = delta_r(g, r)
        at = delta_r_equivalents(g, r, v)
        assert at.consistent and at.assertion1
        above = delta_r_equivalents(g, r, v + F(5, 7))
        assert above.consistent and above.assertion1
        if v > 0:
            # probe strictly between the two top candidates, off every breakpoint
            lower = [c for c in _candidate_grid(g, r) if c < v]
            floor = max(lower) if lower else F(0)
            probe = floor + (v - floor) * F(1, 3)
            below = delta_r_equivalents(g, r, probe)
            assert below.consistent and not below.assertion1


def _candidate_grid(g, r):
    cands = {F(0)}
    for i in range(g.host.n):
        for j in range(g.host.n):
            cands.add(F(g.host.d(i, j)))
    for c in (g.x0_host, g.y0_host):
        for q in range(g.host.n):
            v = (F(g.host.d(c, q)) - F(r)) / 2
            if v >= 0:
                cands.add(v)
    return sorted(cands)


def test_equivalents_zero_tolerance_on_separated_gluing():
    g = two_interval_gluing()
    rep = delta_r_equivalents(g, F(2), F(0))
    assert rep.consistent and not rep.assertion1


def test_search_on_isometric_pair_finds_zero():
    rng = random.Random(43)
    for _ in range(10):
        x = random_pointed_space(rng, 1, 3)
        val, witness = Delta_r(x, x, F(2))
        assert val == 0
        assert delta_r(witness, F(2)) == 0


def test_search_value_certifies_its_witness_and_beats_the_family():
    rng = random.Random(47)
    for _ in range(15):
        x = random_pointed_space(rng, 1, 3)
        y = random_pointed_space(rng, 1, 3)
        r = F(rng.randint(1, 8), rng.randint(1, 2))
        val, witness = Delta_r(x, y, r)
        assert delta_r(witness, r) == val
        family_min = min(
            oracles.delta_r_closed_form(glue_from_correspondence(x, y, rel), r)
            for rel in correspondence_stream(x, y)
        )
        assert val <= family_min


def test_interval_family_alignment_bound():
    # the natural alignment of {0, 2 + 1/(n+1)} with {0, 2} inside the line
    I = pointed(line_space([F(0), F(2)]), 0)
    for n in (1, 2, 5, 10):
        en = F(1, n + 1)
        In = pointed(line_space([F(0), F(2) + en]), 0)
        val, _ = Delta_r(In, I, F(2))
        assert val <= en


def test_inframetric_isometric_floor():
    x = pointed(line_space([F(0), F(1), F(3)]), 0)
    res = gh_inframetric(x, x)
    assert res.raw == 0
    assert res.truncated == F(1, 2)
    assert res.search == "exact"
    assert res.certificate == "family-minimum"


def _float_copy(p):
    rows = [[float(v) for v in row] for row in p.space.dist]
    return pointed(validate_metric(p.space.points, rows, tol=1e-9), p.base)


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_correspondence_gluing_delta_is_its_basepoint_gap_at_every_radius(backend):
    # the identity gh_inframetric scores by: in the gluing at dis/2, delta
    # at each basepoint radius (so at every radius) is the basepoint gap
    rng = random.Random(67)
    checked = 0
    for _ in range(25):
        x, y = random_pointed_space(rng, 1, 3), random_pointed_space(rng, 1, 3)
        if backend == "float":
            x, y = _float_copy(x), _float_copy(y)
        radii = {x.space.d(x.base, i) for i in range(x.n)}
        radii |= {y.space.d(y.base, j) for j in range(y.n)}
        for rel in correspondence_stream(x, y):
            gap = _base_gap(x, y, rel.pairs, _distortion(rel, x, y))
            g = glue_from_correspondence(x, y, rel)
            assert all(oracles.delta_r_closed_form(g, r) == gap for r in radii)
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_inframetric_of_a_space_with_itself_is_zero_and_builds_one_gluing(backend, monkeypatch):
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return glue_from_correspondence(*args, **kwargs)

    monkeypatch.setattr(local_gh, "glue_from_correspondence", counted)
    rng = random.Random(71)
    for _ in range(10):
        x, y = random_pointed_space(rng, 1, 3), random_pointed_space(rng, 1, 3)
        if backend == "float":
            x, y = _float_copy(x), _float_copy(y)
        for search in ("exact", "heuristic"):
            del built[:]
            res = gh_inframetric(x, x, search=search)
            assert res.raw == 0 and res.truncated == F(1, 2)
            assert len(built) == 1
            gh_inframetric(x, y, search=search)
            assert len(built) == 2


def test_inframetric_heuristic_is_an_upper_bound():
    rng = random.Random(53)
    x = random_pointed_space(rng, 2, 3)
    y = random_pointed_space(rng, 2, 3)
    exact = gh_inframetric(x, y)
    heur = gh_inframetric(x, y, search="heuristic", samples=32)
    assert heur.certificate == "upper-bound"
    assert heur.raw >= exact.raw


def test_radius_inflated_triangle_on_exact_triples():
    rng = random.Random(61)
    # trial counts sized to the correspondence enumeration cost per shape
    sizes = [(5, 2, 2), (5, 2, 2), (3, 3, 3), (3, 3, 3), (3, 3, 3), (4, 3, 2)]
    for nx, nz, ny in sizes:
        for _ in range(1):
            X = random_pointed_space(rng, nx, nx)
            Z = random_pointed_space(rng, nz, nz)
            Y = random_pointed_space(rng, ny, ny)
            r = F(rng.randint(1, 6), rng.choice((1, 2)))
            axz, _ = Delta_r(X, Z, r)
            azy, _ = Delta_r(Z, Y, r)
            R = r + max(axz, azy) + F(1, 5)
            bxz, _ = Delta_r(X, Z, R)
            bzy, _ = Delta_r(Z, Y, R)
            axy, _ = Delta_r(X, Y, r)
            assert axy <= bxz + bzy
