"""The bounded correspondence search against unpruned brute force.

Each search prunes inside ``correspondence_stream``; these tests rebuild the
unpruned family from ``oracles.all_full_relations`` (or from the unbounded
heuristic stream), put it in the stream's row-mask order, and check that the
pruned searches return the same values and the same witnesses.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

import oracles
from ghlab import (
    Delta_r,
    MetricError,
    correspondence,
    correspondence_distortion,
    delta_r,
    gh_inframetric,
    glue_from_correspondence,
    pointed,
    refine_gluing_cross,
    validate_metric,
)
from ghlab.gluing import correspondence_stream
from ghlab.numerics import DEFAULT_FLOAT_TOL
from ghlab.tunnels import (
    _find_base_isometry,
    existence_tunnel,
    extent,
    local_propinquity,
    passage_from_gluing,
)
from ghlab.verify import random_pointed_space

RATIONAL = ("rational", 0)
FLOAT = ("float", DEFAULT_FLOAT_TOL)


def _backend(p, backend):
    if backend == "rational":
        return p
    rows = [[float(v) for v in row] for row in p.space.dist]
    return pointed(validate_metric(p.space.points, rows, tol=DEFAULT_FLOAT_TOL), p.base)


def _exact_family(nx, ny):
    """Every correspondence, in the stream's order: rows ascending, each row's
    column set read as a bit mask, masks ascending."""
    def masks(rel):
        return tuple(sum(1 << j for i, j in rel if i == row) for row in range(nx))

    return [tuple(sorted(rel)) for rel in sorted(oracles.all_full_relations(nx, ny), key=masks)]


def _heuristic_family(x, y, seed, samples):
    return [rel.pairs for rel in correspondence_stream(x, y, "heuristic", seed=seed, samples=samples)]


def _glue(x, y, pairs):
    return glue_from_correspondence(x, y, correspondence(pairs, x.n, y.n))


def _delta(g, r, tol):
    """The closed form; in float mode delta_r may stop at a breakpoint up to
    tol below it, and that is the value the search minimizes."""
    exact = oracles.delta_r_closed_form(g, r)
    if tol == 0:
        return exact
    value = delta_r(g, r, tol=tol)
    assert exact - tol <= value <= exact
    return value


def brute_Delta_r(x, y, r, family, tol):
    """(value, witness) by the (value, encoding) argmin over the whole family,
    then the search's refinement of the winner."""
    value, pairs = min((_delta(_glue(x, y, pairs), r, tol), pairs) for pairs in family)
    glued = _glue(x, y, pairs)
    refined = refine_gluing_cross(glued, steps=2, tol=tol)
    refined_value = _delta(refined, r, tol)
    return (refined_value, refined) if refined_value < value else (value, glued)


def _threshold_raw(g):
    """1 / sup{t : delta_t(g) < 1/t}, with delta_t constant between the
    basepoint distances of the two copies."""
    x, y = g.origin_x, g.origin_y
    radii = sorted(
        {0}
        | {x.space.d(x.base, i) for i in range(x.n)}
        | {y.space.d(y.base, j) for j in range(y.n)}
    )
    sup = 0
    for k, a in enumerate(radii):
        b = radii[k + 1] if k + 1 < len(radii) else float("inf")
        v = oracles.delta_r_closed_form(g, a)
        bound = float("inf") if v <= 0 else 1 / (v if isinstance(v, float) else F(v))
        if bound > a:
            sup = max(sup, min(b, bound))
    return 0 if sup == float("inf") else 1 / (sup if isinstance(sup, float) else F(sup))


def brute_inframetric(x, y, family):
    """(raw, witness): the first gluing in stream order with the least raw."""
    best, witness = float("inf"), None
    for pairs in family:
        g = _glue(x, y, pairs)
        raw = _threshold_raw(g)
        if raw < best:
            best, witness = raw, g
    return best, witness


def brute_local_propinquity(x, y, r, family, tol):
    """Least extent over every correspondence at every bridge width, the
    direct construction and the refined best gluing, first found winning."""
    if _find_base_isometry(x, y) is not None:
        return 0
    best, best_p = float("inf"), None
    for pairs in family:
        rel = correspondence(pairs, x.n, y.n)
        dis = correspondence_distortion(rel, x.space, y.space)
        half = dis / 2 if isinstance(dis, float) else F(dis) / 2
        for eta in (half,) if dis == 0 else (half, dis, 2 * dis):
            p = passage_from_gluing(glue_from_correspondence(x, y, rel, eta))
            val = extent(p, r, tol=tol)
            if val < best:
                best, best_p = val, p
    try:
        p_ex = existence_tunnel(x, y, r, tol)
    except MetricError:
        p_ex = None
    if p_ex is not None and extent(p_ex, r, tol=tol) < best:
        best, best_p = extent(p_ex, r, tol=tol), p_ex
    if best_p is not None and best_p.glued is not None:
        refined = refine_gluing_cross(best_p.glued, tol=tol)
        if refined.host != best_p.glued.host:
            best = min(best, extent(passage_from_gluing(refined), r, tol=tol))
    return best


def _assert_searches_match(x, y, r, family, tol, search="exact", **kw):
    value, witness = Delta_r(x, y, r, search=search, tol=tol, **kw)
    want_value, want_witness = brute_Delta_r(x, y, r, family, tol)
    assert value == want_value
    assert witness.host == want_witness.host
    res = gh_inframetric(x, y, search=search, tol=tol, **kw)
    want_raw, want_glued = brute_inframetric(x, y, family)
    assert res.raw == want_raw
    assert res.witness.host == want_glued.host


def _pairs(rng, shapes, per_shape):
    for nx, ny in shapes:
        for _ in range(per_shape):
            x = random_pointed_space(rng, nx, nx)
            y = random_pointed_space(rng, ny, ny)
            yield x, y, F(rng.randint(1, 8), rng.randint(1, 3))


SMALL = [(nx, ny) for nx in (1, 2, 3) for ny in (1, 2, 3)]


@pytest.mark.parametrize("backend,tol", [RATIONAL, FLOAT])
def test_exact_searches_match_brute_force_on_small_pairs(backend, tol):
    rng = random.Random(11)
    for x, y, r in _pairs(rng, SMALL, 4):
        x, y = _backend(x, backend), _backend(y, backend)
        r = float(r) if backend == "float" else r
        _assert_searches_match(x, y, r, _exact_family(x.n, y.n), tol)


@pytest.mark.parametrize("backend,tol", [RATIONAL, FLOAT])
def test_exact_searches_match_brute_force_on_4x2_and_2x4(backend, tol):
    rng = random.Random(12)
    for x, y, r in _pairs(rng, [(4, 2), (2, 4)], 2):
        x, y = _backend(x, backend), _backend(y, backend)
        r = float(r) if backend == "float" else r
        _assert_searches_match(x, y, r, _exact_family(x.n, y.n), tol)


@pytest.mark.parametrize("backend,tol", [RATIONAL, FLOAT])
def test_heuristic_searches_match_the_unbounded_stream_on_5x6(backend, tol):
    rng = random.Random(13)
    for seed, (x, y, r) in enumerate(_pairs(rng, [(5, 6), (6, 5)], 2)):
        x, y = _backend(x, backend), _backend(y, backend)
        r = float(r) if backend == "float" else r
        family = _heuristic_family(x, y, seed, 16)
        _assert_searches_match(x, y, r, family, tol, "heuristic", seed=seed, samples=16)


@pytest.mark.parametrize("backend,tol", [RATIONAL, FLOAT])
def test_local_propinquity_matches_brute_force(backend, tol):
    rng = random.Random(14)
    for x, y, r in _pairs(rng, [(1, 2), (2, 1), (2, 2), (1, 3)], 2):
        x, y = _backend(x, backend), _backend(y, backend)
        r = float(r) if backend == "float" else r
        value, _ = local_propinquity(x, y, r, tol=tol)
        assert value == brute_local_propinquity(x, y, r, _exact_family(x.n, y.n), tol)


def test_a_tie_keeps_the_smaller_encoding():
    # Several correspondences reach 1/3, and one whose basepoint gap is exactly
    # 1/3 comes after the first 1/3 in stream order but has the smaller
    # encoding: pruning on lower >= best would drop the family's witness.
    x = pointed(validate_metric("012", [[0, F(1, 3), F(2, 3)], [F(1, 3), 0, 1], [F(2, 3), 1, 0]]), 0)
    y = pointed(validate_metric("01", [[0, F(1, 3)], [F(1, 3), 0]]), 0)
    r = F(7, 3)
    value, witness = Delta_r(x, y, r)
    want_value, want_witness = brute_Delta_r(x, y, r, _exact_family(3, 2), 0)
    assert value == want_value == F(1, 3)
    assert witness.host == want_witness.host


def test_bounded_stream_yields_fewer_and_keeps_the_winner():
    rng = random.Random(15)
    x = random_pointed_space(rng, 3, 3)
    y = random_pointed_space(rng, 3, 3)
    r = F(2)
    family = _exact_family(3, 3)
    assert len(family) == 265
    winner = min((oracles.delta_r_closed_form(_glue(x, y, p), r), p) for p in family)
    best = None
    yielded = []

    def prune(lower):
        return best is not None and lower > best

    for rel in correspondence_stream(x, y, "exact", prune=prune):
        yielded.append(rel.pairs)
        value = delta_r(glue_from_correspondence(x, y, rel), r)
        best = value if best is None else min(best, value)
    assert winner[1] in yielded
    assert best == winner[0]
    assert len(yielded) < 265
