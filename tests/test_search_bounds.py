"""The bounded correspondence search against unpruned brute force.

Each search prunes inside ``correspondence_stream``; these tests rebuild the
unpruned family from ``oracles.all_full_relations`` (or from the unbounded
heuristic stream), put it in the stream's row-mask order, and check that the
pruned searches return the same values and the same witnesses.
"""

from __future__ import annotations

import random
import sys
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
    glued_to_json,
    gluing,
    local_gh,
    pointed,
    refine_gluing_cross,
    validate_metric,
)
from ghlab import metric_core, tunnels
from ghlab.gluing import _base_gap, _distortion, correspondence_stream
from ghlab.metric_core import FiniteMetricSpace, _trusted_space, pointed_from_json, space_to_json
from ghlab.numerics import DEFAULT_FLOAT_TOL
from ghlab.tunnels import (
    _find_base_isometry,
    existence_tunnel,
    extent,
    local_propinquity,
    passage_from_gluing,
    passage_from_json,
)
from ghlab.verify import random_passage, random_pointed_space

RATIONAL = ("rational", 0)
FLOAT = ("float", DEFAULT_FLOAT_TOL)
FLOAT_EXACT = ("float", 0)


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
    """delta_r, in its own scalar type, checked against the closed form; in
    float mode it may stop at a breakpoint up to tol below it, and that is
    the value the search minimizes."""
    exact = oracles.delta_r_closed_form(g, r)
    value = delta_r(g, r, tol=tol)
    assert exact - tol <= value <= exact
    return value


def brute_Delta_r(x, y, r, family, tol):
    """(value, witness) by the (value, encoding) argmin over the whole family,
    then the search's refinement of the winner.  The value has delta_r's
    type, made a Fraction on rational input, which Delta_r answers off its
    integer grid."""
    value, pairs = min((_delta(_glue(x, y, pairs), r, tol), pairs) for pairs in family)
    glued = _glue(x, y, pairs)
    refined = refine_gluing_cross(glued, tol=tol)
    refined_value = _delta(refined, r, tol)
    if refined_value < value:
        value, glued = refined_value, refined
    rows = (v for p in (x, y) for row in p.space.dist for v in row)
    return (F(value) if _no_floats(r, tol, *rows) else value), glued


def _threshold_raw(g, slack=0):
    """1 / sup{t : delta_t(g) + slack < 1/t}, with delta_t constant between
    the basepoint distances of the two copies."""
    x, y = g.origin_x, g.origin_y
    radii = sorted(
        {0}
        | {x.space.d(x.base, i) for i in range(x.n)}
        | {y.space.d(y.base, j) for j in range(y.n)}
    )
    sup = 0
    for k, a in enumerate(radii):
        b = radii[k + 1] if k + 1 < len(radii) else float("inf")
        v = oracles.delta_r_closed_form(g, a) + slack
        bound = float("inf") if v <= 0 else 1 / (v if isinstance(v, float) else F(v))
        if bound > a:
            sup = max(sup, min(b, bound))
    return 0 if sup == float("inf") else 1 / (sup if isinstance(sup, float) else F(sup))


def brute_inframetric(x, y, family, slack=0):
    """(raw, witness): the first gluing in stream order with the least raw."""
    best, witness = float("inf"), None
    for pairs in family:
        g = _glue(x, y, pairs)
        raw = _threshold_raw(g, slack)
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


def _answer(run, refusable, *args, **kw):
    """run's (value, witness); where refusable, the type of the MetricError
    it raises instead.  A float twin of a space with thirds may break a
    triangle by a rounding amount, and at tol 0 both searches then refuse it
    when the refined winner's host is validated."""
    try:
        return run(*args, **kw)
    except MetricError as err:
        if not refusable:
            raise
        return type(err), None


def _assert_searches_match(x, y, r, family, tol, search="exact", refusable=False, **kw):
    value, witness = _answer(Delta_r, refusable, x, y, r, search=search, tol=tol, **kw)
    want_value, want_witness = _answer(brute_Delta_r, refusable, x, y, r, family, tol)
    assert value == want_value
    assert type(value) is type(want_value)
    if witness is not None:
        assert witness.host == want_witness.host
    res = gh_inframetric(x, y, search=search, **kw)
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


@pytest.mark.parametrize("backend,tol", [RATIONAL, FLOAT, FLOAT_EXACT])
def test_exact_searches_match_brute_force_on_small_pairs(backend, tol):
    rng = random.Random(11)
    for x, y, r in _pairs(rng, SMALL, 4):
        x, y = _backend(x, backend), _backend(y, backend)
        r = float(r) if backend == "float" else r
        _assert_searches_match(x, y, r, _exact_family(x.n, y.n), tol, refusable=(backend, tol) == FLOAT_EXACT)


@pytest.mark.parametrize("backend,tol", [RATIONAL, FLOAT, FLOAT_EXACT])
def test_exact_searches_match_brute_force_on_4x2_and_2x4(backend, tol):
    rng = random.Random(12)
    for x, y, r in _pairs(rng, [(4, 2), (2, 4)], 2):
        x, y = _backend(x, backend), _backend(y, backend)
        r = float(r) if backend == "float" else r
        _assert_searches_match(x, y, r, _exact_family(x.n, y.n), tol, refusable=(backend, tol) == FLOAT_EXACT)


@pytest.mark.parametrize("backend,tol", [RATIONAL, FLOAT, FLOAT_EXACT])
def test_heuristic_searches_match_the_unbounded_stream_on_5x6(backend, tol):
    # At float tol 0 the spaces are tripled first: the float twins of their
    # thirds break triangles by rounding amounts and every search refuses
    # them, while halves are exact floats, so each pair is compared by value.
    rng = random.Random(13)
    for seed, (x, y, r) in enumerate(_pairs(rng, [(5, 6), (6, 5)], 2)):
        if (backend, tol) == FLOAT_EXACT:
            x, y, r = _scaled(x, 3), _scaled(y, 3), 3 * r
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


def _scaled(p, factor):
    rows = [[factor * v for v in row] for row in p.space.dist]
    return pointed(validate_metric(p.space.points, rows), p.base)


def _no_floats(*values):
    return not any(isinstance(v, float) for v in values)


def _ingested(p):
    """p read back from its JSON, as the command line and the benchmark read it."""
    return pointed_from_json(space_to_json(p.space, p.base))


def _unvalidated(p):
    """p's rows in a space built without validation, which computes its grid
    on first read."""
    return pointed(FiniteMetricSpace(p.space.points, p.space.dist, p.space.strict), p.base)


def _validated_at_a_tol(p):
    """p validated at a tol whose denominator 17 divides no entry: the grid
    keeps the rows' own lcm."""
    return pointed(validate_metric(p.space.points, p.space.dist, tol=F(1, 17)), p.base)


SOURCES = (lambda p: p, _ingested, _unvalidated, _validated_at_a_tol)


def test_rational_searches_on_mixed_denominators_match_brute_force():
    # Each side has its own denominators (3, 7, 6), and the radius, slacks
    # and tols add 5, 4, 13, 10 and 11, so the searches' common integer scale
    # mixes them all (13 and 11 divide no other entry); two 1-point sides
    # make the inframetric threshold t* infinite.  Each side's grid comes
    # from validation, ingestion, a first read or validation at a tol.
    rng = random.Random(16)
    factors = (F(1, 3), F(2, 7), F(5, 6))
    r = F(3, 5)
    for k, (x, y, _) in enumerate(_pairs(rng, SMALL, 3)):
        x, y = _scaled(x, factors[k % 3]), _scaled(y, factors[(k + 1) % 3])
        x, y = SOURCES[k % 4](x), SOURCES[(k + 1) % 4](y)
        family = _exact_family(x.n, y.n)
        for t in (0, F(1, 10), F(1, 11)):
            value, witness = Delta_r(x, y, r, tol=t)
            want_value, want_witness = brute_Delta_r(x, y, r, family, t)
            assert value == want_value
            assert witness.host == want_witness.host
            assert witness.origin_x is x and witness.origin_y is y
            assert _no_floats(value, *(v for row in witness.host.dist for v in row))
        for s in (0, F(1, 4), F(2, 13)):
            res = gh_inframetric(x, y, slack=s)
            want_raw, want_glued = brute_inframetric(x, y, family, s)
            assert res.raw == want_raw
            assert res.truncated == max(want_raw, F(1, 2))
            assert res.witness.host == want_glued.host
            assert res.witness.origin_x is x and res.witness.origin_y is y
            assert _no_floats(res.raw, res.truncated, *(v for row in res.witness.host.dist for v in row))
            if x.n == y.n == 1:  # delta is 0, so t* = 1/s (infinite at s = 0)
                assert res.raw == s


def _counting_on_grid(monkeypatch, modules):
    """Record every value any of the modules puts on a grid."""
    converted = []
    for module in modules:
        on_grid = module.on_grid
        monkeypatch.setattr(
            module, "on_grid", lambda v, unit, on_grid=on_grid: converted.append(v) or on_grid(v, unit)
        )
    return converted


def test_queries_on_ingested_rational_inputs_put_no_entry_on_the_grid(monkeypatch):
    # Validation left every ingested space its grid, so Delta_r,
    # gh_inframetric and extent scale stored ints: the only Fractions they
    # put on a grid are the query's own scalars.
    rng = random.Random(18)
    cases = []
    for x, y, r in _pairs(rng, SMALL, 1):
        x, y = _scaled(x, F(2, 7)), _scaled(y, F(5, 6))
        p = passage_from_json({"gluing": glued_to_json(random_passage(rng, x, y).glued)})
        cases.append((_ingested(x), _ingested(y), r, p))
    converted = _counting_on_grid(monkeypatch, (metric_core, local_gh, tunnels))

    def fractions_put_on_the_grid(run, *args, **kw):
        converted.clear()
        run(*args, **kw)
        return [v for v in converted if type(v) is F]

    tol, slack = F(1, 10), F(1, 4)
    for x, y, r, p in cases:
        for search in ("exact", "heuristic"):
            assert fractions_put_on_the_grid(Delta_r, x, y, r, search=search) == [r]
            assert fractions_put_on_the_grid(Delta_r, x, y, r, search=search, tol=tol) == [r, tol]
            assert fractions_put_on_the_grid(gh_inframetric, x, y, search=search) == []
            assert fractions_put_on_the_grid(gh_inframetric, x, y, search=search, slack=slack) == [slack]
        assert fractions_put_on_the_grid(extent, p, r) == [r]
        assert fractions_put_on_the_grid(extent, p, r, tol) == [tol, r]


def test_the_witness_comes_off_the_grid_as_an_entry_by_entry_division():
    rng = random.Random(19)
    for x, y, _ in _pairs(rng, SMALL, 2):
        x, y = _scaled(x, F(2, 7)), _scaled(y, F(5, 6))
        unit = 4 * metric_core.grid_unit_of((x.space, y.space))
        gx, gy = local_gh._pointed_on_grid(x, unit), local_gh._pointed_on_grid(y, unit)
        for rel in list(correspondence_stream(gx, gy))[:5]:
            grid = glue_from_correspondence(gx, gy, rel)
            got = local_gh._off_grid(grid, unit, x, y)
            host = grid.host
            want = _trusted_space(host.points, [[F(v, unit) for v in row] for row in host.dist])
            assert got.host == want and got.host.strict == want.strict
            assert all(type(v) is F for row in got.host.dist for v in row)
            assert (got.embed_x, got.embed_y) == (grid.embed_x, grid.embed_y)
            assert got.origin_x is x and got.origin_y is y


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


def test_exact_Delta_r_glues_only_its_winner_at_tol_0(monkeypatch):
    # At tol 0 delta_r of a correspondence gluing is its basepoint gap, so
    # the search scores the stream by the gap and glues one correspondence.
    # At tol 1/10 delta_r snaps to the host's breakpoints, so every
    # correspondence the stream yields is still glued: 17 on this pair.
    rng = random.Random(15)
    x = random_pointed_space(rng, 3, 3)
    y = random_pointed_space(rng, 3, 3)
    glued, streamed = [], []

    def glue(*args):
        glued.append(args[2].pairs)
        return glue_from_correspondence(*args)

    def stream(*args):
        for rel in correspondence_stream(*args):
            streamed.append(rel.pairs)
            yield rel

    monkeypatch.setattr(local_gh, "glue_from_correspondence", glue)
    monkeypatch.setattr(local_gh, "correspondence_stream", stream)
    want = {tol: brute_Delta_r(x, y, F(2), _exact_family(3, 3), tol) for tol in (0, F(1, 10))}
    for tol, count in ((0, 1), (F(1, 10), 17)):
        glued.clear()
        streamed.clear()
        value, witness = Delta_r(x, y, F(2), tol=tol)
        assert (value, witness.host) == (want[tol][0], want[tol][1].host)
        assert len(glued) == count
        assert len(streamed) == 17


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


def _gap_filtered_stream(x, y, search, budget, seed, samples, prune):
    """The unbounded stream, each candidate then tested on its basepoint gap."""
    for rel in correspondence_stream(x, y, search, budget, seed, samples):
        if not prune(_base_gap(x, y, rel.pairs, _distortion(rel, x, y))):
            yield rel


def _traced_search(monkeypatch, stream, run):
    """run's answer, the pairs its stream yields and the distortion terms
    (``abs`` calls in ``correspondence_distortion``) it evaluates."""
    yielded, terms = [], [0]
    kernel = gluing.correspondence_distortion.__code__

    def counting_abs(v):
        if sys._getframe(1).f_code is kernel:
            terms[0] += 1
        return abs(v)

    def recording(*args):
        for rel in stream(*args):
            yielded.append(rel.pairs)
            yield rel

    monkeypatch.setattr(gluing, "abs", counting_abs, raising=False)
    monkeypatch.setattr(local_gh, "correspondence_stream", recording)
    answer = run()
    monkeypatch.undo()
    return answer, yielded, terms[0]


def test_heuristic_stream_cuts_candidates_on_their_partial_distortion(monkeypatch):
    # the bounded stream stops measuring a candidate once prune holds at half
    # its partial distortion; under each search's own prune it must yield
    # what the gap test on the fully measured stream yields, in order
    rng = random.Random(17)
    terms = []
    for seed, (x, y, r) in enumerate(_pairs(rng, [(5, 6), (6, 5)], 2)):
        kw = {"search": "heuristic", "seed": seed, "samples": 16}
        runs = (
            lambda: Delta_r(x, y, r, **kw),
            lambda: Delta_r(x, y, r, tol=F(1, 10), **kw),
            lambda: gh_inframetric(x, y, **kw),
        )
        for run in runs:
            got = _traced_search(monkeypatch, correspondence_stream, run)
            want = _traced_search(monkeypatch, _gap_filtered_stream, run)
            assert got[1] == want[1]
            assert repr(got[0]) == repr(want[0])
            assert got[2] <= want[2]
            terms.append((got[2], want[2]))
    # pinned: the first pair's Delta_r measures fewer terms than in full
    assert terms[0][0] < terms[0][1]
