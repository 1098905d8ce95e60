"""The shared extent scan against the uncached reference.

``tunnels.ScanContext`` keeps what one passage's scans share and memoises
probe results on their ball-membership signature.  These tests run many
scans and admissibility checks through one context per passage, in an order
that revisits tolerances at new radii and new tolerances at old radii, and
compare every answer with ``oracles.extent_scan_reference`` and
``oracles.check_admissible_continuum``, which rebuild everything and decide
admissibility at every breakpoint of the continuum of radii and between
them, with the clauses transcribed from their definitions; one test compares
``check_left_admissible`` with that transcription directly, and one reads
the fixed-radius extent against the continuum check alone, with no copy of
the scan.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest

import oracles
from ghlab import (
    check_admissible,
    compose,
    correspondence,
    correspondence_distortion,
    existence_tunnel,
    extent,
    glue_from_correspondence,
    glued_to_json,
    inverse,
    local_propinquity,
    passage_from_gluing,
    passage_from_isometry,
    pointed,
    propinquity_bracket,
    smallest_admissible,
    validate_metric,
)
from ghlab import tunnels
from ghlab.gluing import correspondence_stream, validate_gluing
from ghlab.local_gh import _pointed_on_grid
from ghlab.metric_core import (
    MetricError,
    PointedSpace,
    _trusted_space,
    pointed_from_json,
    space_to_json,
)
from ghlab.numerics import DEFAULT_FLOAT_TOL, INF, grid_unit, inv, on_grid
from ghlab.tunnels import Passage, ScanContext, _extent_scan, passage_from_json
from ghlab.verify import random_pointed_space, random_passage

TOL = DEFAULT_FLOAT_TOL


def _float_copy(p):
    rows = [[float(v) for v in row] for row in p.space.dist]
    return pointed(validate_metric(p.space.points, rows, tol=TOL), p.base)


def _widths(dis):
    return (F(1, 2),) if dis == 0 else (F(dis, 2), F(dis), 2 * F(dis))


def _metric_passages(rng, pairs, per_pair):
    """(rational, float) passage twins: correspondences of random 1-3 point
    pairs glued at widths dis/2, dis and 2 dis."""
    out = []
    for _ in range(pairs):
        x, y = random_pointed_space(rng, 1, 3), random_pointed_space(rng, 1, 3)
        fx, fy = _float_copy(x), _float_copy(y)
        rels = list(correspondence_stream(x, y, budget=x.n * y.n))
        for rel in rng.sample(rels, min(per_pair, len(rels))):
            for eta in _widths(correspondence_distortion(rel, x.space, y.space)):
                out.append((
                    passage_from_gluing(glue_from_correspondence(x, y, rel, eta)),
                    passage_from_gluing(glue_from_correspondence(fx, fy, rel, float(eta))),
                ))
    return out


def _subspace_passages(rng, count):
    """(rational, float) twins over gluings that are not correspondence
    gluings: two sub-spaces of one random host, possibly overlapping.  On
    these the widened ball and eps itself decide some clauses."""
    out = []
    for _ in range(count):
        host = random_pointed_space(rng, 3, 4)
        twins = []
        for h, tol in ((host, 0), (_float_copy(host), TOL)):
            n = h.n
            ix = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            iy = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            x, y = (
                pointed(validate_metric(
                    [h.space.points[k] for k in idx],
                    [[h.space.d(a, b) for b in idx] for a in idx],
                    tol=tol,
                ), rng.randrange(len(idx)))
                for idx in (ix, iy)
            )
            twins.append(passage_from_gluing(validate_gluing(h.space, x, ix, y, iy, tol)))
        out.append(tuple(twins))
    return out


def _composed_passages(rng, count, eps1=F(1, 4), eps2=F(1, 4)):
    """Bridged compositions, each composed once more with an inverse leg."""
    out = []
    for _ in range(count):
        x, y, z = (random_pointed_space(rng, 1, 3) for _ in range(3))
        p1, p2 = random_passage(rng, x, y), random_passage(rng, y, z)
        alpha = F(1, rng.randint(2, 5))
        comp = compose(p1, p2, alpha, F(1), r=F(3), eps1=eps1, eps2=eps2)
        back = compose(comp, inverse(p2), alpha, F(1), r=F(3), eps1=eps1, eps2=eps2)
        out += [comp, back]
    return out


def _existence_passages(rng, count):
    out = []
    while len(out) < count:
        x, y = random_pointed_space(rng, 2, 3), random_pointed_space(rng, 2, 3)
        for r in (F(rng.randint(1, 6), 2), F(40)):
            try:
                out.append(existence_tunnel(x, y, r))
            except MetricError:
                pass
    return out


def _radii(rng):
    """(radius, cutoff) pairs: seeded radii with no cutoff, then 1/e at
    dyadic e with cutoff e, as the propinquity bisection probes them."""
    out = [(F(rng.randint(1, 16), rng.randint(1, 4)), INF) for _ in range(3)]
    for m in (2, 5, 9):
        e = F(rng.randint(1, 2**m), 2**m)
        out.append((1 / e, e))
    rng.shuffle(out)
    return out


def _as_backend(value, backend):
    return value if backend == "rational" or value == INF else float(value)


def _assert_scans_match(p, radii, tol):
    context = ScanContext(p, tol)
    for r, cutoff in radii + radii[::-1]:
        expected = oracles.extent_scan_reference(p, r, cutoff, tol)
        assert _extent_scan(p, r, cutoff, tol, context) == expected
        assert _extent_scan(p, r, cutoff, tol) == expected
        assert context.candidates(r) == oracles.eps_candidates_reference(p, r)


def _assert_continuum_verdict(got, p, r, eps, tol=0):
    """``got``, a ``check_admissible`` answer, has the continuum's verdict;
    a refusal before any radius is probed is the continuum's own, and a
    clause failure names the side and clause that the continuum check's
    first failing radius fails on."""
    want = oracles.check_admissible_continuum(p, r, eps, tol)
    assert got[0] == want[0]
    if got[0]:
        return
    if "reason" in got[1]:
        assert got == want
    else:
        assert (got[1]["side"], got[1]["clause"]) == (want[1]["side"], want[1]["clause"])


def _assert_checks_match(p, radii, tol):
    """Every candidate and every midpoint between candidates, largest first,
    all through one context, and one of them on a fresh context."""
    context = ScanContext(p, tol)
    for r, _ in radii:
        cands = oracles.eps_candidates_reference(p, r)
        probes = cands + [(a + b) / 2 for a, b in zip(cands, cands[1:])]
        for eps in sorted(probes, reverse=True):
            got = check_admissible(p, r, eps, tol, context=context)
            _assert_continuum_verdict(got, p, r, eps, tol)
        eps = probes[len(probes) // 2]
        _assert_continuum_verdict(check_admissible(p, r, eps, tol=tol), p, r, eps, tol=tol)


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_metric_passages_match_the_uncached_scan(backend):
    rng = random.Random(5)
    tol = 0 if backend == "rational" else TOL
    twins = _metric_passages(rng, pairs=6, per_pair=4) + _subspace_passages(rng, 40)
    for exact, floating in twins:
        p = exact if backend == "rational" else floating
        radii = [(_as_backend(r, backend), _as_backend(c, backend)) for r, c in _radii(rng)]
        _assert_scans_match(p, radii[:4], tol)
        _assert_checks_match(p, radii[:2], tol)


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_scans_at_a_positive_tol_skip_the_probes_below_the_basepoint_gap(backend, monkeypatch):
    # the reference walks every candidate from the bottom, and those below
    # the basepoint gap fail at once on the basepoint clause; the library
    # starts at the first probe that meets it, with the same answers
    rng = random.Random(19)
    tol = F(1, 10) if backend == "rational" else TOL
    twins = _metric_passages(rng, pairs=4, per_pair=3) + _subspace_passages(rng, 20)
    reasons = {"library": [], "reference": []}

    def recording(name, check):
        def wrapped(*args, **kwargs):
            got = check(*args, **kwargs)
            reasons[name].append(got[1].get("reason"))
            return got

        return wrapped

    monkeypatch.setattr(tunnels, "check_admissible", recording("library", check_admissible))
    monkeypatch.setattr(
        oracles,
        "check_admissible_continuum",
        recording("reference", oracles.check_admissible_continuum),
    )
    for exact, floating in twins:
        p = exact if backend == "rational" else floating
        context = ScanContext(p, tol)
        for r, cutoff in _radii(rng):
            r, cutoff = _as_backend(r, backend), _as_backend(cutoff, backend)
            expected = oracles.extent_scan_reference(p, r, cutoff, tol)
            assert _extent_scan(p, r, cutoff, tol, context) == expected
    assert reasons["library"] and "basepoint" not in reasons["library"]
    assert reasons["reference"].count("basepoint") > len(twins)


def test_composed_and_existence_passages_match_the_uncached_scan():
    rng = random.Random(37)
    passages = _composed_passages(rng, 3) + _existence_passages(rng, 4)
    # both existence cases: compact collapse (a metric passage) and the band
    assert {(p.kind, p.info is None) for p in passages} == {
        ("composed", False), ("composed", True), ("metric", True)
    }
    assert any(p.info is not None and p.info.first.info is not None for p in passages)
    for p in passages:
        radii = _radii(rng)[:4]
        _assert_scans_match(p, radii, 0)
        _assert_checks_match(p, radii[:2], 0)


def _pair(rng, nx, ny, backend):
    x = random_pointed_space(rng, nx, nx)
    y = random_pointed_space(rng, ny, ny)
    return (x, y) if backend == "rational" else (_float_copy(x), _float_copy(y))


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_propinquity_brackets_match_the_uncached_scan(backend, monkeypatch):
    rng = random.Random(11)
    tol = 0 if backend == "rational" else TOL
    cases = [_pair(rng, nx, ny, backend) for nx, ny in ((1, 2), (2, 1), (2, 2), (1, 2), (2, 2))]
    got = [propinquity_bracket(x, y, tol=tol) for x, y in cases]
    monkeypatch.setattr(tunnels, "_grid_scan", _reference_grid_scan)
    assert got == [propinquity_bracket(x, y, tol=tol) for x, y in cases]


def test_float_brackets_are_floats_that_overlap_the_rational_ones():
    # float rows bisect on floats: both ends are floats, and the float
    # bracket overlaps the exact one up to the float tolerance
    rng = random.Random(23)
    shapes = [(nx, ny) for nx in (1, 2, 3) for ny in (1, 2, 3)]
    floated = 0
    for nx, ny in shapes:
        x, y = random_pointed_space(rng, nx, nx), random_pointed_space(rng, ny, ny)
        lo, hi = propinquity_bracket(x, y)
        f_lo, f_hi = propinquity_bracket(_float_copy(x), _float_copy(y), tol=TOL)
        if (lo, hi) == (0, 0):  # an isometric pair answers (0, 0) exactly on both
            assert (f_lo, f_hi) == (0, 0)
            continue
        assert type(f_lo) is float and type(f_hi) is float
        assert f_lo <= hi + TOL and lo <= f_hi + TOL
        floated += 1
    assert floated >= 6


def _existence_pred_per_probe(A, B, tol):
    """The bracket's existence predicate with a fresh passage and scan
    context at every probe."""

    def pred(e):
        try:
            p = tunnels.existence_tunnel(A, B, inv(e), tol)
        except MetricError:
            return False
        return _extent_scan(p, inv(e), e, tol)[0] < e

    return pred


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_brackets_building_each_existence_passage_once_match_a_rebuild_per_probe(
    backend, monkeypatch
):
    rng = random.Random(11)
    tol = 0 if backend == "rational" else TOL
    shapes = [(nx, ny) for nx in (1, 2, 3) for ny in (1, 2, 3)] * 2
    cases = [_pair(rng, nx, ny, backend) for nx, ny in shapes]
    built = []
    original = tunnels.existence_tunnel

    def counted(*args):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(tunnels, "existence_tunnel", counted)
    got, per_bracket, kinds = [], [], set()
    for x, y in cases:
        got.append(propinquity_bracket(x, y, tol=tol))
        per_bracket.append(len(built))
        kinds |= {p.kind for p in built}
        built.clear()
    # both cases occur: the compact collapse and the bridge
    assert kinds == {"metric", "composed"}
    monkeypatch.setattr(tunnels, "_existence_pred", _existence_pred_per_probe)
    for (x, y), bracket, once in zip(cases, got, per_bracket):
        assert propinquity_bracket(x, y, tol=tol) == bracket
        assert len({p.carrier for p in built}) == once
        built.clear()


def test_existence_predicate_scans_the_passage_a_rebuild_makes(monkeypatch):
    # radii 1/e at, between and around the basepoint distances and diameters
    # cross both cases and several bridges, revisited in a shuffled order
    rng = random.Random(13)
    scanned = []
    original = tunnels._extent_scan

    def recording(p, r, cutoff, tol, context=None):
        # the compact collapse scans a grid copy: divide it back by its unit
        unit = context.unit
        rows = [[F(v, unit) for v in row] for row in p.carrier.dist]
        scanned.append((_trusted_space(p.carrier.points, rows), r / unit))
        return original(p, r, cutoff, tol, context)

    most = 0
    for nx, ny in ((2, 2), (2, 3), (3, 2), (3, 3), (3, 3)):
        x, y = random_pointed_space(rng, nx, nx), random_pointed_space(rng, ny, ny)
        marks = sorted({d for p in (x, y) for row in p.space.dist for d in row if d > 0})
        radii = marks + [(a + b) / 2 for a, b in zip(marks, marks[1:])] + [marks[-1] + 1]
        es = [1 / r for r in radii] * 2
        rng.shuffle(es)
        reference = _existence_pred_per_probe(x, y, 0)
        expected = [reference(e) for e in es]
        pred = tunnels._existence_pred(x, y, 0)
        monkeypatch.setattr(tunnels, "_extent_scan", recording)
        assert [pred(e) for e in es] == expected
        monkeypatch.setattr(tunnels, "_extent_scan", original)
        assert all(c == existence_tunnel(x, y, r).carrier for c, r in scanned)
        most = max(most, len({c for c, _ in scanned}))
        scanned.clear()
    assert most >= 3


def test_context_memo_is_shared_across_radii(monkeypatch):
    # one bisection's scans reuse probe results: far fewer clause
    # evaluations than scans, with unchanged answers
    rng = random.Random(2)
    x, y = random_pointed_space(rng, 3, 3), random_pointed_space(rng, 3, 3)
    rel = correspondence([(i, i) for i in range(3)], 3, 3)
    p = passage_from_gluing(glue_from_correspondence(x, y, rel))
    tolerances = [F(k, 4) for k in range(1, 60)]
    expected = [oracles.extent_scan_reference(p, 1 / e, e) for e in tolerances]
    calls = []
    original = tunnels.check_left_admissible

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(tunnels, "check_left_admissible", counted)
    context = ScanContext(p)
    assert [_extent_scan(p, 1 / e, e, 0, context) for e in tolerances] == expected
    assert 0 < len(calls) < len(tolerances)


def _scaled(x, s):
    rows = [[v * s for v in row] for row in x.space.dist]
    return pointed(validate_metric(x.space.points, rows), x.base)


def _grid_passages(rng):
    """Rational passages of every kind, plus identity passages (extent 0)."""
    passages = [p for p, _ in _metric_passages(rng, pairs=4, per_pair=2)]
    passages += [p for p, _ in _subspace_passages(rng, 12)]
    passages += _composed_passages(rng, 2, F(2, 7), F(3, 11)) + _existence_passages(rng, 4)
    for _ in range(2):
        x = random_pointed_space(rng, 1, 3)
        passages.append(passage_from_isometry(x, x, range(x.n)))
    # rows of denominator 3**37 + 2, so their grid ints pass 2**53
    for _ in range(3):
        x, y = (_scaled(random_pointed_space(rng, 1, 3), F(3**37 + 1, 3**37 + 2)) for _ in "xy")
        passages.append(random_passage(rng, x, y))
    # and read back from JSON, so all three spaces carry validation's grid
    passages += [
        passage_from_json({"gluing": glued_to_json(p.glued)}) for p in passages[:4] + passages[-3:]
    ]
    return passages


def _rows(p):
    return [v for s in (p.carrier, p.domain.space, p.codomain.space) for row in s.dist for v in row]


@pytest.mark.parametrize("tol", [0, F(1, 10), F(-1, 10)])
def test_rational_extents_scan_an_integer_grid_and_match_the_uncached_scan(tol, monkeypatch):
    # extent and smallest_admissible scan a metric passage as an int copy of
    # its rows, r and tol, each number the caller's times the context's unit,
    # and a composed one in the caller's numbers; their answers, divided
    # back, are the reference scan's on the caller's numbers, down to the
    # Python type of a returned 0 or inf
    rng = random.Random(29)
    passages = _grid_passages(rng)
    assert any(p.info is not None and p.info.first.info is not None for p in passages)
    scans, largest = [], 0
    original = tunnels._extent_scan

    def recording(q, r, cutoff, tol, context=None):
        unit = 1 if context is None else context.unit
        numbers = [r, tol, *_rows(q)]
        scans.append((q, unit, all(type(v) is int for v in numbers), [F(v, unit) for v in numbers]))
        return original(q, r, cutoff, tol, context)

    monkeypatch.setattr(tunnels, "_extent_scan", recording)
    answers = []
    for p in passages:
        for r, _ in _radii(rng)[:4]:
            scans.clear()
            want = oracles.extent_scan_reference(p, r, INF, tol)
            got = (extent(p, r, tol), smallest_admissible(p, r, tol))
            assert got == want
            assert [type(v) for v in got] == [type(v) for v in want]
            answers.append(got[0])
            assert len(scans) == 2
            for q, unit, ints, numbers in scans:
                assert numbers == [r, tol, *_rows(p)]
                if p.kind == "metric":
                    assert ints and unit > 1
                    largest = max(largest, max(abs(v) * unit for v in numbers))
                else:
                    assert q is p and unit == 1
    assert largest > 2**53
    assert any(type(v) is int and v == 0 for v in answers)
    assert INF in answers


def _below(value, gap):
    """Tolerances below a positive extent: half and 63/64 of it, and the
    basepoint gap and the midpoint up to the extent when the gap lies below."""
    out = [value / 2, value * 63 / 64] if value > 0 else []
    if gap < value:
        out += [gap, (gap + value) / 2]
    return out


def _assert_extent_meets_its_definition(p, r, tol):
    """extent and smallest_admissible at r against the definition, read by
    ``oracles.check_admissible_continuum`` alone: the probe is admissible,
    and at tol 0 the extent lies between the basepoint gap and the probe and
    the sampled tolerances below it are not admissible.  (At tol != 0 the
    scan can miss a breakpoint gap - tol below its answer: item 5.)  An
    infinite extent has no probe, and a tolerance past every distance fails
    too."""
    value, probe = extent(p, r, tol), smallest_admissible(p, r, tol)
    gap = p.carrier.d(p.x0_host, p.y0_host)
    if probe is None:
        assert value == INF
        big = 4 * max(max(row) for row in p.carrier.dist) + r + 1
        assert not oracles.check_admissible_continuum(p, r, big, tol)[0]
        return
    assert oracles.check_admissible_continuum(p, r, probe, tol)[0]
    assert value <= probe
    if tol == 0:
        assert gap <= value
        for eps in _below(value, gap):
            assert not oracles.check_admissible_continuum(p, r, eps, tol)[0], (value, eps)


def test_fixed_radius_extents_meet_the_definition():
    # the fixed-radius path (extent, smallest_admissible) read against the
    # definition of admissibility, not against a copy of the scan: rational
    # metric passages scan the integer grid at tol 0 and 1/10, their float
    # twins and a composed and an existence passage the caller's numbers
    rng = random.Random(83)
    cases = []
    for exact, floating in _metric_passages(rng, pairs=3, per_pair=2) + _subspace_passages(rng, 10):
        cases += [(exact, 0), (exact, F(1, 10)), (floating, TOL)]
    bridge = next(p for p in _existence_passages(rng, 4) if p.kind == "composed")
    cases += [(_composed_passages(rng, 1)[0], 0), (bridge, 0)]
    values = []
    for p, tol in cases:
        for r, _ in _radii(rng)[:2]:
            r = float(r) if tol == TOL else r
            _assert_extent_meets_its_definition(p, r, tol)
            values.append((extent(p, r, tol), p.carrier.d(p.x0_host, p.y0_host)))
    # the scans answer the gap, a value past it and an infinite extent
    assert any(v == g for v, g in values) and any(g < v < INF for v, g in values)
    assert any(v == INF for v, _ in values)


def _bracket_cases(rng):
    """Pairs of 1-3 point spaces, then pairs with rows of denominator
    3**37 + 2, as in ``_grid_passages``, then one pair read from JSON."""
    shapes = ((1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2))
    cases = [(random_pointed_space(rng, nx, nx), random_pointed_space(rng, ny, ny)) for nx, ny in shapes]
    big = F(3**37 + 1, 3**37 + 2)
    for _ in range(2):
        cases.append(tuple(_scaled(random_pointed_space(rng, 1, 3), big) for _ in "xy"))
    # a 2x3 pair read back from JSON, as the command line reads it
    cases.append(tuple(pointed_from_json(space_to_json(p.space, p.base)) for p in cases[5]))
    return cases


def _reference_grid_scan(p, tol, r=None):
    """``tunnels._grid_scan`` with no grid: the uncached reference scan of
    the caller's own passage, at unit 1."""

    def scan(radius=r, cutoff=INF):
        return oracles.extent_scan_reference(p, radius, cutoff, tol)

    return scan, 1, lambda v: v


def _caller_key(q, unit):
    return tuple(F(v, unit) for v in _rows(q)), q.embed_x, q.embed_y, q.domain.base, q.codomain.base


@pytest.mark.parametrize("tol", [0, F(1, 10), F(-1, 10)])
def test_rational_brackets_and_local_propinquity_scan_an_integer_grid_and_match_the_uncached_scan(
    tol, monkeypatch
):
    # every bisection step and every local_propinquity scan of a metric
    # passage runs on an int copy of its rows and tol, each the caller's
    # number times the context's unit, at radius L/e and cutoff e * L for a
    # bracket and at r * L for local_propinquity; composed passages are
    # scanned as the caller's own, at unit 1.  The answers equal those of
    # every predicate evaluated by the reference scan on the caller's
    # passages, down to their Python types.
    rng = random.Random(31)
    cases = _bracket_cases(rng)
    radii = [F(rng.randint(1, 8), 2) for _ in cases]
    asked, scans = [], []
    grid_scan, extent_scan, check = tunnels._grid_scan, tunnels._extent_scan, tunnels.check_admissible

    def asking(p, tol, r=None):
        asked.append(p)
        return grid_scan(p, tol, r)

    def scanning(q, r, cutoff, tol, context=None):
        scans.append((q, r, cutoff, tol, context.unit, context.gap, []))
        return extent_scan(q, r, cutoff, tol, context)

    def checking(p, r, eps, tol=0, context=None):
        got = check(p, r, eps, tol, context)
        scans[-1][-1].append((eps, got[0]))
        return got

    monkeypatch.setattr(tunnels, "_grid_scan", asking)
    monkeypatch.setattr(tunnels, "_extent_scan", scanning)
    monkeypatch.setattr(tunnels, "check_admissible", checking)
    brackets = [propinquity_bracket(x, y, tol=tol) for x, y in cases]
    bracket_scans = len(scans)
    local = []
    for (x, y), r in zip(cases, radii):
        first = len(scans)
        local.append(local_propinquity(x, y, r, tol=tol))
        for _, radius, _, _, unit, _, _ in scans[first:]:
            assert radius == r * unit and (unit == 1 or type(radius) is int)

    metric = {_caller_key(p, 1) for p in asked if p.kind == "metric"}
    composed = {id(p) for p in asked if p.kind == "composed"}
    largest, kinds, rejected = 0, set(), False
    for k, (q, radius, cutoff, q_tol, unit, gap, checks) in enumerate(scans):
        if unit > 1:
            numbers = [q_tol, *_rows(q)]
            assert all(type(v) is int for v in numbers) and F(q_tol, unit) == tol
            assert _caller_key(q, unit) in metric
            largest = max(largest, *numbers)
            kinds.add("metric")
        else:
            assert q.kind == "composed" and id(q) in composed and q_tol is tol
            kinds.add("composed")
        if k < bracket_scans:
            assert radius * cutoff == unit * unit
            if len(checks) > 1 and not checks[0][1]:
                rejected = rejected or tol != 0 or checks[0][0] == gap
    assert kinds == {"metric", "composed"} and largest > 2**53
    assert rejected  # a bisection step rejected its first probe and scanned on

    monkeypatch.setattr(tunnels, "_grid_scan", _reference_grid_scan)
    want = [propinquity_bracket(x, y, tol=tol) for x, y in cases]
    want_local = [local_propinquity(x, y, r, tol=tol) for (x, y), r in zip(cases, radii)]
    assert brackets == want and local == want_local
    got = [v for pair in brackets for v in pair] + [v for v, _ in local]
    want = [v for pair in want for v in pair] + [v for v, _ in want_local]
    assert [type(v) for v in got] == [type(v) for v in want]


def _int_grid_passage(p, tol):
    """(p, tol) scaled by L = 8 * lcm of their denominators, as
    ``tunnels._grid_scan`` scales a metric passage, and L."""
    unit = 8 * grid_unit([tol, *_rows(p)])
    c, x, y = (_pointed_on_grid(s, unit) for s in (PointedSpace(p.carrier, 0), p.domain, p.codomain))
    return Passage(c.space, p.embed_x, p.embed_y, x, y), on_grid(tol, unit), unit


@pytest.mark.parametrize("tol", [0, F(1, 10), F(1, 3), F(-1, 10)])
def test_an_int_eps_on_int_rows_probes_a_rational_radius_at_its_floor_with_the_same_verdict(
    tol, monkeypatch
):
    # on int rows and tol, every membership a clause reads is d <= t + k +
    # tol with d and k ints, which holds at t exactly when it holds at
    # floor(t): check_admissible probes ints only (but a sub-minimal probe
    # below 1), and its verdict at a Fraction r >= 1 is the continuum's at r
    # and at floor(r)
    rng = random.Random(71)
    probed = []
    left = tunnels.check_left_admissible

    def recording(p, t, eps, K, tol=0):
        probed.append(t)
        return left(p, t, eps, K, tol)

    monkeypatch.setattr(tunnels, "check_left_admissible", recording)
    verdicts = set()
    total = 0
    passages = [p for p, _ in _metric_passages(rng, pairs=8, per_pair=3)]
    for p in passages + [p for p, _ in _subspace_passages(rng, 8)]:
        q, q_tol, unit = _int_grid_passage(p, tol)
        context = ScanContext(q, q_tol, unit)
        assert context.ints
        top = max(max(row) for row in q.carrier.dist) + unit
        for _ in range(20):
            # eps near the basepoint gap, where clauses 2 and 3 decide
            eps = max(1, context.gap + rng.randint(-top // 16, top // 4))
            r = F(rng.randrange(7, 14 * top), 7)
            probed.clear()
            got = check_admissible(q, r, eps, tol=q_tol, context=context)
            total += len(probed)
            assert r < 2 or all(type(t) is int for t in probed)  # else r/2 < 1 is probed
            _assert_continuum_verdict(got, q, r, eps, tol=q_tol)
            floored = oracles.check_admissible_continuum(q, r // 1, eps, tol=q_tol)
            assert got[0] == floored[0]
            assert check_admissible(q, r // 1, eps, tol=q_tol)[0] == got[0]
            verdicts.add(got[1].get("clause", got[1].get("reason")))
    assert verdicts >= {None, "basepoint", 2, 3}
    assert total > 0  # the spy saw check_admissible's probes


@pytest.mark.parametrize("tol", [0, F(1, 10), F(1, 3), F(-1, 10)])
def test_check_admissible_agrees_with_the_continuum(tol):
    # the cells are the breakpoints d - s - tol, so probing each cell, one
    # sub-minimal point and r decides the continuum at every tol; on int
    # rows and tol a rational r is probed at its floor
    rng = random.Random(73)
    passages = [p for p, _ in _metric_passages(rng, pairs=6, per_pair=3)]
    passages += [p for p, _ in _subspace_passages(rng, 8)] + _composed_passages(rng, 1)
    verdicts = set()
    for p in passages:
        grid = [_int_grid_passage(p, tol)[:2]] if p.kind == "metric" else []
        for q, q_tol in [(p, tol)] + grid:
            top = int(max(max(row) for row in q.carrier.dist)) + 1
            for _ in range(8):
                eps = F(rng.randint(1, 4 * top), 4) if q is p else rng.randint(1, top)
                r = F(rng.randrange(1, 14 * top), 7)
                for radius in (r, r // 1) if r >= 1 else (r,):
                    got = check_admissible(q, radius, eps, tol=q_tol)
                    _assert_continuum_verdict(got, q, radius, eps, tol=q_tol)
                    verdicts.add(got[0])
    assert verdicts == {True, False}


def test_check_admissible_sees_a_clause_that_fails_between_a_cell_and_its_breakpoint():
    # at tol 1/3 and eps 1 the first breakpoint is 5/2 - 2 eps - tol = 1/6,
    # and below it the right side fails clause 3
    host = validate_metric(
        ("X:0", "X:1", "Y:0"), [[0, F(5, 2), F(5, 4)], [F(5, 2), 0, F(5, 4)], [F(5, 4), F(5, 4), 0]]
    )
    x = pointed(validate_metric(("X:0", "X:1"), [[0, F(5, 2)], [F(5, 2), 0]]), 1)
    y = pointed(validate_metric(("Y:0",), [[0]]), 0)
    p = passage_from_gluing(validate_gluing(host, x, (0, 1), y, (2,)))
    tol = F(1, 3)
    ok, cert = oracles.check_admissible_continuum(p, 8, 1, tol=tol)
    assert (ok, cert["t"], cert["side"], cert["clause"]) == (False, F(1, 12), "right", 3)
    ok, cert = check_admissible(p, 8, 1, tol=tol)
    assert (ok, cert["t"], cert["side"], cert["clause"]) == (False, F(1, 12), "right", 3)


@pytest.mark.xfail(
    strict=True,
    reason="ScanContext.candidates holds no tol-shifted values, so at tol != 0 the extent "
    "scan answers the candidate below the breakpoint gap - tol of the basepoint clause "
    "(FOUND in CHANGES.md)",
)
def test_an_extent_at_a_positive_tol_is_not_below_the_basepoint_gap_less_tol():
    # the basepoint clause leq(7, eps, 1/2) flips at 13/2: 6 and 25/4 are
    # not admissible and 13/2 is, so the infimum is 13/2
    x = pointed(validate_metric(("a", "b"), [[0, 3], [3, 0]]), 1)
    rows = [[0, F(8, 3), F(7, 3)], [F(8, 3), 0, F(4, 3)], [F(7, 3), F(4, 3), 0]]
    y = pointed(validate_metric(("u", "v", "w"), rows), 1)
    rel = correspondence([(0, 1), (0, 2), (1, 0), (1, 1), (1, 2)], 2, 3)
    p = passage_from_gluing(glue_from_correspondence(x, y, rel, 7))
    tol = F(1, 2)
    assert p.carrier.d(p.x0_host, p.y0_host) == 7
    for eps, ok in ((6, False), (F(25, 4), False), (F(13, 2), True)):
        assert check_admissible(p, 12, eps, tol=tol)[0] is ok
        assert oracles.check_admissible_continuum(p, 12, eps, tol=tol)[0] is ok
    assert smallest_admissible(p, 12, tol) == F(13, 2)
    assert extent(p, 12, tol) == F(13, 2)


@pytest.mark.xfail(
    strict=True,
    reason="ScanContext.candidates holds no tol-shifted values, so at tol != 0 the extent "
    "scan passes over the breakpoint gap - tol and answers the candidate above it "
    "(FOUND in CHANGES.md)",
)
def test_an_extent_at_a_positive_tol_reaches_down_to_the_basepoint_gap_less_tol():
    # the gap is 4 and tol 1/10, so the basepoint clause flips at 39/10,
    # where every clause holds; the candidates below 4 stop at 7/2
    host = validate_metric(("a", "b", "u", "v"), [[0, 8, 4, 5], [8, 0, 4, 4], [4, 4, 0, 1], [5, 4, 1, 0]])
    x = pointed(validate_metric(("a", "b"), [[0, 8], [8, 0]]), 0)
    y = pointed(validate_metric(("u", "v"), [[0, 1], [1, 0]]), 0)
    p = passage_from_gluing(validate_gluing(host, x, (0, 1), y, (2, 3)))
    tol = F(1, 10)
    for eps, ok in ((F(3899, 1000), False), (F(39, 10), True)):
        assert check_admissible(p, 1, eps, tol=tol)[0] is ok
        assert oracles.check_admissible_continuum(p, 1, eps, tol=tol)[0] is ok
    assert extent(p, 1, tol) == F(39, 10)


def _isometry_passages(rng, count):
    """Passages along a random base-preserving relabelling of a random 1-3
    point space: both images are the domain carrier's own points."""
    out = []
    for _ in range(count):
        x = random_pointed_space(rng, 1, 3)
        order = list(range(x.n))
        rng.shuffle(order)  # codomain point j is domain point order[j]
        rows = [[x.space.d(a, b) for b in order] for a in order]
        y = pointed(validate_metric([f"y{j}" for j in range(x.n)], rows), order.index(x.base))
        out.append(passage_from_isometry(x, y, order))
    return out


def test_left_clauses_agree_with_their_transcription():
    # check_left_admissible's (ok, certificate) against the clauses written
    # from their definitions, on both sides of gluing, isometry and composed
    # passages, at the canonical K_t and at random carrier subsets
    rng = random.Random(79)
    cases = [(p, (0, F(1, 10), F(-1, 10))) for p in _isometry_passages(rng, 8)]
    for p, fp in _metric_passages(rng, pairs=8, per_pair=2):
        cases += [(p, (0, F(1, 10), F(-1, 10))), (fp, (TOL,))]
    cases += [(p, (0, F(1, 10), F(-1, 10))) for p in _composed_passages(rng, 2)]
    verdicts = set()
    for p, tols in cases:
        floats = type(p.carrier.d(0, 0)) is float
        gap = p.carrier.d(p.x0_host, p.y0_host) or 1
        rows = sorted(v for v in tunnels._base_rows(p) if v > 0) or [1]
        for tol in tols:
            for _ in range(4):
                eps = gap * rng.choice((F(1, 2), 1, 2))
                # a radius inside a cell, or at a breakpoint d - s - tol of a
                # basepoint ball, where a tol-blind membership differs
                radii = [d * f for d in rows for f in (F(1, 2), F(3, 2))]
                radii += [d - s - tol for d in rows for s in (0, 2 * eps, 4 * eps)]
                r = rng.choice([v for v in radii if v > 0])
                if floats:
                    r, eps = float(r), float(eps)
                canonical = oracles.witness_family_reference(p, eps, tol)(r)
                if p.info is None:
                    assert tunnels.k_family(p, eps, tol)(r) == canonical
                for K in (canonical, *(rng.sample(range(p.carrier.n), rng.randint(0, p.carrier.n))
                                       for _ in range(2))):
                    for q in (p, inverse(p)):
                        got = tunnels.check_left_admissible(q, r, eps, K, tol)
                        assert got == oracles.left_clauses_reference(q, r, eps, K, tol)
                        verdicts.add(got[1].get("clause"))
    assert verdicts == {None, 1, 2, 3}


def _float_passage(p):
    """A metric passage's float twin: all three spaces' rows as floats."""
    rows = [[float(v) for v in row] for row in p.carrier.dist]
    carrier = validate_metric(p.carrier.points, rows, tol=TOL)
    return Passage(carrier, p.embed_x, p.embed_y, _float_copy(p.domain), _float_copy(p.codomain))


def _edge_cutoffs(cands, backend):
    """inf, 3/4 of the first candidate c0 (in (c0/2, c0], where the first
    probe half(c0) lies below the cutoff unclipped), and every candidate,
    just below it and just above it."""
    if backend == "rational":
        near = lambda c: (c - c / 1024, c + c / 1024)
    else:
        near = lambda c: (math.nextafter(c, 0), math.nextafter(c, INF))
    return [INF, cands[0] * 3 / 4, *(v for c in cands for v in (c, *near(c)))]


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_the_walk_matches_the_reference_at_its_edges(backend):
    # cutoffs at, just below and just above every candidate and inside the
    # first cell; isometry passages answer at the first probe, and a
    # one-point pair glued at width 3, scanned at radius 1 and a negative
    # tol, has no candidate that meets its gap, so its walk runs past the
    # last candidate c into (c, 2c + unit)
    rng = random.Random(97)
    x, y = (pointed(validate_metric((name,), [[0]]), 0) for name in "xy")
    host = validate_metric(("x", "y"), [[0, 3], [3, 0]])
    pair = passage_from_gluing(validate_gluing(host, x, (0,), y, (1,)))
    passages = _isometry_passages(rng, 2) + [pair]
    if backend == "rational":
        tols = (0, F(1, 10), F(-1, 10))
        passages += [p for p, _ in _metric_passages(rng, pairs=2, per_pair=1)]
        passages += [p for p, _ in _subspace_passages(rng, 2)]
    else:
        tols = (0.0, TOL, -TOL)
        passages = [_float_passage(p) for p in passages]
        passages += [fp for _, fp in _metric_passages(rng, pairs=2, per_pair=1)]
        passages += [fp for _, fp in _subspace_passages(rng, 2)]
    edges = set()
    for p in passages:
        radii = [_as_backend(r, backend) for r, _ in _radii(rng)[:2]] + [_as_backend(F(1), backend)]
        for tol in tols:
            context = ScanContext(p, tol)
            for r in radii:
                cands = oracles.eps_candidates_reference(p, r)
                cutoffs = _edge_cutoffs(cands, backend)
                got = {}
                for cutoff in cutoffs:
                    want = oracles.extent_scan_reference(p, r, cutoff, tol)
                    got[cutoff] = _extent_scan(p, r, cutoff, tol, context)
                    assert got[cutoff] == want
                probe = got[INF][1]
                if probe is not None and probe > cands[-1]:
                    edges.add("past the last candidate")
                if got[cands[0] * 3 / 4] == (0, cands[0] / 2):
                    edges.add("unclipped first probe")
                # cutoffs[4::3] lie just above the candidates
                above = cutoffs[4::3]
                if any(got[c] == (INF, None) and got[a] == (c, c) for c, a in zip(cands, above)):
                    edges.add("cutoff at an admissible candidate")
    assert edges == {"past the last candidate", "unclipped first probe", "cutoff at an admissible candidate"}
