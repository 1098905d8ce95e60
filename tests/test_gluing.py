"""Correspondences, two-block gluings, and their serialization."""

from __future__ import annotations

import gc
import itertools
import random
from fractions import Fraction as F

import pytest

import oracles
from conftest import ball_only_embedding, random_correspondence_pairs
from ghlab import (
    AxiomViolation,
    BudgetExceeded,
    Delta_r,
    EtaTooSmall,
    MetricError,
    compose,
    correspondence,
    correspondence_distortion,
    delta_r,
    existence_tunnel,
    gh_inframetric,
    glue_from_correspondence,
    glue_triple_w,
    glued_from_json,
    glued_to_json,
    hausdorff,
    inverse,
    line_space,
    passage_from_gluing,
    passage_from_isometry,
    pointed,
    propinquity_bracket,
    space_to_json,
    validate_gluing,
    validate_metric,
)
from ghlab.gluing import (
    GluedSpace,
    NotDistancePreserving,
    _heuristic_correspondences,
    correspondence_stream,
)
from ghlab.local_gh import _pointed_on_grid
from ghlab.metric_core import PreconditionFailed, _trusted_space
from ghlab.numerics import DEFAULT_FLOAT_TOL, grid_unit, half
from ghlab.verify import random_correspondence, random_pointed_space


@pytest.mark.parametrize("nx,ny", [(1, 1), (1, 4), (2, 2), (2, 3), (3, 3)])
def test_correspondence_enumeration_matches_both_counting_oracles(nx, ny):
    x, y = pointed(line_space(range(nx)), 0), pointed(line_space(range(ny)), 0)
    listed = list(correspondence_stream(x, y, budget=nx * ny))
    encodings = {c.pairs for c in listed}
    assert len(listed) == len(encodings)  # no duplicates
    assert len(listed) == oracles.full_relation_count(nx, ny)
    assert encodings == {tuple(sorted(rel)) for rel in oracles.all_full_relations(nx, ny)}


def test_correspondence_counts_frozen_values():
    assert oracles.full_relation_count(2, 2) == 7
    assert oracles.full_relation_count(3, 3) == 265


def test_correspondence_factory_rejects_partial_covers():
    with pytest.raises(MetricError):
        correspondence([(0, 0)], 2, 1)  # left point 1 uncovered
    with pytest.raises(MetricError):
        correspondence([(0, 0), (1, 0)], 2, 2)  # right point 1 uncovered
    with pytest.raises(MetricError):
        correspondence([], 1, 1)
    with pytest.raises(MetricError):
        correspondence([(0, 5)], 1, 1)


def test_distortion_matches_brute_force():
    rng = random.Random(2)
    for _ in range(30):
        x = random_pointed_space(rng, 1, 4)
        y = random_pointed_space(rng, 1, 4)
        rel = correspondence(random_correspondence_pairs(rng, x.n, y.n), x.n, y.n)
        expected = max(
            abs(x.space.d(a, c) - y.space.d(b, d))
            for (a, b) in rel.pairs
            for (c, d) in rel.pairs
        )
        assert correspondence_distortion(rel, x.space, y.space) == expected


def _distortion_terms(rel, x_space, y_space):
    return {abs(x_space.d(a, c) - y_space.d(b, e)) for a, b in rel.pairs for c, e in rel.pairs}


def test_distortion_kernel_matches_the_reference_bounded_and_unbounded():
    # the row-read kernel keeps the value and type of the combinations form;
    # with a threshold prune it answers None exactly when the prune holds at
    # half the full distortion, and the full distortion otherwise
    rng = random.Random(21)
    checked = 0
    for nx, ny in itertools.product((1, 2, 3), repeat=2):
        for _ in range(2):
            x, y = random_pointed_space(rng, nx, nx), random_pointed_space(rng, ny, ny)
            unit = 4 * grid_unit(itertools.chain(*x.space.dist, *y.space.dist))
            backends = (
                (x, y),
                (_pointed_on_grid(x, unit), _pointed_on_grid(y, unit)),
                (_float_copy(x), _float_copy(y)),
            )
            for a, b in backends:
                for rel in correspondence_stream(a, b, budget=nx * ny):
                    want = oracles.correspondence_distortion_reference(rel, a.space, b.space)
                    got = correspondence_distortion(rel, a.space, b.space)
                    assert got == want and type(got) is type(want)
                    cuts = {half(t) for t in _distortion_terms(rel, a.space, b.space)} | {-1}
                    for cut in cuts:
                        for prune in (lambda lower: lower > cut, lambda lower: lower >= cut):
                            bounded = correspondence_distortion(rel, a.space, b.space, prune)
                            if prune(half(want)):
                                assert bounded is None
                            else:
                                assert bounded == want and type(bounded) is type(want)
                            checked += 1
    assert checked > 10000


def _assert_metric_as_built(space, tol=0):
    """Hosts built by construction skip validate_metric; it must still
    accept them and agree with the frozen rows and the strict flag."""
    checked = validate_metric(space.points, space.dist, tol=tol)
    assert checked.dist == space.dist
    assert checked.strict == space.strict


def _float_copy(p):
    rows = [[float(v) for v in row] for row in p.space.dist]
    return pointed(validate_metric(p.space.points, rows, tol=DEFAULT_FLOAT_TOL), p.base)


def test_an_explicit_eta_is_checked_against_the_float_distortion():
    # float(8/3) rounds down, so on the float twins dis(R) = 4.5 - float(8/3)
    # is 1.8333333333333335, and float(11/12), the exact dis(R)/2 rounded, is
    # below its half: refused, since that narrow a host can break a triangle
    # by a rounding amount.  The half of the float distortion is accepted.
    x = pointed(validate_metric("abc", [[0, F(9, 2), 1], [F(9, 2), 0, 4], [1, 4, 0]]), 1)
    y = pointed(validate_metric("uv", [[0, F(8, 3)], [F(8, 3), 0]]), 1)
    rel = correspondence(((0, 0), (1, 1), (2, 0)), 3, 2)
    assert correspondence_distortion(rel, x.space, y.space) == F(11, 6)
    fx, fy = _float_copy(x), _float_copy(y)
    with pytest.raises(EtaTooSmall):
        glue_from_correspondence(fx, fy, rel, float(F(11, 12)))
    eta = half(correspondence_distortion(rel, fx.space, fy.space))
    g = glue_from_correspondence(fx, fy, rel, eta)
    validate_gluing(g.host, fx, g.embed_x, fy, g.embed_y)


def _passage_pair(rng, x, y, fx, fy):
    """The same random correspondence passage on the rational spaces and on
    their float copies."""
    rel = random_correspondence(rng, x.n, y.n)
    dis = correspondence_distortion(rel, x.space, y.space)
    eta = F(dis) / 2 if dis > 0 else F(1, rng.randint(1, 4))
    return (
        passage_from_gluing(glue_from_correspondence(x, y, rel, eta)),
        passage_from_gluing(glue_from_correspondence(fx, fy, rel, float(eta))),
    )


def test_glue_validates_at_half_distortion_and_rejects_below():
    # Every host built without validate_metric, over exhaustive small
    # families, passes it exactly and on the float backend.
    rng = random.Random(4)
    checked = 0
    for _ in range(25):
        x = random_pointed_space(rng, 1, 3)
        y = random_pointed_space(rng, 1, 3)
        fx, fy = _float_copy(x), _float_copy(y)
        for rel in correspondence_stream(x, y, budget=x.n * y.n):
            dis = correspondence_distortion(rel, x.space, y.space)
            for eta in (None, F(dis) / 2 + 1):
                g = glue_from_correspondence(x, y, rel, eta)
                validate_gluing(g.host, x, g.embed_x, y, g.embed_y)
                _assert_metric_as_built(g.host)
                fg = glue_from_correspondence(fx, fy, rel, None if eta is None else float(eta))
                _assert_metric_as_built(fg.host, DEFAULT_FLOAT_TOL)
            if dis > 0:
                with pytest.raises(EtaTooSmall):
                    glue_from_correspondence(x, y, rel, eta=dis / 2 - F(1, 1000))
                checked += 1
    assert checked > 0

    # triple gluings along every pair of sub-spaces of a small middle space
    for _ in range(4):
        z = random_pointed_space(rng, 1, 3).space
        fz = _float_copy(pointed(z, 0)).space
        subsets = [
            idx for k in range(1, z.n + 1) for idx in itertools.combinations(range(z.n), k)
        ]
        for ix, iy in itertools.product(subsets, repeat=2):
            for mid, eps, tol in ((z, F(0), 0), (z, F(1, 2), 0), (fz, 0.5, DEFAULT_FLOAT_TOL)):
                x, y = (
                    pointed(validate_metric(
                        [mid.points[k] for k in idx],
                        [[mid.d(a, b) for b in idx] for a in idx],
                        tol=tol,
                    ), 0)
                    for idx in (ix, iy)
                )
                _assert_metric_as_built(glue_triple_w(x, mid, y, ix, iy, eps).host, tol)

    # min-plus carriers of composed passages and of the direct existence tunnel
    rng = random.Random(37)
    for _ in range(8):
        x, y, z = (random_pointed_space(rng, 1, 3) for _ in range(3))
        fx, fy, fz = (_float_copy(p) for p in (x, y, z))
        p1, f1 = _passage_pair(rng, x, y, fx, fy)
        p2, f2 = _passage_pair(rng, y, z, fy, fz)
        alpha = F(1, rng.randint(2, 5))
        comp = compose(p1, p2, alpha, F(1), r=F(3), eps1=F(1, 4), eps2=F(1, 4))
        _assert_metric_as_built(comp.carrier)
        back = compose(comp, inverse(p2), alpha, F(1), r=F(3), eps1=F(1, 4), eps2=F(1, 4))
        _assert_metric_as_built(back.carrier)
        fcomp = compose(f1, f2, float(alpha), 1.0, r=3.0, eps1=0.25, eps2=0.25)
        _assert_metric_as_built(fcomp.carrier, DEFAULT_FLOAT_TOL)
    x2 = pointed(line_space([F(0), F(1), F(6)]), 0)
    y2 = pointed(line_space([F(0), F(2), F(7)]), 0)
    fx2, fy2 = _float_copy(x2), _float_copy(y2)
    for a, b, r, tol in ((x2, y2, F(3), 0), (fx2, fy2, 3.0, DEFAULT_FLOAT_TOL)):
        p = existence_tunnel(a, b, r)
        assert p.kind == "composed"  # the band case, built by min-plus closure
        _assert_metric_as_built(p.carrier, tol)

    # distinct points 1 and "1" print alike but get distinct host labels;
    # the trusted constructor still rejects a repeated label
    twins = pointed(validate_metric((1, "1"), [[0, 2], [2, 0]]), 0)
    one = pointed(validate_metric(("a",), [[0]]), 0)
    g = glue_from_correspondence(twins, one, correspondence([(0, 0), (1, 0)], 2, 1))
    assert g.host.points == ("X:1", "X:#1:1", "Y:a")
    assert glue_triple_w(twins, twins.space, twins, (0, 1), (0, 1), F(0)).host.points == (
        "X:1", "X:#1:1", "Z:1", "Z:#1:1", "Y:1", "Y:#1:1"
    )
    # the indexed label of 1 is itself taken by the point "#2:1"
    rows = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    triplet = pointed(validate_metric(("#2:1", "1", 1), rows), 0)
    g = glue_from_correspondence(triplet, one, correspondence([(0, 0), (1, 0), (2, 0)], 3, 1))
    assert g.host.points == ("X:#2:1", "X:1", "X:#2:#2:1", "Y:a")
    with pytest.raises(AxiomViolation):
        _trusted_space(("a", "a"), twins.space.dist)


def test_identity_gluing_is_a_zero_distance_witness():
    x = pointed(line_space([F(0), F(1), F(3)]), 0)
    g = GluedSpace(x.space, (0, 1, 2), (0, 1, 2), x, x)
    assert hausdorff(g.host, g.embed_x, g.embed_y) == 0
    for r in (F(1, 2), F(1), F(10)):
        assert delta_r(g, r, strict=True) == 0


def test_triple_gluing_distance_table():
    # one-point spaces joined through a one-point middle: the widened
    # cross distances are eps and 2*eps
    one = pointed(validate_metric(("p",), [[0]]), 0)
    mid = validate_metric(("m",), [[0]])
    g = glue_triple_w(one, mid, one, (0,), (0,), F(1))
    assert g.host.d(g.embed_x[0], g.embed_y[0]) == 2
    assert g.host.d(g.embed_x[0], 1) == 1  # X to middle
    assert g.host.d(g.embed_y[0], 1) == 1  # Y to middle

    rng = random.Random(8)
    for _ in range(20):
        z = random_pointed_space(rng, 2, 4).space
        idx = list(range(z.n))
        rng.shuffle(idx)
        kx = rng.randint(1, z.n)
        ky = rng.randint(1, z.n)
        ix = tuple(sorted(idx[:kx]))
        iy = tuple(sorted(rng.sample(range(z.n), ky)))
        x = pointed(validate_metric(tuple(f"x{k}" for k in ix), [[z.d(a, b) for b in ix] for a in ix]), 0)
        y = pointed(validate_metric(tuple(f"y{k}" for k in iy), [[z.d(a, b) for b in iy] for a in iy]), 0)
        eps = F(rng.randint(0, 3), 2)
        g = glue_triple_w(x, z, y, ix, iy, eps)
        nx = x.n
        for a in range(x.n):
            for b in range(y.n):
                assert g.host.d(g.embed_x[a], g.embed_y[b]) == z.d(ix[a], iy[b]) + 2 * eps
        for a in range(x.n):
            for m in range(z.n):
                assert g.host.d(g.embed_x[a], nx + m) == z.d(ix[a], m) + eps


def test_triple_gluing_rejects_non_embeddings():
    two = pointed(line_space([F(0), F(1)]), 0)
    far = validate_metric(("m", "n"), [[0, 5], [5, 0]])
    with pytest.raises(MetricError):
        glue_triple_w(two, far, two, (0, 1), (0, 1), F(0))  # distances distorted
    with pytest.raises(MetricError):
        glue_triple_w(two, far, two, (0, 0), (0, 1), F(0))  # not injective


def test_validate_gluing_reports_a_distorted_pair():
    host, X, ex, Y, ey = ball_only_embedding(F(1, 4))
    with pytest.raises(NotDistancePreserving) as err:
        validate_gluing(host, X, ex, Y, ey)
    assert err.value.side == "X"
    i, j = err.value.pair
    assert X.space.d(i, j) != host.d(ex[i], ex[j])


def test_each_embedding_check_names_the_first_distorted_pair():
    # the identity map keeps d(a, b) and d(b, c) but not d(a, c): the first
    # changed pair in the order a < b is (0, 2), whichever check finds it
    line = pointed(line_space([F(0), F(1), F(2)], labels=("a", "b", "c")), 0)
    bent = validate_metric(("a", "b", "c"), [[0, 1, F(3, 2)], [1, 0, 1], [F(3, 2), 1, 0]])
    with pytest.raises(NotDistancePreserving) as err:
        validate_gluing(bent, line, (0, 1, 2), line, (0, 1, 2))
    assert (err.value.side, err.value.pair) == ("X", (0, 2))
    assert str(err.value) == "X pair ('a','c'): source distance 2, host distance 3/2"
    with pytest.raises(PreconditionFailed) as err:
        glue_triple_w(line, bent, line, (0, 1, 2), (0, 1, 2), F(1))
    assert err.value.clause == "X"
    assert str(err.value) == "iota_X is not distance preserving on pair (0,2)"
    with pytest.raises(NotDistancePreserving) as err:
        passage_from_isometry(line, pointed(bent, 0), (0, 1, 2))
    assert (err.value.side, err.value.pair) == ("isometry", (0, 2))
    assert str(err.value) == "d('a','c') is not preserved"


def test_glued_json_round_trip():
    x = pointed(line_space([F(0), F(1, 3)]), 1)
    y = pointed(line_space([F(0), F(1)]), 0)
    rel = correspondence([(0, 0), (1, 1)], 2, 2)
    g = glue_from_correspondence(x, y, rel)
    back = glued_from_json(glued_to_json(g))
    assert back.host.dist == g.host.dist
    assert back.embed_x == g.embed_x and back.embed_y == g.embed_y
    assert back.origin_x.base == g.origin_x.base
    assert back.origin_y.base == g.origin_y.base
    assert delta_r(back, F(2)) == delta_r(g, F(2))


@pytest.mark.parametrize("tol", [0, F(1, 10), F(-1, 10), 1e-9])
def test_glued_json_host_checks_match_validate_gluing(tol):
    # a host on a line, so every triangle through the middle point is
    # tight; its distances are so large that adding a float tol to them
    # would round, so only the negative tol may reject it
    a = 10**17 + F(1, 3)
    host = line_space([F(0), a, 2 * a], labels=("p", "q", "s"))
    x = pointed(line_space([F(0), a], labels=("p", "q")), 0)
    y = pointed(line_space([a, 2 * a], labels=("q", "s")), 1)
    obj = {"host": space_to_json(host), "embedX": [0, 1], "embedY": [1, 2],
           "X": space_to_json(x.space, x.base), "Y": space_to_json(y.space, y.base)}

    def outcome(build):
        try:
            return build()
        except MetricError as exc:
            return type(exc), str(exc)

    want = outcome(lambda: validate_gluing(host, x, (0, 1), y, (1, 2), tol))
    assert outcome(lambda: glued_from_json(obj, tol=tol)) == want
    assert isinstance(want, tuple) == (tol == F(-1, 10))


def test_exact_stream_budget_limits():
    big = pointed(validate_metric(tuple(str(i) for i in range(8)),
                                  oracles_identity_rows(8)), 0)
    small = pointed(line_space([F(0), F(1)]), 0)
    with pytest.raises(BudgetExceeded):
        list(correspondence_stream(big, small, "exact", budget=100))
    x = pointed(line_space([F(0), F(1), F(2), F(3)]), 0)
    with pytest.raises(BudgetExceeded):
        list(correspondence_stream(x, x, "exact", budget=12))  # 4*4 > 12


def oracles_identity_rows(n):
    return [[0 if i == j else abs(i - j) for j in range(n)] for i in range(n)]


def test_heuristic_stream_is_deterministic_under_seed():
    rng = random.Random(44)
    x = random_pointed_space(rng, 4, 4)
    y = random_pointed_space(rng, 4, 4)
    a = [c.pairs for c in correspondence_stream(x, y, "heuristic", seed=3, samples=20)]
    b = [c.pairs for c in correspondence_stream(x, y, "heuristic", seed=3, samples=20)]
    c = [c.pairs for c in correspondence_stream(x, y, "heuristic", seed=4, samples=20)]
    assert a == b
    assert len(a) > 0
    assert a != c or len(set(a)) == len(set(c))  # different seed may legitimately coincide on tiny spaces


def test_heuristic_candidates_keep_the_draws_of_the_set_rebuilding_repair():
    # the repair decides removability by coverage counts; it must make the
    # same draws and keep the same pairs as the oracle that rebuilds both
    # coverage sets per pair, so every seeded candidate and the rng's end
    # state stay as they were
    checked = 0
    for nx, ny in itertools.product(range(1, 8), repeat=2):
        for seed in range(6):
            rng = random.Random(100 * nx + 10 * ny + seed)
            x, y = random_pointed_space(rng, nx, nx), random_pointed_space(rng, ny, ny)
            for samples in (0, 1, 5, 24):
                got_rng, want_rng = random.Random(seed), random.Random(seed)
                got = [rel.pairs for rel in _heuristic_correspondences(x, y, got_rng, samples)]
                want = list(oracles.heuristic_correspondences_reference(x, y, want_rng, samples))
                assert got == want
                assert got_rng.getstate() == want_rng.getstate()
                checked += len(got)
    assert checked == 49 * 6 * (4 * 2 + 0 + 1 + 5 + 24)


def test_stream_distortion_is_reused_only_on_its_own_spaces():
    # the stream hands its measured distortion to the gluing; a correspondence
    # built by hand, or glued onto other spaces of the same shape, is measured
    # afresh, so an eta below half the distortion still raises
    rng = random.Random(8)
    tiny = F(1, 1000)
    checked = 0
    for _ in range(8):
        x, y = random_pointed_space(rng, 2, 3), random_pointed_space(rng, 2, 3)
        x2, y2 = random_pointed_space(rng, x.n, x.n), random_pointed_space(rng, y.n, y.n)
        for mode in ("exact", "heuristic"):
            for rel in correspondence_stream(x, y, mode, samples=8):
                by_hand = correspondence(rel.pairs, x.n, y.n)
                for a, b in ((x, y), (x2, y2)):
                    dis = correspondence_distortion(rel, a.space, b.space)
                    assert glue_from_correspondence(a, b, rel).host == glue_from_correspondence(
                        a, b, by_hand
                    ).host
                    if dis > 0:
                        for c in (rel, by_hand):
                            with pytest.raises(EtaTooSmall):
                                glue_from_correspondence(a, b, c, eta=dis / 2 - tiny)
                        checked += 1
    assert checked > 0


def test_searches_leave_no_cyclic_garbage():
    # every exact stream used to leave its self-recursive row search behind as
    # a reference cycle, and a bracket on equal sizes its isometry search;
    # with the collector off, none may be left to collect
    x = pointed(line_space([F(0), F(1)]), 0)
    y = pointed(line_space([F(0), F(1), F(3)]), 1)
    y2 = pointed(line_space([F(0), F(2)]), 0)
    calls = (
        lambda: propinquity_bracket(x, y),
        lambda: propinquity_bracket(x, y2),
        lambda: Delta_r(x, y, F(1)),
        lambda: Delta_r(x, y, F(1), search="heuristic", samples=8),
        lambda: gh_inframetric(x, y),
    )
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()
