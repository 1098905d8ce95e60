"""Correspondences, two-block gluings, and their serialization."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

import pytest

import oracles
from conftest import ball_only_embedding, random_correspondence_pairs
from ghlab import (
    AxiomViolation,
    BudgetExceeded,
    EtaTooSmall,
    MetricError,
    compose,
    correspondence,
    correspondence_distortion,
    delta_r,
    enumerate_correspondences,
    enumerate_gluings,
    existence_tunnel,
    glue_from_correspondence,
    glue_triple_w,
    glued_from_json,
    glued_to_json,
    hausdorff,
    identity_gluing,
    inverse,
    line_space,
    passage_from_gluing,
    pointed,
    restrict_to_images,
    subspace,
    validate_gluing,
    validate_metric,
)
from ghlab.gluing import NotDistancePreserving, correspondence_stream
from ghlab.numerics import DEFAULT_FLOAT_TOL
from ghlab.verify import random_correspondence, random_pointed_space


@pytest.mark.parametrize("nx,ny", [(1, 1), (1, 4), (2, 2), (2, 3), (3, 3)])
def test_correspondence_enumeration_matches_both_counting_oracles(nx, ny):
    listed = list(enumerate_correspondences(nx, ny))
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


def _assert_metric_as_built(space, tol=0):
    """Hosts built by construction skip validate_metric; it must still
    accept them and agree with the frozen rows and the strict flag."""
    checked = validate_metric(space.points, space.dist, tol=tol)
    assert checked.dist == space.dist
    assert checked.strict == space.strict


def _float_copy(p):
    rows = [[float(v) for v in row] for row in p.space.dist]
    return pointed(validate_metric(p.space.points, rows, tol=DEFAULT_FLOAT_TOL), p.base)


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
        for rel in enumerate_correspondences(x.n, y.n):
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
                x, y = pointed(subspace(mid, ix), 0), pointed(subspace(mid, iy), 0)
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
        subspace(twins.space, (0, 1), labels=("a", "a"))


def test_identity_gluing_is_a_zero_distance_witness():
    x = pointed(line_space([F(0), F(1), F(3)]), 0)
    g = identity_gluing(x)
    assert hausdorff(g.host, g.embed_x, g.embed_y) == 0
    for r in (F(1, 2), F(1), F(10)):
        assert delta_r(g, r, strict=True) == 0
    y = pointed(line_space([F(0), F(2)]), 0)
    with pytest.raises(MetricError):
        identity_gluing(x, y)


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


def test_restrict_to_images_preserves_embedded_distances():
    rng = random.Random(6)
    x = random_pointed_space(rng, 2, 3)
    y = random_pointed_space(rng, 2, 3)
    rel = next(enumerate_correspondences(x.n, y.n))
    g = glue_from_correspondence(x, y, rel)
    small = restrict_to_images(g)
    for i in range(x.n):
        for j in range(x.n):
            assert small.host.d(small.embed_x[i], small.embed_x[j]) == g.host.d(
                g.embed_x[i], g.embed_x[j]
            )
    for i in range(x.n):
        for j in range(y.n):
            assert small.host.d(small.embed_x[i], small.embed_y[j]) == g.host.d(
                g.embed_x[i], g.embed_y[j]
            )


def test_validate_gluing_reports_a_distorted_pair():
    host, X, ex, Y, ey = ball_only_embedding(F(1, 4))
    with pytest.raises(NotDistancePreserving) as err:
        validate_gluing(host, X, ex, Y, ey)
    assert err.value.side == "X"
    i, j = err.value.pair
    assert X.space.d(i, j) != host.d(ex[i], ex[j])


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


def test_exact_stream_budget_limits():
    big = pointed(validate_metric(tuple(str(i) for i in range(8)),
                                  oracles_identity_rows(8)), 0)
    small = pointed(line_space([F(0), F(1)]), 0)
    with pytest.raises(BudgetExceeded):
        list(correspondence_stream(big, small, "exact", budget=100))
    with pytest.raises(BudgetExceeded):
        next(enumerate_gluings(big, small, "exact", budget=100))
    assert next(enumerate_gluings(big, small, budget=100))  # "auto" falls back to heuristic
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
