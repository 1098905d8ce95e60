"""Lipschitz constants, McShane extensions, and support-controlled lifts."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

import oracles
from ghlab import (
    MetricError,
    PreconditionFailed,
    band_lift,
    closed_ball,
    extend_compact_support,
    glue_triple_w,
    line_space,
    lip_constant,
    mcshane_extend,
    mcshane_extend_lower,
    pointed,
    real_function,
    sup_norm,
    truncate_clip,
    validate_metric,
)
from ghlab.gluing import GluedSpace
from ghlab.lipschitz import InfiniteLipschitz, SupportViolation
from ghlab.metric_core import dist_to_set
from ghlab.numerics import INF, is_inf
from ghlab.verify import random_lip_function, random_pointed_space

PATH3 = validate_metric(("a", "b", "c"), [[0, 1, 2], [1, 0, 1], [2, 1, 0]])


def test_lip_constant_basic_values():
    s = line_space([F(0), F(1), F(5)])
    assert lip_constant(real_function(s, [F(3), F(3), F(3)])) == 0
    assert lip_constant(real_function(s, [s.d(0, i) for i in range(s.n)])) == 1
    two = line_space([F(0), F(1)])
    assert lip_constant(real_function(two, [F(0), F(3)])) == 3


def test_lip_constant_rejects_zero_distance_disagreement():
    pseudo = validate_metric(("a", "b"), [[0, 0], [0, 0]])
    with pytest.raises(InfiniteLipschitz):
        lip_constant(real_function(pseudo, [F(0), F(1)]))
    assert lip_constant(real_function(pseudo, [F(2), F(2)])) == 0


def test_mcshane_pinned_values():
    g = mcshane_extend(PATH3, {0: F(1), 2: F(0)}, F(1))
    assert g.values == (1, 1, 0)
    h = mcshane_extend(PATH3, {0: F(1)}, F(1))
    assert h.values == (1, 2, 3)
    full = {i: F(i * i) for i in range(3)}
    same = mcshane_extend(PATH3, full, lip_constant(real_function(PATH3, [0, 1, 4])))
    assert same.values == (0, 1, 4)


def test_mcshane_matches_closed_form_and_vertex_grid():
    rng = random.Random(12)
    for _ in range(40):
        s = random_pointed_space(rng, 2, 4).space
        anchors = {
            i: F(rng.randint(-4, 4), rng.choice((1, 2)))
            for i in range(s.n)
            if rng.random() < 0.7
        }
        if not anchors:
            anchors = {0: F(1)}
        need = max(
            (abs(anchors[i] - anchors[j]) / s.d(i, j)
             for i in anchors for j in anchors if i < j and s.d(i, j) > 0),
            default=F(0),
        )
        L = need + F(rng.randint(0, 2))
        if L == 0:
            L = F(1)
        up = mcshane_extend(s, anchors, L)
        lo = mcshane_extend_lower(s, anchors, L)
        assert list(up.values) == oracles.mcshane_upper(s, anchors, L)
        assert list(lo.values) == oracles.mcshane_lower(s, anchors, L)
        # vertex route: the envelope of the whole feasible polytope
        dist = [list(row) for row in s.dist]
        ok, vlo, vhi = oracles.lipschitz_hull_vertices(dist, L, anchors)
        assert ok
        assert list(up.values) == vhi and list(lo.values) == vlo
        assert lip_constant(up) <= L and lip_constant(lo) <= L
        for i, v in anchors.items():
            assert up.values[i] == v and lo.values[i] == v


def test_mcshane_rejects_too_small_constant():
    with pytest.raises(MetricError):
        mcshane_extend(PATH3, {0: F(0), 1: F(5)}, F(1))


def test_truncate_clip_values_and_lip_monotonicity():
    f = real_function(PATH3, [F(1), F(2), F(3)])
    assert truncate_clip(f, F(1)).values == (1, 1, 1)
    assert truncate_clip(f, F(0)).values == (0, 0, 0)
    assert truncate_clip(f, F(5)).values == f.values
    rng = random.Random(21)
    for _ in range(30):
        s = random_pointed_space(rng, 2, 4).space
        g = real_function(s, [F(rng.randint(-6, 6), 2) for _ in range(s.n)])
        M = F(rng.randint(0, 5), 2)
        clipped = truncate_clip(g, M)
        assert sup_norm(clipped) <= M
        assert lip_constant(clipped) <= lip_constant(g)


def test_extend_compact_support_pinned_line_instance():
    # four-point line, anchors on {0,1}, center 0, R = 1: the cutoff kills
    # the extension at coordinate 3 and halves it at coordinate 2
    z = line_space([F(0), F(1), F(2), F(3)])
    g = extend_compact_support(z, {0: F(1), 1: F(0)}, 0, F(1))
    assert g.values == (1, 0, F(1, 2), 0)
    assert {i for i, v in enumerate(g.values) if v} <= closed_ball(z, 0, F(2))


def test_extend_compact_support_is_identity_on_full_bumps():
    z = line_space([F(0), F(1, 2), F(1), F(2)])
    bump = [max(F(0), 1 - z.d(0, i)) for i in range(z.n)]
    g = extend_compact_support(z, dict(enumerate(bump)), 0, F(1))
    assert list(g.values) == bump


def test_extend_compact_support_contract_clauses():
    rng = random.Random(33)
    for _ in range(60):
        s = random_pointed_space(rng, 2, 5).space
        x0 = rng.randrange(s.n)
        R = F(rng.randint(1, 9), rng.choice((1, 2)))
        inside = sorted(closed_ball(s, x0, R))
        anchors = {i: F(rng.randint(-3, 3), rng.choice((1, 2))) for i in inside
                   if rng.random() < 0.8}
        anchors.setdefault(x0, F(0))
        g = extend_compact_support(s, anchors, x0, R)
        M = max(abs(v) for v in anchors.values())
        L = max(
            (abs(anchors[i] - anchors[j]) / s.d(i, j)
             for i in anchors for j in anchors if i < j and s.d(i, j) > 0),
            default=F(0),
        )
        for i, v in anchors.items():
            assert g.values[i] == v
        assert sup_norm(g) == M
        assert all(s.d(x0, z) <= R + M for z, v in enumerate(g.values) if v)
        got = lip_constant(g)
        assert got <= max(L, 1)
        if L >= 1 and len(set(anchors.values())) > 1:
            assert got == L


def test_extend_compact_support_errors_and_zero_case():
    z = line_space([F(0), F(5)])
    with pytest.raises(SupportViolation):
        extend_compact_support(z, {0: F(0), 1: F(1)}, 0, F(1))
    with pytest.raises(MetricError):
        extend_compact_support(z, {1: F(0)}, 0, F(1))  # center not anchored
    zero = extend_compact_support(z, {0: F(0)}, 0, F(1))
    assert zero.values == (0, 0)


def band_instance(rng):
    """A gluing + function satisfying every band_lift precondition, with Y
    inside the guaranteed ball so all conclusions must hold exactly."""
    x = random_pointed_space(rng, 2, 5)
    Z, z0 = x.space, x.base
    dists = sorted({Z.d(z0, i) for i in range(Z.n)})
    positive = [v for v in dists if v > 0]
    r = rng.choice(positive) if positive else F(1)
    w = rng.choice([v for v in dists if v <= 2 * r] or [F(0)])
    iy = tuple(sorted(closed_ball(Z, z0, w)))
    y_rows = [[Z.d(a, b) for b in iy] for a in iy]
    y = pointed(validate_metric(tuple(f"y{k}" for k in iy), y_rows), iy.index(z0))
    outside = [i for i in range(Z.n) if Z.d(z0, i) > r]
    R = dist_to_set(Z, z0, outside)
    eta = F(1, 4) if is_inf(R) else R / 16
    eps = 2 * eta
    glued = glue_triple_w(x, Z, y, tuple(range(Z.n)), iy, eta)
    f = random_lip_function(rng, Z, z0, r, F(1))
    return glued, f, r, eps, R


def test_band_lift_conclusions_on_generated_instances():
    rng = random.Random(41)
    done = 0
    while done < 30:
        glued, f, r, eps, R = band_instance(rng)
        g, h = band_lift(f, glued, r, eps)
        y_space = glued.origin_y.space
        y0 = glued.origin_y.base
        for i in range(glued.origin_x.n):
            assert g.values[glued.embed_x[i]] == f.values[i]
        assert lip_constant(g) <= 1 and lip_constant(h) <= 1
        assert sup_norm(g) <= sup_norm(f)
        g_on_y = [g.values[glued.embed_y[j]] for j in range(y_space.n)]
        assert sup_norm(h) <= max((abs(v) for v in g_on_y), default=F(0))
        assert all(abs(gy - hy) <= eps for gy, hy in zip(g_on_y, h.values))
        for j in range(y_space.n):
            if y_space.d(y0, j) >= r + 2 * eps:
                assert h.values[j] == 0
        if not is_inf(R):
            assert sup_norm(f) <= R + r
        done += 1


def test_band_lift_on_identity_gluing_returns_f():
    x = pointed(line_space([F(0), F(1), F(4)]), 0)
    g = GluedSpace(x.space, (0, 1, 2), (0, 1, 2), x, x)
    f = real_function(x.space, [F(1), F(0), F(0)])  # supported strictly inside r=2
    gg, hh = band_lift(f, g, F(2), F(1, 2))
    assert gg.values == f.values and hh.values == f.values


@pytest.mark.parametrize(
    "clause,builder",
    [
        ("lipschitz", lambda x: real_function(x.space, [F(0), F(2), F(0)])),
        ("support", lambda x: real_function(x.space, [F(1), F(1), F(0)])),
    ],
)
def test_band_lift_function_preconditions(clause, builder):
    x = pointed(line_space([F(0), F(1), F(4)]), 0)
    g = GluedSpace(x.space, (0, 1, 2), (0, 1, 2), x, x)
    with pytest.raises(PreconditionFailed) as err:
        band_lift(builder(x), g, F(1), F(1, 4))
    assert err.value.clause == clause


def test_band_lift_radius_margin_precondition():
    x = pointed(line_space([F(0), F(1), F(4)]), 0)
    g = GluedSpace(x.space, (0, 1, 2), (0, 1, 2), x, x)
    f = real_function(x.space, [F(1), F(0), F(0)])
    # R = dist(0, {4}) = 4 at r = 2; eps = 2 violates 2*eps < R
    with pytest.raises(PreconditionFailed) as err:
        band_lift(f, g, F(2), F(2))
    assert err.value.clause == "radius-margin"


def test_band_lift_containment_precondition():
    x = pointed(line_space([F(0), F(1)]), 0)
    far = pointed(line_space([F(0), F(20)]), 0)
    host = line_space([F(0), F(1), F(0), F(20)], labels=("x0", "x1", "y0", "y1"))
    glued_far = GluedSpace(
        host=host, embed_x=(0, 1), embed_y=(2, 3), origin_x=x, origin_y=far
    )
    f = real_function(x.space, [F(1, 2), F(0)])
    with pytest.raises(PreconditionFailed) as err:
        band_lift(f, glued_far, F(1), F(1, 4))
    assert err.value.clause == "ball-containment"


def test_band_lift_basepoint_precondition():
    # the lone Y point sits on top of x1, so containment holds, but the
    # basepoints are a full unit apart
    x = pointed(line_space([F(0), F(1)]), 0)
    y = pointed(validate_metric(("y0",), [[0]]), 0)
    host = line_space([F(0), F(1), F(1)], labels=("x0", "x1", "y0"))
    glued = GluedSpace(host=host, embed_x=(0, 1), embed_y=(2,), origin_x=x, origin_y=y)
    f = real_function(x.space, [F(1, 2), F(0)])
    with pytest.raises(PreconditionFailed) as err:
        band_lift(f, glued, F(1), F(1, 4))
    assert err.value.clause == "basepoint"
