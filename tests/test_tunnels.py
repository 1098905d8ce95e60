"""Passages: admissibility, extent, lift bounds, composition, propinquity."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

import oracles
from conftest import random_glued
from ghlab import (
    MetricError,
    check_admissible,
    check_left_admissible,
    compose,
    diameter,
    existence_tunnel,
    extent,
    glued_to_json,
    inverse,
    k_family,
    lift_target_bounds,
    line_space,
    local_propinquity,
    passage_from_gluing,
    passage_from_isometry,
    passage_from_json,
    pointed,
    pointed_from_json,
    propinquity_bracket,
    smallest_admissible,
    validate_metric,
    verify_fundamental,
)
from ghlab import tunnels
from ghlab.local_gh import refine_gluing_cross
from ghlab.numerics import INF, SQRT2_OVER_4, is_inf, truncate_floor
from ghlab.tunnels import (
    DomainMismatch,
    Infeasible,
    RadiusConditionViolated,
    RadiusGap,
    _zero_set,
    composed_k_family,
)
from ghlab.verify import (
    random_admissible_instance,
    random_lip_function,
    random_pointed_space,
    random_passage,
)


def one_point_pair(gap):
    x = pointed(validate_metric(("p",), [[0]]), 0)
    y = pointed(validate_metric(("q",), [[0]]), 0)
    host = line_space([F(0), gap], labels=("p", "q"))
    from ghlab import validate_gluing

    return passage_from_gluing(validate_gluing(host, x, (0,), y, (1,)))


def test_canonical_family_is_the_union_of_widened_balls():
    rng = random.Random(3)
    for _ in range(20):
        p, r, eps, K = random_admissible_instance(rng, 4)
        kf = k_family(p, eps)
        for t in (r / 2, r, 2 * r):
            expected = {
                p.embed_x[i]
                for i in range(p.domain.n)
                if p.domain.space.d(p.domain.base, i) <= t + 2 * eps
            } | {
                p.embed_y[j]
                for j in range(p.codomain.n)
                if p.codomain.space.d(p.codomain.base, j) <= t + 2 * eps
            }
            assert frozenset(kf(t)) == expected
        assert kf(r / 2) <= kf(r) <= kf(2 * r)


def test_admissibility_certificates():
    rng = random.Random(7)
    for _ in range(15):
        p, r, eps, K = random_admissible_instance(rng, 3)
        ok, cert = check_admissible(p, r, eps)
        assert ok and cert["family"] == "canonical" and cert["probes"] >= 1
        ok_left, cert_left = check_left_admissible(p, r, eps, K)
        assert ok_left and cert_left["clauses"] == "1-3 checked, 4-5 automatic"
    gap = one_point_pair(F(3))
    ok, cert = check_admissible(gap, F(1), F(1, 2))
    assert not ok and cert["reason"] == "basepoint"


def test_left_admissibility_failure_carries_a_clause_witness():
    gap = one_point_pair(F(3))
    # K misses the whole X ball: clause 1
    ok, cert = check_left_admissible(gap, F(1), F(3), frozenset())
    assert not ok and cert["clause"] == 1 and "witness" in cert


def test_extent_equals_smallest_admissible_and_scan_is_complete():
    rng = random.Random(11)
    for _ in range(12):
        x = random_pointed_space(rng, 1, 3)
        y = random_pointed_space(rng, 1, 3)
        p = random_passage(rng, x, y)
        r = F(rng.randint(1, 6), rng.choice((1, 2)))
        e = extent(p, r)
        assert e == smallest_admissible(p, r)
        assert check_admissible(p, r, e)[0]
        # independent completeness probes: strictly below the reported
        # extent nothing may be admissible, including off-candidate points
        grid = sorted({F(0)} | {v for v in _independent_eps_grid(p) if v < e})
        probes = []
        for lo, hi in zip(grid, grid[1:] + [e]):
            probes.append(lo + (hi - lo) * F(1, 3))
            probes.append(lo + (hi - lo) * F(7, 11))
        for q in probes:
            if 0 < q < e:
                assert not check_admissible(p, r, q)[0]


def _independent_eps_grid(p):
    values = {F(0)}
    for i in range(p.carrier.n):
        for j in range(p.carrier.n):
            d = F(p.carrier.d(i, j))
            values |= {d, d / 2, d / 4}
    out = set(values)
    for a in values:
        for b in values:
            if a > b:
                out |= {(a - b) / 2, (a - b) / 4}
    return sorted(out)


def test_extent_is_nondecreasing_in_radius():
    rng = random.Random(13)
    for _ in range(10):
        x = random_pointed_space(rng, 1, 3)
        y = random_pointed_space(rng, 1, 3)
        p = random_passage(rng, x, y)
        radii = sorted(F(rng.randint(1, 10), 2) for _ in range(3))
        vals = [extent(p, r) for r in radii]
        finite = [v for v in vals if not is_inf(v)]
        assert all(a <= b for a, b in zip(vals, vals[1:])) or not finite


def test_identity_passage_has_zero_extent_everywhere():
    x = pointed(line_space([F(0), F(1), F(3)]), 0)
    p = passage_from_isometry(x, x, range(x.n))
    for r in (F(1, 2), F(1), F(7)):
        assert extent(p, r) == 0


def test_inverse_swaps_sides_but_keeps_extent():
    rng = random.Random(17)
    for _ in range(10):
        x = random_pointed_space(rng, 1, 3)
        y = random_pointed_space(rng, 1, 3)
        p = random_passage(rng, x, y)
        q = inverse(p)
        assert q.domain == p.codomain
        assert inverse(q) == p
        assert q.kind == "metric" and q.glued.origin_x == p.glued.origin_y
        r = F(rng.randint(1, 5))
        assert extent(p, r) == extent(q, r)


def test_compact_collapse_extent_is_radius_free():
    rng = random.Random(19)
    for _ in range(10):
        x = random_pointed_space(rng, 1, 3)
        y = random_pointed_space(rng, 1, 3)
        p = random_passage(rng, x, y)
        base = max(diameter(x.space), diameter(y.space), F(1, 2))
        vals = {extent(p, base + extra) for extra in (F(0), F(1), F(7), F(50))}
        assert len(vals) == 1


def test_lift_bounds_match_the_vertex_oracle():
    rng = random.Random(29)
    done = 0
    while done < 25:
        p, r, eps, K = random_admissible_instance(rng, 3)
        if p.carrier.n > 7:
            continue
        l = F(rng.randint(1, 3), rng.choice((1, 2)))
        a = random_lip_function(rng, p.domain.space, p.domain.base, r, l)
        tb = lift_target_bounds(p, a, l, r, eps, K)
        assert tb.feasible
        pins = {z: F(0) for z in _zero_set(p, r, eps, frozenset(K), 0)}
        for i in range(p.domain.n):
            pins[p.embed_x[i]] = a(i)
        dist = [list(row) for row in p.carrier.dist]
        ok, lo, hi = oracles.lipschitz_hull_vertices(dist, l, pins)
        assert ok
        assert list(tb.lo) == lo and list(tb.hi) == hi
        assert tb.target_lo == tuple(lo[p.embed_y[j]] for j in range(p.codomain.n))
        assert tb.target_hi == tuple(hi[p.embed_y[j]] for j in range(p.codomain.n))
        done += 1


def test_lift_bounds_infeasible_when_k_zeroes_an_anchor():
    # X carries value 1 at its basepoint, but K leaves that point's image
    # out, so the zero region pins it to 0: an immediate conflict, on a
    # metric passage and on its composition with its inverse.  With K empty
    # every other carrier point is pinned to 0 too; with K all but that
    # image, no other point is pinned, so the conflict alone empties the set
    from ghlab import real_function

    p = one_point_pair(F(1, 8))
    composed = compose(p, inverse(p), F(1), F(25, 4), r=F(13), eps1=F(1, 8), eps2=F(1, 8))
    for q in (p, composed):
        a = real_function(q.domain.space, [F(1)])
        for K in (frozenset(), frozenset(range(q.carrier.n)) - {q.x0_host}):
            assert q.x0_host in _zero_set(q, F(1), F(1, 8), K, 0)
            with pytest.raises(Infeasible):
                lift_target_bounds(q, a, F(1), F(1), F(1, 8), K)
            tb = lift_target_bounds(q, a, F(1), F(1), F(1, 8), K, strict=False)
            assert not tb.feasible


def _composed(rng, depth):
    """A passage composed depth times over random 1-2 point spaces, as the
    composition suite builds one: each step at a radius that leaves room for
    the parts' smallest admissible tolerances.  Returns (passage, t, eps)
    with eps the certified budget at radius t."""
    spaces = [random_pointed_space(rng, 1, 2) for _ in range(depth + 2)]
    p = random_passage(rng, spaces[0], spaces[1])
    for k in range(1, depth + 1):
        q = random_passage(rng, spaces[k], spaces[k + 1])
        big = max(max(row) for part in (p, q) for row in part.carrier.dist)
        R = 12 * max(F(1), big) + 1
        e1, e2 = smallest_admissible(p, R), smallest_admissible(q, R)
        t = (R - 4 * max(e1, e2)) / 2
        alpha = rng.choice((F(1, 8), F(1, 4), F(1)))
        p = compose(p, q, alpha, t, r=R, eps1=e1, eps2=e2)
    return p, t, e1 + e2 + alpha


def test_composed_lift_bounds_match_the_lp_oracle():
    # the McShane envelope on a composed carrier against an LP over the
    # composed seminorm's functionals, built from the legs by definition, on
    # the witness family and on random K, once and twice composed
    rng = random.Random(3)
    outcomes = []
    for case in range(8):
        depth = 2 if case % 4 == 3 else 1
        p, t, eps = _composed(rng, depth)
        r = rng.choice((t, F(rng.randint(1, 8), 2)))
        l = F(rng.randint(1, 3), rng.choice((1, 2)))
        a = random_lip_function(rng, p.domain.space, p.domain.base, r, l)
        if case % 2:
            K = frozenset(z for z in range(p.carrier.n) if rng.random() < 0.7)
        else:
            K = composed_k_family(p)(r)
        tb = lift_target_bounds(p, a, l, r, eps, K, strict=False)
        pins = {z: F(0) for z in _zero_set(p, r, eps, K, 0)}
        clash = any(pins.get(h, a(i)) != a(i) for i, h in enumerate(p.embed_x))
        pins.update((h, a(i)) for i, h in enumerate(p.embed_x))
        ok, lo, hi = (False, None, None) if clash else oracles.lift_bounds_lp(oracles.composed_seminorm(p), l, pins)
        assert tb.feasible == ok
        if ok:
            assert list(tb.lo) == lo and list(tb.hi) == hi
            assert tb.target_lo == tuple(lo[h] for h in p.embed_y)
            assert tb.target_hi == tuple(hi[h] for h in p.embed_y)
            values = tb.lo + tb.hi + tuple(lo) + tuple(hi)
            assert not any(isinstance(v, float) for v in values)
        outcomes.append((depth, ok, clash))
    assert (2, True, False) in outcomes  # a twice composed passage with a lift
    assert any(not ok and not clash for _, ok, clash in outcomes)  # the LP finds it empty


def test_fundamental_report_on_random_admissible_instances():
    rng = random.Random(31)
    done = 0
    while done < 30:
        p, r, eps, K = random_admissible_instance(rng, 3)
        l = F(rng.randint(1, 2))
        a = random_lip_function(rng, p.domain.space, p.domain.base, r, l)
        b = random_lip_function(rng, p.domain.space, p.domain.base, r, l)
        t = F(rng.randint(-2, 2), rng.choice((1, 2)))
        rep = verify_fundamental(p, a, b, l, r, eps, K, t)
        assert rep.norm_ok and rep.linearity_ok and rep.diameter_ok
        assert rep.jordan_ok
        assert rep.diameter_value <= 2 * l * eps
        done += 1


def test_one_point_instance_saturates_the_diameter_bound():
    from ghlab import real_function

    eps = F(1, 3)
    p = one_point_pair(eps)
    l = F(2)
    a = real_function(p.domain.space, [F(0)])
    rep = verify_fundamental(p, a, a, l, F(1), eps, frozenset({0, 1}), F(1))
    assert rep.diameter_ok
    assert rep.diameter_value == 2 * l * eps


def test_composition_certificate_and_extent_bound():
    rng = random.Random(37)
    done = 0
    while done < 8:
        x = random_pointed_space(rng, 1, 3)
        y = random_pointed_space(rng, 1, 3)
        z = random_pointed_space(rng, 1, 3)
        p1 = random_passage(rng, x, y)
        p2 = random_passage(rng, y, z)
        t = F(rng.randint(1, 3))
        r = 2 * t
        e1, e2 = smallest_admissible(p1, r), smallest_admissible(p2, r)
        if e1 is None or e2 is None or not t + 4 * max(e1, e2) < r:
            continue
        alpha = F(1, rng.randint(2, 5))
        comp = compose(p1, p2, alpha, t, r=r, eps1=e1, eps2=e2)
        assert comp.kind == "composed" and comp.glued is None
        assert inverse(comp).kind == "composed" and inverse(comp).glued is None
        budgeted = e1 + e2 + alpha
        ok, cert = check_admissible(comp, t, budgeted)
        assert ok and cert["family"] == "composed-union"
        assert extent(comp, t) <= budgeted
        done += 1


def test_composition_rejects_radius_gaps_and_mismatches():
    x = pointed(line_space([F(0), F(4)]), 0)
    y = pointed(line_space([F(0), F(4)]), 0)
    p = random_passage(random.Random(1), x, y)
    with pytest.raises(RadiusConditionViolated):
        compose(p, inverse(p), F(1), F(10), r=F(11), eps1=F(3), eps2=F(3))
    z = pointed(line_space([F(0), F(1)]), 0)
    q = random_passage(random.Random(2), z, z)
    with pytest.raises(DomainMismatch):
        compose(p, q, F(1), F(1), r=F(3), eps1=F(1, 4), eps2=F(1, 4))


def test_existence_tunnel_cases():
    # collapse case: radius at or above both diameters
    x = pointed(line_space([F(0), F(1)]), 0)
    y = pointed(line_space([F(0), F(2)]), 0)
    p = existence_tunnel(x, y, F(2))
    assert not is_inf(extent(p, F(2)))
    # band case: radius strictly below both diameters
    x2 = pointed(line_space([F(0), F(1), F(6)]), 0)
    y2 = pointed(line_space([F(0), F(2), F(7)]), 0)
    p2 = existence_tunnel(x2, y2, F(3))
    assert p2.kind == "composed" and p2.glued is None
    assert not is_inf(extent(p2, F(3)))
    # the uncovered middle band errors
    with pytest.raises(RadiusGap):
        existence_tunnel(x, y, F(3, 2))


def _json_pointed(rows, base):
    return pointed_from_json({"points": [str(i) for i in range(len(rows))], "dist": rows,
                              "basepoint": base})


@pytest.mark.parametrize(
    "x_rows, x_base, y_rows, y_base, r, value, won_by",
    [
        # seeded draws (random.Random(5), 1-3 point pairs, r = a/b with a in
        # 1..12 and b in 1..4), tries 103 and 742
        ([[0, "3/2"], ["3/2", 0]], 1, [[0, 12, 10], [12, 0, "5/2"], [10, "5/2", 0]], 1,
         F(1, 2), F(5, 2), "existence"),
        ([[0, 1], [1, 0]], 0, [[0, 1, 3], [1, 0, 2], [3, 2, 0]], 1, F(3, 4), 0, "refined"),
    ],
)
def test_local_propinquity_wins_beyond_the_gluing_passages(
    x_rows, x_base, y_rows, y_base, r, value, won_by
):
    x, y = _json_pointed(x_rows, x_base), _json_pointed(y_rows, y_base)
    val, witness = local_propinquity(x, y, r)
    assert val == value == extent(witness, r)
    streamed = list(tunnels._gluing_passages(x, y, "exact", 12, 0, 64, lambda: INF))
    assert all(val < extent(p, r) for p in streamed)
    assert all(witness.carrier != p.carrier for p in streamed)
    if won_by == "existence":
        assert witness.carrier == existence_tunnel(x, y, r).carrier
    else:
        refined = [passage_from_gluing(refine_gluing_cross(p.glued)) for p in streamed]
        assert witness in refined


def test_propinquity_isometric_pair_hits_the_floor():
    x = pointed(line_space([F(0), F(1), F(3)]), 0)
    relabeled = pointed(
        validate_metric(("u", "v", "w"), [list(r) for r in x.space.dist]), 0
    )
    lo, raw = propinquity_bracket(x, relabeled)
    assert lo == raw == 0 and truncate_floor(raw) == SQRT2_OVER_4


def test_propinquity_bracket_orders_and_certifies():
    x = pointed(line_space([F(0), F(1)]), 0)
    y = pointed(line_space([F(0), F(5)]), 0)
    lo, hi = propinquity_bracket(x, y, iters=30)
    assert 0 <= lo <= hi
    assert hi > 0
    val, witness = local_propinquity(x, y, F(1) / hi)
    assert val < hi  # hi is certified by some passage beating it at radius 1/hi


def test_brackets_and_local_propinquity_answer_at_a_negative_tol():
    # refine_gluing_cross validates its host at max(tol, 0): a negative tol
    # would reject the trivial triple d(x, x) <= d(x, x) + d(x, x)
    tol = F(-1, 10)
    x = pointed(line_space([F(0)]), 0)
    y = pointed(validate_metric(("0", "1"), [[0, 2], [2, 0]]), 0)
    lo, hi = propinquity_bracket(x, y, tol=tol)
    assert (lo, hi) == (F(659706976665, 549755813888), F(329853488333, 274877906944))
    assert hi > propinquity_bracket(x, y)[1]  # a negative tol asks for more
    assert local_propinquity(x, y, 1 / hi, tol=tol)[0] < hi
    assert local_propinquity(x, y, F(1), tol=tol)[0] == 1
    glued = tunnels._gluing_passages(x, y, "exact", 12, 0, 64, lambda: INF).__next__().glued
    assert refine_gluing_cross(glued, tol=tol).host == refine_gluing_cross(glued).host
    rng = random.Random(67)
    for _ in range(12):
        a, b = random_pointed_space(rng, 1, 3), random_pointed_space(rng, 1, 2)
        lo, hi = propinquity_bracket(a, b, tol=tol)
        assert 0 <= lo <= hi
        assert local_propinquity(a, b, F(rng.randint(1, 8), 2), tol=tol)[0] >= 0


def test_propinquity_bracket_skips_a_passage_that_fails_at_the_running_upper_end(monkeypatch):
    x = pointed_from_json({"points": ["0", "1"], "dist": [[0, 4], [4, 0]], "basepoint": 0})
    y = pointed_from_json({
        "points": ["0", "1", "2"],
        "dist": [[0, "9/2", "5/2"], ["9/2", 0, 2], ["5/2", 2, 0]],
        "basepoint": 0,
    })
    streamed, answers = [], {}
    gluing_passages, passage_pred = tunnels._gluing_passages, tunnels._passage_pred

    def recorded_stream(*args):
        for p in gluing_passages(*args):
            streamed.append(p)
            yield p

    def recorded_pred(p, tol):
        pred, seen = passage_pred(p, tol), answers.setdefault(id(p), [])

        def wrapped(e):
            seen.append(pred(e))
            return seen[-1]

        return wrapped

    monkeypatch.setattr(tunnels, "_gluing_passages", recorded_stream)
    monkeypatch.setattr(tunnels, "_passage_pred", recorded_pred)
    assert propinquity_bracket(x, y) == (F(5, 4), F(687194767361, 549755813888))
    # a later streamed passage is asked once, at the upper end, and dropped
    assert any(answers[id(p)] == [False] for p in streamed[1:])


def test_passage_json_round_trip_for_metric_passages():
    rng = random.Random(41)
    x = random_pointed_space(rng, 2, 3)
    y = random_pointed_space(rng, 2, 3)
    p = random_passage(rng, x, y)
    assert p.kind == "metric" and passage_from_gluing(p.glued) == p
    g = random_glued(rng)
    assert passage_from_gluing(g).glued == g
    back = passage_from_json({"gluing": glued_to_json(p.glued)})
    assert back.carrier.dist == p.carrier.dist
    assert back.embed_x == p.embed_x and back.embed_y == p.embed_y
    r = F(2)
    assert extent(back, r) == extent(p, r)


def test_isometry_passage_requires_a_real_isometry():
    x = pointed(line_space([F(0), F(1)]), 0)
    y = pointed(line_space([F(0), F(1)]), 0)
    p = passage_from_isometry(x, y, (0, 1))
    assert extent(p, F(5)) == 0
    assert p.glued.host == x.space and p.glued.origin_y == y
    z = pointed(line_space([F(0), F(2)]), 0)
    with pytest.raises(MetricError):
        passage_from_isometry(x, z, (0, 1))


def test_tau_bisect_matches_the_halving_loop_in_value_and_type():
    # the int-numerator loop must hand every predicate the midpoints, and
    # return the ends, that halving the sum of the ends gives: an int while
    # both ends are ints and the sum is even, a Fraction otherwise
    rng = random.Random(19)
    his = [1, 2, 3, 8, 12, F(1, 3), F(5, 4), F(7), F(2**40 + 1, 2**41), 0.75, 1.0, 6.5]
    his += [F(rng.randint(1, 99), rng.randint(1, 40)) for _ in range(3)]
    for hi in his:
        thresholds = [F(0), F(rng.randint(0, 99), rng.randint(1, 50)), F(hi) / 3, F(hi) / 2 ** 20]
        preds = [lambda e, t=t: e > t for t in thresholds] + [lambda e: True, lambda e: False]
        for pred in preds:
            for iters in range(46):
                seen, ref_seen = [], []

                def recorded(e, log):
                    log.append((type(e), e))
                    return pred(e)

                got = tunnels._tau_bisect(lambda e: recorded(e, seen), hi, iters)
                want = oracles.tau_bisect_reference(lambda e: recorded(e, ref_seen), hi, iters)
                assert [(type(v), v) for v in got] == [(type(v), v) for v in want], (hi, iters)
                assert seen == ref_seen, (hi, iters)


def test_bracket_keeps_its_long_dyadic_ends_exact():
    # every bisection that lowers the upper end halves from the running dyadic
    # hi, so the ends here carry denominators of 2^157 and 2^158
    x = pointed(line_space([F(0), F(1)]), 0)
    y = pointed(line_space([F(0), F(1), F(3)]), 1)
    lo, hi = propinquity_bracket(x, y)
    assert type(lo) is F and lo == F(182687704666224403525898970146046456145990298283, 2**157)
    assert type(hi) is F and hi == F(365375409332781114050744521863682917682511522475, 2**158)
