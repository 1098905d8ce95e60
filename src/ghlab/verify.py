"""Seeded property suites for the verification harness.

Each suite replays a family of theorem statements on randomly generated
instances (exact rational arithmetic throughout) and reports per-theorem
case counts with a first counterexample when one exists.  The generators
are public so test code can drive them at larger case counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .gluing import (
    correspondence,
    correspondence_distortion,
    glue_from_correspondence,
)
from .lipschitz import lip_constant, real_function
from .local_gh import delta_r, delta_r_equivalents, gh_inframetric
from .metric_core import (
    MetricError,
    PointedSpace,
    min_plus_closure,
    pointed,
    space_to_json,
    validate_metric,
)
from .numerics import Scalar, format_scalar
from .tunnels import (
    check_admissible,
    compose,
    extent,
    inverse,
    k_family,
    lift_target_bounds,
    local_propinquity,
    passage_from_gluing,
    smallest_admissible,
    verify_fundamental,
)

SUITES = ("fundamental", "composition", "inframetric")
# far above every suite's default count (25-60); a larger count would run
# for as long as it asks
MAX_CASES = 10_000


@dataclass(frozen=True)
class TheoremResult:
    theorem: str
    cases: int
    failures: int
    counterexample: dict | None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "cases": self.cases,
            "failures": self.failures,
            "counterexample": self.counterexample,
        }


def random_pointed_space(rng: random.Random, n_min: int = 1, n_max: int = 4) -> PointedSpace:
    """Random strictly positive rational metric via min-plus repair."""
    n = rng.randint(n_min, n_max)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = Fraction(rng.randint(1, 12), rng.choice((1, 2, 3)))
    space = validate_metric(tuple(str(i) for i in range(n)), min_plus_closure(rows))
    return pointed(space, rng.randrange(n))


def random_correspondence(rng: random.Random, nx: int, ny: int):
    pairs = {(i, rng.randrange(ny)) for i in range(nx)}
    pairs |= {(rng.randrange(nx), j) for j in range(ny)}
    for _ in range(rng.randint(0, nx * ny // 2)):
        pairs.add((rng.randrange(nx), rng.randrange(ny)))
    return correspondence(pairs, nx, ny)


def random_passage(rng: random.Random, x: PointedSpace, y: PointedSpace):
    rel = random_correspondence(rng, x.n, y.n)
    dis = correspondence_distortion(rel, x.space, y.space)
    if dis > 0:
        eta = rng.choice((Fraction(dis, 2), dis, 2 * dis))
    else:
        eta = Fraction(1, rng.randint(1, 4))
    return passage_from_gluing(glue_from_correspondence(x, y, rel, eta))


def random_lip_function(rng: random.Random, space, base: int, r: Scalar, l: Scalar):
    """Difference of basepoint bumps rescaled into Lipschitz bound l;
    vanishes outside ball(base, r) by construction."""

    def bump() -> list:
        t0 = min(r, Fraction(rng.randint(1, max(1, int(2 * r))), 2))
        s = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
        return [s * max(Fraction(0), t0 - space.d(base, i)) for i in range(space.n)]

    b1, b2 = bump(), bump()
    vals = [v1 - v2 for v1, v2 in zip(b1, b2)]
    f = real_function(space, vals)
    big = lip_constant(f)
    if big > l:
        f = real_function(space, [v * Fraction(l) / Fraction(big) for v in vals])
    return f


def random_admissible_instance(rng: random.Random, n_max: int = 4):
    """(passage, r, eps, K) with eps an attained admissible tolerance and K
    the canonical compact at radius r."""
    x = random_pointed_space(rng, 1, n_max)
    y = random_pointed_space(rng, 1, n_max)
    p = random_passage(rng, x, y)
    r = Fraction(rng.randint(1, 8), rng.choice((1, 2)))
    eps = smallest_admissible(p, r)
    K = frozenset(k_family(p, eps)(r))
    return p, r, eps, K


def _instance_json(p, r, eps, extra=None) -> dict:
    out = {
        "domain": space_to_json(p.domain.space, p.domain.base),
        "codomain": space_to_json(p.codomain.space, p.codomain.base),
        "r": format_scalar(r),
        "eps": format_scalar(eps),
    }
    if extra:
        out.update(extra)
    return out


class _Tally:
    def __init__(self, names: tuple):
        self.names = names
        self.fails = {name: 0 for name in names}
        self.examples: dict = {name: None for name in names}

    def record(self, name: str, ok: bool, example: dict) -> None:
        if not ok:
            self.fails[name] += 1
            if self.examples[name] is None:
                self.examples[name] = example

    def results(self, cases: int) -> list:
        return [
            TheoremResult(name, cases, self.fails[name], self.examples[name])
            for name in self.names
        ]


def suite_fundamental(rng: random.Random, cases: int = 60) -> list:
    """Lift-set guarantees of admissible tunnels, plus the inversion remark:
    the upper target restriction lifts back through the inverse passage at
    radius r + 4*eps and brackets the original function."""
    tally = _Tally(
        (
            "target-norm-bound",
            "lift-linearity",
            "target-diameter",
            "jordan-product",
            "target-inversion",
        )
    )
    for _ in range(cases):
        p, r, eps, K = random_admissible_instance(rng)
        l = rng.choice((Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)))
        X = p.domain.space
        a = random_lip_function(rng, X, p.domain.base, r, l)
        a2 = random_lip_function(rng, X, p.domain.base, r, l)
        t = Fraction(rng.randint(-4, 4), 2)
        example = _instance_json(p, r, eps, {"l": format_scalar(l), "t": format_scalar(t)})
        rep = verify_fundamental(p, a, a2, l, r, eps, K, t)
        tally.record("target-norm-bound", rep.norm_ok, example)
        tally.record("lift-linearity", rep.linearity_ok, example)
        tally.record("target-diameter", rep.diameter_ok, example)
        tally.record("jordan-product", rep.jordan_ok, example)
        tb = lift_target_bounds(p, a, l, r, eps, K)
        b = real_function(p.codomain.space, tb.target_hi)
        tbi = lift_target_bounds(inverse(p), b, l, r + 4 * eps, eps, K, strict=False)
        inv_ok = tbi.feasible and all(
            tbi.target_lo[i] <= a(i) <= tbi.target_hi[i] for i in range(X.n)
        )
        tally.record("target-inversion", inv_ok, example)
    return tally.results(cases)


def suite_composition(rng: random.Random, cases: int = 25) -> list:
    """Bridged composition: certificate and extent bound at eps1+eps2+alpha
    for random composable pairs, and the local triangle inequality realized
    through composition of propinquity witness passages."""
    tally = _Tally(
        ("composition-certificate", "composition-extent-bound", "triangle-composition-witness")
    )
    for _ in range(cases):
        a = random_pointed_space(rng, 1, 3)
        d = random_pointed_space(rng, 1, 3)
        b = random_pointed_space(rng, 1, 3)
        alpha = rng.choice((Fraction(1, 8), Fraction(1, 4), Fraction(1)))
        # carrier diameters never exceed 3*(diam+diam), so this radius
        # always satisfies the composition condition with room to spare
        big = 3 * max(
            p.space.d(i, j) for p in (a, d, b) for i in range(p.n) for j in range(p.n)
        )
        R = 12 * max(Fraction(1), big) + 1

        p1 = random_passage(rng, a, d)
        p2 = random_passage(rng, d, b)
        e1 = smallest_admissible(p1, R)
        e2 = smallest_admissible(p2, R)
        t = (R - 4 * max(e1, e2)) / 2
        pc = compose(p1, p2, alpha, t, r=R, eps1=e1, eps2=e2)
        bound = e1 + e2 + alpha
        example = _instance_json(pc, t, bound, {"alpha": format_scalar(alpha)})
        ok, _ = check_admissible(pc, t, bound)
        tally.record("composition-certificate", ok, example)
        tally.record("composition-extent-bound", extent(pc, t) <= bound, example)

        lam1, w1 = local_propinquity(a, d, R, budget=16)
        lam2, w2 = local_propinquity(d, b, R, budget=16)
        f1 = smallest_admissible(w1, R)
        f2 = smallest_admissible(w2, R)
        tw = (R - 4 * max(f1, f2)) / 2
        wc = compose(w1, w2, alpha, tw, r=R, eps1=f1, eps2=f2)
        ok_w, _ = check_admissible(wc, tw, f1 + f2 + alpha)
        tri_ok = ok_w and lam1 <= f1 and lam2 <= f2
        tally.record(
            "triangle-composition-witness",
            tri_ok,
            _instance_json(wc, tw, f1 + f2 + alpha, {"alpha": format_scalar(alpha)}),
        )
    return tally.results(cases)


def suite_inframetric(rng: random.Random, cases: int = 60) -> list:
    """Local-distance route agreement, the four-assertion threshold at the
    computed delta, inframetric symmetry, the witness's threshold, and raw
    zero on identical spaces.

    Witness threshold: the witness W of ``gh_inframetric`` glues one
    correspondence at eta = dis/2, so its delta profile is constant at its
    basepoint gap g (``local_gh``'s docstring), and inf{t : delta_{1/t}(W)
    < t} is g, which is raw at slack 0.  So delta_{1/t}(W) at any t > 0, here
    the truncated value, must equal raw: the sup formula on W's host against
    the gap the search read off the stream without gluing.  (The truncated
    value itself is max(raw, 1/2) by definition, so it is not checked.)"""
    tally = _Tally(
        (
            "delta-route-agreement",
            "delta-equivalents-threshold",
            "inframetric-symmetry",
            "witness-threshold",
            "isometric-raw-zero",
        )
    )
    for _ in range(cases):
        x = random_pointed_space(rng, 1, 3)
        y = random_pointed_space(rng, 1, 3)
        p = random_passage(rng, x, y)
        g = p.glued
        r = Fraction(rng.randint(1, 10), 2)
        example = _instance_json(p, r, 0)
        try:
            d = delta_r(g, r, strict=True)
            agree = True
        except RuntimeError:
            agree = False
            d = delta_r(g, r)
        tally.record("delta-route-agreement", agree, example)
        probe = d if d > 0 else Fraction(1, 2)
        eq_hi = delta_r_equivalents(g, r, probe)
        thr_ok = eq_hi.consistent and eq_hi.assertion1
        if d > 0:
            eq_lo = delta_r_equivalents(g, r, Fraction(d, 2))
            thr_ok = thr_ok and eq_lo.consistent and not eq_lo.assertion1
        tally.record(
            "delta-equivalents-threshold",
            thr_ok,
            _instance_json(p, r, d),
        )
        res_xy = gh_inframetric(x, y, budget=16)
        res_yx = gh_inframetric(y, x, budget=16)
        sym_ok = res_xy.raw == res_yx.raw and res_xy.truncated == res_yx.truncated
        tally.record(
            "inframetric-symmetry",
            sym_ok,
            {"xy": format_scalar(res_xy.raw), "yx": format_scalar(res_yx.raw)},
        )
        witness_ok = delta_r(res_xy.witness, 1 / res_xy.truncated) == res_xy.raw
        tally.record("witness-threshold", witness_ok, {"raw": format_scalar(res_xy.raw)})
        self_res = gh_inframetric(x, x, budget=16)
        self_ok = self_res.raw == 0 and self_res.truncated == Fraction(1, 2)
        tally.record("isometric-raw-zero", self_ok, {"raw": format_scalar(self_res.raw)})
    return tally.results(cases)


_SUITE_FNS = {
    "fundamental": suite_fundamental,
    "composition": suite_composition,
    "inframetric": suite_inframetric,
}


def run_suite(name: str, seed: int = 0, cases: int | None = None) -> list:
    """Run one named suite, or all of them in canonical order."""
    if name != "all" and name not in _SUITE_FNS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
    if cases is not None and not 1 <= cases <= MAX_CASES:
        # a theorem checked on no case has not been checked
        raise MetricError(f"cases must be from 1 to {MAX_CASES}, got {cases}")
    picked = SUITES if name == "all" else (name,)
    results = []
    for suite in picked:
        rng = random.Random(seed)
        fn = _SUITE_FNS[suite]
        results.extend(fn(rng, cases) if cases is not None else fn(rng))
    return results
