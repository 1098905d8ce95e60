"""Local Gromov-Hausdorff quantities on gluings and the classical inframetric.

delta_r is computed by three intentionally independent routes: the direct
sup formula, a candidate-breakpoint scan of the definition predicate, and
a candidate scan of the inflated-ball predicate.  They must agree; strict
mode asserts it, and the test suite compares them wholesale.

The searches (``Delta_r``, ``gh_inframetric``) are branch and bound: the
correspondence stream skips every correspondence whose basepoint-gap lower
bound cannot beat the best value so far, so an exact search still returns
the family minimum, with the witness a full enumeration would pick.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .gluing import (
    GluedSpace,
    correspondence_stream,
    glue_from_correspondence,
)
from .metric_core import (
    BudgetExceeded,
    FiniteMetricSpace,
    MetricError,
    PointedSpace,
    dist_to_set,
    eps_contained,
    validate_metric,
)
from .numerics import INF, Scalar, half as _half, is_inf, leq


class NonPositiveRadius(MetricError):
    pass


def _inv(v: Scalar) -> Scalar:
    if is_inf(v):
        return 0
    return 1 / v if isinstance(v, float) else Fraction(1) / Fraction(v)


def _ball_x(glued: GluedSpace, r: Scalar, tol: Scalar = 0) -> list:
    host, x0 = glued.host, glued.x0_host
    return [h for h in glued.embed_x if leq(host.d(x0, h), r, tol)]


def _ball_y(glued: GluedSpace, r: Scalar, tol: Scalar = 0) -> list:
    host, y0 = glued.host, glued.y0_host
    return [h for h in glued.embed_y if leq(host.d(y0, h), r, tol)]


def delta_candidates(glued: GluedSpace, r: Scalar) -> list:
    """Breakpoints where either feasibility predicate can change."""
    host = glued.host
    values = {0, host.d(glued.x0_host, glued.y0_host)}
    for i in range(host.n):
        for j in range(i + 1, host.n):
            values.add(host.d(i, j))
    for c in (glued.x0_host, glued.y0_host):
        for q in range(host.n):
            gap = host.d(c, q) - r
            if gap >= 0:
                values.add(_half(gap))
    return sorted(values)


def _def_feasible(glued: GluedSpace, r: Scalar, eps: Scalar, tol: Scalar = 0) -> bool:
    host = glued.host
    if not leq(host.d(glued.x0_host, glued.y0_host), eps, tol):
        return False
    if not eps_contained(host, _ball_x(glued, r, tol), glued.embed_y, eps, tol):
        return False
    return eps_contained(host, _ball_y(glued, r, tol), glued.embed_x, eps, tol)


def _alt_feasible(glued: GluedSpace, r: Scalar, eps: Scalar, tol: Scalar = 0) -> bool:
    host = glued.host
    if not leq(host.d(glued.x0_host, glued.y0_host), eps, tol):
        return False
    if not eps_contained(host, _ball_x(glued, r, tol), _ball_y(glued, r + 2 * eps, tol), eps, tol):
        return False
    return eps_contained(host, _ball_y(glued, r, tol), _ball_x(glued, r + 2 * eps, tol), eps, tol)


def delta_r(glued: GluedSpace, r: Scalar, strict: bool = False, tol: Scalar = 0) -> Scalar:
    """Smallest eps with basepoints within eps and r-balls eps-inside the
    other copy; candidate-breakpoint scan (the predicate is monotone)."""
    if r <= 0:
        raise NonPositiveRadius(f"radius must be positive, got {r}")
    value = None
    for eps in delta_candidates(glued, r):
        if _def_feasible(glued, r, eps, tol):
            value = eps
            break
    if value is None:
        raise RuntimeError("no feasible candidate; the host diameter should be one")
    if strict:
        sup_form = delta_r_def_form(glued, r, tol)
        alt_form = delta_r_alt_form(glued, r, tol)
        if not (value == sup_form == alt_form):
            raise RuntimeError(
                f"delta_r routes disagree: scan {value}, sup {sup_form}, inflated {alt_form}"
            )
    return value


def delta_r_def_form(glued: GluedSpace, r: Scalar, tol: Scalar = 0) -> Scalar:
    """The attained sup formula for the definition predicate."""
    if r <= 0:
        raise NonPositiveRadius(f"radius must be positive, got {r}")
    host = glued.host
    parts = [host.d(glued.x0_host, glued.y0_host)]
    parts.extend(dist_to_set(host, h, glued.embed_y) for h in _ball_x(glued, r, tol))
    parts.extend(dist_to_set(host, h, glued.embed_x) for h in _ball_y(glued, r, tol))
    return max(parts)


def delta_r_alt_form(glued: GluedSpace, r: Scalar, tol: Scalar = 0) -> Scalar:
    """Candidate scan of the inflated-ball predicate (balls of radius r+2eps)."""
    if r <= 0:
        raise NonPositiveRadius(f"radius must be positive, got {r}")
    for eps in delta_candidates(glued, r):
        if _alt_feasible(glued, r, eps, tol):
            return eps
    raise RuntimeError("no feasible candidate; the host diameter should be one")


@dataclass(frozen=True)
class EquivalenceReport:
    eps: Scalar
    assertion1: bool
    assertion2: bool
    assertion3: bool
    assertion4: bool
    K: frozenset
    Q: frozenset

    @property
    def consistent(self) -> bool:
        return self.assertion1 == self.assertion2 == self.assertion3 == self.assertion4


def delta_r_equivalents(
    glued: GluedSpace, r: Scalar, eps: Scalar, tol: Scalar = 0
) -> EquivalenceReport:
    """Evaluate the four equivalent closeness assertions at tolerance eps.

    The witness compacts are the canonical ones: K collects Y-points within
    eps of the X-ball and Q symmetrically; the equivalence proof shows any
    witness can be replaced by these.
    """
    if r <= 0:
        raise NonPositiveRadius(f"radius must be positive, got {r}")
    host = glued.host
    ball_x = _ball_x(glued, r, tol)
    ball_y = _ball_y(glued, r, tol)
    K = frozenset(h for h in glued.embed_y if leq(dist_to_set(host, h, ball_x), eps, tol))
    Q = frozenset(h for h in glued.embed_x if leq(dist_to_set(host, h, ball_y), eps, tol))
    base_ok = leq(host.d(glued.x0_host, glued.y0_host), eps, tol)

    def haus_le(a, b) -> bool:
        return eps_contained(host, a, b, eps, tol) and eps_contained(host, b, a, eps, tol)

    upper_k = set(_ball_y(glued, r + 2 * eps, tol))
    upper_q = set(_ball_x(glued, r + 2 * eps, tol))
    lower_k = set(_ball_y(glued, r - 2 * eps, tol))
    lower_q = set(_ball_x(glued, r - 2 * eps, tol))
    hausdorff_ok = haus_le(ball_x, K) and haus_le(Q, ball_y)
    a1 = _def_feasible(glued, r, eps, tol)
    a2 = (
        lower_q <= Q <= upper_q
        and lower_k <= K <= upper_k
        and hausdorff_ok
        and base_ok
    )
    a3 = Q <= upper_q and K <= upper_k and hausdorff_ok and base_ok
    a4 = hausdorff_ok and base_ok
    return EquivalenceReport(
        eps=eps, assertion1=a1, assertion2=a2, assertion3=a3, assertion4=a4, K=K, Q=Q
    )


def refine_gluing_cross(glued: GluedSpace, steps: int = 2, tol: Scalar = 0) -> GluedSpace:
    """Lower cross distances toward their triangle lower bounds.

    delta_r is nonincreasing in every cross entry, so each sweep can only
    improve the gluing while keeping both embeddings isometric.
    """
    host = glued.host
    rows = [list(row) for row in host.dist]
    n = host.n
    x_only = [h for h in glued.embed_x if h not in set(glued.embed_y)]
    y_only = [h for h in glued.embed_y if h not in set(glued.embed_x)]
    for _ in range(max(steps, 0)):
        changed = False
        for i in x_only:
            for j in y_only:
                gaps = [abs(rows[i][k] - rows[k][j]) for k in range(n) if k != i and k != j]
                lower = max(gaps) if gaps else 0
                if lower < rows[i][j]:
                    rows[i][j] = lower
                    rows[j][i] = lower
                    changed = True
        if not changed:
            break
    new_host = validate_metric(host.points, rows, tol=tol)
    return GluedSpace(
        host=new_host,
        embed_x=glued.embed_x,
        embed_y=glued.embed_y,
        origin_x=glued.origin_x,
        origin_y=glued.origin_y,
    )


def Delta_r(
    x: PointedSpace,
    y: PointedSpace,
    r: Scalar,
    search: str = "exact",
    budget: int = 12,
    seed: int = 0,
    samples: int = 64,
    refine_steps: int = 2,
    tol: Scalar = 0,
):
    """Best delta_r over correspondence gluings plus coordinate-descent
    refinement of the winner; returns (value, witness gluing).

    The unrestricted infimum ranges over all isometric embeddings, so the
    result is a certified upper bound; ties break by the lexicographically
    smallest correspondence encoding.  The search prunes correspondences
    whose basepoint gap exceeds the best value (delta_r is at least that
    gap), and still returns the family minimum with the same witness.
    """
    if r <= 0:
        raise NonPositiveRadius(f"radius must be positive, got {r}")
    best = None

    def prune(lower: Scalar) -> bool:
        # strict, so a tie can still win on the smaller encoding; a feasible
        # eps has d(x0, y0) <= eps + tol, so tol keeps float mode sound
        return best is not None and lower > best[0] + tol

    for rel in correspondence_stream(x, y, search, budget, seed, samples, prune):
        glued = glue_from_correspondence(x, y, rel)
        value = delta_r(glued, r, tol=tol)
        key = (value, rel.pairs)
        if best is None or key < (best[0], best[2]):
            best = (value, glued, rel.pairs)
    if best is None:
        raise MetricError("no gluing was generated")
    value, glued, _ = best
    refined = refine_gluing_cross(glued, steps=refine_steps, tol=tol)
    refined_value = delta_r(refined, r, tol=tol)
    if refined_value < value:
        return refined_value, refined
    return value, glued


def _delta_steps(glued: GluedSpace) -> list:
    """Step profile of delta over the radius: [(radius, value)] with the
    value holding on [radius_k, radius_{k+1})."""
    host = glued.host
    x0, y0 = glued.x0_host, glued.y0_host
    b0 = host.d(x0, y0)
    xs = sorted((host.d(x0, h), dist_to_set(host, h, glued.embed_y)) for h in glued.embed_x)
    ys = sorted((host.d(y0, h), dist_to_set(host, h, glued.embed_x)) for h in glued.embed_y)
    radii = sorted({0} | {d for d, _ in xs} | {d for d, _ in ys})
    steps = []
    ix = iy = 0
    vx = vy = 0
    for a in radii:
        while ix < len(xs) and xs[ix][0] <= a:
            vx = max(vx, xs[ix][1])
            ix += 1
        while iy < len(ys) and ys[iy][0] <= a:
            vy = max(vy, ys[iy][1])
            iy += 1
        steps.append((a, max(b0, vx, vy)))
    return steps


def _threshold_sup(glued: GluedSpace, slack: Scalar) -> Scalar:
    """sup of radii t with delta(t) + slack < 1/t; INF when unbounded."""
    steps = _delta_steps(glued)
    t_best: Scalar = 0
    for k, (a, v) in enumerate(steps):
        b = steps[k + 1][0] if k + 1 < len(steps) else INF
        lim = v + slack
        bound = INF if lim <= 0 else _inv(lim)
        if bound > a:
            cand = min(b, bound)
            if cand > t_best:
                t_best = cand
    return t_best


@dataclass(frozen=True)
class InframetricResult:
    raw: Scalar
    truncated: Scalar
    witness: GluedSpace | None
    search: str
    certificate: str


def gh_inframetric(
    x: PointedSpace,
    y: PointedSpace,
    search: str = "exact",
    budget: int = 12,
    seed: int = 0,
    samples: int = 64,
    slack: Scalar = 0,
    extra_gluings=(),
    tol: Scalar = 0,
) -> InframetricResult:
    """max(inf{r : Delta_{1/r} < r}, 1/2) over the searched gluing family.

    The raw threshold is computed exactly from the per-gluing step profiles
    (the limit the textbook bisection converges to); `truncated` applies
    the 1/2 floor.  The stream drops correspondences whose basepoint gap
    already reaches the current best, without building their gluings.
    """
    best_raw: Scalar = INF
    witness = None
    for extra in extra_gluings:
        t_star = _threshold_sup(extra, slack)
        raw_g = 0 if is_inf(t_star) else _inv(t_star)
        if raw_g < best_raw:
            best_raw, witness = raw_g, extra
    prune = lambda lower: lower >= best_raw  # first found wins ties
    for rel in correspondence_stream(x, y, search, budget, seed, samples, prune):
        glued = glue_from_correspondence(x, y, rel)
        t_star = _threshold_sup(glued, slack)
        raw_g = 0 if is_inf(t_star) else _inv(t_star)
        if raw_g < best_raw:
            best_raw, witness = raw_g, glued
    if is_inf(best_raw):
        raise MetricError("no gluing was generated")
    half = 0.5 if isinstance(best_raw, float) else Fraction(1, 2)
    truncated = best_raw if best_raw > half else half
    certificate = "family-minimum" if search == "exact" else "upper-bound"
    return InframetricResult(
        raw=best_raw, truncated=truncated, witness=witness, search=search, certificate=certificate
    )
