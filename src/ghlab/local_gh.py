"""Local Gromov-Hausdorff quantities on gluings and the classical inframetric.

delta_r is the sup formula of the definition (``delta_r_def_form``: the
basepoint gap and the distance of each r-ball point to the other copy, one
O(n^2) pass), snapped to the first breakpoint at or above it within tol.
The definition predicate at eps holds exactly when leq(sup, eps, tol), so
this is the first breakpoint where the predicate holds; at tol = 0 it is
the sup itself.  The candidate scan of the inflated-ball predicate (balls
of radius r + 2 eps) is the independent cross-check: strict mode asserts
that it, the sup and the snapped value agree; the tests compare all three.

The searches (``Delta_r``, ``gh_inframetric``) are branch and bound: the
correspondence stream skips every correspondence whose basepoint-gap lower
bound cannot beat the best value so far, so an exact search still returns
the family minimum, with the witness a full enumeration would pick.

Neither search needs a gluing per correspondence at tol 0.  In the gluing
along R at eta = dis(R)/2 every point has a partner at exactly eta (the
cross entry of a related pair is 0 + eta + 0), and the basepoint gap
d(x0, y0), a min of sums d(x0, i) + eta + d(j, y0), is at least eta, on
floats too since rounding is monotone (Burago-Burago-Ivanov, section 7.3).
So delta at every radius equals that gap, the stream's own lower bound.
The raw inframetric threshold of the constant profile is the gap plus
slack, and ``Delta_r`` at tol 0 scores each correspondence by its gap and
glues only the winner.  At tol != 0 delta_r snaps to the first breakpoint
of the whole host within tol below the gap; correspondences with equal
gaps have different hosts, and a larger gap can snap lower, so the gap
alone can pick another value or witness, and ``Delta_r`` glues each
correspondence the stream yields.

On rational input both searches run on one integer grid per query, through
one boundary, ``_on_grid``.  With L = 4 * lcm of both spaces' grid units
and of the denominators of the query's scalars (r and tol, or slack;
``metric_core.grid_unit_of``), each space's stored grid rows
(``FiniteMetricSpace.grid``, left by ``validate_metric`` or computed once
per space) are multiplied by L over their own unit into an ``int`` copy (a
positive multiple of a metric is a metric), and the unchanged search code
runs on ``int`` rows.  Only the value and the witness come back: the value
as ``Fraction(value, L)``, the witness host with one ``Fraction(v, L)`` per
distinct entry, under the grid host's labels and ``strict`` flag
(``_off_grid``).  The factor 4 keeps every halving an ``int``: the grid
distances are multiples of 4, so a distortion and eta = dis/2 are even,
cross distances are even, and so are the delta_r candidate gaps d - r that
get halved.  Input holding any float skips the grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .gluing import (
    GluedSpace,
    _base_gap,
    _distortion,
    correspondence_stream,
    glue_from_correspondence,
)
from .metric_core import (
    FiniteMetricSpace,
    MetricError,
    PointedSpace,
    dist_to_set,
    eps_contained,
    grid_copy,
    grid_unit_of,
    validate_metric,
)
from .numerics import INF, Scalar, half as _half, inv, leq, on_grid


class NonPositiveRadius(MetricError):
    pass


class NoBreakpoint(MetricError):
    """At a negative tol, no breakpoint of delta_r is within tol of its sup."""


def _balls(glued: GluedSpace, r: Scalar, tol: Scalar = 0) -> tuple:
    """Host indices of the X copy's and the Y copy's closed r-balls about
    their basepoints."""
    host = glued.host
    return tuple(
        [h for h in embed if leq(host.d(c, h), r, tol)]
        for c, embed in ((glued.x0_host, glued.embed_x), (glued.y0_host, glued.embed_y))
    )


def delta_candidates(glued: GluedSpace, r: Scalar) -> list:
    """Breakpoints where either feasibility predicate can change."""
    host = glued.host
    values = {host.d(glued.x0_host, glued.x0_host), host.d(glued.x0_host, glued.y0_host)}
    for i in range(host.n):
        for j in range(i + 1, host.n):
            values.add(host.d(i, j))
    for c in (glued.x0_host, glued.y0_host):
        for q in range(host.n):
            gap = host.d(c, q) - r
            if gap >= 0:
                values.add(_half(gap))
    return sorted(values)


def _alt_feasible(glued: GluedSpace, r: Scalar, eps: Scalar, tol: Scalar = 0) -> bool:
    host = glued.host
    if not leq(host.d(glued.x0_host, glued.y0_host), eps, tol):
        return False
    (ball_x, ball_y), (wide_x, wide_y) = _balls(glued, r, tol), _balls(glued, r + 2 * eps, tol)
    if not eps_contained(host, ball_x, wide_y, eps, tol):
        return False
    return eps_contained(host, ball_y, wide_x, eps, tol)


def delta_r(glued: GluedSpace, r: Scalar, strict: bool = False, tol: Scalar = 0) -> Scalar:
    """Smallest breakpoint eps with basepoints within eps and r-balls
    eps-inside the other copy: the first one at or above the sup formula
    within tol (the sup is itself a breakpoint)."""
    sup_form = delta_r_def_form(glued, r, tol)
    value = next((eps for eps in delta_candidates(glued, r) if leq(sup_form, eps, tol)), None)
    if value is None:  # only at a negative tol
        raise NoBreakpoint(f"no breakpoint is within tol {tol} above the sup formula {sup_form}")
    if strict:
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
    ball_x, ball_y = _balls(glued, r, tol)
    parts = [host.d(glued.x0_host, glued.y0_host)]
    parts.extend(dist_to_set(host, h, glued.embed_y) for h in ball_x)
    parts.extend(dist_to_set(host, h, glued.embed_x) for h in ball_y)
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
    ball_x, ball_y = _balls(glued, r, tol)
    K = frozenset(h for h in glued.embed_y if leq(dist_to_set(host, h, ball_x), eps, tol))
    Q = frozenset(h for h in glued.embed_x if leq(dist_to_set(host, h, ball_y), eps, tol))
    base_ok = leq(host.d(glued.x0_host, glued.y0_host), eps, tol)

    def haus_le(a, b) -> bool:
        return eps_contained(host, a, b, eps, tol) and eps_contained(host, b, a, eps, tol)

    upper_q, upper_k = map(set, _balls(glued, r + 2 * eps, tol))
    lower_q, lower_k = map(set, _balls(glued, r - 2 * eps, tol))
    hausdorff_ok = haus_le(ball_x, K) and haus_le(Q, ball_y)
    a1 = leq(delta_r_def_form(glued, r, tol), eps, tol)
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


def refine_gluing_cross(glued: GluedSpace, tol: Scalar = 0) -> GluedSpace:
    """Lower cross distances toward their triangle lower bounds.

    delta_r is nonincreasing in every cross entry, so each of the two sweeps
    can only improve the gluing while keeping both embeddings isometric.
    The host is validated at max(tol, 0): a negative tol would reject every
    host on its trivial triples d(x, x) <= d(x, x) + d(x, x).
    """
    host = glued.host
    rows = [list(row) for row in host.dist]
    n = host.n
    in_x, in_y = set(glued.embed_x), set(glued.embed_y)
    x_only = [h for h in glued.embed_x if h not in in_y]
    y_only = [h for h in glued.embed_y if h not in in_x]
    for _ in range(2):
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
    new_host = validate_metric(host.points, rows, tol=max(tol, 0))
    return GluedSpace(
        host=new_host,
        embed_x=glued.embed_x,
        embed_y=glued.embed_y,
        origin_x=glued.origin_x,
        origin_y=glued.origin_y,
    )


def _pointed_on_grid(p: PointedSpace, unit: int) -> PointedSpace:
    """p's grid rows scaled to unit, a multiple of their L (``grid_copy``)."""
    return PointedSpace(grid_copy(p.space, unit), p.base)


def _off_grid(glued: GluedSpace, unit: int, x: PointedSpace, y: PointedSpace) -> GluedSpace:
    """The grid witness divided by L, one ``Fraction`` per distinct value,
    embedding the caller's spaces."""
    host = glued.host
    back = {v: Fraction(v, unit) for v in set(itertools.chain(*host.dist))}
    rows = tuple([tuple([back[v] for v in row]) for row in host.dist])
    return GluedSpace(FiniteMetricSpace(host.points, rows, host.strict), glued.embed_x, glued.embed_y, x, y)


def Delta_r(
    x: PointedSpace,
    y: PointedSpace,
    r: Scalar,
    search: str = "exact",
    budget: int = 12,
    seed: int = 0,
    samples: int = 64,
    tol: Scalar = 0,
):
    """Best delta_r over correspondence gluings plus coordinate-descent
    refinement of the winner; returns (value, witness gluing).

    The unrestricted infimum ranges over all isometric embeddings, so the
    result is a certified upper bound; ties break by the lexicographically
    smallest correspondence encoding.  The search prunes correspondences
    whose basepoint gap exceeds the best value (delta_r is at least that
    gap), and still returns the family minimum with the same witness.  At
    tol 0 a correspondence's delta_r is its basepoint gap, so the gap is
    its score and only the winner is glued; at tol != 0 delta_r snaps to
    breakpoints of the host that the gap does not see, so each surviving
    correspondence is glued and evaluated (module docstring).
    """
    if r <= 0:
        raise NonPositiveRadius(f"radius must be positive, got {r}")
    try:
        return _on_grid(_Delta_r_search, x, y, (r, tol), search, budget, seed, samples)
    except NoBreakpoint:  # name the caller's tol: on the grid the message holds grid numbers
        raise NoBreakpoint(
            f"no breakpoint of a searched gluing is within tol {tol} above its sup formula"
        ) from None


def _on_grid(run, x: PointedSpace, y: PointedSpace, scalars: tuple, *how) -> tuple:
    """(value, witness) of the search run(x, y, *scalars, *how) -> (value,
    gluing): on the integer grid at unit L when the spaces and the scalars
    are rational, with the answer brought back (module docstring); on the
    caller's numbers otherwise."""
    unit = grid_unit_of((x.space, y.space), scalars)
    if unit is None:
        return run(x, y, *scalars, *how)
    unit *= 4
    grid = (on_grid(v, unit) for v in scalars)
    value, glued = run(_pointed_on_grid(x, unit), _pointed_on_grid(y, unit), *grid, *how)
    return Fraction(value, unit), _off_grid(glued, unit, x, y)


def _Delta_r_search(x, y, r, tol, search, budget, seed, samples):
    """``Delta_r`` on the spaces' own scale."""
    best = None

    def prune(lower: Scalar) -> bool:
        # strict, so a tie can still win on the smaller encoding; a feasible
        # eps has d(x0, y0) <= eps + tol, so tol keeps float mode sound
        return best is not None and lower > best[0] + tol

    for rel in correspondence_stream(x, y, search, budget, seed, samples, prune):
        if tol == 0:  # delta_r is the gap (module docstring); glue the winner only
            glued = None
            value = _base_gap(x, y, rel.pairs, _distortion(rel, x, y))
        else:
            glued = glue_from_correspondence(x, y, rel)
            value = delta_r(glued, r, tol=tol)
        key = (value, rel.pairs)
        if best is None or key < (best[0], best[2].pairs):
            best = (value, glued, rel)
    if best is None:
        raise MetricError("no gluing was generated")
    value, glued, rel = best
    if glued is None:
        glued = glue_from_correspondence(x, y, rel)
    refined = refine_gluing_cross(glued, tol=tol)
    refined_value = delta_r(refined, r, tol=tol)
    if refined_value < value:
        return refined_value, refined
    return value, glued


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
) -> InframetricResult:
    """max(inf{r : Delta_{1/r} < r}, 1/2) over the searched gluing family.

    A correspondence gluing's delta profile is constant at its basepoint gap
    g, so its raw threshold inf{r : g + slack < r} is g + slack (a zero of
    its type when that is not positive), read off the stream without
    building the gluing; only the winner is glued.  `truncated` applies the
    1/2 floor, a float exactly when raw is one.  The stream drops
    correspondences whose basepoint gap already reaches the current best.
    """
    raw, witness = _on_grid(_inframetric_search, x, y, (slack,), search, budget, seed, samples)
    half = 0.5 if isinstance(raw, float) else Fraction(1, 2)
    truncated = raw if raw > half else half
    certificate = "family-minimum" if search == "exact" else "upper-bound"
    return InframetricResult(
        raw=raw, truncated=truncated, witness=witness, search=search, certificate=certificate
    )


def _inframetric_search(x, y, slack, search, budget, seed, samples):
    """The ``gh_inframetric`` stream on the spaces' own scale; returns (raw,
    gluing of the first correspondence that attains it)."""
    best_raw: Scalar = INF
    best = None
    prune = lambda lower: lower >= best_raw  # first found wins ties
    for rel in correspondence_stream(x, y, search, budget, seed, samples, prune):
        lim = _base_gap(x, y, rel.pairs, _distortion(rel, x, y)) + slack
        # the inverse of the threshold radius 1/lim, rounded as a float radius
        # is; a zero of lim's own type (never -0.0) when lim is not positive
        raw = type(lim)(0) if lim <= 0 else inv(inv(lim)) if isinstance(lim, float) else lim
        if raw < best_raw:
            best_raw, best = raw, rel
    if best is None:
        raise MetricError("no gluing was generated")
    return best_raw, glue_from_correspondence(x, y, best)
