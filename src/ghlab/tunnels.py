"""Passages between pointed spaces: admissibility, extent, lift bounds,
composition, and the radius-indexed propinquity built from them.

A passage carries two embedded copies of pointed spaces inside one carrier.
A metric passage is its gluing: distance-preserving embeddings into the
carrier, and no seminorm beyond the carrier's Lipschitz one.  A composed
passage's seminorm has only edge differences (f_i - f_j) / w_ij as
functionals, and the carrier matrix stored here is the shortest-path metric
of those edges.  A function then has seminorm at most l exactly when it is
l-Lipschitz on the carrier, so admissibility and the lift envelope read the
carrier alone, with the McShane extensions, for every passage kind, and the
seminorm itself is never built.

A pointed space enters as (C0(X), Lip, C0(X), x0).  Every finite metric
space satisfies the proper-quantum-metric clauses (properness, approximate
unit, seminorm domain, ...) automatically, so ``_as_classical`` adds only
separation to the boundary's metric check.

On rational input every scan of a metric passage (``_grid_scan``) runs on
one integer grid, as ``local_gh``'s searches do: L = 8 * lcm of the grid
units of the carrier, domain and codomain (``FiniteMetricSpace.grid``) and
of the denominators of tol and any fixed r scales each space's stored grid
rows into an ``int`` copy (the 8 keeps halves of quarters ints), the
unchanged scan runs on it, and its value and probe come back divided by L,
the basepoint gap as the caller's own entry.  So do ``extent``, ``gh
extent``, ``local_propinquity`` and each bisection step of a bracket, at
radius L/e and cutoff e * L.  Every comparison of the metric clauses is then
between sums of L-scaled numbers; the sentinel past the last candidate, 2c +
unit, is 2c + 1 in the caller's numbers.  Composed passages keep the caller's
numbers: their bump family's Lipschitz ratio divides, so its test against 1 +
tol is not scale-free.  On the grid a bisection step's radius L/e is a
``Fraction``; at an int eps ``check_admissible`` probes it at its floor,
which every clause reads alike since rows and tol are ints there, so the
whole check runs on ints and a failure certificate's t may be that floor.
Its answer is then a function of eps and that floor alone, so the scan
context keeps one verdict per pair: a bracket's step radii L/e converge,
their floors repeat, and most steps are answered without a walk.

One fixed-radius scan copies each of the three spaces once
(``metric_core.grid_copy``: its cached grid rows times L over their own
unit) and scales r and tol once.  Its ``ScanContext`` reads the basepoint
rows, their sorted values, the ``ints`` flag and the gap straight from the
copied rows and builds the inverse passage over the same copies, so nothing
else is copied or scaled.  The domain and codomain keep their own rows
rather than the carrier's at their embeddings, since a gluing validated at
tol > 0 may embed them with distances off by up to tol.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .gluing import (
    GluedSpace,
    NotDistancePreserving,
    _distorted_pair,
    _distortion,
    correspondence,
    correspondence_stream,
    glue_from_correspondence,
    glued_from_json,
)
from .lipschitz import (
    RealFunction,
    _partial_lip,
    lip_constant,
    mcshane_extend,
    mcshane_extend_lower,
    real_function,
    sup_norm,
)
from .local_gh import NonPositiveRadius, _pointed_on_grid, refine_gluing_cross
from .metric_core import (
    FiniteMetricSpace,
    MetricError,
    PointedSpace,
    PreconditionFailed,
    _block_rows,
    _trusted_space,
    diameter,
    dist_to_set,
    grid_copy,
    grid_unit_of,
    min_plus_closure,
    validate_metric,
)
from .numerics import (
    INF,
    Scalar,
    half as _half,
    inv,
    is_inf,
    json_number,
    leq,
    on_grid,
    quarter,
)


class Infeasible(MetricError):
    """A lift set that admissibility promises to be nonempty came up empty."""


class RadiusConditionViolated(MetricError):
    """Composition needs t + 4*max(eps1, eps2) < r with both eps admissible."""


class DomainMismatch(MetricError):
    """Composition needs codomain(first) = domain(second) exactly."""


class RadiusGap(MetricError):
    """The direct construction covers r >= both diameters or r < both only."""


def _as_classical(obj) -> PointedSpace:
    """The pointed space itself, once it is known to be separated."""
    if not isinstance(obj, PointedSpace):
        raise MetricError(f"expected a pointed space, got {type(obj).__name__}")
    # The boundary set `strict`; re-validating only words the separation error.
    if not obj.space.strict:
        validate_metric(obj.space.points, obj.space.dist, require_strict=True)
    if not 0 <= obj.base < obj.space.n:
        raise MetricError(f"basepoint index {obj.base} out of range")
    return obj


@dataclass(frozen=True)
class ComposedInfo:
    first: "Passage"
    second: "Passage"
    alpha: Scalar
    eps1: Scalar
    eps2: Scalar
    offset: int


@dataclass(frozen=True)
class Passage:
    carrier: FiniteMetricSpace
    embed_x: tuple
    embed_y: tuple
    domain: PointedSpace
    codomain: PointedSpace
    kind: str = "metric"  # or "composed": a bridged carrier
    info: ComposedInfo | None = None

    @property
    def glued(self) -> GluedSpace | None:
        """The gluing a metric passage is; None for a composed one."""
        if self.kind != "metric":
            return None
        return GluedSpace(self.carrier, self.embed_x, self.embed_y, self.domain, self.codomain)

    @property
    def x0_host(self) -> int:
        return self.embed_x[self.domain.base]

    @property
    def y0_host(self) -> int:
        return self.embed_y[self.codomain.base]


def passage_from_gluing(glued: GluedSpace) -> Passage:
    return Passage(
        carrier=glued.host,
        embed_x=tuple(glued.embed_x),
        embed_y=tuple(glued.embed_y),
        domain=_as_classical(glued.origin_x),
        codomain=_as_classical(glued.origin_y),
    )


def passage_from_isometry(a, b, mapping: Sequence[int]) -> Passage:
    """Passage over the domain carrier along a base-preserving isometry;
    mapping[j] is the domain index matched to codomain point j."""
    A = _as_classical(a)
    B = _as_classical(b)
    m = tuple(mapping)
    if sorted(m) != list(range(A.n)) or B.n != A.n:
        raise PreconditionFailed("bijection", "mapping must be a bijection onto the domain")
    if m[B.base] != A.base:
        raise PreconditionFailed("basepoint", "mapping must send basepoint to basepoint")
    bad = _distorted_pair(B.space, A.space, m)
    if bad is not None:
        i, j = bad
        raise NotDistancePreserving(
            "isometry", bad, f"d({B.space.points[i]!r},{B.space.points[j]!r}) is not preserved"
        )
    return Passage(carrier=A.space, embed_x=tuple(range(A.n)), embed_y=m, domain=A, codomain=B)


def inverse(p: Passage) -> Passage:
    return Passage(
        carrier=p.carrier,
        embed_x=p.embed_y,
        embed_y=p.embed_x,
        domain=p.codomain,
        codomain=p.domain,
        kind=p.kind,
        info=p.info,
    )


def _find_base_isometry(x: PointedSpace, y: PointedSpace) -> tuple | None:
    """Base-preserving isometry y -> x as an index mapping, or None."""
    if x.n != y.n:
        return None
    n = x.n
    order = [y.base] + [j for j in range(n) if j != y.base]
    assign: dict[int, int] = {}
    used = [False] * n

    def rec(k: int) -> bool:
        if k == n:
            return True
        j = order[k]
        choices = [x.base] if j == y.base else range(n)
        for cand in choices:
            if used[cand]:
                continue
            if any(x.space.d(assign[jj], cand) != y.space.d(jj, j) for jj in assign):
                continue
            assign[j] = cand
            used[cand] = True
            if rec(k + 1):
                return True
            del assign[j]
            used[cand] = False
        return False

    found, rec = rec(0), None  # rec's cell held rec itself: a cycle for the collector
    return tuple(assign[j] for j in range(n)) if found else None


def k_family(p: Passage, eps: Scalar, tol: Scalar = 0) -> Callable[[Scalar], frozenset]:
    """The canonical compact family t -> embedX(ballX(t+2eps)) u embedY(ballY(t+2eps))."""
    x_row = p.domain.space.dist[p.domain.base]
    y_row = p.codomain.space.dist[p.codomain.base]
    ex, ey, two = p.embed_x, p.embed_y, 2 * eps

    def kf(t: Scalar) -> frozenset:
        lim = t + two + tol if tol else t + two
        out = {ex[i] for i, d in enumerate(x_row) if d <= lim}
        out.update(ey[j] for j, d in enumerate(y_row) if d <= lim)
        return frozenset(out)

    return kf


def _zero_set(p: Passage, r: Scalar, eps: Scalar, K: frozenset, tol: Scalar) -> set:
    wide = r + 4 * eps + tol if tol else r + 4 * eps
    zero = set(range(p.carrier.n)).difference(K)
    zero.update([h for h, d in zip(p.embed_y, p.codomain.space.dist[p.codomain.base]) if not d <= wide])
    return zero


def check_left_admissible(
    p: Passage, r: Scalar, eps: Scalar, K: Iterable[int], tol: Scalar = 0
) -> tuple:
    """Evaluate the one-sided admissibility clauses; returns (ok, certificate).

    Clauses are the finite commutative reduction: (1) the r-ball lands in K;
    (2) K stays within eps of the widened-ball image; (3) every point's
    escape distance is dominated by its carrier distance to the zero region
    (the universal-lift criterion; checked on the bump family for composed
    carriers).  Clauses (4) and (5) hold by construction and are asserted.
    Each clause reads whole rows: one pass over the domain's basepoint row
    decides the balls, and a carrier or domain row gives each distance to a
    set; every comparison is ``leq``'s, (a + s) + tol.
    """
    if r <= 0:
        raise PreconditionFailed("radius", f"radius must be positive, got {r}")
    if eps <= 0:
        raise PreconditionFailed("tolerance", f"tolerance must be positive, got {eps}")
    carrier = p.carrier
    Kset = frozenset(K)
    if Kset and (min(Kset) < 0 or max(Kset) >= carrier.n):
        raise PreconditionFailed("K", "K must be a set of carrier indices")
    X, ex, c_rows = p.domain.space, p.embed_x, carrier.dist
    mode = "exact" if p.kind == "metric" else "family"
    ball = r + tol if tol else r
    wide = r + 4 * eps + tol if tol else r + 4 * eps
    near = eps + tol if tol else eps

    # the r-ball lies inside the wide ball, as eps > 0
    wide_img, complement = [], []
    for i, d in enumerate(X.dist[p.domain.base]):
        if d <= ball:
            if ex[i] not in Kset:
                return False, {"clause": 1, "witness": X.points[i], "mode": mode}
            wide_img.append(ex[i])
        else:
            complement.append(i)
            if d <= wide:
                wide_img.append(ex[i])

    for z in sorted(Kset):
        row = c_rows[z]
        for h in wide_img:
            if row[h] <= near:
                break
        else:
            return False, {"clause": 2, "witness": carrier.points[z], "mode": mode}

    zero = _zero_set(p, r, eps, Kset, tol)
    if p.kind == "metric":
        for i, x_row in enumerate(X.dist):
            lhs = INF
            for j in complement:
                if x_row[j] < lhs:
                    lhs = x_row[j]
            c_row = c_rows[ex[i]]
            rhs = INF
            for z in zero:
                if c_row[z] < rhs:
                    rhs = c_row[z]
            if not (lhs <= rhs + tol if tol else lhs <= rhs):
                return False, {"clause": 3, "witness": X.points[i], "mode": mode}
    else:
        ok, witness = _bump_family_feasible(p, complement, zero, tol)
        if not ok:
            return False, {"clause": 3, "witness": witness, "mode": mode}
    return True, {"clauses": "1-3 checked, 4-5 automatic", "mode": mode, "zero_size": len(zero)}


def _bump_family_feasible(p: Passage, complement: list, zero: set, tol: Scalar) -> tuple:
    """Lift feasibility of the maximal bump at each domain point.

    For edge-difference seminorms the carrier matrix is the induced metric,
    so feasibility is anchor compatibility; results cover the generating
    bumps, not every local function (reported as mode "family").  The zero
    region and the bumps' values never conflict: the caller has checked
    clause 1, so each point of the r-ball lands in K, every bump is 0 off
    the r-ball, and the passages built here (``compose``,
    ``existence_tunnel``) keep the domain's and codomain's images disjoint.
    """
    carrier = p.carrier
    X = p.domain.space
    if not complement:
        if zero:
            return False, "unbounded local functions with a nonempty zero region"
        for i in range(X.n):
            for j in range(i + 1, X.n):
                if not leq(X.d(i, j), carrier.d(p.embed_x[i], p.embed_x[j]), tol):
                    return False, X.points[i]
        return True, None
    for pidx in range(X.n):
        peak = dist_to_set(X, pidx, complement)
        anchors: dict[int, Scalar] = dict.fromkeys(zero, 0)
        anchors.update((p.embed_x[i], max(peak - X.d(pidx, i), 0)) for i in range(X.n))
        try:
            if _partial_lip(carrier, anchors, tol) > 1 + tol:
                return False, X.points[pidx]
        except MetricError:
            return False, X.points[pidx]
    return True, None


def _base_rows(p: Passage) -> set:
    """Distances from each basepoint to its own space, collected through
    every space a nested composition touches."""
    vals = {*p.domain.space.dist[p.domain.base], *p.codomain.space.dist[p.codomain.base]}
    if p.info is not None:
        vals |= _base_rows(p.info.first) | _base_rows(p.info.second)
    return vals


def _family_shifts(p: Passage, eps: Scalar) -> set:
    """Cell shifts (relative to the probed radius) at which ball memberships
    inside the witness compact family can flip."""
    if p.info is None:
        return {2 * eps}
    out = set()
    for part, eps_part, shift in (
        (p.info.first, p.info.eps1, 4 * p.info.eps2),
        (p.info.second, p.info.eps2, 4 * p.info.eps1),
    ):
        out |= {shift + v for v in _family_shifts(part, eps_part)}
    return out


def _halves(values: Iterable) -> set:
    """Halves and quarters of the positive values."""
    return {f(v) for v in values if v > 0 for f in (_half, quarter)}


class ScanContext:
    """What the checks and scans of one passage at one ``tol`` share across
    radii: the inverse passage, basepoint gap and rows, radius-free tolerance
    candidates, and per eps the probe cells, witness family, probe memo and
    verdict dict.  p's numbers are the caller's times ``unit`` (1 off the
    grid).  ``ints``: p's witness family is the canonical one (``p.info`` is
    None, as for every passage but a composition, the band existence passage
    included) and its basepoint rows and tol are all ints, so
    ``check_admissible`` may probe an int eps at integer radii.  There its
    whole answer depends on eps and the floored radius only, p and tol being
    fixed with the context, so the verdict dict maps that radius to the
    answer; it stays empty everywhere else.  The rows, the gap and the
    inverse are built with the context, from p's own rows; the candidates,
    which only a scan past its first probe needs, on first use."""

    def __init__(self, p: Passage, tol: Scalar = 0, unit: int = 1):
        self.p, self.tol, self.unit, self.base = p, tol, unit, _base_rows(p)
        self.rows = sorted(self.base)
        self.ints = p.info is None and type(tol) is int and all(type(d) is int for d in self.rows)
        self.gap = p.carrier.dist[p.x0_host][p.y0_host]
        self.inverse = inverse(p)
        self._per_eps: dict = {}

    @cached_property
    def _fixed(self) -> tuple:
        c, base = self.p.carrier, self.base
        values = base | {c.d(i, j) for i in range(c.n) for j in range(i + 1, c.n)}
        cands = {v for v in values if v > 0} | _halves(values)
        cands |= _halves(v - w for v in base for w in base)
        return sorted(cands), cands

    def candidates(self, r: Scalar) -> list:
        """Tolerances where the admissibility predicate can flip: distance
        values, their halves and quarters, and half/quarter gaps between
        basepoint distances and r (0 is a basepoint distance); only the r
        terms are built per call."""
        fixed, fixed_set = self._fixed
        extra = ({r} if r > 0 else set()) | _halves(d for w in self.base for d in (r - w, w - r))
        cands = list(fixed)
        for v in extra - fixed_set:
            insort(cands, v)
        return cands

    def at_eps(self, eps: Scalar) -> tuple:
        """(sorted positive probe cells, witness family, its name, probe memo,
        verdict dict) at eps."""
        got = self._per_eps.get(eps)
        if got is None:
            p, tol = self.p, self.tol
            shifts = {0, 2 * eps, 4 * eps}  # the canonical family's shift is 2 eps
            if p.info is not None:
                shifts |= _family_shifts(p, eps)
            cells = sorted({c for s in shifts for d in self.base if (c := d - s - tol) > 0})
            family = "canonical" if p.info is None else "composed-union"
            got = self._per_eps[eps] = (cells, _witness_family(p, eps, tol), family, {}, {})
        return got


def _int_floor(t: Scalar) -> Scalar:
    """The floor of a ``Fraction`` t >= 1 as an int; any other t as it is."""
    return t // 1 if type(t) is Fraction and t >= 1 else t


def check_admissible(
    p: Passage,
    r: Scalar,
    eps: Scalar,
    tol: Scalar = 0,
    context: ScanContext | None = None,
) -> tuple:
    """Full admissibility of eps at radius r: basepoint proximity plus left
    and right admissibility of (eps, K_t) at every radius cell in (0, r].

    All clause quantities depend on t only through closed-ball memberships
    leq(d, t + s, tol), each flipping at a breakpoint d - s - tol, so probing
    each breakpoint (cells are [b_k, b_{k+1})), one sub-minimal point, and r
    itself decides the whole continuum.

    So both sides' clauses at probe t read only eps, K_t, and which
    basepoint-row values d satisfy leq(d, t, tol) and leq(d, t + 4 eps, tol);
    each is a prefix of the sorted rows (``_base_rows``), fixed by its length.
    Results are memoised on eps, both lengths and K_t in ``context`` (a
    ``ScanContext`` of p at this tol; a fresh one when omitted).  The
    canonical K_t is the leq(d, t + 2 eps, tol) prefix, so its length stands
    in for it; a composed K_t enters as computed.  The key is
    exact on both backends: each length comes from the comparison ``leq``
    makes (d <= t + s at tol 0), and as eps > 0 and rounding is monotone the
    thresholds ascend in s, so each search starts where the one below ended.

    On ints (``ScanContext.ints``, an int eps) a
    ``Fraction`` radius r >= 1 is probed at its floor, and so is a
    ``Fraction`` sub-minimal probe >= 1.  Every membership the clauses read
    is d <= t + k + tol with d a basepoint row and k one of 0, 2 eps and 4
    eps, all ints here, and that holds at t exactly when it holds at
    floor(t).  So the cells up to r are the cells up to floor(r), the
    sub-minimal probe keeps its memberships (floor(floor(r) / 2) = floor(r /
    2)), and the verdict is the same at every tol; a failure certificate's
    t may be floor(t), which fails the same way.

    So there the probe list, and with it the whole answer, certificate
    included, is a function of eps and floor(r) (of r itself below 1), the
    memo above deciding nothing but how fast each probe is read.  The
    context's verdict dict for eps (``ScanContext.at_eps``) keeps that
    answer under the floored r: looked up before the probe list is built,
    stored after the walk.  A float r is not kept, since 3.0 would share
    the key of 3 but not its certificate's types.  Every call returns a
    fresh certificate dict, so a caller that edits one changes no later
    answer.
    """
    if r <= 0 or eps <= 0:
        return False, {"reason": "nonpositive radius or tolerance"}
    ctx = context if context is not None else ScanContext(p, tol)
    if not leq(ctx.gap, eps, tol):
        return False, {"reason": "basepoint", "gap": ctx.gap}
    cells, kf, family, memo, verdicts = ctx.at_eps(eps)
    floor = ctx.ints and type(eps) is int
    if floor:
        r = _int_floor(r)
    if not floor or type(r) is float:  # a float 3.0 would share the key of 3
        verdicts = None
    else:
        seen = verdicts.get(r)
        if seen is not None:
            return seen[0], dict(seen[1])
    k = bisect_right(cells, r)
    low = _half(cells[0] if k else r)
    probes = [_int_floor(low) if floor else low, *cells[:k]]
    if probes[-1] != r:  # every other probe lies below r
        probes.append(r)
    rows, two, four = ctx.rows, 2 * eps, 4 * eps
    canonical = family == "canonical"
    for t in probes:
        lo = bisect_right(rows, t + tol if tol else t)
        if canonical:
            K = mid = bisect_right(rows, t + two + tol if tol else t + two, lo)
        else:
            K, mid = kf(t), lo
        key = (lo, bisect_right(rows, t + four + tol if tol else t + four, mid), K)
        hit = memo.get(key)
        if hit is None:
            if canonical:
                K = kf(t)
            ok, cert = check_left_admissible(p, t, eps, K, tol)
            side = "left"
            if ok:
                ok, cert = check_left_admissible(ctx.inverse, t, eps, K, tol)
                side = "right"
            hit = memo[key] = (ok, side, cert)
        if not hit[0]:
            ok, cert = False, {"t": t, "side": hit[1], **hit[2]}
            break
    else:
        ok, cert = True, {"probes": len(probes), "family": family}
    if verdicts is not None:
        verdicts[r] = ok, cert
        cert = dict(cert)
    return ok, cert


def _extent_scan(
    p: Passage,
    r: Scalar,
    cutoff: Scalar = INF,
    tol: Scalar = 0,
    context: ScanContext | None = None,
) -> tuple:
    """(infimum of admissible tolerances below cutoff, an attained admissible
    probe or None), by one ascending walk over the cells (lo, hi) between
    consecutive candidates: the first admissible probe answers lo if it is a
    cell's midpoint and itself if it is the candidate hi.

    Every probe lies below cutoff and must reach the basepoint gap, so a gap
    beyond cutoff answers at once.  Basepoint proximity rejects every eps
    with not leq(gap, eps, tol), so the walk starts at the cell below the
    first candidate that meets it.  It probes each cell at half(lo + min(hi,
    cutoff)), the first cell (0, c0) at half(c0) unclipped, if that lies
    strictly between lo and cutoff and meets the gap, then at hi, and stops
    at the first candidate at or above cutoff; past the last candidate hi is
    2 lo + unit.  Exact midpoints of a cell below cutoff lie below it, but a
    float half(lo + cutoff) with lo one float below cutoff rounds onto it.
    At tol 0 with a positive gap the walk's first candidate is the gap
    itself, a carrier distance, tried before the list is built.  Scans
    sharing ``context`` evaluate the clauses once per eps and
    ball-membership signature of the probe, which is exact since the
    clauses read the radius through those memberships alone (the memo key
    of ``check_admissible``)."""
    ctx = context if context is not None else ScanContext(p, tol)
    gap = ctx.gap

    def meets(e: Scalar) -> bool:
        return leq(gap, e, tol)

    def admissible(e: Scalar) -> bool:
        return check_admissible(p, r, e, tol=tol, context=ctx)[0]

    if not meets(cutoff):
        return INF, None
    tried = tol == 0 and gap > 0
    if tried:
        if gap >= cutoff:
            return INF, None
        if admissible(gap):
            return gap, gap
    cands = ctx.candidates(r)
    start = bisect_left(cands, True, key=meets)
    for k in range(start, len(cands) + 1):
        lo = cands[k - 1] if k else 0
        hi = cands[k] if k < len(cands) else 2 * lo + ctx.unit
        mid = _half(lo + min(hi, cutoff)) if k else _half(hi)
        if lo < mid < cutoff and meets(mid) and admissible(mid):
            return lo, mid
        if k == len(cands) or hi >= cutoff:
            break
        if not (tried and k == start) and admissible(hi):
            return hi, hi
    return INF, None


def _grid_scan(p: Passage, tol: Scalar, r: Scalar | None = None) -> tuple:
    """(scan, unit, out), the one caller of ``_extent_scan``: scan(radius,
    cutoff) scans p at tol in one ``ScanContext``, radius (default: the fixed
    r) and cutoff (default: inf) given as the caller's numbers times unit,
    and out(v) maps a value or probe back.  A rational metric passage scans
    a copy at unit L whose carrier, domain and codomain are each space's
    cached grid rows scaled once (``grid_copy``); out passes 0, inf and None,
    gives the basepoint gap as the caller's gap object and divides the rest
    by L.  Any other passage scans the caller's numbers at unit 1."""
    fixed = (tol,) if r is None else (tol, r)
    x, y = p.domain, p.codomain
    unit = grid_unit_of((p.carrier, x.space, y.space), fixed) if p.kind == "metric" else None
    if unit is None:
        context, unit, out = ScanContext(p, tol), 1, lambda v: v
    else:
        unit *= 8
        gap = p.carrier.dist[p.x0_host][p.y0_host]
        x, y = _pointed_on_grid(x, unit), _pointed_on_grid(y, unit)
        p = Passage(grid_copy(p.carrier, unit), p.embed_x, p.embed_y, x, y)
        tol, r = on_grid(tol, unit), None if r is None else on_grid(r, unit)
        context = ScanContext(p, tol, unit)
        grid_gap = context.gap
        out = lambda v: v if v in (0, INF, None) else gap if v == grid_gap else Fraction(v, unit)

    def scan(radius: Scalar = r, cutoff: Scalar = INF) -> tuple:
        return _extent_scan(p, radius, cutoff, tol, context)

    return scan, unit, out


def _checked_scan(p: Passage, r: Scalar, tol: Scalar) -> tuple:
    """``_extent_scan`` at a fixed r > 0 with no cutoff, in the caller's numbers."""
    if r <= 0:
        raise NonPositiveRadius(f"radius must be positive, got {r}")
    scan, _, out = _grid_scan(p, tol, r)
    return tuple(map(out, scan()))


def extent(p: Passage, r: Scalar, tol: Scalar = 0) -> Scalar:
    """Infimum of admissible tolerances at radius r; +inf when none exists."""
    return _checked_scan(p, r, tol)[0]


def smallest_admissible(p: Passage, r: Scalar, tol: Scalar = 0) -> Scalar | None:
    """An actually admissible tolerance near the extent (the first admissible
    scan probe), or None; the extent itself need not be attained."""
    return _checked_scan(p, r, tol)[1]


@dataclass(frozen=True)
class TargetBounds:
    lo: tuple
    hi: tuple
    target_lo: tuple
    target_hi: tuple
    feasible: bool


def lift_target_bounds(
    p: Passage,
    a: RealFunction,
    l: Scalar,
    r: Scalar,
    eps: Scalar,
    K: Iterable[int],
    strict: bool = True,
    tol: Scalar = 0,
) -> TargetBounds:
    """Per-point envelope of carrier functions extending a with seminorm
    at most l and vanishing on the zero region, plus its codomain restriction.

    The envelope is the pair of McShane extensions on the carrier, for every
    passage kind: a composed seminorm bounds only edge differences, and its
    carrier is the shortest-path metric of those edges, so a function meets
    the seminorm bound l exactly when it is l-Lipschitz on the carrier.
    """
    X, x0 = p.domain.space, p.domain.base
    if a.host != X:
        raise PreconditionFailed("host", "the function must live on the domain space")
    if lip_constant(a, tol) > l + tol:
        raise PreconditionFailed("lipschitz", f"function is not {l}-Lipschitz")
    for i in range(X.n):
        if a(i) != 0 and not leq(X.d(x0, i), r, tol):
            raise PreconditionFailed("support", "the function must vanish outside the r-ball")
    if r <= 0 or eps <= 0:
        raise PreconditionFailed("radius", "radius and tolerance must be positive")
    carrier = p.carrier
    Kset = frozenset(K)
    anchors: dict[int, Scalar] = {z: 0 for z in sorted(_zero_set(p, r, eps, Kset, tol))}
    for i in range(X.n):
        idx = p.embed_x[i]
        if idx in anchors and anchors[idx] != a(i):
            return _infeasible_bounds(p, strict)
        anchors[idx] = a(i)
    try:
        hi = mcshane_extend(carrier, anchors, l, tol).values
        lo = mcshane_extend_lower(carrier, anchors, l, tol).values
    except MetricError:
        return _infeasible_bounds(p, strict)
    target_lo = tuple(lo[h] for h in p.embed_y)
    target_hi = tuple(hi[h] for h in p.embed_y)
    return TargetBounds(lo=lo, hi=hi, target_lo=target_lo, target_hi=target_hi, feasible=True)


def _infeasible_bounds(p: Passage, strict: bool) -> TargetBounds:
    if strict:
        raise Infeasible("the lift set is empty; (eps, K) was not admissible here")
    return TargetBounds(lo=(), hi=(), target_lo=(), target_hi=(), feasible=False)


@dataclass(frozen=True)
class FundamentalReport:
    norm_ok: bool
    linearity_ok: bool
    diameter_ok: bool
    jordan_ok: bool
    diameter_value: Scalar
    norm_bound: Scalar


def verify_fundamental(
    p: Passage,
    a: RealFunction,
    a_prime: RealFunction,
    l: Scalar,
    r: Scalar,
    eps: Scalar,
    K: Iterable[int],
    t: Scalar,
    tol: Scalar = 0,
) -> FundamentalReport:
    """Check the lift-set guarantees on extreme lifts of a and a_prime:
    target norm growth <= l*eps, linear combinations land in the bounds of
    a + t*a_prime at level (1+|t|)l, per-point target width <= 2*l*eps, and
    pointwise products land in the bounds of a*a_prime at the Leibniz level.
    The Lie clause is identically zero for commutative carriers, so there is
    nothing to check and no field reports it."""
    X = p.domain.space
    Kset = frozenset(K)
    ba = lift_target_bounds(p, a, l, r, eps, Kset, tol=tol)
    bb = lift_target_bounds(p, a_prime, l, r, eps, Kset, tol=tol)
    region = sorted(Kset | set(p.embed_y))
    bound = sup_norm(a) + l * eps
    norm_ok = all(
        leq(abs(v), bound, tol) for z in region for v in (ba.hi[z], ba.lo[z])
    )

    def mid(lo_t: tuple, hi_t: tuple) -> tuple:
        return tuple(_half(lo_t[k] + hi_t[k]) for k in range(len(lo_t)))

    lifts_a = {"hi": ba.hi, "lo": ba.lo, "mid": mid(ba.lo, ba.hi)}
    lifts_b = {"hi": bb.hi, "lo": bb.lo, "mid": mid(bb.lo, bb.hi)}
    combos = [("hi", "hi"), ("hi", "lo"), ("lo", "hi"), ("lo", "lo"), ("mid", "mid")]

    def lands(op: Callable, level: Scalar) -> bool:
        """Each combination op of extreme lifts lands on the codomain in the
        target bounds of op(a, a_prime) at the given level."""
        fn = real_function(X, [op(a(i), a_prime(i)) for i in range(X.n)])
        bounds = lift_target_bounds(p, fn, level, r, eps, Kset, tol=tol)
        for ka, kb in combos:
            for j, h in enumerate(p.embed_y):
                v = op(lifts_a[ka][h], lifts_b[kb][h])
                if not (leq(bounds.target_lo[j], v, tol) and leq(v, bounds.target_hi[j], tol)):
                    return False
        return True

    linearity_ok = lands(lambda u, v: u + t * v, (1 + abs(t)) * l)

    diameter_value = max(
        ba.target_hi[j] - ba.target_lo[j] for j in range(p.codomain.n)
    )
    diameter_ok = leq(diameter_value, 2 * l * eps, tol)

    jordan_ok = lands(lambda u, v: u * v, l * (sup_norm(a) + sup_norm(a_prime) + 2 * l * eps))

    return FundamentalReport(
        norm_ok=norm_ok,
        linearity_ok=linearity_ok,
        diameter_ok=diameter_ok,
        jordan_ok=jordan_ok,
        diameter_value=diameter_value,
        norm_bound=bound,
    )


def _bridge_sum(
    c1: FiniteMetricSpace, c2: FiniteMetricSpace, bridges: list, width: Scalar
) -> FiniteMetricSpace:
    """The shortest-path metric of the disjoint union of c1 and c2 joined by
    edges of length width at the (i, j) bridges, i in c1 and j in c2: the
    carrier of the max of their Lipschitz seminorms and the bridge
    differences scaled by 1/width."""
    edges = set(bridges)
    labels, big = _block_rows(
        (("A:", c1), ("B:", c2)), lambda s, t, a, b: width if (a, b) in edges else INF
    )
    return _trusted_space(labels, min_plus_closure(big))


def compose(
    p1: Passage,
    p2: Passage,
    alpha: Scalar,
    t: Scalar,
    r: Scalar,
    eps1: Scalar,
    eps2: Scalar,
) -> Passage:
    """Bridge two passages through their shared middle space.

    The carrier is the disjoint union with bridge edges of length alpha
    between the two copies of the middle space; the seminorm is the max of
    the component seminorms and the scaled cross differences.  The caller
    gives tolerances eps1 of p1 and eps2 of p2 admissible at radius r, with
    t + 4 max(eps1, eps2) < r; the shifted union compact family then
    certifies eps1 + eps2 + alpha as t-admissible, so extent(result, t) <=
    eps1 + eps2 + alpha.
    """
    if alpha <= 0:
        raise PreconditionFailed("alpha", f"bridge width must be positive, got {alpha}")
    if t <= 0:
        raise NonPositiveRadius(f"target radius must be positive, got {t}")
    if p1.codomain != p2.domain:
        raise DomainMismatch("codomain of the first passage must equal domain of the second")
    if not t + 4 * max(eps1, eps2) < r:
        raise RadiusConditionViolated(
            f"need t + 4*max(eps1, eps2) < r, got {t} + 4*{max(eps1, eps2)} vs {r}"
        )
    n1 = p1.carrier.n
    bridges = [(p1.embed_y[b], p2.embed_x[b]) for b in range(p1.codomain.n)]
    info = ComposedInfo(first=p1, second=p2, alpha=alpha, eps1=eps1, eps2=eps2, offset=n1)
    return Passage(
        carrier=_bridge_sum(p1.carrier, p2.carrier, bridges, alpha),
        embed_x=tuple(p1.embed_x),
        embed_y=tuple(n1 + p2.embed_y[j] for j in range(p2.codomain.n)),
        domain=p1.domain,
        codomain=p2.codomain,
        kind="composed",
        info=info,
    )


def _witness_family(p: Passage, eps: Scalar, tol: Scalar = 0) -> Callable[[Scalar], frozenset]:
    # canonical balls never cover the middle copies of a bridged carrier,
    # so composed passages default to the union family of their parts
    if p.info is not None:
        return composed_k_family(p, tol)
    return k_family(p, eps, tol)


def composed_k_family(p: Passage, tol: Scalar = 0) -> Callable[[Scalar], frozenset]:
    """Union of the parts' witness families, each taken at the cell shifted
    by four times the other part's tolerance.

    A lift of a radius-t function through the first leg restricts to the
    middle space at radius t + 4*eps1, so its continuation through the
    second leg is only supported in K2 at that shifted cell; the symmetric
    shift covers lifts running the other way.  The unshifted union can place
    far-side carrier points into the zero region closer than a deep point's
    escape distance, breaking the lift criterion."""
    if p.info is None:
        raise MetricError("not a composed passage")
    kf1 = _witness_family(p.info.first, p.info.eps1, tol)
    kf2 = _witness_family(p.info.second, p.info.eps2, tol)
    shift1 = 4 * p.info.eps2
    shift2 = 4 * p.info.eps1
    offset = p.info.offset

    def kf(t: Scalar) -> frozenset:
        return frozenset(kf1(t + shift1)) | frozenset(offset + z for z in kf2(t + shift2))

    return kf


def _existence_case(A: PointedSpace, B: PointedSpace, r: Scalar, tol: Scalar, dx, dy) -> tuple | None:
    """What ``existence_tunnel``'s passage at radius r depends on, given the
    diameters dx, dy of A and B: None for the compact collapse, else the
    complements of the two basepoint r-balls, which alone fix the bridge
    passage; raises where neither case applies."""
    if r <= 0:
        raise NonPositiveRadius(f"radius must be positive, got {r}")
    X, x0 = A.space, A.base
    Y, y0 = B.space, B.base
    if leq(max(dx, dy), r, tol):
        return None
    if not (r < dx and r < dy):
        raise RadiusGap(f"radius {r} lies between the space diameters {dx} and {dy}")
    compl_x = tuple(i for i in range(X.n) if not leq(X.d(x0, i), r, tol))
    compl_y = tuple(j for j in range(Y.n) if not leq(Y.d(y0, j), r, tol))
    if not compl_x or not compl_y:
        raise RadiusGap("the basepoint ball covers a space whose diameter exceeds the radius")
    return compl_x, compl_y


def existence_tunnel(a, b, r: Scalar, tol: Scalar = 0) -> Passage:
    """A passage with finite extent at radius r, by the two direct cases:
    compact collapse (r at least both diameters, any correspondence gluing)
    or the uniform-bridge direct sum (r strictly below both diameters and
    both escape radii), whose extent at r is at most the bridge width D."""
    A = _as_classical(a)
    B = _as_classical(b)
    X, Y = A.space, B.space
    case = _existence_case(A, B, r, tol, diameter(X), diameter(Y))
    if case is None:
        total = correspondence(
            [(i, j) for i in range(X.n) for j in range(Y.n)], X.n, Y.n
        )
        return passage_from_gluing(glue_from_correspondence(A, B, total))
    compl_x, compl_y = case
    d_cap = max(
        max(dist_to_set(X, i, compl_x) for i in range(X.n)),
        max(dist_to_set(Y, j, compl_y) for j in range(Y.n)),
    )
    bridges = [(i, j) for i in range(X.n) for j in range(Y.n)]
    return Passage(
        carrier=_bridge_sum(X, Y, bridges, d_cap),
        embed_x=tuple(range(X.n)),
        embed_y=tuple(X.n + j for j in range(Y.n)),
        domain=A,
        codomain=B,
        kind="composed",
    )


def _gluing_passages(
    A: PointedSpace,
    B: PointedSpace,
    search: str,
    budget: int,
    seed: int,
    samples: int,
    bound: Callable[[], Scalar],
) -> Iterator[Passage]:
    """Correspondence-gluing passages of A and B, in stream order, at the
    bridge widths dis/2, dis and 2 dis per correspondence (dis/2 alone when
    dis = 0).  The minimal width keeps matched copies closest, but wider
    bridges can push unmatched far points outside the escape-distance
    clause.  A width whose basepoint gap reaches bound() is skipped, and the
    stream prunes on the same bound; bound() is read lazily, so it sees the
    consumer's best so far."""
    X, x0 = A.space, A.base
    Y, y0 = B.space, B.base
    prune = lambda lower: lower >= bound()  # first found wins ties
    for rel in correspondence_stream(A, B, search, budget, seed, samples, prune):
        dis = _distortion(rel, A, B)
        h = _half(dis)
        for eta in (h,) if dis == 0 else (h, dis, 2 * dis):
            if min(X.d(x0, i) + eta + Y.d(j, y0) for i, j in rel.pairs) < bound():
                yield passage_from_gluing(glue_from_correspondence(A, B, rel, eta))


def _one(A: PointedSpace, B: PointedSpace) -> Scalar:
    """1 in the rows' scalar type: 1.0 when either space has a finite float
    row entry (an ``inf`` in rational rows is not one), so that a zero or a
    bisection in its type is one too."""
    entries = (v for s in (A.space, B.space) for row in s.dist for v in row)
    return 1.0 if any(isinstance(v, float) and not is_inf(v) for v in entries) else 1


def local_propinquity(
    a,
    b,
    r: Scalar,
    search: str = "exact",
    budget: int = 12,
    seed: int = 0,
    samples: int = 64,
    tol: Scalar = 0,
) -> tuple:
    """Smallest extent at radius r over the searched passage family
    (correspondence gluings at a few bridge widths, cross refinement of the
    best one, and the direct construction); returns (value, witness)."""
    A = _as_classical(a)
    B = _as_classical(b)
    if r <= 0:
        raise NonPositiveRadius(f"radius must be positive, got {r}")
    iso = _find_base_isometry(A, B)
    if iso is not None:
        return 0 * _one(A, B), passage_from_isometry(A, B, iso)
    best_val: Scalar = INF
    best: Passage | None = None

    def passages() -> Iterator[Passage]:
        yield from _gluing_passages(A, B, search, budget, seed, samples, lambda: best_val)
        try:
            yield existence_tunnel(A, B, r, tol)
        except MetricError:
            pass
        if best is not None and best.glued is not None:
            refined = refine_gluing_cross(best.glued, tol=tol)
            if refined.host != best.carrier:
                yield passage_from_gluing(refined)

    for p in passages():
        scan, unit, out = _grid_scan(p, tol, r)
        val = out(scan(cutoff=best_val * unit)[0])
        if val < best_val:
            best_val, best = val, p
    return best_val, best


def _tau_bisect(pred: Callable[[Scalar], bool], hi: Scalar, iters: int) -> tuple:
    """Bracket inf{e > 0 : pred(e)} for a monotone predicate true at hi, in
    hi's scalar type: float midpoints from a float hi, exact ones otherwise.

    The exact loop runs on ints.  With hi = hn / hd on entry, after k steps
    lo = a / (hd * 2^k) and hi = b / (hd * 2^k), so the midpoint is c / (hd
    * 2^(k+1)) with c = a + b, and the end it replaces takes c while the
    other doubles.  Each midpoint is built once, in the type that halving
    the sum of the ends gives: an int while both ends are ints and c is a
    multiple of 2^(k+1) (hd is 1 then), a ``Fraction`` otherwise, so every
    end and every value pred sees has the value and type of ``half(lo +
    hi)``.  The float loop halves as it always has, since rounded float
    midpoints are not the exact dyadic ones."""
    if isinstance(hi, float):
        lo = 0.0
        for _ in range(iters):
            m = _half(lo + hi)
            if pred(m):
                hi = m
            else:
                lo = m
        return lo, hi
    lo = 0
    ints = type(hi) is int
    a, b, den = 0, hi.numerator, hi.denominator
    for _ in range(iters):
        c, den = a + b, den << 1
        m = c // den if ints and not c % den else Fraction(c, den)
        ints = ints and type(m) is int
        if pred(m):
            a, b, hi = a << 1, c, m
        else:
            a, b, lo = c, b << 1, m
    return lo, hi


def _passage_pred(p: Passage, tol: Scalar) -> Callable[[Scalar], bool]:
    """e -> does p beat tolerance e at radius 1/e.  Monotone: the extent is
    nondecreasing in the radius, so shrinking 1/e only helps.  Its scans
    share one ``_grid_scan``: a rational metric passage is scaled to the
    grid once, and each step scans it at radius L/e below cutoff e * L; e
    itself stays in the caller's numbers.  A ``Fraction`` e = n/d gives
    both from its numerator and denominator, the cutoff n * L / d and the
    radius L * d / n, each with the value and type of e * L and inv(e, L)."""
    scan, unit, _ = _grid_scan(p, tol)

    def pred(e: Scalar) -> bool:
        if type(e) is Fraction:
            n, d = e.numerator, e.denominator
            cutoff, radius = Fraction(n * unit, d), Fraction(unit * d, n)
        else:
            cutoff, radius = e * unit, inv(e, unit)
        return scan(radius, cutoff)[0] < cutoff

    return pred


def _existence_pred(A: PointedSpace, B: PointedSpace, tol: Scalar) -> Callable[[Scalar], bool]:
    """e -> does the existence passage at radius 1/e beat tolerance e (False
    where it does not exist).  Each distinct passage (``_existence_case``)
    is built once with its own ``_passage_pred``, so the compact collapse, a
    metric passage, scans the grid, and the bridge the caller's numbers."""
    built: dict = {}
    diameters = diameter(A.space), diameter(B.space)

    def pred(e: Scalar) -> bool:
        r = Fraction(e.denominator, e.numerator) if type(e) is Fraction else inv(e)
        try:
            case = _existence_case(A, B, r, tol, *diameters)
        except MetricError:
            return False
        if case not in built:
            built[case] = _passage_pred(existence_tunnel(A, B, r, tol), tol)
        return built[case](e)

    return pred


def propinquity_bracket(
    a,
    b,
    search: str = "exact",
    budget: int = 12,
    seed: int = 0,
    samples: int = 64,
    iters: int = 40,
    tol: Scalar = 0,
) -> tuple:
    """A bracket [lo, hi] in the inputs' scalar type around inf{e : some
    searched passage has extent below e at radius 1/e}; (0, 0) exactly for
    isometric pairs, and (0, inf) when no passage has a finite upper end,
    each 0 in the rows' scalar type.
    lo is the bisection's lower end for the searched passage family, not a
    lower bound on the propinquity.

    The infimum commutes with the passage search, so each passage gets its
    own monotone threshold bisection, pruned by the best upper end so far;
    hi is always certified by a concrete passage.  The first finite upper
    end is ``_one``, so every bisection runs on the rows' scalar type,
    doubled until the first passage beats it: at most 64 + b times, b the
    bit length of the largest finite distance of a and b, after which the
    bracket is (0, inf).

    Each passage's bisection halves from the running dyadic hi, so every
    passage that lowers hi can add up to ``iters`` bits to its denominator
    (2^158 after nine lowering passages on a 2 x 3 pair); an exact
    threshold search in place of the bisection would end that growth.
    """
    A = _as_classical(a)
    B = _as_classical(b)
    one = _one(A, B)
    zero = 0 * one
    if _find_base_isometry(A, B) is not None:
        return zero, zero
    hi: Scalar = INF
    best: Passage | None = None
    lows = []
    for p in _gluing_passages(A, B, search, budget, seed, samples, lambda: hi):
        pred = _passage_pred(p, tol)
        if best is None:
            # the first passage sets the first finite upper end
            hi = one
            top = max(v for s in (A.space, B.space) for row in s.dist for v in row if not is_inf(v))
            for _ in range(64 + int(top).bit_length()):
                if pred(hi):
                    break
                hi = 2 * hi
            else:
                return zero, INF
        elif not pred(hi):
            continue
        lo_p, hi = _tau_bisect(pred, hi, iters)
        lows.append(lo_p)
        best = p
    if best is None:
        # no gluing passage was generated, so hi is still INF, at whose
        # radius 0 no existence passage is built either
        return zero, INF

    preds = [_existence_pred(A, B, tol)]
    refined = refine_gluing_cross(best.glued, tol=tol)  # best is a gluing passage
    if refined.host != best.carrier:
        preds.append(_passage_pred(passage_from_gluing(refined), tol))
    for pred in preds:
        if pred(hi):
            lo_p, hi = _tau_bisect(pred, hi, iters)
            lows.append(lo_p)
    return min(min(lows), hi), hi


def passage_from_json(obj, backend: str = "rational", tol: Scalar = 0) -> Passage:
    if isinstance(obj, str):
        obj = json.loads(obj, parse_float=json_number)
    return passage_from_gluing(glued_from_json(obj["gluing"], backend, tol))
