"""Passages between pointed spaces: admissibility, extent, lift bounds,
composition, and the radius-indexed propinquity built from them.

A passage carries two embedded copies of pointed spaces inside one carrier.
Metric passages use distance-preserving embeddings (a gluing); composed
passages carry a polyhedral seminorm whose functionals are all edge
differences, so the carrier matrix stored here is the seminorm's induced
shortest-path metric and McShane arguments apply to it verbatim.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .gluing import (
    GluedSpace,
    NotDistancePreserving,
    correspondence,
    correspondence_distortion,
    correspondence_stream,
    glue_from_correspondence,
    glued_from_json,
    glued_to_json,
)
from .kantorovich import PolyhedralSeminorm, lipschitz_seminorm_of, polyhedral_seminorm
from .lipschitz import (
    RealFunction,
    _partial_lip,
    lip_constant,
    mcshane_extend,
    mcshane_extend_lower,
    real_function,
    sup_norm,
)
from .local_gh import NonPositiveRadius, refine_gluing_cross
from .metric_core import (
    FiniteMetricSpace,
    MetricError,
    PointedSpace,
    PreconditionFailed,
    _trusted_space,
    _unique_labels,
    diameter,
    dist_to_set,
    min_plus_closure,
    validate_metric,
)
from .numerics import INF, SQRT2_OVER_4, Scalar, above_floor, half as _half, leq
from .simplex import LPInfeasible, solve_lp_general


class Infeasible(MetricError):
    """A lift set that admissibility promises to be nonempty came up empty."""


class RadiusConditionViolated(MetricError):
    """Composition needs t + 4*max(eps1, eps2) < r with both eps admissible."""


class DomainMismatch(MetricError):
    """Composition needs codomain(first) = domain(second) exactly."""


class RadiusGap(MetricError):
    """The direct construction covers r >= both diameters or r < both only."""


def _quarter(v: Scalar) -> Scalar:
    return v / 4 if isinstance(v, float) else Fraction(v, 4)


def _inv(v: Scalar) -> Scalar:
    return 1 / v if isinstance(v, float) else Fraction(1) / Fraction(v)


@dataclass(frozen=True)
class ClassicalPPQMS:
    """A pointed metric space read as (C0(X), Lip, C0(X), x0).

    Every finite metric space satisfies the proper-quantum-metric clauses
    (properness, approximate unit, seminorm domain, ...) automatically, so
    the validator adds only separation to the boundary's metric check.
    """

    pointed: PointedSpace

    @property
    def space(self) -> FiniteMetricSpace:
        return self.pointed.space

    @property
    def base(self) -> int:
        return self.pointed.base

    @property
    def n(self) -> int:
        return self.pointed.n


def classical_ppqms(p: PointedSpace) -> ClassicalPPQMS:
    # The boundary set `strict`; re-validating only words the separation error.
    if not p.space.strict:
        validate_metric(p.space.points, p.space.dist, require_strict=True)
    if not 0 <= p.base < p.space.n:
        raise MetricError(f"basepoint index {p.base} out of range")
    return ClassicalPPQMS(pointed=p)


def _as_classical(obj) -> ClassicalPPQMS:
    if isinstance(obj, ClassicalPPQMS):
        return obj
    if isinstance(obj, PointedSpace):
        return classical_ppqms(obj)
    raise MetricError(f"expected a pointed space, got {type(obj).__name__}")


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
    kind: str  # "metric" | "composed"
    carrier: FiniteMetricSpace
    embed_x: tuple
    embed_y: tuple
    domain: ClassicalPPQMS
    codomain: ClassicalPPQMS
    seminorm: PolyhedralSeminorm | None = None
    info: ComposedInfo | None = None
    glued: GluedSpace | None = None

    @property
    def x0_host(self) -> int:
        return self.embed_x[self.domain.base]

    @property
    def y0_host(self) -> int:
        return self.embed_y[self.codomain.base]


def passage_from_gluing(glued: GluedSpace) -> Passage:
    return Passage(
        kind="metric",
        carrier=glued.host,
        embed_x=tuple(glued.embed_x),
        embed_y=tuple(glued.embed_y),
        domain=classical_ppqms(glued.origin_x),
        codomain=classical_ppqms(glued.origin_y),
        glued=glued,
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
    for i in range(B.n):
        for j in range(i + 1, B.n):
            if B.space.d(i, j) != A.space.d(m[i], m[j]):
                raise NotDistancePreserving(
                    "isometry",
                    (i, j),
                    f"d({B.space.points[i]!r},{B.space.points[j]!r}) is not preserved",
                )
    glued = GluedSpace(
        host=A.space,
        embed_x=tuple(range(A.n)),
        embed_y=m,
        origin_x=A.pointed,
        origin_y=B.pointed,
    )
    return Passage(
        kind="metric",
        carrier=A.space,
        embed_x=tuple(range(A.n)),
        embed_y=m,
        domain=A,
        codomain=B,
        glued=glued,
    )


def identity_passage(a) -> Passage:
    A = _as_classical(a)
    return passage_from_isometry(A, A, tuple(range(A.n)))


def inverse(p: Passage) -> Passage:
    swapped = None
    if p.glued is not None:
        swapped = GluedSpace(
            host=p.glued.host,
            embed_x=p.glued.embed_y,
            embed_y=p.glued.embed_x,
            origin_x=p.glued.origin_y,
            origin_y=p.glued.origin_x,
        )
    return Passage(
        kind=p.kind,
        carrier=p.carrier,
        embed_x=p.embed_y,
        embed_y=p.embed_x,
        domain=p.codomain,
        codomain=p.domain,
        seminorm=p.seminorm,
        info=p.info,
        glued=swapped,
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

    if rec(0):
        return tuple(assign[j] for j in range(n))
    return None


def k_family(p: Passage, eps: Scalar, tol: Scalar = 0) -> Callable[[Scalar], frozenset]:
    """The canonical compact family t -> embedX(ballX(t+2eps)) u embedY(ballY(t+2eps))."""
    X, x0 = p.domain.space, p.domain.base
    Y, y0 = p.codomain.space, p.codomain.base

    def kf(t: Scalar) -> frozenset:
        out = {p.embed_x[i] for i in range(X.n) if leq(X.d(x0, i), t + 2 * eps, tol)}
        out |= {p.embed_y[j] for j in range(Y.n) if leq(Y.d(y0, j), t + 2 * eps, tol)}
        return frozenset(out)

    return kf


def _zero_set(p: Passage, r: Scalar, eps: Scalar, K: frozenset, tol: Scalar) -> tuple:
    Y, y0 = p.codomain.space, p.codomain.base
    zero = set(range(p.carrier.n)) - K
    zero |= {p.embed_y[j] for j in range(Y.n) if not leq(Y.d(y0, j), r + 4 * eps, tol)}
    return tuple(sorted(zero))


def check_left_admissible(
    p: Passage, r: Scalar, eps: Scalar, K: Iterable[int], tol: Scalar = 0
) -> tuple:
    """Evaluate the one-sided admissibility clauses; returns (ok, certificate).

    Clauses are the finite commutative reduction: (1) the r-ball lands in K;
    (2) K stays within eps of the widened-ball image; (3) every point's
    escape distance is dominated by its carrier distance to the zero region
    (the universal-lift criterion; checked on the bump family for composed
    carriers).  Clauses (4) and (5) hold by construction and are asserted.
    """
    if r <= 0:
        raise PreconditionFailed("radius", f"radius must be positive, got {r}")
    if eps <= 0:
        raise PreconditionFailed("tolerance", f"tolerance must be positive, got {eps}")
    carrier = p.carrier
    Kset = frozenset(K)
    if any(not 0 <= z < carrier.n for z in Kset):
        raise PreconditionFailed("K", "K must be a set of carrier indices")
    X, x0 = p.domain.space, p.domain.base
    mode = "exact" if p.kind == "metric" else "family"

    ball_r = [i for i in range(X.n) if leq(X.d(x0, i), r, tol)]
    for i in ball_r:
        if p.embed_x[i] not in Kset:
            return False, {"clause": 1, "witness": X.points[i], "mode": mode}

    wide_img = [p.embed_x[i] for i in range(X.n) if leq(X.d(x0, i), r + 4 * eps, tol)]
    for z in sorted(Kset):
        if not leq(dist_to_set(carrier, z, wide_img), eps, tol):
            return False, {"clause": 2, "witness": carrier.points[z], "mode": mode}

    zero = _zero_set(p, r, eps, Kset, tol)
    complement = [i for i in range(X.n) if not leq(X.d(x0, i), r, tol)]
    if p.kind == "metric":
        for i in range(X.n):
            lhs = dist_to_set(X, i, complement)
            rhs = dist_to_set(carrier, p.embed_x[i], zero)
            if not leq(lhs, rhs, tol):
                return False, {"clause": 3, "witness": X.points[i], "mode": mode}
    else:
        ok, witness = _bump_family_feasible(p, complement, zero, tol)
        if not ok:
            return False, {"clause": 3, "witness": witness, "mode": mode}
    return True, {"clauses": "1-3 checked, 4-5 automatic", "mode": mode, "zero_size": len(zero)}


def _bump_family_feasible(p: Passage, complement: list, zero: tuple, tol: Scalar) -> tuple:
    """Lift feasibility of the maximal bump at each domain point.

    For edge-difference seminorms the carrier matrix is the induced metric,
    so feasibility is anchor compatibility; results cover the generating
    bumps, not every local function (reported as mode "family").
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
        anchors: dict[int, Scalar] = {z: 0 for z in zero}
        conflict = False
        for i in range(X.n):
            v = peak - X.d(pidx, i)
            if v < 0:
                v = 0
            idx = p.embed_x[i]
            if idx in anchors and anchors[idx] != v:
                conflict = True
                break
            anchors[idx] = v
        if conflict:
            return False, X.points[pidx]
        try:
            if _partial_lip(carrier, anchors, tol) > 1 + tol:
                return False, X.points[pidx]
        except MetricError:
            return False, X.points[pidx]
    return True, None


def _base_rows(p: Passage) -> set:
    """Distances from each basepoint to its own space, collected through
    every space a nested composition touches."""
    X, x0 = p.domain.space, p.domain.base
    Y, y0 = p.codomain.space, p.codomain.base
    vals = {X.d(x0, i) for i in range(X.n)} | {Y.d(y0, j) for j in range(Y.n)}
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


def check_admissible(
    p: Passage,
    r: Scalar,
    eps: Scalar,
    k_of_t: Callable[[Scalar], Iterable[int]] | None = None,
    tol: Scalar = 0,
) -> tuple:
    """Full admissibility of eps at radius r: basepoint proximity plus left
    and right admissibility of (eps, K_t) at every radius cell in (0, r].

    All clause quantities depend on t only through closed-ball memberships,
    so probing each breakpoint (cells are [b_k, b_{k+1})), one sub-minimal
    point, and r itself decides the whole continuum.
    """
    if r <= 0 or eps <= 0:
        return False, {"reason": "nonpositive radius or tolerance"}
    gap = p.carrier.d(p.x0_host, p.y0_host)
    if not leq(gap, eps, tol):
        return False, {"reason": "basepoint", "gap": gap}
    base_values = _base_rows(p)
    shifts = {0, 2 * eps, 4 * eps} | _family_shifts(p, eps)
    bps = set()
    for d in base_values:
        for s in shifts:
            v = d - s
            if 0 < v <= r:
                bps.add(v)
    probes = sorted(bps)
    first = probes[0] if probes else r
    probes = [_half(first)] + probes
    if r not in probes:
        probes.append(r)
    if k_of_t is not None:
        kf, family = k_of_t, "supplied"
    elif p.info is not None:
        # canonical balls never cover the middle copies of a bridged carrier,
        # so composed passages default to the union family of their parts
        kf, family = composed_k_family(p, tol), "composed-union"
    else:
        kf, family = k_family(p, eps, tol), "canonical"
    inv = inverse(p)
    for t in probes:
        K = frozenset(kf(t))
        ok, cert = check_left_admissible(p, t, eps, K, tol)
        if not ok:
            return False, {"t": t, "side": "left", **cert}
        ok, cert = check_left_admissible(inv, t, eps, K, tol)
        if not ok:
            return False, {"t": t, "side": "right", **cert}
    return True, {"probes": len(probes), "family": family}


def _eps_candidates(p: Passage, r: Scalar) -> list:
    """Tolerances where the admissibility predicate can flip: distance
    values, their halves and quarters, and half/quarter gaps between
    basepoint distances and r."""
    carrier = p.carrier
    base_values = _base_rows(p)
    cmp_values = {
        carrier.d(i, j) for i in range(carrier.n) for j in range(i + 1, carrier.n)
    }
    cands = set()
    for v in base_values | cmp_values | {r}:
        if v > 0:
            cands.add(v)
            cands.add(_half(v))
            cands.add(_quarter(v))
    shifted = base_values | {r}
    for v in shifted:
        for w in shifted | {0}:
            diff = v - w
            if diff > 0:
                cands.add(_half(diff))
                cands.add(_quarter(diff))
    return sorted(cands)


def _extent_scan(p: Passage, r: Scalar, cutoff: Scalar = INF, tol: Scalar = 0) -> tuple:
    """(infimum of admissible tolerances below cutoff, an attained admissible
    probe or None).  Scans candidates ascending with one interior probe per
    gap; the infimum is the largest candidate at or below the first
    admissible probe."""
    cands = _eps_candidates(p, r)
    if not cands:
        ok, _ = check_admissible(p, r, 1, tol=tol)
        return (0, 1) if ok else (INF, None)
    gap = p.carrier.d(p.x0_host, p.y0_host)
    if tol == 0 and gap > 0:
        # basepoint proximity forces eps >= gap, and gap is itself a candidate
        start = bisect_left(cands, gap)
    else:
        start = 0
        probe0 = _half(cands[0])
        if probe0 < cutoff:
            ok, _ = check_admissible(p, r, probe0, tol=tol)
            if ok:
                return 0, probe0
    for i in range(start, len(cands)):
        c = cands[i]
        if c >= cutoff:
            prev = cands[i - 1] if i > start else None
            if prev is not None:
                probe = _half(prev + cutoff)
                if probe > prev:
                    ok, _ = check_admissible(p, r, probe, tol=tol)
                    if ok:
                        return prev, probe
            return INF, None
        ok, _ = check_admissible(p, r, c, tol=tol)
        if ok:
            return c, c
        nxt = cands[i + 1] if i + 1 < len(cands) else 2 * c + 1
        mid = _half(c + min(nxt, cutoff)) if nxt >= cutoff else _half(c + nxt)
        if mid > c:
            ok, _ = check_admissible(p, r, mid, tol=tol)
            if ok:
                return c, mid
    return INF, None


def extent(p: Passage, r: Scalar, tol: Scalar = 0) -> Scalar:
    """Infimum of admissible tolerances at radius r; +inf when none exists."""
    if r <= 0:
        raise NonPositiveRadius(f"radius must be positive, got {r}")
    value, _ = _extent_scan(p, r, INF, tol)
    return value


def smallest_admissible(p: Passage, r: Scalar, tol: Scalar = 0) -> Scalar | None:
    """An actually admissible tolerance near the extent (the first admissible
    scan probe), or None; the extent itself need not be attained."""
    if r <= 0:
        raise NonPositiveRadius(f"radius must be positive, got {r}")
    _, attained = _extent_scan(p, r, INF, tol)
    return attained


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

    Metric carriers use the McShane closed forms; composed carriers solve
    two small LPs per coordinate against the stored seminorm.
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
    zero = _zero_set(p, r, eps, Kset, tol)
    anchors: dict[int, Scalar] = {z: 0 for z in zero}
    for i in range(X.n):
        idx = p.embed_x[i]
        if idx in anchors and anchors[idx] != a(i):
            return _infeasible_bounds(p, strict)
        anchors[idx] = a(i)
    if p.kind == "metric":
        try:
            hi = mcshane_extend(carrier, anchors, l, tol).values
            lo = mcshane_extend_lower(carrier, anchors, l, tol).values
        except MetricError:
            return _infeasible_bounds(p, strict)
    else:
        lo_list = []
        hi_list = []
        sem = p.seminorm
        if sem is None:
            raise MetricError("composed passage without a seminorm")
        eq_rows = [[1 if k == idx else 0 for k in range(carrier.n)] for idx in anchors]
        eq_b = list(anchors.values())
        for i, j in sem.zero_pairs:
            row = [0] * carrier.n
            row[i] = 1
            row[j] = -1
            eq_rows.append(row)
            eq_b.append(0)
        ub_rows = []
        ub_b = []
        for c in sem.functionals:
            ub_rows.append(list(c))
            ub_b.append(l)
            ub_rows.append([-v for v in c])
            ub_b.append(l)
        try:
            for z in range(carrier.n):
                obj = [0] * carrier.n
                obj[z] = 1
                lo_z, _ = solve_lp_general(obj, eq_rows, eq_b, ub_rows, ub_b, tol)
                obj[z] = -1
                neg_hi, _ = solve_lp_general(obj, eq_rows, eq_b, ub_rows, ub_b, tol)
                lo_list.append(lo_z)
                hi_list.append(-neg_hi)
        except LPInfeasible:
            return _infeasible_bounds(p, strict)
        lo = tuple(lo_list)
        hi = tuple(hi_list)
    target_lo = tuple(lo[p.embed_y[j]] for j in range(p.codomain.n))
    target_hi = tuple(hi[p.embed_y[j]] for j in range(p.codomain.n))
    return TargetBounds(
        lo=tuple(lo), hi=tuple(hi), target_lo=target_lo, target_hi=target_hi, feasible=True
    )


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
    lie_ok: bool
    diameter_value: Scalar
    norm_bound: Scalar

    @property
    def all_ok(self) -> bool:
        return (
            self.norm_ok
            and self.linearity_ok
            and self.diameter_ok
            and self.jordan_ok
            and self.lie_ok
        )


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
    The Lie clause is identically zero for commutative carriers."""
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

    sum_fn = real_function(X, [a(i) + t * a_prime(i) for i in range(X.n)])
    bsum = lift_target_bounds(p, sum_fn, (1 + abs(t)) * l, r, eps, Kset, tol=tol)
    linearity_ok = True
    for ka, kb in combos:
        fa, fb = lifts_a[ka], lifts_b[kb]
        for j in range(p.codomain.n):
            v = fa[p.embed_y[j]] + t * fb[p.embed_y[j]]
            if not (leq(bsum.target_lo[j], v, tol) and leq(v, bsum.target_hi[j], tol)):
                linearity_ok = False

    diameter_value = max(
        ba.target_hi[j] - ba.target_lo[j] for j in range(p.codomain.n)
    )
    diameter_ok = leq(diameter_value, 2 * l * eps, tol)

    jordan_level = l * (sup_norm(a) + sup_norm(a_prime) + 2 * l * eps)
    prod_fn = real_function(X, [a(i) * a_prime(i) for i in range(X.n)])
    bprod = lift_target_bounds(p, prod_fn, jordan_level, r, eps, Kset, tol=tol)
    jordan_ok = True
    for ka, kb in combos:
        fa, fb = lifts_a[ka], lifts_b[kb]
        for j in range(p.codomain.n):
            v = fa[p.embed_y[j]] * fb[p.embed_y[j]]
            if not (leq(bprod.target_lo[j], v, tol) and leq(v, bprod.target_hi[j], tol)):
                jordan_ok = False

    return FundamentalReport(
        norm_ok=norm_ok,
        linearity_ok=linearity_ok,
        diameter_ok=diameter_ok,
        jordan_ok=jordan_ok,
        lie_ok=True,
        diameter_value=diameter_value,
        norm_bound=bound,
    )


def _lift_seminorm(p: Passage) -> PolyhedralSeminorm:
    return p.seminorm if p.seminorm is not None else lipschitz_seminorm_of(p.carrier)


def compose(
    p1: Passage,
    p2: Passage,
    alpha: Scalar,
    t: Scalar,
    r: Scalar | None = None,
    eps1: Scalar | None = None,
    eps2: Scalar | None = None,
    tol: Scalar = 0,
) -> Passage:
    """Bridge two passages through their shared middle space.

    The carrier is the disjoint union with bridge edges of length alpha
    between the two copies of the middle space; the seminorm is the max of
    the component seminorms and the scaled cross differences.  The shifted
    union compact family certifies eps1 + eps2 + alpha as t-admissible, so
    extent(result, t) <= eps1 + eps2 + alpha.
    """
    if alpha <= 0:
        raise PreconditionFailed("alpha", f"bridge width must be positive, got {alpha}")
    if t <= 0:
        raise NonPositiveRadius(f"target radius must be positive, got {t}")
    if p1.codomain.pointed != p2.domain.pointed:
        raise DomainMismatch("codomain of the first passage must equal domain of the second")
    if r is None:
        r = 2 * t
    if eps1 is None:
        _, eps1 = _extent_scan(p1, r, INF, tol)
    if eps2 is None:
        _, eps2 = _extent_scan(p2, r, INF, tol)
    if eps1 is None or eps2 is None:
        raise RadiusConditionViolated(f"no admissible tolerance at radius {r}")
    if not t + 4 * max(eps1, eps2) < r:
        raise RadiusConditionViolated(
            f"need t + 4*max(eps1, eps2) < r, got {t} + 4*{max(eps1, eps2)} vs {r}"
        )
    n1, n2 = p1.carrier.n, p2.carrier.n
    taken: set = set()
    labels = _unique_labels("A:", p1.carrier.points, taken) + _unique_labels(
        "B:", p2.carrier.points, taken
    )
    big = [[INF] * (n1 + n2) for _ in range(n1 + n2)]
    for i in range(n1):
        for j in range(n1):
            big[i][j] = p1.carrier.d(i, j)
    for i in range(n2):
        for j in range(n2):
            big[n1 + i][n1 + j] = p2.carrier.d(i, j)
    mid_space = p1.codomain.space
    bridges = []
    for b in range(mid_space.n):
        i1 = p1.embed_y[b]
        i2 = n1 + p2.embed_x[b]
        if alpha < big[i1][i2]:
            big[i1][i2] = alpha
            big[i2][i1] = alpha
        bridges.append((i1, i2))
    carrier = _trusted_space(labels, min_plus_closure(big))

    sem1 = _lift_seminorm(p1)
    sem2 = _lift_seminorm(p2)
    functionals = [tuple(c) + (0,) * n2 for c in sem1.functionals]
    functionals += [(0,) * n1 + tuple(c) for c in sem2.functionals]
    inv_alpha = _inv(alpha)
    for i1, i2 in bridges:
        row = [0] * (n1 + n2)
        row[i1] = inv_alpha
        row[i2] = -inv_alpha
        functionals.append(tuple(row))
    zero_pairs = list(sem1.zero_pairs) + [(n1 + i, n1 + j) for i, j in sem2.zero_pairs]
    sem = polyhedral_seminorm(carrier, functionals, zero_pairs, metric=carrier)

    info = ComposedInfo(first=p1, second=p2, alpha=alpha, eps1=eps1, eps2=eps2, offset=n1)
    return Passage(
        kind="composed",
        carrier=carrier,
        embed_x=tuple(p1.embed_x),
        embed_y=tuple(n1 + p2.embed_y[j] for j in range(p2.codomain.n)),
        domain=p1.domain,
        codomain=p2.codomain,
        seminorm=sem,
        info=info,
    )


def _witness_family(p: Passage, eps: Scalar, tol: Scalar = 0) -> Callable[[Scalar], frozenset]:
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


def existence_tunnel(a, b, r: Scalar, tol: Scalar = 0) -> Passage:
    """A passage with finite extent at radius r, by the two direct cases:
    compact collapse (r at least both diameters, any correspondence gluing)
    or the uniform-bridge direct sum (r strictly below both diameters and
    both escape radii), whose extent at r is at most the bridge width D."""
    A = _as_classical(a)
    B = _as_classical(b)
    if r <= 0:
        raise NonPositiveRadius(f"radius must be positive, got {r}")
    X, x0 = A.space, A.base
    Y, y0 = B.space, B.base
    dx, dy = diameter(X), diameter(Y)
    if leq(max(dx, dy), r, tol):
        total = correspondence(
            [(i, j) for i in range(X.n) for j in range(Y.n)], X.n, Y.n
        )
        return passage_from_gluing(glue_from_correspondence(A.pointed, B.pointed, total))
    if not (r < dx and r < dy):
        raise RadiusGap(f"radius {r} lies between the space diameters {dx} and {dy}")
    compl_x = [i for i in range(X.n) if not leq(X.d(x0, i), r, tol)]
    compl_y = [j for j in range(Y.n) if not leq(Y.d(y0, j), r, tol)]
    if not compl_x or not compl_y:
        raise RadiusGap("the basepoint ball covers a space whose diameter exceeds the radius")
    d_cap = max(
        max(dist_to_set(X, i, compl_x) for i in range(X.n)),
        max(dist_to_set(Y, j, compl_y) for j in range(Y.n)),
    )
    n1, n2 = X.n, Y.n
    taken: set = set()
    labels = _unique_labels("A:", X.points, taken) + _unique_labels("B:", Y.points, taken)
    big = [[INF] * (n1 + n2) for _ in range(n1 + n2)]
    for i in range(n1):
        for j in range(n1):
            big[i][j] = X.d(i, j)
    for i in range(n2):
        for j in range(n2):
            big[n1 + i][n1 + j] = Y.d(i, j)
    for i in range(n1):
        for j in range(n2):
            big[i][n1 + j] = d_cap
            big[n1 + j][i] = d_cap
    carrier = _trusted_space(labels, min_plus_closure(big))
    functionals = [tuple(c) + (0,) * n2 for c in lipschitz_seminorm_of(X).functionals]
    functionals += [(0,) * n1 + tuple(c) for c in lipschitz_seminorm_of(Y).functionals]
    inv_d = _inv(d_cap)
    for i in range(n1):
        for j in range(n2):
            row = [0] * (n1 + n2)
            row[i] = inv_d
            row[n1 + j] = -inv_d
            functionals.append(tuple(row))
    sem = polyhedral_seminorm(carrier, functionals, (), metric=carrier)
    return Passage(
        kind="composed",
        carrier=carrier,
        embed_x=tuple(range(n1)),
        embed_y=tuple(n1 + j for j in range(n2)),
        domain=A,
        codomain=B,
        seminorm=sem,
    )


def _bridge_widths(dis: Scalar) -> tuple:
    """Bridge widths tried per correspondence.  The minimal valid width
    (half the distortion) keeps matched copies closest, but wider bridges
    can push unmatched far points outside the escape-distance clause, so a
    couple of doublings are searched too."""
    h = _half(dis)
    return (h,) if dis == 0 else (h, dis, 2 * dis)


def _gluing_variants(A: ClassicalPPQMS, B: ClassicalPPQMS, rel) -> Iterable[tuple]:
    """(base_gap, passage factory) per bridge width, cheap prune data first."""
    X, x0 = A.space, A.base
    Y, y0 = B.space, B.base
    dis = correspondence_distortion(rel, X, Y)
    for eta in _bridge_widths(dis):
        base_gap = min(X.d(x0, i) + eta + Y.d(j, y0) for i, j in rel.pairs)
        yield base_gap, eta


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
    iso = _find_base_isometry(A.pointed, B.pointed)
    if iso is not None:
        return 0, passage_from_isometry(A, B, iso)
    best_val: Scalar = INF
    best: Passage | None = None
    prune = lambda lower: lower >= best_val  # first found wins ties
    for rel in correspondence_stream(A.pointed, B.pointed, search, budget, seed, samples, prune):
        for k, (base_gap, eta) in enumerate(_gluing_variants(A, B, rel)):
            if k and base_gap >= best_val:  # the stream tested the narrowest width
                continue
            p = passage_from_gluing(
                glue_from_correspondence(A.pointed, B.pointed, rel, eta)
            )
            val, _ = _extent_scan(p, r, best_val, tol)
            if val < best_val:
                best_val, best = val, p
    try:
        p_ex = existence_tunnel(A, B, r, tol)
    except MetricError:
        p_ex = None
    if p_ex is not None:
        val, _ = _extent_scan(p_ex, r, best_val, tol)
        if val < best_val:
            best_val, best = val, p_ex
    if best is not None and best.glued is not None:
        refined = refine_gluing_cross(best.glued, tol=tol)
        if refined.host != best.glued.host:
            p_ref = passage_from_gluing(refined)
            val, _ = _extent_scan(p_ref, r, best_val, tol)
            if val < best_val:
                best_val, best = val, p_ref
    return best_val, best


def _tau_bisect(pred: Callable[[Scalar], bool], hi: Scalar, iters: int) -> tuple:
    """Bracket inf{e > 0 : pred(e)} for a monotone predicate true at hi."""
    lo: Scalar = 0
    for _ in range(iters):
        m = _half(lo + hi)
        if pred(m):
            hi = m
        else:
            lo = m
    return lo, hi


def _passage_pred(p: Passage, tol: Scalar) -> Callable[[Scalar], bool]:
    """e -> does p beat tolerance e at radius 1/e.  Monotone: the extent is
    nondecreasing in the radius, so shrinking 1/e only helps."""

    def pred(e: Scalar) -> bool:
        val, _ = _extent_scan(p, _inv(e), e, tol)
        return val < e

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
    """Rational bracket [lo, hi] around inf{e : some searched passage has
    extent below e at radius 1/e}; (0, 0) exactly for isometric pairs.

    The infimum commutes with the passage search, so each passage gets its
    own monotone threshold bisection, pruned by the best upper end so far;
    hi is always certified by a concrete passage.
    """
    A = _as_classical(a)
    B = _as_classical(b)
    if _find_base_isometry(A.pointed, B.pointed) is not None:
        return 0, 0
    variants = []
    for rel in correspondence_stream(A.pointed, B.pointed, search, budget, seed, samples):
        for base_gap, eta in _gluing_variants(A, B, rel):
            variants.append((base_gap, rel, eta))
    first = passage_from_gluing(
        glue_from_correspondence(A.pointed, B.pointed, variants[0][1], variants[0][2])
    )
    pred0 = _passage_pred(first, tol)
    hi: Scalar = 1
    for _ in range(64):
        if pred0(hi):
            break
        hi = 2 * hi
    else:
        return 0, INF
    lo, hi = _tau_bisect(pred0, hi, iters)
    best = first
    lows = [lo]
    for base_gap, rel, eta in variants[1:]:
        if base_gap >= hi:
            continue
        p = passage_from_gluing(glue_from_correspondence(A.pointed, B.pointed, rel, eta))
        pred = _passage_pred(p, tol)
        if not pred(hi):
            continue
        lo_p, hi = _tau_bisect(pred, hi, iters)
        lows.append(lo_p)
        best = p

    def ex_pred(e: Scalar) -> bool:
        try:
            p_ex = existence_tunnel(A, B, _inv(e), tol)
        except MetricError:
            return False
        val, _ = _extent_scan(p_ex, _inv(e), e, tol)
        return val < e

    if ex_pred(hi):
        lo_ex, hi = _tau_bisect(ex_pred, hi, iters)
        lows.append(lo_ex)

    if best.glued is not None:
        refined = refine_gluing_cross(best.glued, tol=tol)
        if refined.host != best.glued.host:
            pred_r = _passage_pred(passage_from_gluing(refined), tol)
            if pred_r(hi):
                lo_r, hi = _tau_bisect(pred_r, hi, iters)
                lows.append(lo_r)
    return min(min(lows), hi), hi


def propinquity(
    a,
    b,
    search: str = "exact",
    budget: int = 12,
    seed: int = 0,
    samples: int = 64,
    iters: int = 40,
    tol: Scalar = 0,
) -> tuple:
    """(truncated, raw) radius-threshold propinquity; raw is the certified
    upper end of the bisection bracket (exact for isometric pairs), and
    truncated applies the sqrt(2)/4 floor."""
    lo, hi = propinquity_bracket(a, b, search, budget, seed, samples, iters, tol)
    raw = hi
    truncated = raw if above_floor(raw) else SQRT2_OVER_4
    return truncated, raw


def passage_to_json(p: Passage) -> dict:
    if p.glued is None:
        raise MetricError("only gluing-backed passages serialize to JSON")
    return {"gluing": glued_to_json(p.glued)}


def passage_from_json(obj, backend: str = "rational", tol: Scalar = 0) -> Passage:
    import json as _json

    if isinstance(obj, str):
        obj = _json.loads(obj)
    return passage_from_gluing(glued_from_json(obj["gluing"], backend, tol))
