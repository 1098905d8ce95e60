"""Lipschitz constants, McShane extensions, and support-controlled lifts.

Real functions live on a fixed host space as value tuples.  Partial
functions (functions on a subspace) are passed as ``{host index: value}``
mappings; the host metric restricted to the subspace is the subspace
metric, so no separate space object is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .gluing import GluedSpace
from .metric_core import (
    FiniteMetricSpace,
    MetricError,
    PreconditionFailed,
    closed_ball,
    dist_to_set,
    eps_contained,
)
from .numerics import INF, Scalar, inv, is_inf, leq


class InfiniteLipschitz(MetricError):
    """Distinct values on a zero-distance pair."""


class EmptySubspace(MetricError):
    """McShane extension from no anchors."""


class SupportViolation(MetricError):
    """Function fails to vanish outside the stated support ball."""


@dataclass(frozen=True)
class RealFunction:
    host: FiniteMetricSpace
    values: tuple

    def __call__(self, i: int) -> Scalar:
        return self.values[i]


def real_function(host: FiniteMetricSpace, values) -> RealFunction:
    vals = tuple(values)
    if len(vals) != host.n:
        raise MetricError(f"{len(vals)} values for a host with {host.n} points")
    return RealFunction(host=host, values=vals)


def sup_norm(f: RealFunction) -> Scalar:
    return max(abs(v) for v in f.values) if f.values else 0


def lip_constant(f: RealFunction, tol: Scalar = 0) -> Scalar:
    if f.host.n == 0:
        raise MetricError("lipschitz constant needs at least one point")
    return _partial_lip(f.host, dict(enumerate(f.values)), tol)


def _partial_lip(host: FiniteMetricSpace, anchors: Mapping[int, Scalar], tol: Scalar = 0) -> Scalar:
    """Lipschitz constant of the anchor values on their subspace."""
    best: Scalar = 0
    items = sorted(anchors.items())
    for a, (i, vi) in enumerate(items):
        for j, vj in items[a + 1 :]:
            gap = abs(vi - vj)
            dij = host.d(i, j)
            if dij <= tol:
                if gap > tol:
                    raise InfiniteLipschitz(
                        f"points {host.points[i]!r},{host.points[j]!r} at distance {dij} "
                        f"carry distinct values"
                    )
                continue
            ratio = gap / dij
            if ratio > best:
                best = ratio
    return best


def mcshane_extend(
    host: FiniteMetricSpace, anchors: Mapping[int, Scalar], L: Scalar, tol: Scalar = 0
) -> RealFunction:
    """Pointwise-largest L-Lipschitz extension of the anchor values."""
    if not anchors:
        raise EmptySubspace("no anchors to extend")
    if _partial_lip(host, anchors, tol) > L + tol:
        raise MetricError(f"anchors are not {L}-Lipschitz")
    values = [min(v + L * host.d(i, z) for i, v in anchors.items()) for z in range(host.n)]
    return RealFunction(host=host, values=tuple(values))


def mcshane_extend_lower(
    host: FiniteMetricSpace, anchors: Mapping[int, Scalar], L: Scalar, tol: Scalar = 0
) -> RealFunction:
    """Pointwise-smallest L-Lipschitz extension, -mcshane_extend(-anchors).
    ``0 - v`` keeps a zero value unsigned, as max(v - L d) gives it."""
    upper = mcshane_extend(host, {i: -v for i, v in anchors.items()}, L, tol)
    return RealFunction(host=host, values=tuple(0 - v for v in upper.values))


def truncate_clip(g: RealFunction, M: Scalar) -> RealFunction:
    if M < 0:
        raise MetricError(f"clip level must be nonnegative, got {M}")
    values = tuple(max(min(v, M), -M) for v in g.values)
    return RealFunction(host=g.host, values=values)


def extend_compact_support(
    host: FiniteMetricSpace,
    anchors: Mapping[int, Scalar],
    x0: int,
    R: Scalar,
    tol: Scalar = 0,
) -> RealFunction:
    """Extend anchor values to the host with controlled norm and support.

    Contract: the extension g restricts to the anchors; ||g|| equals the
    anchor sup-norm M; supp(g) is inside ball(x0, R+M); lip(g) equals the
    anchor Lipschitz constant for nonconstant anchors with lip >= 1, and in
    general lip(g) <= max(lip, 1).
    """
    if not anchors:
        raise EmptySubspace("no anchors to extend")
    if x0 not in anchors:
        raise MetricError("x0 must carry an anchor value")
    for i, v in anchors.items():
        if v != 0 and not leq(host.d(x0, i), R, tol):
            raise SupportViolation(
                f"anchor at {host.points[i]!r} is {host.d(x0, i)} from the center, outside radius {R}"
            )
    M = max(abs(v) for v in anchors.values())
    if M == 0:
        return RealFunction(host=host, values=(0,) * host.n)
    L = _partial_lip(host, anchors, tol)
    f1 = mcshane_extend(host, anchors, L, tol)
    f2 = truncate_clip(f1, M)
    outside = [z for z in range(host.n) if not leq(host.d(x0, z), R + M, tol)]
    if not outside:
        return f2
    inner = closed_ball(host, x0, R, tol)
    values = []
    for z in range(host.n):
        a = dist_to_set(host, z, outside)
        b = dist_to_set(host, z, inner)
        t1 = M if a + b == 0 else inv(a + b, M * a)
        values.append(max(min(f2.values[z], t1), -t1))
    return RealFunction(host=host, values=tuple(values))


def band_lift(
    f: RealFunction,
    glued: GluedSpace,
    r: Scalar,
    eps: Scalar,
    tol: Scalar = 0,
) -> tuple:
    """Lift f from the X copy to the host and replicate it on the Y copy.

    Preconditions (PreconditionFailed carries the clause name): f is
    1-Lipschitz on X; f vanishes wherever dist(x0, .) >= r; eps < R/2 for
    R = dist(x0, X minus ball(x0, r)) (vacuous when R = +inf); the Y-ball
    of radius 2r+R around y0 is eps-contained in the X copy; the embedded
    basepoints are within eps.

    The stated conclusions (restriction, lip <= 1 for both outputs, norm
    bounds, ||g-h|| <= eps on Y, h = 0 beyond r+2eps, ||f|| <= R+r) are
    guaranteed when Y lies inside ball(y0, 2r+R); Y points beyond that
    radius can defeat the band construction by a margin up to eps.
    """
    x_space = glued.origin_x.space
    if f.host is not x_space and f.host != x_space:
        raise MetricError("f must live on the X space of the gluing")
    x0 = glued.origin_x.base
    if lip_constant(f, tol) > 1 + tol:
        raise PreconditionFailed("lipschitz", f"lip constant {lip_constant(f, tol)} exceeds 1")
    for i, v in enumerate(f.values):
        if v != 0 and leq(r, x_space.d(x0, i), tol):
            raise PreconditionFailed(
                "support", f"f({x_space.points[i]!r}) = {v} at distance {x_space.d(x0, i)} >= {r}"
            )
    ball_x = closed_ball(x_space, x0, r, tol)
    outside_x = [i for i in range(x_space.n) if i not in ball_x]
    R = dist_to_set(x_space, x0, outside_x)
    if not is_inf(R) and not 2 * eps < R:
        raise PreconditionFailed("radius-margin", f"eps = {eps} but the margin requires eps < {R}/2")
    host = glued.host
    y_space = glued.origin_y.space
    y0 = glued.origin_y.base
    outer = INF if is_inf(R) else 2 * r + R
    ball_y_outer = closed_ball(y_space, y0, outer, tol)
    y_image = [glued.embed_y[j] for j in ball_y_outer]
    if not eps_contained(host, y_image, glued.embed_x, eps, tol):
        raise PreconditionFailed(
            "ball-containment", f"the Y-ball of radius {outer} is not {eps}-contained in X"
        )
    if not leq(host.d(glued.x0_host, glued.y0_host), eps, tol):
        raise PreconditionFailed(
            "basepoint", f"basepoints are {host.d(glued.x0_host, glued.y0_host)} apart, above {eps}"
        )
    anchors = {glued.embed_x[i]: f.values[i] for i in range(x_space.n)}
    g = extend_compact_support(host, anchors, glued.x0_host, r, tol)
    band = [
        glued.embed_y[j]
        for j in range(y_space.n)
        if leq(r + 2 * eps, y_space.d(y0, j), tol) and leq(y_space.d(y0, j), outer, tol)
    ]
    h_values = []
    for j in range(y_space.n):
        gy = g.values[glued.embed_y[j]]
        if band:
            t2 = dist_to_set(host, glued.embed_y[j], band)
            h_values.append(max(min(gy, t2), -t2))
        else:
            h_values.append(gy)
    h = RealFunction(host=y_space, values=tuple(h_values))
    return g, h
