"""Probability measures on a finite metric space and their W1 distance.

W1 is solved once, by the transportation simplex over the host metric d,
and certified by that solve's own potentials (Kantorovich-Rubinstein
duality; Villani, *Optimal Transport: Old and New*, Thm 5.10).  At the
optimum the simplex holds u, v with u_i + v_j <= d_ij everywhere and
sum u mu + sum v nu equal to the primal cost.  Their c-transform
f(i) = min_j (d_ij - v_j) is 1-Lipschitz because the host passed
``validate_metric``'s triangle inequality (within its ``tol`` on floats),
and f >= u and -f >= v (take j = i), so sum f (mu - nu) is at least the
transport dual, which equals the primal.  Weak duality bounds the same sum
by W1, which the primal bounds from above.  So ``w1`` checks only that
sum f (mu - nu) equals the primal, exactly on rationals and within ``tol``
on floats; the value is then W1 and f an optimal potential.  No Lipschitz
scan runs: on rationals it cannot fail, and on floats its ratio
|f_i - f_j| / d_ij turns the rounding of f on a short pair into a false
refusal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .metric_core import FiniteMetricSpace, MetricError
from .numerics import Scalar, close
from .simplex import transportation_simplex


class HostMismatch(MetricError):
    """Operands live on different host spaces."""


@dataclass(frozen=True)
class Measure:
    host: FiniteMetricSpace
    weights: tuple


def measure(host: FiniteMetricSpace, weights: Sequence[Scalar], tol: Scalar = 0) -> Measure:
    w = tuple(weights)
    if len(w) != host.n:
        raise MetricError(f"{len(w)} weights for a host with {host.n} points")
    if any(wi < -tol for wi in w):
        raise MetricError("weights must be nonnegative")
    if abs(sum(w) - 1) > tol:
        raise MetricError(f"weights sum to {sum(w)}, expected 1")
    return Measure(host=host, weights=w)


def w1(mu: Measure, nu: Measure, tol: Scalar = 0) -> Scalar:
    """W1 by the transport simplex, certified by its own potentials."""
    return w1_dual_potential(mu, nu, tol=tol)[0]


def w1_dual_potential(mu: Measure, nu: Measure, tol: Scalar = 0):
    """W1 and an optimal potential f, 1-Lipschitz for the host metric: the
    c-transform of the transport simplex's column potentials."""
    if mu.host != nu.host:
        raise HostMismatch("mu and nu must share one host")
    space = mu.host
    primal, _, _, v = transportation_simplex(space.dist, mu.weights, nu.weights, tol=tol)
    f = tuple(min(dij - vj for dij, vj in zip(row, v)) for row in space.dist)
    dual = sum((wm - wn) * fi for wm, wn, fi in zip(mu.weights, nu.weights, f))
    if not close(primal, dual, tol):
        raise RuntimeError(f"transport value {primal} disagrees with dual value {dual}")
    return primal, f
