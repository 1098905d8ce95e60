"""Probability measures, polyhedral seminorms, and W1 distances.

The dual route (maximize <mu - nu, f> over the seminorm's unit ball) works
for every polyhedral seminorm and is solved as an equality-form LP whose
dual vector is the optimal potential f.  The primal route is a transport
LP and needs a metric-backed seminorm; `both` cross-checks the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .metric_core import FiniteMetricSpace, MetricError
from .numerics import INF, Scalar, close, inv
from .simplex import LPInfeasible, solve_lp, transportation_simplex


class HostMismatch(MetricError):
    """Operands live on different host spaces."""


class PrimalUnavailable(MetricError):
    """Transport LP requested for a seminorm with no backing metric."""


@dataclass(frozen=True)
class Measure:
    host: FiniteMetricSpace
    weights: tuple


@dataclass(frozen=True)
class PolyhedralSeminorm:
    host: FiniteMetricSpace
    functionals: tuple  # coefficient tuples, each summing to zero
    zero_pairs: tuple = ()  # index pairs forced to equal values
    metric: FiniteMetricSpace | None = None  # set when the seminorm is a metric's

    def value(self, values: Sequence[Scalar], tol: Scalar = 0) -> Scalar:
        for i, j in self.zero_pairs:
            if abs(values[i] - values[j]) > tol:
                return INF
        best: Scalar = 0
        for c in self.functionals:
            v = abs(sum(ck * fk for ck, fk in zip(c, values)))
            if v > best:
                best = v
        return best


def measure(host: FiniteMetricSpace, weights: Sequence[Scalar], tol: Scalar = 0) -> Measure:
    w = tuple(weights)
    if len(w) != host.n:
        raise MetricError(f"{len(w)} weights for a host with {host.n} points")
    if any(wi < -tol for wi in w):
        raise MetricError("weights must be nonnegative")
    if abs(sum(w) - 1) > tol:
        raise MetricError(f"weights sum to {sum(w)}, expected 1")
    return Measure(host=host, weights=w)


def lipschitz_seminorm_of(space: FiniteMetricSpace) -> PolyhedralSeminorm:
    functionals = []
    zero_pairs = []
    for i in range(space.n):
        for j in range(i + 1, space.n):
            dij = space.d(i, j)
            if dij == 0:
                zero_pairs.append((i, j))
                continue
            c = [0] * space.n
            c[i] = inv(dij)
            c[j] = -c[i]
            functionals.append(tuple(c))
    return PolyhedralSeminorm(
        host=space, functionals=tuple(functionals), zero_pairs=tuple(zero_pairs), metric=space
    )


def w1(
    mu: Measure,
    nu: Measure,
    seminorm: PolyhedralSeminorm,
    method: str = "both",
    tol: Scalar = 0,
) -> Scalar:
    if mu.host != nu.host or mu.host != seminorm.host:
        raise HostMismatch("mu, nu, and the seminorm must share one host")
    if method not in ("primal", "dual", "both"):
        raise MetricError(f"unknown method {method!r}")
    if method in ("primal", "both") and seminorm.metric is None:
        raise PrimalUnavailable("transport LP needs a metric-backed seminorm")
    primal = dual = None
    if method in ("primal", "both"):
        primal, _ = transportation_simplex(
            seminorm.metric.dist, mu.weights, nu.weights, tol=tol
        )
    if method in ("dual", "both"):
        dual, _ = w1_dual_potential(mu, nu, seminorm, tol=tol)
    if method == "primal":
        return primal
    if method == "dual":
        return dual
    if not close(primal, dual, tol):
        raise RuntimeError(f"transport value {primal} disagrees with dual value {dual}")
    return primal


def w1_dual_potential(
    mu: Measure, nu: Measure, seminorm: PolyhedralSeminorm, tol: Scalar = 0
):
    """Value and an optimal potential f with seminorm(f) <= 1."""
    if mu.host != nu.host or mu.host != seminorm.host:
        raise HostMismatch("mu, nu, and the seminorm must share one host")
    n = mu.host.n
    w = [wm - wn for wm, wn in zip(mu.weights, nu.weights)]
    columns = []
    costs = []
    for c in seminorm.functionals:
        columns.append(tuple(c))
        costs.append(1)
        columns.append(tuple(-ck for ck in c))
        costs.append(1)
    for i, j in seminorm.zero_pairs:
        col = [0] * n
        col[i] = 1
        col[j] = -1
        columns.append(tuple(col))
        costs.append(0)
        columns.append(tuple(-ck for ck in col))
        costs.append(0)
    rows = [[col[i] for col in columns] for i in range(n)]
    try:
        value, _, duals = solve_lp(costs, rows, w, tol=tol)
    except LPInfeasible:
        return INF, None
    return value, tuple(duals)

