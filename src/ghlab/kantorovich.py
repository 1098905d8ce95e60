"""Probability measures on a finite metric space and their W1 distance.

W1 is computed twice and cross-checked: as a transport LP over the host
metric, and as a dual LP over the 1-Lipschitz potentials of the host metric
(Kantorovich-Rubinstein), solved in equality form so that its dual vector
is the optimal potential f.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .metric_core import FiniteMetricSpace, MetricError
from .numerics import INF, Scalar, close, inv
from .simplex import LPInfeasible, solve_lp, transportation_simplex


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
    """W1 by the transport LP, checked against the dual LP's value."""
    dual, _ = w1_dual_potential(mu, nu, tol=tol)
    primal, _ = transportation_simplex(mu.host.dist, mu.weights, nu.weights, tol=tol)
    if not close(primal, dual, tol):
        raise RuntimeError(f"transport value {primal} disagrees with dual value {dual}")
    return primal


def w1_dual_potential(mu: Measure, nu: Measure, tol: Scalar = 0):
    """Value and an optimal potential f, 1-Lipschitz for the host metric."""
    if mu.host != nu.host:
        raise HostMismatch("mu and nu must share one host")
    space = mu.host
    n = space.n
    # one column pair +-(e_i - e_j)/d(i, j) per pair at a positive distance,
    # at cost 1, then one +-(e_i - e_j) per zero pair, at cost 0
    columns, costs, zero_pairs = [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            dij = space.d(i, j)
            if dij == 0:
                zero_pairs.append((i, j))
                continue
            c = [0] * n
            c[i] = inv(dij)
            c[j] = -c[i]
            columns += [tuple(c), tuple(-ck for ck in c)]
            costs += [1, 1]
    for i, j in zero_pairs:
        col = [0] * n
        col[i] = 1
        col[j] = -1
        columns += [tuple(col), tuple(-ck for ck in col)]
        costs += [0, 0]
    w = [wm - wn for wm, wn in zip(mu.weights, nu.weights)]
    rows = [[col[i] for col in columns] for i in range(n)]
    try:
        value, _, duals = solve_lp(costs, rows, w, tol=tol)
    except LPInfeasible:
        return INF, None
    return value, tuple(duals)
