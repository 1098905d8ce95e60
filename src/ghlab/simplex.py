"""Exact-capable simplex solvers.

Two entry points: a transportation simplex for optimal transport between
finite measures, and a dense two-phase simplex for small equality-form LPs
that also reports dual values.  Both run on Fractions (tol = 0) or floats
(tol > 0); pivoting is Dantzig with an automatic switch to Bland's rule
after a degenerate stall, which guarantees termination.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from operator import truediv
from typing import Sequence

from .numerics import Scalar


class LPInfeasible(ValueError):
    pass


class LPUnbounded(ValueError):
    pass


class IterationBudgetExceeded(RuntimeError):
    """A simplex ran out of pivots before reaching an optimum."""


def transportation_simplex(
    cost: Sequence[Sequence[Scalar]],
    supply: Sequence[Scalar],
    demand: Sequence[Scalar],
    tol: Scalar = 0,
    max_iter: int | None = None,
):
    """Minimize sum flow*cost subject to row sums = supply, col sums = demand.

    Returns (value, flow) where flow maps (i, j) to a positive amount.
    Total supply must equal total demand.
    """
    m, n = len(supply), len(demand)
    if abs(sum(supply) - sum(demand)) > tol:
        raise LPInfeasible("total supply differs from total demand")
    if any(s < -tol for s in supply) or any(d < -tol for d in demand):
        raise LPInfeasible("negative supply or demand")
    if max_iter is None:
        max_iter = 400 + 40 * (m + n)

    # Northwest-corner start; tie handling keeps exactly m+n-1 basic cells.
    flow = {}
    basis = []
    srem, drem = list(supply), list(demand)
    r = c = 0
    while r < m and c < n:
        q = min(srem[r], drem[c])
        basis.append((r, c))
        flow[(r, c)] = q
        srem[r] -= q
        drem[c] -= q
        if srem[r] <= tol and drem[c] <= tol:
            if c < n - 1:
                c += 1
            else:
                r += 1
        elif srem[r] <= tol:
            r += 1
        else:
            c += 1

    bland = False
    stall = 0
    for _ in range(max_iter):
        u = [None] * m
        v = [None] * n
        u[0] = 0
        adj_rows = [[] for _ in range(m)]
        adj_cols = [[] for _ in range(n)]
        for (i, j) in basis:
            adj_rows[i].append(j)
            adj_cols[j].append(i)
        queue = deque([("r", 0)])
        while queue:
            kind, k = queue.popleft()
            if kind == "r":
                for j in adj_rows[k]:
                    if v[j] is None:
                        v[j] = cost[k][j] - u[k]
                        queue.append(("c", j))
            else:
                for i in adj_cols[k]:
                    if u[i] is None:
                        u[i] = cost[i][k] - v[k]
                        queue.append(("r", i))

        entering = None
        if bland:
            for i in range(m):
                for j in range(n):
                    if (i, j) not in flow and cost[i][j] - u[i] - v[j] < -tol:
                        entering = (i, j)
                        break
                if entering:
                    break
        else:
            best_rc = -tol
            for i in range(m):
                ui = u[i]
                row = cost[i]
                for j in range(n):
                    if (i, j) in flow:
                        continue
                    rc = row[j] - ui - v[j]
                    if rc < best_rc:
                        best_rc = rc
                        entering = (i, j)
        if entering is None:
            value = sum(flow[(i, j)] * cost[i][j] for (i, j) in flow)
            positive = {k: q for k, q in flow.items() if q > tol}
            return value, positive

        # Locate the unique tree path from the entering row to its column.
        ei, ej = entering
        parent = {}
        seen = {("r", ei)}
        queue = deque([("r", ei)])
        while queue:
            node = queue.popleft()
            kind, k = node
            nexts = (
                [("c", j) for j in adj_rows[k]] if kind == "r" else [("r", i) for i in adj_cols[k]]
            )
            for nxt in nexts:
                if nxt not in seen:
                    seen.add(nxt)
                    parent[nxt] = node
                    queue.append(nxt)
        path = [("c", ej)]
        while path[-1] != ("r", ei):
            path.append(parent[path[-1]])
        # Arcs along the cycle alternate signs, entering arc positive.
        cycle = []
        prev = ("r", ei)
        sign = 1
        arcs = [(entering, 1)]
        for node in reversed(path[:-1]):
            kind, k = node
            arc = (prev[1], k) if prev[0] == "r" else (k, prev[1])
            sign = -sign
            arcs.append((arc, sign))
            prev = node
        theta = None
        leave = None
        for arc, s in arcs:
            if s < 0:
                q = flow[arc]
                if theta is None or q < theta or (q == theta and arc < leave):
                    theta = q
                    leave = arc
        if theta is None:
            raise LPUnbounded("transportation cycle without a leaving arc")
        for arc, s in arcs:
            if arc in flow:
                flow[arc] += s * theta
            else:
                flow[arc] = s * theta
        del flow[leave]
        basis = [arc for arc in basis if arc != leave]
        basis.append(entering)
        if theta <= tol:
            stall += 1
            if stall > m * n:
                bland = True
        else:
            stall = 0
    raise IterationBudgetExceeded("transportation simplex exceeded its iteration budget")


def solve_lp(
    c: Sequence[Scalar],
    a_rows: Sequence[Sequence[Scalar]],
    b: Sequence[Scalar],
    tol: Scalar = 0,
    max_iter: int | None = None,
):
    """Minimize c.x subject to A x = b, x >= 0.

    Returns (value, x, y) with y the dual vector (one entry per row).
    Redundant rows keep a zero-level artificial and report dual 0.  With no
    float among the data every division is exact, so int entries never
    turn into floats.
    """
    exact = not any(isinstance(v, float) for v in itertools.chain(c, b, *a_rows))
    div = Fraction if exact else truediv
    m = len(a_rows)
    nvars = len(c)
    if max_iter is None:
        max_iter = 1000 + 60 * (m + nvars)
    sign = [1] * m
    tableau = []
    for i in range(m):
        row = list(a_rows[i])
        rhs = b[i]
        if rhs < 0:
            row = [-a for a in row]
            rhs = -rhs
            sign[i] = -1
        row.extend(1 if k == i else 0 for k in range(m))
        row.append(rhs)
        tableau.append(row)
    total = nvars + m
    basis = [nvars + i for i in range(m)]

    def pivot(prow: int, pcol: int, obj: list):
        piv = tableau[prow][pcol]
        tableau[prow] = [div(a, piv) for a in tableau[prow]]
        prow_vals = tableau[prow]
        for i in range(m):
            if i != prow and tableau[i][pcol] != 0:
                f = tableau[i][pcol]
                tableau[i] = [a - f * p for a, p in zip(tableau[i], prow_vals)]
        if obj[pcol] != 0:
            f = obj[pcol]
            for k in range(total + 1):
                obj[k] -= f * prow_vals[k]
        basis[prow] = pcol

    def run(obj: list, allowed: int):
        bland = False
        stall = 0
        for _ in range(max_iter):
            entering = None
            if bland:
                for j in range(allowed):
                    if obj[j] < -tol:
                        entering = j
                        break
            else:
                best = -tol
                for j in range(allowed):
                    if obj[j] < best:
                        best = obj[j]
                        entering = j
            if entering is None:
                return
            prow = None
            best_ratio = None
            for i in range(m):
                a = tableau[i][entering]
                if a > tol:
                    ratio = div(tableau[i][total], a)
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[prow])
                    ):
                        best_ratio = ratio
                        prow = i
            if prow is None:
                raise LPUnbounded("no leaving row for the entering column")
            degenerate = best_ratio <= tol
            pivot(prow, entering, obj)
            if degenerate:
                stall += 1
                if stall > 2 * (m + allowed):
                    bland = True
            else:
                stall = 0
        raise IterationBudgetExceeded("simplex exceeded its iteration budget")

    # Phase 1: minimize the artificial total.
    obj1 = [0] * (total + 1)
    for i in range(m):
        for k in range(total + 1):
            obj1[k] -= tableau[i][k]
        obj1[nvars + i] += 1
    run(obj1, nvars)
    infeas = -obj1[total]
    if infeas > tol:
        raise LPInfeasible(f"phase 1 residual {infeas}")
    for i in range(m):
        if basis[i] >= nvars:
            for j in range(nvars):
                if abs(tableau[i][j]) > tol:
                    pivot(i, j, obj1)
                    break

    # Phase 2 prices artificials out for dual recovery but never re-enters them.
    obj2 = [0] * (total + 1)
    for j in range(nvars):
        obj2[j] = c[j]
    for i in range(m):
        if basis[i] < nvars and obj2[basis[i]] != 0:
            f = obj2[basis[i]]
            for k in range(total + 1):
                obj2[k] -= f * tableau[i][k]
    run(obj2, nvars)

    x = [0] * nvars
    for i in range(m):
        if basis[i] < nvars:
            x[basis[i]] = tableau[i][total]
    value = sum(ci * xi for ci, xi in zip(c, x))
    y = [sign[i] * (-obj2[nvars + i]) for i in range(m)]
    return value, x, y

