"""Finite (pointed) metric spaces and the set-level primitives built on them.

A space is a frozen label tuple plus a full distance matrix.  Input from
outside is validated once, at the boundary (JSON/CSV ingestion,
``line_space``, ``validate_gluing``), by the O(n^3) ``validate_metric``.
Internal builders whose rows are a metric by construction freeze them with
``_trusted_space``, which skips the triangle scan:

- ``subspace``: a restriction of a metric;
- ``gluing.glue_from_correspondence``: the gluing lemma at eta >= dis(R)/2,
  which ``EtaTooSmall`` enforces;
- ``gluing.glue_triple_w``: X and Y sit isometrically in Z, and each bridge
  crossed adds eps, which keeps the triangle inequality;
- the ``tunnels.compose`` and ``tunnels.existence_tunnel`` carriers: a
  ``min_plus_closure`` is a shortest-path metric.

Code that builds ``FiniteMetricSpace`` directly from unchecked rows bypasses
the axioms on purpose (some negative tests do exactly that) and gets no
guarantees.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .numerics import INF, RATIONAL, Scalar, format_scalar, is_inf, leq, parse_scalar


class MetricError(ValueError):
    """Base class for validation failures in this package."""


class NotSquare(MetricError):
    """Distance matrix shape does not match the point list."""


class AxiomViolation(MetricError):
    """A metric axiom fails; carries the kind and a witness tuple."""

    def __init__(self, kind: str, witness: tuple, message: str):
        super().__init__(message)
        self.kind = kind
        self.witness = witness


class EmptySet(MetricError):
    """An operation that needs a nonempty set received an empty one."""


class PreconditionFailed(MetricError):
    """A stated hypothesis of an operation does not hold; carries the clause."""

    def __init__(self, clause: str, message: str):
        super().__init__(message)
        self.clause = clause


class BudgetExceeded(MetricError):
    """An exact search was requested beyond its configured size limit."""


@dataclass(frozen=True)
class FiniteMetricSpace:
    points: tuple
    dist: tuple  # tuple of row tuples
    strict: bool  # True when off-diagonal zeros are absent

    @property
    def n(self) -> int:
        return len(self.points)

    def d(self, i: int, j: int) -> Scalar:
        return self.dist[i][j]

    def index(self, label) -> int:
        try:
            return self.points.index(label)
        except ValueError:
            raise KeyError(f"no point labeled {label!r}") from None


@dataclass(frozen=True)
class PointedSpace:
    space: FiniteMetricSpace
    base: int

    @property
    def basepoint(self):
        return self.space.points[self.base]

    @property
    def n(self) -> int:
        return self.space.n


def validate_metric(
    points: Sequence,
    dist: Sequence[Sequence[Scalar]],
    require_strict: bool = False,
    tol: Scalar = 0,
) -> FiniteMetricSpace:
    pts = tuple(points)
    n = len(pts)
    if len(set(pts)) != n:
        raise AxiomViolation("labels", (), "point labels must be distinct")
    if len(dist) != n or any(len(row) != n for row in dist):
        raise NotSquare(f"need a {n}x{n} matrix, got rows {[len(r) for r in dist]}")
    rows = tuple(tuple(row) for row in dist)
    strict = True
    for i in range(n):
        if rows[i][i] != 0:
            raise AxiomViolation("diagonal", (i,), f"d({pts[i]!r},{pts[i]!r}) = {rows[i][i]} != 0")
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise AxiomViolation(
                    "symmetry", (i, j), f"d({pts[i]!r},{pts[j]!r}) != d({pts[j]!r},{pts[i]!r})"
                )
            if rows[i][j] < 0:
                raise AxiomViolation("negative", (i, j), f"d({pts[i]!r},{pts[j]!r}) = {rows[i][j]} < 0")
            if rows[i][j] == 0:
                if require_strict:
                    raise AxiomViolation(
                        "separation", (i, j), f"distinct points {pts[i]!r},{pts[j]!r} at distance 0"
                    )
                strict = False
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[i][j] > rows[i][k] + rows[k][j] + tol:
                    raise AxiomViolation(
                        "triangle",
                        (i, k, j),
                        f"d({pts[i]!r},{pts[j]!r}) > d({pts[i]!r},{pts[k]!r}) + d({pts[k]!r},{pts[j]!r})",
                    )
    return FiniteMetricSpace(points=pts, dist=rows, strict=strict)


def _trusted_space(points: Sequence, dist: Sequence[Sequence[Scalar]]) -> FiniteMetricSpace:
    """Freeze rows that are a metric by construction, as ``validate_metric``
    would, without the triangle scan (see the module docstring).  Labels are
    still checked: ``subspace`` takes caller-supplied labels."""
    pts = tuple(points)
    if len(set(pts)) != len(pts):
        raise AxiomViolation("labels", (), "point labels must be distinct")
    rows = tuple(tuple(row) for row in dist)
    n = len(rows)
    strict = all(rows[i][j] != 0 for i in range(n) for j in range(i + 1, n))
    return FiniteMetricSpace(points=pts, dist=rows, strict=strict)


def _unique_labels(prefix: str, points: Sequence, taken: set) -> list:
    """Host labels ``prefix + str(point)``; a point whose label is already
    taken (1 and "1" print alike) also gets its index, so builders never
    hand ``_trusted_space`` a repeated label."""
    labels = []
    for i, pt in enumerate(points):
        lbl = f"{prefix}{pt}"
        while lbl in taken:
            lbl = f"{prefix}#{i}:{lbl[len(prefix):]}"
        taken.add(lbl)
        labels.append(lbl)
    return labels


def pointed(space: FiniteMetricSpace, base) -> PointedSpace:
    """Wrap a space with a basepoint given by label or index."""
    idx = base if isinstance(base, int) and not isinstance(base, bool) else space.index(base)
    if not 0 <= idx < space.n:
        raise MetricError(f"basepoint index {idx} out of range for {space.n} points")
    return PointedSpace(space=space, base=idx)


def closed_ball(space: FiniteMetricSpace, center: int, r: Scalar, tol: Scalar = 0) -> frozenset:
    """Indices within distance r of center; empty when r < 0."""
    if not is_inf(r) and r < 0:
        return frozenset()
    return frozenset(i for i in range(space.n) if leq(space.d(center, i), r, tol))


def dist_to_set(space: FiniteMetricSpace, i: int, subset: Iterable[int]) -> Scalar:
    """min distance from point i to the subset; +inf on the empty set."""
    best = INF
    for j in subset:
        dij = space.d(i, j)
        if dij < best:
            best = dij
    return best


def eps_contained(
    space: FiniteMetricSpace,
    inner: Iterable[int],
    outer: Iterable[int],
    eps: Scalar,
    tol: Scalar = 0,
) -> bool:
    """Every point of inner is within eps of outer (vacuous for empty inner)."""
    outer = tuple(outer)
    return all(leq(dist_to_set(space, i, outer), eps, tol) for i in inner)


def hausdorff(space: FiniteMetricSpace, a: Iterable[int], b: Iterable[int]) -> Scalar:
    a = tuple(a)
    b = tuple(b)
    if not a or not b:
        raise EmptySet("hausdorff distance needs two nonempty subsets")
    forward = max(dist_to_set(space, i, b) for i in a)
    backward = max(dist_to_set(space, j, a) for j in b)
    return max(forward, backward)


def diameter(space: FiniteMetricSpace) -> Scalar:
    if space.n == 0:
        raise EmptySet("diameter of the empty space")
    return max(space.d(i, j) for i in range(space.n) for j in range(i, space.n))


def min_plus_closure(rows: Sequence[Sequence[Scalar]]) -> list:
    """Shortest-path closure of a symmetric nonnegative matrix (in place on a
    copy); turns any edge-weight table into a triangle-valid one."""
    n = len(rows)
    out = [list(row) for row in rows]
    for k in range(n):
        row_k = out[k]
        for i in range(n):
            dik = out[i][k]
            if is_inf(dik):
                continue
            row_i = out[i]
            for j in range(n):
                via = dik + row_k[j]
                if via < row_i[j]:
                    row_i[j] = via
    return out


def subspace(space: FiniteMetricSpace, indices: Sequence[int], labels: Sequence | None = None) -> FiniteMetricSpace:
    idx = tuple(indices)
    pts = tuple(labels) if labels is not None else tuple(space.points[i] for i in idx)
    return _trusted_space(pts, [[space.d(i, j) for j in idx] for i in idx])


def line_space(values: Sequence[Scalar], labels: Sequence | None = None) -> FiniteMetricSpace:
    """Points on the line with the absolute-value metric."""
    vals = tuple(values)
    pts = tuple(labels) if labels is not None else vals
    rows = tuple(tuple(abs(a - b) for b in vals) for a in vals)
    return validate_metric(pts, rows)


def space_to_json(space: FiniteMetricSpace, base: int | None = None) -> dict:
    obj = {
        "points": [str(p) for p in space.points],
        "dist": [[format_scalar(v) for v in row] for row in space.dist],
    }
    if base is not None:
        obj["basepoint"] = base
    return obj


def space_from_json(obj, backend: str = RATIONAL) -> FiniteMetricSpace:
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "points" not in obj or "dist" not in obj:
        raise MetricError("expected an object with 'points' and 'dist'")
    rows = [[parse_scalar(v, backend) for v in row] for row in obj["dist"]]
    return validate_metric(tuple(obj["points"]), rows)


def pointed_from_json(obj, backend: str = RATIONAL) -> PointedSpace:
    if isinstance(obj, str):
        obj = json.loads(obj)
    space = space_from_json(obj, backend)
    if "basepoint" not in obj:
        raise MetricError("pointed space needs a 'basepoint' field")
    raw = obj["basepoint"]
    # an integer is a point index, anything else a point label
    if isinstance(raw, int) and not isinstance(raw, bool):
        return pointed(space, raw)
    try:
        return pointed(space, str(raw))
    except KeyError as exc:
        raise MetricError(str(exc)) from None


def space_from_csv(text: str, backend: str = RATIONAL) -> FiniteMetricSpace:
    """CSV with a header row of labels and one matrix row per line."""
    reader = csv.reader(io.StringIO(text))
    table = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not table:
        raise MetricError("empty csv matrix")
    labels = [cell.strip() for cell in table[0]]
    rows = [[parse_scalar(cell.strip(), backend) for cell in row] for row in table[1:]]
    return validate_metric(labels, rows)
