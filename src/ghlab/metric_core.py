"""Finite (pointed) metric spaces and the set-level primitives built on them.

A space is a frozen label tuple plus a full distance matrix.  Input from
outside is validated once, at the boundary (JSON/CSV ingestion,
``line_space``, ``validate_gluing``), by the O(n^3) ``validate_metric``.
Internal builders whose rows are a metric by construction freeze them with
``_trusted_space``, which skips the triangle scan.  These are the disjoint
unions of ``_block_rows``, the one builder of glued and bridged hosts, each
with its own cross entries:

- ``gluing.glue_from_correspondence``: the gluing lemma at
  eta >= dis(R)/2, which ``EtaTooSmall`` enforces;
- ``gluing.glue_triple_w``: X and Y sit isometrically in Z, and each
  bridge crossed adds eps, which keeps the triangle inequality;
- ``tunnels.compose`` and ``tunnels.existence_tunnel``: the rows are only
  edge weights, and their ``min_plus_closure`` is a shortest-path metric.

The integer-grid copies (``grid_copy`` scales a space's grid rows, for
``local_gh``'s searches and ``tunnels``' scans, and ``local_gh._off_grid``
a witness host back by 1/L) build ``FiniteMetricSpace`` directly under the
labels and ``strict`` flag of the space they scale: a positive multiple of
a metric is a metric with the same zeros.  Other code that builds ``FiniteMetricSpace`` directly from unchecked
rows bypasses the axioms on purpose (some negative tests do exactly that)
and gets no guarantees.

On rational rows (every entry an int or a Fraction) ``validate_metric``
runs all its checks on one integer copy of the rows: each entry times L,
the lcm of all the denominators and of ``tol``'s (``numerics.grid_unit``).
A finite float ``tol`` enters at its exact value, so a tolerance never
rounds an exact sum.  Scaling by a positive L keeps every equality, sign and
comparison of sums, so each check has the outcome it has on the rows
themselves, and the first failing clause, its indices and its message
(printed from the caller's entries) are the same; the O(n^3) triangle scan
then adds ints instead of Fractions.  The returned space holds the caller's
entries.  A float or inf entry keeps the scan on the caller's own numbers.

``validate_metric`` also leaves that integer copy on the space it returns:
``FiniteMetricSpace.grid`` is (L, the rows times L as int tuples) with L the
lcm of the rows' denominators (``tol``'s joins only the check's unit), None
for a float or inf entry.  Rows that are all ints are their own grid, so no
copy is built.  A space made any other way computes its grid on first read,
once.  ``grid_unit_of`` gives the unit that puts several spaces and query
scalars on one grid, which is where ``local_gh``'s searches and
``tunnels``' scans start.

``gluing.glued_from_json`` checks its host once: ``space_from_json`` has
validated it at tol 0, and passing at tol 0 implies passing the triangle
scan at any tol >= 0, which is all that ``validate_gluing``'s re-check of
the host would add.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .numerics import (
    INF,
    RATIONAL,
    Scalar,
    format_scalar,
    grid_unit,
    is_inf,
    json_number,
    leq,
    on_grid,
    parse_scalar,
)


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

    @cached_property
    def grid(self) -> tuple | None:
        """(L, the rows times L as int row tuples), L the lcm of the rows'
        denominators; None when a row holds a float or inf.  Read once per
        space: ``validate_metric`` hands over the copy its checks ran on."""
        return _grid_of(self.dist)

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
    grid = _grid_of(rows)
    # every check compares on g and t; messages print the caller's rows
    exact_tol = Fraction(tol) if isinstance(tol, float) and math.isfinite(tol) else tol
    tol_unit = grid_unit((exact_tol,))
    if grid is None or tol_unit is None:
        g, t = rows, tol
    else:
        unit = math.lcm(grid[0], tol_unit)
        g, t = scaled_rows(grid[1], unit // grid[0]), on_grid(exact_tol, unit)
    strict = True
    for i in range(n):
        if g[i][i] != 0:
            raise AxiomViolation("diagonal", (i,), f"d({pts[i]!r},{pts[i]!r}) = {rows[i][i]} != 0")
        for j in range(i + 1, n):
            if g[i][j] != g[j][i]:
                raise AxiomViolation(
                    "symmetry", (i, j), f"d({pts[i]!r},{pts[j]!r}) != d({pts[j]!r},{pts[i]!r})"
                )
            if g[i][j] < 0:
                raise AxiomViolation("negative", (i, j), f"d({pts[i]!r},{pts[j]!r}) = {rows[i][j]} < 0")
            if g[i][j] == 0:
                if require_strict:
                    raise AxiomViolation(
                        "separation", (i, j), f"distinct points {pts[i]!r},{pts[j]!r} at distance 0"
                    )
                strict = False
    # With t >= 0, (i, j, k) fails exactly when (j, i, k) does, since the
    # rows are exactly symmetric and addition commutes (on floats too), and
    # never when k is i or j, since d + t >= d.  So the first failure in the
    # order i, j, k has i < j, and the scan takes those pairs only.
    for i in range(n):
        row_i = g[i]
        for j in range(i + 1 if t >= 0 else 0, n):
            dij = row_i[j]
            for k in range(n):
                if dij > row_i[k] + g[k][j] + t:
                    raise AxiomViolation(
                        "triangle",
                        (i, k, j),
                        f"d({pts[i]!r},{pts[j]!r}) > d({pts[i]!r},{pts[k]!r}) + d({pts[k]!r},{pts[j]!r})",
                    )
    space = FiniteMetricSpace(points=pts, dist=rows, strict=strict)
    space.__dict__["grid"] = grid  # the value FiniteMetricSpace.grid caches
    return space


def _grid_of(rows: tuple) -> tuple | None:
    """``FiniteMetricSpace.grid`` of these rows; int rows are their own copy."""
    unit = grid_unit(itertools.chain(*rows))
    if unit is None:
        return None
    if unit == 1 and all(type(v) is int for row in rows for v in row):
        return 1, rows
    return unit, tuple([tuple([on_grid(v, unit) for v in row]) for row in rows])


def scaled_rows(rows: tuple, k: int) -> tuple:
    """Int rows times the int k > 0; the rows themselves at k = 1."""
    return rows if k == 1 else tuple([tuple([v * k for v in row]) for row in rows])


def grid_copy(space: FiniteMetricSpace, unit: int) -> FiniteMetricSpace:
    """The space's cached grid rows scaled to unit, a multiple of their L,
    under its labels and ``strict`` flag."""
    L, rows = space.grid
    return FiniteMetricSpace(space.points, scaled_rows(rows, unit // L), space.strict)


def grid_unit_of(spaces: Iterable[FiniteMetricSpace], scalars: Iterable = ()) -> int | None:
    """The lcm of the spaces' grid units and of the scalars' denominators,
    so that each space's grid rows times unit / L and each scalar times unit
    are ints; None when a space has no grid or a scalar is a float or inf."""
    grids, unit = [s.grid for s in spaces], grid_unit(scalars)
    return None if unit is None or None in grids else math.lcm(unit, *(g[0] for g in grids))


def _trusted_space(points: Sequence, dist: Sequence[Sequence[Scalar]]) -> FiniteMetricSpace:
    """Freeze rows that are a metric by construction, as ``validate_metric``
    would, without the triangle scan (see the module docstring).  Labels are
    still checked to be distinct."""
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


def _block_rows(blocks: Sequence[tuple], cross: Callable) -> tuple:
    """Unique labels and rows of the disjoint union of the (label prefix,
    space) blocks: each block keeps its own distances, and the entry between
    point a of block s and point b of a later block t is cross(s, t, a, b),
    on both sides of the diagonal."""
    taken: set = set()
    labels = [lbl for pre, space in blocks for lbl in _unique_labels(pre, space.points, taken)]
    offsets = [0]
    for _, space in blocks:
        offsets.append(offsets[-1] + space.n)
    rows = [[0] * offsets[-1] for _ in range(offsets[-1])]
    for s, (_, space) in enumerate(blocks):
        o = offsets[s]
        for a in range(space.n):
            rows[o + a][o : o + space.n] = space.dist[a]
            for t in range(s + 1, len(blocks)):
                for b in range(blocks[t][1].n):
                    rows[o + a][offsets[t] + b] = rows[offsets[t] + b][o + a] = cross(s, t, a, b)
    return labels, rows


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


def line_space(values: Sequence[Scalar], labels: Sequence | None = None) -> FiniteMetricSpace:
    """Points on the line with the absolute-value metric."""
    vals = tuple(values)
    pts = tuple(labels) if labels is not None else vals
    rows = tuple(tuple(abs(a - b) for b in vals) for a in vals)
    return validate_metric(pts, rows)


def space_to_json(space: FiniteMetricSpace, base: int | None = None) -> dict:
    obj = {
        "points": _unique_labels("", space.points, set()),
        "dist": [[format_scalar(v) for v in row] for row in space.dist],
    }
    if base is not None:
        obj["basepoint"] = base
    return obj


def space_from_json(obj, backend: str = RATIONAL) -> FiniteMetricSpace:
    if isinstance(obj, str):
        obj = json.loads(obj, parse_float=json_number)
    if not isinstance(obj, dict) or "points" not in obj or "dist" not in obj:
        raise MetricError("expected an object with 'points' and 'dist'")
    if not isinstance(obj["points"], (list, tuple)):
        raise MetricError("expected 'points' to be an array of labels")
    if any(not isinstance(row, (list, tuple)) for row in obj["dist"]):
        raise MetricError("expected every 'dist' row to be an array")
    rows = [[parse_scalar(v, backend) for v in row] for row in obj["dist"]]
    return validate_metric(tuple(obj["points"]), rows)


def pointed_from_json(obj, backend: str = RATIONAL) -> PointedSpace:
    if isinstance(obj, str):
        obj = json.loads(obj, parse_float=json_number)
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
