"""Gluings of two pointed spaces inside a common host.

A ``GluedSpace`` records the host matrix together with injective index maps
for the two embedded copies.  The images may overlap; distance preservation
of both maps is the invariant ``validate_gluing`` enforces and the funny
counterexamples violate.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .metric_core import (
    BudgetExceeded,
    FiniteMetricSpace,
    MetricError,
    PointedSpace,
    PreconditionFailed,
    _block_rows,
    _trusted_space,
    pointed_from_json,
    space_from_json,
    space_to_json,
    validate_metric,
)
from .numerics import RATIONAL, Scalar, half


class NotDistancePreserving(MetricError):
    """An embedding distorts some pair; carries the side and the pair."""

    def __init__(self, side: str, pair: tuple, message: str):
        super().__init__(message)
        self.side = side
        self.pair = pair


class EtaTooSmall(MetricError):
    """Bridge width below half the correspondence distortion."""


@dataclass(frozen=True)
class Correspondence:
    pairs: tuple  # sorted (i, j) pairs
    nx: int
    ny: int
    # (x space, y space, dis(R) on them), set by the stream that measured it
    measured: tuple | None = field(default=None, compare=False, repr=False)


def correspondence(pairs: Iterable[tuple], nx: int, ny: int) -> Correspondence:
    ordered = tuple(sorted(set((int(i), int(j)) for i, j in pairs)))
    if not ordered:
        raise MetricError("a correspondence must be nonempty")
    for i, j in ordered:
        if not (0 <= i < nx and 0 <= j < ny):
            raise MetricError(f"pair ({i},{j}) out of range for {nx}x{ny}")
    if {i for i, _ in ordered} != set(range(nx)):
        raise MetricError("correspondence must cover every left point")
    if {j for _, j in ordered} != set(range(ny)):
        raise MetricError("correspondence must cover every right point")
    return Correspondence(pairs=ordered, nx=nx, ny=ny)


def _row_search(x: PointedSpace, y: PointedSpace, prune=None) -> Iterator[Correspondence]:
    """Row-by-row enumeration, each row a nonempty column mask scanned
    ascending.  The distortion of the chosen rows is carried along and each
    leaf is measured; with a ``prune`` callback, a row prefix is cut once
    ``prune(partial_dis / 2)`` holds, a leaf once ``prune(base gap)``
    holds."""
    nx, ny = x.n, y.n
    rows = [(mask, [j for j in range(ny) if mask >> j & 1]) for mask in range(1, 1 << ny)]
    return _rows_from(0, 0, [], 0, nx, ny, rows, x, y, prune)


def _rows_from(row, covered, pairs, dis, nx, ny, rows, x, y, prune) -> Iterator[Correspondence]:
    """``_row_search`` below the rows chosen in ``pairs``; no closure, so no cycle."""
    full = (1 << ny) - 1
    if row == nx:
        if covered == full and (prune is None or not prune(_base_gap(x, y, pairs, dis))):
            yield Correspondence(tuple(pairs), nx, ny, (x.space, y.space, dis))
        return
    for mask, cols in rows:
        if row + 1 == nx and covered | mask != full:
            continue
        grown = pairs + [(row, j) for j in cols]
        grown_dis = dis
        x_row = x.space.dist[row]
        for b in cols:
            y_row = y.space.dist[b]
            for i, j in grown:
                gap = abs(x_row[i] - y_row[j])
                if gap > grown_dis:
                    grown_dis = gap
        if prune is not None and prune(half(grown_dis)):
            continue
        yield from _rows_from(row + 1, covered | mask, grown, grown_dis, nx, ny, rows, x, y, prune)


def _base_gap(x: PointedSpace, y: PointedSpace, pairs, dis: Scalar) -> Scalar:
    """d(x0, y0) in the correspondence gluing at eta = dis / 2."""
    eta = half(dis)
    x_row, y_rows, y0 = x.space.dist[x.base], y.space.dist, y.base
    return min(x_row[i] + eta + y_rows[j][y0] for i, j in pairs)


def correspondence_distortion(
    rel: Correspondence,
    x_space: FiniteMetricSpace,
    y_space: FiniteMetricSpace,
    prune: Callable[[Scalar], bool] | None = None,
) -> Scalar | None:
    """dis(R), the largest |d(x1, x2) - d(y1, y2)| over pairs (x1, y1) and
    (x2, y2) of R, read one row of each side per pair of R.

    A pair with itself adds a term 0, which never raises the max, so only
    the later pairs are read.  With ``prune``, it calls ``prune(max / 2)``
    on the starting max 0 and each time the max grows, and returns None once
    that holds: the max only grows, so dis(R)/2 is at least that bound, and
    None comes back exactly when ``prune(dis(R) / 2)`` holds.
    """
    pairs = rel.pairs
    xd, yd = x_space.dist, y_space.dist
    dis = 0
    if prune is not None and prune(dis):
        return None
    for k, (x1, y1) in enumerate(pairs, 1):
        x_row, y_row = xd[x1], yd[y1]
        for x2, y2 in pairs[k:]:
            gap = abs(x_row[x2] - y_row[y2])
            if gap > dis:
                dis = gap
                if prune is not None and prune(half(dis)):
                    return None
    return dis


def _distortion(rel: Correspondence, x: PointedSpace, y: PointedSpace) -> Scalar:
    """dis(R) on x and y, as measured by the stream on these very spaces."""
    m = rel.measured
    if m is not None and m[0] is x.space and m[1] is y.space:
        return m[2]
    return correspondence_distortion(rel, x.space, y.space)


@dataclass(frozen=True)
class GluedSpace:
    host: FiniteMetricSpace
    embed_x: tuple  # host index of each X point
    embed_y: tuple
    origin_x: PointedSpace
    origin_y: PointedSpace

    @property
    def x0_host(self) -> int:
        return self.embed_x[self.origin_x.base]

    @property
    def y0_host(self) -> int:
        return self.embed_y[self.origin_y.base]


def validate_gluing(
    host: FiniteMetricSpace,
    origin_x: PointedSpace,
    embed_x: Sequence[int],
    origin_y: PointedSpace,
    embed_y: Sequence[int],
    tol: Scalar = 0,
) -> GluedSpace:
    # Revalidate the host: direct dataclass construction can smuggle in a
    # non-metric, and gluing guarantees are void in that case.
    validate_metric(host.points, host.dist, tol=tol)
    return _embedded(host, origin_x, embed_x, origin_y, embed_y, tol)


def _distorted_pair(
    space: FiniteMetricSpace, host: FiniteMetricSpace, embed: Sequence[int], tol: Scalar = 0
) -> tuple | None:
    """The first pair a < b of space whose distance embed changes by more
    than tol in host, or None when embed preserves every distance."""
    for a in range(space.n):
        for b in range(a + 1, space.n):
            if abs(space.d(a, b) - host.d(embed[a], embed[b])) > tol:
                return a, b
    return None


def _embedded(
    host: FiniteMetricSpace,
    origin_x: PointedSpace,
    embed_x: Sequence[int],
    origin_y: PointedSpace,
    embed_y: Sequence[int],
    tol: Scalar,
) -> GluedSpace:
    """``validate_gluing`` on a host that is already known to be a metric."""
    for side, origin, embed in (("X", origin_x, embed_x), ("Y", origin_y, embed_y)):
        emb = tuple(embed)
        if len(emb) != origin.n:
            raise MetricError(f"embedding for {side} has {len(emb)} entries, space has {origin.n}")
        if len(set(emb)) != len(emb):
            raise MetricError(f"embedding for {side} is not injective")
        if any(not 0 <= h < host.n for h in emb):
            raise MetricError(f"embedding for {side} leaves the host index range")
        space = origin.space
        bad = _distorted_pair(space, host, emb, tol)
        if bad is not None:
            a, b = bad
            raise NotDistancePreserving(
                side,
                bad,
                f"{side} pair ({space.points[a]!r},{space.points[b]!r}): "
                f"source distance {space.d(a, b)}, host distance {host.d(emb[a], emb[b])}",
            )
    return GluedSpace(
        host=host,
        embed_x=tuple(embed_x),
        embed_y=tuple(embed_y),
        origin_x=origin_x,
        origin_y=origin_y,
    )


def glue_from_correspondence(
    x: PointedSpace,
    y: PointedSpace,
    rel: Correspondence,
    eta: Scalar | None = None,
) -> GluedSpace:
    """The gluing along rel at bridge width eta, by default dis(rel)/2.

    An explicit eta is compared, at no tolerance, with half the distortion
    of the spaces passed, float rounding included.  On float spaces the
    exact minimal width rounded to a float can fall below that half and is
    refused: a host glued narrower can break the triangle inequality by a
    rounding amount.
    """
    if rel.nx != x.n or rel.ny != y.n:
        raise MetricError(f"correspondence shape {rel.nx}x{rel.ny} does not match spaces")
    least = half(_distortion(rel, x, y))
    if eta is None:
        eta = least
    elif eta < least:
        raise EtaTooSmall(f"eta = {eta} but distortion/2 = {least}")
    xd, yd, pairs = x.space.dist, y.space.dist, rel.pairs
    labels, rows = _block_rows(
        (("X:", x.space), ("Y:", y.space)),
        lambda s, t, a, b: min(xd[a][i] + eta + yd[j][b] for i, j in pairs),
    )
    return GluedSpace(
        host=_trusted_space(labels, rows),
        embed_x=tuple(range(x.n)),
        embed_y=tuple(range(x.n, x.n + y.n)),
        origin_x=x,
        origin_y=y,
    )


def glue_triple_w(
    x: PointedSpace,
    z: FiniteMetricSpace,
    y: PointedSpace,
    iota_x: Sequence[int],
    iota_y: Sequence[int],
    eps: Scalar,
) -> GluedSpace:
    """Join X and Y through a shared middle space Z, widening by eps.

    Cross distances: X-Z and Y-Z pay d_Z + eps, X-Y pays d_Z + 2 eps.
    eps = 0 is allowed and in general only yields a pseudometric host.
    """
    if eps < 0:
        raise PreconditionFailed("eps", f"eps = {eps} must be nonnegative")
    for name, origin, iota in (("X", x, iota_x), ("Y", y, iota_y)):
        im = tuple(iota)
        if len(im) != origin.n or len(set(im)) != len(im):
            raise PreconditionFailed(name, f"iota_{name} must be injective on all of {name}")
        if any(not 0 <= k < z.n for k in im):
            raise PreconditionFailed(name, f"iota_{name} leaves the middle space")
        bad = _distorted_pair(origin.space, z, im)
        if bad is not None:
            raise PreconditionFailed(
                name, f"iota_{name} is not distance preserving on pair ({bad[0]},{bad[1]})"
            )
    ix, iy = tuple(iota_x), tuple(iota_y)
    # blocks X, Z, Y: X-Z and Z-Y cross one bridge, X-Y both
    cross = {
        (0, 1): lambda a, b: z.d(ix[a], b) + eps,
        (0, 2): lambda a, b: z.d(ix[a], iy[b]) + 2 * eps,
        (1, 2): lambda a, b: z.d(iy[b], a) + eps,
    }
    labels, rows = _block_rows(
        (("X:", x.space), ("Z:", z), ("Y:", y.space)), lambda s, t, a, b: cross[s, t](a, b)
    )
    return GluedSpace(
        host=_trusted_space(labels, rows),
        embed_x=tuple(range(x.n)),
        embed_y=tuple(range(x.n + z.n, x.n + z.n + y.n)),
        origin_x=x,
        origin_y=y,
    )


def _exact_fits(x: PointedSpace, y: PointedSpace, budget: int) -> bool:
    return x.n <= 7 and y.n <= 7 and x.n * y.n <= budget


def correspondence_stream(
    x: PointedSpace,
    y: PointedSpace,
    search: str = "exact",
    budget: int = 12,
    seed: int = 0,
    samples: int = 64,
    prune: Callable[[Scalar], bool] | None = None,
) -> Iterator[Correspondence]:
    """Deterministic correspondence source shared by the search routines.

    Exact mode enumerates every correspondence in ``_row_search`` order and
    is capped at 7 points per side and nx*ny <= budget; heuristic mode
    streams deduplicated seeded candidates.

    ``prune(lower) -> bool`` makes the stream a branch and bound.  ``lower``
    bounds from below the basepoint gap d(x0, y0) of a correspondence's
    gluing at eta = dis(R)/2, hence its delta_r; where prune holds, the
    stream drops what the bound covers.  prune must stay true for larger
    bounds; it is called lazily, so it sees the consumer's current best.
    The bounds are the partial dis/2 of a row prefix in exact mode (the gap
    is at least dis(R)/2, and distortion only grows as rows are added, so
    the whole subtree goes) and, on each correspondence, the gap itself:
    min over (i, j) in R of d(x0, i) + dis(R)/2 + d(j, y0).  Heuristic mode
    measures each deduplicated candidate with ``correspondence_distortion``
    under the same prune, so the bound is half the distortion read so far,
    and tests a candidate measured in full on its gap.  A candidate dropped
    early has a gap at least that bound, so the gap test would have dropped
    it too; the yielded candidates and the seeded draws stay put.
    Yielded correspondences carry dis(R), so gluings need not recompute it.
    """
    if search == "exact":
        if not _exact_fits(x, y, budget):
            raise BudgetExceeded(
                f"exact search needs both sides <= 7 points and a product <= {budget}, "
                f"got {x.n}x{y.n}"
            )
        yield from _row_search(x, y, prune)
    elif search == "heuristic":
        seen = set()
        for rel in _heuristic_correspondences(x, y, random.Random(seed), samples):
            if rel.pairs in seen:
                continue
            seen.add(rel.pairs)
            dis = correspondence_distortion(rel, x.space, y.space, prune)
            if dis is not None and (prune is None or not prune(_base_gap(x, y, rel.pairs, dis))):
                yield Correspondence(rel.pairs, rel.nx, rel.ny, (x.space, y.space, dis))
    else:
        raise MetricError(f"unknown search mode {search!r}")


def _heuristic_correspondences(
    x: PointedSpace, y: PointedSpace, rng: random.Random, samples: int
) -> Iterator[Correspondence]:
    """The seeded candidates of heuristic mode, in a fixed draw order.

    The greedy basepoint-profile matching comes first, then the total
    correspondence; neither draws from rng.  Each sample then draws one
    ``randrange(ny)`` per row and one ``randrange(nx)`` per column, and
    repairs its pairs in descending (profile cost, pair) order: a pair is
    removable when its row and its column each hold another pair, and each
    removable pair draws one ``rng.random()`` and is dropped below 1/2.
    Repair thus never uncovers a row or a column, so a repaired sample
    skips ``correspondence()``'s re-validation.  The byte pins
    ``*/Delta-r-heuristic/*`` and ``*/inframetric-heuristic/*`` of
    ``tests/cli_bytes.json`` depend on this contract, draw for draw.

    The profile cost |d(x0, i) - d(y0, j)| of every pair is computed once
    per stream into one table.  The sort keys and the greedy ``min``s read
    it there, with the same value as a fresh computation, so the table
    keeps every draw.
    """
    nx, ny = x.n, y.n
    x0_row, y0_row = x.space.dist[x.base], y.space.dist[y.base]
    cost = {(i, j): abs(x0_row[i] - y0_row[j]) for i in range(nx) for j in range(ny)}

    greedy = set()
    for i in range(nx):
        j = min(range(ny), key=lambda jj: (cost[i, jj], jj))
        greedy.add((i, j))
    for j in range(ny):
        i = min(range(nx), key=lambda ii: (cost[ii, j], ii))
        greedy.add((i, j))
    yield correspondence(greedy, nx, ny)
    yield correspondence(itertools.product(range(nx), range(ny)), nx, ny)
    for _ in range(samples):
        pairs = {(i, rng.randrange(ny)) for i in range(nx)}
        pairs.update((rng.randrange(nx), j) for j in range(ny))
        rows, cols = [0] * nx, [0] * ny
        for i, j in pairs:
            rows[i] += 1
            cols[j] += 1
        for i, j in sorted(pairs, key=lambda p: (cost[p], p), reverse=True):
            if rows[i] > 1 and cols[j] > 1 and rng.random() < 0.5:
                pairs.remove((i, j))
                rows[i] -= 1
                cols[j] -= 1
        yield Correspondence(tuple(sorted(pairs)), nx, ny)


def glued_to_json(glued: GluedSpace) -> dict:
    return {
        "host": space_to_json(glued.host),
        "embedX": list(glued.embed_x),
        "embedY": list(glued.embed_y),
        "X": space_to_json(glued.origin_x.space, glued.origin_x.base),
        "Y": space_to_json(glued.origin_y.space, glued.origin_y.base),
    }


def glued_from_json(obj, backend: str = RATIONAL, tol: Scalar = 0) -> GluedSpace:
    if isinstance(obj, str):
        obj = json.loads(obj)
    host = space_from_json(obj["host"], backend)
    px = pointed_from_json(obj["X"], backend)
    py = pointed_from_json(obj["Y"], backend)
    # space_from_json validated the host at tol 0, which implies
    # validate_gluing's re-check at any tol >= 0
    if tol < 0:
        validate_metric(host.points, host.dist, tol=tol)
    return _embedded(host, px, tuple(obj["embedX"]), py, tuple(obj["embedY"]), tol)
