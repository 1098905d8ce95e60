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
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .metric_core import (
    AxiomViolation,
    BudgetExceeded,
    FiniteMetricSpace,
    MetricError,
    PointedSpace,
    PreconditionFailed,
    _trusted_space,
    _unique_labels,
    pointed_from_json,
    space_from_json,
    space_to_json,
    subspace,
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


def enumerate_correspondences(nx: int, ny: int) -> Iterator[Correspondence]:
    """All correspondences, deterministic order (rows scanned ascending)."""
    return _row_search(nx, ny)


def _row_search(nx: int, ny: int, x=None, y=None, prune=None) -> Iterator[Correspondence]:
    """Row-by-row enumeration, each row a nonempty column mask scanned
    ascending.  With spaces and a ``prune`` callback the distortion of the
    chosen rows is carried along; a row prefix is cut once
    ``prune(partial_dis / 2)`` holds, a leaf once ``prune(base gap)`` holds."""
    full = (1 << ny) - 1
    rows = [(mask, [j for j in range(ny) if mask >> j & 1]) for mask in range(1, full + 1)]

    def rec(row: int, covered: int, pairs: list, dis: Scalar):
        if row == nx:
            if covered == full and (prune is None or not prune(_base_gap(x, y, pairs, dis))):
                yield Correspondence(pairs=tuple(pairs), nx=nx, ny=ny)
            return
        for mask, cols in rows:
            if row + 1 == nx and covered | mask != full:
                continue
            grown = pairs + [(row, j) for j in cols]
            grown_dis = dis
            if prune is not None:
                x_row = x.space.dist[row]
                for b in cols:
                    y_row = y.space.dist[b]
                    for i, j in grown:
                        gap = abs(x_row[i] - y_row[j])
                        if gap > grown_dis:
                            grown_dis = gap
                if prune(half(grown_dis)):
                    continue
            yield from rec(row + 1, covered | mask, grown, grown_dis)

    yield from rec(0, 0, [], 0)


def _base_gap(x: PointedSpace, y: PointedSpace, pairs, dis: Scalar) -> Scalar:
    """d(x0, y0) in the correspondence gluing at eta = dis / 2."""
    eta = half(dis)
    return min(x.space.d(x.base, i) + eta + y.space.d(j, y.base) for i, j in pairs)


def correspondence_distortion(
    rel: Correspondence, x_space: FiniteMetricSpace, y_space: FiniteMetricSpace
) -> Scalar:
    dis = 0
    for (x1, y1), (x2, y2) in itertools.combinations_with_replacement(rel.pairs, 2):
        gap = abs(x_space.d(x1, x2) - y_space.d(y1, y2))
        if gap > dis:
            dis = gap
    return dis


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
    for side, origin, embed in (("X", origin_x, embed_x), ("Y", origin_y, embed_y)):
        emb = tuple(embed)
        if len(emb) != origin.n:
            raise MetricError(f"embedding for {side} has {len(emb)} entries, space has {origin.n}")
        if len(set(emb)) != len(emb):
            raise MetricError(f"embedding for {side} is not injective")
        if any(not 0 <= h < host.n for h in emb):
            raise MetricError(f"embedding for {side} leaves the host index range")
        space = origin.space
        for a in range(origin.n):
            for b in range(a + 1, origin.n):
                want = space.d(a, b)
                got = host.d(emb[a], emb[b])
                if abs(want - got) > tol:
                    raise NotDistancePreserving(
                        side,
                        (a, b),
                        f"{side} pair ({space.points[a]!r},{space.points[b]!r}): "
                        f"source distance {want}, host distance {got}",
                    )
    return GluedSpace(
        host=host,
        embed_x=tuple(embed_x),
        embed_y=tuple(embed_y),
        origin_x=origin_x,
        origin_y=origin_y,
    )


def identity_gluing(x: PointedSpace, y: PointedSpace | None = None) -> GluedSpace:
    """Both copies share the same host points (y defaults to x itself)."""
    if y is None:
        y = x
    if y.space.dist != x.space.dist:
        raise MetricError("identity gluing needs identical distance matrices")
    ident = tuple(range(x.n))
    return GluedSpace(host=x.space, embed_x=ident, embed_y=ident, origin_x=x, origin_y=y)


def glue_from_correspondence(
    x: PointedSpace,
    y: PointedSpace,
    rel: Correspondence,
    eta: Scalar | None = None,
) -> GluedSpace:
    if rel.nx != x.n or rel.ny != y.n:
        raise MetricError(f"correspondence shape {rel.nx}x{rel.ny} does not match spaces")
    least = half(correspondence_distortion(rel, x.space, y.space))
    if eta is None:
        eta = least
    elif eta < least:
        raise EtaTooSmall(f"eta = {eta} but distortion/2 = {least}")
    nx, ny = x.n, y.n
    taken: set = set()
    labels = _unique_labels("X:", x.space.points, taken) + _unique_labels("Y:", y.space.points, taken)
    n = nx + ny
    rows = [[0] * n for _ in range(n)]
    for a in range(nx):
        for b in range(nx):
            rows[a][b] = x.space.d(a, b)
    for a in range(ny):
        for b in range(ny):
            rows[nx + a][nx + b] = y.space.d(a, b)
    for a in range(nx):
        for b in range(ny):
            cross = min(x.space.d(a, i) + eta + y.space.d(j, b) for i, j in rel.pairs)
            rows[a][nx + b] = cross
            rows[nx + b][a] = cross
    host = _trusted_space(labels, rows)
    return GluedSpace(
        host=host,
        embed_x=tuple(range(nx)),
        embed_y=tuple(range(nx, n)),
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
        for a in range(origin.n):
            for b in range(a + 1, origin.n):
                if z.d(im[a], im[b]) != origin.space.d(a, b):
                    raise PreconditionFailed(
                        name, f"iota_{name} is not distance preserving on pair ({a},{b})"
                    )
    ix, iy = tuple(iota_x), tuple(iota_y)
    nx, nz, ny = x.n, z.n, y.n
    taken: set = set()
    labels = (
        _unique_labels("X:", x.space.points, taken)
        + _unique_labels("Z:", z.points, taken)
        + _unique_labels("Y:", y.space.points, taken)
    )
    n = nx + nz + ny
    rows = [[0] * n for _ in range(n)]
    for a in range(nx):
        for b in range(nx):
            rows[a][b] = x.space.d(a, b)
    for a in range(nz):
        for b in range(nz):
            rows[nx + a][nx + b] = z.d(a, b)
    for a in range(ny):
        for b in range(ny):
            rows[nx + nz + a][nx + nz + b] = y.space.d(a, b)
    for a in range(nx):
        for b in range(nz):
            v = z.d(ix[a], b) + eps
            rows[a][nx + b] = rows[nx + b][a] = v
    for a in range(ny):
        for b in range(nz):
            v = z.d(iy[a], b) + eps
            rows[nx + nz + a][nx + b] = rows[nx + b][nx + nz + a] = v
    for a in range(nx):
        for b in range(ny):
            v = z.d(ix[a], iy[b]) + 2 * eps
            rows[a][nx + nz + b] = rows[nx + nz + b][a] = v
    host = _trusted_space(labels, rows)
    return GluedSpace(
        host=host,
        embed_x=tuple(range(nx)),
        embed_y=tuple(range(nx + nz, n)),
        origin_x=x,
        origin_y=y,
    )


def restrict_to_images(glued: GluedSpace) -> GluedSpace:
    """Drop host points outside the two images (two-block restriction)."""
    keep = sorted(set(glued.embed_x) | set(glued.embed_y))
    lookup = {h: i for i, h in enumerate(keep)}
    host = subspace(glued.host, keep)
    return GluedSpace(
        host=host,
        embed_x=tuple(lookup[h] for h in glued.embed_x),
        embed_y=tuple(lookup[h] for h in glued.embed_y),
        origin_x=glued.origin_x,
        origin_y=glued.origin_y,
    )


def enumerate_gluings(
    x: PointedSpace,
    y: PointedSpace,
    mode: str = "auto",
    budget: int = 12,
    seed: int = 0,
    samples: int = 64,
) -> Iterator[GluedSpace]:
    """Correspondence gluings at eta = distortion/2 over the unbounded
    ``correspondence_stream``; "auto" picks exact search where it fits."""
    if mode == "auto":
        mode = "exact" if _exact_fits(x, y, budget) else "heuristic"
    for rel in correspondence_stream(x, y, mode, budget, seed, samples):
        yield glue_from_correspondence(x, y, rel)


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

    Exact mode enumerates in ``enumerate_correspondences`` order and is
    capped at 7 points per side and nx*ny <= budget; heuristic mode streams
    deduplicated seeded candidates.

    ``prune(lower) -> bool`` makes the stream a branch and bound.  ``lower``
    bounds from below the basepoint gap d(x0, y0) of a correspondence's
    gluing at eta = dis(R)/2, hence its delta_r; where prune holds, the
    stream drops what the bound covers.  prune must stay true for larger
    bounds; it is called lazily, so it sees the consumer's current best.
    The bounds are the partial dis/2 of a row prefix in exact mode (the gap
    is at least dis(R)/2, and distortion only grows as rows are added, so
    the whole subtree goes) and, on each correspondence, the gap itself:
    min over (i, j) in R of d(x0, i) + dis(R)/2 + d(j, y0).  Heuristic mode
    tests only the gap, after deduplication, so its seeded draws stay put.
    """
    if search == "exact":
        if not _exact_fits(x, y, budget):
            raise BudgetExceeded(
                f"exact search needs both sides <= 7 points and a product <= {budget}, "
                f"got {x.n}x{y.n}"
            )
        yield from _row_search(x.n, y.n, x, y, prune)
    elif search == "heuristic":
        seen = set()
        for rel in _heuristic_correspondences(x, y, random.Random(seed), samples):
            if rel.pairs in seen:
                continue
            seen.add(rel.pairs)
            if prune is None or not prune(
                _base_gap(x, y, rel.pairs, correspondence_distortion(rel, x.space, y.space))
            ):
                yield rel
    else:
        raise MetricError(f"unknown search mode {search!r}")


def _heuristic_correspondences(
    x: PointedSpace, y: PointedSpace, rng: random.Random, samples: int
) -> Iterator[Correspondence]:
    nx, ny = x.n, y.n

    def profile_cost(i: int, j: int) -> Scalar:
        return abs(x.space.d(x.base, i) - y.space.d(y.base, j))

    # Greedy basepoint-profile matching, then the total correspondence.
    greedy = set()
    for i in range(nx):
        j = min(range(ny), key=lambda jj: (profile_cost(i, jj), jj))
        greedy.add((i, j))
    for j in range(ny):
        i = min(range(nx), key=lambda ii: (profile_cost(ii, j), ii))
        greedy.add((i, j))
    yield correspondence(greedy, nx, ny)
    yield correspondence(itertools.product(range(nx), range(ny)), nx, ny)
    for _ in range(samples):
        pairs = {(i, rng.randrange(ny)) for i in range(nx)}
        pairs.update((rng.randrange(nx), j) for j in range(ny))
        # Local repair: drop removable pairs with the worst profile cost.
        removable = sorted(pairs, key=lambda p: (profile_cost(*p), p), reverse=True)
        for pair in removable:
            trial = pairs - {pair}
            if trial and {i for i, _ in trial} == set(range(nx)) and {j for _, j in trial} == set(
                range(ny)
            ):
                if rng.random() < 0.5:
                    pairs = trial
        yield correspondence(pairs, nx, ny)


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
    return validate_gluing(host, px, tuple(obj["embedX"]), py, tuple(obj["embedY"]), tol=tol)
