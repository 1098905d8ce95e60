"""Seeded input generator for the benchmark workloads.

The generator is the benchmark's own and imports nothing from ``ghlab``, so
a change to the package (its verify generators included) cannot change the
inputs.  Distances are rationals with denominators 1-3, repaired into a
metric by min-plus closure.  They are valid metrics, but thirds are not
exact in binary floating point, which float ingestion has to cope with.

Every value is JSON-ready: integers stay integers and other rationals are
"p/q" strings, the form ``ghlab`` documents use.  The same workload name and
seed always give byte-identical documents (see ``digest``).
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

DENOMINATORS = (1, 2, 3)


def rng_for(workload: str, seed: int) -> random.Random:
    # string seeds hash with SHA-512, so they are stable across processes
    return random.Random(f"perfbench:{workload}:{seed}")


def scalar(v: Fraction):
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def rational(rng: random.Random, hi: int = 12) -> Fraction:
    return Fraction(rng.randint(1, hi), rng.choice(DENOMINATORS))


def radius(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 8), rng.choice(DENOMINATORS))


def closure(rows: list) -> list:
    """Min-plus (shortest path) closure of a symmetric nonnegative matrix."""
    n = len(rows)
    out = [list(row) for row in rows]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = out[i][k] + out[k][j]
                if via < out[i][j]:
                    out[i][j] = via
    return out


def metric_rows(rng: random.Random, n: int) -> list:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rational(rng)
    return closure(rows)


def space_doc(rows: list, base: int | None = None) -> dict:
    doc = {
        "points": [str(i) for i in range(len(rows))],
        "dist": [[scalar(v) for v in row] for row in rows],
    }
    if base is not None:
        doc["basepoint"] = base
    return doc


def pointed_doc(rng: random.Random, n: int) -> dict:
    return space_doc(metric_rows(rng, n), rng.randrange(n))


def rows_of(doc: dict) -> list:
    return [[Fraction(v) for v in row] for row in doc["dist"]]


def correspondence_pairs(rng: random.Random, nx: int, ny: int) -> list:
    """A random relation covering both sides, as sorted [i, j] pairs."""
    pairs = {(i, rng.randrange(ny)) for i in range(nx)}
    pairs |= {(rng.randrange(nx), j) for j in range(ny)}
    for _ in range(rng.randint(0, nx * ny // 2)):
        pairs.add((rng.randrange(nx), rng.randrange(ny)))
    return [list(p) for p in sorted(pairs)]


def distortion(pairs: list, dx: list, dy: list) -> Fraction:
    return max(
        abs(dx[i1][i2] - dy[j1][j2]) for i1, j1 in pairs for i2, j2 in pairs
    )


def glued_doc(rng: random.Random, x: dict, y: dict) -> dict:
    """Correspondence gluing of two pointed documents at a seeded bridge
    width eta >= distortion/2 (half, once or twice the distortion)."""
    dx, dy = rows_of(x), rows_of(y)
    nx, ny = len(dx), len(dy)
    pairs = correspondence_pairs(rng, nx, ny)
    dis = distortion(pairs, dx, dy)
    if dis > 0:
        eta = rng.choice((dis / 2, dis, 2 * dis))
    else:
        eta = Fraction(1, rng.randint(1, 4))
    n = nx + ny
    host = [[Fraction(0)] * n for _ in range(n)]
    for a in range(nx):
        for b in range(nx):
            host[a][b] = dx[a][b]
    for a in range(ny):
        for b in range(ny):
            host[nx + a][nx + b] = dy[a][b]
    for a in range(nx):
        for b in range(ny):
            cross = min(dx[a][i] + eta + dy[j][b] for i, j in pairs)
            host[a][nx + b] = host[nx + b][a] = cross
    labels = [f"X:{p}" for p in x["points"]] + [f"Y:{q}" for q in y["points"]]
    return {
        "host": {"points": labels, "dist": [[scalar(v) for v in row] for row in host]},
        "embedX": list(range(nx)),
        "embedY": list(range(nx, n)),
        "X": x,
        "Y": y,
    }


def weights(rng: random.Random, n: int) -> list:
    """A probability vector with small integer numerators, some zero."""
    raw = [rng.randint(0, 4) for _ in range(n)]
    if not any(raw):
        raw[rng.randrange(n)] = 1
    total = sum(raw)
    return [scalar(Fraction(w, total)) for w in raw]


def subset(rng: random.Random, n: int) -> list:
    k = rng.randint(1, n)
    return sorted(rng.sample(range(n), k))


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
