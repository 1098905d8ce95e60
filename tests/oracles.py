"""Independent oracles for the test suite.

Everything here recomputes expected values from first principles (closed
forms, exhaustive enumeration, inclusion-exclusion) without touching the
library's algorithms, so agreement is evidence rather than tautology.
All arithmetic is exact on Fractions unless a caller passes floats.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import namedtuple
from fractions import Fraction
from math import comb


# ---------------------------------------------------------------------------
# correspondences


def full_relation_count(nx: int, ny: int) -> int:
    """Number of subsets of X x Y projecting onto both factors, by
    inclusion-exclusion over the rows and columns forced to be empty."""
    total = 0
    for i in range(nx + 1):
        for j in range(ny + 1):
            sign = -1 if (i + j) % 2 else 1
            total += sign * comb(nx, i) * comb(ny, j) * 2 ** ((nx - i) * (ny - j))
    return total


def all_full_relations(nx: int, ny: int):
    """Brute force the same set by filtering every subset of the grid."""
    cells = [(a, b) for a in range(nx) for b in range(ny)]
    out = []
    for mask in range(1, 2 ** len(cells)):
        pairs = frozenset(cells[k] for k in range(len(cells)) if mask >> k & 1)
        if {a for a, _ in pairs} == set(range(nx)) and {b for _, b in pairs} == set(range(ny)):
            out.append(pairs)
    return out


def correspondence_distortion_reference(rel, x_space, y_space):
    """dis(R) as first written: every pair of R with every later pair and
    with itself, through ``d``, in ``combinations_with_replacement`` order,
    the max kept from an int 0 on a strict ``>``."""
    dis = 0
    for (x1, y1), (x2, y2) in itertools.combinations_with_replacement(rel.pairs, 2):
        gap = abs(x_space.d(x1, x2) - y_space.d(y1, y2))
        if gap > dis:
            dis = gap
    return dis


def heuristic_correspondences_reference(x, y, rng, samples):
    """The seeded heuristic candidates with the repair as first written: it
    rebuilds both coverage sets for every pair it tries.  The greedy
    basepoint-profile matching, then the total correspondence, then per
    sample one draw per row and per column and the repair in descending
    (profile cost, pair) order, one ``rng.random()`` per pair whose removal
    keeps both sides covered.  Yields sorted pair tuples."""
    nx, ny = x.n, y.n

    def cost(i, j):
        return abs(x.space.d(x.base, i) - y.space.d(y.base, j))

    greedy = {(i, min(range(ny), key=lambda j: (cost(i, j), j))) for i in range(nx)}
    greedy |= {(min(range(nx), key=lambda i: (cost(i, j), i)), j) for j in range(ny)}
    yield tuple(sorted(greedy))
    yield tuple(itertools.product(range(nx), range(ny)))
    for _ in range(samples):
        pairs = {(i, rng.randrange(ny)) for i in range(nx)}
        pairs.update((rng.randrange(nx), j) for j in range(ny))
        for pair in sorted(pairs, key=lambda p: (cost(*p), p), reverse=True):
            trial = pairs - {pair}
            rows, cols = {i for i, _ in trial}, {j for _, j in trial}
            if rows == set(range(nx)) and cols == set(range(ny)) and rng.random() < 0.5:
                pairs = trial
        yield tuple(sorted(pairs))


# ---------------------------------------------------------------------------
# local distances on a gluing


def _min_dist(host, z: int, subset) -> Fraction:
    return min(host.d(z, w) for w in subset)


def _ball(space, center: int, r):
    return [i for i in range(space.n) if space.d(center, i) <= r]


def delta_r_closed_form(glued, r):
    """Definition form evaluated directly: the three sup terms are each
    attained, so the infimum is their maximum."""
    host = glued.host
    bx = [glued.embed_x[i] for i in _ball(glued.origin_x.space, glued.origin_x.base, r)]
    by = [glued.embed_y[j] for j in _ball(glued.origin_y.space, glued.origin_y.base, r)]
    to_y = max(_min_dist(host, z, glued.embed_y) for z in bx)
    to_x = max(_min_dist(host, z, glued.embed_x) for z in by)
    return max(to_y, to_x, host.d(glued.x0_host, glued.y0_host))


def _alt_feasible(glued, r, eps) -> bool:
    host = glued.host
    if host.d(glued.x0_host, glued.y0_host) > eps:
        return False
    bx = [glued.embed_x[i] for i in _ball(glued.origin_x.space, glued.origin_x.base, r)]
    by = [glued.embed_y[j] for j in _ball(glued.origin_y.space, glued.origin_y.base, r)]
    wide_x = [glued.embed_x[i] for i in _ball(glued.origin_x.space, glued.origin_x.base, r + 2 * eps)]
    wide_y = [glued.embed_y[j] for j in _ball(glued.origin_y.space, glued.origin_y.base, r + 2 * eps)]
    if any(_min_dist(host, z, wide_y) > eps for z in bx):
        return False
    if any(_min_dist(host, z, wide_x) > eps for z in by):
        return False
    return True


def delta_r_alt_scan(glued, r):
    """Widened-ball form minimized over its break candidates, with the
    minimality of the winner certified by probing strictly below it."""
    host = glued.host
    cands = {Fraction(0), Fraction(host.d(glued.x0_host, glued.y0_host))}
    for i in range(host.n):
        for j in range(host.n):
            cands.add(Fraction(host.d(i, j)))
    for c in (glued.x0_host, glued.y0_host):
        for q in range(host.n):
            v = (Fraction(host.d(c, q)) - Fraction(r)) / 2
            if v >= 0:
                cands.add(v)
    feasible = sorted(v for v in cands if _alt_feasible(glued, r, v))
    assert feasible, "the largest candidate always saturates both balls"
    best = feasible[0]
    below = sorted(v for v in cands if v < best) + [best]
    for lo, hi in zip(below, below[1:]):
        for num, den in ((1, 3), (7, 11)):
            probe = lo + (hi - lo) * Fraction(num, den)
            assert not _alt_feasible(glued, r, probe), (
                f"feasible at off-candidate probe {probe} below {best}"
            )
    return best


def delta_r_predicate_scan(glued, r, tol):
    """Ascending scan of the breakpoints (0, the basepoint gap, every host
    distance and the halves of the nonnegative gaps d(c, q) - r from either
    basepoint c), stopping at the first eps where the definition predicate
    holds with "a <= b" read as a <= b + tol: basepoints within eps, and
    every point of either copy's r-ball within eps of the other copy."""
    host = glued.host
    x0, y0 = glued.x0_host, glued.y0_host
    bx = [h for h in glued.embed_x if host.d(x0, h) <= r + tol]
    by = [h for h in glued.embed_y if host.d(y0, h) <= r + tol]
    cands = {0, host.d(x0, y0)}
    cands.update(host.d(i, j) for i in range(host.n) for j in range(host.n))
    cands.update((host.d(c, q) - r) / 2 for c in (x0, y0) for q in range(host.n) if host.d(c, q) >= r)
    for eps in sorted(cands):
        if (
            host.d(x0, y0) <= eps + tol
            and all(_min_dist(host, z, glued.embed_y) <= eps + tol for z in bx)
            and all(_min_dist(host, z, glued.embed_x) <= eps + tol for z in by)
        ):
            return eps
    raise AssertionError("the host diameter always satisfies the predicate")


def delta_r_grid_scan(glued, r, step: float = 1e-4) -> float:
    """Float grid scan; the true value lies within one step below the
    first feasible grid point."""
    hi = float(max(max(row) for row in glued.host.dist)) + step
    eps = 0.0
    while eps <= hi:
        if _alt_feasible(glued, r, eps):
            return eps
        eps += step
    return float("inf")


# ---------------------------------------------------------------------------
# Lipschitz extension closed forms


def mcshane_upper(host, anchors: dict, L):
    return [min(v + L * host.d(i, z) for i, v in anchors.items()) for z in range(host.n)]


def mcshane_lower(host, anchors: dict, L):
    return [max(v - L * host.d(i, z) for i, v in anchors.items()) for z in range(host.n)]


# ---------------------------------------------------------------------------
# vertex enumeration for difference-constraint polytopes
#
# Feasible sets of the form {f : |f_u - f_v| <= c(u,v), f pinned on A} are
# bounded polytopes whose vertices are determined by spanning structures of
# tight constraints: every free coordinate is chained through tight edges to
# a pinned coordinate (or to coordinate 0 for the dual-ball variant).  The
# enumerations below therefore cover every vertex, possibly with repeats.


def _prufer_trees(n: int):
    """Edge lists of all labelled spanning trees on 0..n-1."""
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        seq_list = list(seq)
        leaves = sorted(i for i in range(n) if degree[i] == 1)
        for v in seq_list:
            leaf = leaves.pop(0)
            edges.append((leaf, v))
            degree[v] -= 1
            if degree[v] == 1:
                # v becomes a leaf now; keep the pool ordered
                bisect.insort(leaves, v)
        edges.append((leaves[0], leaves[1]))
        yield edges


def w1_dual_vertices(dist, delta):
    """LP max of <delta, f> over the 1-Lipschitz ball with f(0) = 0, by
    enumerating the tree-tight vertices."""
    n = len(dist)
    if n == 1:
        return Fraction(0)
    best = None
    for edges in _prufer_trees(n):
        for signs in itertools.product((1, -1), repeat=len(edges)):
            f = [None] * n
            f[0] = Fraction(0)
            pending = list(zip(edges, signs))
            # resolve in waves; a tree grounds out in <= n-1 passes
            for _ in range(n):
                nxt = []
                for (u, v), s in pending:
                    if f[u] is not None and f[v] is None:
                        f[v] = f[u] + s * dist[u][v]
                    elif f[v] is not None and f[u] is None:
                        f[u] = f[v] + s * dist[u][v]
                    elif f[u] is None and f[v] is None:
                        nxt.append(((u, v), s))
                pending = nxt
            if any(v is None for v in f):
                continue
            if any(abs(f[i] - f[j]) > dist[i][j] for i in range(n) for j in range(i + 1, n)):
                continue
            value = sum(d * fv for d, fv in zip(delta, f))
            if best is None or value > best:
                best = value
    return best


def lipschitz_hull_vertices(dist, l, pins: dict):
    """(feasible, lo, hi): coordinate envelope of {g : |g_u-g_v| <= l*d(u,v),
    g = pins on its keys}, by enumerating grounded tight forests."""
    n = len(dist)
    free = [i for i in range(n) if i not in pins]
    for (u, vu), (w, vw) in itertools.combinations(pins.items(), 2):
        if abs(vu - vw) > l * dist[u][w]:
            return False, None, None
    if not free:
        vals = [pins[i] for i in range(n)]
        return True, vals, vals
    assert pins, "an unpinned difference polytope is unbounded"
    choices = []
    for fidx in free:
        opts = []
        for parent in range(n):
            if parent == fidx:
                continue
            for sign in (1, -1):
                opts.append((parent, sign))
        choices.append(opts)
    lo = [None] * n
    hi = [None] * n
    feasible = False
    for combo in itertools.product(*choices):
        g = [None] * n
        for i, v in pins.items():
            g[i] = v
        for _ in range(len(free) + 1):
            for fidx, (parent, sign) in zip(free, combo):
                if g[fidx] is None and g[parent] is not None:
                    g[fidx] = g[parent] + sign * l * dist[parent][fidx]
        if any(g[i] is None for i in free):
            continue  # parent chain loops without grounding
        if any(abs(g[i] - g[j]) > l * dist[i][j] for i in range(n) for j in range(i + 1, n)):
            continue
        feasible = True
        for z in range(n):
            if lo[z] is None or g[z] < lo[z]:
                lo[z] = g[z]
            if hi[z] is None or g[z] > hi[z]:
                hi[z] = g[z]
    if not feasible:
        return False, None, None
    return True, lo, hi


# ---------------------------------------------------------------------------
# lift envelope by linear programming
#
# The lift bounds of a passage read off its seminorm rather than its carrier
# metric: per carrier point, the least and the greatest value over the
# functions that meet the pins, agree on the zero pairs and keep every
# functional within l.  The LP is solved by the library's exact simplex, but
# no McShane formula and no carrier distance enters it.


# A polyhedral seminorm on a host: max |c.f| over the functionals c,
# infinite unless f agrees on every zero pair.
Seminorm = namedtuple("Seminorm", "host functionals zero_pairs")


def composed_seminorm(p) -> Seminorm:
    """The seminorm of a passage by definition, on its carrier's indices.  A
    metric passage has the Lipschitz seminorm of its carrier: (f_i - f_j) /
    d(i, j) for i < j, and a zero pair where d(i, j) = 0.  A composed one has
    its two legs' seminorms, the second shifted past the first's carrier,
    and (f_a - f_b) / alpha at each bridge between the two copies of the
    middle space."""
    n = p.carrier.n
    if p.info is None:
        functionals, zero_pairs = [], []
        for i in range(n):
            for j in range(i + 1, n):
                d = p.carrier.d(i, j)
                if d == 0:
                    zero_pairs.append((i, j))
                else:
                    c = [0] * n
                    c[i], c[j] = Fraction(1) / d, -Fraction(1) / d
                    functionals.append(tuple(c))
        return Seminorm(p.carrier, tuple(functionals), tuple(zero_pairs))
    first, second, off = p.info.first, p.info.second, p.info.offset
    sem1, sem2 = composed_seminorm(first), composed_seminorm(second)
    n2 = n - off
    functionals = [tuple(c) + (0,) * n2 for c in sem1.functionals]
    functionals += [(0,) * off + tuple(c) for c in sem2.functionals]
    w = Fraction(1) / p.info.alpha
    for b in range(first.codomain.n):
        row = [0] * n
        row[first.embed_y[b]] = w
        row[off + second.embed_x[b]] = -w
        functionals.append(tuple(row))
    zero_pairs = list(sem1.zero_pairs) + [(off + i, off + j) for i, j in sem2.zero_pairs]
    return Seminorm(p.carrier, tuple(functionals), tuple(zero_pairs))


def lift_bounds_lp(seminorm, l, pins: dict):
    """(feasible, lo, hi) over free f with f = pins on its keys, f_i = f_j
    on the zero pairs and |c.f| <= l for every functional c.  Free values
    are split as f = u - v with u, v >= 0, and each bound on c.f gets a
    slack."""
    from ghlab.simplex import LPInfeasible, solve_lp

    n = seminorm.host.n

    def unit(size, i, j=None):
        return [1 if k == i else -1 if k == j else 0 for k in range(size)]

    def split(row):
        return list(row) + [-a for a in row]

    eq = [(unit(n, z), v) for z, v in pins.items()]
    eq += [(unit(n, i, j), 0) for i, j in seminorm.zero_pairs]
    ub = [[s * ck for ck in c] for c in seminorm.functionals for s in (1, -1)]
    m = len(ub)
    rows = [split(row) + [0] * m for row, _ in eq]
    rows += [split(row) + unit(m, k) for k, row in enumerate(ub)]
    rhs = [v for _, v in eq] + [l] * m
    lo, hi = [], []
    try:
        for z in range(n):
            e = unit(n, z)
            lo.append(solve_lp(split(e) + [0] * m, rows, rhs)[0])
            hi.append(-solve_lp(split([-a for a in e]) + [0] * m, rows, rhs)[0])
    except LPInfeasible:
        return False, None, None
    return True, lo, hi


# ---------------------------------------------------------------------------
# tolerant comparison


def leq_reference(a, b, tol=0) -> bool:
    """``numerics.leq`` with +inf read off before comparing (its former
    definition)."""
    if isinstance(b, float) and math.isinf(b):
        return True
    if isinstance(a, float) and math.isinf(a):
        return False
    return a <= b + tol if tol else a <= b


# ---------------------------------------------------------------------------
# admissibility and the uncached extent scan
#
# The one-sided admissibility clauses transcribed from their definitions,
# admissibility decided on the continuum of radii with them, and the extent
# scan as it stood before probe results were shared: the full candidate set
# rebuilt on every call, each tolerance decided by the continuum check.
# Nothing here calls the library's clause code or its witness families; the
# composed clause 3 alone reads ``tunnels._bump_family_feasible``.


def closed_ball_reference(pointed_space, s, tol=0) -> list:
    """Indices of the closed s-ball about the basepoint, by ``numerics.leq``."""
    from ghlab.numerics import leq

    space, base = pointed_space.space, pointed_space.base
    return [i for i in range(space.n) if leq(space.d(base, i), s, tol)]


def witness_family_reference(p, eps, tol=0):
    """t -> K_t.  Canonical: the union of the embedded closed (t + 2 eps)
    basepoint balls.  Composed: the parts' families, the first at t + 4 eps2
    and the second at t + 4 eps1 with its indices moved past the first
    carrier."""
    if p.info is None:
        def kf(t):
            s = t + 2 * eps
            return frozenset(
                [p.embed_x[i] for i in closed_ball_reference(p.domain, s, tol)]
                + [p.embed_y[j] for j in closed_ball_reference(p.codomain, s, tol)]
            )

        return kf
    info = p.info
    kf1 = witness_family_reference(info.first, info.eps1, tol)
    kf2 = witness_family_reference(info.second, info.eps2, tol)

    def kf(t):
        return kf1(t + 4 * info.eps2) | frozenset(info.offset + z for z in kf2(t + 4 * info.eps1))

    return kf


def left_clauses_reference(p, r, eps, K, tol=0) -> tuple:
    """(ok, certificate) of clauses 1-3 at radius r > 0 and eps > 0, as
    ``tunnels.check_left_admissible`` words them.  (1) the closed r-ball of
    the domain lands in K; (2) every point of K, ascending, lies within eps
    of the image of the closed (r + 4 eps)-ball; (3) with the zero region the
    carrier points outside K and the images of codomain points outside the
    closed (r + 4 eps)-ball, every domain point's distance to the complement
    of the r-ball is at most its image's carrier distance to the zero region
    (for a composed passage, the bump family's feasibility)."""
    from ghlab.metric_core import dist_to_set
    from ghlab.numerics import leq
    from ghlab.tunnels import _bump_family_feasible

    carrier, X = p.carrier, p.domain.space
    K = frozenset(K)
    mode = "exact" if p.kind == "metric" else "family"
    ball = closed_ball_reference(p.domain, r, tol)
    for i in ball:
        if p.embed_x[i] not in K:
            return False, {"clause": 1, "witness": X.points[i], "mode": mode}
    wide_image = [p.embed_x[i] for i in closed_ball_reference(p.domain, r + 4 * eps, tol)]
    for z in sorted(K):
        if not leq(dist_to_set(carrier, z, wide_image), eps, tol):
            return False, {"clause": 2, "witness": carrier.points[z], "mode": mode}
    y_wide = set(closed_ball_reference(p.codomain, r + 4 * eps, tol))
    zero = {z for z in range(carrier.n) if z not in K}
    zero |= {p.embed_y[j] for j in range(p.codomain.n) if j not in y_wide}
    zero = tuple(sorted(zero))
    complement = [i for i in range(X.n) if i not in ball]
    if p.kind == "metric":
        for i in range(X.n):
            escape = dist_to_set(X, i, complement)
            if not leq(escape, dist_to_set(carrier, p.embed_x[i], zero), tol):
                return False, {"clause": 3, "witness": X.points[i], "mode": mode}
    else:
        ok, witness = _bump_family_feasible(p, complement, zero, tol)
        if not ok:
            return False, {"clause": 3, "witness": witness, "mode": mode}
    return True, {"clauses": "1-3 checked, 4-5 automatic", "mode": mode, "zero_size": len(zero)}


def _half(v):
    return v / 2 if isinstance(v, float) else Fraction(v, 2)


def _quarter(v):
    return v / 4 if isinstance(v, float) else Fraction(v, 4)


def eps_candidates_reference(p, r) -> list:
    from ghlab.tunnels import _base_rows

    carrier = p.carrier
    base_values = _base_rows(p)
    cmp_values = {carrier.d(i, j) for i in range(carrier.n) for j in range(i + 1, carrier.n)}
    cands = set()
    for v in base_values | cmp_values | {r}:
        if v > 0:
            cands.update((v, _half(v), _quarter(v)))
    shifted = base_values | {r}
    for v in shifted:
        for w in shifted | {0}:
            if v - w > 0:
                cands.update((_half(v - w), _quarter(v - w)))
    return sorted(cands)


def check_admissible_continuum(p, r, eps, tol=0) -> tuple:
    """Admissibility of eps at radius r by brute force over (0, r].  The
    clauses read t only through memberships d <= t + s + tol, d a basepoint
    row and s a family shift, and each flips at the breakpoint d - s - tol;
    so probing every breakpoint in (0, r], the midpoint of each gap between
    consecutive ones (0 among them) and r meets every membership pattern of
    the continuum."""
    from ghlab.numerics import leq
    from ghlab.tunnels import _base_rows, _family_shifts, inverse

    if r <= 0 or eps <= 0:
        return False, {"reason": "nonpositive radius or tolerance"}
    gap = p.carrier.d(p.x0_host, p.y0_host)
    if not leq(gap, eps, tol):
        return False, {"reason": "basepoint", "gap": gap}
    shifts = {0, 2 * eps, 4 * eps} | _family_shifts(p, eps)
    points = {d - s - tol for d in _base_rows(p) for s in shifts}
    points = sorted({t for t in points if 0 < t <= r} | {r})
    probes = sorted(set(points) | {_half(a + b) for a, b in zip([0] + points, points)})
    kf = witness_family_reference(p, eps, tol)
    for t in probes:
        K = kf(t)
        for side, q in (("left", p), ("right", inverse(p))):
            ok, cert = left_clauses_reference(q, t, eps, K, tol)
            if not ok:
                return False, {"t": t, "side": side, **cert}
    return True, {"probes": len(probes)}


def extent_scan_reference(p, r, cutoff=math.inf, tol=0, context=None) -> tuple:
    """(value, attained probe); ``context`` is accepted and ignored, so the
    reference can stand in for ``tunnels._extent_scan``."""

    def admissible(e):
        return check_admissible_continuum(p, r, e, tol=tol)[0]

    cands = eps_candidates_reference(p, r)
    if not cands:
        return (0, 1) if admissible(1) else (math.inf, None)
    gap = p.carrier.d(p.x0_host, p.y0_host)
    if tol == 0 and gap > 0:
        start = bisect.bisect_left(cands, gap)
    else:
        start = 0
        probe0 = _half(cands[0])
        if probe0 < cutoff and admissible(probe0):
            return 0, probe0
    for i in range(start, len(cands)):
        c = cands[i]
        if c >= cutoff:
            if i > start:
                prev = cands[i - 1]
                probe = _half(prev + cutoff)
                if prev < probe < cutoff and admissible(probe):
                    return prev, probe
            return math.inf, None
        if admissible(c):
            return c, c
        nxt = cands[i + 1] if i + 1 < len(cands) else 2 * c + 1
        mid = _half(c + min(nxt, cutoff))
        if c < mid < cutoff and admissible(mid):
            return c, mid
    return math.inf, None


# ---------------------------------------------------------------------------
# threshold bisection
#
# The bracket's bisection as it stood before it ran on integer numerators:
# each midpoint is half the sum of the ends, an even int sum halving to an
# int, any other exact sum to a ``Fraction``.


def tau_bisect_reference(pred, hi, iters) -> tuple:
    lo = 0.0 if isinstance(hi, float) else 0
    for _ in range(iters):
        s = lo + hi
        if isinstance(s, float):
            m = s / 2
        elif isinstance(s, int) and not s % 2:
            m = s // 2
        else:
            m = Fraction(s, 2)
        if pred(m):
            hi = m
        else:
            lo = m
    return lo, hi


# ---------------------------------------------------------------------------
# metric validation
#
# ``validate_metric`` as it stood before the integer grid: every check on the
# caller's own entries, the triangle scan in their own arithmetic, with a
# finite float tol on rational rows taken at its exact value.


def validate_metric_reference(points, dist, require_strict=False, tol=0):
    from ghlab.metric_core import AxiomViolation, FiniteMetricSpace, NotSquare

    pts = tuple(points)
    n = len(pts)
    if len(set(pts)) != n:
        raise AxiomViolation("labels", (), "point labels must be distinct")
    if len(dist) != n or any(len(row) != n for row in dist):
        raise NotSquare(f"need a {n}x{n} matrix, got rows {[len(r) for r in dist]}")
    rows = tuple(tuple(row) for row in dist)
    if isinstance(tol, float) and math.isfinite(tol):
        # on rational rows a float tol counts at its exact value, so adding
        # it to an exact sum does not round the sum
        if all(isinstance(v, (int, Fraction)) for row in rows for v in row):
            tol = Fraction(tol)
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
