"""Digests of the package's answers, to show that a change keeps them.

Run from the root of a checkout (the directory holding ``src/ghlab`` and
``perfbench``), once on the parent commit and once on the change, then diff
the two outputs; a speed-up that keeps every answer prints the same lines:

    python3 tools/answers.py > /tmp/parent.txt      # in the parent's checkout
    python3 tools/answers.py > /tmp/change.txt      # in the change's checkout
    diff /tmp/parent.txt /tmp/change.txt

``python3 tools/answers.py tunnel cli`` runs only the named families.  Each
family prints one line: its name, how many answers it saw, and a sha256 of
every answer's repr with its Python type, in order.  ``--dump DIR`` also
writes each family's answers to ``DIR/<name>.txt`` ("/" in a name read as
"_"), one such repr a line, so that ``diff -r`` of two dumps shows which
answers moved and how:

    python3 tools/answers.py --dump /tmp/parent brackets   # parent checkout
    python3 tools/answers.py --dump /tmp/change brackets   # change checkout
    diff -r /tmp/parent /tmp/change

The queries are the benchmark's own pools (``perfbench/workloads.py``),
regenerated from their seeds; nothing is written under ``perfbench``.  The
families are:

- ``tunnel``: every answer of the ``tunnel`` pools of input sets 0-7;
- ``admissible``: ``smallest_admissible`` of their extent queries and the
  ``check_admissible`` certificate of that tolerance, at tol 0 and 1/10;
- ``clauses``: ``check_left_admissible`` of the extent passages of the
  ``tunnel`` pools of input sets 0-3 and of their inverses, at t = r/2 and r,
  at eps = gap/2, gap and 2 gap (1 in place of a zero basepoint gap), on the
  canonical K_t and two seeded random carrier subsets, at each tol of
  ``admissible``; ``check_admissible`` reaches these clauses only on a memo
  miss, and only on the canonical K_t;
- ``brackets``, ``brackets-1/3`` and ``brackets--1/10``: their
  ``propinquity_bracket`` queries at tol 1/10, 1/3 and -1/10, a raised
  exception recorded by its type name;
- ``local-propinquity``: ``local_propinquity`` at r = 1/2 and 7/3, value
  and witness kind and carrier, on the pairs of the ``tunnel`` pools of
  input sets 0-1 (each bracket's pair and each extent passage's domain and
  codomain);
- ``search``: the ``search`` values and witnesses of input sets 0-3;
- ``search-1/10``: ``Delta_r`` of their ``Delta_r`` queries at tol 1/10;
- ``search-float``: the same queries on float twins of both spaces
  (validated at ``DEFAULT_FLOAT_TOL``) at a float radius, at tol 0 and at
  1e-9, a raised exception recorded by its type name;
- ``heuristic``: the pairs of every candidate of the unpruned heuristic
  ``correspondence_stream`` on the heuristic pairs of the ``search`` pools
  of input sets 0-7, at their seeds and samples;
- ``cli``: exit code and standard output of every ``gh`` query of the
  ``cli-float`` pools 0-3, on the float and the rational backend, each run
  with its documents under the same relative names in a scratch directory;
- ``verify``: ``gh verify --suite all`` on both backends;
- ``w1``: the ``w1`` value and ``w1_dual_potential``'s value of every ``w1``
  document of the ``cli-float`` pools 0-7, read as ``gh w1`` reads it, on
  the rational backend at tol 0 and on the float backend at
  ``DEFAULT_FLOAT_TOL``; a document that float ingestion refuses is
  recorded by the error's type name.

Standard library only; ``GHLAB_*`` variables are cleared so that they do not
change a ``gh`` default.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import os
import random
import sys
import tempfile
from fractions import Fraction

ROOT = os.getcwd()
for sub in ("perfbench", "src"):
    sys.path.insert(0, os.path.join(ROOT, sub))
if not os.path.isfile(os.path.join(ROOT, "src", "ghlab", "__init__.py")):
    sys.exit("answers: no src/ghlab under the working directory; run from a checkout root")
for name in [k for k in os.environ if k.startswith("GHLAB_")]:
    del os.environ[name]

import workloads  # noqa: E402
from ghlab import cli, gluing, kantorovich, local_gh, metric_core, tunnels  # noqa: E402
from ghlab.numerics import DEFAULT_FLOAT_TOL, parse_scalar  # noqa: E402

TUNNEL_SETS = range(8)
CLAUSE_SETS = range(4)
LOCAL_SETS = range(2)
LOCAL_RADII = (Fraction(1, 2), Fraction(7, 3))
SEARCH_SETS = range(4)
HEURISTIC_SETS = range(8)
CLI_SETS = range(4)
W1_SETS = range(8)
TOLS = (0, Fraction(1, 10))


def typed(v):
    """v with the Python type of every scalar inside a tuple, list or dict;
    anything else is its type name and repr (a dataclass repr shows the
    types of its numbers)."""
    if isinstance(v, (tuple, list)):
        return type(v).__name__, [typed(x) for x in v]
    if isinstance(v, dict):
        return "dict", [(typed(k), typed(x)) for k, x in v.items()]
    return type(v).__name__, repr(v)


def _prepared(workload: str, sets) -> list:
    return [workloads.prepare_api(q) for s in sets for q in workloads.pool(workload, s)]


def tunnel() -> list:
    return [workloads.execute(op, args) for op, args in _prepared("tunnel", TUNNEL_SETS)]


def admissible() -> list:
    out = []
    for op, args in _prepared("tunnel", TUNNEL_SETS):
        if op != "extent":
            continue
        p, r = args
        for tol in TOLS:
            eps = tunnels.smallest_admissible(p, r, tol)
            out.append((eps, None if eps is None else tunnels.check_admissible(p, r, eps, tol=tol)))
    return out


def clauses() -> list:
    out = []
    rng = random.Random(0)
    for op, args in _prepared("tunnel", CLAUSE_SETS):
        if op != "extent":
            continue
        p, r = args
        gap = p.carrier.d(p.x0_host, p.y0_host) or 1
        n = p.carrier.n
        subsets = [frozenset(rng.sample(range(n), rng.randint(0, n))) for _ in range(2)]
        for t in (Fraction(r, 2), r):
            for eps in (Fraction(gap, 2), gap, 2 * gap):
                for tol in TOLS:
                    for K in (tunnels.k_family(p, eps, tol)(t), *subsets):
                        for q in (p, tunnels.inverse(p)):
                            out.append(tunnels.check_left_admissible(q, t, eps, K, tol))
    return out


def brackets(tol) -> list:
    out = []
    for op, args in _prepared("tunnel", TUNNEL_SETS):
        if op == "propinquity_bracket":
            try:
                out.append(tunnels.propinquity_bracket(*args, tol=tol))
            except Exception as err:
                out.append(type(err).__name__)
    return out


def local_propinquity() -> list:
    out = []
    for op, args in _prepared("tunnel", LOCAL_SETS):
        x, y = args if op == "propinquity_bracket" else (args[0].domain, args[0].codomain)
        for r in LOCAL_RADII:
            value, witness = tunnels.local_propinquity(x, y, r)
            out.append((value, witness.kind, witness.carrier))
    return out


def search() -> list:
    out = []
    for op, args in _prepared("search", SEARCH_SETS):
        if op == "Delta_r":
            x, y, r, how = args
            out.append(local_gh.Delta_r(x, y, r, **how))
        else:
            x, y, how = args
            found = local_gh.gh_inframetric(x, y, **how)
            out.append((found.raw, found.witness))
    return out


def _float_twin(p):
    rows = [[float(v) for v in row] for row in p.space.dist]
    space = metric_core.validate_metric(p.space.points, rows, tol=DEFAULT_FLOAT_TOL)
    return metric_core.PointedSpace(space, p.base)


def search_delta(tols, floats: bool) -> list:
    out = []
    for op, args in _prepared("search", SEARCH_SETS):
        if op != "Delta_r":
            continue
        x, y, r, how = args
        if floats:
            x, y, r = _float_twin(x), _float_twin(y), float(r)
        for tol in tols:
            try:
                out.append(local_gh.Delta_r(x, y, r, tol=tol, **how))
            except Exception as err:
                out.append(type(err).__name__)
    return out


def heuristic() -> list:
    return [
        rel.pairs
        for op, (x, y, *_, how) in _prepared("search", HEURISTIC_SETS)
        if op == "Delta_r" and how["search"] == "heuristic"
        for rel in gluing.correspondence_stream(
            x, y, "heuristic", seed=how["seed"], samples=how["samples"]
        )
    ]


def _gh(argv: list) -> tuple:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, stdout.getvalue()


def cli_outputs() -> list:
    out = []
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for s in CLI_SETS:
                for i, query in enumerate(workloads.pool("cli-float", s)):
                    _, (argv,) = workloads.write_cli_docs(query, i, ".")
                    out.append(_gh(argv))
                    out.append(_gh(argv + ["--backend", "rational"]))
        finally:
            os.chdir(ROOT)
    return out


def verify() -> list:
    return [_gh(["verify", "--suite", "all", "--backend", b]) for b in ("float", "rational")]


def w1() -> list:
    out = []
    for s in W1_SETS:
        for query in workloads.pool("cli-float", s):
            if query["op"] != "w1":
                continue
            doc = query["docs"]["in"]
            for backend, tol in (("rational", 0), ("float", DEFAULT_FLOAT_TOL)):
                try:
                    space = metric_core.space_from_json(doc["space"], backend)
                    mu, nu = (
                        kantorovich.measure(space, [parse_scalar(v, backend) for v in doc[k]], tol)
                        for k in ("mu", "nu")
                    )
                except metric_core.MetricError as err:
                    out.append(type(err).__name__)
                    continue
                out.append((kantorovich.w1(mu, nu, tol), kantorovich.w1_dual_potential(mu, nu, tol)[0]))
    return out


FAMILIES = {
    "tunnel": tunnel,
    "admissible": admissible,
    "clauses": clauses,
    "brackets": functools.partial(brackets, Fraction(1, 10)),
    "brackets-1/3": functools.partial(brackets, Fraction(1, 3)),
    "brackets--1/10": functools.partial(brackets, Fraction(-1, 10)),
    "local-propinquity": local_propinquity,
    "search": search,
    "search-1/10": functools.partial(search_delta, (Fraction(1, 10),), False),
    "search-float": functools.partial(search_delta, (0, 1e-9), True),
    "heuristic": heuristic,
    "cli": cli_outputs,
    "verify": verify,
    "w1": w1,
}


def main(argv: list) -> None:
    parser = argparse.ArgumentParser(description="Digest (and dump) the package's answers.")
    parser.add_argument("names", nargs="*", metavar="family", help=", ".join(FAMILIES))
    parser.add_argument("--dump", metavar="DIR", help="write each family's answers under DIR")
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in FAMILIES]
    if unknown:
        parser.error(f"unknown families: {', '.join(unknown)}")
    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
    for name in args.names or FAMILIES:
        lines = [repr(typed(answer)) + "\n" for answer in FAMILIES[name]()]
        digest = hashlib.sha256("".join(lines).encode())
        print(name, len(lines), digest.hexdigest(), flush=True)
        if args.dump:
            path = os.path.join(args.dump, name.replace("/", "_") + ".txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(lines)


if __name__ == "__main__":
    main(sys.argv[1:])
