"""The command line contract on damaged input, as a property.

Every document starts valid: one host built by ``min_plus_closure`` from
drawn edge lengths, its first points the pointed space X and the rest the
pointed space Y, so the glued and passage documents are exact gluings.  One
mutation then damages one document (or none), and ``-r`` and ``--tol`` are
drawn from one scalar pool that holds valid and invalid values alike.  Each
command runs in process on both backends; whatever the input, it must exit
0 or with one of ``cli._EXIT_CODES``' codes, print exactly one JSON report
and raise nothing; and a document damaged beyond a metric's reading
(``INVALID``) is refused.  ``verify`` runs the same way on drawn
``--suite``, ``--cases`` and ``--seed`` values, valid and damaged; it
answers the valid ones and refuses the damaged ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ghlab import cli
from ghlab.metric_core import min_plus_closure
from ghlab.verify import MAX_CASES

EXIT_CODES = {cli.EXIT_OK} | {code for _, code in cli._EXIT_CODES}

# JSON text for an out-of-range float literal, which json.dumps cannot write
BIG_LITERAL = "__1e400__"
SCALAR_MUTATIONS = {
    "Infinity": math.inf,
    "-Infinity": -math.inf,
    "NaN": math.nan,
    "1e400": BIG_LITERAL,
    "401-digit": 10**400,
    "negative": -1,
}
SPACE_MUTATIONS = ("ragged", "duplicate-label", "list-label", "basepoint", "empty")
# what no command may answer: an extended metric may hold +inf, and the
# rational backend reads any finite number, so only these are refusals
INVALID = {"-Infinity", "NaN", "negative", *SPACE_MUTATIONS}
VALID_SCALARS = ("1", "1/2", "3", "0.25")
SCALARS = VALID_SCALARS + ("0", "-1", "inf", "-inf", "Infinity", "-Infinity", "nan", "1e400",
                           str(10**400), "1/0", "x")
COMMANDS = ("Delta-r", "inframetric", "propinquity", "delta-r", "extent", "hausdorff", "w1")
RADIUS = {"Delta-r", "delta-r", "extent"}


def _space(rows, idx, prefix, base=None) -> dict:
    doc = {"points": [f"{prefix}{k}" for k in range(len(idx))],
           "dist": [[rows[a][b] for b in idx] for a in idx]}
    if base is not None:
        doc["basepoint"] = base
    return doc


@st.composite
def queries(draw):
    nx, ny = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    n = nx + ny
    lengths = iter(draw(st.lists(st.integers(1, 6), min_size=n * n, max_size=n * n)))
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            rows[a][b] = rows[b][a] = next(lengths)
    host = min_plus_closure(rows)
    xs, ys = range(nx), range(nx, n)
    x = _space(host, xs, "x", draw(st.integers(0, nx - 1)))
    y = _space(host, ys, "y", draw(st.integers(0, ny - 1)))
    glued = {"host": _space(host, range(n), "h"), "X": x, "Y": y,
             "embedX": list(xs), "embedY": list(ys)}
    whole = _space(host, range(n), "h")
    command = draw(st.sampled_from(COMMANDS))
    if command in ("Delta-r", "inframetric", "propinquity"):
        docs, spaces = {"x": x, "y": y}, [x, y]
    elif command == "delta-r":
        docs, spaces = {"glued": glued}, [glued["host"], x, y]
    elif command == "extent":
        docs, spaces = {"passage": {"gluing": glued}}, [glued["host"], x, y]
    elif command == "hausdorff":
        docs = {"in": {"space": whole, "a": ["h0"], "b": [f"h{n - 1}"]}}
        spaces = [whole]
    else:
        mu, nu = [1] + [0] * (n - 1), [0] * (n - 1) + [1]
        docs, spaces = {"in": {"space": whole, "mu": mu, "nu": nu}}, [whole, {"weights": mu}]
    mutation = draw(st.sampled_from((None, *SCALAR_MUTATIONS, *SPACE_MUTATIONS)))
    if mutation is not None:
        target = draw(st.sampled_from(spaces))
        if "weights" in target:
            if mutation in SCALAR_MUTATIONS:
                target["weights"][0] = SCALAR_MUTATIONS[mutation]
            else:
                mutation = None
        elif mutation == "basepoint" and "basepoint" not in target:
            mutation = None  # a host or a plain space has none
        else:
            _mutate(target, mutation, draw)
    argv = [command]
    for flag, doc in docs.items():
        argv += [f"--{flag}", doc]
    # mostly valid flags, so that a damaged document is what decides
    scalars = st.sampled_from(VALID_SCALARS) | st.sampled_from(SCALARS)
    if command in RADIUS:
        argv.append("-r" + draw(scalars))
    tol = draw(st.none() | st.none() | scalars)
    if tol is not None:
        argv.append("--tol=" + tol)
    return mutation, argv


def _mutate(space: dict, mutation: str, draw) -> None:
    dist, n = space["dist"], len(space["points"])
    a, b = (0, 1) if n > 1 else (0, 0)
    if mutation in SCALAR_MUTATIONS:
        value = SCALAR_MUTATIONS[mutation]
        dist[a][b] = dist[b][a] = value
    elif mutation == "ragged":
        dist[draw(st.integers(0, n - 1))].pop()
    elif mutation == "duplicate-label":
        space["points"][-1] = space["points"][0]
        if n == 1:
            space["points"].append(space["points"][0])
    elif mutation == "list-label":
        space["points"][0] = [space["points"][0]]
    elif mutation == "basepoint":
        space["basepoint"] = n
    else:
        space["points"], space["dist"] = [], []


def _gh(argv: list) -> tuple:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, stdout.getvalue()


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(queries())
def test_every_command_answers_damaged_input_with_one_report_and_a_known_exit_code(query):
    mutation, argv = query
    with tempfile.TemporaryDirectory() as scratch:
        for k, item in enumerate(argv):
            if isinstance(item, dict):
                path = argv[k] = os.path.join(scratch, f"doc{k}.json")
                text = json.dumps(item).replace(json.dumps(BIG_LITERAL), "1e400")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
        for backend in ("rational", "float"):
            code, out = _gh(argv + ["--backend", backend])
            assert code in EXIT_CODES, (mutation, argv, backend, code)
            report = json.loads(out)  # one JSON document, nothing after it
            assert isinstance(report, dict)
            assert (code == cli.EXIT_OK) != ("error" in report), (mutation, argv, backend, report)
            assert code != cli.EXIT_OK or mutation not in INVALID, (mutation, argv, backend, report)


SUITES = ("fundamental", "composition", "inframetric", "all")
DAMAGED_SUITES = ("", "bogus", "All", " all")
CASES = ("1", "2")  # few, so that a run stays short
DAMAGED_CASES = ("0", "-1", "x", "1.5", "", "1e3", "inf", str(MAX_CASES + 1))
SEEDS = ("0", "7", "-1", str(10**30))
DAMAGED_SEEDS = ("x", "1.5", "", "1e3", "0x10")


@st.composite
def verify_queries(draw):
    suite = draw(st.sampled_from(SUITES + DAMAGED_SUITES))
    cases = draw(st.sampled_from(CASES + DAMAGED_CASES))
    seed = draw(st.none() | st.sampled_from(SEEDS + DAMAGED_SEEDS))
    argv = ["verify", "--suite=" + suite, "--cases=" + cases]
    if seed is not None:
        argv.append("--seed=" + seed)
    damaged = suite in DAMAGED_SUITES or cases in DAMAGED_CASES or seed in DAMAGED_SEEDS
    return damaged, argv


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(verify_queries())
def test_verify_answers_damaged_flags_with_one_report_and_a_known_exit_code(query):
    damaged, argv = query
    for backend in ("rational", "float"):
        code, out = _gh(argv + ["--backend", backend])
        assert code in EXIT_CODES, (argv, backend, code)
        report = json.loads(out)  # one JSON document, nothing after it
        assert isinstance(report, dict)
        assert (code == cli.EXIT_OK) != ("error" in report), (argv, backend, report)
        assert (code == cli.EXIT_OK) != damaged, (argv, backend, report)
