"""Command line front end: ingestion, distance computations, and the
theorem verification harness.

Every command prints a single JSON document with sorted keys to standard
output, so a fixed seed and configuration reproduce the bytes exactly;
wall clock timing goes to standard error to keep it that way.  Exit codes
separate success (0), validation failures (2), file system errors (3),
and malformed input documents (4).  The ``--out`` copy is written before
standard output, so an unwritable path exits 3 with one error report.

``main`` builds the parser on every call; the six run-configuration flags
are declared once, on one parent parser that every subcommand takes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from .gluing import glued_from_json, glued_to_json
from .kantorovich import measure, w1
from .local_gh import Delta_r, delta_r, gh_inframetric
from .metric_core import (
    FiniteMetricSpace,
    MetricError,
    PointedSpace,
    hausdorff,
    pointed,
    pointed_from_json,
    space_from_csv,
    space_from_json,
)
from .numerics import (
    DEFAULT_FLOAT_TOL,
    FLOAT,
    RATIONAL,
    format_scalar,
    is_inf,
    json_number,
    parse_scalar,
    truncate_floor,
)
from .tunnels import (
    _checked_scan,
    check_admissible,
    passage_from_json,
    propinquity_bracket,
)
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_PARSE = 4


class ParseFailure(ValueError):
    """Input document does not match the expected schema."""


@dataclass(frozen=True)
class RunConfig:
    backend: str
    tolerance: object
    seed: int
    mode: str
    budget: int


def run_config(
    backend: str = FLOAT,
    tolerance=None,
    seed: int = 0,
    mode: str = "exact",
    budget: int = 12,
) -> RunConfig:
    """Validated configuration; float mode defaults to tolerance 1e-9 and
    rational mode to exact comparisons (tolerance 0)."""
    if backend not in (RATIONAL, FLOAT):
        raise MetricError(f"unknown backend {backend!r}")
    if mode not in ("exact", "heuristic"):
        raise MetricError(f"unknown mode {mode!r}")
    if tolerance is None:
        tolerance = DEFAULT_FLOAT_TOL if backend == FLOAT else 0
    tol = parse_scalar(tolerance, backend)
    if backend == FLOAT and not tol > 0:
        raise MetricError("float mode needs a positive tolerance")
    if tol < 0:
        raise MetricError("tolerance must be nonnegative")
    if tol > sys.float_info.max:  # inf, or a rational too large to add to the float inf
        raise MetricError("tolerance must be finite and within float range")
    if int(budget) < 1:
        raise MetricError("budget must be at least 1")
    return RunConfig(backend=backend, tolerance=tol, seed=int(seed), mode=mode, budget=int(budget))


def _jsonable(value):
    """Recursively rewrite report values into JSON-safe primitives."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, Fraction)):
        return format_scalar(value)
    if isinstance(value, float):
        return "inf" if is_inf(value) else value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (frozenset, set)):
        return [_jsonable(v) for v in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return repr(value)


def _load_document(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return text if path.endswith(".csv") else json.loads(text, parse_float=json_number)


def _require(obj: dict, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseFailure(f"{where} needs a {key!r} field")
    return obj[key]


def _with_base(space: FiniteMetricSpace, raw) -> PointedSpace:
    if isinstance(raw, str) and raw not in space.points:
        # command line values are strings; fall back to an index reading
        try:
            raw = int(raw)
        except ValueError:
            pass
    try:
        return pointed(space, raw)
    except KeyError as exc:
        raise MetricError(str(exc)) from None


def _load_pointed(path: str, backend: str, base=None) -> PointedSpace:
    doc = _load_document(path)
    if isinstance(doc, str):
        return _with_base(space_from_csv(doc, backend), 0 if base is None else base)
    if base is not None:
        return _with_base(space_from_json(doc, backend), base)
    return pointed_from_json(doc, backend)


def _subset_indices(space: FiniteMetricSpace, items, name: str) -> list:
    if not isinstance(items, (list, tuple)):
        raise ParseFailure(f"subset {name!r} must be an array of labels or indices")
    out = []
    for item in items:
        if isinstance(item, bool):
            raise ParseFailure(f"subset {name!r} entries must be labels or indices")
        if isinstance(item, int):
            if not 0 <= item < space.n:
                raise MetricError(f"subset {name!r} index {item} out of range")
            out.append(item)
            continue
        try:
            out.append(space.index(str(item)))
        except KeyError as exc:
            raise MetricError(str(exc)) from None
    return out


def _certificate_for(mode: str) -> str:
    return "family-minimum" if mode == "exact" else "upper-bound"


def _search(config: RunConfig) -> dict:
    return dict(search=config.mode, budget=config.budget, seed=config.seed)


def _load_pair(args: argparse.Namespace, config: RunConfig) -> tuple:
    x = _load_pointed(args.x, config.backend, args.x_base)
    return x, _load_pointed(args.y, config.backend, args.y_base)


# name -> (help, flags, handler); a handler maps (args, config) to the report
_COMMANDS: dict = {}


def _flag(*names, **options) -> tuple:
    return names, options


def _infile(fields: str) -> tuple:
    return _flag("--in", dest="infile", required=True, help=f"JSON with space, {fields}")


_RADIUS = _flag("-r", required=True, help="radius")
_XY = (
    _flag("--x", required=True, help="pointed space (JSON or CSV)"),
    _flag("--y", required=True, help="pointed space (JSON or CSV)"),
)
_BASES = (
    _flag("--x-base", dest="x_base", default=None, help="basepoint label or index"),
    _flag("--y-base", dest="y_base", default=None, help="basepoint label or index"),
)


def _command(name: str, help_text: str, *flags):
    """Declare the gh subcommand ``name`` with its flags; decorates its handler."""

    def register(handler):
        _COMMANDS[name] = (help_text, flags, handler)
        return handler

    return register


@_command("hausdorff", "Hausdorff distance between two subsets of one space", _infile("a, b"))
def _run_hausdorff(args, config: RunConfig) -> dict:
    doc = _load_document(args.infile)
    if isinstance(doc, str):
        raise ParseFailure("hausdorff input must be JSON with space/a/b")
    space = space_from_json(_require(doc, "space", "hausdorff input"), config.backend)
    a = _subset_indices(space, _require(doc, "a", "hausdorff input"), "a")
    b = _subset_indices(space, _require(doc, "b", "hausdorff input"), "b")
    return {"command": "hausdorff", "value": format_scalar(hausdorff(space, a, b))}


@_command(
    "delta-r",
    "local distance of a glued pair at radius r",
    _flag("--glued", required=True, help="gluing JSON document"),
    _RADIUS,
)
def _run_delta_r(args, config: RunConfig) -> dict:
    glued = glued_from_json(_load_document(args.glued), config.backend, tol=config.tolerance)
    r = parse_scalar(args.r, config.backend)
    value = format_scalar(delta_r(glued, r, strict=True, tol=config.tolerance))
    return {"command": "delta-r", "r": format_scalar(r), "routes": "agree", "value": value}


@_command("Delta-r", "best local distance over searched gluings", *_XY, _RADIUS, *_BASES)
def _run_Delta_r(args, config: RunConfig) -> dict:
    x, y = _load_pair(args, config)
    r = parse_scalar(args.r, config.backend)
    value, witness = Delta_r(x, y, r, tol=config.tolerance, **_search(config))
    return {
        "command": "Delta-r",
        "certificate": _certificate_for(config.mode),
        "mode": config.mode,
        "r": format_scalar(r),
        "value": format_scalar(value),
        "witness": _jsonable(glued_to_json(witness)),
    }


@_command("inframetric", "pointed Gromov-Hausdorff inframetric", *_XY, *_BASES)
def _run_inframetric(args, config: RunConfig) -> dict:
    res = gh_inframetric(*_load_pair(args, config), **_search(config))
    return {
        "command": "inframetric",
        "certificate": res.certificate,
        "mode": res.search,
        "raw": format_scalar(res.raw),
        "truncated": format_scalar(res.truncated),
        "value": format_scalar(res.truncated),
        "witness": _jsonable(glued_to_json(res.witness)),
    }


@_command("w1", "Kantorovich transport distance between two weightings", _infile("mu, nu"))
def _run_w1(args, config: RunConfig) -> dict:
    doc = _load_document(args.infile)
    if isinstance(doc, str):
        raise ParseFailure("w1 input must be JSON with space/mu/nu")
    space = space_from_json(_require(doc, "space", "w1 input"), config.backend)
    mu_raw = _require(doc, "mu", "w1 input")
    nu_raw = _require(doc, "nu", "w1 input")
    if not isinstance(mu_raw, list) or not isinstance(nu_raw, list):
        raise ParseFailure("mu and nu must be weight arrays")
    mu = measure(space, [parse_scalar(v, config.backend) for v in mu_raw], tol=config.tolerance)
    nu = measure(space, [parse_scalar(v, config.backend) for v in nu_raw], tol=config.tolerance)
    value = w1(mu, nu, tol=config.tolerance)
    return {"command": "w1", "routes": "primal=dual", "value": format_scalar(value)}


@_command(
    "extent",
    "extent of a passage at radius r",
    _flag("--passage", required=True, help="passage JSON document"),
    _RADIUS,
)
def _run_extent(args, config: RunConfig) -> dict:
    p = passage_from_json(_load_document(args.passage), config.backend, tol=config.tolerance)
    r = parse_scalar(args.r, config.backend)
    value, attained = _checked_scan(p, r, config.tolerance)
    report = {"command": "extent", "r": format_scalar(r), "value": format_scalar(value)}
    if attained is None:
        report["certificate"] = None
    else:
        ok, cert = check_admissible(p, r, attained, tol=config.tolerance)
        report["certificate"] = _jsonable({"eps": attained, "admissible": ok, **cert})
    return report


@_command("propinquity", "radius-threshold propinquity of two pointed spaces", *_XY, *_BASES)
def _run_propinquity(args, config: RunConfig) -> dict:
    x, y = _load_pair(args, config)
    lo, hi = propinquity_bracket(x, y, tol=config.tolerance, **_search(config))
    truncated = truncate_floor(hi)
    return {
        "command": "propinquity",
        "bracket": [format_scalar(lo), format_scalar(hi)],
        "certificate": None if is_inf(hi) else _certificate_for(config.mode),
        "mode": config.mode,
        "raw": format_scalar(hi),
        "truncated": format_scalar(truncated),
        "value": format_scalar(truncated),
    }


@_command(
    "verify",
    "run the seeded theorem suites",
    _flag("--suite", default="all", choices=SUITES + ("all",)),
    _flag("--cases", type=int, default=None, help="override per-suite case count"),
)
def _run_verify(args, config: RunConfig) -> dict:
    """Run the named property suite (or all) and report per-theorem counts."""
    results = run_suite(args.suite, seed=config.seed, cases=args.cases)
    return {
        "all_passed": all(tr.passed for tr in results),
        "backend": RATIONAL,  # suites always run exact
        "command": "verify",
        "results": [_jsonable(tr.to_json()) for tr in results],
        "seed": config.seed,
        "suite": args.suite,
    }


def _env(name: str):
    return os.environ.get("GHLAB_" + name)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    backend = args.backend or _env("BACKEND") or FLOAT
    tol = args.tol if args.tol is not None else _env("TOL")
    seed = args.seed if args.seed is not None else _env("SEED") or 0
    mode = args.mode or _env("MODE") or "exact"
    budget = args.budget if args.budget is not None else _env("BUDGET") or 12
    return run_config(backend=backend, tolerance=tol, seed=int(seed), mode=mode, budget=int(budget))


_CONFIG_FLAGS = (
    _flag("--backend", choices=(RATIONAL, FLOAT), default=None),
    _flag("--tol", default=None, help="comparison tolerance (float mode needs > 0)"),
    _flag("--seed", type=int, default=None),
    _flag("--mode", choices=("exact", "heuristic"), default=None),
    _flag("--budget", type=int, default=None),
    _flag("--out", default=None, help="also write the report to this file"),
)


def build_parser() -> argparse.ArgumentParser:
    # the subparsers share this parent's Action objects: set no default on them
    config = argparse.ArgumentParser(add_help=False)
    group = config.add_argument_group("run configuration")
    for names, options in _CONFIG_FLAGS:
        group.add_argument(*names, **options)
    parser = argparse.ArgumentParser(
        prog="gh", description="Distances and verification for finite pointed metric spaces."
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, handler) in _COMMANDS.items():
        sp = subs.add_parser(name, help=help_text, parents=[config])
        for names, options in flags:
            sp.add_argument(*names, **options)
        sp.set_defaults(run=handler)
    return parser


# The exit code of a failed command is the first entry its exception
# matches; a MetricError is a ValueError, and so are JSON and schema errors.
_EXIT_CODES = (
    (OSError, EXIT_IO),
    (MetricError, EXIT_VALIDATION),
    ((KeyError, TypeError, ValueError), EXIT_PARSE),
    (RuntimeError, EXIT_VALIDATION),  # dual-route disagreement and kindred cross-checks
)


def _error_report(exc: Exception) -> dict:
    return {"error": {"kind": type(exc).__name__, "message": str(exc)}}


def _dumps(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # `gh dist w1 ...` is accepted as an alias for `gh w1 ...`
    if argv and argv[0] == "dist":
        argv = argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    out_path = args.out if args.out is not None else _env("OUT")
    started = time.monotonic()
    try:
        report = args.run(args, _config_from_args(args))
        code = EXIT_OK
    except Exception as exc:
        code = next((code for kinds, code in _EXIT_CODES if isinstance(exc, kinds)), None)
        if code is None:
            raise
        report = _error_report(exc)
    text = _dumps(report)
    if out_path is not None:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            text, code = _dumps(_error_report(exc)), EXIT_IO
    sys.stdout.write(text)
    if code == EXIT_OK:
        print(f"wall-clock: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
