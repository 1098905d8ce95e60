"""Command line front end: ingestion, distance computations, and the
theorem verification harness.

Every command prints a single JSON document with sorted keys to standard
output, so a fixed seed and configuration reproduce the bytes exactly;
wall clock timing goes to standard error to keep it that way.  Exit codes
separate success (0), validation failures (2), file system errors (3),
and malformed input documents (4).
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
from .kantorovich import lipschitz_seminorm_of, measure, w1
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
    parse_scalar,
    truncate_floor,
)
from .tunnels import (
    ScanContext,
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

DIST_SUBCOMMANDS = (
    "hausdorff",
    "delta-r",
    "Delta-r",
    "inframetric",
    "w1",
    "extent",
    "propinquity",
)


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


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_document(path: str):
    text = _read_text(path)
    if path.endswith(".csv"):
        return text
    return json.loads(text)


def _require(obj: dict, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseFailure(f"{where} needs a {key!r} field")
    return obj[key]


def _load_space(path: str, backend: str) -> FiniteMetricSpace:
    doc = _load_document(path)
    if isinstance(doc, str):
        return space_from_csv(doc, backend)
    return space_from_json(doc, backend)


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


def _radius(inputs: dict, config: RunConfig):
    raw = inputs.get("r")
    if raw is None:
        raise ParseFailure("missing radius -r")
    return parse_scalar(raw, config.backend)


def _certificate_for(mode: str) -> str:
    return "family-minimum" if mode == "exact" else "upper-bound"


def cmd_dist(subcommand: str, inputs: dict, config: RunConfig) -> dict:
    """Dispatch one distance computation; returns the report dict."""
    if subcommand == "hausdorff":
        doc = _load_document(_require(inputs, "in", "hausdorff"))
        if isinstance(doc, str):
            raise ParseFailure("hausdorff input must be JSON with space/a/b")
        space = space_from_json(_require(doc, "space", "hausdorff input"), config.backend)
        a = _subset_indices(space, _require(doc, "a", "hausdorff input"), "a")
        b = _subset_indices(space, _require(doc, "b", "hausdorff input"), "b")
        value = hausdorff(space, a, b)
        return {"command": "hausdorff", "value": format_scalar(value)}

    if subcommand == "delta-r":
        glued = glued_from_json(
            _load_document(_require(inputs, "glued", "delta-r")),
            config.backend,
            tol=config.tolerance,
        )
        r = _radius(inputs, config)
        value = delta_r(glued, r, strict=True, tol=config.tolerance)
        return {
            "command": "delta-r",
            "r": format_scalar(r),
            "routes": "agree",
            "value": format_scalar(value),
        }

    if subcommand == "Delta-r":
        x = _load_pointed(_require(inputs, "x", "Delta-r"), config.backend, inputs.get("x_base"))
        y = _load_pointed(_require(inputs, "y", "Delta-r"), config.backend, inputs.get("y_base"))
        r = _radius(inputs, config)
        value, witness = Delta_r(
            x,
            y,
            r,
            search=config.mode,
            budget=config.budget,
            seed=config.seed,
            tol=config.tolerance,
        )
        return {
            "command": "Delta-r",
            "certificate": _certificate_for(config.mode),
            "mode": config.mode,
            "r": format_scalar(r),
            "value": format_scalar(value),
            "witness": _jsonable(glued_to_json(witness)),
        }

    if subcommand == "inframetric":
        x = _load_pointed(_require(inputs, "x", "inframetric"), config.backend, inputs.get("x_base"))
        y = _load_pointed(_require(inputs, "y", "inframetric"), config.backend, inputs.get("y_base"))
        res = gh_inframetric(
            x,
            y,
            search=config.mode,
            budget=config.budget,
            seed=config.seed,
            tol=config.tolerance,
        )
        return {
            "command": "inframetric",
            "certificate": res.certificate,
            "mode": res.search,
            "raw": format_scalar(res.raw),
            "truncated": format_scalar(res.truncated),
            "value": format_scalar(res.truncated),
            "witness": _jsonable(glued_to_json(res.witness)),
        }

    if subcommand == "w1":
        doc = _load_document(_require(inputs, "in", "w1"))
        if isinstance(doc, str):
            raise ParseFailure("w1 input must be JSON with space/mu/nu")
        space = space_from_json(_require(doc, "space", "w1 input"), config.backend)
        mu_raw = _require(doc, "mu", "w1 input")
        nu_raw = _require(doc, "nu", "w1 input")
        if not isinstance(mu_raw, list) or not isinstance(nu_raw, list):
            raise ParseFailure("mu and nu must be weight arrays")
        mu = measure(space, [parse_scalar(v, config.backend) for v in mu_raw], tol=config.tolerance)
        nu = measure(space, [parse_scalar(v, config.backend) for v in nu_raw], tol=config.tolerance)
        value = w1(mu, nu, lipschitz_seminorm_of(space), method="both", tol=config.tolerance)
        return {"command": "w1", "routes": "primal=dual", "value": format_scalar(value)}

    if subcommand == "extent":
        p = passage_from_json(
            _load_document(_require(inputs, "passage", "extent")),
            config.backend,
            tol=config.tolerance,
        )
        r = _radius(inputs, config)
        context = ScanContext(p, config.tolerance)
        value, attained = _checked_scan(p, r, config.tolerance, context)
        report = {
            "command": "extent",
            "r": format_scalar(r),
            "value": format_scalar(value),
        }
        if attained is None:
            report["certificate"] = None
        else:
            ok, cert = check_admissible(p, r, attained, tol=config.tolerance, context=context)
            report["certificate"] = _jsonable({"eps": attained, "admissible": ok, **cert})
        return report

    if subcommand == "propinquity":
        x = _load_pointed(_require(inputs, "x", "propinquity"), config.backend, inputs.get("x_base"))
        y = _load_pointed(_require(inputs, "y", "propinquity"), config.backend, inputs.get("y_base"))
        lo, hi = propinquity_bracket(
            x,
            y,
            search=config.mode,
            budget=config.budget,
            seed=config.seed,
            tol=config.tolerance,
        )
        truncated = truncate_floor(hi)
        return {
            "command": "propinquity",
            "bracket": [format_scalar(lo), format_scalar(hi)],
            "certificate": _certificate_for(config.mode),
            "mode": config.mode,
            "raw": format_scalar(hi),
            "truncated": format_scalar(truncated),
            "value": format_scalar(truncated),
        }

    raise MetricError(f"unknown dist subcommand {subcommand!r}")


def cmd_verify(suite: str, config: RunConfig, cases: int | None = None) -> dict:
    """Run the named property suite (or all) and report per-theorem counts."""
    if suite != "all" and suite not in SUITES:
        raise MetricError(f"unknown suite {suite!r}; choose from {SUITES + ('all',)}")
    results = run_suite(suite, seed=config.seed, cases=cases)
    return {
        "all_passed": all(tr.passed for tr in results),
        "backend": RATIONAL,  # suites always run exact
        "command": "verify",
        "results": [_jsonable(tr.to_json()) for tr in results],
        "seed": config.seed,
        "suite": suite,
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


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--backend", choices=(RATIONAL, FLOAT), default=None)
    sub.add_argument("--tol", default=None, help="comparison tolerance (float mode needs > 0)")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--mode", choices=("exact", "heuristic"), default=None)
    sub.add_argument("--budget", type=int, default=None)
    sub.add_argument("--out", default=None, help="also write the report to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gh", description="Distances and verification for finite pointed metric spaces."
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("hausdorff", help="Hausdorff distance between two subsets of one space")
    sp.add_argument("--in", dest="infile", required=True, help="JSON with space, a, b")
    _add_config_flags(sp)

    sp = subs.add_parser("delta-r", help="local distance of a glued pair at radius r")
    sp.add_argument("--glued", required=True, help="gluing JSON document")
    sp.add_argument("-r", required=True, help="radius")
    _add_config_flags(sp)

    sp = subs.add_parser("Delta-r", help="best local distance over searched gluings")
    sp.add_argument("--x", required=True, help="pointed space (JSON or CSV)")
    sp.add_argument("--y", required=True, help="pointed space (JSON or CSV)")
    sp.add_argument("-r", required=True, help="radius")
    sp.add_argument("--x-base", dest="x_base", default=None, help="basepoint label or index")
    sp.add_argument("--y-base", dest="y_base", default=None, help="basepoint label or index")
    _add_config_flags(sp)

    sp = subs.add_parser("inframetric", help="pointed Gromov-Hausdorff inframetric")
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--x-base", dest="x_base", default=None)
    sp.add_argument("--y-base", dest="y_base", default=None)
    _add_config_flags(sp)

    sp = subs.add_parser("w1", help="Kantorovich transport distance between two weightings")
    sp.add_argument("--in", dest="infile", required=True, help="JSON with space, mu, nu")
    _add_config_flags(sp)

    sp = subs.add_parser("extent", help="extent of a passage at radius r")
    sp.add_argument("--passage", required=True, help="passage JSON document")
    sp.add_argument("-r", required=True, help="radius")
    _add_config_flags(sp)

    sp = subs.add_parser("propinquity", help="radius-threshold propinquity of two pointed spaces")
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--x-base", dest="x_base", default=None)
    sp.add_argument("--y-base", dest="y_base", default=None)
    _add_config_flags(sp)

    sp = subs.add_parser("verify", help="run the seeded theorem suites")
    sp.add_argument("--suite", default="all", choices=SUITES + ("all",))
    sp.add_argument("--cases", type=int, default=None, help="override per-suite case count")
    _add_config_flags(sp)

    return parser


def _inputs_from_args(command: str, args: argparse.Namespace) -> dict:
    inputs: dict = {}
    for key in ("infile", "glued", "passage", "x", "y", "x_base", "y_base", "r"):
        value = getattr(args, key, None)
        if value is not None:
            inputs["in" if key == "infile" else key] = value
    return inputs


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    sys.stdout.write(text + "\n")
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


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
        config = _config_from_args(args)
        if args.command == "verify":
            report = cmd_verify(args.suite, config, cases=args.cases)
        else:
            report = cmd_dist(args.command, _inputs_from_args(args.command, args), config)
    except OSError as exc:
        _emit({"error": {"kind": type(exc).__name__, "message": str(exc)}}, out_path)
        return EXIT_IO
    except MetricError as exc:
        _emit({"error": {"kind": type(exc).__name__, "message": str(exc)}}, out_path)
        return EXIT_VALIDATION
    except (json.JSONDecodeError, ParseFailure, KeyError, TypeError, ValueError) as exc:
        _emit({"error": {"kind": type(exc).__name__, "message": str(exc)}}, out_path)
        return EXIT_PARSE
    except RuntimeError as exc:
        # dual-route disagreement and kindred internal cross-checks
        _emit({"error": {"kind": type(exc).__name__, "message": str(exc)}}, out_path)
        return EXIT_VALIDATION
    _emit(report, out_path)
    print(f"wall-clock: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
