"""Alternating before/after pairs of ``perfbench/run.py`` runs.

Runs the benchmark in two checkouts, a parent and a change, once each per
seed, the side that runs first alternating from one seed to the next so
that a drift of the machine's speed falls on both sides alike:

    python3 tools/pairs.py --parent ../parent --change . --workload tunnel \\
        --seeds 1921-1930 --out BENCH_19.json --description "..."

Every run's last-line JSON is written to ``--out`` as soon as it ends, in
the ``BENCH_*.json`` format: ``command``, ``description`` and ``runs``,
each run with ``ran_first``, ``seed``, ``side``, ``trace``, ``workload``
and ``result``.  An existing ``--out`` file is extended, so several
workloads can share one file.  At the end the script prints, for each
metric of this call's runs, each side's median and quartiles, and how many
pairs the change won, by the direction ``BENCHMARK.json`` gives the metric,
with two verdicts:

- ``claim holds`` or ``claim fails``: the change wins at least 9 of every
  10 pairs and its median beats the parent's by more than the parent's
  interquartile range, the rule a claimed gain must meet;
- for an end-to-end metric, ``within bound`` or ``past bound``: whether the
  change's median is worse than the parent's by more than the metric's
  relative bound in ``BENCHMARK.json``.

Then it prints each side's least-squares line of ``peak_rss_mib`` on the
attempted query count and, from the parent's line at its median attempted
count, the goodput gain at which ``peak_rss_mib`` would reach its bound,
taking attempted queries to grow with goodput.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace T"


def parse_seeds(text: str) -> list:
    """'1921-1930,1940' -> [1921, ..., 1930, 1940]."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last-line JSON of one benchmark run in checkout."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", f"{seconds:g}", "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.exit(f"pairs: {' '.join(argv[1:])} in {checkout} failed:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def metric_specs(checkout: str) -> dict:
    """{metric name: its entry} from the checkout's BENCHMARK.json: ``better``
    ('higher' or 'lower') for every metric, ``bound`` for an end-to-end one."""
    try:
        with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError:
        return {}
    return {m["name"]: m for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdicts(pairs: list, better: str, bound: float | None) -> list:
    """The claim rule's verdict on (parent, change) pairs of one metric, and
    the bound's when the metric has one."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    (q1, parent, q3), (_, change, _) = (quartiles([p[k] for p in pairs]) for k in (0, 1))
    claim = 10 * wins >= 9 * len(pairs) and sign * (change - parent) > q3 - q1
    out = [f"change wins {wins}/{len(pairs)}", "claim holds" if claim else "claim fails"]
    if bound is not None:
        past = sign * (change - parent) < -bound * abs(parent)
        out.append(f"{'past' if past else 'within'} bound {bound:g}")
    return out


def summary(runs: list, specs: dict) -> list:
    """One line per metric: each side's quartiles, the change's pair wins and
    the verdicts."""
    by_side = {side: {r["seed"]: r["result"]["metrics"] for r in runs if r["side"] == side} for side in SIDES}
    seeds = sorted(set(by_side["parent"]) & set(by_side["change"]))
    names = list(by_side["parent"][seeds[0]]) if seeds else []
    lines = []
    for name in names:
        pairs = [(by_side["parent"][s][name]["value"], by_side["change"][s][name]["value"]) for s in seeds]
        cells = []
        for k, side in enumerate(SIDES):
            q1, median, q3 = quartiles([p[k] for p in pairs])
            cells.append(f"{side} {median:.6g} [{q1:.6g}, {q3:.6g}]")
        if name in specs:
            cells += verdicts(pairs, specs[name]["better"], specs[name].get("bound"))
        lines.append(f"{name}: " + "; ".join(cells))
    return lines


def rss_fits(runs: list, bound: float | None) -> list:
    """One line per side: the least-squares line of peak_rss_mib on attempted,
    and for the parent the goodput gain at which that line reaches ``bound``.

    A slope that matches on both sides says an RSS difference only follows
    the attempted query count, not a change in per-query memory.  On the
    parent's line, RSS at its median attempted count A is R = intercept +
    slope * A, and a goodput gain g, taken to scale A by 1 + g, adds slope *
    A * g; that reaches bound * R at g = bound * R / (slope * A).  A traced
    run (``--trace 1``) reports no peak_rss_mib and is left out."""
    lines = []
    for side in SIDES:
        points = [(r["result"]["attempted"], r["result"]["metrics"]["peak_rss_mib"]["value"])
                  for r in runs if r["side"] == side and "peak_rss_mib" in r["result"]["metrics"]]
        if len({attempted for attempted, _ in points}) < 2:
            lines.append(f"{side} peak_rss_mib ~ attempted: no fit over {len(points)} runs")
            continue
        slope, intercept = statistics.linear_regression(*zip(*points))
        line = (f"{side} peak_rss_mib ~ attempted: {intercept:.4g} MiB + "
                f"{slope * 2**20:.4g} B per attempted query ({len(points)} runs)")
        if side == "parent" and bound is not None and slope > 0:
            attempted = statistics.median(a for a, _ in points)
            rss = intercept + slope * attempted
            gain = bound * rss / (slope * attempted)
            line += f"; reaches its bound {bound:g} at goodput {gain:+.1%} (from {attempted:g} attempted)"
        lines.append(line)
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout root of the parent")
    parser.add_argument("--change", required=True, help="checkout root of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 1921-1930,1940")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="BENCH_*.json to write or extend")
    parser.add_argument("--description", default="", help="the file's description, when it is new")
    parser.add_argument("--change-first", action="store_true", help="start the alternation on the change")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent, "change": args.change}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = {"command": COMMAND.format(seconds=args.seconds), "description": args.description, "runs": []}
    mine = []
    for k, seed in enumerate(args.seeds):
        order = SIDES if (k % 2 == 0) != args.change_first else SIDES[::-1]
        for side in order:
            result = run_once(checkouts[side], args.workload, seed, args.seconds, args.trace)
            run = {
                "ran_first": side == order[0],
                "seed": seed,
                "side": side,
                "trace": args.trace,
                "workload": args.workload,
                "result": result,
            }
            doc["runs"].append(run)
            mine.append(run)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
            print(f"{args.workload} seed {seed} {side}: attempted {result['attempted']}", file=sys.stderr)
    specs = metric_specs(args.change)
    rss_bound = specs.get("peak_rss_mib", {}).get("bound")
    for line in summary(mine, specs) + rss_fits(mine, rss_bound):
        print(line)


if __name__ == "__main__":
    main()
