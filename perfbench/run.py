"""Benchmark of the ghlab package: one closed-loop client in one process.

Run from the root of a checkout (the directory holding ``src/ghlab``):

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

Workloads are ``search``, ``tunnel`` and ``cli-float`` (see workloads.py and
NOTES.md).  Queries are sent back to back with no threads.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a readable report goes to standard error.

Every answer is checked against exact references stored in references.json
(see make_references.py); seed n runs on input set n % INPUT_SETS.

``--trace 0`` measures the end-to-end metrics.  Their times are given in
reference seconds: a fixed calibration kernel runs between the queries, and
its rate scales the measured seconds to those of a machine that runs it
REFERENCE_RATE times a second, so that the drift of a shared machine's speed
cancels out (see NOTES.md).  ``--trace 1`` runs each
query untraced and then again with spans around the calls into each layer,
and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
if not os.path.isfile(os.path.join(SRC, "ghlab", "__init__.py")):
    sys.exit("perfbench: no src/ghlab under the working directory; run from a checkout root")
for path in (HERE, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
STORED_REFERENCES = os.path.join(HERE, "references.json")
# Seed n runs on input set n % INPUT_SETS; every input set has exact
# references stored in references.json, so every run is checked against
# answers the code under test did not compute.
INPUT_SETS = 32
WORK_DIR = ".perfbench"
# A percentile is reported from a run that holds at least ten samples beyond it.
P90_MIN_SAMPLES = 100
# Untimed queries run before the timed loop, so first-call costs stay out.
WARMUP_S = 1.0
# The calibration kernel runs for this share of the query time, interleaved
# with the queries; each query's time is scaled to a machine running it
# REFERENCE_RATE times a second, by the kernel's rate over the LOCAL_KERNELS
# kernel runs nearest the query, or over all that follow a long query (the
# machine's speed moves within a run too, and a run-wide rate over- or
# under-corrects the queries of its fast and slow stretches).
CALIBRATION_SHARE = 0.25
REFERENCE_RATE = 1000.0
LOCAL_KERNELS = 20

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import ghlab\n"
    "if sys.argv[2] == 'cli': import ghlab.cli\n"
    "print(time.perf_counter() - t)\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def log(*parts) -> None:
    print(*parts, file=sys.stderr)


def check_import_location() -> None:
    import ghlab

    package_root = os.path.dirname(os.path.dirname(os.path.realpath(ghlab.__file__)))
    if package_root != os.path.realpath(SRC):
        raise BenchError(f"imported ghlab from {ghlab.__file__}, not from {SRC}")


# --------------------------------------------------------------------------
# set-up


def import_seconds(src: str, workload: str) -> float:
    """Import time of the package in a fresh interpreter."""
    which = "cli" if workload == "cli-float" else "api"
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, src, which],
        capture_output=True,
        text=True,
        timeout=60,
    )
    if proc.returncode != 0:
        raise BenchError(f"importing ghlab failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def set_up(workload: str, input_set: int, docs_dir: str) -> tuple:
    """Generate the pool and ingest it (API workloads) or write its documents
    (cli-float), SETUP_REPEATS times; returns (pool, prepared, setup seconds)
    with the median of import + generation + ingestion/writing.  Like the
    query times, each set-up time is scaled to reference seconds, by the
    calibration kernel run right after it for a quarter of its time: a
    shared machine's speed moved the measured median by over a third
    between two sets of runs of the same code.

    Documents are rewritten in place under fixed names rather than created
    afresh: creating hundreds of small files costs three times as much as
    rewriting them and drifts with the state of the file system, which
    would swamp the package's own set-up cost."""
    measured, scaled = [], []
    if workload == "cli-float":
        os.makedirs(docs_dir, exist_ok=True)
    for _ in range(SETUP_REPEATS):
        spent = import_seconds(SRC, workload)
        t0 = perf_counter()
        pool = workloads.pool(workload, input_set)
        if workload == "cli-float":
            prepared = [workloads.write_cli_docs(q, i, docs_dir) for i, q in enumerate(pool)]
        else:
            prepared = [workloads.prepare_api(q) for q in pool]
        seconds = spent + perf_counter() - t0
        meter = SpeedMeter()
        meter.after(seconds)
        measured.append(seconds)
        scaled.append(seconds * meter.scales()[0])
    log(f"set-up: median {statistics.median(measured):.4f} s measured, "
        f"{statistics.median(scaled):.4f} s at the reference speed")
    return pool, prepared, statistics.median(scaled)


def load_references(workload: str, input_set: int, pool_digest: str) -> dict:
    """The stored exact references of an input set, which must have been
    made from these exact inputs."""
    with open(STORED_REFERENCES, encoding="utf-8") as fh:
        stored = json.load(fh)[workload].get(str(input_set))
    if stored is None:
        raise BenchError(f"no stored references for input set {input_set}")
    if stored["digest"] != pool_digest:
        raise BenchError(f"the stored references of input set {input_set} were made from "
                         "other inputs; the generator has changed")
    return stored


# --------------------------------------------------------------------------
# machine speed

# A 6x6 rational distance table with denominators 1-3, the kind of entries
# the workloads use.  The kernel closes a fresh copy of it under min-plus,
# the same sort of Fraction arithmetic as the package's, and does not call
# the package, so changes to the package leave it alone.
KERNEL_ROWS = tuple(
    tuple(Fraction(0) if i == j else Fraction((7 * i + 3 * j) % 11 + 1, (i + j) % 3 + 1)
          for j in range(6))
    for i in range(6)
)


def calibration_kernel() -> list:
    d = [list(row) for row in KERNEL_ROWS]
    for k, dk in enumerate(d):
        for di in d:
            dik = di[k]
            for j, dkj in enumerate(dk):
                v = dik + dkj
                if v < di[j]:
                    di[j] = v
    return d


class SpeedMeter:
    """Runs the calibration kernel after each query until kernel time is
    CALIBRATION_SHARE of query time, so the kernel samples the machine's
    speed all through the run."""

    def __init__(self):
        self.query_s = 0.0
        self.kernel_s = 0.0
        self.kernel_times: list = []
        self.position: list = []  # kernels run before each query, in order

    def after(self, seconds: float) -> None:
        self.query_s += seconds
        self.position.append(len(self.kernel_times))
        while self.kernel_s < CALIBRATION_SHARE * self.query_s:
            t0 = perf_counter()
            calibration_kernel()
            spent = perf_counter() - t0
            self.kernel_s += spent
            self.kernel_times.append(spent)

    def scales(self) -> list:
        """Reference seconds per measured second, for each query: the rate
        of the LOCAL_KERNELS kernel runs around it (the first of them
        follow it), or, where more kernels ran between it and the next
        query, of all those too, over REFERENCE_RATE."""
        runs = len(self.kernel_times)
        width = min(LOCAL_KERNELS, runs)
        prefix = list(itertools.accumulate(self.kernel_times, initial=0.0))
        out = []
        for pos, end in zip(self.position, self.position[1:] + [runs]):
            lo = min(max(pos - width // 2, 0), runs - width)
            hi = max(lo + width, end)
            out.append((hi - lo) / (prefix[hi] - prefix[lo]) / REFERENCE_RATE)
        return out


# --------------------------------------------------------------------------
# running


def run_queries(prepared: list, order, deadline: float | None = None, tracer=None,
                meter: SpeedMeter | None = None) -> tuple:
    """Closed loop over ``order`` (pool indices); stops after the query that
    crosses ``deadline``.  Returns (records, wall seconds) with one
    (index, seconds, raw result or exception) record per query; the wall
    includes the meter's kernels."""
    records = []
    execute = workloads.execute
    t_start = perf_counter()
    for idx in order:
        op, args = prepared[idx]
        t0 = perf_counter()
        try:
            if tracer is None:
                raw = execute(op, args)
            else:
                raw = tracer.call(tracing.ROOT, execute, op, args)
        except Exception as exc:  # every failure is counted, none stops the run
            raw = exc
        t1 = perf_counter()
        records.append((idx, t1 - t0, raw))
        if meter is not None:
            meter.after(t1 - t0)
        if deadline is not None and t1 >= deadline:
            break
    return records, perf_counter() - t_start


class Tally:
    """Outcome counts of one run, and the times of each correct query
    (by pool index; a run passes over the pool more than once)."""

    def __init__(self):
        self.attempted = 0
        self.correct = 0
        self.wrong = 0
        self.errors: Counter = Counter()
        self.unexpected = 0  # errors the stored references do not list for that query
        self.times: dict = {}
        self.first_failure: str | None = None
        self.exact_strings = 0  # float-mode answers that came back as "p/q"
        self.answers: list = []

    @property
    def passed(self) -> bool:
        return self.wrong == 0 and self.unexpected == 0

    @property
    def failed(self) -> int:
        """Queries whose outcome differs from the stored one: wrong answers
        and errors the references do not list.  The listed float-ingestion
        errors of cli-float are the outcome recorded for those queries; they
        count in error_share and lower ok_share and goodput."""
        return self.wrong + self.unexpected

    def note_failure(self, text: str) -> None:
        if self.first_failure is None:
            self.first_failure = text


def describe(query: dict) -> str:
    op = query["op"]
    if "x" in query:
        return f"{op} {len(query['x']['points'])}x{len(query['y']['points'])}"
    docs = query.get("docs", {})
    if "x" in docs:
        return f"{op} {len(docs['x']['points'])}x{len(docs['y']['points'])}"
    return op


def evaluate(workload: str, pool: list, prepared: list, stored: dict, records: list) -> Tally:
    """Check each record against the stored references.  An error counts
    as expected only on cli-float, and only where the same query failed
    with the same kind when the references were made; search and tunnel
    have no expected errors."""
    refs = stored["refs"]
    expected = stored.get("float_errors", {})
    tally = Tally()
    for idx, secs, raw in records:
        tally.attempted += 1
        query = pool[idx]
        result = workloads.outcome(prepared[idx][0], raw)
        tally.answers.append(result[:2])
        where = f"query #{idx} ({describe(query)})"
        if result[0] == "error":
            tally.errors[result[1]] += 1
            surprise = expected.get(str(idx)) != result[1]
            tally.unexpected += surprise
            label = "unexpected error" if surprise else "error"
            tally.note_failure(f"{where}: {label} {result[1]}: {result[2][:200]}")
            continue
        answer = result[1]
        if workload == "cli-float" and query["op"] == "propinquity":
            tally.exact_strings += any(isinstance(v, str) and "/" in v for v in answer)
        if workloads.matches(workload, query, answer, refs[idx]):
            tally.correct += 1
            tally.times.setdefault(idx, []).append(secs)
        else:
            tally.wrong += 1
            tally.note_failure(f"{where}: answer {answer!r} but reference {refs[idx]!r}")
    return tally


def end_to_end(tally: Tally, wall: float, setup_s: float) -> dict:
    # Each pool query counts once, with the median of its times: the last
    # pass over the pool is cut short by the deadline, and which queries it
    # holds should not move the percentiles.
    times = sorted(statistics.median(t) for t in tally.times.values())
    p50 = statistics.median(times) if times else 0.0
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else p50
    attempted = max(tally.attempted, 1)
    return {
        "goodput_qps": (tally.correct / wall, "1/s"),
        "query_p50_s": (p50, "s"),
        "query_p90_s": (p90, "s"),
        "ok_share": (tally.correct / attempted, "share"),
        "error_share": (sum(tally.errors.values()) / attempted, "share"),
        "wrong_share": (tally.wrong / attempted, "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def report(workload: str, seed: int, tally: Tally, metrics: dict) -> None:
    log(f"workload {workload}, seed {seed} (input set {seed % INPUT_SETS}): "
        f"{tally.attempted} attempted, {tally.correct} correct, {tally.wrong} wrong, "
        f"{sum(tally.errors.values())} errors, {tally.unexpected} of them unexpected; "
        f"failed (wrong or unexpected) {tally.failed}")
    for kind, count in sorted(tally.errors.items()):
        log(f"  error_share[{kind}] = {count / max(tally.attempted, 1):.4f} ({count})")
    if workload == "cli-float":
        log(f"  propinquity answers in exact p/q form (float mode): {tally.exact_strings}")
    if tally.first_failure:
        log(f"  first failing {tally.first_failure}")
    if len(tally.times) < P90_MIN_SAMPLES:
        log(f"  note: only {len(tally.times)} distinct correct queries; query_p90_s has fewer than "
            "ten samples beyond it")
    for name, (value, unit) in metrics.items():
        log(f"  {name:<40} {value:>14.6g} {unit}")


# --------------------------------------------------------------------------
# main


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> dict:
    check_import_location()
    # one run at a time per checkout: the documents live under fixed names
    work = os.path.join(os.getcwd(), WORK_DIR)
    os.makedirs(work, exist_ok=True)
    input_set = args.seed % INPUT_SETS
    pool, prepared, setup_s = set_up(args.workload, input_set, os.path.join(work, "docs"))
    stored = load_references(args.workload, input_set, inputs.digest(pool))
    if args.trace:
        return traced_run(args, pool, prepared, stored, setup_s, work)
    order = itertools.cycle(range(len(pool)))
    run_queries(prepared, order, perf_counter() + WARMUP_S, meter=SpeedMeter())
    meter = SpeedMeter()
    records, _ = run_queries(prepared, order, perf_counter() + args.seconds, meter=meter)
    tally = evaluate(args.workload, pool, prepared, stored, records)
    metrics = end_to_end(tally, meter.query_s, setup_s)
    # the same run with each query's time in reference seconds
    scaled = [(i, secs * k, raw) for (i, secs, raw), k in zip(records, meter.scales())]
    ref = end_to_end(evaluate(args.workload, pool, prepared, stored, scaled),
                     sum(secs for _, secs, _ in scaled), setup_s)
    metrics.update({
        "goodput_ref_qps": (ref["goodput_qps"][0], "1/ref_s"),
        "query_p50_ref_s": (ref["query_p50_s"][0], "ref_s"),
        "query_p90_ref_s": (ref["query_p90_s"][0], "ref_s"),
    })
    report(args.workload, args.seed, tally, metrics)
    runs = len(meter.kernel_times)
    log(f"  calibration kernel: {runs / meter.kernel_s:.1f}/s over the run, {runs} runs in "
        f"{meter.kernel_s:.2f}s (reference {REFERENCE_RATE:g}/s); query time {meter.query_s:.2f}s")
    alone = threading.active_count() == 1
    if not alone:
        log("  threads were left running: the calibration kernel did not run alone")
    keep = [m["name"] for m in bench_spec()["end_to_end"]]
    return result(tally.passed and alone, tally, {k: metrics[k] for k in keep})


def traced_run(args, pool, prepared, stored, setup_s, work) -> dict:
    """Each query runs untraced, then again with the tracer installed, until
    the time is up; interleaving keeps warm-up and machine drift out of the
    overhead share."""
    originals = tracing.snapshot()
    tracer = tracing.Tracer()
    plain, traced = [], []
    deadline = perf_counter() + args.seconds
    for idx in itertools.cycle(range(len(pool))):
        plain += run_queries(prepared, [idx])[0]
        tracer.install()
        try:
            traced += run_queries(prepared, [idx], tracer=tracer)[0]
        finally:
            tracer.uninstall()
        if perf_counter() >= deadline:
            break
    plain_wall = sum(secs for _, secs, _ in plain)
    traced_wall = sum(secs for _, secs, _ in traced)
    restored = tracing.originals_restored(originals)
    plain_tally = evaluate(args.workload, pool, prepared, stored, plain)
    tally = evaluate(args.workload, pool, prepared, stored, traced)
    same = plain_tally.answers == tally.answers

    calls, self_s = tracer.layer_totals()
    roots = [e - s for s, e, p in zip(tracer.start, tracer.end, tracer.parent) if p < 0]
    root_total = sum(roots)
    span_total = sum(self_s.values())
    consistent = abs(span_total - root_total) <= 1e-6 * max(root_total, 1e-9) + 1e-9
    consistent = consistent and root_total <= traced_wall
    wrapped = span_total - self_s[tracing.ROOT]
    overhead = (traced_wall - plain_wall) / plain_wall
    metrics = tracing.layer_metrics(calls, self_s, tracer.counts, overhead, traced_wall - wrapped)
    tracer.write(os.path.join(work, f"trace-{args.workload}.tsv"))

    report(args.workload, args.seed, tally, end_to_end(tally, traced_wall, setup_s))
    log(f"  traced wall {traced_wall:.4f}s, untraced wall {plain_wall:.4f}s for the same "
        f"{len(traced)} queries; {len(tracer.start)} spans")
    log(f"  wrapped self {wrapped:.4f}s + unwrapped remainder {traced_wall - wrapped:.4f}s "
        f"= traced wall {traced_wall:.4f}s; self times of all spans {span_total:.4f}s, "
        f"query spans {root_total:.4f}s")
    log(f"  traced answers equal untraced: {same}; originals restored: {restored}; "
        f"self times add up: {consistent}")
    ranked = sorted(((v, k) for k, v in self_s.items()), reverse=True)
    for v, k in ranked[:8]:
        log(f"    {k:<40} self {v:10.4f}s  calls {calls[k]}")
    keep = [m["name"] for m in bench_spec()["per_layer"]]
    correct = tally.passed and plain_tally.passed and same and restored and consistent
    return result(correct, tally, {k: metrics[k] for k in keep})


def bench_spec() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def result(correct: bool, tally: Tally, metrics: dict) -> dict:
    return {
        "correct": bool(correct),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in [k for k in os.environ if k.startswith("GHLAB_")]:
        del os.environ[name]  # gh reads its defaults from these
    try:
        out = run(args)
    except BenchError as exc:
        log(f"perfbench: {exc}")
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
