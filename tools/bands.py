"""Cost bands of one benchmark pool, timed in process.

Run from the root of a checkout (the directory holding ``src/ghlab`` and
``perfbench``):

    python3 tools/bands.py --workload tunnel --input-set 3 --passes 5

The pool of the input set is generated and prepared as ``perfbench/run.py``
prepares it (the ``cli-float`` documents go to a temporary directory), run
once untimed, and then ``--passes`` times in pool order; each query's time is
the median of its passes.  The script prints, for each query kind (the pool
query's ``op``: a ``gh`` subcommand on ``cli-float``), how many queries the
pool holds, their median time and their share of the pool's time; then the
pool's p50 and p90 as ``run.py`` takes them from such times (the median, and
the ninth inclusive decile), the kinds of the queries at the ranks each is
read from, and the kinds that hold the ranks within five points of it.  A
percentile whose window holds one kind sits inside that kind's band; one
whose window is split sits on an edge and can jump between bands.

Times are this machine's seconds, with no calibration kernel, so compare
two checkouts on one machine, one run after the other.  Answers are not
checked (``perfbench/run.py`` does that).  Standard library only; nothing
is written under ``perfbench``.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
import tempfile
from collections import Counter
from time import perf_counter

ROOT = os.getcwd()
if not os.path.isfile(os.path.join(ROOT, "src", "ghlab", "__init__.py")):
    sys.exit("bands: no src/ghlab under the working directory; run from a checkout root")
sys.dont_write_bytecode = True  # no __pycache__ under perfbench
for sub in ("perfbench", "src"):
    sys.path.insert(0, os.path.join(ROOT, sub))

import workloads  # noqa: E402

WINDOW = 0.05


def prepare(workload: str, pool: list, docs_dir: str) -> list:
    if workload == "cli-float":
        return [workloads.write_cli_docs(q, i, docs_dir) for i, q in enumerate(pool)]
    return [workloads.prepare_api(q) for q in pool]


def time_pool(prepared: list, passes: int) -> list:
    """Each query's median time over ``passes`` passes, after one untimed one."""
    times = [[] for _ in prepared]
    for k in range(passes + 1):
        for i, (op, args) in enumerate(prepared):
            t0 = perf_counter()
            try:
                workloads.execute(op, args)
            except Exception:  # a failing query still costs its time
                pass
            if k:
                times[i].append(perf_counter() - t0)
    return [statistics.median(t) for t in times]


def rank_kinds(order: list, kinds: list, position: float) -> tuple:
    """(kinds at the ranks a percentile at ``position`` is read from, kind
    counts over the ranks within WINDOW of it)."""
    lo, hi = math.floor(position), math.ceil(position)
    at = sorted({kinds[order[lo]], kinds[order[hi]]})
    reach = max(1, round(WINDOW * len(order)))
    window = order[max(0, lo - reach): hi + reach + 1]
    return at, Counter(kinds[i] for i in window)


def report(workload: str, input_set: int, pool: list, times: list) -> None:
    kinds = [q["op"] for q in pool]
    total = sum(times)
    print(f"{workload} input set {input_set}: {len(pool)} queries, pool {total * 1e3:.1f} ms")
    print(f"{'kind':<22}{'count':>6}{'median us':>12}{'share':>8}")
    for kind in sorted(set(kinds), key=kinds.index):
        mine = [t for t, k in zip(times, kinds) if k == kind]
        share = sum(mine) / total
        print(f"{kind:<22}{len(mine):>6}{statistics.median(mine) * 1e6:>12.1f}{share:>8.1%}")
    order = sorted(range(len(times)), key=times.__getitem__)
    ranked = [times[i] for i in order]
    n = len(ranked)
    p50 = statistics.median(ranked)
    p90 = statistics.quantiles(ranked, n=10, method="inclusive")[8] if n > 1 else p50
    for name, value, position in (("p50", p50, (n - 1) / 2), ("p90", p90, (n - 1) * 0.9)):
        at, window = rank_kinds(order, kinds, position)
        spread = ", ".join(f"{k} {c}" for k, c in window.most_common())
        print(f"{name} {value * 1e6:.1f} us: {' / '.join(at)}; ranks within {WINDOW:.0%}: {spread}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--input-set", type=int, default=0)
    ap.add_argument("--passes", type=int, default=5)
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    pool = workloads.pool(args.workload, args.input_set)
    with tempfile.TemporaryDirectory() as docs_dir:
        times = time_pool(prepare(args.workload, pool, docs_dir), args.passes)
    report(args.workload, args.input_set, pool, times)
    return 0


if __name__ == "__main__":
    sys.exit(main())
