"""Write references.json: the exact answers of every input set of every
workload, made with the package as it is now.

Run from the root of a checkout, at the commit whose answers are to be
trusted (the references are only as good as that commit):

    python3 perfbench/make_references.py --jobs 2

``search`` and ``tunnel`` answers come from the Python API, ``cli-float``
answers from ``gh --backend rational``.  For ``cli-float`` the error kind of
each query that fails on the default float backend is stored as well; the
benchmark accepts an error only where it is listed there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import run  # puts the checkout's src on sys.path
import workloads


def one(task: tuple) -> tuple:
    workload, input_set = task
    workdir = os.path.join(os.getcwd(), run.WORK_DIR, f"refdocs-{input_set}")
    os.makedirs(workdir, exist_ok=True)
    queries = workloads.pool(workload, input_set)
    return workload, input_set, workloads.references(workload, queries, workdir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    run.check_import_location()
    tasks = [(w, s) for w in workloads.WORKLOADS for s in range(run.INPUT_SETS)]
    out: dict = {w: {} for w in workloads.WORKLOADS}
    with ProcessPoolExecutor(max_workers=args.jobs) as pool:
        for workload, input_set, entry in pool.map(one, tasks):
            out[workload][str(input_set)] = entry
            print(f"{workload} {input_set}", file=sys.stderr)
    with open(run.STORED_REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
