"""Span tracing of calls into ``ghlab`` layers, from outside the package.

``ghlab`` modules bind functions with ``from .x import f``, so a wrapper is
installed under every ``ghlab`` module attribute that holds the original,
and ``Tracer.uninstall`` puts every original back.  Spans (name, start, end,
parent) stay in memory in flat arrays until the run ends.  A span's self
time is its duration minus the part of it its child spans cover.

Tiny hot helpers (``numerics.leq`` and the like) stay unwrapped: their cost
shows in the caller's self time.  The program is single-threaded with no
queues, so no layer waits on another and there is no wait metric.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, function) pairs that get a span.  ``ingest`` groups the three
# document readers of metric_core into one layer metric.
SPANNED = (
    ("metric_core", "validate_metric"),
    ("metric_core", "min_plus_closure"),
    ("metric_core", "space_from_json"),
    ("metric_core", "pointed_from_json"),
    ("metric_core", "space_from_csv"),
    ("gluing", "glue_from_correspondence"),
    ("gluing", "correspondence_distortion"),
    ("gluing", "validate_gluing"),
    ("local_gh", "delta_r"),
    ("local_gh", "Delta_r"),
    ("local_gh", "gh_inframetric"),
    ("local_gh", "refine_gluing_cross"),
    ("tunnels", "check_admissible"),
    ("tunnels", "check_left_admissible"),
    ("tunnels", "_extent_scan"),
    ("tunnels", "extent"),
    ("tunnels", "propinquity_bracket"),
    ("tunnels", "existence_tunnel"),
    ("tunnels", "passage_from_gluing"),
    ("lipschitz", "_partial_lip"),
    ("kantorovich", "w1"),
    ("simplex", "transportation_simplex"),
    ("simplex", "solve_lp"),
    ("numerics", "parse_scalar"),
    ("cli", "main"),
    ("cli", "build_parser"),
)
INGEST = ("space_from_json", "pointed_from_json", "space_from_csv")

# Generator functions whose yielded items are counted, with no span: their
# frames interleave with the consumer's, so a span would not nest.
COUNTED = (("gluing", "correspondence_stream", "gluing.correspondences"),)

ROOT = "bench.query"


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self.counts: Counter = Counter()
        self._saved: list = []  # (module, attribute, original)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn under a span of the given name."""
        idx = self.open(self.name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- wrapping -----------------------------------------------------------

    def _spanned(self, name: str, fn):
        nid = self.name_id(name)
        observe_ok = name == "tunnels.check_admissible"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe_ok and result[0]:
                self.counts["tunnels.check_admissible.ok"] += 1
            return result

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a ghlab module binds it."""
        plan = []
        for m, f in SPANNED:
            original = _original(m, f)
            plan.append((f, original, self._spanned(f"{m}.{f}", original)))
        for m, f, key in COUNTED:
            original = _original(m, f)
            plan.append((f, original, self._counted(key, original)))
        for func, original, wrapper in plan:
            for mod in _ghlab_modules():
                if mod.__dict__.get(func) is original:
                    self._saved.append((mod, func, original))
                    setattr(mod, func, wrapper)

    def uninstall(self) -> None:
        for mod, func, original in reversed(self._saved):
            setattr(mod, func, original)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> list:
        return self_times(self.start, self.end, self.parent)

    def layer_totals(self) -> tuple:
        """(calls, self seconds) per span name."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for nid, st in zip(self.name_of, self.self_times()):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += st
        return calls, self_s

    def write(self, path: str) -> None:
        """Write the spans as tab-separated name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for nid, s, e, p in zip(self.name_of, self.start, self.end, self.parent):
                fh.write(f"{self.names[nid]}\t{s!r}\t{e!r}\t{p}\n")


def self_times(start, end, parent) -> list:
    """Self time of each span: its duration minus the union of its children's
    intervals.  Spans must be listed in start order, as the tracer records
    them; overlapping children are merged, not double counted."""
    n = len(start)
    covered = [0.0] * n
    reach: dict = {}  # parent -> end of the children's union so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo, hi = start[i], end[i]
        prev = reach.get(p)
        if prev is not None and lo < prev:
            lo = prev
        if hi > lo:
            covered[p] += hi - lo
        if prev is None or hi > prev:
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def _ghlab_modules() -> list:
    return [
        m for name, m in list(sys.modules.items()) if name == "ghlab" or name.startswith("ghlab.")
    ]


def _original(module: str, func: str):
    return getattr(sys.modules[f"ghlab.{module}"], func)


def wrapped_names() -> list:
    return [(m, f) for m, f in SPANNED] + [(m, f) for m, f, _ in COUNTED]


def originals_restored(originals: dict) -> bool:
    """True when every ghlab module attribute named in ``originals`` (from
    ``snapshot``) is again the object it was before tracing."""
    return all(getattr(mod, attr) is obj for (mod, attr), obj in originals.items())


def snapshot() -> dict:
    """Every ghlab module attribute that holds a traced function."""
    out = {}
    for module, func in wrapped_names():
        original = _original(module, func)
        for mod in _ghlab_modules():
            if mod.__dict__.get(func) is original:
                out[(mod, func)] = original
    return out


def layer_metrics(
    calls: Counter, self_s: Counter, counts: Counter, overhead_share: float, unwrapped_s: float
) -> dict:
    """The per-layer metrics of a traced run, by name, from its
    ``layer_totals``, its item counts, its tracing overhead and the traced
    wall time outside every wrapped span."""
    out = {}
    for module, func in SPANNED:
        if func in INGEST:
            continue
        name = f"{module}.{func}"
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    ingest = [f"metric_core.{f}" for f in INGEST]
    out["metric_core.ingest.calls"] = (sum(calls[n] for n in ingest), "count")
    out["metric_core.ingest.self_s"] = (sum(self_s[n] for n in ingest), "s")
    enumerated = counts["gluing.correspondences"]
    built = calls["gluing.glue_from_correspondence"]
    out["gluing.correspondences.count"] = (enumerated, "count")
    out["gluing.built_per_correspondence"] = (built / enumerated if enumerated else 0.0, "ratio")
    admissible = calls["tunnels.check_admissible"]
    ok = counts["tunnels.check_admissible.ok"]
    out["tunnels.check_admissible.ok_share"] = (ok / admissible if admissible else 0.0, "share")
    out["trace.unwrapped_s"] = (unwrapped_s, "s")
    out["trace.overhead_share"] = (overhead_share, "share")
    return out
