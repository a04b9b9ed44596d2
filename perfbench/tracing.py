"""Span tracing of memtp's public functions, from outside the package.

``Tracer.install`` replaces each function in ``TRACED`` by a wrapper on its
module, and on every other memtp module that imported the same object, so
calls between memtp modules are seen too. A wrapper records a span (name,
start, end, parent span, op id) while an op root is open and does nothing
else otherwise, so input generation and the oracles leave no spans. Full
garbage collections inside an op are spans too. Spans live in flat arrays
until the run ends.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gc
import gzip
import inspect
import math
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

ROOT = "bench.op"

# layer (memtp module) -> traced functions. memtp.special has no runner
# caller and is left out on purpose, and closed_forms.final_state is called
# only by the benchmark's oracles, which run outside op roots
TRACED = {
    "states": ("thermomajorizes", "thermo_curve", "beta_order",
               "relative_entropy", "mutual_information", "marginalize"),
    "cones": ("future_cone_vertices", "extreme_point",
              "decompose_neighbour_transpositions"),
    "engine": ("run_composed", "run_full_swap", "run_truncated",
               "build_schedule", "thermalize_memory",
               "TrajectoryRecorder.record"),
    "rates": ("predict_delta",),
    "experiments": ("min_epsilon_transform", "converge_sweep",
                    "work_extraction", "free_energy_trace", "cone_export"),
    "export": ("rows_to_csv",),
}
# full (generation 2) garbage collections get a span of their own, so that
# a long pause is not booked to whichever code it interrupted
GC_SPAN = "python.gc"
LAYERS = tuple(TRACED) + ("python", "bench")
SPAN_NAMES = tuple(f"{m}.{f}" for m, fns in TRACED.items() for f in fns)


def _steps_note(bound, result):
    args = bound.arguments
    N = int(args["N"])
    swaps = len(args["chain"]) if "chain" in args else 1
    if args.get("recorder") is not None:
        path = "recorded"
    else:
        spec = args.get("memory_spectrum")
        path = ("graded" if spec is not None and max(spec) > min(spec)
                else "trivial")
    return {"steps": swaps * N * N, "path": path, "N": N}


def _cone_note(bound, result):
    return {"vertices": len(result),
            "candidates": math.factorial(len(bound.arguments["p"]))}


# annotations taken from the arguments and results of a few calls: the step
# count of the engine entry points (N^2 per swap) and the cone vertex yield
NOTES = {"engine.run_composed": _steps_note,
         "engine.run_full_swap": _steps_note,
         "cones.future_cone_vertices": _cone_note}


class Tracer:
    """In-memory span recorder with module-level function wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.notes: dict[int, tuple] = {}
        self._stack: list[int] = []
        self._op_id = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, op_id: int):
        """Open one op's root span; traced calls inside it record spans."""
        self._op_id = op_id
        idx = self._open(self._intern(ROOT))
        try:
            yield
        finally:
            self._close(idx)
            self._op_id = -1

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self._stack or info["generation"] < 2:
            return
        if phase == "start":
            self._open(self._intern(GC_SPAN))
        else:
            self._close(self._stack[-1])

    def _wrap(self, name: str, fn):
        name_id = self._intern(name)
        note = NOTES.get(name)
        signature = inspect.signature(fn) if note else None
        # notes are worked out after the run, so the wrapper only keeps
        # references and adds no note cost to the spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if note:
                self.notes[idx] = (note, signature, args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function that exists in the imported package."""
        gc.callbacks.append(self._on_gc)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "memtp" or n.startswith("memtp.")]
        for layer, fns in TRACED.items():
            home = sys.modules.get(f"memtp.{layer}")
            for fn_name in fns:
                owner, attr = home, fn_name
                if "." in fn_name:
                    cls_name, attr = fn_name.split(".")
                    owner = getattr(home, cls_name, None)
                original = getattr(owner, attr, None)
                if original is None:
                    continue          # removed from the package: 0 calls
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                targets = [owner] if owner is not home else modules
                for target in targets:
                    for key, value in list(vars(target).items()):
                        if value is original:
                            self._restore.append((target, key, value))
                            setattr(target, key, wrapper)

    def restore(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for target, key, value in reversed(self._restore):
            setattr(target, key, value)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time; raises ValueError on a malformed span tree."""
        n = len(self.start)
        root_id = self._intern(ROOT)
        own = [self.end[i] - self.start[i] for i in range(n)]
        last_child_end: dict[int, float] = {}
        for i in range(n):
            par = self.parent[i]
            if not self.end[i] >= self.start[i]:
                raise ValueError(f"span {i} never closed or ends before it starts")
            if par < 0:
                if self.name[i] != root_id:
                    raise ValueError(f"span {i} has no parent and is no op root")
                continue
            if not (par < i and self.op[par] == self.op[i]
                    and self.start[par] <= self.start[i]
                    and self.end[i] <= self.end[par]
                    and last_child_end.get(par, -math.inf) <= self.start[i]):
                raise ValueError(f"span {i} not nested in its parent {par}")
            last_child_end[par] = self.end[i]
            own[par] -= self.end[i] - self.start[i]
        return own

    def write(self, path) -> None:
        """Write spans as gzipped CSV: id,name,start,end,parent,op."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start_s,end_s,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name[i]]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},"
                         f"{self.parent[i]},{self.op[i]}\n")


def layer_metrics(tracer: Tracer, untraced_op_s: float, kinds: list[str],
                  blocks: int):
    """Per-layer metrics, the largest untraced root share, and layer shares
    per op kind.

    ``untraced_op_s`` is the untraced time of the same ops; it turns the
    computed step count into steps per second. ``kinds[op_id]`` names each
    op's kind. Totals (calls, self seconds, steps) are divided by the
    ``blocks`` the ops came from: a run lasts a fixed wall time, so a faster
    program runs more blocks, and per block it does the same work.
    Functions that were not called report 0.
    """
    self_s = tracer.self_times()
    root_id = tracer._intern(ROOT)
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    layer_self = defaultdict(float)
    kind_self = defaultdict(lambda: defaultdict(float))
    kind_total = defaultdict(float)
    in_eps = [False] * len(self_s)
    checks_in_eps = 0
    root_total = 0.0
    root_share_max = 0.0
    for i, s in enumerate(self_s):
        name = tracer.names[tracer.name[i]]
        dur = tracer.end[i] - tracer.start[i]
        par = tracer.parent[i]
        kind = kinds[tracer.op[i]]
        if tracer.name[i] == root_id:
            root_total += dur
            kind_total[kind] += dur
            layer_self["bench"] += s
            kind_self[kind]["bench"] += s
            root_share_max = max(root_share_max, s / dur if dur > 0 else 0.0)
            continue
        calls[name] += 1
        total[name] += dur
        own[name] += s
        layer_self[name.split(".")[0]] += s
        kind_self[kind][name.split(".")[0]] += s
        in_eps[i] = (name == "experiments.min_epsilon_transform"
                     or in_eps[par])
        if name == "states.thermomajorizes" and in_eps[i]:
            checks_in_eps += 1

    metrics = {}
    for name in SPAN_NAMES:
        n = calls[name]
        metrics[f"{name}.calls_per_block"] = (n / blocks, "count")
        metrics[f"{name}.self_s_per_block"] = (own[name] / blocks, "s")
        metrics[f"{name}.us_per_call"] = (total[name] / n * 1e6 if n else 0.0,
                                          "us")
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_share"] = (
            layer_self[layer] / root_total if root_total else 0.0, "ratio")

    steps = defaultdict(int)
    seconds = defaultdict(float)
    biggest_n = 0
    vertices = candidates = 0
    for idx, (fn, signature, args, kwargs, result) in tracer.notes.items():
        note = fn(signature.bind(*args, **kwargs), result)
        if "steps" in note:
            steps[note["path"]] += note["steps"]
            seconds[note["path"]] += tracer.end[idx] - tracer.start[idx]
            if note["path"] != "recorded":
                biggest_n = max(biggest_n, note["N"])
        else:
            vertices += note["vertices"]
            candidates += note["candidates"]
    all_steps = sum(steps.values())

    def ns_per(path):
        return seconds[path] / steps[path] * 1e9 if steps[path] else 0.0

    metrics["engine.steps_per_block"] = (all_steps / blocks, "steps-computed")
    metrics["engine.steps_per_s"] = (
        all_steps / untraced_op_s if untraced_op_s else 0.0, "1/s")
    metrics["engine.ns_per_step"] = (ns_per("trivial"), "ns")
    metrics["engine.ns_per_step_graded"] = (ns_per("graded"), "ns")
    # one int64 partner index per grid cell of the largest swap
    metrics["engine.schedule_bytes"] = (8 * biggest_n ** 2, "bytes-computed")
    metrics["cones.vertex_yield"] = (
        vertices / candidates if candidates else 0.0, "ratio")
    n_eps = calls["experiments.min_epsilon_transform"]
    metrics["experiments.feasibility_checks_per_epsilon"] = (
        checks_in_eps / n_eps if n_eps else 0.0, "ratio")
    kind_shares = {k: {layer: t / kind_total[k] for layer, t in v.items()}
                   for k, v in kind_self.items()}
    return metrics, root_share_max, kind_shares
