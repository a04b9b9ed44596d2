"""Self-checks of the benchmark itself.

    python3 -m pytest perfbench -q

The oracles are live: each workload's checker passes the real outputs of
its first block and counts a deliberately corrupted output (one entry moved
by 1e-6, a state pushed 1e-6 out of the future cone with its total kept, or
a non-monotone epsilon series) as failed, by the oracle meant to catch it;
a small error injected into the engine kernel is caught by the oracles that
do not use the kernel. The traced run's
spans nest, cover each op and are unwound afterwards, and the benchmark
refuses to run without package sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import lfilter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from memtp import states  # noqa: E402


def _bump(values):
    out = np.array(values, dtype=float)
    out[0] += 1e-6
    return out


def _out_of_cone(q, p, gamma):
    """q with mass moved from its lowest- to its highest-ratio entry, just
    enough that its curve ends 1e-6 above p's: the total is unchanged, so
    only the thermomajorisation oracle can see it."""
    q = np.array(q, dtype=float)
    order = states.beta_order(q, gamma).order
    top, bottom = order[0], order[-1]
    x = gamma[top] / gamma.sum()
    move = states.curve_eval(states.thermo_curve(p, gamma), x) - q[top] + 1e-6
    assert 0 < move < q[bottom]
    q[top] += move
    q[bottom] -= move
    return q


def _non_monotone(result, inputs):
    rows = list(result.rows)
    rows[-1] = dict(rows[-1], epsilon=rows[0]["epsilon"] + 1e-6)
    return dataclasses.replace(result, rows=rows)


def _vertex_out_of_cone(payload, inputs):
    first = payload["vertices"][0]
    moved = _out_of_cone(first["state"], inputs["state"], inputs["gamma"])
    return {"vertices": [dict(first, state=list(moved))]
            + payload["vertices"][1:]}


# a corruption per op kind, and the oracle message that must report it
CORRUPT = {
    "sweep": (lambda rows, inputs: [dict(rows[0], delta=rows[0]["delta"] + 1e-6)],
              "delta differs from the stepwise cell"),
    "composed": (lambda q, inputs: _out_of_cone(q, inputs["state"],
                                                inputs["gamma"]),
                 "not thermomajorised"),
    "full": (lambda q, inputs: _bump(q), "closed-form oracle error"),
    "work": (_non_monotone, "not monotone"),
    "trace": (lambda trace, inputs: dict(
        trace, final_state=_bump(trace["final_state"])),
              "differs from the unrecorded run"),
    "cone": (_vertex_out_of_cone, "not thermomajorised"),
}


def cheapest_per_kind(workload):
    ops = {}
    for op in workloads.block(workload, 7, 0):
        size = (op.inputs.get("N", 0), len(op.inputs.get("state", ())))
        if op.kind not in ops or size < ops[op.kind][0]:
            ops[op.kind] = (size, op)
    return [op for _, op in ops.values()]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_first_block_passes_its_oracles(workload):
    record = bench.new_record()
    bench.run_block(workloads, workloads.block(workload, 7, 0), record)
    assert record["errors"] == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_outputs_count_as_failed(workload, monkeypatch):
    for name, kind in workloads.KINDS.items():
        def corrupted(_call=kind.call, _corrupt=CORRUPT[name][0], **inputs):
            return _corrupt(_call(**inputs), inputs)
        monkeypatch.setitem(workloads.KINDS, name,
                            dataclasses.replace(kind, call=corrupted))
    record = bench.new_record()
    ops = cheapest_per_kind(workload)
    bench.run_block(workloads, ops, record)
    failed_frac = len(record["errors"]) / len(record["times"])
    assert failed_frac == 1.0, record["errors"]
    for op, error in zip(ops, record["errors"]):
        assert CORRUPT[op.kind][1] in error


def test_kernel_defect_is_caught_without_the_kernel(monkeypatch):
    """A mass-preserving 1e-8 error in the lfilter recurrence, the kernel
    of trivial-memory swaps, fails the sweep cells checked by the
    closed-form and per-step oracles."""
    import memtp.engine

    def skewed(b, a, x, zi):
        y, zf = lfilter(b, a, x, zi=zi)
        return y * (1.0 + 1e-8), zf

    monkeypatch.setattr(memtp.engine, "lfilter", skewed)
    ops = [op for op in workloads.block("converge", 7, 0)
           if op.kind == "sweep" and (op.inputs["N"] <= workloads.STEPWISE_MAX_N
                                      or op.inputs["target"] == workloads.TARGETS[0])]
    record = bench.new_record()
    bench.run_block(workloads, ops, record)
    assert len(record["errors"]) == len(ops) == 5, record["errors"]
    assert all("delta differs from the" in e for e in record["errors"])


def test_traced_spans_nest_and_cover_each_op():
    import memtp.states
    original = memtp.states.thermomajorizes
    tracer = tracing.Tracer()
    record = bench.new_record()
    tracer.install()
    try:
        assert memtp.states.thermomajorizes is not original
        for workload in workloads.WORKLOADS:
            bench.run_block(workloads, cheapest_per_kind(workload), record,
                            tracer)
    finally:
        tracer.restore()
    assert memtp.states.thermomajorizes is original
    assert record["errors"] == []
    metrics, root_share_max, by_kind = tracing.layer_metrics(
        tracer, 1.0, record["kinds"], 2)
    assert set(by_kind) == set(workloads.KINDS)
    assert root_share_max <= bench.MAX_ROOT_SHARE
    assert set(metrics) <= {m["name"] for m in json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
    assert metrics["engine.steps_per_block"][0] > 0
    assert metrics["experiments.feasibility_checks_per_epsilon"][0] > 1
    assert 0 < metrics["cones.vertex_yield"][0] <= 1
    shares = [metrics[f"layer.{layer}.self_share"][0]
              for layer in tracing.LAYERS]
    assert sum(shares) == pytest.approx(1.0)


def test_span_outside_an_op_root_is_rejected():
    tracer = tracing.Tracer()
    idx = tracer._open(tracer._intern("states.thermomajorizes"))
    tracer._close(idx)
    with pytest.raises(ValueError):
        tracer.self_times()


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "converge",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
