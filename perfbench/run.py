"""memtp benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload converge --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy. One client runs ops one at
a time on one thread (closed loop): first block 0 as an untimed warm-up
(its ops are still checked and counted), then whole blocks until
``--seconds`` of wall time have passed and at least 100 ops ran.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs every block twice, untraced and with every traced memtp function
wrapped, alternating which pass goes first, and prints the per-layer
metrics. The last stdout line is the result object; the line before it is
the run manifest. Both, with the op times, also go to
``perfbench/results/<workload>.trace<0|1>.json``, and a traced run writes
its spans to ``perfbench/results/<workload>.spans.csv.gz``.
"""

from __future__ import annotations

import os

# pin every BLAS/OpenMP pool before numpy loads; children inherit the pins
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 5          # fresh interpreters per run; setup_s is their median
MIN_OPS = 100             # so that at least 10 op times lie beyond op_s_p90
MAX_ROOT_SHARE = 0.05     # op time the traced layers may leave uncovered
IMPORT_MODULES = ("memtp", "memtp.states", "memtp.cones", "memtp.engine",
                  "memtp.closed_forms", "memtp.rates", "memtp.experiments",
                  "memtp.export", "memtp.cli", "scipy.signal")


def parse_args(argv, bench):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import and generate the first block, print 'ready' "
                         "and exit (used to time setup in a fresh interpreter)")
    return ap.parse_args(argv)


def load_package():
    """Import memtp from this checkout's src; exit non-zero without it."""
    if not (SRC / "memtp" / "__init__.py").is_file():
        raise SystemExit(f"no memtp sources under {SRC}: run from a checkout")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import memtp
    import workloads
    import_s = perf_counter() - t0
    if not Path(memtp.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"memtp imported from {memtp.__file__}, not {SRC}")
    return workloads, import_s


def run_op(workloads, op, op_id, tracer):
    """Time one op, then check it; returns (seconds, error or None,
    diagnostics). Only the call is timed and traced, not its oracle."""
    kind = workloads.KINDS[op.kind]
    root = tracer.root(op_id) if tracer else nullcontext()
    t0 = perf_counter()
    try:
        with root:
            out = kind.call(**op.inputs)
    except Exception as exc:       # the op raised
        return perf_counter() - t0, f"{op.kind}: {exc!r}", {}
    elapsed = perf_counter() - t0
    try:
        return elapsed, None, kind.check(out, **op.inputs)
    except Exception as exc:       # the op failed its oracle
        return elapsed, f"{op.kind}: {exc!r}", {}


def new_record() -> dict:
    return {"blocks": 0, "times": [], "kinds": [], "errors": [],
            "oracle_err_max": 0.0}


def run_block(workloads, ops, record, tracer=None) -> None:
    """Run one block's ops in order and add their outcomes to ``record``."""
    for op in ops:
        dt, error, diag = run_op(workloads, op, len(record["times"]), tracer)
        record["times"].append(dt)
        record["kinds"].append(op.kind)
        if error:
            record["errors"].append(error)
        record["oracle_err_max"] = max(record["oracle_err_max"],
                                       diag.get("oracle_err", 0.0))
    record["blocks"] += 1


def warm_up(workloads, first) -> dict:
    """Run block 0 once, so that one-off costs of first calls (lazy
    imports, caches) stay out of the timed blocks; its ops are checked."""
    record = new_record()
    run_block(workloads, first, record)
    return record


def blocks(workloads, name, seed, seconds, record):
    """Blocks 1, 2, ..., generated as needed, for at least ``seconds`` of
    wall time and until ``record`` holds MIN_OPS ops."""
    start = perf_counter()
    k = 1
    while perf_counter() - start < seconds or len(record["times"]) < MIN_OPS:
        yield workloads.block(name, seed, k)
        k += 1


def timed_run(workloads, args, first):
    """Warm up, then run timed blocks for ``--seconds``. The set-up probes
    run one at a time between blocks, spread evenly over that window, so
    that setup_s samples the machine's fast and slow phases as the ops do."""
    warmup = warm_up(workloads, first)
    run, setup = new_record(), []
    start = perf_counter()
    for ops in blocks(workloads, args.workload, args.seed, args.seconds, run):
        due = len(setup) * args.seconds / SETUP_PROBES
        if len(setup) < SETUP_PROBES and perf_counter() - start >= due:
            setup.append(probe_setup(args.workload, args.seed))
        run_block(workloads, ops, run)
    while len(setup) < SETUP_PROBES:     # a run shorter than the schedule
        setup.append(probe_setup(args.workload, args.seed))
    return warmup, run, setup


def probe_setup(name, seed) -> float:
    """Seconds from spawning a fresh interpreter until it could run op 0."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with code {proc.returncode}")
    return elapsed


def import_times() -> dict:
    """Cumulative import time per memtp module, from ``python -X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import memtp.cli"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True)
    cum = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            if parts[1].strip().isdigit():
                cum[parts[2].strip()] = int(parts[1])
    return {f"import.{m}.cum_us": (cum.get(m, 0), "us") for m in IMPORT_MODULES}


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def manifest(args, started):
    import numpy
    import scipy
    import memtp
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "memtp": memtp.__version__,
        "commit": git_commit(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        # set-up probes or the importtime run, plus git; one at a time
        "processes": {"started": started, "concurrent_max": 1},
    }


def end_to_end(run, setup):
    times = run["times"]
    cuts = statistics.quantiles(times, n=10)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_s_p50": (cuts[4], "s"),
        "op_s_p90": (cuts[8], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(workloads, args, first, import_s, inputs_s):
    """Run each block untraced and traced, alternating which goes first."""
    import tracing
    warmup = warm_up(workloads, first)
    untraced, traced = new_record(), new_record()
    tracer = tracing.Tracer()
    for k, ops in enumerate(blocks(workloads, args.workload, args.seed,
                                   args.seconds, untraced)):
        for traced_pass in ((False, True) if k % 2 == 0 else (True, False)):
            if not traced_pass:
                run_block(workloads, ops, untraced)
                continue
            tracer.install()
            try:
                run_block(workloads, ops, traced, tracer)
            finally:
                tracer.restore()
    untraced_s, traced_s = sum(untraced["times"]), sum(traced["times"])
    metrics, root_share_max, kind_shares = tracing.layer_metrics(
        tracer, untraced_s, traced["kinds"], traced["blocks"])
    metrics.update(import_times())
    metrics.update({
        "setup.import_s": (import_s, "s"),
        "setup.inputs_s": (inputs_s, "s"),
        "closed_forms.oracle_err_max": (
            max(untraced["oracle_err_max"], traced["oracle_err_max"]), "abs"),
        # traced ops_per_s over untraced ops_per_s, same ops
        "bench.trace_overhead": (untraced_s / traced_s, "ratio"),
        "bench.root_self_share_max": (root_share_max, "ratio"),
        "bench.spans_per_block": (len(tracer.start) / traced["blocks"],
                                  "count"),
    })
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"{args.workload}.spans.csv.gz")
    runs = {"warmup": warmup, "untraced": untraced, "traced": traced,
            "layer_share_by_kind": kind_shares}
    return metrics, runs, root_share_max <= MAX_ROOT_SHARE


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, bench)
    workloads, import_s = load_package()
    t0 = perf_counter()
    first = workloads.block(args.workload, args.seed, 0)
    inputs_s = perf_counter() - t0
    if args.setup_probe:
        print("ready", flush=True)
        os._exit(0)             # the probe is timed to here; skip teardown

    spans_ok = True
    if args.trace:
        metrics, runs, spans_ok = per_layer(workloads, args, first,
                                            import_s, inputs_s)
        started = 2
    else:
        warmup, run, setup = timed_run(workloads, args, first)
        metrics = end_to_end(run, setup)
        runs = {"warmup": warmup, "run": run, "setup_s": setup}
        started = SETUP_PROBES + 1

    expected = {m["name"] for m in
                bench["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != expected:
        raise SystemExit(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ expected)}")

    attempted = sum(len(r["times"]) for r in runs.values() if "times" in r)
    failed = sum(len(r["errors"]) for r in runs.values() if "errors" in r)
    info = manifest(args, started)
    info["blocks"] = {k: r["blocks"] for k, r in runs.items() if "blocks" in r}
    info["op_samples"] = attempted
    info["first_errors"] = [e for r in runs.values() if "errors" in r
                            for e in r["errors"]][:5]
    result = {
        "correct": failed == 0 and spans_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps({"manifest": info, "result": result, "runs": runs},
                   indent=1) + "\n")
    print(json.dumps({"manifest": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
