"""Run the benchmark over several seeds and report medians and spreads.

    python3 perfbench/spread.py --workloads converge,scenarios --seeds 1-10
    python3 perfbench/spread.py --seeds 11-20 --against perfbench/results/spread-converge+scenarios-1-10.json

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time, with
``run_seconds`` from BENCHMARK.json. For every end-to-end metric it prints
the median, the quartiles and the spread: the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) over the median.
A spread above a third of the metric's bound is flagged ("WIDE"); setup_s
is exempt. ``--against`` compares the medians with an earlier summary and
flags a median worse by more than the bound ("WORSE"). The raw values go
to ``perfbench/results/spread-<workloads>-<seeds>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--against", type=Path, default=None)
    args = ap.parse_args(argv)

    metrics = bench["end_to_end"]
    values: dict[str, dict[str, list[float]]] = {}
    for workload in args.workloads.split(","):
        values[workload] = {m["name"]: [] for m in metrics}
        for seed in args.seeds:
            cmd = [sys.executable, *bench["command"][1:],
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: INCORRECT {result}")
                return 1
            for name, entry in result["metrics"].items():
                values[workload][name].append(entry["value"])
            print(f"{workload} seed {seed}: attempted {result['attempted']}",
                  flush=True)

    before = json.loads(args.against.read_text()) if args.against else {}
    for workload, series in values.items():
        print(f"\n{workload}")
        for m in metrics:
            vals = series[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            line = (f"  {m['name']:<14} median {med:<12.6g} q1 {q1:<12.6g} "
                    f"q3 {q3:<12.6g} spread {spread:.4f}")
            bound = m["bound"]
            line += f" bound {bound}"
            if m["name"] != "setup_s" and spread > bound / 3:
                line += " WIDE"
            old = before.get(workload, {}).get(m["name"])
            if old:
                ref = statistics.median(old)
                change = (med - ref) / ref
                worse = -change if m["better"] == "higher" else change
                line += f" vs before {change:+.4f}"
                if worse > bound:
                    line += " WORSE"
            print(line)
    first, last = args.seeds[0], args.seeds[-1]
    name = "+".join(values)
    out_path = HERE / "results" / f"spread-{name}-{first}-{last}.json"
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(json.dumps(values, indent=1) + "\n")
    print(f"\nvalues written to {out_path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
