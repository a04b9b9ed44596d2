"""Command-line drivers for the experiment scenarios.

Subcommands: converge, work-extract, cool, inaccessible, free-energy,
cone. Results are written as CSV (default) or JSON, to --out or stdout.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import experiments as xp
from .cones import CapacityError
from .export import write_rows
from .states import distribution, gibbs_state


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x != ""]


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def _memory_sizes(text: str) -> list[int]:
    sizes = _ints(text)
    if not sizes:
        raise argparse.ArgumentTypeError("give at least one memory size N")
    if min(sizes) < 1:
        raise argparse.ArgumentTypeError("memory sizes N must be >= 1")
    return sizes


def _level_pair(text: str) -> tuple[int, int]:
    levels = tuple(_ints(text))
    if len(levels) != 2 or levels[0] == levels[1]:
        raise argparse.ArgumentTypeError("give two distinct levels i,j")
    return levels


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--beta", type=float, default=0.0,
                     help="bath inverse temperature")
    sub.add_argument("--dims", type=_ints, default=None,
                     help="comma list of system dimensions")
    sub.add_argument("--state", type=_floats, default=None,
                     help="comma list of initial populations")
    sub.add_argument("--energies", type=_floats, default=None,
                     help="comma list of energy levels")
    sub.add_argument("--memory", type=_memory_sizes,
                     default=[2, 4, 8, 16, 32],
                     help="comma list of memory sizes N")
    sub.add_argument("--mode", choices=["full", "truncated"],
                     default="truncated")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=["csv", "json"], default="csv")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for randomized suites, recorded in the output")


def _parse_target(text: str, d: int):
    if text == "reversal":
        return tuple(range(d - 1, -1, -1))
    if text.startswith("cycle:"):
        parts = text.split(":")
        direction = parts[2] if len(parts) > 2 else "forward"
        if parts[1] != str(d):
            raise SystemExit("only full cycles are supported via cycle:<d>")
        if direction == "forward":
            return (d - 1,) + tuple(range(d - 1))
        if direction == "backward":
            return tuple(range(1, d)) + (0,)
        raise SystemExit(f"target {text!r}: the cycle direction must be "
                         "forward|backward")
    if text.startswith("order:"):
        try:
            order = tuple(int(x) for x in text.split(":")[1].split(","))
        except ValueError:
            order = ()
        if sorted(order) != list(range(d)):
            raise SystemExit(f"target {text!r} is not an order of the "
                             f"levels 0..{d - 1}")
        return order
    raise SystemExit(f"cannot parse target {text!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="memtp",
        description="memory-assisted Markovian thermal process experiments")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("converge", help="distance to a cone vertex vs N")
    _add_common(p)
    p.add_argument("--target", default="reversal",
                   help="'reversal', 'cycle:<d>[:forward|backward]' or 'order:a,b,...'")

    p = subs.add_parser("work-extract", help="battery charging error vs N")
    _add_common(p)
    p.add_argument("--gap", type=float, default=1.0, help="system splitting")
    p.add_argument("--beta-source", type=float, default=2.0)
    p.add_argument("--w-min", type=float, default=-0.5)
    p.add_argument("--w-max", type=float, default=2.0)
    p.add_argument("--w-points", type=int, default=50)

    p = subs.add_parser("cool", help="two-level cooling with two-level memory")
    _add_common(p)

    p = subs.add_parser("inaccessible", help="convergence to the inaccessible state")
    _add_common(p)
    p.add_argument("--beta-factor", type=float, default=1.1)
    p.add_argument("--grid-sample", type=int, default=0,
                   help="sample this many random 4-level spectra instead")

    p = subs.add_parser("free-energy", help="per-step divergence trace")
    _add_common(p)
    p.add_argument("--levels", type=_level_pair, default=(0, 1))

    p = subs.add_parser("cone", help="export the future-cone vertices")
    _add_common(p)

    args = parser.parse_args(argv)
    cfg = {k: v for k, v in vars(args).items()
           if k not in ("command", "out", "format") and v is not None}

    if args.command == "converge":
        state = args.state or [0.37, 0.24, 0.16, 0.11, 0.07, 0.05]
        energies = args.energies or list(range(len(state)))
        rows = xp.converge_sweep(state, energies, args.beta,
                                 _parse_target(args.target, len(state)),
                                 args.memory, mode=args.mode)
        write_rows(args.out, rows, cfg, args.format)

    elif args.command == "work-extract":
        config = xp.WorkExtractionConfig(
            gap=args.gap, beta_source=args.beta_source, beta=args.beta,
            works=tuple(np.linspace(args.w_min, args.w_max, args.w_points)),
            memory_sizes=tuple(args.memory))
        result = xp.work_extraction(config)
        eps_to = {r["W"]: r["epsilon_to"] for r in result.reference}
        rows = [dict(r, epsilon_to=eps_to[r["W"]]) for r in result.rows]
        cfg["kink"] = result.kink
        cfg["monotone"] = result.monotone
        write_rows(args.out, rows, cfg, args.format)

    elif args.command == "cool":
        energies = args.energies or [1.0, 0.4]
        report = xp.cooling_demo(energies[0], energies[1], args.beta)
        rows = [{
            "q_engine_ground": report.q_engine[0],
            "q_engine_excited": report.q_engine[1],
            "q_closed_form_ground": report.q_closed_form[0],
            "q_closed_form_excited": report.q_closed_form[1],
            "distance_engine": report.distance_engine,
            "distance_closed_form": report.distance_closed_form,
        }]
        write_rows(args.out, rows, cfg, args.format)

    elif args.command == "inaccessible":
        if args.grid_sample:
            rng = np.random.default_rng(args.seed)
            rows = []
            for sample in range(args.grid_sample):
                e1, e2 = np.sort(rng.integers(1, 64, size=2) / 64.0)
                if e1 == e2:
                    e2 = e1 + 1.0 / 64.0
                res = xp.inaccessible_convergence(
                    [0.0, e1, e2, 1.0], args.beta_factor, args.memory)
                for r in res.rows:
                    rows.append(dict(r, sample=sample, e1=e1, e2=e2))
            write_rows(args.out, rows, cfg, args.format)
        else:
            dims = args.dims or [3, 4, 5, 6]
            rows = []
            for d in dims:
                energies = args.energies or list(range(d))
                res = xp.inaccessible_convergence(energies, args.beta_factor,
                                                  args.memory)
                for r in res.rows:
                    rows.append(dict(r, d=d, beta_crit=res.beta_crit))
            write_rows(args.out, rows, cfg, args.format)

    elif args.command == "free-energy":
        state = args.state or [0.7, 0.2, 0.1]
        energies = args.energies or list(range(len(state)))
        if not all(0 <= level < len(state) for level in args.levels):
            raise SystemExit(f"--levels {args.levels[0]},{args.levels[1]}: "
                             f"levels must lie in 0..{len(state) - 1}")
        N = args.memory[0]
        cfg["memory"] = [N]
        trace = xp.free_energy_trace(state, energies, args.beta,
                                     args.levels, N)
        cfg["monotone_joint"] = trace["monotone_joint"]
        write_rows(args.out, trace["rows"], cfg, args.format)

    elif args.command == "cone":
        state = distribution(args.state or [0.7, 0.2, 0.1])
        energies = args.energies or list(range(len(state)))
        if len(energies) != len(state):
            raise SystemExit(f"--energies has {len(energies)} levels but "
                             f"--state has {len(state)}")
        gamma = gibbs_state(energies, args.beta)
        if not np.all(gamma > 0.0):
            raise SystemExit(f"--beta {args.beta}: the Gibbs weights of "
                             f"levels {np.flatnonzero(gamma == 0.0).tolist()} "
                             "underflow to 0")
        try:
            payload = xp.cone_export(state, gamma)
        except CapacityError as exc:
            raise SystemExit(f"--state: {exc}") from None
        rows = [{"order": v["order"], "state": v["state"]}
                for v in payload["vertices"]]
        write_rows(args.out, rows, cfg, args.format)

    return 0


if __name__ == "__main__":
    sys.exit(main())
