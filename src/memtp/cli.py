"""Command-line drivers for the experiment scenarios.

Subcommands: converge, work-extract, cool, inaccessible, free-energy,
cone. Each takes only the options it reads (``COMMANDS``, drawn from the
one table ``OPTIONS``), and those options head its output as the config.
Results are written as CSV (default) or JSON, to --out or stdout. An input
the library rejects ends the run with exit status 1 and one line.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import experiments as xp
from .export import write_rows
from .states import gibbs_state


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


def _memory_size(text: str) -> int:
    (N,) = _memory_sizes(text)  # argparse reports a list as invalid
    return N


def _gap_pair(text: str) -> list[float]:
    gaps = _floats(text)
    if len(gaps) != 2:
        raise argparse.ArgumentTypeError("give two gaps E_S,E_M")
    return gaps


def _level_pair(text: str) -> tuple[int, int]:
    levels = tuple(_ints(text))
    if len(levels) != 2 or levels[0] == levels[1]:
        raise argparse.ArgumentTypeError("give two distinct levels i,j")
    return levels


# Every option of every subcommand: flag -> argparse keywords.
OPTIONS = {
    "--beta": dict(type=float, default=0.0, help="bath inverse temperature"),
    "--dims": dict(type=_ints, help="comma list of system dimensions"),
    "--state": dict(type=_floats, default=[0.7, 0.2, 0.1],
                    help="comma list of initial populations"),
    "--energies": dict(type=_floats, help="comma list of energy levels"),
    "--memory": dict(type=_memory_sizes, default=[2, 4, 8, 16, 32],
                     help="comma list of memory sizes N"),
    "--mode": dict(choices=["full", "truncated"], default="truncated"),
    "--target": dict(default="reversal", help="'reversal', "
                     "'cycle:<d>[:forward|backward]' or 'order:a,b,...'"),
    "--gap": dict(type=float, default=1.0, help="system splitting"),
    "--beta-source": dict(type=float, default=2.0),
    "--w-min": dict(type=float, default=-0.5),
    "--w-max": dict(type=float, default=2.0),
    "--w-points": dict(type=int, default=50),
    "--beta-factor": dict(type=float, default=1.1),
    "--grid-sample": dict(type=int, default=0,
                          help="sample this many random 4-level spectra"),
    "--seed": dict(type=int, default=0, help="seed of --grid-sample"),
    "--levels": dict(type=_level_pair, default=(0, 1)),
    "--out": dict(help="output path (default stdout)"),
    "--format": dict(choices=["csv", "json"], default="csv"),
}

# subcommand -> (help, the options it reads besides --out and --format)
COMMANDS = {
    "converge": ("distance to a cone vertex vs N", ("--beta", "--state",
                 "--energies", "--memory", "--mode", "--target")),
    "work-extract": ("battery charging error vs N", ("--beta", "--memory",
                     "--gap", "--beta-source", "--w-min", "--w-max",
                     "--w-points")),
    "cool": ("two-level cooling with two-level memory",
             ("--beta", "--energies")),
    "inaccessible": ("convergence to the inaccessible state", ("--dims",
                     "--energies", "--memory", "--beta-factor",
                     "--grid-sample", "--seed")),
    "free-energy": ("per-step divergence trace", ("--beta", "--state",
                    "--energies", "--memory", "--levels")),
    "cone": ("export the future-cone vertices",
             ("--beta", "--state", "--energies")),
}

# (subcommand, flag) -> keywords that replace the table's there
OVERRIDES = {
    ("converge", "--state"): dict(default=[0.37, 0.24, 0.16, 0.11, 0.07,
                                           0.05]),
    ("work-extract", "--beta"): dict(default=1.0),
    ("cool", "--energies"): dict(type=_gap_pair, default=[1.0, 0.4],
                                 help="system and memory gaps E_S,E_M"),
    ("free-energy", "--memory"): dict(type=_memory_size, default=2,
                                      help="memory size N"),
}


def _parse_target(text: str, d: int):
    if text == "reversal":
        return tuple(range(d - 1, -1, -1))
    if text.startswith("cycle:"):
        parts = text.split(":")
        direction = parts[2] if len(parts) > 2 else "forward"
        if parts[1] != str(d):
            raise ValueError("only full cycles are supported via cycle:<d>")
        if direction == "forward":
            return (d - 1,) + tuple(range(d - 1))
        if direction == "backward":
            return tuple(range(1, d)) + (0,)
        raise ValueError(f"target {text!r}: the cycle direction must be "
                         "forward|backward")
    if text.startswith("order:"):
        try:
            order = tuple(int(x) for x in text.split(":")[1].split(","))
        except ValueError:
            order = ()
        if sorted(order) != list(range(d)):
            raise ValueError(f"target {text!r} is not an order of the "
                             f"levels 0..{d - 1}")
        return order
    raise ValueError(f"cannot parse target {text!r}")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memtp",
        description="memory-assisted Markovian thermal process experiments")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in COMMANDS.items():
        # no prefixes: inaccessible --beta must not mean --beta-factor
        sub = subs.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in (*flags, "--out", "--format"):
            sub.add_argument(flag, **{**OPTIONS[flag],
                                      **OVERRIDES.get((name, flag), {})})
    return parser


def _run(args, cfg: dict) -> list[dict]:
    """Rows of one subcommand run; results beyond the rows go into cfg."""
    if args.command == "converge":
        energies = args.energies or list(range(len(args.state)))
        return xp.converge_sweep(args.state, energies, args.beta,
                                 _parse_target(args.target, len(args.state)),
                                 args.memory, mode=args.mode)

    if args.command == "work-extract":
        config = xp.WorkExtractionConfig(
            gap=args.gap, beta_source=args.beta_source, beta=args.beta,
            works=tuple(np.linspace(args.w_min, args.w_max, args.w_points)),
            memory_sizes=tuple(args.memory))
        result = xp.work_extraction(config)
        eps_to = {r["W"]: r["epsilon_to"] for r in result.reference}
        cfg["kink"] = result.kink
        cfg["monotone"] = result.monotone
        return [dict(r, epsilon_to=eps_to[r["W"]]) for r in result.rows]

    if args.command == "cool":
        report = xp.cooling_demo(*args.energies, args.beta)
        return [{
            "q_engine_ground": report.q_engine[0],
            "q_engine_excited": report.q_engine[1],
            "q_closed_form_ground": report.q_closed_form[0],
            "q_closed_form_excited": report.q_closed_form[1],
            "distance_engine": report.distance_engine,
            "distance_closed_form": report.distance_closed_form,
        }]

    if args.command == "inaccessible":
        if args.grid_sample and (args.dims or args.energies):
            raise ValueError("--grid-sample draws its own 4-level spectra "
                             "and takes neither --dims nor --energies")
        dims = args.dims or ([len(args.energies)] if args.energies
                             else [3, 4, 5, 6])
        if args.energies and set(dims) != {len(args.energies)}:
            raise ValueError(f"--energies gives {len(args.energies)} levels "
                             f"but --dims asks for {dims}")
        rows = []
        if args.grid_sample:
            rng = np.random.default_rng(args.seed)
            for sample in range(args.grid_sample):
                e1, e2 = np.sort(rng.integers(1, 64, size=2) / 64.0)
                if e1 == e2:
                    e2 = e1 + 1.0 / 64.0
                res = xp.inaccessible_convergence(
                    [0.0, e1, e2, 1.0], args.beta_factor, args.memory)
                rows += [dict(r, sample=sample, e1=e1, e2=e2)
                         for r in res.rows]
        else:
            for d in dims:
                energies = args.energies or list(range(d))
                res = xp.inaccessible_convergence(energies, args.beta_factor,
                                                  args.memory)
                rows += [dict(r, d=d, beta_crit=res.beta_crit)
                         for r in res.rows]
        return rows

    if args.command == "free-energy":
        energies = args.energies or list(range(len(args.state)))
        trace = xp.free_energy_trace(args.state, energies, args.beta,
                                     args.levels, args.memory)
        cfg["monotone_joint"] = trace["monotone_joint"]
        return trace["rows"]

    # cone
    energies = args.energies or list(range(len(args.state)))
    gamma = gibbs_state(energies, args.beta)
    return xp.cone_export(args.state, gamma)["vertices"]


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    cfg = {k: v for k, v in vars(args).items()
           if k not in ("command", "out", "format") and v is not None}
    try:
        write_rows(args.out, _run(args, cfg), cfg, args.format)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"memtp {args.command}: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
