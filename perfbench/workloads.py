"""The benchmark workloads: seeded op blocks, the op calls and their oracles.

Two workloads: ``converge`` exercises the engine kernel, ``scenarios``
mixes the three Python-bound scenario runners (work extraction, recorded
free-energy traces, cone export) so that each block spends about a third of
its time in each.

A workload is an endless sequence of blocks. Every block of a workload holds
the same multiset of op shapes (target, memory size N, dimension d, work
stratum), so each block runs the same amount of work; the seed varies the
physical inputs (states, inverse temperatures, spectra, W inside its
stratum) and the op order inside the block. A run that ends on a block
boundary therefore measures the mix, not the luck of one seed. The cost of
a d = 6 cone op follows its vertex count, which falls with beta (about 720
vertices near beta = 0.2, about 250 near 1.5), so the d = 6 op of block k
draws beta from stratum k mod 4 of its range and every four blocks cover
the range evenly. Op costs within a block are spread over many sizes
rather than a few: on a host whose speed alternates between fast and slow
phases, a percentile that falls inside one size class jumps between the
two phases.

Every op kind has a ``call`` (one public API call as the runners and the
CLI make it, plus the CSV serialisation the CLI does for runner output) and
a ``check`` against an oracle. ``check`` raises ``CheckFailed`` on a wrong
output and returns a dict of diagnostics otherwise; it runs after the timed
call, so op times hold only the program's work.

Composed runs on d > 2 are checked against oracles that do not go through
the engine: one-swap sweep cells against ``closed_forms.final_state``, and
sweep cells at N <= STEPWISE_MAX_N and every graded composed run against
``stepwise_composed``, a plain per-step executor written here. The other
sweep cells are too large for it and are recomputed through the engine,
which only shows that the output is a distribution inside the future cone.

Every memtp function is reached through its module attribute
(``experiments.converge_sweep``, not a local name), so the tracer's
module-level wrappers see the calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from memtp import closed_forms, cones, engine, experiments, export, states

CHECK_TOL = 1e-12          # recomputed and recorded-vs-unrecorded outputs
ORACLE_TOL = 1e-10         # engine vs closed forms or stepwise (acceptance 2)
MONOTONE_TOL = 1e-10       # epsilon in N and joint divergence in steps


class CheckFailed(AssertionError):
    """An op's output disagrees with its oracle."""


@dataclass(frozen=True)
class Op:
    """One seeded op: ``kind`` names an entry of ``KINDS``."""

    kind: str
    inputs: dict


@dataclass(frozen=True)
class Kind:
    call: Callable[..., object]
    check: Callable[..., dict]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _thermo_ordered_state(rng, gamma) -> np.ndarray:
    """A full-rank state whose beta-order is the identity order."""
    ratios = np.sort(rng.uniform(0.05, 1.0, gamma.size))[::-1]
    p = ratios * gamma
    return p / p.sum()


def _inversions(order) -> int:
    o = order.order
    return sum(1 for a in range(len(o)) for b in range(a + 1, len(o))
               if o[a] > o[b])


def stepwise_composed(state, gamma, chain, memory_gamma) -> np.ndarray:
    """System marginal of the truncated default-family composed protocol,
    one two-level thermalisation at a time in plain Python floats.

    Independent of ``memtp.engine``: the joint state is a list of rows, one
    per system level, of N memory entries. For each swap (i, j) the column
    loop keeps entry (i, s) active against (j, 0..N-1); the memory is
    discarded once, at the end.
    """
    N = len(memory_gamma)
    mem = [float(m) for m in memory_gamma]
    rows = [[float(pk) * m for m in mem] for pk in state]
    uniform = max(mem) == min(mem)
    for i, j in chain:
        act, part = rows[i], rows[j]
        gi, gj = float(gamma[i]), float(gamma[j])
        for s in range(N):
            x = act[s]
            if uniform:
                r = gi / (gi + gj)
                for k in range(N):
                    t = x + part[k]
                    x = r * t
                    part[k] = t - x
            else:
                ga = gi * mem[s]
                for k in range(N):
                    t = x + part[k]
                    x = ga / (ga + gj * mem[k]) * t
                    part[k] = t - x
            act[s] = x
    return np.array([math.fsum(row) for row in rows])


def _require_close(q, ref, what) -> float:
    err = float(np.abs(np.asarray(q) - ref).max())
    _require(err <= ORACLE_TOL, f"{what} oracle error {err:.3e}")
    return err


def _require_in_cone(state, q, gamma) -> None:
    _require(abs(q.sum() - 1.0) <= CHECK_TOL and q.min() >= 0.0,
             "output is not a distribution")
    _require(states.thermomajorizes(state, q, gamma),
             "output not thermomajorised by the input")


# ---------------------------------------------------------------------------
# converge: sweep cells, graded composed runs and two-level swaps
# ---------------------------------------------------------------------------

E6 = np.arange(6.0)
E3 = np.arange(3.0)
E2 = np.array([0.0, 1.0])
CONVERGE_BETAS = (0.0, 0.1, 0.5)
# the 15 cycle-family targets of d = 6 need 1..15 neighbour swaps from the
# identity order; longer chains run at smaller N so that no cell costs more
# than a few per cent of the block: s = 1-3 at N = 1024, 4-7 at 512, 8-11 at
# 256 and 12-15 at 128. Cells up to STEPWISE_MAX_N get the
# per-step oracle (about 0.9 million Python steps per block)
TARGETS = sorted((o for _, _, o in experiments.cycle_family_orders(6)),
                 key=_inversions)
SWEEP_N = (1024,) * 3 + (512,) * 4 + (256,) * 4 + (128,) * 4
COMPOSED_N = (32, 48, 64, 96, 128)
FULL_N = (256, 512, 1024, 1536, 2048)
STEPWISE_MAX_N = 128


def _converge_block(rng, k) -> list[Op]:
    ops = []
    for s, target in enumerate(TARGETS, start=1):
        beta = float(rng.choice(CONVERGE_BETAS))
        p = _thermo_ordered_state(rng, states.gibbs_state(E6, beta))
        ops.append(Op("sweep", dict(state=p, beta=beta, target=target,
                                    N=SWEEP_N[s - 1])))
    for N in COMPOSED_N:
        beta = float(rng.choice(CONVERGE_BETAS[1:]))   # graded needs beta > 0
        ops.append(Op("composed", dict(
            state=rng.dirichlet(np.ones(3)), beta=beta, N=N,
            gamma=states.gibbs_state(E3, beta),
            memory_spectrum=np.linspace(0.0, 1.0, N))))
    for N in FULL_N:
        b = float(rng.uniform(0.05, 0.95))
        beta = float(rng.choice(CONVERGE_BETAS))
        ops.append(Op("full", dict(state=np.array([b, 1.0 - b]), beta=beta,
                                   N=N, gamma=states.gibbs_state(E2, beta))))
    return ops


def _sweep_call(state, beta, target, N):
    rows = experiments.converge_sweep(state, E6, beta, target, [N])
    export.rows_to_csv(rows, {"state": state, "energies": E6, "beta": beta,
                              "target": list(target.order), "memory": [N]})
    return rows


def _sweep_check(out, state, beta, target, N):
    """Recompute the cell's output state and compare the reported delta."""
    _require(len(out) == 1 and out[0]["N"] == N, "sweep rows malformed")
    delta = out[0]["delta"]
    _require(math.isfinite(delta), "delta not finite")
    g = states.gibbs_state(E6, beta)
    vertex = cones.extreme_point(state, g, target)
    chain = cones.decompose_neighbour_transpositions(state, g, vertex.order)
    if len(chain) == 1:
        (i, j), = chain
        q = state.copy()
        q[[i, j]] = closed_forms.final_state(
            N, closed_forms.PairGibbsFactors.from_gibbs(g, i, j),
            state[i], state[j])
        tol, what = ORACLE_TOL, "closed-form"
    elif N <= STEPWISE_MAX_N:
        q = stepwise_composed(state, g, chain, np.full(N, 1.0 / N))
        tol, what = ORACLE_TOL, "stepwise"
    else:
        q = engine.run_composed(state, E6, beta, chain, N)
        _require_in_cone(state, q, g)
        tol, what = CHECK_TOL, "recomputed"
    err = abs(states.total_variation(q, vertex.state) - delta)
    _require(err <= tol, f"delta differs from the {what} cell by {err:.3e}")
    return {"oracle_err": err} if what == "closed-form" else {}


def _composed_call(state, beta, N, gamma, memory_spectrum):
    reverse = states.beta_order(state, gamma).order[::-1]
    chain = cones.decompose_neighbour_transpositions(state, gamma, reverse)
    return engine.run_composed(state, E3, beta, chain, N,
                               memory_spectrum=memory_spectrum)


def _composed_check(out, state, beta, N, gamma, memory_spectrum):
    _require_in_cone(state, out, gamma)
    reverse = states.beta_order(state, gamma).order[::-1]
    chain = cones.decompose_neighbour_transpositions(state, gamma, reverse)
    ref = stepwise_composed(state, gamma, chain,
                            states.gibbs_state(memory_spectrum, beta))
    _require_close(out, ref, "stepwise")
    return {}


def _full_call(state, beta, N, gamma):
    return engine.run_full_swap(state, E2, beta, (0, 1), N)


def _full_check(out, state, beta, N, gamma):
    pair = closed_forms.PairGibbsFactors.from_gibbs(gamma, 0, 1)
    ref = closed_forms.final_state(N, pair, state[0], state[1])
    return {"oracle_err": _require_close(out, ref, "closed-form")}


# ---------------------------------------------------------------------------
# work extraction: one W per sixth of [-0.5, 2]
# ---------------------------------------------------------------------------

W_STRATA = np.linspace(-0.5, 2.0, 7)
WORK_N = (1, 2, 4, 8, 16, 32, 64)


def _work_block(rng) -> list[Op]:
    return [Op("work", dict(W=float(rng.uniform(lo, hi))))
            for lo, hi in zip(W_STRATA[:-1], W_STRATA[1:])]


def _work_call(W):
    config = experiments.WorkExtractionConfig(
        gap=1.0, beta_source=2.0, beta=1.0, works=(W,), memory_sizes=WORK_N)
    result = experiments.work_extraction(config)
    eps_to = {r["W"]: r["epsilon_to"] for r in result.reference}
    rows = [dict(r, epsilon_to=eps_to[r["W"]]) for r in result.rows]
    export.rows_to_csv(rows, {"w": W, "memory": list(WORK_N),
                              "kink": result.kink,
                              "monotone": result.monotone})
    return result


def _work_check(out, W):
    """Acceptance 11's invariants: monotone in N and never below epsilon_to."""
    eps = [r["epsilon"] for r in out.rows]
    _require(len(eps) == len(WORK_N), "one row per memory size expected")
    _require(all(b <= a + MONOTONE_TOL for a, b in zip(eps, eps[1:])),
             "epsilon not monotone in N")
    eps_to = out.reference[0]["epsilon_to"]
    _require(all(0.0 <= e <= 1.0 and e >= eps_to - MONOTONE_TOL for e in eps),
             "epsilon below the optimal epsilon_to")
    return {}


# ---------------------------------------------------------------------------
# recorded free-energy traces, each size twice
# ---------------------------------------------------------------------------

TRACE_N = (16, 20, 24, 28, 32) * 2
LEVEL_PAIRS = ((0, 1), (0, 2), (1, 2))


def _trace_block(rng) -> list[Op]:
    return [Op("trace", dict(state=rng.dirichlet(np.ones(3)),
                             beta=float(rng.uniform(0.0, 2.0)),
                             levels=LEVEL_PAIRS[rng.integers(3)], N=N))
            for N in TRACE_N]


def _trace_call(state, beta, levels, N):
    trace = experiments.free_energy_trace(state, E3, beta, levels, N)
    export.rows_to_csv(trace["rows"], {"state": state, "beta": beta,
                                       "levels": list(levels), "memory": [N],
                                       "monotone_joint":
                                           trace["monotone_joint"]})
    return trace


def _trace_check(out, state, beta, levels, N):
    d_sm = np.array([r["D_SM"] for r in out["rows"]])
    _require(out["monotone_joint"] and np.all(np.diff(d_sm) <= MONOTONE_TOL),
             "joint divergence increased")
    q = engine.run_full_swap(state, E3, beta, levels, N)
    _require(np.abs(out["final_state"] - q).max() <= CHECK_TOL,
             "recorded final state differs from the unrecorded run")
    return {}


# ---------------------------------------------------------------------------
# future-cone vertices at d = 4, 4, 5, 5, 6
# ---------------------------------------------------------------------------

CONE_D = (4, 4, 5, 5, 6)
CONE_BETA = (0.2, 1.5)
# the d = 6 op's beta stratum cycles with the block index
CONE_BETA_STRATA = np.linspace(*CONE_BETA, 5)


def _cone_block(rng, k) -> list[Op]:
    ops = []
    for d in CONE_D:
        energies = np.sort(rng.uniform(0.0, d, d))
        if d == 6:
            lo, hi = CONE_BETA_STRATA[k % 4], CONE_BETA_STRATA[k % 4 + 1]
        else:
            lo, hi = CONE_BETA
        gamma = states.gibbs_state(energies, float(rng.uniform(lo, hi)))
        ops.append(Op("cone", dict(state=rng.dirichlet(np.ones(d)),
                                   gamma=gamma)))
    return ops


def _cone_call(state, gamma):
    payload = experiments.cone_export(state, gamma)
    rows = [{"order": v["order"], "state": v["state"]}
            for v in payload["vertices"]]
    export.rows_to_csv(rows, {"state": state, "gamma": gamma})
    return payload


def _cone_check(out, state, gamma):
    """Acceptance 14's soundness: every vertex is dominated by the source."""
    verts = [np.array(v["state"]) for v in out["vertices"]]
    _require(1 <= len(verts) <= math.factorial(state.size),
             "vertex count outside 1..d!")
    for v in verts:
        _require(v.min() >= 0.0 and abs(v.sum() - 1.0) <= CHECK_TOL,
                 "vertex is not a distribution")
        _require(states.thermomajorizes(state, v, gamma),
                 "vertex not thermomajorised by the source")
    return {}


KINDS = {
    "sweep": Kind(_sweep_call, _sweep_check),
    "composed": Kind(_composed_call, _composed_check),
    "full": Kind(_full_call, _full_check),
    "work": Kind(_work_call, _work_check),
    "trace": Kind(_trace_call, _trace_check),
    "cone": Kind(_cone_call, _cone_check),
}


def _scenario_block(rng, k) -> list[Op]:
    return _work_block(rng) + _trace_block(rng) + _cone_block(rng, k)


_BLOCKS = {
    "converge": _converge_block,
    "scenarios": _scenario_block,
}
WORKLOADS = tuple(_BLOCKS)


def block(workload: str, seed: int, k: int) -> list[Op]:
    """Block k of a workload; the same (workload, seed, k) gives the same ops."""
    rng = np.random.default_rng([seed, k])
    ops = _BLOCKS[workload](rng, k)
    return [ops[i] for i in rng.permutation(len(ops))]

