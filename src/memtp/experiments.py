"""Scenario runners: convergence sweeps and the application experiments.

Each runner executes one of the package's headline numerical experiments
at desk scale and returns plain rows (lists of dicts) ready for CSV/JSON
export: convergence of composed protocols to future-cone vertices, work
extraction with a memory-extended battery system, cooling with a two-level
memory carrying a nontrivial spectrum, convergence to states that
two-level system control alone cannot reach, and free-energy traces along
a protocol run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import PairGibbsFactors
from .cones import (decompose_neighbour_transpositions, extreme_point,
                    future_cone_vertices)
from .engine import (TrajectoryRecorder, run_composed, run_full_swap,
                     thermalize_memory, two_level_thermalize)
from .rates import RateSingularityError, predict_delta
from .states import (BetaOrder, beta_order, curve_eval, distribution,
                     gibbs_state, joint_gibbs, marginalize, spectrum, tensor,
                     thermo_curve, total_variation)

__all__ = [
    "converge_sweep",
    "nested_cycle_order", "cycle_family_orders",
    "min_epsilon_transform",
    "WorkExtractionConfig", "WorkExtractionResult", "work_extraction",
    "CoolingReport", "cooling_demo", "cooling_closed_form",
    "InaccessibleResult", "inaccessible_convergence", "critical_beta",
    "inaccessible_target",
    "free_energy_trace", "cone_export",
]


# ---------------------------------------------------------------------------
# convergence sweeps
# ---------------------------------------------------------------------------

def nested_cycle_order(d: int, cycles: int, extra_swaps: int = 0) -> BetaOrder:
    """Target order of nested cycle compositions applied to the identity.

    Applies ``cycles`` full cycles, the c-th acting on beta-positions c..d
    and bringing its last level to the front, then bubbles the final level
    of the next block up by ``extra_swaps`` positions. ``cycles = d - 1``
    (or equivalently d-2 cycles plus one swap) fully reverses the order.
    """
    if not (0 <= cycles <= d - 1):
        raise ValueError("cycle count must lie in 0..d-1")
    order = list(range(d))
    for c in range(cycles):
        block = order[c:]
        order = order[:c] + [block[-1]] + block[:-1]
    if extra_swaps:
        c = cycles
        block = order[c:]
        if not (1 <= extra_swaps <= len(block) - 1):
            raise ValueError("extra swap count outside the remaining block")
        pos = len(block) - 1 - extra_swaps
        block = block[:pos] + [block[-1]] + block[pos:-1]
        order = order[:c] + block
    return BetaOrder(tuple(order))


def cycle_family_orders(d: int) -> list[tuple[int, int, BetaOrder]]:
    """The d(d-1)/2 partial nested-cycle targets (i full cycles - 1, j swaps)."""
    out = []
    for i in range(1, d):
        for j in range(1, d - i + 1):
            out.append((i, j, nested_cycle_order(d, i - 1, j)))
    return out


def _attach_prediction(p, gamma, beta, chain, N):
    """Model prediction for a composed run, NaN where no closed model exists."""
    if beta == 0.0:
        return predict_delta("chain_beta0", N, p=p, chain=chain)
    if len(chain) == 1:
        i, j = chain[0]
        pair = PairGibbsFactors.from_gibbs(gamma, i, j)
        try:
            return predict_delta("swap_exponential", N, p=(p[i], p[j]), pair=pair)
        except RateSingularityError:
            return predict_delta("chain_beta0", N, p=p, chain=chain)
    return float("nan")


def converge_sweep(state, energies, beta, target_order, memory_sizes, *,
                   mode: str = "truncated") -> list[dict]:
    """Distance to a future-cone vertex as a function of memory size.

    For every N in ``memory_sizes`` (strictly increasing, else
    ``ValueError``), runs the composed protocol along the neighbour chain
    towards the vertex labelled by ``target_order`` and measures the total
    variation distance to it; a rate-model prediction is attached where
    one exists. ``gibbs_state`` rejects a negative ``beta``.
    """
    if any(b <= a for a, b in zip(memory_sizes, memory_sizes[1:])):
        raise ValueError("memory sizes must be strictly increasing")
    p = distribution(state)
    E = spectrum(energies)
    g = gibbs_state(E, beta)
    target = extreme_point(p, g, target_order)
    chain = decompose_neighbour_transpositions(p, g, target.order)

    rows = []
    for N in memory_sizes:
        q = run_composed(p, E, beta, chain, N, mode=mode)
        rows.append({
            "N": int(N),
            "delta": total_variation(q, target.state),
            "delta_predicted": _attach_prediction(p, g, beta, chain, N),
        })
    return rows


# ---------------------------------------------------------------------------
# work extraction
# ---------------------------------------------------------------------------

def min_epsilon_transform(source, system_gamma, battery_gamma) -> float:
    """Smallest failure probability for reaching gamma_S x (eps, 1 - eps).

    For eps below the battery ground weight the target's thermomajorisation
    curve has a single elbow, at x = gamma_B[1] with height 1 - eps; the
    source curve L is concave, so it lies above the target curve exactly
    when it does at that elbow. The minimum is therefore
    max(0, 1 - L(gamma_B[1])), relative to the joint thermal state
    gamma_S x gamma_B.
    """
    src = distribution(source)
    gs = distribution(system_gamma)
    gb = distribution(battery_gamma)
    if gb.size != 2:
        raise ValueError("battery must be two-level")
    if src.size != 2 * gs.size:
        raise ValueError("source must live on the system x battery space")
    curve = thermo_curve(src, np.kron(gs, gb))
    return max(0.0, 1.0 - curve_eval(curve, gb[1]))


@dataclass(frozen=True)
class WorkExtractionConfig:
    """Two-level system with gap ``gap``, colder than the bath, charging a
    two-level battery by W per grid point. Needs beta > 0."""

    gap: float
    beta_source: float
    beta: float
    works: tuple[float, ...]
    memory_sizes: tuple[int, ...]

    def __post_init__(self):
        if self.gap <= 0:
            raise ValueError("system gap must be positive")
        if not self.beta > 0:
            raise ValueError("beta must be positive: the kink "
                             "log(1 + exp(-beta * gap)) / beta diverges at "
                             "beta = 0")
        if not all(map(math.isfinite, self.works)):
            raise ValueError("work grid must be finite")


@dataclass(frozen=True)
class WorkExtractionResult:
    rows: list[dict]            # per (W, N): epsilon
    reference: list[dict]       # per W: epsilon_to and the vertex order used
    kink: float
    monotone: bool              # epsilon non-increasing in N at every W


def work_extraction(config: WorkExtractionConfig) -> WorkExtractionResult:
    """Failure probability of battery charging versus memory size.

    For each W the joint system-battery state p starts as gamma(beta_source)
    x (1, 0). The reference error epsilon_to is ``min_epsilon_transform``
    of p itself: every state reachable through a future-cone vertex is
    reachable from p directly, so no vertex enumeration is needed. The
    memory-N error runs the truncated protocol towards the vertex sharing
    the optimal target's beta-order before reading off the smallest
    feasible epsilon from the output.
    """
    E_s = np.array([0.0, config.gap])
    gS = gibbs_state(E_s, config.beta)
    p_sys = gibbs_state(E_s, config.beta_source)

    rows, reference = [], []
    for W in config.works:
        E_b = np.array([0.0, W])
        E_joint = (E_s[:, None] + E_b[None, :]).ravel()
        gB = gibbs_state(E_b, config.beta)
        g_joint = gibbs_state(E_joint, config.beta)
        p_joint = np.kron(p_sys, [1.0, 0.0])
        eps_to = min_epsilon_transform(p_joint, gS, gB)
        # several vertices can raw-dominate the optimal target; the one in
        # the target's own chamber is the intermediate point from which the
        # remaining transformation is certified memoryless. Its ratios to
        # g_joint depend on the battery level only; ranking these exact
        # ratios breaks the ties by level index, not by rounding
        ratios = np.kron(np.ones(gS.size),
                         [eps_to / gB[0], (1.0 - eps_to) / gB[1]])
        best_order = beta_order(ratios, np.ones(ratios.size))
        chain = decompose_neighbour_transpositions(p_joint, g_joint, best_order)
        for N in config.memory_sizes:
            q = run_composed(p_joint, E_joint, config.beta, chain, N,
                             mode="truncated")
            rows.append({"W": W, "N": int(N),
                         "epsilon": min_epsilon_transform(q, gS, gB)})
        reference.append({"W": W, "epsilon_to": eps_to,
                          "vertex_order": list(best_order.order)})

    monotone = True
    for ref in reference:
        eps_w = [r["epsilon"] for r in rows if r["W"] == ref["W"]]
        monotone &= all(b <= a + 1e-10 for a, b in zip(eps_w, eps_w[1:]))
    kink = math.log(1.0 + math.exp(-config.beta * config.gap)) / config.beta
    return WorkExtractionResult(rows, reference, kink, monotone)


# ---------------------------------------------------------------------------
# cooling with a nontrivial two-level memory
# ---------------------------------------------------------------------------

def cooling_closed_form(e_system: float, e_memory: float,
                        beta: float) -> tuple[np.ndarray, float]:
    """Final system state of the cooling protocol and its distance to thermal.

    Closed forms for the excited two-level system swapped through a
    two-level memory with gap ``e_memory``; the distance is the 1-norm to
    the ambient thermal state. Sums of exponentials are taken in log form.
    """
    a, b = beta * e_system, beta * e_memory
    lse = np.logaddexp
    log_q1 = (lse.reduce([b, b + a, 2 * b + a, b + 2 * a, a])
              - lse(a, 0.0) - lse(b - a, 0.0) - lse(b + a, 0.0))
    log_q2 = (lse.reduce([b, 2 * b + a, a])
              - lse(a, 0.0) - lse(b, a) - lse(b + a, 0.0))
    # log(cosh x) = logaddexp(x, -x) - log 2
    log_cosh_sum = lse(lse(b, -b), lse(a, -a)) - math.log(2.0)
    dist = math.exp(-lse(-a, 0.0) - log_cosh_sum)
    return np.exp([log_q1, log_q2]), dist


# joint level pairs addressable through the four distinct gaps; indices are
# 0=|00>, 1=|01>, 2=|10>, 3=|11> with the system flipping first
COOLING_OPS = {
    1: ((1, 2),),            # gap E_S - E_M
    2: ((0, 3),),            # gap E_S + E_M
    3: ((0, 2), (1, 3)),     # gap E_S, both pairs
    4: ((0, 1), (2, 3)),     # gap E_M, both pairs
}
# op 2 and op 3 must run in swapped order relative to their gap labels:
# interleaving the single cross pairs with the same-gap pairs is what makes
# the sequence act as the N = 2 memory-assisted swap (applying 1, 2 first
# fully mixes all four levels and loses the advantage)
COOLING_SEQUENCE = (1, 3, 2, 4)


@dataclass(frozen=True)
class CoolingReport:
    q_engine: np.ndarray
    q_closed_form: np.ndarray
    distance_engine: float
    distance_closed_form: float
    gamma_system: np.ndarray


def cooling_demo(e_system: float, e_memory: float,
                 beta: float) -> CoolingReport:
    """Cool an excited two-level system below ambient with a two-level memory.

    The memory gap must allow selective coupling (E_S - E_M != E_M) and
    both gaps must be positive. The four addressable couplings are applied
    in ``COOLING_SEQUENCE`` (same-gap pairs sequentially, lower pair first),
    the memory is discarded, and the result is compared against the closed
    forms.
    """
    if e_system <= 0 or e_memory <= 0:
        raise ValueError("both gaps must be positive")
    if abs((e_system - e_memory) - e_memory) < 1e-12:
        raise ValueError("selective coupling requires E_S - E_M != E_M")
    g_mem = gibbs_state([0.0, e_memory], beta)
    joint = tensor([0.0, 1.0], g_mem, [0.0, e_system], [0.0, e_memory])
    g_joint = joint_gibbs(joint, beta)
    probs = joint.probs
    for op in COOLING_SEQUENCE:
        for (a, b) in COOLING_OPS[op]:
            probs = two_level_thermalize(probs, g_joint, a, b)
    joint = thermalize_memory(joint.replace_probs(probs), beta)
    q_engine = marginalize(joint, "system")
    gamma_s = gibbs_state([0.0, e_system], beta)
    q_cf, dist_cf = cooling_closed_form(e_system, e_memory, beta)
    return CoolingReport(
        q_engine=q_engine,
        q_closed_form=q_cf,
        distance_engine=float(np.abs(q_engine - gamma_s).sum()),
        distance_closed_form=dist_cf,
        gamma_system=gamma_s,
    )


# ---------------------------------------------------------------------------
# states inaccessible to two-level system control
# ---------------------------------------------------------------------------

def critical_beta(energies) -> float:
    """Inverse temperature where the inaccessible target's first entry hits 0.

    Root of 1 - sum_{i >= 2} exp(-beta E_i), found by bisection; raises if
    no bracket exists (spectrum too small or degenerate).
    """
    from scipy.optimize import bisect

    E = spectrum(energies)
    if E.size < 3:
        raise ValueError("need at least three levels")
    tail = E[1:]

    def f(b):
        return 1.0 - np.exp(-b * tail).sum()

    lo = 1e-12
    if f(lo) >= 0.0:
        raise ValueError("critical beta not bracketed from below")
    hi = 1.0
    while f(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise ValueError("critical beta not bracketed from above")
    return float(bisect(f, lo, hi, xtol=1e-14))


def inaccessible_target(energies, beta: float) -> np.ndarray:
    """The final state unreachable by system-only two-level operations."""
    E = spectrum(energies)
    if np.any(np.diff(E) < 0):
        raise ValueError("energies must be non-decreasing")
    tail = np.exp(-beta * E[1:])
    head = 1.0 - tail.sum()
    if head < -1e-12:
        raise ValueError("beta below critical: target is not a distribution")
    return distribution(np.concatenate([[max(head, 0.0)], tail]))


@dataclass(frozen=True)
class InaccessibleResult:
    rows: list[dict]
    beta: float
    beta_crit: float
    monotone: bool
    n0: int | None        # first N from which delta <= 1/(2 sqrt(N)) onward


def inaccessible_convergence(energies, beta_factor: float, memory_sizes,
                             beta: float | None = None) -> InaccessibleResult:
    """Convergence from the ground state to the inaccessible target.

    Works at beta = beta_factor * beta_crit, or at an explicit ``beta``
    when given (it must stay above critical so the target remains a
    distribution). Runs the truncated protocol towards the target's
    beta-order for each memory size.
    """
    E = spectrum(energies)
    bc = critical_beta(E)
    if beta is None:
        beta = beta_factor * bc
    elif beta < bc:
        raise ValueError(f"beta {beta} below critical {bc}")
    g = gibbs_state(E, beta)
    q = inaccessible_target(E, beta)
    p = np.zeros(E.size)
    p[0] = 1.0
    chain = decompose_neighbour_transpositions(p, g, beta_order(q, g))
    rows = []
    for N in memory_sizes:
        out = run_composed(p, E, beta, chain, N, mode="truncated")
        rows.append({"N": int(N), "delta": total_variation(out, q),
                     "bound": 1.0 / (2.0 * math.sqrt(N))})
    deltas = [r["delta"] for r in rows]
    monotone = all(b < a for a, b in zip(deltas, deltas[1:]))
    n0 = None
    for k in range(len(rows)):
        if all(rows[m]["delta"] <= rows[m]["bound"] for m in range(k, len(rows))):
            n0 = rows[k]["N"]
            break
    return InaccessibleResult(rows, beta, bc, monotone, n0)


# ---------------------------------------------------------------------------
# free-energy traces and cone export
# ---------------------------------------------------------------------------

def free_energy_trace(state, energies, beta: float, levels, N: int) -> dict:
    """Per-step divergences and mutual information along a full swap protocol.

    Records relative entropies of system, memory and joint state (natural
    log) plus the system-memory mutual information after every elementary
    step, including the final memory discard. The memory free energy shows
    the protocol's comb profile: one tooth per round, charged while the
    active entry drains and released as the next round begins.
    """
    p = distribution(state)
    E = spectrum(energies)
    if N < 1:                   # before the template divides by N
        raise ValueError("memory dimension N must be >= 1")
    joint0 = tensor(p, np.full(N, 1.0 / N), E, np.zeros(N))
    recorder = TrajectoryRecorder(joint0, beta)
    final = run_full_swap(p, E, beta, levels, N, recorder=recorder)
    rows = [{"step": pt["step"], "D_S": pt["d_system"],
             "D_M": pt["d_memory"], "D_SM": pt["d_joint"],
             "I_SM": pt["mutual_information"]} for pt in recorder.points]
    return {
        "rows": rows,
        "final_state": final,
        "recorder": recorder,
        "monotone_joint": bool(np.all(np.diff(recorder.joint_divergences())
                                      <= 1e-10)),
    }


def cone_export(state, gamma) -> dict:
    """All future-cone vertices of a state, JSON-ready."""
    verts = future_cone_vertices(state, gamma)
    return {"vertices": [
        {"order": [int(k) for k in v.order.order],
         "state": [float(x) for x in v.state]}
        for v in verts]}
