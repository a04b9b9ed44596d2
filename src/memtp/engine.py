"""Protocol engine: sequences of two-level thermalisations on joint states.

A memory-assisted swap between system levels i and j touches the N x N grid
of joint entries (i, k) x (j, l). A schedule fixes the visiting order of the
grid; all supported traversal families visit every grid point exactly once.
Schedules are stored as maximal "runs" that keep one joint entry active
against a sweep of partner entries. ``run_truncated`` executes a schedule
step by step and, with ``thermalize_memory``, is the reference the runners
are tested against. The runners validate their inputs once and work in
place on one (d, N) joint grid. Recorded swaps run the default schedule
step by step; unrecorded ones use a wavefront kernel that updates one
anti-diagonal of the default schedule's grid per numpy slice operation.
An unrecorded truncated run first groups consecutive swaps that share one
level in the same role, (i, j1), (i, j2), ... or (i1, j), (i2, j), ...,
and runs each group as one rectangular grid: its (|I| + |J|) N - 1
anti-diagonals replace the 2N - 1 of each swap on its own. With a flat
memory spectrum (every row of the Gibbs grid constant) the cell factor
g_a / (g_a + g_b) depends only on the two levels; graded memory computes
it per cell. Either way the kernel is bitwise equal to the default
schedule of each swap in turn.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .states import (JointState, distribution, gibbs_state, joint_gibbs,
                     marginalize, relative_entropy, spectrum)

FAMILIES = ("default", "blue", "red", "cyan", "orange")

__all__ = [
    "FAMILIES", "Run", "ProtocolSchedule", "build_schedule",
    "two_level_thermalize", "run_truncated", "thermalize_memory",
    "run_full_swap", "run_composed",
    "TrajectoryRecorder",
]


def _underflow(i: int, j: int) -> ValueError:
    return ValueError(f"Gibbs weights of levels {i} and {j} underflow to 0: "
                      "beta * dE exceeds the range of exp in float64, so "
                      "their thermalisation factor is 0/0")


def two_level_thermalize(state, gamma, i: int, j: int, lam: float = 1.0) -> np.ndarray:
    """Partial thermalisation of levels i and j with strength lam in [0, 1].

    The pair's total population s = p_i + p_j is computed once and the
    second entry is written as s minus the first, so the overall sum is
    preserved to the last bit. lam = 1 fully thermalises the pair.
    """
    p = np.array(state, dtype=float)
    g = np.asarray(gamma, dtype=float)
    if i == j:
        raise ValueError("i and j must differ")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    if not (0 <= i < p.size and 0 <= j < p.size):
        raise ValueError("level index out of range")
    if g[i] + g[j] == 0.0:
        raise _underflow(i, j)
    s = p[i] + p[j]
    w = (1.0 - lam) * p[i] + lam * (g[i] / (g[i] + g[j])) * s
    p[i] = w
    p[j] = s - w
    return p


@dataclass(frozen=True, eq=False)
class Run:
    """One active joint entry thermalised sequentially against partners."""

    active: int
    partners: np.ndarray


@dataclass(frozen=True, eq=False)
class ProtocolSchedule:
    """Visiting order of the N x N thermalisation grid for one level pair.

    ``runs`` is the executable form. ``steps()`` materialises the flat list
    of joint index pairs, canonically oriented as (level-i entry, level-j
    entry); it costs O(N^2) memory, so large schedules should stay in run
    form.
    """

    family: str
    variant: int
    levels: tuple[int, int]
    memory_dim: int
    runs: tuple[Run, ...] = field(repr=False)

    def steps(self) -> list[tuple[int, int]]:
        i, j = self.levels
        N = self.memory_dim
        out = []
        for run in self.runs:
            if run.active // N == i:
                out.extend((run.active, int(p)) for p in run.partners)
            else:
                out.extend((int(p), run.active) for p in run.partners)
        return out


def _segments_for_family(family: str, N: int, variant: int):
    """Yield (axis, fixed, lo, hi) segments; axis "col" fixes k, "row" fixes l."""
    if family in ("default", "blue"):
        for s in range(N):
            yield ("col", s, 0 if family == "default" else s, N)
            if family == "blue" and s + 1 < N:
                yield ("row", s, s + 1, N)
        return
    # cyan: variant bit t (LSB first) picks the t-th sweep, 0 = row, 1 = col
    next_col = next_row = 0
    t = 0
    while next_col < N or next_row < N:
        want_col = bool((variant >> t) & 1) if t < variant.bit_length() else False
        t += 1
        if (want_col and next_col < N) or next_row >= N:
            yield ("col", next_col, next_row, N)
            next_col += 1
        else:
            yield ("row", next_row, next_col, N)
            next_row += 1


def _reverse_relabel(segments, N: int):
    """Reverse a segment list and relabel both memory-slot axes x -> N-1-x.

    Turns an ascending traversal into its geometric reverse while keeping
    every segment ascending, so "red" and "orange" execute the mirrored
    pattern of "blue" and "cyan".
    """
    out = []
    for axis, fixed, lo, hi in reversed(segments):
        out.append((axis, N - 1 - fixed, N - hi, N - lo))
    return out


def build_schedule(family: str, levels, N: int, variant: int = 0) -> ProtocolSchedule:
    """Schedule for the memory-assisted swap of system ``levels`` = (i, j).

    Families: "default" sweeps full columns in order; "blue" alternates the
    next column and the next row with shrinking lengths; "red" is the
    mirrored reverse of blue; "cyan" interleaves row and column sweeps as
    chosen by the bits of ``variant`` (all rows for variant 0); "orange" is
    the mirrored reverse of cyan. Every family visits each of the N^2 grid
    points exactly once and all produce the same truncated output.
    """
    i, j = (int(levels[0]), int(levels[1]))
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if variant < 0:
        raise ValueError("variant must be a non-negative integer")
    if N < 1:
        raise ValueError("memory dimension must be >= 1")
    if i == j or i < 0 or j < 0:
        raise ValueError("levels must be two distinct non-negative indices")
    base = "blue" if family == "red" else "cyan" if family == "orange" else family
    segments = list(_segments_for_family(base, N, variant))
    if family in ("red", "orange"):
        segments = _reverse_relabel(segments, N)
    runs = []
    for axis, fixed, lo, hi in segments:
        if lo >= hi:
            continue
        if axis == "col":
            runs.append(Run(i * N + fixed, j * N + np.arange(lo, hi)))
        else:
            runs.append(Run(j * N + fixed, i * N + np.arange(lo, hi)))
    return ProtocolSchedule(family, variant, (i, j), N, tuple(runs))


class TrajectoryRecorder:
    """Collects per-step entropic scalars (and optionally joint copies).

    Recorded fields per step: relative entropies of the system, memory and
    joint state to their thermal references, and the system-memory mutual
    information. Full joint copies are stored only when ``store_states``.
    Points are numbered in recording order, so a run of several swaps
    carries one step index from 0 to its last step. The reference executor
    hands over one stack of states per schedule run, and ``record``
    computes the fields of all its rows at once.
    """

    def __init__(self, template: JointState, beta: float,
                 store_states: bool = False):
        self.shape = (template.system_dim, template.memory_dim)
        self.store_states = store_states
        self.gamma_system = gibbs_state(template.system_spectrum, beta)
        self.gamma_memory = gibbs_state(template.memory_spectrum, beta)
        self.gamma_joint = np.kron(self.gamma_system, self.gamma_memory)
        self.points: list[dict] = []

    def record(self, probs: np.ndarray) -> None:
        """Append one point per joint state, in row order.

        ``probs`` is one joint state (d*N,) or a stack of them (m, d*N).
        Both marginals, the product of the marginals and the four relative
        entropies are computed once over all rows; each value is bitwise
        equal to recording the rows one at a time.
        """
        stack = np.atleast_2d(probs)
        grids = stack.reshape(len(stack), *self.shape)
        p_system = grids.sum(axis=2)
        p_memory = grids.sum(axis=1)
        product = p_system[:, :, None] * p_memory[:, None, :]
        d_system = relative_entropy(p_system, self.gamma_system).tolist()
        d_memory = relative_entropy(p_memory, self.gamma_memory).tolist()
        d_joint = relative_entropy(stack, self.gamma_joint).tolist()
        info = relative_entropy(stack, product.reshape(stack.shape)).tolist()
        first = len(self.points)
        for n, row in enumerate(stack):
            pt = dict(step=first + n, d_system=d_system[n],
                      d_memory=d_memory[n], d_joint=d_joint[n],
                      mutual_information=info[n])
            if self.store_states:
                pt["joint"] = row.copy()
            self.points.append(pt)

    def joint_divergences(self) -> np.ndarray:
        return np.array([pt["d_joint"] for pt in self.points])


def _execute(probs: np.ndarray, g: np.ndarray, runs, recorder=None) -> None:
    """Apply runs to probs in place, one elementary step at a time.

    With a recorder, an empty one first gets the initial state. The state
    after each step of a run is written into one (len(run.partners), d*N)
    stack, and the run ends in one ``recorder.record(stack)`` call. A run
    has at most N partners, so a stack holds at most 8*d*N^2 bytes (24 KB
    at d = 3, N = 32).
    """
    if recorder is not None and not recorder.points:
        recorder.record(probs)
    for run in runs:
        ga = g[run.active]
        stack = None
        if recorder is not None:
            stack = np.empty((len(run.partners), probs.size))
        for n, p_idx in enumerate(run.partners):
            s = probs[run.active] + probs[p_idx]
            w = ga / (ga + g[p_idx]) * s
            probs[run.active] = w
            probs[p_idx] = s - w
            if stack is not None:
                stack[n] = probs
        if stack is not None:
            recorder.record(stack)


def _swap(grid: np.ndarray, gibbs: np.ndarray, rows, cols,
          flat: bool) -> None:
    """Default-schedule swaps (i, j), i in ``rows``, j in ``cols``, in place.

    One of ``rows`` and ``cols`` holds one level and no level appears
    twice (a ``_stars`` group); the swaps run in list order. Their default
    schedules together are the default schedule of one M x P grid,
    M = |rows| N and P = |cols| N, whose rows are the rows' memory slots
    end to end (``a``) and whose columns are the cols' slots end to end
    (``b``): every joint entry meets the same partners in the same order.
    Cell (k, l) depends only on cells (k, l - 1) and (k - 1, l), so each
    anti-diagonal k + l = const is one slice update. ``b`` is held
    reversed to keep both slices contiguous and takes the pair sum before
    the split, so a diagonal costs three ufunc calls and allocates no
    array.

    ``flat`` says that every row of the (d, N) Gibbs grid is constant (a
    flat memory spectrum): then the cell factor g_a / (g_a + g_b) depends
    only on the two levels. The diagonals then run in two phases, those
    that start at a[0] and those that start at b[0], and numpy's clipping
    of a slice at the end of its array gives each diagonal its length, so
    a diagonal computes one or two slice bounds and no min() or tuple. A
    single swap passes its one factor as a 0-d array; a star lays the
    factor along its multi-level side and slices it as that side. Graded
    memory keeps one loop over all diagonals and computes the factor per
    cell, with two more ufunc calls per diagonal. Every cell does the
    arithmetic of ``_execute`` on the same operands in the same order, so
    the grid ends bitwise equal to running each swap's default schedule in
    turn.
    """
    N = grid.shape[1]
    a = grid[rows].reshape(-1)
    b = grid[cols].reshape(-1)[::-1].copy()
    M, P = a.size, b.size
    # local names spare the flat loops a global and an attribute lookup per
    # call, about 5% of a short diagonal
    add, mul, sub = np.add, np.multiply, np.subtract
    if not flat:
        ga = gibbs[rows].reshape(-1)
        gb = gibbs[cols].reshape(-1)[::-1].copy()
        f = np.empty(min(M, P))
        for t in range(1 - P, M):
            # diagonal t has n cells and pairs a[ka:ka + n] with b[kb:kb + n]
            ka, kb = (t, 0) if t > 0 else (0, -t)
            n = min(M - ka, P - kb)
            av, bv = a[ka:ka + n], b[kb:kb + n]
            r = f[:n]
            np.add(ga[ka:ka + n], gb[kb:kb + n], r)
            np.divide(ga[ka:ka + n], r, r)
            np.add(av, bv, bv)
            np.multiply(bv, r, av)
            np.subtract(bv, av, bv)
    elif M == P:
        # one swap: phase A pairs a[:P - kb] with b[kb:], kb = P - 1 ... 0,
        # phase B a[ka:] with b[:M - ka], ka = 1 ... M - 1
        c = gibbs[:, 0]
        r = (c[rows] / (c[rows] + c[cols])).reshape(())
        for kb in range(P - 1, -1, -1):
            av, bv = a[:P - kb], b[kb:]
            add(av, bv, bv)
            mul(bv, r, av)
            sub(bv, av, bv)
        for ka in range(1, M):
            av, bv = a[ka:], b[:M - ka]
            add(av, bv, bv)
            mul(bv, r, av)
            sub(bv, av, bv)
    elif len(cols) == 1:
        # M > P: the factor lies along a; a[:P - kb] and b[:M - ka] are
        # whole diagonals, and b[kb:], a[ka:ka + P] end where they do
        c = gibbs[:, 0]
        fa = np.repeat(c[rows] / (c[rows] + c[cols[0]]), N)
        for kb in range(P - 1, -1, -1):
            av, bv = a[:P - kb], b[kb:]
            add(av, bv, bv)
            mul(bv, fa[:P - kb], av)
            sub(bv, av, bv)
        for ka in range(1, M):
            av, bv = a[ka:ka + P], b[:M - ka]
            add(av, bv, bv)
            mul(bv, fa[ka:ka + P], av)
            sub(bv, av, bv)
    else:
        # M < P: the factor lies along b; a[:P - kb] stops at a's end
        c = gibbs[:, 0]
        fb = np.repeat(c[rows[0]] / (c[rows[0]] + c[cols[::-1]]), N)
        for kb in range(P - 1, -1, -1):
            av, bv = a[:P - kb], b[kb:kb + M]
            add(av, bv, bv)
            mul(bv, fb[kb:kb + M], av)
            sub(bv, av, bv)
        for ka in range(1, M):
            av, bv = a[ka:], b[:M - ka]
            add(av, bv, bv)
            mul(bv, fb[:M - ka], av)
            sub(bv, av, bv)
    grid[rows] = a.reshape(-1, N)
    grid[cols] = b[::-1].reshape(-1, N)


def _stars(pairs) -> list[tuple[list[int], list[int]]]:
    """Group consecutive swaps that share a level in the same role.

    A group (rows, cols) is (i, j1), (i, j2), ... with one i, or
    (i1, j), (i2, j), ... with one j, and no level in it twice; ``_swap``
    runs each group as one grid.
    """
    groups = []
    for i, j in pairs:
        if groups:
            rows, cols = groups[-1]
            if rows == [i] and j not in cols:
                cols.append(j)
                continue
            if cols == [j] and i not in rows:
                rows.append(i)
                continue
        groups.append(([i], [j]))
    return groups


def run_truncated(joint: JointState, beta: float, schedule: ProtocolSchedule,
                  recorder: TrajectoryRecorder | None = None) -> JointState:
    """Apply a schedule of full two-level thermalisations to a joint state."""
    i, j = schedule.levels
    if schedule.memory_dim != joint.memory_dim:
        raise ValueError("schedule memory dimension does not match state")
    if not (0 <= i < joint.system_dim and 0 <= j < joint.system_dim):
        raise ValueError("schedule levels out of range for state")
    g = joint_gibbs(joint, beta)
    probs = joint.probs.copy()
    _execute(probs, g, schedule.runs, recorder)
    return joint.replace_probs(probs)


def thermalize_memory(joint: JointState, beta: float) -> JointState:
    """Discard correlations: re-tensor the system marginal with thermal memory."""
    q = marginalize(joint, "system")
    gm = gibbs_state(joint.memory_spectrum, beta)
    return joint.replace_probs(np.kron(q, gm))


def _thermal_joint(state, system_spectrum, beta: float, pairs, N: int,
                   memory_spectrum) -> tuple:
    """Validate runner input once: (joint grid, Gibbs grid, gm, flat).

    The (d, N) joint grid is state (x) thermal memory gm. ``flat``, for
    ``_swap``, says that every row of the Gibbs grid is constant. A pair
    (i, j) is rejected when rows i and j of the Gibbs grid each hold an
    underflowed 0: some cell of their swap would be 0/0.
    """
    p = distribution(state)
    if N < 1:
        raise ValueError("memory dimension N must be >= 1")
    em = np.zeros(N) if memory_spectrum is None else spectrum(memory_spectrum)
    if em.size != N:
        raise ValueError("memory spectrum length must equal N")
    for i, j in pairs:
        if i == j or not (0 <= i < p.size and 0 <= j < p.size):
            raise ValueError(f"levels ({i}, {j}) must be two distinct indices "
                             f"in 0..{p.size - 1}")
    gm = gibbs_state(em, beta)
    es = spectrum(system_spectrum)
    if es.size != p.size:
        raise ValueError("spectrum lengths must match state lengths")
    g = np.outer(gibbs_state(es, beta), gm)
    for i, j in pairs:
        if not (g[i].all() or g[j].all()):
            raise _underflow(i, j)
    return np.outer(p, gm), g, gm, bool((g == g[:, :1]).all())


def _run_swaps(state, system_spectrum, beta: float, pairs, N: int,
               memory_spectrum, full: bool,
               recorder: TrajectoryRecorder | None) -> np.ndarray:
    """Swap along ``pairs`` in place on one joint grid and return it.

    The memory is discarded after every swap when ``full``, else once;
    an unrecorded truncated run hands ``_swap`` one ``_stars`` group at a
    time.
    """
    grid, gibbs, gm, flat = _thermal_joint(state, system_spectrum, beta,
                                           pairs, N, memory_spectrum)
    probs, g = grid.reshape(-1), gibbs.reshape(-1)    # views of the grids
    # recorded swaps go step by step, and full mode discards the memory
    # between swaps: there each swap is a group of its own
    groups = (_stars(pairs) if recorder is None and not full
              else [([i], [j]) for i, j in pairs])
    for rows, cols in groups:
        if recorder is None:
            _swap(grid, gibbs, rows, cols, flat)
        else:
            _execute(probs, g, build_schedule("default", (rows[0], cols[0]),
                                              N).runs, recorder)
        if full:
            grid[:] = np.outer(grid.sum(axis=1), gm)
    if not full:
        grid[:] = np.outer(grid.sum(axis=1), gm)
    return grid


def run_full_swap(state, system_spectrum, beta: float, levels, N: int, *,
                  memory_spectrum=None,
                  recorder: TrajectoryRecorder | None = None) -> np.ndarray:
    """Memory-assisted swap: tensor, truncated protocol, memory discard.

    Returns the final system marginal. The memory starts thermal; its
    spectrum defaults to trivial (all levels at zero energy). With a
    recorder the swap runs step by step through the default schedule, and
    the state after the memory discard is recorded too.
    """
    grid = _run_swaps(state, system_spectrum, beta,
                      [(int(levels[0]), int(levels[1]))], N, memory_spectrum,
                      True, recorder)
    if recorder is not None:
        recorder.record(grid.reshape(-1))
    return grid.sum(axis=1)


def run_composed(state, system_spectrum, beta: float, chain, N: int, *,
                 mode: str = "truncated", memory_spectrum=None,
                 recorder: TrajectoryRecorder | None = None) -> np.ndarray:
    """Composition of memory-assisted swaps along a transposition chain.

    ``mode="full"`` thermalises the memory after every block; "truncated"
    keeps the memory alive across blocks and thermalises once at the end.
    Returns the final system marginal. With a recorder every swap runs step
    by step through the default schedule.
    """
    if mode not in ("full", "truncated"):
        raise ValueError(f"mode must be 'full' or 'truncated', got {mode!r}")
    chain = [(int(i), int(j)) for i, j in chain]
    return _run_swaps(state, system_spectrum, beta, chain, N, memory_spectrum,
                      mode == "full", recorder).sum(axis=1)
