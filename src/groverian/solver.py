"""Numerical maximization of squared product-state overlap (best rank-1 fit).

The maximizer is an alternating scheme, the qubit version of the higher-order
power method: with all factors but one held fixed, the overlap is linear in
the remaining factor, so the normalized environment vector is the exact
single-factor optimum.  Cycling through the factors therefore increases the
squared overlap monotonically.  Because the landscape can hold several local
maxima, the solver runs many starts; the first start is always the best
computational basis state, which guarantees pmax >= max_x |a_x|**2 even with
a single start.

All starts are iterated together as one batched array, which keeps the result
bit-identical regardless of scheduling and is dramatically faster than a
Python loop over starts.  Each sweep runs left to right on the contraction
kernel of :mod:`groverian.states`: it first builds the suffix products of the
previous sweep's factors, then carries the prefix, psi contracted with the
factors already updated in this sweep.  The environment of qubit k is that
prefix times the suffix product of factors k+1..n-1, so one factor update
costs one environment matmul and one prefix matmul; the last qubit's prefix
is the overlap.  The suffix products, the prefixes, the factors (held
qubit-major), two extrapolation buffers and a few (n_starts, 2) step buffers
live in a workspace allocated once per solve, about 2 * n_starts * 2**n
complex elements.  Each qubit step is a fixed list of nine numpy calls that
write into views of it bound once per working batch, so no step allocates;
the budget check counts n_starts * 2**n against a fixed element budget
before any start is allocated.

The plain sweep converges linearly, and about half of a start's sweeps used
to be that tail.  So from sweep ``_EXTRAPOLATE_FROM`` on, each sweep ends
with one extrapolation step, after the line-search and extrapolation schemes
for alternating least squares (Rajih, Comon & Harshman, SIAM J. Matrix Anal.
Appl. 30, 1128, 2008): every start tries f + alpha * (f - f_prev), with
f_prev its factors at the start of the sweep and alpha = sweep**(1/3), each
factor renormalized, and keeps it only where its squared overlap rises.  The
trial is written over f_prev and evaluated by the sweep's own prefix chain.
On Haar states at n = 8-10 it cut the sweeps to convergence about 2.3-fold.

A batch of at least ``_STOP_MIN_STARTS`` starts does not wait for its
slowest start.  It stops once its leader, the start the tie rule picks, has
converged and no start still climbing is estimated to pass it by more than
``tol`` (``_leader_stop``).  A smaller batch sweeps until every start has
converged.  Until the solve ends, a start that converged early to a local
maximum far below the best would keep costing sweeps, so it is retired: once
it has converged and sits more than max(1e-9, 1000 * tol) below the current
best it is frozen and leaves the batch.  Rows of the batch do not interact,
the best never falls, and a retired start never enters the stop rule, so the
result is bit-identical to sweeping every start until the stop, as long as
no converged start would have climbed past the best afterwards (see
``_batched_ascent``).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analytic import _groverian
from .states import (
    ProductState,
    PureState,
    RealAngles,
    SingleQubitState,
    _HALF_PI,
    _check_budget,
    _check_same_size,
    _check_seed,
    batch_environment,
    batch_overlap,
)

RESTRICTIONS = ("full_bloch", "real_plane")

DEGENERATE_ENV_NORM = 1e-14  # below this the previous factor is kept
_MONOTONE_SLACK = 1e-12
_REAL_INPUT_TOL = 1e-12
_RETIRE_MARGIN = 1e-9  # floor of the retirement margin max(1e-9, 1000 * tol)
# First sweep that ends with an extrapolation step.  A trial costs the n
# prefix matmuls and sixteen other numpy calls, 30-40 % of a sweep at n = 8,
# and pays only in a linear tail.  Picked on states outside the benchmark's
# sample, timing solves interleaved, best of 5:
# * 24 Haar states at n = 8-10 (default_rng(2718)): starting at sweep 10,
#   16, 20 or 24 made the summed solve time 1.65, 1.62, 1.59 or 1.58 times
#   shorter than no extrapolation;
# * Grover rows at n = 6, 7 and 9, W(9), W(10) and Dicke(7, k) mostly
#   converge in 10-20 sweeps, and there the step saved no sweep, so starting
#   at 10 made those solves 5-20 % slower and starting at 20 left them level.
_EXTRAPOLATE_FROM = 20
_STOP_WINDOW = 7  # squared overlaps kept per row: the leader stop reads three two-sweep gains
_STOP_MIN_STARTS = 32  # smallest batch the leader stop may end early
# Start draws kept for repeated configurations, and the largest one kept, in
# factor entries: 32 draws of at most 64 KiB each.  That keeps the draw of
# the default 32 starts at every register size the budget admits.
_DRAW_CACHE_SIZE = 32
_DRAW_CACHE_ELEMENTS = 2**12


class MonotonicityError(RuntimeError):
    """A sweep lowered some start's squared overlap, which exact per-factor
    updates cannot do; the contraction or update arithmetic is broken."""


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the multi-start alternating maximizer.

    ``tol`` is the absolute change in squared overlap per full sweep, before
    the sweep's extrapolation step, below which a start counts as converged.
    ``restriction`` picks the start distribution: Haar-random factors
    (``full_bloch``) or real-plane angles uniform on [-pi/2, pi/2]
    (``real_plane``, real-amplitude states only).
    """

    n_starts: int = 32
    max_sweeps: int = 500
    tol: float = 1e-12
    rng_seed: int = 0
    restriction: str = "full_bloch"

    def __post_init__(self) -> None:
        if self.n_starts < 1:
            raise ValueError(f"n_starts: must be >= 1, got {self.n_starts!r}")
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps: must be >= 1, got {self.max_sweeps!r}")
        if not self.tol > 0.0:
            raise ValueError(f"tol: must be > 0, got {self.tol!r}")
        _check_seed(self.rng_seed)
        if self.restriction not in RESTRICTIONS:
            raise ValueError(
                f"restriction: must be one of {RESTRICTIONS}, got {self.restriction!r}"
            )


@dataclass(frozen=True)
class PmaxResult:
    """Best squared overlap over all starts, with the optimizing product state.

    A start converges at the first sweep whose plain step, the update of
    every factor before that sweep's extrapolation step, raised its squared
    overlap by less than ``tol``.  ``sweeps_used`` is the number of sweeps
    run, an extrapolating sweep counting as one: until every start
    converged, the leader stop of ``_batched_ascent`` held (batches of at
    least 32 starts), or ``max_sweeps``.  Starts retired early, far below
    the best, ran fewer, and starts still climbing at the stop never
    converged.  ``converged`` says whether the best start converged, which
    it has whenever the leader stop ended the solve; ``pmax`` then follows
    the result policy of ``_batched_ascent``.  It means only that one plain
    sweep of that start gained less than ``tol``, not that the start is
    stationary: a converged start can still gain more than ``tol`` later.
    In a 7-start solve of ``random_state(7, default_rng(2197545828))`` at
    tol = 1e-8, with that seed as ``rng_seed``, start 5 converged at sweep
    23 and then gained 1.8e-8 in all.  The best start is the lowest
    start index whose squared overlap is within ``tol`` of the largest, and
    ``pmax`` is that start's value, so rounding-level differences between
    starts that reached the same maximum never decide the winner.  Each
    factor of ``optimizer`` carries the phase that makes its first entry of
    modulus >= 1/2 real and positive, so the printed optimizer depends on
    the maximizer, not on the start that reached it.
    """

    pmax: float
    optimizer: ProductState
    sweeps_used: int
    converged: bool
    best_start: int


def pmax_alternating(psi: PureState, cfg: SolverConfig = SolverConfig()) -> PmaxResult:
    """Maximize |<product|psi>|**2 by multi-start alternating factor updates."""
    n = psi.n_qubits
    _check_budget(cfg.n_starts * 2**n, "n_starts", f"{cfg.n_starts} starts x 2**{n} amplitudes")
    factors = _start_factors(psi, cfg)
    sq, factors, conv_at, sweeps = _batched_ascent(
        psi.amplitudes, factors, cfg.max_sweeps, cfg.tol
    )
    best = int(np.argmax(sq >= sq.max() - cfg.tol))
    fixed = _phase_fixed(factors[best]).tolist()
    optimizer = ProductState(tuple(SingleQubitState(c0, c1) for c0, c1 in fixed))
    return PmaxResult(
        pmax=float(sq[best]),
        optimizer=optimizer,
        sweeps_used=sweeps,
        converged=bool(conv_at[best] >= 0),
        best_start=best,
    )


def groverian(psi: PureState, cfg: SolverConfig = SolverConfig()) -> float:
    """sqrt(1 - pmax) computed from the numerical maximizer."""
    return _groverian(pmax_alternating(psi, cfg).pmax)


def objective_real(psi: PureState, angles: RealAngles) -> float:
    """Squared overlap of a real state with the real-plane product state.

    Equals (sum_x a_x prod_i c_i(x_i))**2 with c_i(0) = cos(theta_i) and
    c_i(1) = sin(theta_i).
    """
    a = _real_inputs(psi, angles)
    return float(batch_overlap(a, _real_factors(angles.thetas)[np.newaxis])[0]) ** 2


def gradient_real(psi: PureState, angles: RealAngles) -> np.ndarray:
    """Analytic gradient of :func:`objective_real` with respect to the angles.

    d/d(theta_i) replaces factor i by (-sin(theta_i), cos(theta_i)) inside the
    amplitude sum: grad_i = 2 * A * (d_i . v_i) with v_i the contraction of
    psi against all other factors.  Each v_i is one
    :func:`groverian.states.batch_environment` call, so the gradient costs
    O(n * 2**n).
    """
    a = _real_inputs(psi, angles)
    cs = _real_factors(angles.thetas)[np.newaxis]  # (1, n, 2) factor amplitudes
    ds = cs[0, :, ::-1] * [-1.0, 1.0]  # (n, 2) factor derivatives (-sin, cos)
    envs = np.stack([batch_environment(a, cs, i)[0] for i in range(psi.n_qubits)])
    amplitude = float(batch_overlap(a, cs)[0])
    return 2.0 * amplitude * np.sum(ds * envs, axis=1)


def pmax_gridsearch(psi: PureState, resolution: int) -> float:
    """Brute-force lower bound on pmax for real states.

    Maximizes :func:`objective_real` over ``resolution`` points on
    [-pi/2, pi/2] per angle, except the last angle, where the amplitude
    a0 cos(t) + a1 sin(t) has the exact largest square a0**2 + a1**2; so it is
    never below the full resolution**n grid's maximum.  The largest array,
    2 * resolution**(n-1) elements, must fit ``AMPLITUDE_BUDGET``.
    """
    if resolution < 3:
        raise ValueError(f"resolution: must be >= 3, got {resolution!r}")
    n = psi.n_qubits
    _check_budget(
        2 * resolution ** (n - 1), "resolution", f"grid of 2 * {resolution}**{n - 1} values"
    )
    a = _real_amplitudes(psi).reshape((2,) * n)
    c = _real_factors(np.linspace(-_HALF_PI, _HALF_PI, resolution))
    for _ in range(n - 1):
        a = np.tensordot(a, c, axes=([0], [1]))
    # Axis 0 is now the last qubit.  At n = 1, a is still psi's read-only
    # amplitudes, so it is squared into a new array.
    sq = np.multiply(a, a, out=a if n > 1 else None)
    return float(np.max(sq[0] + sq[1]))


def ascent_history(
    psi: PureState, start: ProductState,
    max_sweeps: int = SolverConfig.max_sweeps, tol: float = SolverConfig.tol,
) -> np.ndarray:
    """Per-sweep squared overlaps of a single alternating run (entry 0 is the
    start's own squared overlap).  Exposed for diagnostics and for checking
    the monotone-ascent guarantee directly."""
    _check_same_size(psi, start)
    _check_budget(2**psi.n_qubits, "n_starts", f"1 start x 2**{psi.n_qubits} amplitudes")
    history = []
    _batched_ascent(psi.amplitudes, start.factor_matrix()[np.newaxis], max_sweeps, tol,
                    on_sweep=lambda sq: history.append(float(sq[0])))
    return np.asarray(history)


# ----------------------------------------------------------------------------
# Batched internals
# ----------------------------------------------------------------------------

def _start_factors(psi: PureState, cfg: SolverConfig) -> np.ndarray:
    """(n_starts, n, 2) start factors; row 0 is the best basis product state,
    and rows 1.. are the random draw of :func:`_start_draw`."""
    n = psi.n_qubits
    if cfg.restriction == "real_plane":
        _real_amplitudes(psi)  # refuses a complex state, even with the basis start alone
    factors = np.zeros((cfg.n_starts, n, 2), dtype=np.complex128)
    x = int(np.argmax(np.abs(psi.amplitudes) ** 2))
    for i in range(n):
        bit = (x >> (n - 1 - i)) & 1
        factors[0, i, bit] = 1.0
    factors[1:] = _start_draw(n, cfg.n_starts, cfg.rng_seed, cfg.restriction)
    return factors


def _start_draw(n: int, n_starts: int, rng_seed: int, restriction: str) -> np.ndarray:
    """The (n_starts - 1, n, 2) random start factors, which depend on nothing
    but these arguments.  Repeated solves of one configuration, such as a
    family sweep or a Grover trace, share one read-only draw; a draw of more
    than ``_DRAW_CACHE_ELEMENTS`` entries is drawn afresh and not kept."""
    if (n_starts - 1) * n * 2 > _DRAW_CACHE_ELEMENTS:
        return _draw(n, n_starts, rng_seed, restriction)
    return _cached_draw(n, n_starts, rng_seed, restriction)


def _draw(n: int, n_starts: int, rng_seed: int, restriction: str) -> np.ndarray:
    """Haar-random unit factors, complex, or real-plane factors of angles
    uniform on [-pi/2, pi/2], real, from one ``default_rng(rng_seed)``."""
    rng = np.random.default_rng(rng_seed)
    if restriction == "real_plane":
        return _real_factors(rng.uniform(-_HALF_PI, _HALF_PI, size=(n_starts - 1, n)))
    z = rng.normal(size=(n_starts - 1, n, 2)) + 1j * rng.normal(size=(n_starts - 1, n, 2))
    return z / np.linalg.norm(z, axis=2, keepdims=True)


@lru_cache(maxsize=_DRAW_CACHE_SIZE)
def _cached_draw(n: int, n_starts: int, rng_seed: int, restriction: str) -> np.ndarray:
    """:func:`_draw`, kept read-only, since every caller shares the array."""
    draw = _draw(n, n_starts, rng_seed, restriction)
    draw.flags.writeable = False
    return draw


def _phase_fixed(factors: np.ndarray) -> np.ndarray:
    """The (n, 2) unit factors, each times the phase that makes its first
    entry of modulus >= 1/2 real and positive.  A factor's phase does not
    change the overlap's modulus, so this picks one representative of the
    maximizer, whichever start reached it."""
    rows = np.arange(len(factors))
    pivot = (np.abs(factors[:, 0]) < 0.5).astype(int)
    entry = factors[rows, pivot]
    modulus = np.abs(entry)
    fixed = factors * (np.conjugate(entry) / modulus)[:, np.newaxis]
    fixed[rows, pivot] = modulus  # exactly real, where the product may not be
    return fixed


def _batched_ascent(
    amplitudes: np.ndarray,
    factors: np.ndarray,
    max_sweeps: int,
    tol: float,
    on_sweep=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Sweep all starts until the leader stop holds or every start has
    converged, a start converging once its per-sweep gain falls below tol.

    Returns (squared overlaps, factors, sweep index of convergence per start
    (-1 if never), sweeps executed); the factors are written back into
    ``factors``.  Updates are the exact per-factor optima, and an
    extrapolation trial is kept only where it is higher, so the squared
    overlap of every start is nondecreasing sweep to sweep; a degenerate
    environment (norm below ``DEGENERATE_ENV_NORM``) keeps the previous
    factor, preserving monotonicity at saddle configurations.

    Workspace.  The sweeps work in one :class:`_Workspace` allocated before
    the first sweep, about 2 * n_starts * 2**n complex elements, so a sweep
    allocates nothing of size 2**n.  Each qubit step is the fixed list of
    calls that :class:`_Workspace` describes, each writing into a view bound
    once per working batch.  The starting overlaps are the steps' prefix
    matmuls run once on the start factors, as :meth:`_Workspace.evaluate`
    later runs them on each extrapolation trial.  The arithmetic is that of
    the kernel in :mod:`groverian.states` (the tests pin it bit for bit to a
    loop written on that kernel).

    Extrapolation.  From sweep ``_EXTRAPOLATE_FROM`` on, the plain sweep, its
    monotone check and the convergence test are followed by one
    extrapolation step.  Each working row forms g = f + alpha (f - f_prev),
    with f_prev its factors at the start of the sweep and
    alpha = sweep**(1/3), renormalizes each factor of g, and evaluates g by
    the sweep's own prefix-matmul chain, run on the conjugates of g.  A
    row takes g, and its squared overlap, only where that is strictly above
    the plain step's value.  Convergence is decided on the plain step's gain
    alone, before the step, so ``tol`` keeps its meaning: a row converges
    when one plain sweep raises it by less than ``tol``.

    Leader stop.  After each sweep in which some working start has
    converged, :func:`_leader_stop` decides whether the solve may end before
    its slowest start converges; its docstring gives the conditions and why
    each is there.  A batch of fewer than ``_STOP_MIN_STARTS`` starts never
    stops early.

    Result policy.  The step and the stop change results at rounding level,
    so results are not bit-equal to the loop without them, and the best
    start can be another start that reached the same maximum.  What holds
    instead, on the goldens, the benchmark's 15 reference states and a
    corpus of 148 states (Haar states at n = 4..12, real ones, W, every
    Dicke state at n <= 6 and Grover rows at n = 5 and 8), with 32 starts:
    ``pmax`` is the same local maximum as the full-batch solve, which sweeps
    every start until the slowest converges, and at most ``tol`` below it,
    at tol = 1e-12, 1e-10, 1e-8 and 1e-6; and at the default tol it is
    within ``tol`` of the value reached at tol = 1e-17.  It is not always as
    close to that limit as the full-batch solve, which sweeps the best start
    on while the slowest converges.  A batch of fewer than 32 starts sweeps
    to the slowest start, so the stop does not change its result.

    Retirement.  After each sweep that did not stop the solve, a start that
    has converged and whose squared overlap is more than
    ``margin = max(_RETIRE_MARGIN, 1000 * tol)`` below the best of the
    working batch retires: its value, convergence sweep and factors are
    frozen and it leaves the batch, which is compacted, with the recent
    squared overlaps, only when a start retires.  The loop still stops when
    the leader stop holds, every start has converged or at ``max_sweeps``,
    so the sweeps executed and the convergence sweeps are those of the
    non-retiring loop, which sweeps every start until the stop.  On the
    benchmark's 15 reference states it cuts the rows swept through the qubit
    steps by 20 %.

    Why this is exact.  A row's arithmetic does not depend on the batch it is
    in, so every start that is never retired ends bit-identical to the
    non-retiring loop.  That holds with the extrapolation step too: its alpha
    depends only on the solve's sweep index, and each row keeps or drops its
    own trial.  The plain step is monotone and the step never lowers a row,
    so the best of the working batch never falls by more than the monotone
    slack (1e-12), so a start retired more than ``margin`` below it ends more
    than ``margin`` less that slack below the final best, which is more than
    ``tol``: the tie rule (the lowest start within ``tol`` of the best) never
    picks a retired start.  Nor does the stop rule read one: a retired start
    is never the leader and, converged, is not pending.  The result could
    differ only if a retired start, swept on, would have climbed past the
    best after converging.  Measured with the extrapolation step at the
    default tol on 30 Haar states (n = 5..12, 32 starts each,
    default_rng(2024)), sweeping every start to the end: a start climbed at
    most 1.0e-11 after converging, and the 625 starts that would retire at
    their convergence sweep sat at least 6e-5 below the best.  At loose tol
    this is empirical, not proven: at tol = 1e-6 a converged start later
    climbed 1.2e-2 before the leader stop on the same states, more than the
    1e-3 margin, though no result changed there (nor, without the step, on
    any state tried at tol up to 1e-4).  The margin scales with ``tol``
    because a fixed 1e-9 froze starts within ``tol`` of the best and
    changed the result at tol = 1e-8.

    ``on_sweep`` receives the starting squared overlaps, then the working
    batch's after each sweep's extrapolation; a single start never retires.
    """
    n_starts = factors.shape[0]
    margin = max(_RETIRE_MARGIN, 1000.0 * tol)
    ws = _Workspace(amplitudes[np.newaxis], factors)
    sq = ws.evaluate()  # the starting overlaps, by the sweep's own prefix chain
    if on_sweep is not None:
        on_sweep(sq)
    conv_at = np.full(n_starts, -1, dtype=int)
    # The working batch holds the starts still being swept; row i of it is
    # start rows[i].  Starts are written to the outputs when they retire, and
    # the rest at the end.
    sq_out, conv_out, factors_out = np.empty_like(sq), np.empty_like(conv_at), factors
    rows = np.arange(n_starts)
    pending = n_starts  # working starts not yet converged
    recent = [sq]  # the working rows' squared overlaps after the last sweeps
    sweeps = 0
    for sweep in range(1, max_sweeps + 1):
        sweeps = sweep
        extrapolate = sweep >= _EXTRAPOLATE_FROM
        if extrapolate:
            np.copyto(ws.trial, ws.factors)
        # Factors k+1.. are not yet updated when qubit k is, so the suffix
        # products of the previous sweep's factors serve the whole sweep.
        for conj_k, tail_after, tail_k in ws.tail_steps:
            np.multiply(conj_k, tail_after, tail_k)
        env, v, scratch, left, right, norm, norm_re, floor, ok, ok_col = ws.buffers
        for f_k, conj_k, tail, conj_row, lead, prefix in ws.steps:
            np.matmul(lead, tail, env)
            # A degenerate environment leaves its row's factor untouched.
            np.greater(_row_norms(v, scratch, left, right, norm_re), floor, ok)
            np.divide(v, norm, f_k, where=ok_col)
            np.conjugate(f_k, conj_k)
            np.matmul(conj_row, lead, prefix)
        new_sq = np.abs(ws.overlap) ** 2
        gain = new_sq - sq
        if gain.min() < -_MONOTONE_SLACK:
            raise MonotonicityError(
                f"sweep {sweep}: squared overlap decreased by {float(-gain.min())!r}"
            )
        newly = np.abs(gain, gain) < tol
        newly &= conv_at < 0
        count = np.count_nonzero(newly)  # cheaper than any() on a few rows
        if count:
            conv_at[newly] = sweep
            pending -= count
        if extrapolate:
            f, trial, conj = ws.factors, ws.trial, ws.conjugates
            left, right, norm, norm_re = ws.trial_buffers
            # g = f + alpha (f - f_prev), written over f_prev.  f and f_prev
            # are unit vectors, so |g| >= (1 + alpha) - alpha = 1 and no
            # trial factor degenerates.
            np.subtract(f, trial, trial)
            np.multiply(trial, sweep ** (1 / 3), trial)
            np.add(f, trial, trial)
            _row_norms(trial, conj, left, right, norm_re)
            np.divide(trial, norm, trial)
            # The sweep's own chain evaluates g from its conjugates, and the
            # conjugates of the factors kept are taken again afterwards.
            np.conjugate(trial, conj)
            trial_sq = ws.evaluate()
            better = trial_sq > new_sq
            np.copyto(f, trial, where=better[:, np.newaxis])
            np.conjugate(f, conj)
            np.copyto(new_sq, trial_sq, where=better)
        sq = new_sq
        recent.append(sq)
        del recent[:-_STOP_WINDOW]
        if on_sweep is not None:
            on_sweep(sq)
        if pending == 0:
            break
        if pending == len(rows):
            continue  # no working start has converged, so none leads or retires
        top = sq.max()
        if _leader_stop(recent, conv_at, tol, n_starts, top):
            break
        retire = sq < top - margin
        retire &= conv_at >= 0
        if np.count_nonzero(retire):
            gone = rows[retire]
            sq_out[gone], conv_out[gone] = sq[retire], conv_at[retire]
            factors_out[gone] = ws.factors[:, retire].swapaxes(0, 1)
            keep = ~retire
            rows, conv_at = rows[keep], conv_at[keep]
            recent = [r[keep] for r in recent]
            sq = recent[-1]
            ws.compact(keep)
    sq_out[rows], conv_out[rows] = sq, conv_at
    factors_out[rows] = ws.factors.swapaxes(0, 1)
    return sq_out, factors_out, conv_out, sweeps


def _leader_stop(
    recent: list[np.ndarray], conv_at: np.ndarray, tol: float, n_starts: int, top: float
) -> bool:
    """Whether a batch may stop before its slowest start converges.

    ``recent`` holds the working rows' squared overlaps after the last
    ``_STOP_WINDOW`` sweeps, oldest first (fewer early in a solve),
    ``conv_at`` their convergence sweeps, -1 for a pending row, ``n_starts``
    the starts the solve began with, and ``top`` the largest of the last
    values.  The leader is the tie-rule pick, the lowest row within ``tol``
    of ``top``.  The batch may stop once all of these hold:

    * it began with at least ``_STOP_MIN_STARTS`` starts: in a smaller one
      the best basin may hold one start that crawls along a plateau, with
      shrinking gains, before it climbs past the leader;
    * the leader has converged, so its value is the one returned;
    * the leader's estimated remaining climb is below ``tol / 2``, so a
      converged leader in a slow linear tail is swept on;
    * no pending row's value plus its own estimated climb exceeds the
      leader's by more than ``tol``, so a slower start in a higher basin is
      waited for.

    A climb is estimated from the last three two-sweep gains
    G_t = sq_t - sq_{t-2}, which take seven values.  With r the larger of
    G_t / G_{t-2} and G_{t-2} / G_{t-4}, a tail whose gains shrink
    geometrically has G_t * r / (1 - r) left to climb; the estimate is inf
    where r >= 1 and 0 where G_t <= 0.  The gains span two sweeps because
    the extrapolation step makes consecutive gains alternate, and r is the
    larger of two ratios because even two-sweep ratios are erratic in
    extrapolated tails.  The estimates run only once the leader has
    converged, and only on the leader and the pending rows, the only rows
    the conditions read.
    """
    if n_starts < _STOP_MIN_STARTS or len(recent) < _STOP_WINDOW:
        return False
    leader = int(np.argmax(recent[-1] >= top - tol))
    if conv_at[leader] < 0:
        return False
    rows = conv_at < 0  # the pending rows and the leader
    rows[leader] = True
    lead = np.count_nonzero(rows[:leader])  # the leader's place among them
    window = np.array(recent[-_STOP_WINDOW::2])[:, rows]  # sq_{t-6}, sq_{t-4}, sq_{t-2}, sq_t
    gains = window[1:] - window[:-1]  # G_{t-4}, G_{t-2}, G_t
    ratios = np.full_like(gains[1:], np.inf)
    np.divide(gains[1:], gains[:-1], out=ratios, where=gains[:-1] > 0.0)
    r = np.minimum(np.maximum(ratios[0], ratios[1]), 1.0)
    now = gains[-1]
    climb = np.full_like(now, np.inf)
    np.divide(now * r, 1.0 - r, out=climb, where=r < 1.0)
    climb[now <= 0.0] = 0.0
    if not climb[lead] < 0.5 * tol:
        return False
    # The leader's own term, fl(sq + climb) - sq, is at most twice its climb,
    # below tol, so it never counts against the stop.
    sq = window[-1]
    return not (sq + climb - sq[lead] > tol).any()


class _Workspace:
    """The arrays one solve's sweeps write, allocated once for the (S, n, 2)
    start factors of an n-qubit state, and the views of them that a working
    batch of m starts reads.

    * ``factors`` and their conjugates, qubit-major as (n, S, 2), so that
      factor k of the working batch is one contiguous (m, 2) block.  The
      conjugates are derived when a batch is bound and kept current by each
      step.
    * Suffix products for k = 1..n, in one list of (S, 2**(n-k)) arrays:
      row s is conj(f_k) x ... x conj(f_{n-1}), so the last, for k = n, is
      a column of ones.  The others are written at the start of each sweep,
      before any step reads them, so they are allocated empty.  There is
      none for k = 0.
    * Prefixes for k = 0..n-1, as (S, 1, 2**(n-k-1)) arrays: psi contracted
      with factors 0..k.  The last one is the overlap.
    * Step buffers: the (S, 2, 1) environment v, the (S, 2) scratch for
      conj(v) * v, the (S, 1) norm column, complex with a zero imaginary
      part, and the (S,) degeneracy mask.  numpy divides a complex array by
      a float one after casting the float to r + 0j, so dividing by the
      complex column gives the same bits and casts nothing.
    * Two extrapolation buffers: (n, S, 2) trial factors, which hold the
      factors at the start of the sweep until the trial is written over
      them, and an (n, S, 1) complex trial norm column.  The trial's norms
      use the conjugates as scratch, and the trial is evaluated by the
      steps' own prefix matmuls on its conjugates, so its overlap lands in
      the last prefix.  Both are allocated with the rest: allocated
      mid-solve, they raised the benchmark's peak RSS.  Each extrapolating
      sweep writes them before it reads them, so :meth:`compact` leaves them
      where they are, and each is bound as its first n * m rows, contiguous.

    That is about 2 * S * 2**n complex elements.  The step for qubit k is
    nine calls, each writing into a buffer above: the environment matmul
    (the operation of :func:`groverian.states.contract_tail`), the four
    calls of :func:`_row_norms` into the norm column's real part, the mask,
    the masked divide into f_k, the conjugate into conj_k, and the prefix
    matmul, which for the last qubit writes the overlap.  Outputs are passed
    positionally, which numpy parses faster than ``out=``.  :meth:`bind`
    points the views at the first m rows; :meth:`compact` moves the kept
    rows there first.
    """

    def __init__(self, psi: np.ndarray, factors: np.ndarray) -> None:
        n_starts, n = factors.shape[0], factors.shape[1]
        c = np.complex128
        self._psi = psi
        self._factors = np.ascontiguousarray(factors.swapaxes(0, 1))
        self._conj = np.empty_like(self._factors)
        self._tails = [np.empty((n_starts, 2 ** (n - k)), dtype=c) for k in range(1, n)]
        self._tails.append(np.ones((n_starts, 1), dtype=c))
        self._prefixes = [np.empty((n_starts, 1, 2 ** (n - k - 1)), dtype=c) for k in range(n)]
        self._env = np.empty((n_starts, 2, 1), dtype=c)
        self._scratch = np.empty((n_starts, 2), dtype=c)
        self._norm = np.zeros((n_starts, 1), dtype=c)
        self._ok = np.empty(n_starts, dtype=bool)
        self._floor = np.array(DEGENERATE_ENV_NORM)  # np.greater converts no Python float
        self._trial = np.empty(2 * n * n_starts, dtype=c)
        self._trial_norm = np.zeros(n * n_starts, dtype=c)
        self.bind(n_starts)

    def evaluate(self) -> np.ndarray:
        """Squared overlaps of the working rows whose conjugates
        ``conjugates`` holds, by the steps' prefix matmuls alone."""
        for _, _, _, conj_row, lead, prefix in self.steps:
            np.matmul(conj_row, lead, prefix)
        return np.abs(self.overlap) ** 2

    def compact(self, keep: np.ndarray) -> None:
        """Keep the working rows flagged in ``keep``, in order, and bind them."""
        kept = self.factors[:, keep]
        self._factors[:, : kept.shape[1]] = kept
        self.bind(kept.shape[1])

    def bind(self, m: int) -> None:
        """Build the views for a working batch of the first m rows.

        ``tail_steps`` lists, for k = n-1 down to 1, the operands of suffix
        product k and the (m, 2, R) view it is written into; ``steps`` lists,
        for each qubit k, its factor and conjugate blocks, suffix product k+1
        as an (m, R, 1) column, and then the prefix chain's operands: the
        (m, 1, 2) conjugate row, the prefix it is contracted out of (psi for
        k = 0) as (., 2, R) rows, and the prefix it writes; the last
        qubit's, as (m,), is ``overlap``.
        ``buffers`` holds the step buffers and their views: the environment
        and its (m, 2) rows, the scratch and the real parts of its two
        columns, the norm column and its real part, the 0-d degeneracy
        threshold, and the mask as (m,) and as an (m, 1) column.
        ``factors`` and ``conjugates`` are the working factors and their
        conjugates as (n, m, 2), and ``trial`` is the (n, m, 2) view the
        factors are copied into at the start of an extrapolating sweep.
        ``trial_buffers`` holds the real parts of the conjugates' two columns
        (the scratch of the trial's norms) and the trial norm column and its
        real part.
        """
        n = self._factors.shape[0]
        self.factors = factors = self._factors[:, :m]
        self.conjugates = conj = self._conj[:, :m]
        np.conjugate(factors, out=conj)
        tails = [t[:m] for t in self._tails]  # suffix product k is tails[k - 1]
        prefixes = [p[:m] for p in self._prefixes]
        leads = [p.reshape(p.shape[0], 2, -1) for p in [self._psi] + prefixes[:-1]]
        self.tail_steps = [
            (conj[k, :, :, np.newaxis], tails[k][:, np.newaxis, :], tails[k - 1].reshape(m, 2, -1))
            for k in range(n - 1, 0, -1)
        ]
        columns = [t[:, :, np.newaxis] for t in tails]
        self.steps = list(zip(factors, conj, columns, conj[:, :, np.newaxis], leads, prefixes))
        self.overlap = prefixes[-1][:, 0, 0]
        self.trial = self._trial[: n * m * 2].reshape(n, m, 2)
        trial_norm = self._trial_norm[: n * m].reshape(n, m, 1)
        self.trial_buffers = (
            conj.real[..., 0], conj.real[..., 1], trial_norm, trial_norm.real[..., 0]
        )
        env, scratch, norm, ok = self._env[:m], self._scratch[:m], self._norm[:m], self._ok[:m]
        self.buffers = (
            env, env[:, :, 0],
            scratch, scratch.real[:, 0], scratch.real[:, 1],
            norm, norm.real[:, 0], self._floor,
            ok, ok[:, np.newaxis],
        )


def _row_norms(
    v: np.ndarray, scratch: np.ndarray, left: np.ndarray, right: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """2-norms of the rows of an (m, 2) complex array, or of an (n, m, 2)
    one over its last axis, written into the (m,) or (n, m) float array
    ``out``, which is returned.  ``scratch`` is a complex array of ``v``'s
    shape, and ``left`` and ``right`` are the real parts of its two columns.

    Bit for bit ``np.linalg.norm(v, axis=-1)``: that reduces
    ``(v.conj() * v).real`` over the row, and a reduction over two entries is
    their one sum.
    """
    np.conjugate(v, scratch)
    np.multiply(scratch, v, scratch)
    np.add(left, right, out)
    return np.sqrt(out, out)


def _real_factors(thetas) -> np.ndarray:
    """(..., 2) real-plane factor amplitudes (cos, sin) of angles of shape (...)."""
    return np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)


def _real_amplitudes(psi: PureState) -> np.ndarray:
    """Real parts of a real state's amplitudes as a (1, 2**n) batch."""
    if not psi.is_real(_REAL_INPUT_TOL):
        raise ValueError(
            f"psi: real-plane routines require real amplitudes "
            f"(imaginary parts below {_REAL_INPUT_TOL})"
        )
    return psi.amplitudes.real[np.newaxis]


def _real_inputs(psi: PureState, angles: RealAngles) -> np.ndarray:
    """:func:`_real_amplitudes` of psi, once the angles match its qubits."""
    a = _real_amplitudes(psi)
    if len(angles) != psi.n_qubits:
        raise ValueError(f"angles: expected {psi.n_qubits} angles, got {len(angles)}")
    return a
