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
costs one environment matmul and one prefix matmul.  The suffix products,
the prefixes, the factors (held qubit-major) and a few (n_starts, 2) step
buffers live in a workspace allocated once per solve, about
2 * n_starts * 2**n complex elements.  Each qubit step is a fixed list of
nine numpy calls that write into views of it bound once per working batch,
so no step allocates; the budget check counts n_starts * 2**n against a
fixed element budget before any start is allocated.

A batch runs until its slowest start converges, so a start that converged
early to a local maximum far below the best would keep costing sweeps.  Such
a start is retired: once it has converged and sits more than
max(1e-9, 1000 * tol) below the current best it is frozen and leaves the
batch.  Rows of the batch do not interact and the best never falls, so the
result is bit-identical to sweeping every start to the end, as long as no
converged start would have climbed past the best afterwards (see
``_batched_ascent``).
"""
from __future__ import annotations

from dataclasses import dataclass

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


class MonotonicityError(RuntimeError):
    """A sweep lowered some start's squared overlap, which exact per-factor
    updates cannot do; the contraction or update arithmetic is broken."""


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the multi-start alternating maximizer.

    ``tol`` is the absolute change in squared overlap per full sweep below
    which a start counts as converged.  ``restriction`` picks the start
    distribution: Haar-random factors (``full_bloch``) or real-plane angles
    uniform on [-pi/2, pi/2] (``real_plane``, real-amplitude states only).
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

    ``sweeps_used`` is the number of sweeps until every start converged (or
    ``max_sweeps``); starts retired early, far below the best, executed fewer.
    ``converged`` refers to the best start.  The best start is the lowest
    start index whose squared overlap is within ``tol`` of the largest, and
    ``pmax`` is that start's value, so rounding-level differences between
    starts that reached the same maximum never decide the winner.
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
    best = int(np.flatnonzero(sq >= np.max(sq) - cfg.tol)[0])
    optimizer = ProductState(
        tuple(SingleQubitState(factors[best, k, 0], factors[best, k, 1]) for k in range(n))
    )
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
    psi: PureState, start: ProductState, max_sweeps: int = 500, tol: float = 1e-12
) -> np.ndarray:
    """Per-sweep squared overlaps of a single alternating run (entry 0 is the
    start's own squared overlap).  Exposed for diagnostics and for checking
    the monotone-ascent guarantee directly."""
    _check_same_size(psi, start)
    _check_budget(2**psi.n_qubits, "n_starts", f"1 start x 2**{psi.n_qubits} amplitudes")
    factors = start.factor_matrix()[np.newaxis, :, :].copy()
    history = [float(np.abs(batch_overlap(psi.amplitudes[np.newaxis], factors)[0]) ** 2)]

    def record(sq: np.ndarray) -> None:
        history.append(float(sq[0]))

    _batched_ascent(psi.amplitudes, factors, max_sweeps, tol, on_sweep=record)
    return np.asarray(history)


# ----------------------------------------------------------------------------
# Batched internals
# ----------------------------------------------------------------------------

def _start_factors(psi: PureState, cfg: SolverConfig) -> np.ndarray:
    """(n_starts, n, 2) start factors; row 0 is the best basis product state."""
    n = psi.n_qubits
    s = cfg.n_starts
    factors = np.zeros((s, n, 2), dtype=np.complex128)
    x = int(np.argmax(np.abs(psi.amplitudes) ** 2))
    for i in range(n):
        bit = (x >> (n - 1 - i)) & 1
        factors[0, i, bit] = 1.0
    rng = np.random.default_rng(cfg.rng_seed)
    if cfg.restriction == "real_plane":
        _real_amplitudes(psi)  # refuses a complex state, even with the basis start alone
        factors[1:] = _real_factors(rng.uniform(-_HALF_PI, _HALF_PI, size=(s - 1, n)))
    else:
        z = rng.normal(size=(s - 1, n, 2)) + 1j * rng.normal(size=(s - 1, n, 2))
        factors[1:] = z / np.linalg.norm(z, axis=2, keepdims=True)
    return factors


def _batched_ascent(
    amplitudes: np.ndarray,
    factors: np.ndarray,
    max_sweeps: int,
    tol: float,
    on_sweep=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Sweep all starts until each one's per-sweep gain falls below tol.

    Returns (squared overlaps, factors, sweep index of convergence per start
    (-1 if never), sweeps executed); the factors are written back into
    ``factors``.  Updates are the exact per-factor optima, so the squared
    overlap of every start is nondecreasing sweep to sweep; a degenerate
    environment (norm below ``DEGENERATE_ENV_NORM``) keeps the previous
    factor, preserving monotonicity at saddle configurations.

    Workspace.  The sweeps work in one :class:`_Workspace` allocated before
    the first sweep, about 2 * n_starts * 2**n complex elements, so a sweep
    allocates nothing of size 2**n.  Each qubit step is the fixed list of
    calls that :class:`_Workspace` describes, each writing into a view bound
    once per working batch.  The arithmetic is that of the kernel in
    :mod:`groverian.states` (the tests pin it bit for bit to a loop written
    on that kernel).

    Retirement.  After each sweep, a start that has converged and whose
    squared overlap is more than ``margin = max(_RETIRE_MARGIN, 1000 * tol)``
    below the best of the working batch retires: its value, convergence sweep
    and factors are frozen and it leaves the batch, which is compacted only
    when a start retires.  The loop still stops when every start has
    converged or at ``max_sweeps``, so the sweeps executed and the convergence
    sweeps are those of the plain loop that sweeps every start to the end.

    Why this is exact.  A row's arithmetic does not depend on the batch it is
    in, so every start that is never retired ends bit-identical to the plain
    loop.  The best of the working batch never falls by more than the
    monotone slack (1e-12), so a start retired more than ``margin`` below it
    ends more than ``margin`` less that slack below the final best, which is
    more than ``tol``: the tie rule (the lowest start within ``tol`` of the
    best) never picks a retired start.  The result could
    differ only if a retired start, swept on, would have climbed past the
    best after converging.  Measured at the default tol on 30 Haar states
    (n = 5..12, 32 starts each): a start climbed at most 1.5e-11 after
    converging, and the 623 starts that would retire at their convergence
    sweep sat at least 6e-5 below the best.  At loose tol this is empirical,
    not proven: at tol = 1e-6 a converged start later climbed 8.4e-3 on the
    same states, more than the 1e-3 margin, though no result changed on any
    state tried at tol up to 1e-4.  The margin scales with ``tol`` because a
    fixed 1e-9 froze starts within ``tol`` of the best and changed the result
    at tol = 1e-8.

    ``on_sweep`` receives the working batch's squared overlaps; a single
    start is always the best, never retires, and so is always reported.
    """
    n_starts = factors.shape[0]
    psi = amplitudes[np.newaxis]
    margin = max(_RETIRE_MARGIN, 1000.0 * tol)
    # The starting overlaps come first, so their temporaries are freed
    # before the workspace is allocated.
    sq = np.abs(batch_overlap(psi, factors)) ** 2
    conv_at = np.full(n_starts, -1, dtype=int)
    # The working batch holds the starts still being swept; row i of it is
    # start rows[i].  Starts are written to the outputs when they retire, and
    # the rest at the end.
    sq_out, conv_out, factors_out = np.empty_like(sq), np.empty_like(conv_at), factors
    rows = np.arange(n_starts)
    pending = n_starts  # working starts not yet converged
    ws = _Workspace(psi, factors)
    sweeps = 0
    for sweep in range(1, max_sweeps + 1):
        sweeps = sweep
        # Factors k+1.. are not yet updated when qubit k is, so the suffix
        # products of the previous sweep's factors serve the whole sweep.
        for conj_k, tail_after, tail_k in ws.tail_steps:
            np.multiply(conj_k, tail_after, tail_k)
        env, v, scratch, left, right, norm, norm_re, floor, ok, ok_col = ws.buffers
        for f_k, conj_k, conj_row, lead, tail, prefix in ws.steps:
            np.matmul(lead, tail, env)
            # A degenerate environment leaves its row's factor untouched.
            np.greater(_row_norms(v, scratch, left, right, norm_re), floor, ok)
            np.divide(v, norm, f_k, where=ok_col)
            np.conjugate(f_k, conj_k)
            if prefix is not None:
                np.matmul(conj_row, lead, prefix)
        # env is the environment of the last factor w.r.t. all current
        # others, so the full overlap is free here.
        np.matmul(conj_row, env, ws.overlap)
        new_sq = np.abs(ws.overlap[:, 0, 0]) ** 2
        if (new_sq < sq - _MONOTONE_SLACK).any():
            raise MonotonicityError(
                f"sweep {sweep}: squared overlap decreased by {float(np.max(sq - new_sq))!r}"
            )
        newly = (np.abs(new_sq - sq) < tol) & (conv_at < 0)
        conv_at[newly] = sweep
        pending -= np.count_nonzero(newly)
        sq = new_sq
        if on_sweep is not None:
            on_sweep(sq)
        if pending == 0:
            break
        if pending == len(rows):
            continue  # no working start has converged, so none can retire
        retire = (conv_at >= 0) & (sq < sq.max() - margin)
        if retire.any():
            gone = rows[retire]
            sq_out[gone], conv_out[gone] = sq[retire], conv_at[retire]
            factors_out[gone] = ws.factors[:, retire].swapaxes(0, 1)
            keep = ~retire
            rows, sq, conv_at = rows[keep], sq[keep], conv_at[keep]
            ws.compact(keep)
    sq_out[rows], conv_out[rows] = sq, conv_at
    factors_out[rows] = ws.factors.swapaxes(0, 1)
    return sq_out, factors_out, conv_out, sweeps


class _Workspace:
    """The arrays one solve's sweeps write, allocated once for the (S, n, 2)
    start factors of an n-qubit state, and the views of them that a working
    batch of m starts reads.

    * ``factors`` and their conjugates, qubit-major as (n, S, 2), so that
      factor k of the working batch is one contiguous (m, 2) block.  The
      conjugates are derived when a batch is bound and kept current by each
      step.
    * Suffix products for k = 1..n, in one list of (S, 2**(n-k)) arrays
      allocated as ones: row s is conj(f_k) x ... x conj(f_{n-1}), so the
      last, for k = n, stays a column of ones.  There is none for k = 0.
    * Prefixes for k = 0..n-1, as (S, 1, 2**(n-k-1)) arrays: psi contracted
      with factors 0..k.  The last one is the overlap.
    * Step buffers: the (S, 2, 1) environment v, the (S, 2) scratch for
      conj(v) * v, the (S, 1) norm column, complex with a zero imaginary
      part, and the (S,) degeneracy mask.  numpy divides a complex array by
      a float one after casting the float to r + 0j, so dividing by the
      complex column gives the same bits and casts nothing.

    That is about 2 * S * 2**n complex elements.  The step for qubit k is
    nine calls, each writing into a buffer above: the environment matmul
    (the operation of :func:`groverian.states.contract_tail`), the four
    calls of :func:`_row_norms` into the norm column's real part, the mask,
    the masked divide into f_k, the conjugate into conj_k, and the prefix
    matmul (none for the last qubit).  Outputs are passed positionally,
    which numpy parses faster than ``out=``.  :meth:`bind` points the views
    at the first m rows; :meth:`compact` moves the kept rows there first.
    """

    def __init__(self, psi: np.ndarray, factors: np.ndarray) -> None:
        n_starts, n = factors.shape[0], factors.shape[1]
        c = np.complex128
        self._psi = psi
        self._factors = np.ascontiguousarray(factors.swapaxes(0, 1))
        self._conj = np.empty_like(self._factors)
        self._tails = [np.ones((n_starts, 2 ** (n - k)), dtype=c) for k in range(1, n + 1)]
        self._prefixes = [np.empty((n_starts, 1, 2 ** (n - k - 1)), dtype=c) for k in range(n)]
        self._env = np.empty((n_starts, 2, 1), dtype=c)
        self._scratch = np.empty((n_starts, 2), dtype=c)
        self._norm = np.zeros((n_starts, 1), dtype=c)
        self._ok = np.empty(n_starts, dtype=bool)
        self._floor = np.array(DEGENERATE_ENV_NORM)  # np.greater converts no Python float
        self.bind(n_starts)

    def compact(self, keep: np.ndarray) -> None:
        """Keep the working rows flagged in ``keep``, in order, and bind them."""
        kept = self.factors[:, keep]
        self._factors[:, : kept.shape[1]] = kept
        self.bind(kept.shape[1])

    def bind(self, m: int) -> None:
        """Build the views for a working batch of the first m rows.

        ``tail_steps`` lists, for k = n-1 down to 1, the operands of suffix
        product k and the (m, 2, R) view it is written into; ``steps`` lists,
        for each qubit k, its factor and conjugate blocks, the (m, 1, 2)
        conjugate row, the prefix it is contracted out of (psi for k = 0) as
        (., 2, R) rows, suffix product k+1 as an (m, R, 1) column, and the
        prefix it writes (None for the last qubit, whose prefix is the
        overlap, read off its environment).
        ``buffers`` holds the step buffers and their views: the environment
        and its (m, 2) rows, the scratch and the real parts of its two
        columns, the norm column and its real part, the 0-d degeneracy
        threshold, and the mask as (m,) and as an (m, 1) column.
        """
        n = self._factors.shape[0]
        self.factors = factors = self._factors[:, :m]
        conj = self._conj[:, :m]
        np.conjugate(factors, out=conj)
        tails = [t[:m] for t in self._tails]  # suffix product k is tails[k - 1]
        prefixes = [p[:m] for p in self._prefixes]
        leads = [p.reshape(p.shape[0], 2, -1) for p in [self._psi] + prefixes[:-1]]
        self.tail_steps = [
            (conj[k, :, :, np.newaxis], tails[k][:, np.newaxis, :], tails[k - 1].reshape(m, 2, -1))
            for k in range(n - 1, 0, -1)
        ]
        self.steps = [
            (
                factors[k],
                conj[k],
                conj[k, :, np.newaxis, :],
                leads[k],
                tails[k][:, :, np.newaxis],
                prefixes[k] if k + 1 < n else None,
            )
            for k in range(n)
        ]
        self.overlap = prefixes[-1]
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
    """2-norms of the rows of an (m, 2) complex array, written into the (m,)
    float array ``out``, which is returned.  ``scratch`` is an (m, 2) complex
    array, and ``left`` and ``right`` are the real parts of its two columns.

    Bit for bit ``np.linalg.norm(v, axis=1)``: that reduces
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
