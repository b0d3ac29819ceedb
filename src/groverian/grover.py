"""Grover search on a statevector with per-iteration entanglement tracking.

One iteration is the phase oracle (sign flip on the marked basis state)
followed by diffusion (inversion about the mean amplitude).  Starting from
the uniform superposition the dynamics stay real and confined to the
two-dimensional span of the marked state and the uniform rest, so the
success probability after k iterations is sin((2k+1) theta)**2 with
theta = arcsin(2**(-n/2)).

Each trace row carries the best product-state overlap of the iterate
(computed by the audited multi-start solver, not a symmetry shortcut) and the
derived Groverian measure, which rises from zero at the uniform start and
falls again as the state approaches the marked basis state.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .analytic import _groverian
from .solver import SolverConfig, pmax_alternating
from .states import PureState, _check_n, uniform


@dataclass(frozen=True)
class GroverConfig:
    """Search instance: register size, marked index, iteration count (None
    means the optimal count), and the solver settings used per trace row."""

    n_qubits: int
    marked_index: int
    iterations: int | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self) -> None:
        if self.n_qubits < 2:
            raise ValueError(f"n_qubits: must be >= 2, got {self.n_qubits!r}")
        _check_n(self.n_qubits, "n_qubits")  # before any 2**n
        if not 0 <= self.marked_index < 2**self.n_qubits:
            raise ValueError(
                f"marked_index: must lie in [0, {2**self.n_qubits}), got {self.marked_index!r}"
            )
        if self.iterations is not None and self.iterations < 0:
            raise ValueError(f"iterations: must be >= 0, got {self.iterations!r}")

    def resolved_iterations(self) -> int:
        return self.iterations if self.iterations is not None else optimal_iterations(self.n_qubits)


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    success_probability: float
    pmax: float
    groverian: float


TRACE_CSV_HEADER = "iteration,success_probability,pmax,groverian"

_MAX_ITERATIONS_N = 2046  # largest n for which (2k+1) * theta stays a finite float


def oracle_apply(psi: PureState, marked: int) -> PureState:
    """Flip the sign of the marked basis amplitude."""
    if not 0 <= marked < psi.amplitudes.size:
        raise ValueError(
            f"marked: index {marked!r} outside [0, {psi.amplitudes.size})"
        )
    a = psi.amplitudes.copy()
    a[marked] = -a[marked]
    return PureState(a)


def diffusion_apply(psi: PureState) -> PureState:
    """Invert every amplitude about the mean: a_x -> 2*mean(a) - a_x."""
    a = psi.amplitudes
    return PureState(2.0 * np.mean(a) - a)


def optimal_iterations(n: int) -> int:
    """Iteration count maximizing sin((2k+1) theta)**2 near pi/(4 theta) - 1/2,
    for 2 <= n <= 2046 (see :func:`_theta`)."""
    theta = _theta(n)
    k0 = round(math.pi / (4.0 * theta) - 0.5)
    candidates = [k for k in (k0 - 1, k0, k0 + 1) if k >= 0]
    return max(candidates, key=lambda k: (success_probability_closed_form(n, k), -k))


def success_probability_closed_form(n: int, k: int) -> float:
    """sin((2k+1) theta)**2 with theta = arcsin(2**(-n/2)): the success
    probability after k >= 0 iterations, for 2 <= n <= 2046 (see
    :func:`_theta`)."""
    if k < 0:
        raise ValueError(f"k: must be >= 0, got {k!r}")
    return math.sin((2 * k + 1) * _theta(n)) ** 2


def _theta(n: int) -> float:
    """arcsin(2**(-n/2)), the one check of n for the closed forms: a search
    needs n >= 2, from n = 2047 on (2k+1) * theta overflows a float, and
    from n = 2150 on theta itself underflows to 0."""
    if not 2 <= n <= _MAX_ITERATIONS_N:
        raise ValueError(f"n: must lie in [2, {_MAX_ITERATIONS_N}], got {n!r}")
    return math.asin(2.0 ** (-n / 2.0))


def iterate_states(n_qubits: int, marked: int, iterations: int) -> list[PureState]:
    """States after 0..iterations Grover iterations, starting from uniform."""
    return list(_iterates(n_qubits, marked, iterations))


def _iterates(n_qubits: int, marked: int, iterations: int) -> Iterator[PureState]:
    psi = uniform(n_qubits)
    yield psi
    for _ in range(iterations):
        psi = diffusion_apply(oracle_apply(psi, marked))
        yield psi


def run_trace(cfg: GroverConfig) -> list[TraceRow]:
    """One row per iterate (row 0 is the pre-iteration uniform state).  Each
    iterate is built from the previous one and dropped once it is solved."""
    rows = []
    for k, psi in enumerate(_iterates(cfg.n_qubits, cfg.marked_index, cfg.resolved_iterations())):
        pmax = pmax_alternating(psi, cfg.solver).pmax
        rows.append(
            TraceRow(
                iteration=k,
                success_probability=float(np.abs(psi.amplitudes[cfg.marked_index]) ** 2),
                pmax=pmax,
                groverian=_groverian(pmax),
            )
        )
    return rows


def trace_to_csv(rows: list[TraceRow]) -> str:
    """CSV text with 12 significant digits per value."""
    lines = [TRACE_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.iteration},{r.success_probability:#.12g},{r.pmax:#.12g},{r.groverian:#.12g}"
        )
    return "\n".join(lines) + "\n"
