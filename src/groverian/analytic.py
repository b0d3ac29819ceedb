"""Closed-form best product-state overlaps for symmetric state families.

For these families the maximization over product states is known exactly:
generalized GHZ states attain max(a0**2, a1**2) on the nearer basis state,
and Dicke states (W states being the weight-1 case) attain the binomial
expression below on the symmetric product state.  The Groverian measure is
always sqrt(1 - P_max), vanishing exactly for separable states.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class AnalyticResult:
    """Closed-form P_max with its derived Groverian value.

    ``separable`` marks degenerate parameter endpoints (basis states) where
    P_max = 1; they are reported rather than rejected so parameter sweeps can
    include them.
    """

    pmax: float
    groverian: float
    family_label: str
    separable: bool = False


def _groverian(pmax: float) -> float:
    """sqrt(1 - pmax) with no range check, clamped at 0: a solver's P_max
    can exceed 1 by rounding (1.0000000000000018 on product states)."""
    return math.sqrt(max(0.0, 1.0 - pmax))


def pmax_gghz(a_sq: float) -> AnalyticResult:
    """Generalized GHZ with squared weight a_sq on |0...0>: pmax = max(a_sq, 1 - a_sq).

    Holds for any number of qubits n >= 2.  Endpoints a_sq in {0, 1} are
    separable basis states (pmax = 1, flagged).
    """
    a_sq = float(a_sq)
    if not 0.0 <= a_sq <= 1.0:
        raise ValueError(f"a_sq: must lie in [0, 1], got {a_sq!r}")
    pmax = max(a_sq, 1.0 - a_sq)
    return _result(pmax, f"gghz(a_sq={a_sq:g})", separable=a_sq in (0.0, 1.0))


def pmax_w(n: int) -> AnalyticResult:
    """W state of n qubits: pmax = ((n-1)/n)**(n-1)."""
    if n < 2:
        raise ValueError(f"n: W-state value needs n >= 2, got {n!r}")
    pmax = ((n - 1) / n) ** (n - 1)
    return _result(pmax, f"w(n={n})")


def pmax_dicke(n: int, k: int) -> AnalyticResult:
    """Dicke state of n qubits with excitation number k.

    pmax = C(n, k) * (k/n)**k * ((n-k)/n)**(n-k); reduces to the W value at
    k = 1 and to a separable basis state at k in {0, n}.
    """
    if n < 1:
        raise ValueError(f"n: must be >= 1, got {n!r}")
    if not 0 <= k <= n:
        raise ValueError(f"k: must lie in [0, {n}], got {k!r}")
    pmax = math.comb(n, k) * (k / n) ** k * ((n - k) / n) ** (n - k)
    return _result(pmax, f"dicke(n={n}, k={k})", separable=k in (0, n))


def _result(pmax: float, label: str, separable: bool = False) -> AnalyticResult:
    return AnalyticResult(
        pmax=pmax,
        groverian=_groverian(pmax),
        family_label=label,
        separable=separable,
    )
