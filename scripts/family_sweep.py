#!/usr/bin/env python3
"""Compare closed-form best product overlaps against the numerical solver.

Sweeps the generalized-GHZ weight for 3 and 5 qubits, W states up to 8
qubits, and all Dicke states up to 6 qubits; writes one CSV of
(family, parameters, closed form, solver value, |difference|).

An invalid option, a value the solver refuses or a failed write prints
`error: ...` on stderr and exits as `groverian` does (2, or 4 for I/O); the
CSV is written after every solve, so a refused value writes nothing.
"""
import argparse
import sys
from pathlib import Path

import numpy as np

from groverian import FAMILIES, make_family, pmax_alternating
from groverian.cli import STARTS, run, solver_config


def sweep_specs() -> list:
    """(family name, parameters) of every comparison, in CSV order."""
    a2s = np.round(np.arange(0.05, 1.0, 0.05), 2)
    return (
        [("gghz", {"n": n, "a2": float(a2)}) for n in (3, 5) for a2 in a2s]
        + [("w", {"n": n}) for n in range(2, 9)]
        + [("dicke", {"n": n, "k": k}) for n in range(2, 7) for k in range(n + 1)]
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, parents=[STARTS])
    ap.add_argument("--out", default="family_sweep.csv")
    args = ap.parse_args()
    cfg = solver_config(args)

    rows = [("family", "params", "closed_form", "solver", "abs_diff")]
    for name, params in sweep_specs():
        closed = FAMILIES[name].analytic(params).pmax
        solved = pmax_alternating(make_family(name, **params), cfg).pmax
        label = ";".join(f"{k}={v}" for k, v in params.items())
        rows.append((name, label, closed, solved, abs(closed - solved)))

    lines = [",".join(str(c) if isinstance(c, str) else f"{c:#.12g}" for c in row) for row in rows]
    Path(args.out).write_text("\n".join(lines) + "\n")

    worst = max(float(r[4]) for r in rows[1:])
    print(f"{len(rows) - 1} comparisons, worst |closed - solver| = {worst:.3e}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(run(main))
