#!/usr/bin/env python3
"""Trace the Groverian measure through Grover search for 3 and 5 qubits.

Writes one CSV per register size over twice the optimal iteration count
(iteration, success probability, best product overlap, Groverian measure)
and prints where the entanglement peaks.

An invalid option, a value the solver refuses or a failed write prints
`error: ...` on stderr and exits as `groverian` does (2, or 4 for I/O);
--out-dir is created after the first solve, just before the first write.
"""
import argparse
import sys
from pathlib import Path

from groverian import GroverConfig, optimal_iterations, run_trace, trace_to_csv
from groverian.cli import STARTS, run, solver_config

CASES = [(3, 5), (5, 7)]  # (n_qubits, marked index)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, parents=[STARTS])
    ap.add_argument("--out-dir", default=".")
    args = ap.parse_args()
    solver = solver_config(args)
    out_dir = Path(args.out_dir)

    for n, marked in CASES:
        k_star = optimal_iterations(n)
        rows = run_trace(GroverConfig(n, marked, iterations=2 * k_star, solver=solver))
        path = out_dir / f"grover_trace_n{n}.csv"
        out_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(trace_to_csv(rows))

        peak = max(rows, key=lambda r: r.groverian)
        final = rows[k_star]
        print(f"n={n} marked={marked}: wrote {path}")
        print(f"  optimal iterations     : {k_star}")
        print(f"  success at optimum     : {final.success_probability:.12f}")
        print(f"  groverian peak         : {peak.groverian:.6f} at iteration {peak.iteration}")
        print(f"  groverian at optimum   : {final.groverian:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(run(main))
