#!/usr/bin/env python3
"""Produce the full angle-substitution analysis report as JSON.

Enumerates the points of the angle box where all four stationarity functions
vanish, and records the termwise ("flawed") maximum, the true maximum, the
hyperplane obstruction, and the rewrite-identity deviation.

The options, their defaults and the report are those of `groverian refute`;
an invalid value or a failed write prints `error: ...` on stderr and exits as
`groverian` does (2, or 4 for I/O).
"""
import argparse
import json
import sys
from pathlib import Path

from groverian import refutation_report
from groverian.cli import REFUTE, REPORT_PARAMS, flag_values, run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, parents=[REFUTE])
    ap.add_argument("--out", default="refutation_report.json")
    args = ap.parse_args()

    report = refutation_report(**flag_values(args, REPORT_PARAMS))
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")

    print(f"solutions found      : {len(report['solutions'])}")
    for sol in report["solutions"]:
        print(f"  theta = {[round(t, 9) for t in sol['theta']]}  objective = {sol['objective']:.9f}")
    print(f"flawed (termwise) max: {report['flawed_max']}")
    print(f"true max             : {report['true_max']}")
    print(f"gap                  : {report['flawed_max'] - report['true_max']}")
    print(f"hyperplane residual  : {report['hyperplane_min_residual']:.12f} (term-max system, min |.|)")
    print(f"identity deviation   : {report['identity_deviation']:.3e}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(run(main))
