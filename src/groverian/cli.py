"""Command-line front end.

Subcommands, each accepting only the flags it reads (the solver flags are
--seeds, --tol, --max-sweeps, --rng-seed and --restriction, checked even when
nothing is solved):
  pmax          numerical best product-state overlap of a state
                (--family, or --file with --normalize; solver flags, --format)
  analytic      closed-form values for the symmetric families
                (--family, --verify; solver flags, --format)
  refute        angle-substitution analysis report, JSON only
                (--resolution, --eps, --identity-samples, --rng-seed)
  grover-trace  Grover search trace with per-iteration entanglement
                (--n, --marked, --iterations, --output; solver flags)

States come from ``--family name:params`` (params positional or key=value,
e.g. ``ghz:3``, ``gghz:3,a2=0.64``, ``dicke:n=4,k=2``) or from a JSON file
``--file path`` with schema {"n": int, "amplitudes": [[re, im], ...]}.

Each flag that reaches the library has as its dest the parameter it sets, and
:func:`flag_values` is the one place that passes parsed flags to the library.

Exit codes: 0 success, 2 input/parse error, 3 normalization error,
4 I/O error; :func:`run` maps library errors to them for the CLI and the
experiment scripts.  All floating output uses 12 significant digits, and
identical flags (including --rng-seed) give byte-identical output.
"""
from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

from . import refutation
from .analytic import _groverian
from .grover import GroverConfig, run_trace, trace_to_csv
from .solver import SolverConfig, pmax_alternating
from .states import (
    FAMILIES,
    NormalizationError,
    PureState,
    family_params,
    load_state_json,
    lookup_family,
    make_family,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NORMALIZATION = 3
EXIT_IO = 4

_RESTRICTION_FLAG = {"full": "full_bloch", "real": "real_plane"}
REPORT_PARAMS = inspect.signature(refutation.refutation_report).parameters

# Flags shared with the scripts, declared once with the library's defaults.  Every
# parser built on them shares their Action objects, so none may set_defaults their dests.
STARTS = argparse.ArgumentParser(add_help=False)
STARTS.add_argument("--seeds", dest="n_starts", metavar="N", type=int, default=SolverConfig.n_starts,
                    help="number of solver starts (default %(default)s)")
STARTS.add_argument("--rng-seed", type=int, default=SolverConfig.rng_seed,
                    help="seed of the solver's random starts (default %(default)s)")

REFUTE = argparse.ArgumentParser(add_help=False)
REFUTE.add_argument("--rng-seed", type=int, default=REPORT_PARAMS["rng_seed"].default,
                    help="seed of the identity check's random triples (default %(default)s)")
REFUTE.add_argument("--resolution", dest="grid_resolution", metavar="RESOLUTION", type=int,
                    default=REPORT_PARAMS["grid_resolution"].default,
                    help="t3 grid points for the true maximum (default %(default)s)")
REFUTE.add_argument("--eps", type=float, default=REPORT_PARAMS["eps"].default,
                    help="report an all-zero-J point only if its max|J| is below this "
                         "(default %(default)s)")
REFUTE.add_argument("--identity-samples", type=int,
                    default=REPORT_PARAMS["identity_samples"].default,
                    help="random triples for the rewrite identity check (default %(default)s)")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and flag errors
        return int(exc.code or 0)
    return run(args.handler, args)


def run(work, *args) -> int:
    """Return the exit code ``work(*args)`` returns.  A ValueError or OSError
    it raises is printed as ``error: ...`` on stderr instead, and returns
    EXIT_NORMALIZATION for a NormalizationError, EXIT_INPUT for any other
    ValueError and EXIT_IO for an OSError."""
    try:
        return work(*args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NormalizationError):
            return EXIT_NORMALIZATION
        return EXIT_INPUT if isinstance(exc, ValueError) else EXIT_IO


# ----------------------------------------------------------------------------
# Subcommand handlers
# ----------------------------------------------------------------------------

def _cmd_pmax(args: argparse.Namespace) -> int:
    solver = solver_config(args)
    result = pmax_alternating(_load_state(args), solver)
    payload = {
        "pmax": result.pmax,
        "groverian": _groverian(result.pmax),
        "converged": result.converged,
        "sweeps_used": result.sweeps_used,
        "optimizer": [
            [[f.c0.real, f.c0.imag], [f.c1.real, f.c1.imag]]
            for f in result.optimizer.factors
        ],
    }
    _emit(payload, args.fmt)
    return EXIT_OK


def _cmd_analytic(args: argparse.Namespace) -> int:
    solver = solver_config(args)  # checked even without --verify
    name, params = _parse_family_spec(args.family)
    entry = FAMILIES[name]
    if "n" not in entry.closed_form_params:
        params.setdefault("n", 3)  # the closed form is the same at every n >= 2
    bound = family_params(name, **params)
    result = entry.analytic(bound)
    payload = {
        "pmax": result.pmax,
        "groverian": result.groverian,
        "family_label": result.family_label,
        "separable": result.separable,
    }
    if args.verify:
        solver_pmax = pmax_alternating(entry.build(**bound), solver).pmax
        payload["solver_pmax"] = solver_pmax
        payload["verify_abs_diff"] = abs(solver_pmax - result.pmax)
    _emit(payload, args.fmt)
    return EXIT_OK


def _cmd_refute(args: argparse.Namespace) -> int:
    _emit(refutation.refutation_report(**flag_values(args, REPORT_PARAMS)))
    return EXIT_OK


def _cmd_grover_trace(args: argparse.Namespace) -> int:
    cfg = GroverConfig(**flag_values(args, GroverConfig.__dataclass_fields__),
                       solver=solver_config(args))
    rows = run_trace(cfg)
    Path(args.output).write_text(trace_to_csv(rows))
    last = rows[-1]
    _emit(
        {
            "n": cfg.n_qubits,
            "marked": cfg.marked_index,
            "iterations": cfg.resolved_iterations(),
            "csv": str(args.output),
            "final_success_probability": last.success_probability,
            "final_pmax": last.pmax,
            "final_groverian": last.groverian,
        }
    )
    return EXIT_OK


# ----------------------------------------------------------------------------
# Parsing and shared plumbing
# ----------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    solver = argparse.ArgumentParser(add_help=False, parents=[STARTS])
    solver.add_argument("--tol", type=float, default=SolverConfig.tol,
                        help="solver convergence threshold per sweep (default %(default)s)")
    solver.add_argument("--max-sweeps", type=int, default=SolverConfig.max_sweeps,
                        help="solver sweep cap per start (default %(default)s)")
    solver.add_argument("--restriction", choices=sorted(_RESTRICTION_FLAG), default="full",
                        help="solver start distribution (default %(default)s)")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json",
                     help="stdout format (default %(default)s)")

    parser = argparse.ArgumentParser(
        prog="groverian",
        description="Groverian (geometric) entanglement toolkit for small qubit registers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pmax", parents=[solver, fmt],
                       help="numerically maximize squared product-state overlap")
    p.add_argument("--normalize", action="store_true", help="renormalize the --file state")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--family", help="state family spec, e.g. ghz:3 or gghz:3,a2=0.64")
    src.add_argument("--file", help="JSON state file path")
    p.set_defaults(handler=_cmd_pmax)

    p = sub.add_parser("analytic", parents=[solver, fmt],
                       help="closed-form values for the ghz/gghz/w/dicke families")
    p.add_argument("--family", required=True,
                   help="family spec, e.g. gghz:a2=0.5, w:n=5, dicke:n=4,k=2")
    p.add_argument("--verify", action="store_true",
                   help="cross-check the closed form against the solver")
    p.set_defaults(handler=_cmd_analytic)

    p = sub.add_parser("refute", parents=[REFUTE],
                       help="angle-substitution stationarity analysis report")
    p.set_defaults(handler=_cmd_refute)

    p = sub.add_parser("grover-trace", parents=[solver],
                       help="run Grover search, tracing entanglement per iteration")
    p.add_argument("--n", dest="n_qubits", metavar="N", type=int, required=True,
                   help="number of qubits")
    p.add_argument("--marked", dest="marked_index", metavar="MARKED", type=int, required=True,
                   help="marked basis index")
    p.add_argument("--iterations", type=int, default=None,
                   help="iteration count (default: optimal)")
    p.add_argument("--output", required=True, help="CSV output path")
    p.set_defaults(handler=_cmd_grover_trace)
    return parser


def flag_values(args: argparse.Namespace, names) -> dict:
    """The parsed value of each flag whose dest is one of ``names``, by dest."""
    return {name: getattr(args, name) for name in names if name in args}


def solver_config(args: argparse.Namespace) -> SolverConfig:
    """The SolverConfig of the solver flags in ``args``, defaulting any not declared."""
    values = flag_values(args, SolverConfig.__dataclass_fields__)
    if "restriction" in values:
        values["restriction"] = _RESTRICTION_FLAG[values["restriction"]]
    return SolverConfig(**values)


def _load_state(args: argparse.Namespace) -> PureState:
    if args.family is not None:
        if args.normalize:
            raise ValueError("--normalize needs --file (family states are built normalized)")
        name, params = _parse_family_spec(args.family)
        return make_family(name, **params)
    return load_state_json(args.file, args.normalize)


def _parse_family_spec(spec: str) -> tuple[str, dict]:
    """Parse ``name:tok,tok,...`` into the family name and its parameters by
    name: a bare token binds to the next parameter in the family's order, a
    ``key=value`` token by key (``a`` is an alias of ``a2``).  Numbers parse
    as int when possible; :func:`family_params` checks the rest."""
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    if not name:
        raise ValueError(f"family: empty family name in {spec!r}")
    order = lookup_family(name).params
    bound: dict[str, float] = {}
    n_positional = 0
    for token in rest.split(",") if rest.strip() else []:
        if not token.strip():
            raise ValueError(f"family: empty parameter in {spec!r}")
        key, is_named, value = token.partition("=")
        if is_named:
            key = key.strip().lower()
            if key == "a" and "a2" in order:
                key = "a2"
        elif n_positional < len(order):
            key, value = order[n_positional], token
            n_positional += 1
        else:
            raise ValueError(f"family: {name} takes at most {len(order)} parameter(s)")
        if key in bound:
            raise ValueError(f"family: parameter {key!r} given twice for {name}")
        bound[key] = _parse_number(value, spec)
    return name, bound


def _parse_number(text: str, spec: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"family: {text!r} is not a number in {spec!r}") from None


# ----------------------------------------------------------------------------
# Output formatting: floats reduced to 12 significant digits everywhere
# ----------------------------------------------------------------------------

def _round12(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _emit(payload: dict, fmt: str = "json") -> None:
    """Print the payload as one JSON line, or as a CSV header and one row of
    its non-list fields."""
    if fmt == "json":
        print(json.dumps(_round12(payload)))
        return
    row = {k: v for k, v in payload.items() if not isinstance(v, list)}
    print(",".join(row))
    print(",".join(
        ("true" if v else "false") if isinstance(v, bool)
        else f"{v:#.12g}" if isinstance(v, float)
        else str(v)
        for v in row.values()
    ))


if __name__ == "__main__":
    sys.exit(main())
