"""End-to-end command tests: output schemas, exit codes, determinism."""

import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from groverian import SolverConfig, ghz, pmax_w, random_state, refutation_report, save_state_json
from groverian.cli import _build_parser, flag_values, main, solver_config

import numpy as np

FAST = ["--seeds", "8"]

# The fields after "solutions" in `refute` stdout at the default resolution,
# identity samples and seed.
REFUTE_SCALARS = (
    '"flawed_max": 1.0, "true_max": 0.5, "hyperplane_min_residual": 3.14159265359,'
    ' "identity_deviation": 3.88578058619e-16}\n'
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestPmaxCommand:
    def test_ghz3(self, capsys):
        payload = run_json(capsys, "pmax", "--family", "ghz:3", *FAST)
        assert payload["pmax"] == pytest.approx(0.5, abs=1e-9)
        assert payload["converged"] is True
        assert set(payload) == {"pmax", "groverian", "converged", "sweeps_used", "optimizer"}
        assert len(payload["optimizer"]) == 3
        assert all(len(factor) == 2 and len(factor[0]) == 2 for factor in payload["optimizer"])

    def test_w4(self, capsys):
        payload = run_json(capsys, "pmax", "--family", "w:4", *FAST)
        assert payload["pmax"] == pytest.approx(0.421875, abs=1e-9)

    def test_gghz_squared_weight(self, capsys):
        payload = run_json(capsys, "pmax", "--family", "gghz:3,a2=0.64", *FAST)
        assert payload["pmax"] == pytest.approx(0.64, abs=1e-9)

    def test_from_file(self, capsys, tmp_path):
        path = tmp_path / "ghz.json"
        save_state_json(ghz(3), path)
        payload = run_json(capsys, "pmax", "--file", str(path), *FAST)
        assert payload["pmax"] == pytest.approx(0.5, abs=1e-9)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "pmax", "--family", "ghz:3", "--format", "csv", *FAST)
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "pmax,groverian,converged,sweeps_used"
        assert row.startswith("0.500000000000,0.707106781187,")


class TestAnalyticCommand:
    def test_gghz(self, capsys):
        payload = run_json(capsys, "analytic", "--family", "gghz:a2=0.5")
        assert payload["pmax"] == pytest.approx(0.5, abs=1e-12)
        assert payload["groverian"] == pytest.approx(0.7071068, abs=1e-6)

    def test_w5(self, capsys):
        payload = run_json(capsys, "analytic", "--family", "w:n=5")
        assert payload["pmax"] == pytest.approx(0.4096, abs=1e-12)

    def test_dicke_with_verification(self, capsys):
        payload = run_json(capsys, "analytic", "--family", "dicke:n=4,k=2", "--verify", *FAST)
        assert payload["pmax"] == pytest.approx(0.375, abs=1e-12)
        assert payload["verify_abs_diff"] < 1e-7

    def test_unknown_family_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "analytic", "--family", "cluster:n=4")
        assert code == 2
        assert "family" in err

    def test_without_verify_builds_no_state(self, capsys):
        tracemalloc.start()
        try:
            payload = run_json(capsys, "analytic", "--family", "w:n=20")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert payload["pmax"] == pytest.approx(pmax_w(20).pmax, abs=1e-12)
        assert peak < 2**20  # the n = 20 state alone holds 16 MiB


GGHZ_HALF = (0.5, "gghz(a_sq=0.5)")

# Each row: spec, then the outcome of pmax, analytic and analytic --verify
# (with --seeds 8): a nonzero exit code, or on success the pmax field (and
# the family_label field for analytic).
FAMILY_SPEC_MATRIX = [
    ("ghz", 2, GGHZ_HALF, GGHZ_HALF),
    ("ghz:3.0", 0.5, GGHZ_HALF, GGHZ_HALF),
    ("ghz:3.5", 2, 2, 2),
    ("ghz:0", 2, 2, 2),
    ("GHZ:3", 0.5, GGHZ_HALF, GGHZ_HALF),
    ("gghz:3,a=0.64", 0.64, (0.64, "gghz(a_sq=0.64)"), (0.64, "gghz(a_sq=0.64)")),
    ("gghz:5,0.3", 0.7, (0.7, "gghz(a_sq=0.3)"), (0.7, "gghz(a_sq=0.3)")),
    ("gghz:a2=0.5", 2, GGHZ_HALF, GGHZ_HALF),
    ("gghz:a2=0.5,3", 0.5, GGHZ_HALF, GGHZ_HALF),
    ("gghz:3,a2=1.5", 2, 2, 2),
    ("w", 2, 2, 2),
    ("w:1", 1.0, 2, 2),
    ("w:4,5", 2, 2, 2),
    ("dicke:4", 2, 2, 2),
    ("dicke:4,k=2.0", 0.375, (0.375, "dicke(n=4, k=2)"), (0.375, "dicke(n=4, k=2)")),
    ("basis:3,5", 1.0, 2, 2),
    ("uniform:3", 1.0, 2, 2),
    ("cluster:n=4", 2, 2, 2),
    ("ghz:3,n=3", 2, 2, 2),
    ("dicke:4,2,k=2", 2, 2, 2),
    ("gghz:3,a2=0.2,a2=0.3", 2, 2, 2),
    ("gghz:3,a=0.2,a2=0.3", 2, 2, 2),
    ("ghz:1", 1.0, 2, 2),  # a product state: the GHZ closed form needs n >= 2
    ("gghz:1,0.5", 1.0, 2, 2),
]
MODES = (("pmax",), ("analytic",), ("analytic", "--verify"))


@pytest.mark.parametrize(
    "mode,spec,expected",
    [
        pytest.param(mode, row[0], outcome, id=f"{' '.join(mode)} {row[0]}")
        for row in FAMILY_SPEC_MATRIX
        for mode, outcome in zip(MODES, row[1:])
    ],
)
def test_family_spec_matrix(capsys, mode, spec, expected):
    code, out, err = run_cli(capsys, *mode, "--family", spec, *FAST)
    if isinstance(expected, int):
        assert code == expected, err
        return
    assert code == 0, err
    payload = json.loads(out)
    if mode == ("pmax",):
        assert payload["pmax"] == pytest.approx(expected, abs=1e-11)
    else:
        assert (payload["pmax"], payload["family_label"]) == pytest.approx(expected, abs=1e-11)


class TestRefuteCommand:
    def test_report(self, capsys):
        payload = run_json(capsys, "refute", "--resolution", "41")
        assert payload["flawed_max"] == 1.0
        assert payload["true_max"] == pytest.approx(0.5, abs=1e-9)
        assert payload["identity_deviation"] < 1e-12
        assert payload["hyperplane_min_residual"] == pytest.approx(math.pi, abs=1e-11)
        assert len(payload["solutions"]) == 4

    def test_default_stdout_is_pinned(self, capsys):
        j = "[-1.11022302463e-16, 1.11022302463e-16, 1.11022302463e-16, -1.11022302463e-16]"
        thetas = [
            "[-0.785398163397, -0.785398163397, 0.785398163397]",
            "[-0.785398163397, 0.785398163397, -0.785398163397]",
            "[0.785398163397, -0.785398163397, -0.785398163397]",
            "[0.785398163397, 0.785398163397, 0.785398163397]",
        ]
        solutions = ", ".join(
            '{"theta": ' + t + ', "j": ' + j + ', "objective": 0.25}' for t in thetas
        )
        code, out, _ = run_cli(capsys, "refute")
        assert code == 0
        assert out == '{"solutions": [' + solutions + "], " + REFUTE_SCALARS

    def test_eps_below_rounding_stdout_is_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "refute", "--eps", "1e-17")
        assert code == 0
        assert out == '{"solutions": [], ' + REFUTE_SCALARS

    def test_resolution_over_the_budget_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "refute", "--resolution", "16777217")
        assert (code, out) == (2, "")
        assert err == (
            "error: grid_resolution: grid of 16777217 t3 values exceeds the"
            " 16777216-element budget\n"
        )

    def test_csv_rejected(self, capsys):
        code, _, err = run_cli(capsys, "refute", "--format", "csv")
        assert code == 2
        assert "--format" in err

    def test_identity_samples_cost_constant_memory(self):
        # The child's peak RSS is read by an intermediate process, so that no
        # earlier child of the test process counts.  Building all 10**6
        # samples at once peaked near 120 MB; streaming them needs about 35.
        paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        probe = (
            "import resource, subprocess, sys\n"
            "subprocess.run([sys.executable, '-m', 'groverian', 'refute',"
            " '--identity-samples', '1000000'], check=True, stdout=subprocess.DEVNULL)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 80 * 1024  # ru_maxrss is in KiB on Linux


class TestGroverTraceCommand:
    def test_trace_file_and_summary(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        payload = run_json(
            capsys,
            "grover-trace", "--n", "3", "--marked", "5", "--iterations", "2",
            "--output", str(out_path), *FAST,
        )
        assert payload["final_success_probability"] == pytest.approx(121.0 / 128.0, abs=1e-12)
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "iteration,success_probability,pmax,groverian"
        assert lines[-1].startswith("2,0.945312500000,")

    def test_zero_iterations(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        payload = run_json(
            capsys,
            "grover-trace", "--n", "3", "--marked", "0", "--iterations", "0",
            "--output", str(out_path), *FAST,
        )
        assert payload["final_groverian"] < 1e-6
        assert len(out_path.read_text().strip().split("\n")) == 2

    def test_unwritable_output_exits_4(self, capsys):
        code, _, err = run_cli(
            capsys,
            "grover-trace", "--n", "3", "--marked", "5",
            "--output", "/nonexistent-dir/trace.csv", *FAST,
        )
        assert code == 4


class TestExitCodes:
    def test_malformed_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run_cli(capsys, "pmax", "--file", str(path))
        assert code == 2

    def test_int_beyond_float_range_exits_2(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 1, "amplitudes": [[10**400, 0], [0, 0]]}))
        code, out, err = run_cli(capsys, "pmax", "--file", str(path))
        assert (code, out, err) == (2, "", "error: state file: amplitudes must be finite\n")

    @pytest.mark.parametrize(
        "spec, message",
        [(":3", "empty family name in ':3'"), ("ghz:3,,", "empty parameter in 'ghz:3,,'")],
    )
    def test_empty_family_spec_part_exits_2(self, capsys, spec, message):
        code, out, err = run_cli(capsys, "pmax", "--family", spec)
        assert (code, out, err) == (2, "", f"error: family: {message}\n")

    def test_wrong_length_exits_2(self, capsys, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"n": 2, "amplitudes": [[1.0, 0.0]]}))
        code, _, err = run_cli(capsys, "pmax", "--file", str(path))
        assert code == 2

    def test_non_normalized_exits_3_then_accepted_with_flag(self, capsys, tmp_path):
        path = tmp_path / "unnormalized.json"
        path.write_text(
            json.dumps({"n": 2, "amplitudes": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]})
        )
        code, _, _ = run_cli(capsys, "pmax", "--file", str(path))
        assert code == 3
        payload = run_json(capsys, "pmax", "--file", str(path), "--normalize", *FAST)
        assert payload["pmax"] == pytest.approx(0.5, abs=1e-9)

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "pmax", "--family", "ghz:3", "--frobnicate")
        assert code == 2

    def test_normalize_with_family_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "pmax", "--family", "ghz:3", "--normalize")
        assert code == 2
        assert out == ""
        assert "--normalize needs --file" in err

    def test_missing_state_source_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "pmax")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["pmax", "--family", "ghz:40"],
            ["analytic", "--family", "ghz:40"],  # checked although no state is built
            ["analytic", "--family", "gghz:40,a2=0.5"],
            ["grover-trace", "--n", "40", "--marked", "0", "--output", "/nonexistent-dir/trace.csv"],
            ["grover-trace", "--n", "20000", "--marked", "0", "--output", "/nonexistent-dir/trace.csv"],
        ],
    )
    def test_register_above_budget_exits_2(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "budget" in err

    @pytest.mark.parametrize("seeds", ["1", "2"])
    def test_real_restriction_on_complex_file_exits_2(self, capsys, tmp_path, seeds):
        # One seed is the basis start alone; it must be refused like more.
        path = tmp_path / "complex.json"
        save_state_json(random_state(3, np.random.default_rng(5)), path)
        code, out, err = run_cli(
            capsys, "pmax", "--file", str(path), "--restriction", "real", "--seeds", seeds
        )
        assert code == 2
        assert out == ""
        assert "real amplitudes" in err

    @pytest.mark.parametrize("tol", ["inf", "1", "nan", "0", "-1e-12"])
    def test_tol_outside_the_unit_interval_exits_2(self, capsys, tol):
        # At tol = inf W5 once printed pmax 0.2, its basis weight, as converged;
        # its P_max is 0.4096.
        code, out, err = run_cli(capsys, "pmax", "--family", "w:5", f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert f"tol: must be in (0, 1), got {float(tol)!r}" in err

    def test_bad_family_parameter_exits_2(self, capsys):
        for spec in ("gghz:3,a2=nope", "dicke:4", "w:", "gghz:3,a2=0.2,a2=0.3", "w:4,5"):
            code, _, _ = run_cli(capsys, "pmax", "--family", spec)
            assert code == 2, spec


SOLVER_FLAGS = {"--seeds", "--tol", "--max-sweeps", "--rng-seed", "--restriction"}


class TestFlagSurface:
    def test_each_subcommand_has_only_the_flags_it_reads(self):
        subparsers = next(a for a in _build_parser()._actions if a.choices)
        options = {
            name: {s for a in p._actions for s in a.option_strings if s.startswith("--")} - {"--help"}
            for name, p in subparsers.choices.items()
        }
        assert options == {
            "pmax": SOLVER_FLAGS | {"--format", "--normalize", "--family", "--file"},
            "analytic": SOLVER_FLAGS | {"--format", "--family", "--verify"},
            "refute": {"--rng-seed", "--resolution", "--eps", "--identity-samples"},
            "grover-trace": SOLVER_FLAGS | {"--n", "--marked", "--iterations", "--output"},
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["grover-trace", "--n", "3", "--marked", "0", "--output", "trace.csv", "--format", "csv"],
            ["refute", "--seeds", "4"],
            ["refute", "--normalize"],
            ["analytic", "--family", "w:5", "--normalize"],
        ],
    )
    def test_flag_of_another_subcommand_exits_2(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analytic", "--family", "w:5", "--seeds", "0"],  # checked without --verify
            ["refute", "--rng-seed", "-1", "--identity-samples", "10"],
            ["refute", "--rng-seed", str(2**64), "--identity-samples", "10"],
        ],
    )
    def test_unused_flag_is_still_checked(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, err

    def test_solver_flag_defaults_are_the_library_defaults(self):
        # The solver flags read their defaults from SolverConfig.
        args = _build_parser().parse_args(["pmax", "--family", "ghz:3"])
        assert solver_config(args) == SolverConfig()

    def test_refute_flag_defaults_are_the_library_defaults(self):
        # The refute flags read their defaults from refutation_report, and
        # flag_values hands every one of its parameters over.
        args = _build_parser().parse_args(["refute"])
        params = inspect.signature(refutation_report).parameters
        assert flag_values(args, params) == {name: p.default for name, p in params.items()}


class TestDeterminismAndRoundTrip:
    def test_identical_flags_give_byte_identical_output(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        save_state_json(random_state(3, np.random.default_rng(0)), path)
        argv = ["pmax", "--file", str(path), "--rng-seed", "11", *FAST]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    @pytest.mark.parametrize(
        "argv",
        [
            ["pmax", "--family", "ghz:3", *FAST],
            ["analytic", "--family", "w:n=4"],
            ["refute", "--resolution", "41"],
        ],
    )
    def test_json_round_trips(self, capsys, argv):
        _, out, _ = run_cli(capsys, *argv)
        assert out == json.dumps(json.loads(out)) + "\n"
