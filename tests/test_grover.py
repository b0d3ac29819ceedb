"""Grover iteration primitives and the entanglement trace."""

import math
import tracemalloc

import numpy as np
import pytest

from groverian import (
    GroverConfig,
    SolverConfig,
    TRACE_CSV_HEADER,
    basis_state,
    diffusion_apply,
    iterate_states,
    optimal_iterations,
    oracle_apply,
    run_trace,
    success_probability_closed_form,
    trace_to_csv,
    uniform,
)

FAST_SOLVER = SolverConfig(n_starts=8, rng_seed=1)


class TestOracle:
    def test_flips_marked_amplitude(self):
        out = oracle_apply(uniform(3), 5)
        expected = np.full(8, 1.0 / math.sqrt(8.0))
        expected[5] *= -1.0
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_marked_basis_state_gets_global_sign(self):
        out = oracle_apply(basis_state(3, 5), 5)
        np.testing.assert_allclose(out.amplitudes, -basis_state(3, 5).amplitudes, atol=1e-15)

    def test_involution(self):
        psi = uniform(3)
        np.testing.assert_allclose(
            oracle_apply(oracle_apply(psi, 5), 5).amplitudes, psi.amplitudes, atol=1e-15
        )

    def test_index_range(self):
        with pytest.raises(ValueError, match="marked"):
            oracle_apply(uniform(3), 8)


class TestDiffusion:
    def test_uniform_is_a_fixed_point(self):
        psi = uniform(4)
        np.testing.assert_allclose(diffusion_apply(psi).amplitudes, psi.amplitudes, atol=1e-15)

    def test_involution(self):
        psi = diffusion_apply(basis_state(3, 0))
        np.testing.assert_allclose(
            diffusion_apply(diffusion_apply(psi)).amplitudes, psi.amplitudes, atol=1e-14
        )

    def test_first_iteration_amplitude(self):
        out = diffusion_apply(oracle_apply(uniform(3), 5))
        assert out.amplitudes[5].real == pytest.approx(5.0 / (4.0 * math.sqrt(2.0)), abs=1e-14)
        assert abs(out.amplitudes[5]) ** 2 == pytest.approx(25.0 / 32.0, abs=1e-14)


class TestOptimalIterations:
    def test_known_counts(self):
        assert optimal_iterations(2) == 1
        assert optimal_iterations(3) == 2
        assert optimal_iterations(5) == 4

    def test_two_qubits_is_exact(self):
        assert success_probability_closed_form(2, 1) == pytest.approx(1.0, abs=1e-15)

    def test_requires_two_qubits(self):
        with pytest.raises(ValueError, match="n"):
            optimal_iterations(1)

    def test_largest_supported_register(self):
        theta = math.asin(2.0**-1023)
        assert abs(optimal_iterations(2046) - (math.pi / (4.0 * theta) - 0.5)) <= 1

    @pytest.mark.parametrize("n", [2047, 20000])
    def test_refuses_registers_past_float_range(self, n):
        # (2k+1) * theta overflows from n = 2047; theta is 0 from n = 2150.
        with pytest.raises(ValueError, match=rf"n: must lie in \[2, 2046\], got {n}"):
            optimal_iterations(n)

    @pytest.mark.parametrize("n", [0, 1, 2047])
    def test_closed_form_refuses_what_optimal_iterations_refuses(self, n):
        # (0, 0) once gave 1.0: one n check serves both closed forms.
        with pytest.raises(ValueError, match=rf"n: must lie in \[2, 2046\], got {n}"):
            success_probability_closed_form(n, 0)

    def test_closed_form_refuses_a_negative_count(self):
        # (3, -1) once gave sin(-theta)**2 = 0.125, the count-0 value.
        with pytest.raises(ValueError, match="k: must be >= 0, got -1"):
            success_probability_closed_form(3, -1)
        assert success_probability_closed_form(3, 0) == pytest.approx(0.125, abs=1e-15)


class TestIterateStates:
    @pytest.mark.parametrize("n,marked", [(3, 5), (5, 7)])
    def test_closed_form_success_up_to_three_periods(self, n, marked):
        kmax = 3 * optimal_iterations(n)
        states = iterate_states(n, marked, kmax)
        for k, psi in enumerate(states):
            simulated = abs(psi.amplitudes[marked]) ** 2
            assert abs(simulated - success_probability_closed_form(n, k)) < 1e-12

    @pytest.mark.parametrize("n,marked", [(3, 5), (5, 7)])
    def test_realness_two_value_structure_and_norm(self, n, marked):
        for psi in iterate_states(n, marked, 3 * optimal_iterations(n)):
            assert np.max(np.abs(psi.amplitudes.imag)) < 1e-12
            rest = np.delete(psi.amplitudes.real, marked)
            assert np.max(rest) - np.min(rest) < 1e-12
            assert abs(np.sum(np.abs(psi.amplitudes) ** 2) - 1.0) < 1e-12


class TestRunTrace:
    def test_three_qubit_trace(self):
        rows = run_trace(GroverConfig(3, 5, iterations=2, solver=FAST_SOLVER))
        assert [r.iteration for r in rows] == [0, 1, 2]
        assert rows[2].success_probability == pytest.approx(121.0 / 128.0, abs=1e-12)
        assert rows[0].groverian < 1e-6
        for r in rows:
            assert r.groverian == pytest.approx(math.sqrt(max(0.0, 1.0 - r.pmax)), abs=1e-12)

    def test_default_iteration_count_is_optimal(self):
        cfg = GroverConfig(3, 1, solver=FAST_SOLVER)
        assert cfg.resolved_iterations() == 2
        assert len(run_trace(cfg)) == 3

    def test_entanglement_rises_then_falls(self):
        for n, marked in ((3, 5), (5, 7)):
            k_star = optimal_iterations(n)
            rows = run_trace(GroverConfig(n, marked, iterations=k_star, solver=FAST_SOLVER))
            assert rows[k_star].groverian < rows[round(k_star / 2)].groverian

    def test_zero_iterations_single_row(self):
        rows = run_trace(GroverConfig(3, 5, iterations=0, solver=FAST_SOLVER))
        assert len(rows) == 1
        assert rows[0].groverian < 1e-6

    def test_iterates_are_not_all_held(self):
        # 101 iterates of 0.25 MiB each; only a few may be alive at once
        cfg = GroverConfig(14, 3, iterations=100, solver=SolverConfig(n_starts=1))
        tracemalloc.start()
        try:
            rows = run_trace(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 101
        assert peak < 4 * 2**20

    def test_config_validation(self):
        with pytest.raises(ValueError, match="n_qubits"):
            GroverConfig(1, 0)
        with pytest.raises(ValueError, match="budget"):
            GroverConfig(20000, 0)
        with pytest.raises(ValueError, match="marked_index"):
            GroverConfig(3, 8)
        with pytest.raises(ValueError, match="iterations"):
            GroverConfig(3, 0, iterations=-1)


class TestTraceCsv:
    def test_format(self):
        rows = run_trace(GroverConfig(3, 5, iterations=2, solver=FAST_SOLVER))
        text = trace_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == TRACE_CSV_HEADER
        assert len(lines) == 4
        assert lines[2].startswith("1,0.781250000000,")
        assert lines[3].startswith("2,0.945312500000,")
        # every float cell is in canonical 12-significant-digit form
        for line in lines[1:]:
            for cell in line.split(",")[1:]:
                assert cell == f"{float(cell):#.12g}"
