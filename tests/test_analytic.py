"""Closed-form family values, cross-checked against the numerical solver."""

import math

import numpy as np
import pytest

from groverian import (
    FAMILIES,
    SolverConfig,
    dicke,
    gghz,
    pmax_alternating,
    pmax_dicke,
    pmax_gghz,
    pmax_w,
    w,
)
from groverian.states import family_params


class TestGGHZ:
    def test_weighted_value(self):
        assert pmax_gghz(0.64).pmax == pytest.approx(0.64, abs=1e-15)

    def test_balanced_value_and_groverian(self):
        r = pmax_gghz(0.5)
        assert r.pmax == pytest.approx(0.5, abs=1e-15)
        assert r.groverian == pytest.approx(0.70710678, abs=1e-8)

    def test_symmetry_under_weight_exchange(self):
        assert pmax_gghz(0.36).pmax == pytest.approx(0.64, abs=1e-15)

    def test_endpoints_flagged_separable(self):
        for a_sq in (0.0, 1.0):
            r = pmax_gghz(a_sq)
            assert r.pmax == 1.0
            assert r.separable
            assert r.groverian == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="a_sq"):
            pmax_gghz(1.2)


class TestW:
    def test_four_qubits(self):
        assert pmax_w(4).pmax == pytest.approx(27.0 / 64.0, abs=1e-15)

    def test_two_qubits_matches_bell(self):
        assert pmax_w(2).pmax == pytest.approx(pmax_gghz(0.5).pmax, abs=1e-15)

    def test_three_qubits_against_solver_oracle(self):
        solved = pmax_alternating(w(3)).pmax
        assert pmax_w(3).pmax == pytest.approx(solved, abs=1e-9)
        assert pmax_w(3).pmax == pytest.approx(4.0 / 9.0, abs=1e-15)

    def test_needs_two_qubits(self):
        with pytest.raises(ValueError, match="n"):
            pmax_w(1)

    def test_monotone_decreasing_in_n(self):
        values = [pmax_w(n).pmax for n in range(2, 13)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestDicke:
    def test_weight_one_reduces_to_w_exactly(self):
        for n in range(2, 9):
            assert pmax_dicke(n, 1).pmax == pmax_w(n).pmax

    def test_half_filling_against_solver_oracle(self):
        solved = pmax_alternating(dicke(4, 2)).pmax
        assert pmax_dicke(4, 2).pmax == pytest.approx(solved, abs=1e-9)
        assert pmax_dicke(4, 2).pmax == pytest.approx(0.375, abs=1e-15)

    def test_full_weight_is_separable(self):
        r = pmax_dicke(2, 2)
        assert r.pmax == 1.0
        assert r.separable

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="k"):
            pmax_dicke(4, 5)

    def test_needs_one_qubit(self):
        with pytest.raises(ValueError) as err:
            pmax_dicke(0, 0)
        assert str(err.value) == "n: must be >= 1, got 0"

    def test_result_invariant(self):
        for n, k in [(3, 1), (5, 2), (6, 3)]:
            r = pmax_dicke(n, k)
            assert 0.0 < r.pmax <= 1.0
            assert r.groverian == pytest.approx(math.sqrt(1.0 - r.pmax), abs=1e-15)


class TestSolverAgreement:
    # GGHZ converges in a handful of sweeps from the built-in basis start, so a
    # small start count keeps this sweep fast without weakening the check.
    CFG = SolverConfig(n_starts=4, rng_seed=7)

    def test_gghz_sweep_matches_solver(self):
        rng = np.random.default_rng(123)
        for a_sq in rng.uniform(0.01, 0.99, size=200):
            expected = pmax_gghz(a_sq).pmax
            for n in (3, 5):
                solved = pmax_alternating(gghz(n, a=math.sqrt(a_sq)), self.CFG).pmax
                assert abs(solved - expected) < 1e-7, (n, a_sq)

    def test_dicke_and_w_match_solver(self):
        for n in range(2, 7):
            for k in range(0, n + 1):
                solved = pmax_alternating(dicke(n, k)).pmax
                assert abs(solved - pmax_dicke(n, k).pmax) < 1e-7, (n, k)


class TestRegistry:
    # One point per family with a closed form: the form must describe the
    # state its own table entry builds, as the solver finds it.
    SAMPLES = {
        "ghz": {"n": 4},
        "gghz": {"n": 3, "a2": 0.3},
        "w": {"n": 5},
        "dicke": {"n": 5, "k": 2},
    }

    def test_every_closed_form_is_sampled(self):
        assert set(self.SAMPLES) == {name for name, f in FAMILIES.items() if f.closed_form}

    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_closed_form_matches_the_built_state(self, name):
        entry = FAMILIES[name]
        bound = family_params(name, **self.SAMPLES[name])
        solved = pmax_alternating(entry.build(**bound)).pmax
        assert abs(solved - entry.analytic(bound).pmax) < 1e-9

    @pytest.mark.parametrize(
        "name, bound",
        [("basis", {"n": 3, "x": 0}), ("basis", {"n": 1, "x": 0}), ("uniform", {"n": 3})],
        ids=["basis", "basis-one-qubit", "uniform"],
    )
    def test_family_without_a_closed_form_says_so(self, name, bound):
        with pytest.raises(ValueError, match="^family: no closed form"):
            FAMILIES[name].analytic(bound)
