"""Angle substitution, stationarity constraints, and the exact all-zero-J search."""

import itertools
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groverian import (
    RealAngles,
    TransformedAngles,
    constraint4_residual,
    constraint5_search,
    flawed_max_ghz,
    ghz,
    ghz_objective_3param,
    j_vector,
    objective_real,
    refutation_report,
    substitution_identity_check,
    transform_to_wxyz,
)
from groverian import refutation
from groverian.refutation import _IDENTITY_BLOCK, _objective3, _objective4

PI = math.pi
Q = math.pi / 4.0

angle_triples = st.tuples(
    st.floats(-PI / 2, PI / 2), st.floats(-PI / 2, PI / 2), st.floats(-PI / 2, PI / 2)
)


def shifted_cosine_j(w, x, y, z):
    """J in its shifted-cosine form, independent of :func:`j_vector`'s
    sin/cos form; works elementwise on arrays."""
    s2 = math.sqrt(2.0)
    return (-s2 * np.cos(Q - w), s2 * np.cos(Q + x), s2 * np.cos(Q + y), -s2 * np.cos(Q - z))


def hyperplane_residual(t):
    """w - x - y + z, zero on every image of a real angle triple."""
    w, x, y, z = t.as_tuple()
    return w - x - y + z


def objective4(t):
    """The substituted objective at a point of 4-space, on or off the hyperplane."""
    return float(_objective4(*t.as_tuple()))


class TestTransform:
    def test_diagonal_point(self):
        t = transform_to_wxyz(RealAngles((Q, Q, Q)))
        assert t.as_tuple() == pytest.approx((3 * Q, Q, Q, -Q), abs=1e-15)

    def test_origin(self):
        assert transform_to_wxyz(RealAngles((0, 0, 0))).as_tuple() == (0, 0, 0, 0)

    def test_single_axis(self):
        t = transform_to_wxyz(RealAngles((PI / 2, 0, 0)))
        assert t.as_tuple() == pytest.approx((PI / 2,) * 4, abs=1e-15)

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="angles"):
            transform_to_wxyz(RealAngles((0.0, 0.0)))


class TestHyperplane:
    @given(angle_triples)
    @settings(max_examples=200)
    def test_images_lie_on_the_hyperplane(self, thetas):
        t = transform_to_wxyz(RealAngles(thetas))
        # 1e-15 rounding allowance per transformed component sum
        assert abs(hyperplane_residual(t)) <= 4e-15

    def test_typical_images_stay_below_single_rounding_unit(self):
        rng = np.random.default_rng(5)
        worst = max(
            abs(hyperplane_residual(transform_to_wxyz(RealAngles(tuple(thetas)))))
            for thetas in rng.uniform(-PI / 2, PI / 2, size=(10**4, 3))
        )
        assert worst <= 1e-15

    def test_term_maximizing_point_is_off_by_pi(self):
        assert hyperplane_residual(TransformedAngles(-Q, Q, Q, -Q)) == pytest.approx(-PI, abs=1e-15)


class TestObjectives:
    def test_three_param_values(self):
        assert ghz_objective_3param(RealAngles((0, 0, 0))) == pytest.approx(0.5, abs=1e-15)
        assert ghz_objective_3param(RealAngles((Q, Q, Q))) == pytest.approx(0.25, abs=1e-15)
        assert ghz_objective_3param(RealAngles((PI / 2, 0, 0))) == pytest.approx(0.0, abs=1e-15)

    def test_four_param_values(self):
        t = transform_to_wxyz(RealAngles((Q, Q, Q)))
        assert objective4(t) == pytest.approx(0.25, abs=1e-14)
        assert objective4(TransformedAngles(-Q, Q, Q, -Q)) == pytest.approx(1.0, abs=1e-12)
        assert objective4(TransformedAngles(0, 0, 0, 0)) == pytest.approx(0.5, abs=1e-15)

    @given(angle_triples)
    @settings(max_examples=200)
    def test_rewrite_identity_pointwise(self, thetas):
        angles = RealAngles(thetas)
        assert ghz_objective_3param(angles) == pytest.approx(
            objective4(transform_to_wxyz(angles)), abs=1e-12
        )

    @given(angle_triples)
    @settings(max_examples=100)
    def test_agrees_with_general_real_objective(self, thetas):
        angles = RealAngles(thetas)
        assert abs(ghz_objective_3param(angles) - objective_real(ghz(3), angles)) < 1e-14

    def test_identity_check_over_samples(self):
        assert substitution_identity_check(10**4, rng_seed=3) < 1e-12
        assert abs(
            ghz_objective_3param(RealAngles((0, 0, 0)))
            - objective4(transform_to_wxyz(RealAngles((0, 0, 0))))
        ) < 1e-15

    def test_identity_check_validates_samples(self):
        with pytest.raises(ValueError, match="samples"):
            substitution_identity_check(0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_identity_check_validates_the_seed(self, seed):
        # The seed range of SolverConfig, so the library, `groverian refute`
        # and scripts/run_refutation.py refuse the same seeds.
        with pytest.raises(ValueError, match="rng_seed"):
            substitution_identity_check(10, rng_seed=seed)


def one_shot_identity_check(samples, rng_seed):
    """The identity check with every sample drawn at once."""
    rng = np.random.default_rng(rng_seed)
    t1, t2, t3 = rng.uniform(-PI / 2, PI / 2, size=(samples, 3)).T
    obj3 = _objective3(t1, t2, t3)
    obj4 = _objective4(t1 + t2 + t3, t1 + t2 - t3, t1 - t2 + t3, t1 - t2 - t3)
    return float(np.max(np.abs(obj3 - obj4)))


class TestStreamedIdentityCheck:
    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    @pytest.mark.parametrize(
        "samples", [1, 4095, 4096, 4097, 2 * 4096, 2 * 4096 + 1, 3 * 4096 + 17, 10**5]
    )
    def test_equals_the_one_shot_check(self, samples, seed):
        threads = threading.active_count()
        assert substitution_identity_check(samples, seed) == one_shot_identity_check(samples, seed)
        assert threading.active_count() == threads  # the helper was joined

    def test_memory_does_not_grow_with_samples(self):
        tracemalloc.start()
        try:
            substitution_identity_check(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20  # the one-shot check peaks near 80 MiB


class TestIdentityCheckThreads:
    """The caller and one helper thread split the blocks of the identity check;
    the value must not depend on which thread runs which block."""

    @pytest.mark.parametrize("stalled", ["caller", "helper"])
    def test_skewed_schedule_gives_the_one_shot_value(self, monkeypatch, stalled):
        # One thread stops on its first block until the other has checked
        # every other block, so one thread runs 1 block and the other 24.
        samples, seed = 10**5, 11
        n_blocks = -(-samples // _IDENTITY_BLOCK)
        started, released = threading.Event(), threading.Event()
        counts = {}

        def skewed_objective3(t1, t2, t3):
            is_caller = threading.current_thread() is threading.main_thread()
            role = "caller" if is_caller else "helper"
            first = role not in counts
            counts[role] = counts.get(role, 0) + 1
            if role == stalled and first:
                started.set()
                assert released.wait(timeout=60)
            elif first:
                assert started.wait(timeout=60)
            value = _objective3(t1, t2, t3)
            if role != stalled and counts[role] == n_blocks - 1:
                released.set()
            return value

        monkeypatch.setattr(refutation, "_objective3", skewed_objective3)
        got = substitution_identity_check(samples, seed)
        assert counts[stalled] == 1
        assert sum(counts.values()) == n_blocks
        assert got == one_shot_identity_check(samples, seed)

    def test_concurrent_callers_each_get_the_one_shot_value(self):
        # Two callers and their helpers make four threads on two cores; a short
        # switch interval interleaves them between almost every bytecode.
        cases = [(10**5, 0), (3 * 4096 + 17, 2**40)]
        barrier = threading.Barrier(len(cases))
        results = [None] * len(cases)

        def call(i, samples, seed):
            barrier.wait(timeout=60)
            results[i] = substitution_identity_check(samples, seed)

        callers = [
            threading.Thread(target=call, args=(i, *case)) for i, case in enumerate(cases)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert results == [one_shot_identity_check(*case) for case in cases]

    def test_exception_reaches_the_caller_and_no_thread_survives(self, monkeypatch):
        calls = []
        lock = threading.Lock()

        def failing_objective4(w, x, y, z):
            with lock:
                calls.append(threading.current_thread())
                if len(calls) == 5:
                    raise RuntimeError("objective4 failed on its 5th call")
            return _objective4(w, x, y, z)

        monkeypatch.setattr(refutation, "_objective4", failing_objective4)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="5th call"):
            substitution_identity_check(10**5)
        assert threading.active_count() == before
        # After the failure each thread finishes at most the block it holds;
        # neither takes the remaining ~20 of the 25 blocks.
        assert len(calls) <= 8

    @pytest.mark.parametrize("failing", ["caller", "helper"])
    def test_exception_in_either_thread_reaches_the_caller(self, monkeypatch, failing):
        # The other thread holds its first block until the failing one has
        # raised, so the failing thread is sure to run a block.
        raised = threading.Event()

        def failing_objective3(t1, t2, t3):
            is_caller = threading.current_thread() is threading.main_thread()
            if ("caller" if is_caller else "helper") == failing:
                raised.set()
                raise RuntimeError(f"objective3 failed in the {failing}")
            assert raised.wait(timeout=60)
            return _objective3(t1, t2, t3)

        monkeypatch.setattr(refutation, "_objective3", failing_objective3)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"in the {failing}"):
            substitution_identity_check(10**5)
        assert threading.active_count() == before


class TestJVector:
    def test_zero_at_diagonal_image(self):
        j = j_vector(TransformedAngles(3 * Q, Q, Q, -Q))
        assert j.max_abs() < 1e-15

    def test_origin_values(self):
        assert j_vector(TransformedAngles(0, 0, 0, 0)).as_tuple() == (-1.0, 1.0, 1.0, -1.0)

    def test_zero_at_term_maximizing_point(self):
        assert j_vector(TransformedAngles(-Q, Q, Q, -Q)).max_abs() < 1e-15

    @given(
        st.tuples(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
    )
    @settings(max_examples=200)
    def test_shifted_cosine_form_and_amplitude_bound(self, quad):
        j = j_vector(TransformedAngles(*quad))
        assert j.as_tuple() == pytest.approx(shifted_cosine_j(*quad), abs=1e-14)
        assert j.max_abs() <= math.sqrt(2.0) + 1e-14


class TestPairedConstraint:
    @pytest.mark.parametrize(
        "t",
        [
            TransformedAngles(0, 0, 0, 0),
            TransformedAngles(PI / 2, 0, 0, 0),
            transform_to_wxyz(RealAngles((Q, Q, Q))),
        ],
    )
    def test_zero_cases(self, t):
        assert constraint4_residual(t) < 1e-15

    @pytest.mark.parametrize(
        "thetas",
        [(0.0, 0.0, 0.0), (PI / 2, PI / 2, PI / 2), (-PI / 2, PI / 2, -PI / 2)],
    )
    def test_constraints_separate_at_true_maxima(self, thetas):
        # Stationarity in the original angles holds while the all-zero
        # constraint fails by a full unit: the two conditions are different.
        t = transform_to_wxyz(RealAngles(thetas))
        assert constraint4_residual(t) < 1e-12
        assert j_vector(t).min_abs() == pytest.approx(1.0, abs=1e-12)
        assert ghz_objective_3param(RealAngles(thetas)) == pytest.approx(0.5, abs=1e-15)


class TestFlawedMaximum:
    def test_value_is_exactly_one(self):
        assert flawed_max_ghz() == 1.0

    def test_witness_is_off_hyperplane(self):
        # The point where all four bracket terms peak reaches the termwise
        # maximum, but it is a full pi off the hyperplane.
        witness = TransformedAngles(-Q, Q, Q, -Q)
        assert hyperplane_residual(witness) == pytest.approx(-PI, abs=1e-15)
        assert objective4(witness) == pytest.approx(flawed_max_ghz(), abs=1e-12)

    def test_gap_to_true_maximum(self):
        assert flawed_max_ghz() - 0.5 == pytest.approx(0.5, abs=1e-15)

    def test_sign_resolved_family_never_reaches_the_hyperplane(self):
        # Shifting the witness's angles by multiples of 2 pi moves its residual
        # by multiples of 2 pi, so the residual stays an odd multiple of pi.
        for shifts in itertools.product(range(-2, 3), repeat=4):
            t = TransformedAngles(*(a + 2 * PI * k for a, k in zip((-Q, Q, Q, -Q), shifts)))
            assert abs(math.remainder(hyperplane_residual(t), 2 * PI)) == pytest.approx(PI, abs=1e-12)
        assert constraint5_search().hyperplane_min_residual == PI


class TestConstraintSearch:
    def test_finds_all_four_solutions(self):
        report = constraint5_search(grid_resolution=61, eps=1e-8)
        found = {tuple(np.sign(np.round(s.thetas, 6))) for s in report.solutions}
        assert found == {(1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)}
        for s in report.solutions:
            assert s.max_abs_j < 1e-8
            assert s.objective == pytest.approx(0.25, abs=1e-9)
            assert abs(abs(s.thetas[0]) - Q) < 1e-9

    def test_no_solution_approaches_the_true_maximum(self):
        report = constraint5_search(grid_resolution=61, eps=1e-8)
        assert report.best_solution_objective() <= 0.5 - 1e-6
        assert report.true_max == pytest.approx(0.5, abs=1e-9)
        assert report.hyperplane_min_residual == PI

    def test_resolution_guard(self):
        with pytest.raises(ValueError, match="grid_resolution"):
            constraint5_search(grid_resolution=5)
        with pytest.raises(ValueError, match="grid_resolution"):
            constraint5_search(grid_resolution=8)

    def test_resolution_over_the_budget_is_refused_before_the_grid(self):
        # One t3 value over the budget; each grid array would take 128 MiB.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^grid_resolution: grid of 16777217 t3 values"):
                constraint5_search(grid_resolution=2**24 + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("eps", [0.0, -1e-8, float("nan")])
    def test_eps_guard(self, eps):
        with pytest.raises(ValueError, match="eps"):
            constraint5_search(grid_resolution=9, eps=eps)

    def test_eps_below_rounding_reports_nothing(self):
        # The four points evaluate to max|J| ~ 1.1e-16, not to an exact zero.
        report = constraint5_search(grid_resolution=181, eps=1e-17)
        assert report.solutions == ()
        assert report.true_max == 0.5

    @pytest.mark.parametrize("resolution", [9, 41, 181])
    def test_resolution_changes_nothing(self, resolution):
        report = constraint5_search(grid_resolution=resolution, eps=1e-8)
        assert report.solutions == constraint5_search(grid_resolution=61, eps=1e-8).solutions
        assert len(report.solutions) == 4
        assert report.true_max == 0.5

    def test_grid_finds_no_zero_away_from_the_enumerated_points(self):
        # Each |J_i| moves by at most sqrt(2) per unit step of any t_j, so a
        # zero of max|J| is within (3h/2) sqrt(2) of a grid value at spacing
        # h; every grid point that low must sit next to an enumerated point.
        grid = np.linspace(-PI / 2, PI / 2, 61)
        h = grid[1] - grid[0]
        t1, t2, t3 = np.meshgrid(grid, grid, grid, indexing="ij")
        j = shifted_cosine_j(t1 + t2 + t3, t1 + t2 - t3, t1 - t2 + t3, t1 - t2 - t3)
        max_abs_j = np.max(np.abs(np.stack(j)), axis=0)
        low = np.stack([t1, t2, t3], axis=-1)[max_abs_j < 3.0 * math.sqrt(2.0) * h]
        points = np.array([s.thetas for s in constraint5_search(eps=1e-8).solutions])
        dist = np.max(np.abs(low[:, np.newaxis, :] - points[np.newaxis, :, :]), axis=2)
        assert np.all(np.min(dist, axis=1) <= 4.0 * h)
        # ... and every enumerated point has such a grid neighbour.
        assert np.all(np.min(dist, axis=0) <= 1.5 * h)


class TestReport:
    def test_schema_and_values(self):
        report = refutation_report(grid_resolution=41, eps=1e-8, identity_samples=10**4)
        assert set(report) == {
            "solutions",
            "flawed_max",
            "true_max",
            "hyperplane_min_residual",
            "identity_deviation",
        }
        assert report["flawed_max"] == 1.0
        assert report["true_max"] == pytest.approx(0.5, abs=1e-9)
        assert report["identity_deviation"] < 1e-12
        for sol in report["solutions"]:
            assert set(sol) == {"theta", "j", "objective"}
        json.dumps(report)  # serializable as-is

