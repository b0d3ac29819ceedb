"""Multi-start alternating maximizer: examples, oracles, and properties."""

import inspect
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from groverian import solver
from groverian import (
    MonotonicityError,
    ProductState,
    PureState,
    RealAngles,
    SingleQubitState,
    SolverConfig,
    apply_single_qubit_unitary,
    ascent_history,
    basis_state,
    dicke,
    gghz,
    ghz,
    gradient_real,
    groverian,
    objective_real,
    overlap,
    permute_qubits,
    pmax_alternating,
    pmax_gridsearch,
    pmax_w,
    random_single_qubit_unitary,
    random_state,
    real_angles_to_product,
    schmidt_pmax_2qubit,
    uniform,
    w,
)
from groverian.states import batch_overlap, contract_leading, contract_tail, tail_products


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"n_starts": 0}, "n_starts"),
            ({"max_sweeps": 0}, "max_sweeps"),
            ({"tol": 0.0}, "tol"),
            ({"rng_seed": -1}, "rng_seed"),
            ({"restriction": "bloch"}, "restriction"),
            # Squared overlaps lie in [0, 1]: at tol >= 1 every start would
            # count as converged after one sweep, and every basis state as
            # within tol of P_max.
            ({"tol": 1.0}, "tol"),
            ({"tol": math.inf}, "tol"),
            ({"tol": math.nan}, "tol"),
        ],
    )
    def test_validation(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**kwargs)

    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.n_starts == 32
        assert cfg.max_sweeps == 500
        assert cfg.tol == 1e-12


class TestAlternating:
    def test_ghz3(self):
        r = pmax_alternating(ghz(3))
        assert abs(r.pmax - 0.5) < 1e-9
        assert r.converged

    def test_uniform_is_product(self):
        assert abs(pmax_alternating(uniform(3)).pmax - 1.0) < 1e-12

    def test_w4(self):
        assert abs(pmax_alternating(w(4)).pmax - 27.0 / 64.0) < 1e-9

    def test_single_qubit_state_is_product(self):
        rng = np.random.default_rng(0)
        assert abs(pmax_alternating(random_state(1, rng)).pmax - 1.0) < 1e-12

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        psi = random_state(3, rng)
        assert _result_bytes(pmax_alternating(psi)) == _result_bytes(pmax_alternating(psi))

    def test_seed_independence_of_the_maximum(self):
        psi = w(3)
        values = {round(pmax_alternating(psi, SolverConfig(rng_seed=s)).pmax, 9) for s in range(5)}
        assert values == {round(4.0 / 9.0, 9)}

    def test_basis_start_guarantees_amplitude_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            psi = random_state(3, rng)
            r = pmax_alternating(psi, SolverConfig(n_starts=1))
            assert r.pmax >= float(np.max(np.abs(psi.amplitudes) ** 2)) - 1e-9

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_result_bounds(self, seed, n):
        rng = np.random.default_rng(seed)
        psi = random_state(n, rng)
        r = pmax_alternating(psi, SolverConfig(n_starts=8, rng_seed=seed))
        assert r.pmax <= 1.0 + 1e-12
        assert r.pmax >= float(np.max(np.abs(psi.amplitudes) ** 2)) - 1e-9
        assert abs(abs(overlap(psi, r.optimizer)) ** 2 - r.pmax) < 1e-10

    def test_real_plane_restriction_on_ghz(self):
        r = pmax_alternating(ghz(3), SolverConfig(restriction="real_plane"))
        assert abs(r.pmax - 0.5) < 1e-9

    def test_real_plane_is_a_lower_bound_on_real_states(self):
        # The real-plane restriction maximizes over real product states, and a
        # real state's closest product state can be complex.  From 100 real
        # states each at n = 3, 4, 5, 6 of one default_rng(11): state #83 at
        # n = 3 and state #96 at n = 4, the largest gap of the 400.
        rng = np.random.default_rng(11)
        states = {n: [random_state(n, rng, real=True) for _ in range(100)] for n in (3, 4, 5, 6)}
        for psi, full, real in ((states[3][83], 0.545196, 0.542979), (states[4][96], 0.410762, 0.333135)):
            r_full = pmax_alternating(psi).pmax
            r_real = pmax_alternating(psi, SolverConfig(restriction="real_plane")).pmax
            assert (round(r_full, 6), round(r_real, 6)) == (full, real)
        assert 7.7e-2 < r_full - r_real < 7.8e-2

    def test_real_plane_loses_pmax_on_real_symmetric_states(self):
        # psi = the normalized sum of c[k] * dicke(n, k), c = rng.normal(size=n + 1),
        # 20 draws each at n = 3..8 of one default_rng(12): draw 6 at n = 8
        # and draw 19 at n = 3, where the 201-point grid agrees.  Their full
        # optimizers are symmetric and complex.
        rng = np.random.default_rng(12)
        draws = {n: [rng.normal(size=n + 1) for _ in range(20)] for n in range(3, 9)}
        for n, i, full, real in ((8, 6, 0.415869029, 0.139154288), (3, 19, 0.501271808, 0.404079011)):
            psi = PureState.normalized(sum(c * dicke(n, k).amplitudes for k, c in enumerate(draws[n][i])))
            r = pmax_alternating(psi)
            r_real = pmax_alternating(psi, SolverConfig(restriction="real_plane")).pmax
            factors = r.optimizer.factor_matrix()
            assert (round(r.pmax, 9), round(r_real, 9)) == (full, real)
            assert np.allclose(factors, factors[0]) and abs(factors[0, 1].imag) > 0.6
        assert round(pmax_gridsearch(psi, 201), 6) == 0.404062

    def test_real_plane_rejects_complex_states(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match="real"):
            pmax_alternating(random_state(2, rng), SolverConfig(restriction="real_plane"))

    def test_real_plane_rejects_complex_states_with_one_start(self):
        # One start is the basis start alone, which draws no real-plane angles.
        psi = random_state(3, np.random.default_rng(5))
        with pytest.raises(ValueError, match="real amplitudes"):
            pmax_alternating(psi, SolverConfig(n_starts=1, restriction="real_plane"))


class TestStartDraw:
    # Rows 1.. of the start factors depend only on (n, n_starts, rng_seed,
    # restriction), so repeated solves of one configuration share one
    # cached, read-only draw.

    @pytest.mark.parametrize("restriction", solver.RESTRICTIONS)
    def test_a_hit_gives_the_bytes_of_a_miss(self, restriction):
        psi = random_state(5, np.random.default_rng(31), real=restriction == "real_plane")
        cfg = SolverConfig(rng_seed=31, restriction=restriction)
        solver._cached_draw.cache_clear()
        miss = pmax_alternating(psi, cfg)
        hit = pmax_alternating(psi, cfg)
        info = solver._cached_draw.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert _result_bytes(hit) == _result_bytes(miss)
        fresh = solver._draw(5, cfg.n_starts, cfg.rng_seed, restriction)
        assert _starts(psi, cfg)[1:].tobytes() == fresh.astype(complex).tobytes()

    def test_cached_rows_are_read_only(self):
        draw = solver._cached_draw(4, 8, 2, "full_bloch")
        assert draw is solver._cached_draw(4, 8, 2, "full_bloch")
        with pytest.raises(ValueError, match="read-only"):
            draw[0, 0, 0] = 1.0

    def test_a_solve_leaves_the_cached_draw_as_it_was(self):
        psi = w(4)
        cfg = SolverConfig(n_starts=8, rng_seed=4)
        draw = solver._cached_draw(4, 8, 4, "full_bloch")
        before = draw.tobytes()
        factors = _starts(psi, cfg)
        assert not np.shares_memory(factors, draw)
        solver._batched_ascent(psi.amplitudes, factors, 50, 1e-12)  # writes the factors
        pmax_alternating(psi, cfg)
        assert draw.tobytes() == before
        assert solver._cached_draw(4, 8, 4, "full_bloch") is draw

    def test_real_plane_refuses_a_complex_state_on_a_hit(self):
        cfg = SolverConfig(rng_seed=7, restriction="real_plane")
        pmax_alternating(w(3), cfg)  # the draw for (3, 32, 7, real_plane) is now cached
        before = solver._cached_draw.cache_info()
        with pytest.raises(ValueError, match="real amplitudes"):
            pmax_alternating(random_state(3, np.random.default_rng(7)), cfg)
        after = solver._cached_draw.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)  # refused before the lookup

    def test_a_draw_over_the_cap_is_not_kept(self):
        n = 3
        n_starts = solver._DRAW_CACHE_ELEMENTS // (2 * n) + 2
        assert (n_starts - 1) * n * 2 > solver._DRAW_CACHE_ELEMENTS
        solver._cached_draw.cache_clear()
        factors = _starts(ghz(n), SolverConfig(n_starts=n_starts, rng_seed=3))
        assert solver._cached_draw.cache_info().currsize == 0
        assert factors[1:].tobytes() == solver._draw(n, n_starts, 3, "full_bloch").tobytes()
        _starts(ghz(n), SolverConfig(n_starts=n_starts - 1, rng_seed=3))
        assert solver._cached_draw.cache_info().currsize == 1  # the largest draw kept


class TestReferenceStates:
    # The first state of each size drawn by random_state(n, default_rng(9082031))
    # with the sizes interleaved 8, 9, 10, as the benchmark's haar-large
    # reference sample draws them.  Expected (best_start, sweeps_used, pmax).
    GOLDEN = {
        8: (3, 35, 0.08804103949588919),
        9: (0, 47, 0.05243525961819398),
        10: (8, 42, 0.02796859893150278),
    }

    def test_golden_results(self):
        for n, psi in _golden_states().items():
            r = pmax_alternating(psi)
            best_start, sweeps_used, pmax = self.GOLDEN[n]
            assert (r.best_start, r.sweeps_used, r.converged) == (best_start, sweeps_used, True)
            assert abs(r.pmax - pmax) <= 1e-13

    # Ten states outside the benchmark's sample, random_state(n, default_rng(11))
    # for n = 5..10, 5..8, and the best start of each.
    OTHER_BEST_STARTS = [0, 0, 0, 5, 21, 3, 0, 1, 0, 0]

    def test_extrapolation_keeps_the_best_start_near_its_limit(self):
        # The result policy: pmax is at most tol below the full-batch solve,
        # which sweeps every start until the slowest one converges, and
        # within tol of the value the best start reaches at tol = 1e-17.
        rng = np.random.default_rng(11)
        others = [random_state(n, rng) for n in (5, 6, 7, 8, 9, 10, 5, 6, 7, 8)]
        golden = [self.GOLDEN[n][0] for n in (8, 9, 10)]
        cfg = SolverConfig()
        states = list(_golden_states().values()) + others
        for psi, best in zip(states, golden + self.OTHER_BEST_STARTS):
            r = pmax_alternating(psi, cfg)
            assert r.best_start == best
            assert r.pmax >= _full_batch_pmax(psi, cfg) - cfg.tol
            start = _starts(psi, cfg)[best:best + 1].copy()
            limit = solver._batched_ascent(psi.amplitudes, start, 10**4, 1e-17)[0][0]
            assert abs(limit - r.pmax) <= cfg.tol

    def test_tie_goes_to_the_lowest_start_within_tol(self, monkeypatch):
        # GHZ3's full batch without the bound, which neither returns the basis
        # state nor stops after sweep 1: the basis start (index 0) ends at
        # 0.4999999999999999 and start 7 at 0.5000000000000001; that rounding
        # must not pick the winner.
        sq = _full_batch(ghz(3), bound=np.inf)[0]
        assert int(np.argmax(sq)) == 7 and sq[7] > sq[0]
        r = TestCertifiedStop._without_the_stop(monkeypatch, ghz(3), SolverConfig())
        assert r.best_start == 0
        assert abs(r.pmax - 0.5) <= 1e-15


class TestLeaderStop:
    # A solve of at least 32 starts stops once its leader has converged, its
    # estimated remaining climb is below tol / 2, and no pending start's
    # value plus its estimated climb exceeds the leader's by more than tol.
    # Stopping as soon as the leader had converged ended each state below
    # more than tol short of its tol = 1e-17 value.

    def test_waits_for_a_slow_start_in_a_higher_basin(self):
        # State #7 of default_rng(2024), n = 12: start 23 converges at sweep
        # 35 on 0.0089992, while start 21 climbs to 0.0095453 by sweep 121.
        rng = np.random.default_rng(2024)
        psi = [random_state(5 + i % 8, rng) for i in range(8)][7]
        r = pmax_alternating(psi)
        assert abs(r.pmax - 0.009545314394335883) <= SolverConfig().tol

    @pytest.mark.parametrize(
        "seed, sizes, real, limit",
        [
            (2024, [5 + i % 8 for i in range(14)], False, 0.028415947910155354),
            (5, [6, 6], True, 0.1834554396594324),
        ],
        ids=["rng2024_13_n10", "rng5_real_1_n6"],
    )
    def test_linear_tails_end_within_tol_of_their_limits(self, seed, sizes, real, limit):
        # The last state drawn: #13 of default_rng(2024) at n = 10, and the
        # second real n = 6 state of default_rng(5).  Their tail gain ratio
        # is above 1/2, so the leader's own climb is what is left.
        rng = np.random.default_rng(seed)
        psi = [random_state(n, rng, real=real) for n in sizes][-1]
        assert abs(pmax_alternating(psi).pmax - limit) <= SolverConfig().tol

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 7),
        n_starts=st.one_of(st.integers(1, 9), st.just(32)),
        tol=st.sampled_from([1e-12, 1e-8]),
        restriction=st.sampled_from(solver.RESTRICTIONS),
    )
    @settings(max_examples=80, deadline=None)
    def test_never_more_than_tol_below_the_full_batch(self, seed, n, n_starts, tol, restriction):
        psi = random_state(n, np.random.default_rng(seed), real=restriction == "real_plane")
        cfg = SolverConfig(n_starts=n_starts, tol=tol, rng_seed=seed, restriction=restriction)
        assert pmax_alternating(psi, cfg).pmax >= _full_batch_pmax(psi, cfg) - tol

    @pytest.mark.xfail(strict=True, reason="open: a slowdown inside the stop rule's window")
    def test_a_slowdown_inside_the_window(self):
        # The leader's fast early phase is still in the window, so the rule
        # stops at sweep 11 on 0.5465418838, 1.96e-8 below the full batch's
        # 0.5465419035.
        psi = random_state(3, np.random.default_rng(463051501))
        cfg = SolverConfig(n_starts=38, tol=1e-8, rng_seed=463051501)
        assert pmax_alternating(psi, cfg).pmax >= _full_batch_pmax(psi, cfg) - cfg.tol

    def test_small_batches_wait_for_a_start_crawling_along_a_plateau(self):
        # With 2 starts, start 1 crawls along a plateau at 0.139 with
        # shrinking gains, then climbs to 0.22349 by sweep 41, past the 0.2173
        # at which start 0 converges.  The stop rule would end the solve at
        # sweep 9, so batches this small sweep to the slowest start.
        psi = random_state(6, np.random.default_rng(543454), real=True)
        cfg = SolverConfig(n_starts=2, rng_seed=543454, restriction="real_plane")
        r = pmax_alternating(psi, cfg)
        assert r.pmax >= _full_batch_pmax(psi, cfg) - cfg.tol
        assert r.best_start == 1 and r.pmax > 0.2234

    def test_stop_rule(self):
        # Seven sweeps of two rows, oldest first, as offsets below the last
        # values.  Row 0 leads at 0.5 and has converged; its two-sweep gains
        # 8e-13, 4e-13, 1e-13 give ratios 1/2 and 1/4, and with the larger
        # it has 1e-13 left to climb.  Row 1 is pending 1e-12 below it, with
        # gains 8e-13, 4e-13, 2e-13, so 2e-13 left.  With no bound
        # (certain = inf) only the leader stop can end the solve.
        tol = 1e-12
        now = np.array([0.5, 0.5 - 1e-12])

        def stop(leader, pending, conv_at=(5, -1), n_starts=32, certain=np.inf):
            recent = [now - [a, b] for a, b in zip(leader, pending)]
            return solver._may_stop(recent, np.array(conv_at), tol, n_starts, recent[-1].max(), certain)

        leader = [13e-13, 9e-13, 5e-13, 3e-13, 1e-13, 1e-13, 0.0]
        pending = [14e-13, 10e-13, 6e-13, 4e-13, 2e-13, 1e-13, 0.0]
        assert stop(leader, pending)
        assert not stop(leader[1:], pending[1:])  # fewer than seven values
        assert not stop(leader, pending, n_starts=31)  # a small batch
        assert not stop(leader, pending, (-1, -1))  # the leader is pending
        # Gains 16e-12, 8e-12, 4e-12 leave row 1 4e-12 to climb, which would
        # carry it 3e-12 past the leader; once converged, it no longer counts.
        climbing = [28e-12, 20e-12, 12e-12, 8e-12, 4e-12, 2e-12, 0.0]
        assert not stop(leader, climbing)
        assert stop(leader, climbing, (5, 5))
        # Gains that stop shrinking leave an unbounded climb.
        assert not stop(leader, [10e-13, 8e-13, 6e-13, 4e-13, 2e-13, 1e-13, 0.0])
        # The leader's own climb must stay below tol / 2: gains 4e-12, 2e-12,
        # 1e-12 leave 1e-12.
        assert not stop([7e-12, 5e-12, 3e-12, 2e-12, 1e-12, 5e-13, 0.0], pending, (5, 5))
        # The certified stop: a converged leader at or above certain ends the
        # solve at any batch size and window, whatever the climbs; a pending
        # one does not.  A 7-start batch without a bound never stops early.
        assert not stop(leader, pending, n_starts=7)
        for n_starts in (1, 7, 32):
            assert stop(leader, climbing, n_starts=n_starts, certain=0.5)
            assert stop(leader[1:], climbing[1:], n_starts=n_starts, certain=0.25)
            assert not stop(leader, climbing, n_starts=n_starts, certain=np.nextafter(0.5, 1.0))
            assert not stop(leader, climbing, (-1, -1), n_starts=n_starts, certain=0.25)

    # Each row: its last value, its six per-sweep gains (oldest first) and
    # whether it is pending.  Zero and negative steps give zero and negative
    # two-sweep gains, growing ones r >= 1, shrinking ones a finite climb.
    STEPS = [0.0, -1e-13, -1e-14, 1e-14, 1e-13, 4e-13, 3e-12, 1e-9]
    GEOMETRIC = st.builds(
        lambda first, ratio: [first * ratio**t for t in range(6)],
        st.sampled_from([0.0, -1e-14, 1e-14, 2e-13, 1e-12, 1e-11]),
        st.sampled_from([0.25, 0.5, 0.9, 1.0, 2.0]),
    )
    ROW = st.tuples(
        st.sampled_from([0.5, 0.5 - 3e-13, 0.5 - 1e-12, 0.5 - 2e-12, 0.3]),
        st.one_of(GEOMETRIC, st.lists(st.sampled_from(STEPS), min_size=6, max_size=6)),
        st.sampled_from([False, False, True]),
    )

    @given(
        rows=st.lists(ROW, min_size=1, max_size=6),
        window=st.sampled_from([6, 7, 7, 7]),
        tol=st.sampled_from([1e-12, 1e-11, 1e-10]),
        n_starts=st.sampled_from([7, 31, 32, 32, 32]),
        below=st.sampled_from([None, None, 0.0, 1e-13, 0.2]),
    )
    @example(  # one pending row climbing by growing steps (r >= 1), the leader's shrinking
        rows=[(0.5, [8e-13, 8e-13, 4e-13, 4e-13, 2e-13, 2e-13], False),
              (0.5 - 2e-12, [1e-13, 2e-13, 4e-13, 8e-13, 3e-12, 1e-11], True)],
        window=7, tol=1e-12, n_starts=32, below=None,
    )
    @example(  # zero and negative gains on both rows
        rows=[(0.5, [0.0] * 6, False), (0.5 - 3e-13, [-1e-13, 0.0, -1e-13, 0.0, 0.0, -1e-13], True)],
        window=7, tol=1e-12, n_starts=32, below=None,
    )
    @settings(max_examples=300, deadline=None)
    def test_decisions_follow_the_rule(self, rows, window, tol, n_starts, below):
        # certain is inf (no bound) or at most the leader's last value; each
        # condition of _may_stop's docstring that applies must decide.
        last = np.array([base for base, _, _ in rows])
        steps = np.array([gains for _, gains, _ in rows]).T  # (6, rows)
        cumulative = np.concatenate([np.cumsum(steps[::-1], axis=0)[::-1], np.zeros((1, len(rows)))])
        recent = list(last - cumulative)[7 - window:]
        conv_at = np.array([-1 if pending else 3 for _, _, pending in rows])
        sq = recent[-1]
        leader = int(np.flatnonzero(sq >= sq.max() - tol)[0])
        certain = np.inf if below is None else sq[leader] - below
        stops = solver._may_stop(recent, conv_at, tol, n_starts, sq.max(), certain)
        pending = conv_at < 0
        settles = n_starts >= solver._STOP_MIN_STARTS and window == solver._STOP_WINDOW
        if pending[leader] or below is None and not settles:
            assert not stops
        elif below is not None:
            assert stops
        else:
            # A two-sweep gain G_t <= 0 leaves no climb, and growing gains
            # (G_t >= G_{t-2} > 0) leave an unbounded one, on the leader or
            # on a pending row.
            now, before = sq - recent[-3], recent[-3] - recent[-5]
            read = pending | (np.arange(len(sq)) == leader)
            if np.any(read & (now >= before) & (before > 0.0)):
                assert not stops
            if np.all(now[read] <= 0.0):
                assert stops == (not np.any(sq[pending] - sq[leader] > tol))


class TestCertifiedStop:
    # A solve also stops once its converged leader reaches qubit 0's Schmidt
    # bound less tol, raised by a rounding margin; results keep their bytes
    # and only sweeps_used falls.

    @staticmethod
    def _without_the_stop(monkeypatch, psi, cfg):
        with monkeypatch.context() as m:
            m.setattr(solver, "_qubit0_bound", lambda amplitudes: np.inf)
            return pmax_alternating(psi, cfg)

    def test_bound_is_the_top_schmidt_value_and_above_pmax(self):
        eps = np.finfo(float).eps
        rng = np.random.default_rng(27)
        for i in range(240):
            n = 1 + i % 12
            psi = random_state(n, rng, real=i % 24 >= 12)
            exact = np.linalg.svd(psi.amplitudes.reshape(2, -1), compute_uv=False)[0] ** 2
            bound = solver._qubit0_bound(psi.amplitudes)
            margin = 3 * 2 ** (n - 1) + 8
            assert exact * (1 - 4 * eps) <= bound <= exact * (1 + (margin + 4) * eps)
            assert pmax_alternating(psi, SolverConfig(n_starts=4)).pmax <= bound

    CERTIFIED = (
        [ghz(n) for n in range(2, 11)]
        + [gghz(3, a=math.sqrt(0.3)), gghz(5, a=math.sqrt(0.65)), gghz(5, a=math.sqrt(0.05))]
        + [dicke(n, 0) for n in (2, 4, 6)]
        + [basis_state(5, 9), w(2)]
    )

    @pytest.mark.parametrize("n_starts", [7, 32])
    def test_certified_states_stop_after_one_sweep(self, monkeypatch, n_starts):
        # pmax_alternating returns these states' basis states unswept, so
        # the stop is pinned on the full batch it would sweep.
        cfg = SolverConfig(n_starts=n_starts)
        for psi in self.CERTIFIED:
            assert pmax_alternating(psi, cfg).sweeps_used == 0
            stopped = _picked_bytes(*_full_batch(psi, cfg), cfg.tol)
            plain = _picked_bytes(*_full_batch(psi, cfg, bound=np.inf), cfg.tol)
            assert stopped[4] == 1 < plain[4]
            assert stopped[:4] == plain[:4]

    def test_the_margin_limits_the_reach_at_the_default_tol(self):
        # The margin (3 * 2**(n-1) + 8) eps on a bound of 1/2 exceeds tol =
        # 1e-12 from n = 13 on, so GHZ solves there sweep on to convergence.
        # A summation with a smaller error bound would move these pins.
        assert [pmax_alternating(ghz(n)).sweeps_used for n in (11, 12, 13, 14)] == [0, 0, 3, 3]

    @pytest.mark.parametrize("n_starts", [1, 7, 32])
    def test_nothing_changes_at_tol_1e_17(self, monkeypatch, n_starts):
        # The margin keeps the bound less tol above every start's value, even
        # one rounded up past the exact maximum, such as GHZ3's 0.5000000000000001.
        cfg = SolverConfig(n_starts=n_starts, tol=1e-17)
        for psi in self.CERTIFIED + [w(3), dicke(4, 2)]:
            r = pmax_alternating(psi, cfg)
            assert _result_bytes(r) == _result_bytes(self._without_the_stop(monkeypatch, psi, cfg))

    def test_the_rule_reads_the_leader_not_top(self):
        # sqrt(0.5 + d)|000> + sqrt(0.5 - d)|111>: row 0 starts on |111> and
        # row 1 on |000>, local maxima at 0.5 - d and 0.5 + d, so both
        # converge at sweep 1, while row 2 climbs on.  At tol = 3d the leader
        # is row 0.  A bound of 0.5 + 3d puts top above bound - tol, 0.5, and the
        # leader below it, so the solve must go on; at 0.5 + 1.5d it stops.
        d = 1e-3
        psi = np.zeros(8)
        psi[0], psi[7] = math.sqrt(0.5 + d), math.sqrt(0.5 - d)
        starts = np.zeros((3, 3, 2), dtype=complex)
        starts[0, :, 1] = starts[1, :, 0] = 1.0
        starts[2] = [[math.cos(t), math.sin(t)] for t in (0.3, 0.7, 1.1)]
        for bound, stops in ((0.5 + 3 * d, False), (0.5 + 1.5 * d, True)):
            sq, _, conv_at, sweeps = solver._batched_ascent(psi, starts.copy(), 500, 3 * d, bound=bound)
            assert (sweeps == 1) == stops
            assert list(conv_at[:2]) == [1, 1] and abs(sq[1] - sq[0] - 2 * d) < 1e-12

    def test_ascent_history_keeps_its_length(self):
        # A single start ends when it converges, and the history passes no bound.
        history = ascent_history(ghz(3), _random_product(3, np.random.default_rng(3)))
        assert len(history) == 6
        assert abs(history[-1] - 0.5) <= 1e-15


class TestBasisStartAlone:
    # A state whose best basis weight is above qubit 0's bound less tol is
    # within tol of P_max at its basis state, which is returned unswept, with
    # no start drawn.

    QUALIFYING = (gghz(5, a=math.sqrt(0.3)), ghz(12), dicke(6, 0), w(2))

    # The benchmark's symmetric-small states that qualify: every GGHZ state
    # at n = 3 and 5, W(2) = Dicke(2, 1), and Dicke(n, 0) and Dicke(n, n).
    SYMMETRIC_SMALL = (
        [gghz(n, a=math.sqrt(a2)) for n in (3, 5) for a2 in np.round(np.arange(0.05, 1.0, 0.05), 2)]
        + [w(2), dicke(2, 1)]
        + [dicke(n, k) for n in range(2, 7) for k in (0, n)]
    )

    @staticmethod
    def _basis_product(psi):
        x = int(np.argmax(np.abs(psi.amplitudes) ** 2))
        bits = [(x >> (psi.n_qubits - 1 - i)) & 1 for i in range(psi.n_qubits)]
        return ProductState(tuple(SingleQubitState(1 - b, b) for b in bits))

    def test_a_qualifying_solve_draws_nothing_and_sweeps_nothing(self, monkeypatch):
        def no_ascent(*args, **kwargs):
            raise AssertionError("a qualifying solve swept")

        monkeypatch.setattr(solver, "_batched_ascent", no_ascent)
        for psi in self.QUALIFYING:
            before = solver._cached_draw.cache_info()
            pmax_alternating(psi)
            assert solver._cached_draw.cache_info() == before

    def test_a_qualifying_solve_returns_its_basis_state(self):
        for psi in self.QUALIFYING:
            r = pmax_alternating(psi)
            weight = np.max(np.abs(psi.amplitudes) ** 2)
            assert (r.sweeps_used, r.best_start, r.converged) == (0, 0, True)
            assert np.float64(r.pmax).tobytes() == weight.tobytes()
            basis = self._basis_product(psi)
            assert r.optimizer == basis
            assert r.optimizer.factor_matrix().tobytes() == basis.factor_matrix().tobytes()
        # W3's best basis weight 1/3 is far below its bound 2/3; at n = 13
        # the bound's margin exceeds tol, so no weight is above bound - tol.
        for other in (w(3), ghz(13)):
            assert pmax_alternating(other).sweeps_used > 0

    def test_within_tol_of_the_full_batch(self, monkeypatch):
        # The full batch: no bound, so neither the shortcut nor the certified stop.
        cfg = SolverConfig()
        for psi in TestCertifiedStop.CERTIFIED + self.SYMMETRIC_SMALL:
            r = pmax_alternating(psi, cfg)
            assert r.sweeps_used == 0
            assert r.pmax >= np.max(np.abs(psi.amplitudes) ** 2)
            full = TestCertifiedStop._without_the_stop(monkeypatch, psi, cfg)
            assert full.sweeps_used > 0
            assert abs(r.pmax - full.pmax) <= cfg.tol

    def test_real_plane_refuses_a_complex_state_first(self):
        # (|000> + i|111>) / sqrt(2) qualifies: its basis weight 1/2 is the bound.
        a = np.zeros(8, dtype=complex)
        a[0], a[7] = 1.0, 1j
        psi = PureState.normalized(a)
        assert 0.5 > solver._qubit0_bound(psi.amplitudes) - SolverConfig().tol
        with pytest.raises(ValueError, match="real-plane routines require real amplitudes"):
            pmax_alternating(psi, SolverConfig(restriction="real_plane"))


def _result_bytes(r):
    """Every field of a result as bytes, sweeps_used last."""
    factors = r.optimizer.factor_matrix().tobytes()
    return np.float64(r.pmax).tobytes(), factors, r.best_start, r.converged, r.sweeps_used


def _picked_bytes(sq, factors, conv_at, sweeps, tol):
    """:func:`_result_bytes` of the result pmax_alternating assembles from a
    full-batch solve's (squared overlaps, factors, convergence sweeps,
    sweeps), by the tie rule.  Bytes, not ==, which would take -0.0 for 0.0."""
    best = int(np.flatnonzero(sq >= np.max(sq) - tol)[0])
    factors = solver._phase_fixed(factors[best]).tobytes()
    return sq[best].tobytes(), factors, best, bool(conv_at[best] >= 0), sweeps


def _starts(psi, cfg=SolverConfig()):
    """The solver's full batch of start factors for psi."""
    x = int(np.argmax(np.abs(psi.amplitudes) ** 2))
    return solver._start_factors(psi.n_qubits, x, cfg)


def _full_batch(psi, cfg=SolverConfig(), bound=None):
    """(squared overlaps, factors, convergence sweeps, sweeps) of the batch
    pmax_alternating sweeps for psi unless its basis state certifies it, with
    the certified stop at ``bound`` (default qubit 0's bound)."""
    if bound is None:
        bound = solver._qubit0_bound(psi.amplitudes)
    return solver._batched_ascent(psi.amplitudes, _starts(psi, cfg), cfg.max_sweeps, cfg.tol, bound=bound)


def _random_product(n, rng):
    return ProductState(tuple(SingleQubitState(*random_state(1, rng).amplitudes) for _ in range(n)))


def _golden_states():
    rng = np.random.default_rng(9082031)
    return {n: random_state(n, rng) for n in (8, 9, 10)}


def _reference_ascent(amplitudes, factors, max_sweeps, tol, stop=True, certain=np.inf):
    """The batched ascent without start retirement: every start is swept
    until the solver's early stops hold (``solver._may_stop``, given
    ``certain``, a bound less tol) or every start has converged; with
    ``stop=False``, until the slowest one converges.  From sweep
    _EXTRAPOLATE_FROM on, each sweep ends with the extrapolation step,
    evaluated by the kernel's batch_overlap."""
    n_starts, n = factors.shape[0], factors.shape[1]
    psi = amplitudes[np.newaxis]
    sq = np.abs(batch_overlap(psi, factors)) ** 2
    conv_at = np.full(n_starts, -1, dtype=int)
    recent = [sq]
    sweeps = 0
    for sweep in range(1, max_sweeps + 1):
        sweeps = sweep
        previous = factors.copy()
        tails = tail_products(factors)
        prefix = psi
        for k in range(n):
            v = contract_tail(prefix, tails[k + 1])
            norms = np.linalg.norm(v, axis=1)
            ok = norms > solver.DEGENERATE_ENV_NORM
            safe = np.where(ok, norms, 1.0)[:, np.newaxis]
            factors[:, k] = np.where(ok[:, np.newaxis], v / safe, factors[:, k])
            if k + 1 < n:
                prefix = contract_leading(prefix, factors[:, k])
        new_sq = np.abs(contract_leading(v, factors[:, n - 1])[:, 0]) ** 2
        if np.any(new_sq < sq - solver._MONOTONE_SLACK):
            raise MonotonicityError(
                f"sweep {sweep}: squared overlap decreased by {float(np.max(sq - new_sq))!r}"
            )
        newly = (np.abs(new_sq - sq) < tol) & (conv_at < 0)
        conv_at[newly] = sweep
        if sweep >= solver._EXTRAPOLATE_FROM:
            trial = factors + sweep ** (1 / 3) * (factors - previous)
            trial = trial / np.linalg.norm(trial, axis=2, keepdims=True)
            trial_sq = np.abs(batch_overlap(psi, trial)) ** 2
            better = trial_sq > new_sq
            factors[better] = trial[better]
            new_sq[better] = trial_sq[better]
        sq = new_sq
        recent = (recent + [sq])[-solver._STOP_WINDOW:]
        if np.all(conv_at >= 0) or stop and solver._may_stop(recent, conv_at, tol, n_starts, sq.max(), certain):
            break
    return sq, factors, conv_at, sweeps


def _full_batch_pmax(psi, cfg):
    """pmax of the reference loop without the leader stop."""
    sq = _reference_ascent(psi.amplitudes, _starts(psi, cfg), cfg.max_sweeps, cfg.tol, stop=False)[0]
    return sq[np.flatnonzero(sq >= np.max(sq) - cfg.tol)[0]]


def _assert_matches_reference(psi, cfg=SolverConfig()):
    # The full batch is pinned even where the basis state certifies psi and
    # pmax_alternating sweeps nothing; elsewhere the result is pinned too.
    bound = solver._qubit0_bound(psi.amplitudes)
    want = _picked_bytes(
        *_reference_ascent(psi.amplitudes, _starts(psi, cfg), cfg.max_sweeps, cfg.tol, certain=bound - cfg.tol),
        cfg.tol,
    )
    assert _picked_bytes(*_full_batch(psi, cfg, bound), cfg.tol) == want
    r = pmax_alternating(psi, cfg)
    if r.sweeps_used:
        assert _result_bytes(r) == want


class TestStartRetirement:
    # Retiring converged starts far below the best must leave every result
    # bit-identical to the plain loop that sweeps all starts to the end.

    @pytest.mark.parametrize("tol", [1e-12, 1e-10, 1e-8, 1e-6])
    def test_golden_states_match_the_non_retiring_loop(self, tol):
        for psi in _golden_states().values():
            _assert_matches_reference(psi, SolverConfig(tol=tol))

    def test_other_configs_match_the_non_retiring_loop(self):
        _assert_matches_reference(ghz(3))
        rng = np.random.default_rng(3)
        _assert_matches_reference(
            random_state(6, rng, real=True), SolverConfig(restriction="real_plane")
        )
        _assert_matches_reference(random_state(7, rng), SolverConfig(n_starts=7, rng_seed=3))

    @pytest.mark.parametrize("restriction", solver.RESTRICTIONS)
    @pytest.mark.parametrize(
        "psi",
        [ghz(3), ghz(6), w(4), w(7), dicke(4, 2), dicke(6, 3), basis_state(3, 5), basis_state(5, 0)],
        ids=["ghz3", "ghz6", "w4", "w7", "dicke4_2", "dicke6_3", "basis3_5", "basis5_0"],
    )
    def test_exact_zero_amplitudes_match_byte_for_byte(self, psi, restriction):
        # Exact zero amplitudes give exact zero entries in environments and
        # factors, whose sign only a byte comparison pins.
        for n_starts in (1, 32):
            _assert_matches_reference(psi, SolverConfig(n_starts=n_starts, restriction=restriction))

    def test_large_states_match_the_non_retiring_loop(self):
        rng = np.random.default_rng(11)
        for n in (11, 12):
            _assert_matches_reference(random_state(n, rng))

    def test_loose_tol_where_retired_starts_would_climb_on(self):
        # At tol = 1e-6 (margin 1e-3) starts of these two states retire and,
        # swept on until the leader stop, would climb 1.5e-3 and 1.2e-2
        # further, more than the margin but not to the best: the frozen values
        # differ from the plain loop's while the result does not.  (State #3,
        # which climbed 7.0e-3 while the solve waited for its slowest start,
        # climbs 5.7e-6 before the stop.)
        rng = np.random.default_rng(2024)
        states = [random_state(5 + i % 8, rng) for i in range(29)]
        cfg = SolverConfig(tol=1e-6)
        for psi in (states[15], states[28]):
            _assert_matches_reference(psi, cfg)
            ref_sq = _reference_ascent(
                psi.amplitudes, _starts(psi, cfg), cfg.max_sweeps, cfg.tol
            )[0]
            sq = solver._batched_ascent(
                psi.amplitudes, _starts(psi, cfg), cfg.max_sweeps, cfg.tol
            )[0]
            assert np.max(ref_sq - sq) > 1e-3

    def test_retired_starts_leave_the_batch(self, monkeypatch):
        shapes = []
        real_norms = solver._row_norms

        def counting_norms(v, *buffers):
            shapes.append(v.shape)
            return real_norms(v, *buffers)

        monkeypatch.setattr(solver, "_row_norms", counting_norms)
        r = pmax_alternating(_golden_states()[8])
        # Each sweep takes one environment's norms per qubit, (m, 2) for m
        # working rows, and from _EXTRAPOLATE_FROM on the norms of every
        # trial factor, (8, m, 2), so the counts are not vacuous.
        rows = [shape[0] for shape in shapes if len(shape) == 2]
        trials = [shape for shape in shapes if len(shape) == 3]
        assert len(rows) == 8 * r.sweeps_used
        assert rows[0] == 32
        first = solver._EXTRAPOLATE_FROM
        assert trials == [(8, rows[8 * (s - 1)], 2) for s in range(first, r.sweeps_used + 1)]
        # Without retirement 32 rows go through each qubit step; retirement cut
        # that to 92 % on this state (1032 of 1120 row-sweeps).  Without the
        # leader stop the solve ran 1192 row-sweeps, and without extrapolation
        # as well 2218.
        assert sum(rows) == 8 * 1032
        assert sum(rows) < 0.93 * 32 * 8 * r.sweeps_used

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 7),
        n_starts=st.integers(1, 9),
        tol=st.sampled_from([1e-12, 1e-10]),
        restriction=st.sampled_from(solver.RESTRICTIONS),
    )
    @settings(max_examples=60, deadline=None)
    def test_small_batches_match_the_non_retiring_loop(self, seed, n, n_starts, tol, restriction):
        # n = 1 has no suffix products, one start never compacts, and several
        # starts retire and compact the workspace views again and again.
        # Looser tol is left out: exactness there is measured, not proven.
        psi = random_state(n, np.random.default_rng(seed), real=restriction == "real_plane")
        cfg = SolverConfig(n_starts=n_starts, tol=tol, rng_seed=seed, restriction=restriction)
        _assert_matches_reference(psi, cfg)

    def test_rows_do_not_depend_on_the_batch(self):
        # Row 0 meets a degenerate environment (its factor is kept), row 1 a
        # random start that never does; each must end as in its own one-row
        # run, so the masked update leaves the other rows' arithmetic alone.
        psi = basis_state(2, 0)
        degenerate = ProductState((SingleQubitState(1, 0), SingleQubitState(0, 1)))
        rng = np.random.default_rng(4)
        starts = [degenerate.factor_matrix(), _random_product(2, rng).factor_matrix()]
        sq, factors, conv_at, sweeps = solver._batched_ascent(
            psi.amplitudes, np.stack(starts), 500, 1e-12
        )
        for i, start in enumerate(starts):
            one = solver._batched_ascent(psi.amplitudes, start[np.newaxis].copy(), 500, 1e-12)
            assert one[3] == sweeps
            assert np.array_equal(one[0], sq[i:i + 1])
            assert np.array_equal(one[1], factors[i:i + 1])
            assert np.array_equal(one[2], conv_at[i:i + 1])

    def test_extrapolating_rows_do_not_depend_on_the_batch(self):
        # Past _EXTRAPOLATE_FROM the step's alpha depends on the sweep index
        # alone.  At tol = 0 no row converges or retires, so the batch and
        # each one-row run sweep the same number of times.
        rng = np.random.default_rng(8)
        for n in (3, 6):
            psi = random_state(n, rng)
            starts = _starts(psi, SolverConfig(n_starts=5, rng_seed=n))
            sweeps = solver._EXTRAPOLATE_FROM + 8
            sq, factors, conv_at, _ = solver._batched_ascent(
                psi.amplitudes, starts.copy(), sweeps, 0.0
            )
            assert (conv_at == -1).all()
            for i in range(len(starts)):
                one = solver._batched_ascent(psi.amplitudes, starts[i:i + 1].copy(), sweeps, 0.0)
                assert one[0].tobytes() == sq[i:i + 1].tobytes()
                assert one[1].tobytes() == factors[i:i + 1].tobytes()

    @pytest.mark.parametrize("n_starts", [1, 4])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_extrapolating_small_registers_match_the_non_retiring_loop(self, n, n_starts):
        # At n = 1 the one qubit step both reads psi and writes the overlap,
        # and the trial's prefix chain is that same step.  At tol = 0 no row
        # converges, so every sweep from _EXTRAPOLATE_FROM on extrapolates.
        psi = random_state(n, np.random.default_rng(n))
        starts = _starts(psi, SolverConfig(n_starts=n_starts, rng_seed=n))
        sweeps = solver._EXTRAPOLATE_FROM + 5
        got = solver._batched_ascent(psi.amplitudes, starts.copy(), sweeps, 0.0)
        want = _reference_ascent(psi.amplitudes, starts.copy(), sweeps, 0.0)
        assert got[3] == want[3] == sweeps
        for mine, ref in zip(got[:3], want[:3]):
            assert mine.tobytes() == ref.tobytes()


class TestSweepWorkspace:
    def test_row_norms_equal_the_library_norm(self):
        # The norms the step computes, in the buffers it uses, and its divide
        # by the complex norm column (zero imaginary part), each bit for bit
        # against np.linalg.norm and the divide by a float column.  Bytes,
        # not ==, which would take -0.0 for 0.0.
        rng = np.random.default_rng(20260)
        for m in (1, 2, 3, 7, 32, 33):
            scratch = np.empty((m, 2), dtype=complex)
            norm = np.zeros((m, 1), dtype=complex)
            buffers = (scratch, scratch.real[:, 0], scratch.real[:, 1], norm.real[:, 0])
            for _ in range(50):
                v = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
                v *= 10.0 ** rng.uniform(-300, 150, size=(m, 1))
                v[rng.random((m, 2)) < 0.2] = 0.0
                v.real[rng.random((m, 2)) < 0.1] = 0.0
                v.real[rng.random((m, 2)) < 0.1] = -0.0
                v.imag[rng.random((m, 2)) < 0.1] = -0.0
                norms = solver._row_norms(v, *buffers)
                assert norms.tobytes() == np.linalg.norm(v, axis=1).tobytes()
                ok = (norms > solver.DEGENERATE_ENV_NORM)[:, np.newaxis]
                by_complex, by_float = np.zeros_like(v), np.zeros_like(v)
                np.divide(v, norm, out=by_complex, where=ok)
                np.divide(v, norms[:, np.newaxis], out=by_float, where=ok)
                assert by_complex.tobytes() == by_float.tobytes()
                assert not norm.imag.any()

    def test_sweeps_allocate_no_state_sized_arrays(self):
        # n = 16 with 32 starts: the workspace is about 64 MiB, allocated
        # before the first sweep; every step writes into its buffers, so a
        # sweep allocates only its (m,) squared overlaps and convergence
        # masks and numpy's buffers for the suffix-product multiply
        # (257 KiB).  Allocating the suffix products per sweep cost 32 MiB.
        # The sweeps run past _EXTRAPOLATE_FROM, whose step evaluates its
        # trial factors in the workspace's prefix buffers.
        psi = random_state(16, np.random.default_rng(16))
        factors = _starts(psi, SolverConfig())
        sweeps = solver._EXTRAPOLATE_FROM + 2
        transients = []
        base = [0]

        def measure(sq):
            transients.append(tracemalloc.get_traced_memory()[1] - base[0])
            tracemalloc.reset_peak()
            base[0] = tracemalloc.get_traced_memory()[0]

        tracemalloc.start()
        try:
            solver._batched_ascent(psi.amplitudes, factors, sweeps, 1e-12, on_sweep=measure)
        finally:
            tracemalloc.stop()
        assert len(transients) == sweeps + 1  # the starting overlaps, then each sweep
        assert max(transients[1:]) < 2**20  # the first one includes the workspace

    def test_solve_peak_is_the_workspace(self):
        # About 2 * n_starts * 2**n complex elements: 64 MiB here, with
        # extrapolating sweeps.
        psi = random_state(16, np.random.default_rng(16))
        tracemalloc.start()
        try:
            pmax_alternating(psi, SolverConfig(max_sweeps=solver._EXTRAPOLATE_FROM + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 70 * 2**20


class TestRegisterSize:
    def test_w13_past_twelve_qubits(self):
        assert abs(pmax_alternating(w(13)).pmax - pmax_w(13).pmax) < 1e-9

    def test_start_budget_checked_before_allocating(self, monkeypatch):
        # At tol = 1e-6 ghz(20)'s basis state certifies it, which would sweep
        # nothing, but the check counts all 32 starts first.
        psi = ghz(20)
        cfg = SolverConfig(n_starts=32, tol=1e-6)
        assert 0.5 > solver._qubit0_bound(psi.amplitudes) - cfg.tol

        def no_starts(*args):
            raise AssertionError("start factors allocated before the budget check")

        monkeypatch.setattr(solver, "_start_factors", no_starts)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="n_starts") as err:
                pmax_alternating(psi, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "budget" in str(err.value)
        assert peak < 2**20  # psi alone holds 16 MiB


class TestMonotoneAscent:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_history_is_nondecreasing(self, seed):
        rng = np.random.default_rng(seed)
        psi = random_state(3, rng)
        history = ascent_history(psi, _random_product(3, rng))
        assert np.all(np.diff(history) >= -1e-12)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 8))
    @settings(max_examples=10, deadline=None)
    def test_extrapolated_history_is_nondecreasing(self, seed, n):
        # tol = 0 never converges, so every sweep from _EXTRAPOLATE_FROM on
        # runs the extrapolation step.
        rng = np.random.default_rng(seed)
        psi = random_state(n, rng)
        history = ascent_history(psi, _random_product(n, rng), max_sweeps=solver._EXTRAPOLATE_FROM + 20, tol=0.0)
        assert len(history) == solver._EXTRAPOLATE_FROM + 21
        assert np.all(np.diff(history) >= -1e-12)

    def test_degenerate_environment_keeps_previous_factor(self):
        # |00> against a start whose second factor is orthogonal to the live
        # branch: the first environment vanishes, later sweeps recover fully.
        psi = basis_state(2, 0)
        start = ProductState((SingleQubitState(1, 0), SingleQubitState(0, 1)))
        history = ascent_history(psi, start)
        assert history[0] == pytest.approx(0.0, abs=1e-15)
        assert history[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(history) >= -1e-12)

    def test_start_of_another_size_is_refused(self):
        start = ProductState((SingleQubitState(1, 0),) * 2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            ascent_history(ghz(3), start)

    def test_decrease_raises(self, monkeypatch):
        # W3, since a GHZ state's basis state certifies it and nothing is swept.
        monkeypatch.setattr(solver, "_row_norms", _inflated_norms(solver._row_norms))
        with pytest.raises(MonotonicityError, match="decreased"):
            pmax_alternating(w(3))

    def test_decrease_raises_under_python_dash_o(self):
        # python -O strips assert statements; the check must survive it.
        paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _DECREASE_UNDER_DASH_O],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["optimize=1", "raised"]


def _inflated_norms(real_norms):
    """Row norms scaled by 1e3, in the buffer the step divides by.  The
    starting overlap needs no norm, but every updated factor then has norm
    1e-3, so the first sweep lowers the squared overlap of W3 by a factor of
    1e18."""

    def inflated(v, *buffers):
        out = real_norms(v, *buffers)
        out *= 1e3
        return out

    return inflated


_DECREASE_UNDER_DASH_O = f"""
import sys
from groverian import MonotonicityError, pmax_alternating, solver, w
{inspect.getsource(_inflated_norms)}
solver._row_norms = _inflated_norms(solver._row_norms)
print(f"optimize={{sys.flags.optimize}}")
try:
    pmax_alternating(w(3))
except MonotonicityError:
    print("raised")
"""


class TestOracleAgreement:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_two_qubit_schmidt_value(self, seed):
        rng = np.random.default_rng(seed)
        psi = random_state(2, rng)
        r = pmax_alternating(psi, SolverConfig(rng_seed=seed))
        assert abs(r.pmax - schmidt_pmax_2qubit(psi)) < 1e-7

    def test_real_three_qubit_grid_lower_bound(self):
        rng = np.random.default_rng(99)
        for _ in range(5):
            psi = random_state(3, rng, real=True)
            assert pmax_alternating(psi).pmax >= pmax_gridsearch(psi, 61) - 1e-6

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            psi = random_state(3, rng)
            rotated = psi
            for k in range(3):
                rotated = apply_single_qubit_unitary(rotated, k, random_single_qubit_unitary(rng))
            assert abs(pmax_alternating(psi).pmax - pmax_alternating(rotated).pmax) < 1e-7

    def test_qubit_permutation_invariance(self):
        rng = np.random.default_rng(32)
        psi = random_state(4, rng)
        for perm in ([1, 0, 3, 2], [3, 2, 1, 0], [2, 3, 0, 1]):
            assert abs(
                pmax_alternating(psi).pmax - pmax_alternating(permute_qubits(psi, perm)).pmax
            ) < 1e-9


class TestRealObjective:
    def test_ghz_values(self):
        assert objective_real(ghz(3), RealAngles((0, 0, 0))) == pytest.approx(0.5, abs=1e-14)
        assert objective_real(ghz(3), RealAngles((math.pi / 4,) * 3)) == pytest.approx(0.25, abs=1e-14)
        assert objective_real(ghz(3), RealAngles((math.pi / 2,) * 3)) == pytest.approx(0.5, abs=1e-14)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_squared_overlap(self, seed):
        rng = np.random.default_rng(seed)
        psi = random_state(3, rng, real=True)
        thetas = RealAngles(tuple(rng.uniform(-math.pi / 2, math.pi / 2, 3)))
        direct = objective_real(psi, thetas)
        via_overlap = abs(overlap(psi, real_angles_to_product(thetas))) ** 2
        assert abs(direct - via_overlap) < 1e-14

    def test_rejects_complex_state(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="real"):
            objective_real(random_state(2, rng), RealAngles((0.0, 0.0)))

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError, match="angles"):
            objective_real(ghz(3), RealAngles((0.0, 0.0)))


class TestGradient:
    def test_stationary_points(self):
        np.testing.assert_allclose(gradient_real(ghz(3), RealAngles((0, 0, 0))), 0.0, atol=1e-14)
        np.testing.assert_allclose(
            gradient_real(ghz(3), RealAngles((math.pi / 4,) * 3)), 0.0, atol=1e-14
        )

    def test_against_central_differences(self):
        rng = np.random.default_rng(55)
        step = 1e-6
        for _ in range(100):
            psi = random_state(3, rng, real=True)
            thetas = rng.uniform(-math.pi / 2 + step, math.pi / 2 - step, 3)
            grad = gradient_real(psi, RealAngles(tuple(thetas)))
            for i in range(3):
                plus, minus = thetas.copy(), thetas.copy()
                plus[i] += step
                minus[i] -= step
                fd = (
                    objective_real(psi, RealAngles(tuple(plus)))
                    - objective_real(psi, RealAngles(tuple(minus)))
                ) / (2 * step)
                assert abs(grad[i] - fd) < 1e-6

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError, match="angles"):
            gradient_real(ghz(3), RealAngles((0.0, 0.0)))

    @pytest.mark.parametrize("f", [objective_real, gradient_real])
    def test_checks_realness_before_arity(self, f):
        with pytest.raises(ValueError, match="real amplitudes"):
            f(random_state(3, np.random.default_rng(1)), RealAngles((0.0, 0.0)))


class TestGridSearch:
    def test_ghz3(self):
        assert abs(pmax_gridsearch(ghz(3), 181) - 0.5) < 1e-3

    def test_basis_state_hit_exactly(self):
        assert pmax_gridsearch(basis_state(3, 0), 61) == 1.0

    def test_gghz(self):
        assert abs(pmax_gridsearch(gghz(3, a=0.8), 181) - 0.64) < 1e-3

    def test_is_a_lower_bound(self):
        rng = np.random.default_rng(77)
        for _ in range(3):
            psi = random_state(2, rng, real=True)
            assert pmax_gridsearch(psi, 61) <= schmidt_pmax_2qubit(psi) + 1e-12

    def test_equals_the_maximum_of_the_squared_grid(self):
        # n - 1 grid contractions, then the exact maximum over the last
        # angle, a0**2 + a1**2, bit for bit; never below the full grid's
        # max(a * a).  The n = 2 states with qubit 0 in |1> at resolution 571
        # put the maximum in the last grid row (t0 = pi/2, tied with row 0).
        rng = np.random.default_rng(61)
        states = [ghz(3), w(3), dicke(3, 1), gghz(3, a=0.8), uniform(3), basis_state(3, 5)]
        states += [random_state(n, rng, real=True) for n in (2, 3, 4) for _ in range(6)]
        cases = [(psi, resolution) for resolution in (9, 21, 57, 61) for psi in states]
        rng = np.random.default_rng(571)
        for _ in range(20):
            x, y = rng.standard_normal(2)
            cases.append((PureState(np.array([0.0, 0.0, x, y]) / math.hypot(x, y)), 571))
        for psi, resolution in cases:
            thetas = np.linspace(-math.pi / 2, math.pi / 2, resolution)
            c = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
            a = psi.amplitudes.real.reshape((2,) * psi.n_qubits)
            for _ in range(psi.n_qubits - 1):
                a = np.tensordot(a, c, axes=([0], [1]))
            value = pmax_gridsearch(psi, resolution)
            assert value == float(np.max(a[0] * a[0] + a[1] * a[1]))
            a = np.tensordot(a, c, axes=([0], [1]))
            squared = np.multiply(a, a, out=a)  # in place: 110 MB at n = 4, 61
            assert value >= float(np.max(squared)) - 1e-15

    def test_one_qubit_is_exact_and_leaves_psi_alone(self):
        # No contraction runs at n = 1, so the amplitudes must not be
        # squared in place.
        rng = np.random.default_rng(1)
        for psi in [basis_state(1, 1)] + [random_state(1, rng, real=True) for _ in range(10)]:
            before = psi.amplitudes.copy()
            assert abs(pmax_gridsearch(psi, 9) - 1.0) <= 1e-15
            np.testing.assert_array_equal(psi.amplitudes, before)

    def test_memory_below_one_grid(self):
        psi = random_state(4, np.random.default_rng(4), real=True)
        tracemalloc.start()
        try:
            pmax_gridsearch(psi, 41)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        full_grid_bytes = 41**4 * 8  # 22.6 MB; the blocked search peaks near 1.7 MB
        assert peak < full_grid_bytes / 8

    def test_guards(self):
        with pytest.raises(ValueError, match="resolution"):
            pmax_gridsearch(ghz(3), 2)
        # 2 * 2897**2 values is the first grid at n = 3 above the budget.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="budget"):
                pmax_gridsearch(ghz(3), 2897)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="real"):
            pmax_gridsearch(random_state(2, rng), 21)


class TestGroverianValue:
    def test_ghz3(self):
        assert abs(groverian(ghz(3)) - 0.70710678) < 1e-6

    def test_uniform5(self):
        assert groverian(uniform(5)) < 1e-6

    def test_w4(self):
        assert abs(groverian(w(4)) - math.sqrt(37.0) / 8.0) < 1e-6
