"""Construction, contraction, and file-format tests for the state types."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groverian import (
    NormalizationError,
    ProductState,
    PureState,
    RealAngles,
    SingleQubitState,
    apply_single_qubit_unitary,
    basis_state,
    dicke,
    environment_vector,
    ghz,
    gghz,
    load_state_json,
    make_family,
    overlap,
    permute_qubits,
    random_state,
    real_angles_to_product,
    save_state_json,
    schmidt_pmax_2qubit,
    state_from_dict,
    state_to_dict,
    uniform,
    w,
)
from groverian.states import AMPLITUDE_BUDGET, batch_environment, batch_overlap, family_params

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def product_from_pairs(*pairs):
    return ProductState(tuple(SingleQubitState(c0, c1) for c0, c1 in pairs))


def random_product(n, rng):
    return ProductState(tuple(SingleQubitState(*(random_state(1, rng).amplitudes)) for _ in range(n)))


class TestFamilies:
    def test_ghz3_amplitudes(self):
        a = ghz(3).amplitudes
        expected = np.zeros(8)
        expected[0] = expected[7] = INV_SQRT2
        np.testing.assert_allclose(a, expected, atol=1e-15)

    def test_gghz_weight(self):
        a = gghz(3, a=0.8).amplitudes
        assert a[0] == pytest.approx(0.8, abs=1e-15)
        assert a[7] == pytest.approx(0.6, abs=1e-15)
        assert np.count_nonzero(a) == 2

    def test_gghz_degenerate_endpoint_is_basis_state(self):
        np.testing.assert_array_equal(gghz(3, a=1.0).amplitudes, basis_state(3, 0).amplitudes)

    def test_w3_support(self):
        a = w(3).amplitudes
        assert np.flatnonzero(a).tolist() == [1, 2, 4]
        np.testing.assert_allclose(a[[1, 2, 4]], 1.0 / math.sqrt(3.0))

    def test_dicke_support_and_reduction(self):
        a = dicke(4, 2).amplitudes
        idx = np.flatnonzero(a)
        assert [bin(int(x)).count("1") for x in idx] == [2] * 6
        np.testing.assert_allclose(a[idx], 1.0 / math.sqrt(6.0))
        np.testing.assert_array_equal(dicke(4, 1).amplitudes, w(4).amplitudes)
        for n in range(1, 11):
            for k in range(n + 1):
                support = [sum(1 << j for j in c) for c in itertools.combinations(range(n), k)]
                reference = np.zeros(2**n, dtype=np.complex128)
                reference[support] = 1.0 / math.sqrt(len(support))
                assert np.array_equal(dicke(n, k).amplitudes, reference), (n, k)

    def test_basis_and_uniform(self):
        assert basis_state(3, 5).amplitudes[5] == 1.0
        np.testing.assert_allclose(uniform(2).amplitudes, 0.5)

    @pytest.mark.parametrize(
        "name,params,field",
        [
            ("ghz", {"n": 0}, "n"),
            ("gghz", {"n": 3, "a": 1.5}, "a"),
            ("dicke", {"n": 4, "k": 5}, "k"),
            ("basis", {"n": 3, "x": 8}, "x"),
            ("nosuch", {"n": 3}, "family"),
            ("gghz", {"n": 3, "a": 0.8}, "no parameter 'a'"),  # a spec alias, not a parameter
            ("gghz", {"n": 3, "a2": 1.5}, "a2 must lie"),
            ("gghz", {"n": 3}, "needs a2"),
            ("dicke", {"k": 2}, "needs n"),
            ("dicke", {"n": 4, "k": 2.5}, "k must be an integer"),
            ("ghz", {"n": "3"}, "n must be an integer"),
        ],
    )
    def test_errors_name_the_offending_field(self, name, params, field):
        with pytest.raises(ValueError, match=field):
            make_family(name, **params)

    def test_make_family_takes_the_spec_parameters(self):
        np.testing.assert_array_equal(
            make_family("gghz", n=3, a2=0.64).amplitudes, gghz(3, a=0.8).amplitudes
        )
        np.testing.assert_array_equal(
            make_family("dicke", n=4.0, k=2.0).amplitudes, dicke(4, 2).amplitudes
        )
        np.testing.assert_array_equal(
            make_family("basis", n=np.int64(3), x=5).amplitudes, basis_state(3, 5).amplitudes
        )

    def test_all_families_are_normalized(self):
        states = [ghz(4), gghz(5, a=0.3), w(5), dicke(5, 3), basis_state(4, 9), uniform(4)]
        for psi in states:
            assert abs(np.sum(np.abs(psi.amplitudes) ** 2) - 1.0) <= 1e-10
            assert psi.is_real()


class TestStateSizeBudget:
    # 2**40 amplitudes cannot be allocated, so each builder must refuse n = 40
    # before it tries, with an error naming n and the budget.
    @pytest.mark.parametrize(
        "build",
        [
            lambda: ghz(40),
            lambda: gghz(40, a=0.6),
            lambda: w(40),
            lambda: dicke(40, 1),
            lambda: basis_state(40, 0),
            lambda: uniform(40),
            lambda: random_state(40, np.random.default_rng(0)),
            lambda: make_family("w", n=40),
        ],
    )
    def test_builders_refuse_before_allocating(self, build):
        with pytest.raises(ValueError, match="n = 40") as err:
            build()
        assert f"{AMPLITUDE_BUDGET}-element budget" in str(err.value)

    def test_boundary_checked_without_building(self):
        assert family_params("w", n=24) == {"n": 24}
        with pytest.raises(ValueError, match="budget"):
            family_params("w", n=25)


class TestConstruction:
    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match="length"):
            PureState(np.ones(3) / math.sqrt(3.0))

    def test_rejects_non_normalized_without_explicit_request(self):
        with pytest.raises(NormalizationError):
            PureState(np.array([1.0, 1.0]))
        psi = PureState.normalized(np.array([1.0, 1.0]))
        np.testing.assert_allclose(psi.amplitudes, INV_SQRT2)

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="finite"):
            PureState(np.array([math.nan, 0.0]))

    def test_amplitudes_are_immutable(self):
        psi = ghz(2)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0

    def test_n_qubits(self):
        assert ghz(3).n_qubits == 3
        assert uniform(5).n_qubits == 5

    def test_single_qubit_factor_norm_enforced(self):
        with pytest.raises(NormalizationError):
            SingleQubitState(1.0, 1.0)

    def test_real_angles_range_enforced(self):
        RealAngles((math.pi / 2, -math.pi / 2, 0.0))
        with pytest.raises(ValueError, match="thetas"):
            RealAngles((2.0, 0.0, 0.0))

    def test_product_to_state_matches_uniform(self):
        plus = SingleQubitState(INV_SQRT2, INV_SQRT2)
        phi = ProductState((plus, plus, plus))
        np.testing.assert_allclose(phi.to_state().amplitudes, uniform(3).amplitudes, atol=1e-15)


class TestValidationMessages:
    # Each raise here is reached by no other test; the message is pinned whole.
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: PureState.normalized([0, 0]), "amplitudes: cannot normalize the zero vector"),
            (lambda: ProductState(()), "factors: need at least one single-qubit factor"),
            (lambda: RealAngles(()), "thetas: need at least one angle"),
            (lambda: gghz(3, 1.5), "gghz: a must lie in [0, 1], got 1.5"),
            (
                lambda: apply_single_qubit_unitary(ghz(3), 3, np.eye(2)),
                "k: qubit index 3 outside [0, 3)",
            ),
            (
                lambda: apply_single_qubit_unitary(ghz(3), 0, np.eye(3)),
                "u: expected a 2x2 matrix, got shape (3, 3)",
            ),
            (lambda: state_from_dict([]), "state file: top level must be an object"),
            (
                lambda: state_from_dict({"n": 1}),
                'state file: required keys are "n" and "amplitudes"',
            ),
            (
                lambda: state_from_dict({"n": 1, "amplitudes": [[1e400, 0], [0, 0]]}),
                "state file: amplitudes must be finite",
            ),
        ],
        ids=[
            "normalize-zero", "empty-product", "empty-angles", "gghz-weight", "unitary-qubit",
            "unitary-shape", "file-list", "file-no-amplitudes", "file-inf",
        ],
    )
    def test_message(self, call, message):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


class TestOverlap:
    def test_ghz_with_zero_product_reads_first_amplitude(self):
        phi = product_from_pairs((1, 0), (1, 0), (1, 0))
        assert overlap(ghz(3), phi) == pytest.approx(INV_SQRT2, abs=1e-15)

    def test_ghz_with_diagonal_angles(self):
        phi = real_angles_to_product(RealAngles((math.pi / 4,) * 3))
        ov = overlap(ghz(3), phi)
        assert ov == pytest.approx(0.5, abs=1e-14)
        assert abs(ov) ** 2 == pytest.approx(0.25, abs=1e-14)

    def test_matching_basis_state(self):
        phi = product_from_pairs((0, 1), (1, 0), (0, 1))  # |101>
        assert overlap(basis_state(3, 5), phi) == pytest.approx(1.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            overlap(ghz(3), product_from_pairs((1, 0), (1, 0)))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_expanded_tensor_product(self, seed, n):
        rng = np.random.default_rng(seed)
        psi = random_state(n, rng)
        phi = random_product(n, rng)
        expected = np.vdot(phi.to_state().amplitudes, psi.amplitudes)
        assert abs(overlap(psi, phi) - expected) <= 1e-14

    def test_scaling_a_factor_by_a_real_sign_scales_the_overlap_by_it(self):
        rng = np.random.default_rng(7)
        psi = random_state(3, rng)
        phi = ProductState(
            tuple(SingleQubitState(*(random_state(1, rng).amplitudes)) for _ in range(3))
        )
        base = overlap(psi, phi)
        flipped = ProductState(
            (SingleQubitState(-phi.factors[0].c0, -phi.factors[0].c1),) + phi.factors[1:]
        )
        assert overlap(psi, flipped) == pytest.approx(-base, abs=1e-14)

    def test_scaling_a_factor_by_a_phase_conjugates_onto_the_overlap(self):
        # The product state enters as the bra, so a complex scale c on a factor
        # multiplies the overlap by conj(c); for real scales both readings agree.
        rng = np.random.default_rng(8)
        psi = random_state(2, rng)
        phi = ProductState(
            tuple(SingleQubitState(*(random_state(1, rng).amplitudes)) for _ in range(2))
        )
        base = overlap(psi, phi)
        c = np.exp(0.37j)
        scaled = ProductState(
            (SingleQubitState(c * phi.factors[0].c0, c * phi.factors[0].c1), phi.factors[1])
        )
        assert overlap(psi, scaled) == pytest.approx(np.conj(c) * base, abs=1e-14)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_simultaneous_qubit_permutation_is_invariant(self, seed, n):
        rng = np.random.default_rng(seed)
        psi = random_state(n, rng)
        factors = tuple(SingleQubitState(*(random_state(1, rng).amplitudes)) for _ in range(n))
        perm = rng.permutation(n).tolist()
        permuted_phi = ProductState(tuple(factors[p] for p in perm))
        assert overlap(permute_qubits(psi, perm), permuted_phi) == pytest.approx(
            overlap(psi, ProductState(factors)), abs=1e-12
        )


class TestEnvironmentVector:
    def test_only_first_basis_term_survives(self):
        phi = product_from_pairs((1, 0), (1, 0), (1, 0))
        v = environment_vector(ghz(3), phi, 0)
        np.testing.assert_allclose(v, [INV_SQRT2, 0.0], atol=1e-15)

    def test_hand_contraction_of_both_ghz_terms(self):
        phi = product_from_pairs((INV_SQRT2, INV_SQRT2), (INV_SQRT2, INV_SQRT2), (1, 0))
        v = environment_vector(ghz(3), phi, 2)
        np.testing.assert_allclose(v, [1.0 / (2.0 * math.sqrt(2.0))] * 2, atol=1e-15)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_defining_identity(self, seed, n):
        rng = np.random.default_rng(seed)
        psi = random_state(n, rng)
        phi = ProductState(
            tuple(SingleQubitState(*(random_state(1, rng).amplitudes)) for _ in range(n))
        )
        k = int(rng.integers(n))
        v = environment_vector(psi, phi, k)
        paired = np.conj(phi.factors[k].as_array()) @ v
        assert paired == pytest.approx(overlap(psi, phi), abs=1e-12)

    def test_invalid_qubit_index(self):
        phi = product_from_pairs((1, 0), (1, 0), (1, 0))
        with pytest.raises(ValueError, match="k"):
            environment_vector(ghz(3), phi, 3)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_reference(self, seed, n):
        # v_b is the overlap with factor k replaced by |b>, from expanded states.
        rng = np.random.default_rng(seed)
        psi = random_state(n, rng)
        phi = random_product(n, rng)
        basis = (SingleQubitState(1, 0), SingleQubitState(0, 1))
        for k in range(n):
            dense = [
                np.vdot(
                    ProductState(phi.factors[:k] + (e,) + phi.factors[k + 1:]).to_state().amplitudes,
                    psi.amplitudes,
                )
                for e in basis
            ]
            np.testing.assert_allclose(environment_vector(psi, phi, k), dense, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 10])
    def test_batched_rows_equal_single_start_calls(self, n):
        # A start's result must not depend on which other starts share its batch.
        rng = np.random.default_rng(n)
        psi = random_state(n, rng)
        z = rng.normal(size=(7, n, 2)) + 1j * rng.normal(size=(7, n, 2))
        factors = z / np.linalg.norm(z, axis=2, keepdims=True)
        t = psi.amplitudes[np.newaxis]
        overlaps = batch_overlap(t, factors)
        for s in range(len(factors)):
            assert np.array_equal(overlaps[s], batch_overlap(t, factors[s:s + 1])[0])
        for k in range(n):
            envs = batch_environment(t, factors, k)
            for s in range(len(factors)):
                phi = ProductState(tuple(SingleQubitState(*row) for row in factors[s]))
                assert np.array_equal(envs[s], batch_environment(t, factors[s:s + 1], k)[0])
                assert np.array_equal(envs[s], environment_vector(psi, phi, k))


class TestRealAnglesToProduct:
    @pytest.mark.parametrize(
        "thetas,index",
        [((0.0, 0.0, 0.0), 0), ((math.pi / 2,) * 3, 7)],
    )
    def test_axis_angles_give_basis_states(self, thetas, index):
        phi = real_angles_to_product(RealAngles(thetas))
        np.testing.assert_allclose(
            phi.to_state().amplitudes, basis_state(3, index).amplitudes, atol=1e-15
        )

    def test_mixed_angles(self):
        phi = real_angles_to_product(RealAngles((math.pi / 4, 0.0, 0.0)))
        expected = np.zeros(8)
        expected[0] = expected[4] = INV_SQRT2
        np.testing.assert_allclose(phi.to_state().amplitudes, expected, atol=1e-15)


class TestSchmidtPmax:
    def test_bell_state(self):
        assert schmidt_pmax_2qubit(ghz(2)) == pytest.approx(0.5, abs=1e-14)

    def test_weighted_superposition(self):
        assert schmidt_pmax_2qubit(gghz(2, a=0.8)) == pytest.approx(0.64, abs=1e-14)

    def test_product_state(self):
        assert schmidt_pmax_2qubit(basis_state(2, 1)) == pytest.approx(1.0, abs=1e-14)

    def test_wrong_qubit_count(self):
        with pytest.raises(ValueError, match="2 qubits"):
            schmidt_pmax_2qubit(ghz(3))


class TestUnitariesAndPermutations:
    def test_unitary_preserves_norm(self):
        rng = np.random.default_rng(3)
        psi = random_state(3, rng)
        u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(u)
        out = apply_single_qubit_unitary(psi, 1, q)
        assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) <= 1e-10

    def test_permute_round_trip(self):
        rng = np.random.default_rng(4)
        psi = random_state(4, rng)
        perm = [2, 0, 3, 1]
        inverse = np.argsort(perm).tolist()
        back = permute_qubits(permute_qubits(psi, perm), inverse)
        np.testing.assert_allclose(back.amplitudes, psi.amplitudes, atol=1e-15)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="perm"):
            permute_qubits(ghz(3), [0, 0, 1])


class TestStateFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        psi = random_state(3, rng)
        path = tmp_path / "state.json"
        save_state_json(psi, path)
        loaded = load_state_json(path)
        np.testing.assert_allclose(loaded.amplitudes, psi.amplitudes, atol=1e-15)

    def test_schema_shape(self):
        d = state_to_dict(ghz(2))
        assert d["n"] == 2
        assert len(d["amplitudes"]) == 4
        assert all(len(pair) == 2 for pair in d["amplitudes"])
        json.dumps(d)  # serializable as-is

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="entries"):
            state_from_dict({"n": 2, "amplitudes": [[1.0, 0.0]] * 3})

    def test_rejects_n_above_budget_before_sizing(self):
        # 2**20000 would take seconds to print; the budget check comes first
        with pytest.raises(ValueError, match=f"{AMPLITUDE_BUDGET}-element budget"):
            state_from_dict({"n": 20000, "amplitudes": []})

    def test_rejects_bool_n(self):
        with pytest.raises(ValueError, match="positive integer"):
            state_from_dict({"n": True, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]})

    @pytest.mark.parametrize(
        "amplitudes, index",
        [([[True, False], [False, False]], 0), ([[1.0, 0.0], [0.0, False]], 1)],
        ids=["all-bool", "one-bool"],
    )
    def test_rejects_bool_amplitudes(self, amplitudes, index):
        # JSON true/false load as Python bools, which are ints; they are not numbers here.
        message = rf"^state file: amplitudes\[{index}\] must be a \[re, im\] pair$"
        with pytest.raises(ValueError, match=message):
            state_from_dict({"n": 1, "amplitudes": amplitudes})

    def test_rejects_malformed_entries(self):
        with pytest.raises(ValueError, match="amplitudes"):
            state_from_dict({"n": 1, "amplitudes": [[1.0], [0.0, 0.0]]})

    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
    def test_rejects_an_int_beyond_float_range_as_not_finite(self, sign):
        # complex() overflows on it; a JSON float that large already reads as inf.
        data = {"n": 1, "amplitudes": [[sign * 10**400, 0], [0, 0]]}
        with pytest.raises(ValueError) as err:
            state_from_dict(data)
        assert str(err.value) == "state file: amplitudes must be finite"

    def test_normalization_gate(self):
        data = {"n": 1, "amplitudes": [[1.0, 0.0], [1.0, 0.0]]}
        with pytest.raises(NormalizationError):
            state_from_dict(data)
        psi = state_from_dict(data, normalize=True)
        np.testing.assert_allclose(psi.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_mild_norm_drift_is_accepted_and_cleaned(self):
        a = [[INV_SQRT2 * (1.0 + 4e-9), 0.0], [INV_SQRT2, 0.0]]
        psi = state_from_dict({"n": 1, "amplitudes": a})
        assert abs(np.sum(np.abs(psi.amplitudes) ** 2) - 1.0) <= 1e-15
