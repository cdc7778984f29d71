"""Partial time reversal, the Breuer map, PPT, the twirl, and the classifier."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotinv.maps import (
    BreuerNotApplicableError,
    PureProductState,
    Verdict,
    breuer_detects,
    breuer_map,
    classify,
    is_ppt,
    partial_time_reversal,
    pi_project,
    symmetrize,
    tensor_matrix_element,
)
from rotinv.radical import ExactRadical
from rotinv.states import (
    AlphaVector,
    BetaVector,
    SpinPair,
    alpha_to_beta,
    beta_to_alpha,
    check_state,
    maximally_mixed,
)
from rotinv import geometry


def random_state_beta(system: SpinPair, rng) -> BetaVector:
    raw = rng.random(system.n1) + 1e-3
    return alpha_to_beta(AlphaVector(system, raw / (system.norm_weights() @ raw)))


betas_4x6 = st.lists(
    st.floats(-1.5, 1.5, allow_nan=False), min_size=3, max_size=3
).map(lambda tail: BetaVector(SpinPair(4, 6), (1.0, *tail)))


class TestPartialTimeReversal:
    def test_sign_rule(self):
        beta = BetaVector(SpinPair(4, 6), (1.0, 0.2, 0.3, -0.1))
        assert partial_time_reversal(beta).coords == (1.0, -0.2, 0.3, 0.1)

    @given(beta=betas_4x6)
    def test_involution(self, beta):
        assert partial_time_reversal(partial_time_reversal(beta)) == beta

    @given(beta=betas_4x6)
    def test_symmetrize_projects(self, beta):
        sym = symmetrize(beta)
        assert sym.coords[1] == 0.0 and sym.coords[3] == 0.0
        assert symmetrize(sym) == sym
        assert partial_time_reversal(sym) == sym


class TestBreuerMap:
    def test_identity_image(self):
        for system in (SpinPair(4, 4), SpinPair(6, 9), SpinPair(5, 5)):
            beta = alpha_to_beta(maximally_mixed(system))
            image = breuer_map(beta)
            expected = np.zeros(system.n1)
            expected[0] = system.n1 - 2
            assert np.abs(image.as_array() - expected).max() < 1e-14

    def test_coefficient_rule(self):
        beta = BetaVector(SpinPair(6, 6), (1.0, 0.3, -0.2, 0.1, 0.4, -0.5))
        image = breuer_map(beta)
        assert image.coords == (4.0, 0.0, 0.4, 0.0, -0.8, 0.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            breuer_map(BetaVector(SpinPair(4, 4), (0.5, 0, 0, 0)))

    def test_cannot_normalize_n1_2(self):
        # the image is traceless for n1 = 2, so it has no trace-one form
        beta = alpha_to_beta(maximally_mixed(SpinPair(2, 4)))
        assert breuer_map(beta).coords[0] == 0.0

    @given(beta=betas_4x6)
    def test_invariant_under_time_reversal_of_input(self, beta):
        lhs = breuer_map(beta)
        assert breuer_map(partial_time_reversal(beta)) == lhs
        assert breuer_map(symmetrize(beta)) == lhs

    def test_matches_dense_oracle(self):
        from rotinv import dense

        rng = np.random.default_rng(11)
        for dims in ((4, 4), (6, 8), (5, 7)):
            system = SpinPair(*dims)
            beta = random_state_beta(system, rng)
            rho = dense.from_beta(beta)
            image = dense.breuer_phi1(rho, system)
            extracted = dense.extract_beta(image, system)
            assert np.abs(
                extracted.as_array() - breuer_map(beta).as_array()
            ).max() < 1e-10


class TestBreuerDetection:
    def test_maximally_mixed_not_detected(self):
        beta = alpha_to_beta(maximally_mixed(SpinPair(4, 4)))
        assert not breuer_detects(beta)

    def test_refuses_inapplicable_systems(self):
        for dims in ((5, 5), (3, 7), (2, 4)):
            beta = alpha_to_beta(maximally_mixed(SpinPair(*dims)))
            with pytest.raises(BreuerNotApplicableError):
                breuer_detects(beta)

    def test_segment_endpoint_detected(self):
        for n in (4, 6, 11):
            assert breuer_detects(geometry.segment_state_4xn(n, 1.0))

    def test_threshold_brackets(self):
        for n in (4, 7, 12, 20):
            t_star = geometry.segment_detection_threshold(n)
            assert not breuer_detects(geometry.segment_state_4xn(n, t_star - 1e-6))
            assert breuer_detects(geometry.segment_state_4xn(n, t_star + 1e-6))
        assert geometry.segment_detection_threshold(4) == 0.75

    def test_boundary_reports_false(self):
        # exactly at the flip point the minimum is 0 within noise: stay conservative
        n = 4
        beta = geometry.segment_state_4xn(n, geometry.segment_detection_threshold(n))
        assert not breuer_detects(beta)


class TestPpt:
    def test_maximally_mixed(self):
        assert is_ppt(alpha_to_beta(maximally_mixed(SpinPair(4, 7))))

    def test_vertex_a_is_npt(self):
        points = geometry.named_points_4xn(4)
        assert not is_ppt(points["A"].beta)

    def test_intersection_vertices_are_ppt(self):
        for n in (4, 6, 9):
            points = geometry.named_points_4xn(n)
            for label in ("D", "D'", "E", "F", "G", "E'", "F'", "G'"):
                assert is_ppt(points[label].beta, tol=1e-9), (n, label)


class TestTensorMatrixElements:
    def test_selection_rule(self):
        assert tensor_matrix_element(1.5, 0.5, 1, 1, 0.5).is_zero  # q != m - m'
        assert not tensor_matrix_element(1.5, 0.5, 1, 0, 0.5).is_zero

    def test_e_point_expectations(self):
        # the two q = 0 expectations that build the separable point E
        val = tensor_matrix_element(1.5, -0.5, 1, 0, -0.5)
        assert val == -ExactRadical.sqrt(Fraction(1, 20))
        top = tensor_matrix_element(2.5, 2.5, 1, 0, 2.5)
        assert top == ExactRadical.sqrt(Fraction(5, 14))

    def test_unit_normalization(self):
        # sum_{m m'} |<j m|T_Kq|j m'>|^2 = 1 for every (K, q)
        for tj in (1, 3, 4):
            for K in range(0, tj + 1):
                for q in range(-K, K + 1):
                    total = Fraction(0)
                    for tm in range(-tj, tj + 1, 2):
                        tmp = tm - 2 * q
                        if abs(tmp) > tj:
                            continue
                        total += tensor_matrix_element(
                            Fraction(tj, 2), Fraction(tm, 2), K, q, Fraction(tmp, 2)
                        ).square()
                    assert total == 1, (tj, K, q)

    def test_conjugation_rule(self):
        # T_{K,q}^dag = (-1)**q T_{K,-q} entrywise
        tj = 3
        for K in range(0, 4):
            for q in range(-K, K + 1):
                for tm in range(-tj, tj + 1, 2):
                    tmp = tm - 2 * q
                    if abs(tmp) > tj:
                        continue
                    lhs = tensor_matrix_element(
                        Fraction(tj, 2), Fraction(tmp, 2), K, q, Fraction(tm, 2)
                    )  # conjugate-transposed element (entries are real)
                    rhs = tensor_matrix_element(
                        Fraction(tj, 2), Fraction(tm, 2), K, -q, Fraction(tmp, 2)
                    ).scale(-1 if q % 2 else 1)
                    assert lhs == rhs


class TestPiProject:
    def test_reproduces_point_e(self):
        for n in (4, 6, 11, 20):
            system = SpinPair(4, n)
            prod = PureProductState.basis_state(system, -0.5, (n - 1) / 2)
            beta = pi_project(prod)
            expected = geometry.named_points_4xn(n)["E"].beta
            assert np.abs(beta.as_array() - expected.as_array()).max() < 1e-12

    def test_top_product_goes_to_point_d(self):
        for n in (4, 7, 13):
            system = SpinPair(4, n)
            prod = PureProductState.basis_state(system, 1.5, (n - 1) / 2)
            beta = pi_project(prod)
            expected = geometry.named_points_4xn(n)["D"].beta
            assert np.abs(beta.as_array() - expected.as_array()).max() < 1e-12

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=25, deadline=None)
    def test_image_is_a_state(self, seed):
        rng = np.random.default_rng(seed)
        system = SpinPair(4, 5)
        a1 = rng.normal(size=system.n1) + 1j * rng.normal(size=system.n1)
        a2 = rng.normal(size=system.n2) + 1j * rng.normal(size=system.n2)
        prod = PureProductState(
            system, tuple(a1 / np.linalg.norm(a1)), tuple(a2 / np.linalg.norm(a2))
        )
        beta = pi_project(prod)
        chk = check_state(beta_to_alpha(beta), tol=1e-9)
        assert chk.is_state

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=15, deadline=None)
    def test_commutes_with_time_reversal_of_factors(self, seed):
        # twirl then flip == flip the product state then twirl
        from rotinv import dense

        rng = np.random.default_rng(seed)
        system = SpinPair(4, 4)
        a1 = rng.normal(size=4) + 1j * rng.normal(size=4)
        a2 = rng.normal(size=4) + 1j * rng.normal(size=4)
        a1, a2 = a1 / np.linalg.norm(a1), a2 / np.linalg.norm(a2)
        prod = PureProductState(system, tuple(a1), tuple(a2))
        lhs = partial_time_reversal(pi_project(prod)).as_array()
        v = dense.time_reversal(4)
        flipped = PureProductState(system, tuple(v @ a1.conj()), tuple(a2))
        rhs = pi_project(flipped).as_array()
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_rejects_unnormalized(self):
        system = SpinPair(4, 4)
        with pytest.raises(ValueError):
            PureProductState(system, (1.0, 1.0, 0, 0), (1, 0, 0, 0))


class TestClassify:
    def test_maximally_mixed_4x4(self):
        beta = BetaVector(SpinPair(4, 4), (1, 0, 0, 0))
        result = classify(beta)
        assert result.verdict is Verdict.KNOWN_SEPARABLE
        assert result.is_ppt and not result.breuer_detected

    def test_vertex_a_npt(self):
        result = classify(geometry.named_points_4xn(4)["A"].beta)
        assert result.verdict is Verdict.NPT_ENTANGLED
        assert result.breuer_detected is not None  # flag still computed

    def test_point_e_known_separable(self):
        for n in (4, 6, 10):
            result = classify(geometry.named_points_4xn(n)["E"].beta)
            assert result.verdict is Verdict.KNOWN_SEPARABLE, n

    def test_detected_segment_point(self):
        beta = geometry.segment_state_4xn(6, 1.0)
        result = classify(beta)
        assert result.verdict is Verdict.PPT_BOUND_ENTANGLED_DETECTED

    def test_not_a_state(self):
        result = classify(BetaVector(SpinPair(4, 4), (1.0, 0, 3.0, 0)))
        assert result.verdict is Verdict.NOT_A_STATE

    def test_odd_n1_reports_no_breuer_flag(self):
        beta = alpha_to_beta(maximally_mixed(SpinPair(5, 5)))
        result = classify(beta)
        assert result.breuer_detected is None
        assert result.verdict is Verdict.PPT_UNDETERMINED
        data = result.to_json_dict()
        assert "breuer_detected" not in data
        assert "note" in data

    def test_undetected_ppt_never_reported_separable_outside_hull(self):
        # F is PPT and undetected but outside DD'EE': must stay undetermined
        result = classify(geometry.named_points_4xn(6)["F"].beta)
        assert result.verdict is Verdict.PPT_UNDETERMINED

    def test_json_round_trip_fields(self):
        import json

        beta = geometry.segment_state_4xn(4, 1.0)
        data = json.loads(json.dumps(classify(beta).to_json_dict()))
        assert data["verdict"] == "PptBoundEntangledDetected"
        assert data["is_state"] and data["is_ppt"]
        assert data["breuer_detected"] is True
        assert data["min_breuer_alpha"] < 0
