"""Partial time reversal, the Breuer map, PPT, the twirl, and the classifier."""

import dataclasses
import hashlib
import json
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotinv import states
from rotinv.dense import PureProductState, pi_project, tensor_matrix_element
from rotinv.maps import (
    BreuerNotApplicableError,
    Classification,
    Verdict,
    breuer_detects,
    breuer_map,
    classify,
    is_ppt,
    partial_time_reversal,
    symmetrize,
)
from rotinv.radical import ExactRadical
from rotinv.wigner import six_j, verify_recoupling_sum
from rotinv.states import (
    DEFAULT_TOL,
    TRACE_TOL,
    AlphaVector,
    BetaVector,
    SpinPair,
    alpha_to_beta,
    beta_to_alpha,
    build_l_matrix,
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

    def test_symmetrize_sets_odd_coordinates_to_zero_without_overflow(self):
        system = SpinPair(4, 6)
        huge = BetaVector(system, (1, 1e308, 1e308, 0))
        assert symmetrize(huge).coords == (1.0, 0.0, 1e308, 0.0)
        for bad in (np.inf, -np.inf, np.nan):
            sym = symmetrize(BetaVector(system, (1, bad, 0.5, bad)))
            assert sym.coords == (1.0, 0.0, 0.5, 0.0), bad
        assert symmetrize(BetaVector(system, (1, 0, np.inf, 0))).coords[2] == np.inf

    @given(coords=st.lists(st.floats(-sys.float_info.max / 2, sys.float_info.max / 2),
                           min_size=4, max_size=4))
    def test_symmetrize_is_the_half_sum_bitwise_below_overflow(self, coords):
        beta = BetaVector(SpinPair(4, 6), coords)
        half_sum = [0.5 * (a + b) for a, b in zip(beta.coords, partial_time_reversal(beta).coords)]
        assert np.array(symmetrize(beta).coords).tobytes() == np.array(half_sum).tobytes()


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
                        ).radicand
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
        beta = geometry.segment_state_4xn(4, 1.0)
        data = json.loads(json.dumps(classify(beta).to_json_dict()))
        assert data["verdict"] == "PptBoundEntangledDetected"
        assert data["is_state"] and data["is_ppt"]
        assert data["breuer_detected"] is True
        assert data["min_breuer_alpha"] < 0


FUSED_SYSTEMS = ((2, 2), (2, 5), (3, 4), (4, 4), (4, 9), (5, 7), (6, 8), (8, 12), (10, 12))


def seeded_betas(seed: int = 20, per_system: int = 60) -> list[BetaVector]:
    """Random, stretched, mixed-in, theta_1-invariant, past-D~'' and DD'EE' states."""
    rng = np.random.default_rng(seed)
    out = []
    for n1, n2 in FUSED_SYSTEMS:
        system = SpinPair(n1, n2)
        l, w = build_l_matrix(system).values, system.norm_weights()
        mixed = l @ w
        if system.breuer_applicable:
            d_tilde = np.array(geometry.d_tilde_point(system).beta.coords)
        if n1 == 4:
            named = geometry.named_points_4xn(n2)
            corners = np.array([named[label].beta.coords for label in ("D", "D'", "E", "E'")])
        for i in range(per_system):
            beta = l @ (rng.dirichlet(np.full(n1, 0.5)) / w)
            kind = i % 6
            if kind == 1:
                beta[1:] *= rng.uniform(1.5, 4.0)
            elif kind == 2:
                beta = mixed + rng.uniform(0.0, 1.0) * (beta - mixed)
            elif kind == 3:
                beta[1::2] = 0.0
            elif kind == 4 and system.breuer_applicable:
                beta[1::2] = 0.0
                beta = d_tilde + rng.uniform(1e-6, 0.3) * (d_tilde - beta)
            elif kind == 5 and n1 == 4:
                beta = rng.dirichlet(np.ones(4)) @ corners
            beta[0] = 1.0
            out.append(BetaVector(system, beta.tolist()))
    return out


def edge_betas():
    """nan and +-inf in beta_0, beta_1 and beta_2, and +-0.0 in every slot, on 4x6, 5x7, 6x8."""
    for n1, n2 in ((4, 6), (5, 7), (6, 8)):
        system = SpinPair(n1, n2)
        base = [1.0] + [0.5 / k for k in range(1, n1)]
        for value in (float("nan"), float("inf"), float("-inf")):
            for k in (0, 1, 2):
                yield BetaVector(system, base[:k] + [value] + base[k + 1:])
        for zero in (0.0, -0.0):
            for k in range(n1):
                yield BetaVector(system, base[:k] + [zero] + base[k + 1:])
                yield BetaVector(system, [-zero] * k + [zero] + [-zero] * (n1 - k - 1))


EDGE_FLOATS = (0.0, -0.0, 1e-300, -1e-300, 1e150, -1e150)


@st.composite
def fused_betas(draw) -> BetaVector:
    """A state on one of FUSED_SYSTEMS whose coordinates mix signed zeros, tiny and huge values."""
    n1, n2 = draw(st.sampled_from(FUSED_SYSTEMS))
    coord = st.sampled_from(EDGE_FLOATS) | st.floats(-4.0, 4.0)
    head = draw(st.just(1.0) | coord)
    return BetaVector(SpinPair(n1, n2), [head, *draw(st.lists(coord, min_size=n1 - 1,
                                                              max_size=n1 - 1))])


def list_breuer_coords(coords) -> list[float]:
    """The Breuer image as a list, one Python product per even K >= 2: the reference."""
    if not abs(coords[0] - 1.0) <= TRACE_TOL:
        raise ValueError(f"breuer_map needs a normalized input (beta_0 = 1), got {coords[0]}")
    trace, factor = states._breuer_rule(len(coords))
    return [float(trace)] + [0.0 if k % 2 else factor * coords[k] for k in range(1, len(coords))]


class TestBreuerImageArray:
    """The Breuer image is a zeroed array with the trace at K = 0 and the even K >= 2
    products written in place; the plan holds no Breuer field beside applicability."""

    @pytest.mark.parametrize("n1, n2", FUSED_SYSTEMS)
    def test_equals_the_list_form_bitwise(self, n1, n2):
        system = SpinPair(n1, n2)
        assert states._Plan._fields == ("lt", "lt_theta1", "weights", "breuer_applicable")
        base = [1.0] + [0.5 / k for k in range(1, n1)]
        for value in (0.0, -0.0, float("inf"), float("-inf"), float("nan")):
            for k in range(n1):
                coords = tuple(base[:k] + [value] + base[k + 1:])
                try:
                    want = np.array(list_breuer_coords(coords)).tobytes()
                except ValueError as err:
                    with pytest.raises(ValueError, match=re.escape(str(err))):
                        states._breuer_coords(np.array(coords))
                    continue
                with warnings.catch_warnings():  # no nan is formed, so numpy stays silent
                    warnings.simplefilter("error")
                    got = states._breuer_coords(np.array(coords))
                    mapped = breuer_map(BetaVector(system, coords))
                assert got.dtype == np.float64 and got.tobytes() == want, (system, k, value)
                assert np.array(mapped.coords).tobytes() == want, (system, k, value)


class TestClassifyFromCoordinates:
    """classify works on the coordinate tuple; its bytes and minima stay those
    of the long route through BetaVector and AlphaVector."""

    def test_golden_bytes(self, pinned):
        betas = seeded_betas()
        results = [classify(b) for b in betas]
        assert {r.verdict for r in results} == set(Verdict)
        assert {b.system.n1 for b in betas} >= {2, 3, 5}
        assert any(all(c == 0.0 for c in b.coords[1::2]) for b in betas)
        text = "\n".join(json.dumps(r.to_json_dict()) for r in results)
        # recorded before classify skipped the intermediate vectors; the floats
        # are L.T @ v products of this numpy build, whose bits depend on the BLAS kernels
        assert hashlib.sha256(text.encode()).hexdigest() == pinned({
            "SkylakeX": "0b79f20ad7e8c5ddb51bb91763ae1d0a76e857044bfe101fb8caaaf96a6d4c35",
            "Haswell": "e9f0a595e0ead1ce6da0b522012b9c91912e73c6aa7a86230bd33c7c84dc9868",
            "Sandybridge": "5096693624c19dd650004788eb7185339398194b9187fa7d545f9ca92cfb0788",
        })

    def test_minima_equal_the_public_route_bitwise(self):
        for beta in seeded_betas(seed=21, per_system=30):
            result = classify(beta)
            assert result.min_alpha.hex() == min(beta_to_alpha(beta).coords).hex()
            flipped = beta_to_alpha(partial_time_reversal(beta))
            assert result.min_theta1_alpha.hex() == min(flipped.coords).hex()
            if beta.system.breuer_applicable:
                image = beta_to_alpha(breuer_map(beta))
                assert result.min_breuer_alpha.hex() == min(image.coords).hex()
            else:
                assert result.min_breuer_alpha is None

    def test_nonfinite_and_signed_zero_inputs(self, pinned):
        lines = []
        with np.errstate(invalid="ignore"):
            for beta in edge_betas():
                try:
                    lines.append(json.dumps(classify(beta).to_json_dict()))
                except Exception as err:  # the type and the message are part of the record
                    lines.append(f"{type(err).__name__}: {err}")
        assert len(lines) == 87
        assert "ValueError: breuer_map needs a normalized input (beta_0 = 1), got -0.0" in lines
        assert lines.count("ValueError: breuer_map needs a normalized input (beta_0 = 1), "
                           "got nan") == 2
        # recorded when the trace tests became one rule that fails nan (4x6 and 6x8
        # with beta_0 = nan raise); every other line is as before the per-system plan
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == pinned({
            "SkylakeX": "6bc9a20a8e80e038ed1f2c6ec286c6666c2e534b934e81b0b7eb22a5a817db0d",
            "Haswell": "4a2e4729639c3a9cfc1bda9bf9c04015c95424e15b703ad8dd01b9ea35067983",
            "Sandybridge": "392d1a50644aa6f1b1c5ebbab36d2dd73fca18b8ab836a53ae037fb3a722af95",
        })

    def test_nan_trace_is_not_unit_trace(self):
        beta = BetaVector(SpinPair(4, 6), (float("nan"), 0.5, 0.25, 0.0))
        message = re.escape("breuer_map needs a normalized input (beta_0 = 1), got nan")
        for call in (breuer_map, breuer_detects, classify):
            with pytest.raises(ValueError, match=message):
                call(beta)
        assert geometry.minimal_separable_membership_4xn(beta) is False

    @settings(max_examples=300, deadline=None)
    @given(fused_betas())
    def test_plan_route_equals_the_public_route_bitwise(self, beta):
        theta1 = states._plan(beta.system).lt_theta1
        assert not theta1.flags.writeable and theta1.flags.f_contiguous
        flipped = min(beta_to_alpha(partial_time_reversal(beta)).coords)
        assert is_ppt(beta) == (flipped >= -DEFAULT_TOL)
        applicable = beta.system.breuer_applicable
        if applicable and abs(beta.coords[0] - 1.0) > TRACE_TOL:
            for call in (classify, breuer_detects, breuer_map):
                with pytest.raises(ValueError, match="breuer_map needs a normalized input"):
                    call(beta)
            return
        result = classify(beta)
        assert result.min_alpha.hex() == min(beta_to_alpha(beta).coords).hex()
        assert result.min_theta1_alpha.hex() == flipped.hex()
        assert result.is_ppt == is_ppt(beta)
        if applicable:
            image = min(beta_to_alpha(breuer_map(beta)).coords)
            assert result.min_breuer_alpha.hex() == image.hex()
            assert result.breuer_detected == breuer_detects(beta) == (image < -DEFAULT_TOL)
        else:
            assert result.min_breuer_alpha is None

    def test_record_is_a_frozen_classification(self):
        for beta in seeded_betas(seed=22, per_system=6):
            result = classify(beta)
            same = Classification(**{f.name: getattr(result, f.name)
                                     for f in dataclasses.fields(Classification)})
            assert type(result) is Classification
            assert result == same and hash(result) == hash(same)
            assert result.to_json_dict() == same.to_json_dict()
            with pytest.raises(dataclasses.FrozenInstanceError):
                result.verdict = Verdict.NOT_A_STATE

    @pytest.mark.parametrize("n1, n2", [(4, 6), (6, 8), (10, 12)])
    def test_off_trace_raises_the_breuer_map_error(self, n1, n2):
        beta = BetaVector(SpinPair(n1, n2), (1.5, 0.0, 0.2) + (0.0,) * (n1 - 3))
        message = re.escape("breuer_map needs a normalized input (beta_0 = 1), got 1.5")
        for call in (classify, breuer_detects, breuer_map):
            with pytest.raises(ValueError, match=message) as err:
                call(beta)
            assert err.type is ValueError

    @pytest.mark.parametrize("n1, n2", [(4, 6), (5, 7), (6, 8)])
    def test_at_most_one_spin_pair_hash(self, n1, n2, monkeypatch):
        """One plan lookup per warm classify, is_ppt and breuer_detects."""
        beta = alpha_to_beta(maximally_mixed(SpinPair(n1, n2)))
        calls_under_test = [classify, is_ppt]
        if beta.system.breuer_applicable:
            calls_under_test.append(breuer_detects)
        for call in calls_under_test:
            call(beta)
        calls = []
        original = SpinPair.__hash__

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(SpinPair, "__hash__", counted)
        for call in calls_under_test:
            calls.clear()
            call(BetaVector(SpinPair(n1, n2), beta.coords))
            assert len(calls) <= 1, call.__name__


class TestTheta1Gate:
    """theta_1 in alpha coordinates, L^T diag((-1)**K) L, against the 6-j recoupling relation.

    Entry (J, J') is (-1)**(n1+n2) sqrt((2J+1)(2J'+1)) {j1 j2 J; j1 j2 J'}: the
    exact recoupling sum gives the symbol, the plan's theta_1 matrix the floats.
    """

    @pytest.mark.parametrize("n1", range(2, 13))
    def test_recoupling_sum_and_plan_matrix(self, n1):
        for n2 in sorted({n1, n1 + 1, n1 + 4, 2 * n1}):
            system = SpinPair(n1, n2)
            j1, j2 = system.j1, system.j2
            got = states._plan(system).lt_theta1 @ build_l_matrix(system).values
            sign = -1 if (n1 + n2) % 2 else 1
            for a, j in enumerate(system.j_values()):
                for b, jp in enumerate(system.j_values()):
                    symbol = six_j(j1, j2, j, j1, j2, jp)
                    phase = (-1) ** int(j + jp)
                    assert verify_recoupling_sum(j1, j2, j2, j1, j, jp) == symbol.scale(phase), \
                        (system, j, jp)
                    want = sign * float(symbol) * np.sqrt(int((2 * j + 1) * (2 * jp + 1)))
                    assert abs(got[a, b] - want) <= 1e-14, (system, j, jp)
