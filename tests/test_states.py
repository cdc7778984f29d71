"""Coordinate representations, the L basis change, and state checks."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotinv import states, wigner
from rotinv.geometry import explicit_l_matrix_4xn, theta1_polytope
from rotinv.radical import ExactRadical
from rotinv.states import (
    AlphaVector,
    BetaVector,
    LMatrix,
    SpinPair,
    alpha_to_beta,
    beta_to_alpha,
    build_l_matrix,
    check_state,
    maximally_mixed,
    spectrum_from_alpha,
    vector_from_json_dict,
)

EVEN_SYSTEMS = [
    SpinPair(n1, n2) for n1 in range(2, 13, 2) for n2 in range(n1, 25)
]

# two sizes with n1 <= 60, drawn once from a fixed seed
_DRAW = random.Random(18)
LARGE_DRAWN = [(n1, _DRAW.randint(n1, 2 * n1 + 8)) for n1 in _DRAW.sample(range(2, 61), 2)]


def random_state(system: SpinPair, rng) -> AlphaVector:
    raw = rng.random(system.n1) + 1e-3
    return AlphaVector(system, raw / (system.norm_weights() @ raw))


class TestSpinPair:
    def test_derived_spins(self):
        s = SpinPair(4, 7)
        assert float(s.j1) == 1.5 and float(s.j2) == 3.0
        assert [2 * j for j in s.j_values()] == [3, 5, 7, 9]
        assert {type(j) for j in (s.j1, s.j2, *s.j_values())} == {Fraction}
        assert s.k_values() == (0, 1, 2, 3)

    def test_printed_j_labels(self):
        """Every J prints as "3/2" or "2" in j_values, alpha labels and theta_1 plane labels."""
        for n1 in range(2, 13):
            for n2 in range(n1, n1 + 10):
                system = SpinPair(n1, n2)
                want = [f"{tj}/2" if tj % 2 else str(tj // 2)
                        for tj in range(n2 - n1, n1 + n2 - 1, 2)]
                assert [str(j) for j in system.j_values()] == want, system
                alpha = AlphaVector(system, np.zeros(n1))
                assert [name for name, _ in alpha.labeled()] == [f"J={w}" for w in want], system
                if n1 % 2 == 0 and n1 >= 4:
                    assert [plane.label for plane in theta1_polytope(system)] == [
                        f"alpha[J={w}]=0" for w in want], system

    def test_validation(self):
        with pytest.raises(ValueError):
            SpinPair(4, 3)
        with pytest.raises(ValueError):
            SpinPair(1, 5)
        with pytest.raises(TypeError):
            SpinPair(4.0, 4)
        with pytest.raises(TypeError):
            SpinPair(4, 6.0)

    def test_breuer_applicability_flag(self):
        assert SpinPair(4, 4).breuer_applicable
        assert SpinPair(6, 9).breuer_applicable
        assert not SpinPair(5, 5).breuer_applicable
        assert not SpinPair(2, 8).breuer_applicable

    def test_vector_length_enforced(self):
        with pytest.raises(ValueError):
            AlphaVector(SpinPair(4, 4), (1.0, 0.0))
        with pytest.raises(ValueError):
            BetaVector(SpinPair(4, 4), (1.0,) * 5)


class TestLMatrix:
    def test_orthogonality_sweep(self):
        for system in EVEN_SYSTEMS:
            l = build_l_matrix(system).values
            eye = np.eye(system.n1)
            assert np.abs(l @ l.T - eye).max() < 1e-12, system
            assert np.abs(l.T @ l - eye).max() < 1e-12, system

    def test_explicit_4xn_matches_exactly(self):
        for n in range(4, 21):
            built = build_l_matrix(SpinPair(4, n)).exact
            explicit = explicit_l_matrix_4xn(n).exact
            for k in range(4):
                for j in range(4):
                    assert built[k][j] == explicit[k][j], (n, k, j)

    def test_explicit_4xn_rejects_small_n(self):
        with pytest.raises(ValueError):
            explicit_l_matrix_4xn(3)

    def test_row_zero_is_norm_weights(self):
        for system in (SpinPair(2, 2), SpinPair(4, 9), SpinPair(6, 14)):
            l = build_l_matrix(system)
            expected = [
                ExactRadical.sqrt(Fraction(2 * j + 1, system.dim))
                for j in system.j_values()
            ]
            assert list(l.exact[0]) == expected

    def test_norm_weights_are_row_zero_bitwise(self):
        # check_state and classify read norm_weights() where the polytope slice reads L[0, :]
        for n1 in range(2, 17):
            for n2 in range(n1, n1 + 30):
                system = SpinPair(n1, n2)
                assert (system.norm_weights().tobytes()
                        == build_l_matrix(system).values[0].tobytes()), system

    def test_exact_weights_are_row_zero_and_norm_weights_their_floats(self):
        # w_J has one exact home; L's row 0 and the float weights agree with it bitwise
        for n1 in range(2, 21):
            for n2 in range(n1, n1 + 13):
                system = SpinPair(n1, n2)
                weights = states._exact_weights(system)
                assert weights == build_l_matrix(system).exact[0], system
                assert (states._norm_weights(system).tobytes()
                        == np.array([float(w) for w in weights]).tobytes()), system

    def test_values_convert_own_entries(self):
        l = explicit_l_matrix_4xn(7)
        assert np.array_equal(l.values, [[float(e) for e in row] for row in l.exact])
        rows = [list(row) for row in l.exact]
        rows[1][1] = -rows[1][1]
        negated = LMatrix(l.system, tuple(map(tuple, rows)))
        assert negated.values[1, 1] == -l.values[1, 1] != 0.0
        assert not negated.values.flags.writeable

    def test_smallest_system(self):
        l = build_l_matrix(SpinPair(2, 2)).values
        assert np.abs(l @ l.T - np.eye(2)).max() < 1e-15

    def test_build_neither_fills_nor_reads_the_six_j_memo(self):
        """L is the only store of its symbols: a build bypassing L's own cache
        adds no memo entry and makes no memo lookup (hits, misses, size)."""
        before = wigner._six_j.cache_info()
        l = build_l_matrix.__wrapped__(SpinPair(12, 17))
        assert len(l.exact) == 12
        assert wigner._six_j.cache_info() == before

    @staticmethod
    def assert_public_six_j_route(system):
        """Each entry of L against sqrt((2K+1)(2J+1)) (-1)**(j1+j2+J) times six_j."""
        j1, j2 = system.j1, system.j2
        exact = build_l_matrix(system).exact
        for k in system.k_values():
            for idx, j in enumerate(system.j_values()):
                phase = (-1) ** int(j1 + j2 + j)
                unit = ExactRadical(phase, Fraction((2 * k + 1) * (2 * j + 1)))
                assert exact[k][idx] == wigner.six_j(j1, j2, j, j2, j1, k) * unit, \
                    (system, k, j)

    @pytest.mark.parametrize("n1", range(2, 9))
    def test_entries_equal_the_public_six_j_route(self, n1):
        for n2 in range(n1, n1 + 7):
            self.assert_public_six_j_route(SpinPair(n1, n2))

    @pytest.mark.parametrize("dims", [(30, 68), (40, 80), (40, 88), *LARGE_DRAWN],
                             ids="{0[0]}x{0[1]}".format)
    def test_entries_equal_the_public_six_j_route_at_large_sizes(self, dims):
        self.assert_public_six_j_route(SpinPair(*dims))


class TestConversions:
    def test_maximally_mixed_maps_to_unit_vector(self):
        for system in (SpinPair(4, 4), SpinPair(5, 9), SpinPair(6, 8)):
            beta = alpha_to_beta(maximally_mixed(system))
            expected = np.zeros(system.n1)
            expected[0] = 1.0
            assert np.abs(beta.as_array() - expected).max() < 1e-14

    def test_vertex_a_of_4x4(self):
        beta = alpha_to_beta(AlphaVector(SpinPair(4, 4), (4, 0, 0, 0)))
        expected = (1.0, -np.sqrt(3), np.sqrt(5), -np.sqrt(7))
        assert np.abs(beta.as_array() - np.array(expected)).max() < 1e-14

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        system = SpinPair(6, 11)
        alpha = AlphaVector(system, rng.normal(size=system.n1))
        back = beta_to_alpha(alpha_to_beta(alpha))
        assert np.abs(back.as_array() - alpha.as_array()).max() < 1e-12

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_normalization_iff_beta0(self, seed):
        rng = np.random.default_rng(seed)
        system = SpinPair(4, 8)
        alpha = random_state(system, rng)
        beta = alpha_to_beta(alpha)
        assert abs(beta.coords[0] - 1.0) < 1e-12


class TestStateChecks:
    def test_maximally_mixed_is_state(self):
        chk = check_state(maximally_mixed(SpinPair(4, 6)))
        assert chk.normalized and chk.positive and chk.is_state

    def test_norm_weights_cached_read_only(self):
        system = SpinPair(6, 9)
        w = system.norm_weights()
        assert w is system.norm_weights()
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.0
        expected = [np.sqrt(int(2 * j + 1) / system.dim) for j in system.j_values()]
        assert w.tolist() == [float(x) for x in expected]

    def test_negative_coordinate_flags(self):
        system = SpinPair(4, 4)
        w = system.norm_weights()
        coords = np.array([-0.1, 0.3, 0.4, 0.5])
        coords = coords / (w @ coords)
        chk = check_state(AlphaVector(system, coords))
        assert chk.normalized and not chk.positive

    def test_extreme_points_are_states(self):
        from rotinv.geometry import alpha_extreme_points

        for n in (4, 6, 9):
            for alpha in alpha_extreme_points(SpinPair(4, n)):
                assert check_state(alpha).is_state


class TestSpectrum:
    def test_maximally_mixed_spectrum(self):
        system = SpinPair(4, 6)
        spec = spectrum_from_alpha(maximally_mixed(system))
        assert sum(m for _, m in spec) == system.dim
        assert all(abs(v - 1 / system.dim) < 1e-15 for v, _ in spec)

    def test_top_extreme_point(self):
        # single block J = 3 for (4,4): eigenvalue 1/7, multiplicity 7
        alpha = AlphaVector(SpinPair(4, 4), (0, 0, 0, np.sqrt(16 / 7)))
        spec = spectrum_from_alpha(alpha)
        assert spec[3][1] == 7
        assert abs(spec[3][0] - 1 / 7) < 1e-14
        assert all(abs(v) < 1e-15 for v, _ in spec[:3])

    def test_matches_dense_eigenvalues(self):
        from rotinv import dense

        rng = np.random.default_rng(5)
        for dims in ((4, 4), (4, 6), (6, 6)):
            system = SpinPair(*dims)
            alpha = random_state(system, rng)
            rho = dense.from_alpha(alpha)
            dense_spec = np.sort(np.linalg.eigvalsh(rho))
            param_spec = np.sort(np.concatenate([
                [v] * m for v, m in spectrum_from_alpha(alpha)
            ]))
            assert np.abs(dense_spec - param_spec).max() < 1e-10


class TestSerialization:
    def test_round_trip_json(self):
        system = SpinPair(4, 5)
        beta = BetaVector(system, (1.0, 0.25, -0.5, 0.125))
        data = json.loads(json.dumps(beta.to_json_dict()))
        back = vector_from_json_dict(data)
        assert isinstance(back, BetaVector)
        assert back == beta

        alpha = maximally_mixed(system)
        back = vector_from_json_dict(json.loads(json.dumps(alpha.to_json_dict())))
        assert isinstance(back, AlphaVector)
        assert back == alpha

    def test_labels(self):
        system = SpinPair(4, 4)
        labels = [lab for lab, _ in maximally_mixed(system).labeled()]
        assert labels == ["J=0", "J=1", "J=2", "J=3"]
        labels = [lab for lab, _ in alpha_to_beta(maximally_mixed(system)).labeled()]
        assert labels == ["K=0", "K=1", "K=2", "K=3"]

    @pytest.mark.parametrize("key", ["system", "basis", "coords"])
    def test_rejects_a_missing_key(self, key):
        data = {"system": [4, 4], "basis": "beta", "coords": [1, 0, 0, 0]}
        del data[key]
        with pytest.raises(ValueError, match=f"needs the key '{key}'$"):
            vector_from_json_dict(data)

    @pytest.mark.parametrize("key, value", [
        ("system", 4), ("system", [4]), ("system", [4, 6, 8]), ("system", [4, 6.0]),
        ("system", [True, 6]), ("basis", 3), ("basis", ["beta"]), ("coords", "1000"),
        ("coords", 5), ("coords", [1, "0", 0, 0]), ("coords", [True, 0, 0, 0]),
        ("coords", [1, None, 0, 0])])
    def test_rejects_a_value_of_the_wrong_kind(self, key, value):
        # the dict is input from outside the program: a string of digits is not parsed
        # one character at a time, and no bool or str passes as a number
        data = {"system": [4, 6], "basis": "beta", "coords": [1, 0, 0, 0]}
        data[key] = value
        with pytest.raises(ValueError, match=f"^the key '{key}' needs "):
            vector_from_json_dict(data)

    def test_takes_ints_and_floats_as_coordinates(self):
        data = {"system": [4, 6], "basis": "beta", "coords": [1, 0, 0.5, -0.25]}
        assert vector_from_json_dict(data) == BetaVector(SpinPair(4, 6), (1.0, 0.0, 0.5, -0.25))

    def test_rejects_unknown_basis(self):
        with pytest.raises(ValueError):
            vector_from_json_dict({"system": [4, 4], "basis": "gamma", "coords": [1, 0, 0, 0]})
