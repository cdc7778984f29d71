"""Dense-matrix oracle: algebraic identities and parameter-space equivalence."""

import hashlib
import re
from fractions import Fraction

import numpy as np
import pytest

from rotinv import cli, dense
from rotinv.geometry import find_detected_invariant_state
from rotinv.dense import pi_project, PureProductState
from rotinv.maps import breuer_map, partial_time_reversal
from rotinv.states import (
    AlphaVector,
    BetaVector,
    SpinPair,
    alpha_to_beta,
    beta_to_alpha,
    build_l_matrix,
    maximally_mixed,
)
from rotinv.wigner import clebsch_gordan

SMALL = [SpinPair(2, 2), SpinPair(4, 4), SpinPair(4, 6), SpinPair(6, 6), SpinPair(6, 8)]


def random_state(system, rng):
    raw = rng.random(system.n1) + 1e-3
    return AlphaVector(system, raw / (system.norm_weights() @ raw))


class TestCoupledBasis:
    def test_unitarity(self):
        for system in SMALL:
            u = dense.coupled_basis(system)
            assert np.abs(u @ u.T - np.eye(system.dim)).max() < 1e-12

    def test_stretched_column_is_product_state(self):
        for system in (SpinPair(4, 6), SpinPair(6, 6)):
            u = dense.coupled_basis(system)
            # first column of the last J block: |Jmax, Jmax> = |j1 j1>|j2 j2> = e_0
            col = system.dim - int(2 * (system.j1 + system.j2) + 1)
            vec = u[:, col]
            expected = np.zeros(system.dim)
            expected[0] = 1.0
            assert np.abs(vec - expected).max() < 1e-12

    def test_two_qubit_singlet(self):
        u = dense.coupled_basis(SpinPair(2, 2))
        singlet = u[:, 0]  # J = 0 block comes first
        expected = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
        assert min(
            np.abs(singlet - expected).max(), np.abs(singlet + expected).max()
        ) < 1e-12


class TestProjectors:
    def test_idempotent_hermitian_trace(self):
        system = SpinPair(4, 6)
        total = np.zeros((system.dim, system.dim))
        for j in system.j_values():
            p = dense.projector(system, j)
            assert np.abs(p @ p - p).max() < 1e-12
            assert np.abs(p - p.T).max() < 1e-14
            assert abs(np.trace(p) - int(2 * j + 1)) < 1e-12
            total = total + p
        assert np.abs(total - np.eye(system.dim)).max() < 1e-12

    def test_invalid_j_rejected(self):
        with pytest.raises(ValueError, match=r"^J = 0 is not a total momentum of SpinPair"):
            dense.projector(SpinPair(4, 6), 0)

    def test_j_may_be_a_numpy_int(self):
        system = SpinPair(4, 4)
        assert dense.projector(system, np.int64(2)).tobytes() == dense.projector(system, 2).tobytes()

    def test_projector_is_one_read_only_cached_array(self):
        system = SpinPair(4, 6)
        first, second = dense.projector(system, 2), dense.projector(system, 2)
        assert not first.flags.writeable and np.shares_memory(first, second)
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 1.0


# sha256 over the bytes of every P_J, ascending J, and of every Q_K, ascending K
OPERATOR_DIGESTS = {
    (2, 3): ("ce69908d21d12867ec2f5aabf128233518a1324cdb03be2e4e2ac78918d8f180",
             "093f47851ce27de5d9cf245295414c06cc0067e2684e2dc98f6662279260f905"),
    (4, 4): ("5222bcd3f5c48b72f21143d5e4cc751140dc2b781eea92f0eb0bab36fe80174d",
             "5e8ee7cecbde267a0d5e0cc04099e844bf35fe59543d03fdad483b01831811d8"),
    (4, 6): ("079e1328044558134f017b507f984c3a5281bbd7a345b5f4c15584da1e0f46da",
             "0ad92bf87403016af8e10cab2831ac2bf4753ec80b1e3265ab45c2089e15df9f"),
    (5, 7): ("0cde3446fbf51f37b390c68dd6555a03588caa16b4321ce8ee7b4698c5d2f580",
             "8ec2ca5288d7d280209ac6c0f6ba2dd687b981d509206d9b02e4edc69ee64ccd"),
    (6, 8): ("ae5342167c501972caea2ae7024f8817618a32d60bd854bba44e73e4740a4e98",
             "6b8ed845945b090f9470412c1855dbc3d689a1208db21af95df2ce783d35d9ce"),
}


class TestOperatorStacks:
    """Each basis is one cached, read-only stack, which projector and invariant_q read."""

    @pytest.mark.parametrize("dims", sorted(OPERATOR_DIGESTS), ids=str)
    def test_operator_bytes_are_pinned(self, dims):
        system = SpinPair(*dims)
        got = (hashlib.sha256(b"".join(dense.projector(system, j).tobytes()
                                       for j in system.j_values())).hexdigest(),
               hashlib.sha256(b"".join(dense.invariant_q(system, k).tobytes()
                                       for k in system.k_values())).hexdigest())
        assert got == OPERATOR_DIGESTS[dims]

    def test_one_basis_build_per_system_and_basis(self):
        systems = [SpinPair(3, 5), SpinPair(4, 6)]
        dense._basis.cache_clear()
        for _ in range(3):
            for system in systems:
                rng = np.random.default_rng([system.n1, system.n2])
                for j in system.j_values():
                    dense.projector(system, j)
                rho = dense.from_alpha(random_state(system, rng))
                dense.twirl_alpha(rho, system)
                dense.extract_beta(rho, system)
        info = dense._basis.cache_info()
        assert (info.misses, info.currsize) == (2 * len(systems), 2 * len(systems))


class TestTensorOperators:
    def test_q0_is_scaled_identity(self):
        for system in (SpinPair(4, 4), SpinPair(6, 8)):
            q0 = dense.invariant_q(system, 0)
            assert np.abs(q0 - np.eye(system.dim) / np.sqrt(system.dim)).max() < 1e-14

    def test_traceless_and_hermitian(self):
        system = SpinPair(6, 8)
        for k in range(1, 6):
            q = dense.invariant_q(system, k)
            assert abs(np.trace(q)) < 1e-12
            assert np.abs(q - q.conj().T).max() < 1e-12

    def test_orthogonality_normalization(self):
        # Tr(Q_K Q_K') = (2K+1) delta
        system = SpinPair(4, 6)
        for k in range(4):
            for kp in range(4):
                val = np.trace(dense.invariant_q(system, k) @ dense.invariant_q(system, kp))
                expected = (2 * k + 1) if k == kp else 0.0
                assert abs(val - expected) < 1e-12

    def test_rotation_invariance(self):
        system = SpinPair(4, 6)
        for axis in (0, 1, 2):
            r = dense.product_rotation(system, axis, 0.7)
            for k in range(4):
                q = dense.invariant_q(system, k)
                assert np.abs(r @ q - q @ r).max() < 1e-9

    @pytest.mark.parametrize("axis", [3, -1, True, 1.0, "x", None])
    def test_rotation_rejects_an_axis_other_than_0_1_2(self, axis):
        with pytest.raises(ValueError, match=f"axis must be 0, 1 or 2 .*got {axis!r}"):
            dense.product_rotation(SpinPair(4, 6), axis, 0.7)

    def test_rotation_axis_may_be_a_numpy_int(self):
        system = SpinPair(4, 6)
        assert np.array_equal(dense.product_rotation(system, np.int64(2), 0.7),
                              dense.product_rotation(system, 2, 0.7))

    def test_theta1_sign_rule(self):
        # theta_1(Q_K) = (-1)**K Q_K via dense V conjugation
        system = SpinPair(6, 8)
        for k in range(6):
            q = dense.invariant_q(system, k).astype(complex)
            image = dense.theta1(q, system)
            assert np.abs(image - (-1) ** k * q).max() < 1e-12

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            dense.invariant_q(SpinPair(4, 4), 4)

    @pytest.mark.parametrize("system", [SpinPair(4, 4), SpinPair(5, 9)], ids=str)
    def test_k_may_be_a_numpy_int(self, system):
        # no other test builds the dense operators of 5 x 9, so its Q_2 is built here
        got = dense.invariant_q(system, np.int64(2))
        assert got.tobytes() == public_invariant_q(system, 2).tobytes()

    @pytest.mark.parametrize("K", [True, 1.0, "1", None, -1, np.int64(4)])
    def test_k_other_than_an_integer_rank_raises(self, K):
        with pytest.raises(ValueError, match=rf"^K must be in 0\.\.3, got {re.escape(str(K))}$"):
            dense.invariant_q(SpinPair(4, 4), K)


def public_coupled_basis(system):
    """The coupled basis through the public clebsch_gordan on Fraction spins."""
    n1, n2 = system.n1, system.n2
    j1, j2 = Fraction(n1 - 1, 2), Fraction(n2 - 1, 2)
    u = np.zeros((system.dim, system.dim))
    col = 0
    for j in system.j_values():
        for big_m in (j - i for i in range(int(2 * j) + 1)):
            for i1 in range(n1):
                for i2 in range(n2):
                    if j1 - i1 + j2 - i2 == big_m:
                        u[i1 * n2 + i2, col] = float(
                            clebsch_gordan(j1, j1 - i1, j2, j2 - i2, j, big_m))
            col += 1
    return u


def public_tensor_matrix(n, k, q):
    """T_{K,q} through the public tensor_matrix_element on Fraction spins, every entry."""
    j = Fraction(n - 1, 2)
    return np.array([[float(dense.tensor_matrix_element(j, j - r, k, q, j - c))
                      for c in range(n)] for r in range(n)])


def public_invariant_q(system, k):
    total = np.zeros((system.dim, system.dim))
    for q in range(-k, k + 1):
        total += np.kron(public_tensor_matrix(system.n1, k, q),
                         public_tensor_matrix(system.n2, k, q).T)
    return total


class TestDoubledIntRoute:
    """The oracle's doubled-int kernels against the public Fraction-valued route."""

    @pytest.mark.parametrize("system", [SpinPair(n1, n2) for n1 in range(2, 7)
                                        for n2 in range(n1, n1 + 4)], ids=str)
    def test_matrices_equal_the_public_route_bytewise(self, system):
        assert dense.coupled_basis(system).tobytes() == public_coupled_basis(system).tobytes()
        for k in system.k_values():
            assert (dense.invariant_q(system, k).tobytes()
                    == public_invariant_q(system, k).tobytes()), k

    def test_tensor_matrix_is_one_read_only_array_per_key(self):
        keys = [(two_j, k, q) for two_j in range(1, 8) for k in range(two_j + 1)
                for q in range(-k, k + 1)]
        arrays = {key: dense._tensor_matrix(*key) for key in keys}
        for key, arr in arrays.items():
            assert dense._tensor_matrix(*key) is arr
            assert not arr.flags.writeable
        assert len({id(arr) for arr in arrays.values()}) == len(keys)

    def test_public_functions_parse_in_their_argument_order(self):
        # the first bad spin, in the order each function parses, names the error
        with pytest.raises(ValueError, match=r"^1/3 is not a half-integer$"):
            dense.tensor_matrix_element(1.5, Fraction(1, 3), 1, 0.25, Fraction(1, 5))
        with pytest.raises(ValueError, match=r"^0.25 is not a half-integer$"):
            dense.tensor_matrix_element(1.5, 0.5, 1, 0.25, Fraction(1, 5))
        # clebsch_gordan parses j1, j2, J before m1, m2, M
        with pytest.raises(ValueError, match=r"^1/4 is not a half-integer$"):
            clebsch_gordan(0.5, Fraction(1, 3), Fraction(1, 4), 0.5, 1, 1)
        with pytest.raises(TypeError, match="bool is not a spin value"):
            clebsch_gordan(0.5, 0.5, 0.5, 0.5, True, 0.3)

    @pytest.mark.parametrize("K", [-1, -0.5, Fraction(-3, 2)])
    def test_negative_rank_is_named(self, K):
        # the rank, not the square root sqrt(2K+1) it would reach, names the error
        with pytest.raises(ValueError, match=rf"^K must be >= 0, got {K}$"):
            dense.tensor_matrix_element(1, 1, K, 0, 1)


class TestAssembleExtract:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for system in (SpinPair(4, 6), SpinPair(6, 8)):
            beta = alpha_to_beta(random_state(system, rng))
            back = dense.extract_beta(dense.from_beta(beta), system)
            assert np.abs(back.as_array() - beta.as_array()).max() < 1e-10

    def test_maximally_mixed(self):
        system = SpinPair(4, 4)
        rho = np.eye(16, dtype=complex) / 16
        beta = dense.extract_beta(rho, system)
        assert np.abs(beta.as_array() - np.array([1, 0, 0, 0])).max() < 1e-12

    def test_extraction_equals_l_alpha(self):
        rng = np.random.default_rng(4)
        for system in SMALL:
            l = build_l_matrix(system).values
            alpha = random_state(system, rng)
            beta = dense.extract_beta(dense.from_alpha(alpha), system)
            assert np.abs(beta.as_array() - l @ alpha.as_array()).max() < 1e-10

    def test_non_invariant_input_reported(self):
        system = SpinPair(4, 4)
        rho = np.zeros((16, 16), dtype=complex)
        rho[0, 0] = 0.5
        rho[1, 1] = 0.5
        rho[0, 1] = rho[1, 0] = 0.25
        with pytest.raises(dense.NonInvariantError) as err:
            dense.extract_beta(rho, system)
        assert isinstance(err.value.projected_beta, BetaVector)


# systems whose stacked oracle arrays are pinned to the per-matrix ones
STACK_SYSTEMS = [SpinPair(*dims) for dims in
                 ((2, 2), (2, 5), (3, 4), (4, 4), (4, 6), (5, 7), (6, 6), (6, 8), (8, 9))]


class TestStacks:
    """Every oracle operation on a stack (m, d, d) gives, matrix by matrix,
    the bytes of the one-operator call."""

    @staticmethod
    def _states(system, count=4):
        rng = np.random.default_rng([system.n1, system.n2])
        return [random_state(system, rng) for _ in range(count)]

    @pytest.mark.parametrize("system", STACK_SYSTEMS, ids=str)
    def test_stacked_arrays_equal_per_matrix_bytes(self, system):
        alphas = self._states(system)
        stack = dense.from_alpha(alphas)
        assert stack.shape == (len(alphas), system.dim, system.dim)
        singles = [dense.from_alpha(alpha) for alpha in alphas]
        ops = [lambda r: r,
               lambda r: dense.partial_transpose_1(r, system),
               lambda r: dense.theta1(r, system),
               lambda r: dense.breuer_phi1(r, system),
               lambda r: dense.spectrum(dense.breuer_phi1(r, system))]
        for op in ops:
            stacked = op(stack)
            for i, rho in enumerate(singles):
                assert stacked[i].tobytes() == op(rho).tobytes()
        for i, beta in enumerate(dense.extract_beta(stack, system)):
            single = dense.extract_beta(singles[i], system)
            assert beta.as_array().tobytes() == single.as_array().tobytes()

    @pytest.mark.parametrize("system", STACK_SYSTEMS, ids=str)
    def test_generic_hermitian_stack(self, system):
        # partial transposition, theta_1, Phi_1 and the spectrum on operators
        # that are not invariant, with two leading axes
        rng = np.random.default_rng([7, system.n1, system.n2])
        raw = rng.normal(size=(2, 3, system.dim, system.dim, 2)) @ np.array([1.0, 1.0j])
        stack = raw + np.swapaxes(raw, -2, -1).conj()
        for op in (lambda r: dense.partial_transpose_1(r, system),
                   lambda r: dense.theta1(r, system),
                   lambda r: dense.breuer_phi1(r, system),
                   dense.spectrum):
            stacked = op(stack)
            for index in np.ndindex(stack.shape[:2]):
                assert stacked[index].tobytes() == op(stack[index]).tobytes()

    def test_from_alpha_rejects_mixed_systems(self):
        rng = np.random.default_rng(5)
        alphas = [random_state(SpinPair(4, 4), rng), random_state(SpinPair(4, 6), rng)]
        with pytest.raises(ValueError, match="one system"):
            dense.from_alpha(alphas)

    def test_imaginary_entry_in_a_stack_reported(self):
        # the reported residual is the complex modulus of the planted entry,
        # |1e-7 + 1e-6j| = 1.004e-06, not its real part, 1e-07
        system = SpinPair(4, 4)
        stack = dense.from_alpha(self._states(system, 3))
        stack[2, 3, 3] += 1e-7 + 1e-6j
        with pytest.raises(dense.NonInvariantError) as err:
            dense.extract_beta(stack, system)
        assert str(err.value) == ("operator is not rotationally invariant (residual 1.004e-06); "
                                  "use twirl_alpha for the projection")

    def test_non_invariant_matrix_in_a_stack_reported(self):
        system = SpinPair(4, 4)
        stack = dense.from_alpha(self._states(system, 3))
        stack[1, 0, 1] += 1e-3
        with pytest.raises(dense.NonInvariantError, match="not rotationally invariant") as err:
            dense.extract_beta(stack, system)
        with pytest.raises(dense.NonInvariantError) as alone:
            dense.extract_beta(stack[1], system)
        assert str(err.value) == str(alone.value)
        assert err.value.projected_beta == alone.value.projected_beta


class _RecordedBound:
    """An invariance bound that records every residual compared with it and passes each:
    ``residual <= bound`` falls back to ``bound >= residual``."""

    def __init__(self):
        self.residuals = []

    def __ge__(self, residual):
        self.residuals.append(residual)
        return True


class TestInvarianceResidual:
    """extract_beta's residual, read on the M sector table and off it, equals the full
    form |rho - projection| over every entry, bit for bit."""

    @staticmethod
    def _full_form(rho, system, betas):
        coords = np.array([beta.coords for beta in betas]).reshape(rho.shape[:-2] + (-1,))
        return np.abs(rho - dense._assemble(system, coords, "beta")).max(axis=(-2, -1))

    @staticmethod
    def _planted(system, dtype, values):
        # one plant per matrix: a diagonal and an off-diagonal entry on the M sector
        # table (indices 1 and n2 share M), and an entry off it, linking M to M - 1
        positions = [(0, 0), (1, system.n2), (0, 1)]
        stack = dense.from_alpha(TestStacks._states(system, len(positions) * len(values) + 1))
        stack = (stack if np.dtype(dtype).kind == "c" else stack.real).astype(dtype)
        for i, (value, at) in enumerate((v, at) for v in values for at in positions):
            stack[(i, *at)] = value
        return stack

    @pytest.mark.parametrize("system", [SpinPair(4, 4), SpinPair(5, 7), SpinPair(6, 8)], ids=str)
    @pytest.mark.parametrize("dtype, values", [
        (np.float64, [1e-3, -1e-12, -0.0, np.nan, np.inf, -np.inf]),
        (np.float32, [1e-3, -0.0, np.nan, np.inf]),
        (np.complex128, [1e-3 + 2e-3j, -1e-12j, complex(-0.0, -0.0), complex(np.nan, 1.0),
                         complex(1.0, np.inf), complex(np.inf, np.nan)]),
        (np.complex64, [1e-7 + 1e-6j, complex(-0.0, 0.0), complex(0.0, np.nan)])],
        ids=["float64", "float32", "complex128", "complex64"])
    def test_residual_equals_the_full_form(self, system, dtype, values, monkeypatch):
        stack = self._planted(system, dtype, values)
        bound = _RecordedBound()
        monkeypatch.setattr(dense, "_INVARIANCE_TOL", bound)
        with np.errstate(invalid="ignore", over="ignore"):
            betas = dense.extract_beta(stack, system)
            want = self._full_form(stack, system, betas)
        assert np.array_equal(np.array(bound.residuals), want, equal_nan=True)
        # a nan or inf entry makes the coordinates, and so the residual, nan
        assert np.isnan(want).any() and (want > 1e-8).any()

    @pytest.mark.parametrize("value, at", [(1e-3, (0, 0)), (2e-5 + 3e-6j, (1, 6)),
                                           (-4e-7j, (0, 1)), (7e-4, (5, 2))])
    def test_message_reads_the_full_form(self, value, at):
        system = SpinPair(4, 6)
        rho = dense.from_alpha(TestStacks._states(system, 1)[0])
        rho[at] += value
        with pytest.raises(dense.NonInvariantError) as err:
            dense.extract_beta(rho, system)
        want = float(self._full_form(rho, system, [err.value.projected_beta]))
        assert str(err.value) == (f"operator is not rotationally invariant (residual {want:.3e}); "
                                  "use twirl_alpha for the projection")

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_entry_raises(self, value):
        # the traces, the projection and so the residual turn nan, which no bound accepts
        system = SpinPair(4, 6)
        rho = dense.from_alpha(TestStacks._states(system, 1)[0])
        rho[1, system.n2] = value
        with np.errstate(invalid="ignore"), pytest.raises(
                dense.NonInvariantError, match=re.escape("(residual nan)")):
            dense.extract_beta(rho, system)


class TestCoordinateBits:
    """extract_beta and twirl_alpha read their traces through one coordinate reader,
    pinned to the bits each read before it was shared."""

    def test_coordinates_keep_their_bits(self):
        parts = []
        for system in (SpinPair(4, 4), SpinPair(4, 6), SpinPair(5, 7), SpinPair(6, 8)):
            stack = dense.from_alpha(TestStacks._states(system, 3))
            rng = np.random.default_rng([13, system.n1, system.n2])
            raw = rng.normal(size=(system.dim, system.dim, 2)) @ np.array([1.0, 1.0j])
            hermitian = raw + raw.conj().T  # not invariant: only the twirl reads it
            vectors = [*dense.extract_beta(stack, system),
                       *(dense.twirl_alpha(rho, system) for rho in (*stack, hermitian))]
            parts += [c.hex() for vector in vectors for c in vector.coords]
        assert len(parts) == 133  # seven vectors of n1 coordinates per system
        assert hashlib.sha256(" ".join(parts).encode()).hexdigest() == (
            "5c925163de6c4d1cdbad6df783167dfd70123378868ba17081e8170f1213b5e5")


class TestOperatorShape:
    """A mis-sized operator raises ValueError naming the system and the shape."""

    SHAPED = {
        "twirl_alpha": dense.twirl_alpha,
        "extract_beta": dense.extract_beta,
        "partial_transpose_1": dense.partial_transpose_1,
        "theta1": dense.theta1,
        "breuer_phi1": dense.breuer_phi1,
        "_block_spectra": dense._block_spectra,
    }

    @pytest.mark.parametrize("name", SHAPED)
    @pytest.mark.parametrize("shape", [(16, 15), (15, 16), (24, 24), (2, 16, 15), (16,)])
    def test_mis_sized_operator_raises(self, name, shape):
        with pytest.raises(ValueError, match=re.escape("SpinPair(n1=4, n2=4)")) as err:
            self.SHAPED[name](np.ones(shape), SpinPair(4, 4))
        assert str(shape) in str(err.value)

    @pytest.mark.parametrize("shape", [(2, 16, 16), (3, 4, 4), (16, 15), (16,)])
    def test_min_eigenvalue_takes_one_square_operator(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            dense.min_eigenvalue(np.ones(shape))

    def test_twirl_of_a_stack_raises(self):
        with pytest.raises(ValueError, match=re.escape("SpinPair(n1=4, n2=4)")) as err:
            dense.twirl_alpha(np.ones((3, 16, 16)), SpinPair(4, 4))
        assert "(3, 16, 16)" in str(err.value)

    def test_twirl_of_a_non_square_product_raises(self):
        # np.trace of the (16, 15) product succeeds, so the shape is checked first
        with pytest.raises(ValueError, match=r"got shape \(16, 15\)$"):
            dense.twirl_alpha(np.ones((16, 15)), SpinPair(4, 4))


class TestOracleShortcut:
    """The oracle check gathers the M blocks of theta_1 and the Breuer image straight
    from the real part of rho, through the tables the public maps read."""

    @pytest.mark.parametrize("system", STACK_SYSTEMS, ids=str)
    def test_shortcut_equals_the_public_images_bitwise(self, system):
        rng = np.random.default_rng([11, system.n1, system.n2])
        rho = dense.from_alpha([random_state(system, rng) for _ in range(5)])
        real = rho.real
        # theta_1 of the real part is, bit for bit, the real part of theta_1
        assert (dense.theta1(real, system).tobytes()
                == np.ascontiguousarray(dense.theta1(rho, system).real).tobytes())
        flat, trace = np.ascontiguousarray(dense._flat(real)), dense._trace_1(real, system)
        theta, phi = (dense._flat(f(real, system)) for f in (dense.theta1, dense.breuer_phi1))
        blocks, _, off = dense._sectors(system)
        for at in (*blocks, off):
            image = dense._time_reversed_1(flat, system, at)
            assert image.tobytes() == theta[..., at].tobytes()
            assert (dense._phi1(flat, trace, image, system, at).tobytes()
                    == phi[..., at].tobytes())


SEEDED_SYSTEMS = [SpinPair(*dims) for dims in ((4, 4), (4, 6), (6, 6), (6, 8), (3, 4), (5, 6))]


def _seeded_stack(system):
    """The verify --deep stack of seed 7 where it sweeps ``system``, else 25 seeded states."""
    group = [alpha for alpha in cli._seeded_states(7) if alpha.system == system]
    if not group:
        rng = np.random.default_rng([system.n1, system.n2])
        group = [random_state(system, rng) for _ in range(25)]
    return dense.from_alpha(group)


def _label(system, charge):
    """Each product index's charge, m1 + m2 or m2 - m1, up to a constant."""
    i1, i2 = np.divmod(np.arange(system.dim), system.n2)
    return i1 + i2 if charge == "m1+m2" else i2 - i1


def _off(system, charge):
    """The flat entries of a (d, d) operator that link indices of unequal ``charge``."""
    label = _label(system, charge)
    return np.flatnonzero(label[:, None] != label[None, :])


class TestBlockSpectra:
    """rho, theta_1(rho) and Phi_1(rho) conserve M = m1 + m2: the oracle reads the
    spectra of the two images block by block."""

    @pytest.mark.parametrize("system", SEEDED_SYSTEMS, ids=str)
    def test_block_spectra_equal_the_full_spectra(self, system):
        # the gathered real blocks against the full complex operators
        rho = _seeded_stack(system)
        assert rho.shape == (25, system.dim, system.dim)
        *spectra, outside = dense._block_spectra(rho, system)
        full = (dense.theta1(rho, system), dense.breuer_phi1(rho, system))
        for values, op in zip(spectra, full, strict=True):
            assert values.shape == op.shape[:-1] and values.dtype == float
            assert np.abs(values - dense.spectrum(op)).max() < 1e-13
        assert outside.shape == rho.shape[:-2] and (outside == 0.0).all()
        # one matrix alone reads as it does in the stack
        for got, want in zip(dense._block_spectra(rho[4], system),
                             dense._block_spectra(rho, system)):
            assert got.tobytes() == np.ascontiguousarray(want[4]).tobytes()

    @pytest.mark.parametrize("system", [SpinPair(3, 4), SpinPair(4, 6), SpinPair(6, 8)], ids=str)
    def test_sectors_partition_the_indices(self, system):
        blocks, support, off = dense._sectors(system)
        assert dense._sectors(system) is dense._sectors(system)
        diagonal = np.concatenate([np.diagonal(flat, axis1=-2, axis2=-1).ravel()
                                   for flat in blocks])
        assert sorted(diagonal // system.dim) == list(range(system.dim))
        label = _label(system, "m1+m2")
        for flat in blocks:
            rows = np.diagonal(flat, axis1=-2, axis2=-1) // system.dim
            assert (label[rows] == label[rows[:, :1]]).all()
        assert sum(len(flat) for flat in blocks) == len(np.unique(label))
        assert max(flat.shape[-1] for flat in blocks) == system.n1
        entries = np.concatenate([flat.ravel() for flat in blocks] + [off])
        assert sorted(entries) == list(range(system.dim ** 2))
        assert np.array_equal(off, _off(system, "m1+m2"))
        assert np.array_equal(support, np.setdiff1d(np.arange(system.dim ** 2), off))
        assert not any(arr.flags.writeable for arr in (*blocks, support, off))

    @pytest.mark.parametrize("system", SEEDED_SYSTEMS, ids=str)
    def test_maps_send_nothing_off_the_blocks_of_a_conserving_stack(self, system):
        # the oracle's charge guard reads rho alone, which holds only if each map reads its
        # image's off-block entries from rho's: on the seeded states, their real parts and
        # a complex stack that conserves m1 + m2 without being invariant; the partial
        # transpose sends it to one that conserves m2 - m1
        _, _, off = dense._sectors(system)
        transposed_off = _off(system, "m2-m1")
        rng = np.random.default_rng([13, system.n1, system.n2])
        generic = rng.normal(size=(3, system.dim ** 2, 2)) @ np.array([1.0, 1.0j])
        generic[:, off] = 0.0
        seeded = _seeded_stack(system)
        for rho in (seeded, seeded.real, generic.reshape(3, system.dim, system.dim)):
            assert (dense._flat(rho)[..., off] == 0.0).all()
            for image, outside in ((dense.theta1, off), (dense.breuer_phi1, off),
                                   (dense.partial_transpose_1, transposed_off)):
                assert (dense._flat(image(rho, system))[..., outside] == 0.0).all(), image

    def test_planted_off_block_entry_is_the_outside_maximum(self):
        system = SpinPair(6, 8)
        rho = _seeded_stack(system).copy()
        _, _, off = dense._sectors(system)
        row, col = divmod(int(off[40]), system.dim)
        rho[3, row, col] = rho[3, col, row] = 0.25
        *spectra, outside = dense._block_spectra(rho, system)
        assert outside[3] == 0.25 and np.delete(outside, 3).max() == 0.0
        full = (dense.theta1(rho, system), dense.breuer_phi1(rho, system))
        for values, op in zip(spectra, full, strict=True):
            assert np.abs(np.delete(values, 3, axis=0)
                          - np.delete(dense.spectrum(op), 3, axis=0)).max() < 1e-13


class TestTimeReversal:
    def test_v_is_pi_rotation_about_y(self):
        for n in (2, 3, 4, 7):
            v = dense.time_reversal(n)
            assert np.abs(v @ v.T - np.eye(n)).max() < 1e-14
            jy = dense.spin_operators(n)[1]
            vals, vecs = np.linalg.eigh(jy)
            expected = (vecs * np.exp(-1j * np.pi * vals)) @ vecs.conj().T
            assert np.abs(expected - v).max() < 1e-12

    def test_theta1_spectrum_equals_partial_transpose(self):
        rng = np.random.default_rng(9)
        for system in (SpinPair(4, 6), SpinPair(6, 6)):
            rho = dense.from_alpha(random_state(system, rng))
            s1 = dense.spectrum(dense.theta1(rho, system))
            s2 = dense.spectrum(dense.partial_transpose_1(rho, system))
            assert np.abs(s1 - s2).max() < 1e-10

    def test_theta1_uses_one_cached_unitary_bitwise(self):
        rng = np.random.default_rng(11)
        for system in SMALL:
            rho = dense.from_alpha(random_state(system, rng))
            v = np.kron(dense.time_reversal(system.n1), np.eye(system.n2))
            expected = v @ dense.partial_transpose_1(rho, system) @ v.conj().T
            assert dense.theta1(rho, system).tobytes() == expected.tobytes()
            cached = dense._theta1_table(system)
            assert cached is dense._theta1_table(SpinPair(system.n1, system.n2))
            assert not any(table.flags.writeable for table in cached)

    @staticmethod
    def _stack(system, dtype, kind, rng):
        """A (2, 3) stack of generic Hermitian matrices; "signed zeros" sets a fifth
        of the entries to -0.0, "oracle" takes the operators of from_alpha instead."""
        if kind == "oracle":  # real-valued, stored complex
            alphas = [random_state(system, rng) for _ in range(6)]
            return dense.from_alpha(alphas).reshape(2, 3, system.dim, system.dim)
        shape = (2, 3, system.dim, system.dim)
        x = rng.normal(size=shape).astype(dtype)
        if dtype is complex:
            x += 1j * rng.normal(size=shape)
        x = x + np.swapaxes(x.conj(), -1, -2)
        if kind == "signed zeros":
            mask = rng.random(shape) < 0.2
            x[mask | np.swapaxes(mask, -1, -2)] = -0.0
        return x

    @staticmethod
    def _kron_product(rho, system):
        v = np.kron(dense.time_reversal(system.n1), np.eye(system.n2))
        return v @ dense.partial_transpose_1(rho, system) @ v.T

    @pytest.mark.parametrize("dims, dtype, kind", [
        ((3, 5), float, "signed zeros"), ((4, 6), float, "signed zeros"),
        ((5, 8), float, "signed zeros"), ((6, 8), float, "signed zeros"),
        ((3, 5), complex, "generic"), ((6, 7), complex, "generic"),
        ((2, 2), complex, "signed zeros"), ((4, 6), complex, "signed zeros"),
        ((5, 8), complex, "signed zeros"), ((6, 8), complex, "signed zeros"),
        ((4, 4), complex, "oracle"), ((6, 8), complex, "oracle"),
    ])
    def test_theta1_is_the_kron_product_bitwise(self, dims, dtype, kind):
        """The index flip times the sign grid has the bytes of (V (x) 1) rho^T1 (V (x) 1)^T,
        for a stack and for each matrix of it, and keeps the input's dtype."""
        system = SpinPair(*dims)
        rho = self._stack(system, dtype, kind, np.random.default_rng(dims))
        got = dense.theta1(rho, system)
        assert got.dtype == rho.dtype
        assert got.tobytes() == self._kron_product(rho, system).tobytes()
        for index in np.ndindex(rho.shape[:-2]):
            assert dense.theta1(rho[index], system).tobytes() == got[index].tobytes()

    @pytest.mark.parametrize("dims, kind", [((2, 3), "signed zeros"), ((3, 5), "signed zeros"),
                                            ((5, 5), "oracle"), ((3, 5), "oracle")])
    def test_theta1_zeros_are_positive(self, dims, kind):
        """For complex input with zero real parts and n1 n2 not a multiple of 4, the
        matrix product leaves -0.0 in some zero entries; theta1 has the product's
        values and +0.0 in every zero."""
        system = SpinPair(*dims)
        rho = self._stack(system, complex, kind, np.random.default_rng(dims))
        got = dense.theta1(rho, system)
        assert np.array_equal(got, self._kron_product(rho, system))
        for part in (got.real, got.imag):
            assert not np.signbit(part[part == 0]).any()

    @pytest.mark.parametrize("dtype, image_dtype", [
        (int, np.float64), (np.int8, np.float64), (bool, np.float64), (np.float32, np.float32),
        (np.float64, np.float64), (np.complex64, np.complex64), (np.complex128, np.complex128)])
    @pytest.mark.parametrize("name", ["theta1", "breuer_phi1"])
    def test_integer_input_gives_float64(self, name, dtype, image_dtype):
        """Int and bool operators map as their float64 copies; other dtypes are kept,
        and the partial transpose keeps every dtype."""
        system = SpinPair(4, 6)
        rho = np.random.default_rng(3).integers(0, 2, size=(2, system.dim, system.dim))
        rho = rho.astype(dtype)
        got = getattr(dense, name)(rho, system)
        assert got.dtype == image_dtype
        assert got.tobytes() == getattr(dense, name)(rho.astype(image_dtype), system).tobytes()
        assert dense.partial_transpose_1(rho, system).dtype == rho.dtype

    def test_theta1_matches_parameter_space(self):
        rng = np.random.default_rng(10)
        system = SpinPair(6, 8)
        beta = alpha_to_beta(random_state(system, rng))
        rho = dense.from_beta(beta)
        image = dense.extract_beta(dense.theta1(rho, system), system)
        expected = partial_time_reversal(beta)
        assert np.abs(image.as_array() - expected.as_array()).max() < 1e-10


class TestBreuerDense:
    def test_identity_image_spectrum(self):
        for system in (SpinPair(4, 4), SpinPair(6, 9)):
            rho = np.eye(system.dim, dtype=complex) / system.dim
            image = dense.breuer_phi1(rho, system)
            vals = dense.spectrum(image)
            expected = (system.n1 - 2) / system.dim
            assert np.abs(vals - expected).max() < 1e-12

    def test_invariant_input_simplified_form(self):
        # for theta_1-invariant rho: Phi_1(rho) = 1/n2 - 2 rho
        rng = np.random.default_rng(12)
        system = SpinPair(6, 8)
        beta = alpha_to_beta(random_state(system, rng))
        from rotinv.maps import symmetrize

        inv = dense.from_beta(symmetrize(beta))
        image = dense.breuer_phi1(inv, system)
        expected = np.eye(system.dim) / system.n2 - 2 * inv
        assert np.abs(image - expected).max() < 1e-12

    def test_min_eigenvalue_sign_agrees_with_parameter_space(self):
        rng = np.random.default_rng(13)
        for system in (SpinPair(4, 6), SpinPair(6, 8)):
            for _ in range(10):
                beta = alpha_to_beta(random_state(system, rng))
                rho = dense.from_beta(beta)
                min_eig, residual = dense.min_eigenvalue(dense.breuer_phi1(rho, system))
                assert residual < 1e-12
                min_alpha = min(beta_to_alpha(breuer_map(beta)).coords)
                assert (min_eig < -1e-10) == (min_alpha < -1e-10)


class TestTwirl:
    def test_identity_on_invariant_states(self):
        rng = np.random.default_rng(14)
        system = SpinPair(4, 6)
        alpha = random_state(system, rng)
        twirled = dense.twirl_alpha(dense.from_alpha(alpha), system)
        assert np.abs(twirled.as_array() - alpha.as_array()).max() < 1e-12

    def test_matches_pi_project_on_products(self):
        rng = np.random.default_rng(15)
        system = SpinPair(4, 6)
        for _ in range(5):
            a1 = rng.normal(size=4) + 1j * rng.normal(size=4)
            a2 = rng.normal(size=6) + 1j * rng.normal(size=6)
            a1, a2 = a1 / np.linalg.norm(a1), a2 / np.linalg.norm(a2)
            prod = PureProductState(system, tuple(a1), tuple(a2))
            vec = np.kron(a1, a2)
            rho = np.outer(vec, vec.conj())
            alpha = dense.twirl_alpha(rho, system)
            beta = alpha_to_beta(alpha)
            assert np.abs(beta.as_array() - pi_project(prod).as_array()).max() < 1e-10

    @pytest.mark.parametrize("n_amps1, n_amps2", [(3, 6), (4, 5), (6, 4)])
    def test_product_state_amplitude_lengths(self, n_amps1, n_amps2):
        with pytest.raises(ValueError, match="amplitude lengths must be"):
            PureProductState(SpinPair(4, 6), (1.0,) + (0.0,) * (n_amps1 - 1),
                             (1.0,) + (0.0,) * (n_amps2 - 1))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 2.0])
    def test_product_state_rejects_unnormalized(self, bad):
        # a nan norm fails the check as inf and 2.0 do
        with pytest.raises(ValueError, match="amplitudes are not normalized"):
            PureProductState(SpinPair(2, 2), (bad, 0.0), (1.0, 0.0))

    def test_basis_state_puts_each_projection_in_its_slot(self):
        system = SpinPair(4, 5)
        for i1, m1 in enumerate([Fraction(3, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(-3, 2)]):
            for i2, m2 in enumerate([2, 1, 0, -1, -2]):
                prod = PureProductState.basis_state(system, m1, m2)
                assert prod.amps1 == tuple(complex(i == i1) for i in range(4))
                assert prod.amps2 == tuple(complex(i == i2) for i in range(5))

    @pytest.mark.parametrize("m1, m2, bad", [
        (2.5, 0, "m = 2.5 is not a projection of spin j = 3/2"),
        (1, 0, "m = 1 is not a projection of spin j = 3/2"),
        (-2.5, 0, "m = -2.5 is not a projection of spin j = 3/2"),
        (0.5, 3, "m = 3 is not a projection of spin j = 2"),
        (0.5, 0.5, "m = 0.5 is not a projection of spin j = 2"),
    ])
    def test_basis_state_rejects_a_non_projection(self, m1, m2, bad):
        # on 4 x 5 (j1 = 3/2, j2 = 2) these once gave a wrapped slot or an IndexError
        with pytest.raises(ValueError, match=f"^{re.escape(bad)}$"):
            PureProductState.basis_state(SpinPair(4, 5), m1, m2)

    def test_point_e_from_dense_twirl(self):
        from rotinv import geometry

        system = SpinPair(4, 6)
        prod = PureProductState.basis_state(system, -0.5, 2.5)
        vec = np.kron(np.array(prod.amps1), np.array(prod.amps2))
        rho = np.outer(vec, vec.conj())
        beta = alpha_to_beta(dense.twirl_alpha(rho, system))
        expected = geometry.named_points_4xn(6)["E"].beta
        assert np.abs(beta.as_array() - expected.as_array()).max() < 1e-12


# verify's default sweep (even n1 in 4..10, n2 from n1 to 20) cut to n1 n2 <= 80
WITNESS_SYSTEMS = [SpinPair(n1, n2) for n1 in (4, 6, 8, 10) for n2 in range(n1, 21)
                   if n1 * n2 <= 80]


class TestWitnessOracle:
    """The existence witness checked by the dense route alone: rho and its
    partial transpose are positive, its Breuer image is not."""

    def test_system_count(self):
        assert len(WITNESS_SYSTEMS) == 28

    @pytest.mark.parametrize("system", WITNESS_SYSTEMS, ids=str)
    def test_witness_is_ppt_and_breuer_detected(self, system):
        rho = dense.from_beta(find_detected_invariant_state(system))
        assert dense.spectrum(rho)[0] >= 1e-12
        assert dense.spectrum(dense.partial_transpose_1(rho, system))[0] >= 1e-12
        assert dense.spectrum(dense.breuer_phi1(rho, system))[0] < -1e-12
