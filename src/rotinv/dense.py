"""Dense-matrix oracle for cross-validating the parameter-space operations.

Builds every object explicitly on the full n1*n2-dimensional product space:
the coupled |J M> basis via Clebsch-Gordan coefficients, the projectors
P_J, the tensor operators T_{K,q} and invariants Q_K, the time-reversal
unitary V, partial transposition, the Breuer map and the rotation twirl of
an operator or of a pure product state.  The methods here are deliberately
different from the exact parameter-space path (floating linear algebra vs.
exact radicals), so agreement between the two is a genuine two-route check
rather than a tautology; to keep it one, this module imports no
parameter-space module (``maps``, ``geometry``).  Its symbols come from
``wigner``'s doubled-int kernels, and each T_{K,q} is built once, read-only.

Operators are complex (d, d) arrays, d = n1*n2.  ``partial_transpose_1``,
``theta1``, ``breuer_phi1``, ``spectrum`` and ``extract_beta`` also take a
stack (..., d, d), and ``from_alpha`` a sequence of one system's alphas.
One operator runs through the same code as a stack, and each matrix of a
stack comes out with the bytes of its own one-operator call.
``partial_transpose_1``, ``theta1`` and ``breuer_phi1`` keep a real input real.

Product-basis convention: index i = i1*n2 + i2 with m1 = j1 - i1 and
m2 = j2 - i2 (projections descending within each factor).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .radical import ExactRadical
from .states import AlphaVector, BetaVector, SpinPair
from .wigner import _clebsch_gordan, _phase, _three_j, twice

__all__ = [
    "NonInvariantError",
    "coupled_basis",
    "projector",
    "tensor_matrix_element",
    "invariant_q",
    "from_alpha",
    "from_beta",
    "extract_beta",
    "time_reversal",
    "theta1",
    "partial_transpose_1",
    "breuer_phi1",
    "twirl_alpha",
    "PureProductState",
    "pi_project",
    "spin_operators",
    "product_rotation",
    "spectrum",
    "min_eigenvalue",
]


class NonInvariantError(ValueError):
    """Input operator is not rotationally invariant.

    Carries the twirl-projected coordinates in ``projected_beta`` so the
    caller can still see the invariant part.
    """

    def __init__(self, message: str, projected_beta: BetaVector):
        super().__init__(message)
        self.projected_beta = projected_beta


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
def coupled_basis(system: SpinPair) -> np.ndarray:
    """Unitary whose columns are |J M> in the product basis.

    Columns are grouped by ascending J, with M = J, J-1, ..., -J inside
    each block; the first column of the last block is |Jmax, Jmax> =
    |j1, j1> (x) |j2, j2|.
    """
    n1, n2 = system.n1, system.n2
    tj1, tj2 = n1 - 1, n2 - 1
    u = np.zeros((n1 * n2, n1 * n2))
    col = 0
    for j in system.j_values():
        tj = twice(j)
        for tm in range(tj, -tj - 1, -2):
            for i1 in range(n1):
                tm1 = tj1 - 2 * i1
                tm2 = tm - tm1  # tj2 - tm2 = (tj1 + tj2 - tm) - 2 i1 is even
                if abs(tm2) > tj2:
                    continue
                i2 = (tj2 - tm2) // 2
                u[i1 * n2 + i2, col] = float(_clebsch_gordan(tj1, tj2, tj, tm1, tm2, tm))
            col += 1
    return _frozen(u)


@lru_cache(maxsize=None)
def _projector_cached(system: SpinPair, tj: int) -> np.ndarray:
    u = coupled_basis(system)
    col = 0
    for j in system.j_values():
        width = twice(j) + 1
        if width == tj + 1:
            block = u[:, col:col + width]
            return _frozen(block @ block.T)
        col += width
    raise ValueError(f"J = {Fraction(tj, 2)} is not a total momentum of {system}")


def projector(system: SpinPair, J) -> np.ndarray:
    """P_J = sum_M |J M><J M|: Hermitian idempotent with trace 2J+1."""
    return _projector_cached(system, twice(J))


def tensor_matrix_element(j, m, K, q, mp) -> ExactRadical:
    """<j, m| T_{K,q} |j, m'> for the unit-normalized irreducible tensor T_{K,q}.

    Wigner-Eckart form with Tr(T_{K,q} T_{K',q'}^dag) = delta delta:

        <j, m| T_{K,q} |j, m'> = (-1)**(j-m) sqrt(2K+1) (j K j; -m q m'),

    nonzero only for q = m - m', with T_{K,q}^dag = (-1)**q T_{K,-q}.
    (The 3-j argument order is fixed by requiring that the resulting Q_K
    are Hermitian, rotation invariant, and consistent with the L basis
    change; see the dense-oracle tests.)
    """
    tj, tm, tK, tq, tmp = map(twice, (j, m, K, q, mp))
    if tK < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    return _tensor_element(tj, tm, tK, tq, tmp)


def _tensor_element(tj: int, tm: int, tK: int, tq: int, tmp: int) -> ExactRadical:
    """:func:`tensor_matrix_element` on doubled ints."""
    return _three_j(tj, tK, tj, -tm, tq, tmp).scale(_phase(tj - tm)) * ExactRadical.sqrt(tK + 1)


@lru_cache(maxsize=None)
def _tensor_matrix(two_j: int, K: int, q: int) -> np.ndarray:
    """Dense T_{K,q} for spin j, rows/cols ordered m = j, j-1, ..., -j; read-only."""
    dim = two_j + 1
    out = np.zeros((dim, dim))
    for r in range(dim):
        tm = two_j - 2 * r
        tmp = tm - 2 * q  # selection rule q = m - m'
        if abs(tmp) > two_j:
            continue
        out[r, (two_j - tmp) // 2] = float(_tensor_element(two_j, tm, 2 * K, 2 * q, tmp))
    return _frozen(out)


@lru_cache(maxsize=None)
def invariant_q(system: SpinPair, K: int) -> np.ndarray:
    """Q_K = sum_q T_{K,q} (x) T_{K,q}^dag: Hermitian, rotation invariant.

    Q_0 = (n1 n2)**(-1/2) * identity; Q_K is traceless for K >= 1.
    """
    if not 0 <= K <= system.n1 - 1:
        raise ValueError(f"K must be in 0..{system.n1 - 1}, got {K}")
    tj1, tj2 = system.n1 - 1, system.n2 - 1
    total = np.zeros((system.dim, system.dim))
    for q in range(-K, K + 1):
        t1 = _tensor_matrix(tj1, K, q)
        t2 = _tensor_matrix(tj2, K, q)
        total += np.kron(t1, t2.T)  # T1 (x) T2^dag, T2 real
    return _frozen(total)


def _assemble(system: SpinPair, coords, degeneracies, operators) -> np.ndarray:
    """sum_i coords[..., i] O_i / sqrt(n1 n2 d_i) for coefficient rows (..., n).

    Summed in float64 and cast to complex once; a single row gives one
    operator, rows (m, n) give a stack (m, d, d).
    """
    scales = np.asarray(coords, dtype=float) / np.sqrt(system.dim * np.asarray(degeneracies))
    rho = np.zeros(scales.shape[:-1] + (system.dim, system.dim))
    for i, op in enumerate(operators):
        rho += scales[..., i, None, None] * op
    return rho.astype(complex)


def from_alpha(alpha: AlphaVector | Sequence[AlphaVector]) -> np.ndarray:
    """Assemble the dense operator sum_J alpha_J P_J / sqrt(n1 n2 (2J+1)).

    A sequence of alphas of one system gives the stack of their operators.
    """
    alphas = [alpha] if isinstance(alpha, AlphaVector) else list(alpha)
    systems = {a.system for a in alphas}
    if len(systems) != 1:
        raise ValueError(f"from_alpha needs alphas of one system, got {len(systems)}")
    sys_ = systems.pop()
    js = sys_.j_values()
    coords = [a.coords for a in alphas]
    rho = _assemble(sys_, coords, [twice(j) + 1 for j in js], [projector(sys_, j) for j in js])
    return rho[0] if isinstance(alpha, AlphaVector) else rho


def from_beta(beta: BetaVector) -> np.ndarray:
    """Assemble the dense operator sum_K beta_K Q_K / sqrt(n1 n2 (2K+1))."""
    return _from_beta_coords(beta.system, beta.coords)


def _from_beta_coords(system: SpinPair, coords) -> np.ndarray:
    ks = system.k_values()
    return _assemble(system, coords, [2 * k + 1 for k in ks],
                     [invariant_q(system, k) for k in ks])


# largest entry of |rho - twirl(rho)| that extract_beta accepts as invariant
_INVARIANCE_TOL = 1e-8


def extract_beta(rho: np.ndarray, system: SpinPair) -> BetaVector | list[BetaVector]:
    """beta_K = sqrt(n1 n2 / (2K+1)) Tr(Q_K rho), for one operator or a stack.

    A stack (..., d, d) gives one BetaVector per matrix, in C order.  Every
    operator must equal its own twirl; a non-invariant one raises
    :class:`NonInvariantError` carrying its projected coordinates.
    """
    coords = np.stack([
        np.sqrt(system.dim / (2 * k + 1))
        * np.trace(invariant_q(system, k) @ rho, axis1=-2, axis2=-1).real
        for k in system.k_values()
    ], axis=-1)
    residuals = np.abs(rho - _from_beta_coords(system, coords)).max(axis=(-2, -1))
    betas = [BetaVector(system, row) for row in coords.reshape(-1, system.n1).tolist()]
    for beta, residual in zip(betas, residuals.ravel().tolist()):
        if residual > _INVARIANCE_TOL:
            raise NonInvariantError(
                f"operator is not rotationally invariant (residual {residual:.3e}); "
                "use twirl_alpha for the projection",
                projected_beta=beta,
            )
    return betas[0] if rho.ndim == 2 else betas


@lru_cache(maxsize=None)
def time_reversal(n: int) -> np.ndarray:
    """The time-reversal unitary V for one spin j = (n-1)/2: V|j m> = (-1)**(j-m) |j -m>.

    A rotation by pi about the y axis; theta(B) = V B^T V^dag.
    """
    v = np.zeros((n, n))
    tj = n - 1
    for i in range(n):  # column index: m = j - i
        tm = tj - 2 * i
        row = (tj + tm) // 2  # position of -m
        v[row, i] = _phase(tj - tm)
    return _frozen(v)


def partial_transpose_1(rho: np.ndarray, system: SpinPair) -> np.ndarray:
    """Transpose the first subsystem of one operator or of each in a stack."""
    n1, n2 = system.n1, system.n2
    blocks = rho.reshape(rho.shape[:-2] + (n1, n2, n1, n2))
    return blocks.swapaxes(-4, -2).reshape(rho.shape)


@lru_cache(maxsize=None)
def _theta1_signs(system: SpinPair) -> np.ndarray:
    """(-1)**(a+a') at ((a, b), (a', b')): the signs V (x) 1 puts on both sides; read-only."""
    parity = np.arange(system.dim) // system.n2 % 2
    return _frozen(np.where(parity[:, None] == parity[None, :], 1.0, -1.0))


def theta1(rho: np.ndarray, system: SpinPair) -> np.ndarray:
    """Partial time reversal (V (x) 1) rho^T1 (V (x) 1)^dag, for one operator or a stack.

    V (x) 1 is a signed permutation: it sends (a, b) to (n1-1-a, b) with sign
    (-1)**a.  So the image is the partial transpose with the first factor's
    indices reversed, times a sign grid, in O(d^2) and in the dtype of ``rho``.
    Adding 0.0 turns every -0.0 into +0.0, so the bytes are those of the
    matrix product (whose BLAS kernel leaves a -0.0 in some zero real parts
    only for complex input with n1 n2 not a multiple of 4).
    """
    n1, n2 = system.n1, system.n2
    blocks = partial_transpose_1(rho, system).reshape(rho.shape[:-2] + (n1, n2, n1, n2))
    image = blocks[..., ::-1, :, ::-1, :].reshape(rho.shape) * _theta1_signs(system)
    image += 0.0
    return image


def breuer_phi1(rho: np.ndarray, system: SpinPair) -> np.ndarray:
    """(Phi (x) id)(rho) = 1 (x) Tr_1(rho) - rho - theta_1(rho).

    1 (x) Tr_1(rho) is the product np.kron forms, broadcast over a stack.
    """
    n1, n2 = system.n1, system.n2
    tr1 = np.trace(rho.reshape(rho.shape[:-2] + (n1, n2, n1, n2)), axis1=-4, axis2=-2)
    eye_tr1 = np.eye(n1)[:, None, :, None] * tr1[..., None, :, None, :]
    return eye_tr1.reshape(rho.shape) - rho - theta1(rho, system)


def twirl_alpha(rho: np.ndarray, system: SpinPair) -> AlphaVector:
    """Projector coordinates of the rotation twirl Pi(rho).

    alpha_J = sqrt(n1 n2 / (2J+1)) Tr(P_J rho); the twirl is the identity
    on invariant states and preserves separability in general.
    """
    coords = [
        np.sqrt(system.dim / (twice(j) + 1)) * np.trace(projector(system, j) @ rho).real
        for j in system.j_values()
    ]
    return AlphaVector(system, coords)


@dataclass(frozen=True)
class PureProductState:
    """|phi1> (x) |phi2> with amplitudes over m = j, j-1, ..., -j per factor."""

    system: SpinPair
    amps1: tuple[complex, ...]
    amps2: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "amps1", tuple(complex(a) for a in self.amps1))
        object.__setattr__(self, "amps2", tuple(complex(a) for a in self.amps2))
        if len(self.amps1) != self.system.n1 or len(self.amps2) != self.system.n2:
            raise ValueError("amplitude lengths must be (n1, n2)")
        for amps in (self.amps1, self.amps2):
            norm = sum(abs(a) ** 2 for a in amps)
            if not abs(norm - 1.0) <= 1e-9:
                raise ValueError(f"amplitudes are not normalized (|phi|^2 = {norm})")

    @classmethod
    def basis_state(cls, system: SpinPair, m1, m2) -> "PureProductState":
        """|j1, m1> (x) |j2, m2>."""
        tm1, tm2 = twice(m1), twice(m2)
        a1 = [0.0] * system.n1
        a2 = [0.0] * system.n2
        a1[(system.n1 - 1 - tm1) // 2] = 1.0
        a2[(system.n2 - 1 - tm2) // 2] = 1.0
        return cls(system, tuple(a1), tuple(a2))


def pi_project(product: PureProductState) -> BetaVector:
    """Tensor coordinates of the rotation twirl of a pure product state.

    beta_K = sqrt(n1 n2 / (2K+1)) sum_q <T_{K,q}>_phi1 <T_{K,q}^dag>_phi2.
    The twirl preserves separability, so the image of any product state is
    a separable invariant state; beta_0 comes out 1.
    """
    sys_ = product.system
    v1 = np.array(product.amps1)
    v2 = np.array(product.amps2)
    coords = []
    for K in sys_.k_values():
        total = 0.0 + 0.0j
        for q in range(-K, K + 1):
            t1 = _tensor_matrix(sys_.n1 - 1, K, q)
            t2 = _tensor_matrix(sys_.n2 - 1, K, q)
            e1 = np.vdot(v1, t1 @ v1)
            e2 = np.vdot(v2, t2 @ v2)
            total += e1 * np.conj(e2)
        if abs(total.imag) > 1e-9:
            raise AssertionError(f"twirl produced a non-real coordinate at K={K}: {total}")
        coords.append(np.sqrt(sys_.dim / (2 * K + 1)) * total.real)
    return BetaVector(sys_, coords)


@lru_cache(maxsize=None)
def spin_operators(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Jx, Jy, Jz) for one spin j = (n-1)/2, basis m descending."""
    tj = n - 1
    m = np.array([(tj - 2 * i) / 2 for i in range(n)])
    jz = np.diag(m)
    jp = np.zeros((n, n))
    for i in range(1, n):  # J+ |j m> = sqrt(j(j+1) - m(m+1)) |j m+1>
        mm = m[i]
        jp[i - 1, i] = np.sqrt(tj / 2 * (tj / 2 + 1) - mm * (mm + 1))
    jx = 0.5 * (jp + jp.T)
    jy = -0.5j * (jp - jp.T)
    return _frozen(jx), _frozen(jy.astype(complex)), _frozen(jz.astype(complex))


def product_rotation(system: SpinPair, axis: int, angle: float) -> np.ndarray:
    """D^(j1)(R) (x) D^(j2)(R) for a rotation about a coordinate axis."""
    def rot(n):
        gen = spin_operators(n)[axis]
        vals, vecs = np.linalg.eigh(gen)
        return (vecs * np.exp(-1j * angle * vals)) @ vecs.conj().T

    return np.kron(rot(system.n1), rot(system.n2))


def spectrum(op: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian operator, or of each in a stack (..., d, d)."""
    return np.linalg.eigvalsh(op)


def min_eigenvalue(op: np.ndarray) -> tuple[float, float]:
    """Smallest eigenvalue and the residual ||M v - lambda v|| certifying it."""
    vals, vecs = np.linalg.eigh(op)
    idx = int(np.argmin(vals))
    v = vecs[:, idx]
    residual = float(np.linalg.norm(op @ v - vals[idx] * v))
    return float(vals[idx]), residual
