"""Dense-matrix oracle for cross-validating the parameter-space operations.

Builds every object explicitly on the full n1*n2-dimensional product space:
the coupled |J M> basis via Clebsch-Gordan coefficients, the projectors
P_J, the tensor operators T_{K,q} and invariants Q_K, the time-reversal
unitary V, partial transposition, the Breuer map and the rotation twirl.
The methods here are deliberately different from the exact parameter-space
path (floating linear algebra vs. exact radicals), so agreement between
the two is a genuine two-route check rather than a tautology.

Product-basis convention: index i = i1*n2 + i2 with m1 = j1 - i1 and
m2 = j2 - i2 (projections descending within each factor).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .halfint import halfint
from .maps import _tensor_matrix
from .states import AlphaVector, BetaVector, SpinPair
from .wigner import clebsch_gordan

__all__ = [
    "NonInvariantError",
    "coupled_basis",
    "projector",
    "invariant_q",
    "from_alpha",
    "from_beta",
    "extract_beta",
    "time_reversal",
    "theta1",
    "partial_transpose_1",
    "breuer_phi1",
    "twirl_alpha",
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
    tj1, tj2 = system.j1.twice, system.j2.twice
    u = np.zeros((n1 * n2, n1 * n2))
    col = 0
    for j in system.j_values():
        for tm in range(j.twice, -j.twice - 1, -2):
            for i1 in range(n1):
                tm1 = tj1 - 2 * i1
                tm2 = tm - tm1
                if abs(tm2) > tj2 or (tj2 - tm2) % 2:
                    continue
                i2 = (tj2 - tm2) // 2
                cg = clebsch_gordan(
                    Fraction(tj1, 2), Fraction(tm1, 2),
                    Fraction(tj2, 2), Fraction(tm2, 2),
                    j.value, Fraction(tm, 2),
                )
                u[i1 * n2 + i2, col] = float(cg)
            col += 1
    return _frozen(u)


@lru_cache(maxsize=None)
def _projector_cached(system: SpinPair, tj: int) -> np.ndarray:
    u = coupled_basis(system)
    col = 0
    for j in system.j_values():
        width = j.twice + 1
        if j.twice == tj:
            block = u[:, col:col + width]
            return _frozen(block @ block.T)
        col += width
    raise ValueError(f"J = {Fraction(tj, 2)} is not a total momentum of {system}")


def projector(system: SpinPair, J) -> np.ndarray:
    """P_J = sum_M |J M><J M|: Hermitian idempotent with trace 2J+1."""
    return _projector_cached(system, halfint(J).twice)


@lru_cache(maxsize=None)
def invariant_q(system: SpinPair, K: int) -> np.ndarray:
    """Q_K = sum_q T_{K,q} (x) T_{K,q}^dag: Hermitian, rotation invariant.

    Q_0 = (n1 n2)**(-1/2) * identity; Q_K is traceless for K >= 1.
    """
    if not 0 <= K <= system.n1 - 1:
        raise ValueError(f"K must be in 0..{system.n1 - 1}, got {K}")
    tj1, tj2 = system.j1.twice, system.j2.twice
    total = np.zeros((system.dim, system.dim))
    for q in range(-K, K + 1):
        t1 = _tensor_matrix(tj1, K, q)
        t2 = _tensor_matrix(tj2, K, q)
        total += np.kron(t1, t2.T)  # T1 (x) T2^dag, T2 real
    return _frozen(total)


def from_alpha(alpha: AlphaVector) -> np.ndarray:
    """Assemble the dense operator sum_J alpha_J P_J / sqrt(n1 n2 (2J+1))."""
    sys_ = alpha.system
    rho = np.zeros((sys_.dim, sys_.dim), dtype=complex)
    for j, a in zip(sys_.j_values(), alpha.coords):
        rho += (a / np.sqrt(sys_.dim * (j.twice + 1))) * projector(sys_, j)
    return rho


def from_beta(beta: BetaVector) -> np.ndarray:
    """Assemble the dense operator sum_K beta_K Q_K / sqrt(n1 n2 (2K+1))."""
    sys_ = beta.system
    rho = np.zeros((sys_.dim, sys_.dim), dtype=complex)
    for k, b in zip(sys_.k_values(), beta.coords):
        rho += (b / np.sqrt(sys_.dim * (2 * k + 1))) * invariant_q(sys_, k)
    return rho


# largest entry of |rho - twirl(rho)| that extract_beta accepts as invariant
_INVARIANCE_TOL = 1e-8


def extract_beta(rho: np.ndarray, system: SpinPair) -> BetaVector:
    """beta_K = sqrt(n1 n2 / (2K+1)) Tr(Q_K rho).

    The operator must equal its own twirl; a non-invariant input raises
    :class:`NonInvariantError` carrying the projected coordinates.
    """
    coords = [
        np.sqrt(system.dim / (2 * k + 1)) * np.trace(invariant_q(system, k) @ rho).real
        for k in system.k_values()
    ]
    beta = BetaVector(system, coords)
    residual = np.abs(rho - from_beta(beta)).max()
    if residual > _INVARIANCE_TOL:
        raise NonInvariantError(
            f"operator is not rotationally invariant (residual {residual:.3e}); "
            "use twirl_alpha for the projection",
            projected_beta=beta,
        )
    return beta


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
        v[row, i] = -1.0 if ((tj - tm) // 2) % 2 else 1.0
    return _frozen(v)


def partial_transpose_1(rho: np.ndarray, system: SpinPair) -> np.ndarray:
    """Transpose the first subsystem."""
    n1, n2 = system.n1, system.n2
    return rho.reshape(n1, n2, n1, n2).transpose(2, 1, 0, 3).reshape(rho.shape)


@lru_cache(maxsize=None)
def _time_reversal_1(system: SpinPair) -> np.ndarray:
    """V (x) 1, the unitary of partial time reversal; real and read-only."""
    return _frozen(np.kron(time_reversal(system.n1), np.eye(system.n2)))


def theta1(rho: np.ndarray, system: SpinPair) -> np.ndarray:
    """Partial time reversal (V (x) 1) rho^T1 (V (x) 1)^dag."""
    v = _time_reversal_1(system)
    return v @ partial_transpose_1(rho, system) @ v.conj().T


def breuer_phi1(rho: np.ndarray, system: SpinPair) -> np.ndarray:
    """(Phi (x) id)(rho) = 1 (x) Tr_1(rho) - rho - theta_1(rho)."""
    n1, n2 = system.n1, system.n2
    tr1 = np.trace(rho.reshape(n1, n2, n1, n2), axis1=0, axis2=2)
    return np.kron(np.eye(n1), tr1) - rho - theta1(rho, system)


def twirl_alpha(rho: np.ndarray, system: SpinPair) -> AlphaVector:
    """Projector coordinates of the rotation twirl Pi(rho).

    alpha_J = sqrt(n1 n2 / (2J+1)) Tr(P_J rho); the twirl is the identity
    on invariant states and preserves separability in general.
    """
    coords = [
        np.sqrt(system.dim / (j.twice + 1)) * np.trace(projector(system, j) @ rho).real
        for j in system.j_values()
    ]
    return AlphaVector(system, coords)


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
    """Ascending eigenvalues of a Hermitian operator."""
    return np.linalg.eigvalsh(op)


def min_eigenvalue(op: np.ndarray) -> tuple[float, float]:
    """Smallest eigenvalue and the residual ||M v - lambda v|| certifying it."""
    vals, vecs = np.linalg.eigh(op)
    idx = int(np.argmin(vals))
    v = vecs[:, idx]
    residual = float(np.linalg.norm(op @ v - vals[idx] * v))
    return float(vals[idx]), residual
