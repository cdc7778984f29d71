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
Each basis is built once per system as one read-only stack, the P_J or
the Q_K with their degeneracies d_i; ``projector`` and ``invariant_q``
return its rows.

Operators are complex (d, d) arrays, d = n1*n2.  ``partial_transpose_1``,
``theta1``, ``breuer_phi1``, ``spectrum`` and ``extract_beta`` also take a
stack (..., d, d), and ``from_alpha`` a sequence of one system's alphas.
One operator runs through the same code as a stack, and each matrix of a
stack comes out with the bytes of its own one-operator call;
``twirl_alpha`` takes one operator.  It and ``extract_beta`` read their
coordinates sqrt(n1 n2 / d_i) Tr(O_i rho) through one reader over the
stack of each basis.  ``partial_transpose_1``, ``theta1`` and
``breuer_phi1`` keep a real or complex input's dtype.

Each of those three maps has one implementation: a gather that reads its
image at any set of flat positions straight from the entries of rho,
through one cached, read-only table per system (where rho^T1 reads rho;
where theta_1 reads rho^T1 and its sign; where 1 (x) Tr_1(rho) reads
Tr_1(rho)).  The public map reads every position.  rho, theta_1(rho) and
Phi_1(rho) conserve M = m1 + m2, so each is block-diagonal in the product
basis.  A private routine gathers the M blocks of theta_1(rho) and
Phi_1(rho) from the real part of a stack through the same gathers, takes
their spectra in float64, one ``eigvalsh`` per block size, and reports the
largest entry of rho off its M blocks, so an operator that breaks M is
seen, not dropped.  theta_1 is unitarily equivalent to the partial
transpose, so its spectrum decides PPT.  The table of M's blocks, with
their support and the entries off them, is the oracle's one index table:
the sums of ``from_alpha``, ``from_beta`` and ``extract_beta`` run on its
support.

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


def projector(system: SpinPair, J) -> np.ndarray:
    """P_J = sum_M |J M><J M|: Hermitian idempotent with trace 2J+1; read-only, cached.

    J is a spin value, as :func:`wigner.twice` reads one; a bool or any other
    type raises ``ValueError``, as for :func:`invariant_q`.
    """
    try:
        j = Fraction(twice(J), 2)
    except TypeError:  # twice refuses bool, np.bool_ and every non-number
        raise ValueError(f"J must be a spin value, got {J!r}") from None
    if j not in system.j_values():
        raise ValueError(f"J = {j} is not a total momentum of {system}")
    return _basis(system, "alpha")[1][system.j_values().index(j)]


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


def invariant_q(system: SpinPair, K) -> np.ndarray:
    """Q_K = sum_q T_{K,q} (x) T_{K,q}^dag: Hermitian, rotation invariant; read-only, cached.

    Q_0 = (n1 n2)**(-1/2) * identity; Q_K is traceless for K >= 1.  K is an
    int or a NumPy integer; a bool, a float or any other type raises.
    """
    if isinstance(K, bool) or not isinstance(K, (int, np.integer)) or not 0 <= K < system.n1:
        raise ValueError(f"K must be in 0..{system.n1 - 1}, got {K}")
    return _basis(system, "beta")[1][int(K)]


@lru_cache(maxsize=None)
def _basis(system: SpinPair, basis: str) -> tuple[np.ndarray, np.ndarray]:
    """One basis as its degeneracies d_i (n,) and its operators O_i (n, d, d); cached, read-only.

    "alpha" holds the P_J, ascending J, with d_i = 2J+1: each is the product
    of its block of columns of :func:`coupled_basis` with that block's
    transpose.  "beta" holds the Q_K, ascending K, with d_i = 2K+1: each is
    the sum of T_{K,q} (x) T_{K,q}^dag over q ascending, from 0.0.
    """
    operators = np.zeros((system.n1, system.dim, system.dim))
    if basis == "alpha":
        u, widths = coupled_basis(system), np.array([twice(j) + 1 for j in system.j_values()])
        for op, stop, width in zip(operators, np.cumsum(widths), widths):
            block = u[:, stop - width:stop]
            op[...] = block @ block.T
        return _frozen(widths), _frozen(operators)
    tj1, tj2 = system.n1 - 1, system.n2 - 1
    for K, op in enumerate(operators):
        for q in range(-K, K + 1):  # T1 (x) T2^dag, T2 real
            op += np.kron(_tensor_matrix(tj1, K, q), _tensor_matrix(tj2, K, q).T)
    return _frozen(2 * np.arange(system.n1) + 1), _frozen(operators)


def _coordinates(rho: np.ndarray, system: SpinPair, basis: str) -> np.ndarray:
    """sqrt(n1 n2 / d_i) Tr(O_i rho) over a basis, on the last axis: (..., n) for (..., d, d)."""
    return np.stack([np.sqrt(system.dim / d) * np.trace(op @ rho, axis1=-2, axis2=-1).real
                     for d, op in zip(*_basis(system, basis))], axis=-1)


def _support_sums(system: SpinPair, coords, basis: str) -> tuple[np.ndarray, ...]:
    """sum_i coords[..., i] O_i / sqrt(n1 n2 d_i) on the support of the M table, for
    coefficient rows (..., n), in float64, from 0.0 and in place through one scratch array:
    support, off, sums.

    Each O_i conserves M = m1 + m2, so it is zero, or -0.0, off the support
    (218 of the 2304 entries at 6 x 8).
    """
    degeneracies, operators = _basis(system, basis)
    _, support, off = _sectors(system)
    scales = np.asarray(coords, dtype=float) / np.sqrt(system.dim * degeneracies)
    total = np.zeros(scales.shape[:-1] + support.shape)
    term = np.empty_like(total)
    for i, op in enumerate(np.take(_flat(operators), support, axis=-1)):
        total += np.multiply(scales[..., i, None], op, out=term)
    return support, off, total


def _assemble(system: SpinPair, coords, basis: str) -> np.ndarray:
    """The support sums in a complex zero array, every other entry and imaginary part +0.0
    as the full sum leaves them: one operator for a single row of coordinates, a stack
    (m, d, d) for rows (m, n)."""
    support, _, total = _support_sums(system, coords, basis)
    rho = np.zeros(total.shape[:-1] + (system.dim ** 2,), dtype=complex)
    rho[..., support] = total
    return rho.reshape(total.shape[:-1] + (system.dim, system.dim))


def from_alpha(alpha: AlphaVector | Sequence[AlphaVector]) -> np.ndarray:
    """Assemble the dense operator sum_J alpha_J P_J / sqrt(n1 n2 (2J+1)).

    A sequence of alphas of one system gives the stack of their operators.
    """
    alphas = [alpha] if isinstance(alpha, AlphaVector) else list(alpha)
    systems = {a.system for a in alphas}
    if len(systems) != 1:
        raise ValueError(f"from_alpha needs alphas of one system, got {len(systems)}")
    rho = _assemble(systems.pop(), [a.coords for a in alphas], "alpha")
    return rho[0] if isinstance(alpha, AlphaVector) else rho


def from_beta(beta: BetaVector) -> np.ndarray:
    """Assemble the dense operator sum_K beta_K Q_K / sqrt(n1 n2 (2K+1))."""
    return _assemble(beta.system, beta.coords, "beta")


# largest entry of |rho - twirl(rho)| that extract_beta accepts as invariant
_INVARIANCE_TOL = 1e-8


def _require_operators(rho: np.ndarray, system: SpinPair) -> None:
    """Raise ValueError unless the last two axes of ``rho`` are (n1 n2, n1 n2)."""
    if rho.shape[-2:] != (system.dim, system.dim):
        raise ValueError(f"an operator on {system} has shape ({system.dim}, {system.dim}) "
                         f"in its last two axes, got shape {rho.shape}")


def extract_beta(rho: np.ndarray, system: SpinPair) -> BetaVector | list[BetaVector]:
    """beta_K = sqrt(n1 n2 / (2K+1)) Tr(Q_K rho), for one operator or a stack.

    A stack (..., d, d) gives one BetaVector per matrix, in C order.  Every
    operator must equal its own twirl; a non-invariant one raises
    :class:`NonInvariantError` carrying its projected coordinates, as does
    one with a nan or inf entry, whose residual is nan.
    """
    _require_operators(rho, system)
    coords = _coordinates(rho, system, "beta")
    support, off, projection = _support_sums(system, coords, "beta")
    # |rho - projection| in the dtype of that difference; the projection is +0.0 off its support
    flat = _flat(rho).astype(np.result_type(rho, np.float64), copy=False)
    residuals = np.maximum(np.abs(np.take(flat, support, axis=-1) - projection).max(-1),
                           np.abs(np.take(flat, off, axis=-1)).max(-1))
    betas = [BetaVector(system, row) for row in coords.reshape(-1, system.n1).tolist()]
    for beta, residual in zip(betas, residuals.ravel().tolist()):
        if not residual <= _INVARIANCE_TOL:  # a nan residual fails too
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


def _flat(ops: np.ndarray) -> np.ndarray:
    """The entries of each operator of a stack (..., d, d) in one row (..., d * d)."""
    return ops.reshape(ops.shape[:-2] + (-1,))


def _every(system: SpinPair) -> np.ndarray:
    """Every flat position of a (d, d) operator, as a (d, d) array: where a whole image is read."""
    return np.arange(system.dim ** 2).reshape(system.dim, system.dim)


# Each map below is one gather: its image at flat positions ``at`` (an int
# array of any shape) is read from the flat entries of rho through one cached
# (d, d) table per system, so a whole image (``at = _every(system)``) and the
# charge blocks the oracle check reads (``at`` a sector table) are the same
# code, entry for entry.  The arithmetic on a gathered array runs in place.

@lru_cache(maxsize=None)
def _transposed_source(system: SpinPair) -> np.ndarray:
    """The flat index into rho of each entry of rho^T1, as (d, d); read-only.

    rho^T1 at ((a, b), (a', b')) is rho at ((a', b), (a, b')).
    """
    n1, n2 = system.n1, system.n2
    index = np.arange(system.dim ** 2).reshape(n1, n2, n1, n2)
    return _frozen(index.swapaxes(0, 2).reshape(system.dim, system.dim))


def _transposed_1(flat: np.ndarray, system: SpinPair, at: np.ndarray) -> np.ndarray:
    """rho^T1 at flat positions ``at``, read from the flat entries (..., d * d) of rho."""
    return np.take(flat, _transposed_source(system).ravel()[at], axis=-1)


def partial_transpose_1(rho: np.ndarray, system: SpinPair) -> np.ndarray:
    """Transpose the first subsystem of one operator or of each in a stack."""
    _require_operators(rho, system)
    return _transposed_1(_flat(rho), system, _every(system))


@lru_cache(maxsize=None)
def _theta1_table(system: SpinPair) -> tuple[np.ndarray, np.ndarray]:
    """Where theta_1(rho) reads rho^T1, and the sign it puts there: (d, d) each, read-only.

    Row a of V = :func:`time_reversal` (n1) has one nonzero, v_a at column
    s_a, so theta_1(rho) at ((a, b), (a', b')) is v_a v_a' rho^T1 at
    ((s_a, b), (s_a', b')).
    """
    n1, n2, v = system.n1, system.n2, time_reversal(system.n1)
    rows, source = np.nonzero(v)  # one nonzero per row
    index = np.arange(system.dim ** 2).reshape(n1, n2, n1, n2)[source][:, :, source]
    signs = np.repeat(v[rows, source], n2)  # v_a for each product index (a, b)
    return _frozen(index.reshape(system.dim, system.dim)), _frozen(np.outer(signs, signs))


def theta1(rho: np.ndarray, system: SpinPair) -> np.ndarray:
    """Partial time reversal (V (x) 1) rho^T1 (V (x) 1)^dag, for one operator or a stack.

    V (x) 1 is a signed permutation, so the image is the partial transpose
    with the first factor's indices reversed, times a sign grid, in O(d^2)
    and in the dtype of ``rho`` (float64 for int or bool input).
    """
    _require_operators(rho, system)
    rho = rho.astype(np.result_type(rho, 1.0), copy=False)
    return _time_reversed_1(_flat(rho), system, _every(system))


def _time_reversed_1(flat: np.ndarray, system: SpinPair, at: np.ndarray) -> np.ndarray:
    """theta_1(rho) at flat positions ``at``, read from the flat entries (..., d * d) of rho.

    Adding 0.0 turns every -0.0 into +0.0, so the bytes are those of the
    matrix product (whose BLAS kernel leaves a -0.0 in some zero real parts
    only for complex input with n1 n2 not a multiple of 4).
    """
    positions, signs = _theta1_table(system)
    image = _transposed_1(flat, system, positions.ravel()[at])
    image *= signs.ravel()[at]
    image += 0.0
    return image


def breuer_phi1(rho: np.ndarray, system: SpinPair) -> np.ndarray:
    """(Phi (x) id)(rho) = 1 (x) Tr_1(rho) - rho - theta_1(rho).

    1 (x) Tr_1(rho) has the entries of the product np.kron forms, broadcast
    over a stack.  Int or bool input gives float64, as for :func:`theta1`.
    """
    _require_operators(rho, system)
    rho = rho.astype(np.result_type(rho, 1.0), copy=False)
    flat, at = _flat(rho), _every(system)
    return _phi1(flat, _trace_1(rho, system), _time_reversed_1(flat, system, at), system, at)


def _trace_1(rho: np.ndarray, system: SpinPair) -> np.ndarray:
    """Tr_1(rho) of one operator or of each in a stack, as (..., n2, n2)."""
    n1, n2 = system.n1, system.n2
    return np.trace(rho.reshape(rho.shape[:-2] + (n1, n2, n1, n2)), axis1=-4, axis2=-2)


@lru_cache(maxsize=None)
def _phi1_table(system: SpinPair) -> tuple[np.ndarray, np.ndarray]:
    """Where 1 (x) Tr_1(rho) reads Tr_1(rho), and the entry of 1 there: (d, d) each, read-only.

    1 (x) Tr_1(rho) at ((a, b), (a', b')) is delta(a, a') Tr_1(rho) at (b, b').
    """
    n1, n2, shape = system.n1, system.n2, (system.dim, system.dim)
    grid = (n1, n2, n1, n2)
    slots = np.broadcast_to(np.arange(n2 * n2).reshape(1, n2, 1, n2), grid)
    eye = np.broadcast_to(np.eye(n1)[:, None, :, None], grid)
    return _frozen(slots.reshape(shape)), _frozen(eye.reshape(shape))


def _phi1(flat: np.ndarray, trace: np.ndarray, image: np.ndarray, system: SpinPair,
          at: np.ndarray) -> np.ndarray:
    """Phi_1(rho) at flat positions ``at``, from the flat entries (..., d * d) of rho,
    Tr_1(rho) as ``trace`` (..., n2, n2) and theta_1(rho) at ``at`` as ``image``."""
    slots, eye = _phi1_table(system)
    phi = np.take(_flat(trace), slots.ravel()[at], axis=-1)
    phi *= eye.ravel()[at]
    phi -= np.take(flat, at, axis=-1)
    phi -= image
    return phi


def twirl_alpha(rho: np.ndarray, system: SpinPair) -> AlphaVector:
    """Projector coordinates of the rotation twirl Pi(rho).

    alpha_J = sqrt(n1 n2 / (2J+1)) Tr(P_J rho); the twirl is the identity
    on invariant states and preserves separability in general.  It takes
    one operator: a stack raises ValueError.
    """
    _require_operators(rho, system)
    if rho.ndim != 2:
        raise ValueError(f"twirl_alpha takes one operator on {system}, got shape {rho.shape}")
    return AlphaVector(system, _coordinates(rho, system, "alpha"))


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
        """|j1, m1> (x) |j2, m2>; each m must satisfy |m| <= j with j - m an integer."""
        amps = []
        for n, m in ((system.n1, m1), (system.n2, m2)):
            tm = twice(m)
            if abs(tm) > n - 1 or (n - 1 - tm) % 2:
                raise ValueError(f"m = {m} is not a projection of spin j = {Fraction(n - 1, 2)}")
            amps.append(tuple(1.0 if 2 * i == n - 1 - tm else 0.0 for i in range(n)))
        return cls(system, *amps)


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
    """D^(j1)(R) (x) D^(j2)(R) for a rotation about coordinate axis 0, 1 or 2 (x, y, z)."""
    def rot(n):
        gen = spin_operators(n)[axis]
        vals, vecs = np.linalg.eigh(gen)
        return (vecs * np.exp(-1j * angle * vals)) @ vecs.conj().T

    if isinstance(axis, bool) or not isinstance(axis, (int, np.integer)) or axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2 (x, y or z), got {axis!r}")
    return np.kron(rot(system.n1), rot(system.n2))


def spectrum(op: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian operator, or of each in a stack (..., d, d)."""
    return np.linalg.eigvalsh(op)


@lru_cache(maxsize=None)
def _sectors(system: SpinPair) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """The blocks of M = m1 + m2, as flat indices into a (d, d) operator; read-only.

    Index i = i1 n2 + i2 has M = j1 + j2 - (i1 + i2).  An operator that
    conserves M links only indices of equal M, so it is zero off the blocks
    they span.  Returns one (blocks, s, s) array per block size s (each
    s <= n1), the flat entries of all blocks of that size; the support, the
    flat entries on some block, ascending; and ``off``, the flat entries off
    every block, ascending.  This is the oracle's one index table of M.
    """
    i1, i2 = np.divmod(np.arange(system.dim), system.n2)
    label = i1 + i2
    rows_by_size: dict[int, list[np.ndarray]] = {}
    for value in range(label.max() + 1):  # every value from 0 up is taken
        rows = np.flatnonzero(label == value)
        rows_by_size.setdefault(len(rows), []).append(rows)
    blocks = tuple(_frozen(rows[:, :, None] * system.dim + rows[:, None, :])
                   for rows in map(np.array, rows_by_size.values()))
    off = np.ones(system.dim ** 2, dtype=bool)
    for flat in blocks:
        off[flat.ravel()] = False
    return blocks, _frozen(np.flatnonzero(~off)), _frozen(np.flatnonzero(off))


def _block_spectra(rho: np.ndarray, system: SpinPair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascending spectra of theta_1 and Phi_1 of the real part of a stack, block by block.

    When rho conserves M = m1 + m2, so do theta_1(rho) and Phi_1(rho).  Each
    image is read as its M blocks, gathered from the real part of rho, and one
    float64 ``eigvalsh`` per block size takes the blocks of that size from
    both.  Returns the two spectra (..., d) and, per operator, the largest
    |entry| of rho off its M blocks (the images read their own off-block
    entries from these alone): 0.0 for a stack that conserves M.
    """
    _require_operators(rho, system)
    real, lead = rho.real, rho.shape[:-2]
    # np.take reads a contiguous copy several times faster than the strided real part
    flat, trace = np.ascontiguousarray(_flat(real)), _trace_1(real, system)
    blocks, _, off = _sectors(system)
    values = []
    for at in blocks:
        image = _time_reversed_1(flat, system, at)
        values.append(np.linalg.eigvalsh(np.concatenate(
            [image, _phi1(flat, trace, image, system, at)], axis=-3)).reshape(lead + (2, -1)))
    spectra = np.sort(np.concatenate(values, axis=-1), axis=-1)
    return (spectra[..., 0, :], spectra[..., 1, :],
            np.abs(np.take(flat, off, axis=-1)).max(axis=-1, initial=0.0))


def min_eigenvalue(op: np.ndarray) -> tuple[float, float]:
    """Smallest eigenvalue and the residual ||M v - lambda v|| certifying it, for one operator."""
    shape = np.shape(op)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"min_eigenvalue takes one square operator, got shape {shape}")
    vals, vecs = np.linalg.eigh(op)
    idx = int(np.argmin(vals))
    v = vecs[:, idx]
    residual = float(np.linalg.norm(op @ v - vals[idx] * v))
    return float(vals[idx]), residual
