"""Symmetry maps and entanglement tests in parameter space.

Partial time reversal theta_1 = theta (x) id acts on the tensor-basis
coordinates as beta_K -> (-1)**K beta_K and is unitarily equivalent to
partial transposition, so the PPT test is a sign flip followed by a
positivity check in alpha coordinates.

Breuer's positive map Phi(B) = (Tr B) 1 - B - theta(B) (Phys. Rev. Lett.
97, 080501), applied to the first subsystem of an invariant state, gives

    Phi_1(rho) = 1/n2 * 1 (x) 1 - 2 rho_inv,   rho_inv = (rho + theta_1 rho)/2,

which in beta coordinates sends (1, beta_1, beta_2, ...) to the
unnormalized coefficient vector (n1 - 2, 0, -2 beta_2, 0, -2 beta_4, ...).
The map is positive only for even n1, so a negative alpha coordinate of
the image certifies entanglement (possibly bound) for even n1 >= 4.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import minimal_separable_membership_4xn
from .halfint import halfint
from .radical import ExactRadical
from .states import (
    DEFAULT_TOL,
    AlphaVector,
    BetaVector,
    SpinPair,
    beta_to_alpha,
    check_state,
)
from .wigner import three_j

__all__ = [
    "BreuerNotApplicableError",
    "partial_time_reversal",
    "symmetrize",
    "breuer_map",
    "breuer_detects",
    "is_ppt",
    "tensor_matrix_element",
    "PureProductState",
    "pi_project",
    "Verdict",
    "Classification",
    "classify",
]


# largest |beta_0 - 1|, i.e. |trace - 1|, that breuer_map accepts
TRACE_TOL = 1e-9


class BreuerNotApplicableError(ValueError):
    """The Breuer map is not positive on this system (odd or too small n1)."""


def partial_time_reversal(beta: BetaVector) -> BetaVector:
    """theta_1 in tensor coordinates: beta_K -> (-1)**K beta_K (an involution)."""
    return BetaVector(
        beta.system,
        tuple(-c if k % 2 else c for k, c in enumerate(beta.coords)),
    )


def symmetrize(beta: BetaVector) -> BetaVector:
    """(beta + theta_1 beta)/2, i.e. the odd-K coordinates set to zero."""
    flipped = partial_time_reversal(beta)
    return BetaVector(
        beta.system,
        tuple(0.5 * (a + b) for a, b in zip(beta.coords, flipped.coords)),
    )


def breuer_map(beta: BetaVector) -> BetaVector:
    """Coefficients of Phi_1(rho) for a normalized invariant state.

    Returns the unnormalized coefficient vector
    (n1-2, 0, -2 beta_2, 0, -2 beta_4, ...), whose trace n1-2 vanishes for
    n1 = 2.  Depends on the input only through its theta_1-symmetrization.
    """
    n1 = beta.system.n1
    if abs(beta.coords[0] - 1.0) > TRACE_TOL:
        raise ValueError(f"breuer_map needs a normalized input (beta_0 = 1), got {beta.coords[0]}")
    out = [float(n1 - 2)]
    for k in range(1, n1):
        out.append(0.0 if k % 2 else -2.0 * beta.coords[k])
    return BetaVector(beta.system, out)


def breuer_detects(beta: BetaVector, tol: float = DEFAULT_TOL) -> bool:
    """Whether Phi_1(rho) has a negative alpha coordinate, certifying entanglement.

    Only meaningful where the map is positive; raises
    :class:`BreuerNotApplicableError` unless n1 is even and >= 4.  Boundary
    cases within ``tol`` report False (a witness must not claim
    entanglement inside numerical noise).
    """
    if not beta.system.breuer_applicable:
        raise BreuerNotApplicableError(
            f"Breuer criterion needs even n1 >= 4, got n1 = {beta.system.n1}"
        )
    return _min_breuer_alpha(beta) < -tol


def is_ppt(beta: BetaVector, tol: float = DEFAULT_TOL) -> bool:
    """Whether the partial time reversal of the state is still positive."""
    return _min_theta1_alpha(beta) >= -tol


def _min_theta1_alpha(beta: BetaVector) -> float:
    """min_J alpha_J(theta_1 rho)."""
    return min(beta_to_alpha(partial_time_reversal(beta)).coords)


def _min_breuer_alpha(beta: BetaVector) -> float:
    """min_J alpha_J(Phi_1 rho), unnormalized image; needs the map to apply."""
    return min(beta_to_alpha(breuer_map(beta)).coords)


def tensor_matrix_element(j, m, K, q, mp) -> ExactRadical:
    """<j, m| T_{K,q} |j, m'> for the unit-normalized irreducible tensor T_{K,q}.

    Wigner-Eckart form with Tr(T_{K,q} T_{K',q'}^dag) = delta delta:

        <j, m| T_{K,q} |j, m'> = (-1)**(j-m) sqrt(2K+1) (j K j; -m q m'),

    nonzero only for q = m - m', with T_{K,q}^dag = (-1)**q T_{K,-q}.
    (The 3-j argument order is fixed by requiring that the resulting Q_K
    are Hermitian, rotation invariant, and consistent with the L basis
    change; see the dense-oracle tests.)
    """
    j, m, K, q, mp = (halfint(x) for x in (j, m, K, q, mp))
    phase = -1 if ((j.twice - m.twice) // 2) % 2 else 1
    symbol = three_j(j, K, j, -m, q, mp)
    return symbol.scale(phase) * ExactRadical.sqrt(K.twice + 1)


def _tensor_matrix(two_j: int, K: int, q: int) -> np.ndarray:
    """Dense T_{K,q} for spin j, rows/cols ordered m = j, j-1, ..., -j."""
    dim = two_j + 1
    out = np.zeros((dim, dim))
    for r in range(dim):
        tm = two_j - 2 * r
        tmp = tm - 2 * q  # selection rule q = m - m'
        if abs(tmp) > two_j:
            continue
        c = (two_j - tmp) // 2
        out[r, c] = float(
            tensor_matrix_element(Fraction(two_j, 2), Fraction(tm, 2), K, q, Fraction(tmp, 2))
        )
    return out


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
            if abs(norm - 1.0) > 1e-9:
                raise ValueError(f"amplitudes are not normalized (|phi|^2 = {norm})")

    @classmethod
    def basis_state(cls, system: SpinPair, m1, m2) -> "PureProductState":
        """|j1, m1> (x) |j2, m2>."""
        m1, m2 = halfint(m1), halfint(m2)
        a1 = [0.0] * system.n1
        a2 = [0.0] * system.n2
        a1[(system.j1.twice - m1.twice) // 2] = 1.0
        a2[(system.j2.twice - m2.twice) // 2] = 1.0
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
            t1 = _tensor_matrix(sys_.j1.twice, K, q)
            t2 = _tensor_matrix(sys_.j2.twice, K, q)
            e1 = np.vdot(v1, t1 @ v1)
            e2 = np.vdot(v2, t2 @ v2)
            total += e1 * np.conj(e2)
        if abs(total.imag) > 1e-9:
            raise AssertionError(f"twirl produced a non-real coordinate at K={K}: {total}")
        coords.append(np.sqrt(sys_.dim / (2 * K + 1)) * total.real)
    return BetaVector(sys_, coords)


class Verdict(enum.Enum):
    NOT_A_STATE = "NotAState"
    NPT_ENTANGLED = "NptEntangled"
    PPT_BOUND_ENTANGLED_DETECTED = "PptBoundEntangledDetected"
    KNOWN_SEPARABLE = "KnownSeparable"
    PPT_UNDETERMINED = "PptUndetermined"


@dataclass(frozen=True)
class Classification:
    """Full verdict record for one invariant state.

    ``breuer_detected`` is None when the criterion does not apply (odd or
    n1 = 2 systems); ``known_separable`` only ever certifies membership in
    the minimal separable set known in closed form for 4 x N.
    """

    system: SpinPair
    is_state: bool
    is_ppt: bool
    breuer_detected: bool | None
    known_separable: bool
    verdict: Verdict
    min_alpha: float
    min_theta1_alpha: float
    min_breuer_alpha: float | None
    tol: float

    def to_json_dict(self) -> dict:
        out = {
            "system": [self.system.n1, self.system.n2],
            "is_state": self.is_state,
            "is_ppt": self.is_ppt,
            "known_separable": self.known_separable,
            "verdict": self.verdict.value,
            "min_alpha": self.min_alpha,
            "min_theta1_alpha": self.min_theta1_alpha,
            "tol": self.tol,
        }
        if self.breuer_detected is None:
            out["note"] = "Breuer criterion inapplicable: the map is positive only for even n1 >= 4"
        else:
            out["breuer_detected"] = self.breuer_detected
            out["min_breuer_alpha"] = self.min_breuer_alpha
        return out


def classify(beta: BetaVector, tol: float = DEFAULT_TOL) -> Classification:
    """Classify an invariant state given by tensor coordinates.

    Verdict precedence: NotAState > NptEntangled > PptBoundEntangledDetected
    > KnownSeparable > PptUndetermined.  Undetected PPT states outside the
    known separable set stay PptUndetermined: the Breuer criterion is not
    known to be sufficient, so "undetected" is never reported as separable.
    """
    sys_ = beta.system
    alpha = beta_to_alpha(beta)
    state = check_state(alpha, tol)
    min_theta1 = _min_theta1_alpha(beta)
    ppt = min_theta1 >= -tol

    detected: bool | None = None
    min_breuer: float | None = None
    if sys_.breuer_applicable:
        min_breuer = _min_breuer_alpha(beta)
        detected = min_breuer < -tol

    separable = False
    if sys_.n1 == 4 and state.is_state and ppt and not detected:
        separable = minimal_separable_membership_4xn(beta, tol)

    if not state.is_state:
        verdict = Verdict.NOT_A_STATE
    elif not ppt:
        verdict = Verdict.NPT_ENTANGLED
    elif detected:
        verdict = Verdict.PPT_BOUND_ENTANGLED_DETECTED
    elif separable:
        verdict = Verdict.KNOWN_SEPARABLE
    else:
        verdict = Verdict.PPT_UNDETERMINED

    return Classification(
        system=sys_,
        is_state=state.is_state,
        is_ppt=ppt,
        breuer_detected=detected,
        known_separable=separable,
        verdict=verdict,
        min_alpha=min(alpha.coords),
        min_theta1_alpha=min_theta1,
        min_breuer_alpha=min_breuer,
        tol=tol,
    )
