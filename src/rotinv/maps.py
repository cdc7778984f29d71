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

Each coordinate rule has one home, a private function on the coordinate
tuple: ``states._theta1_coords`` for the sign flip and ``_breuer_coords``
for the Breuer image with its trace check.  The public maps wrap their
result in a BetaVector; :func:`classify` takes the alpha images of the
state, of its theta_1 image and of its Breuer image straight from the
coordinates, one ``L.T @ v`` product each, without building intermediate
vectors.  Dense matrices, the tensor operators included, live in
:mod:`rotinv.dense`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .geometry import minimal_separable_membership_4xn
from .states import (
    DEFAULT_TOL,
    TRACE_TOL,
    BetaVector,
    SpinPair,
    _normalized_positive,
    _theta1_coords,
    build_l_matrix,
)

__all__ = [
    "BreuerNotApplicableError",
    "partial_time_reversal",
    "symmetrize",
    "breuer_map",
    "breuer_detects",
    "is_ppt",
    "Verdict",
    "Classification",
    "classify",
]


class BreuerNotApplicableError(ValueError):
    """The Breuer map is not positive on this system (odd or too small n1)."""


def _breuer_coords(coords) -> list[float]:
    """Phi_1 on the tensor coordinates of a unit-trace state: (n1-2, 0, -2 beta_2, 0, ...)."""
    if abs(coords[0] - 1.0) > TRACE_TOL:
        raise ValueError(f"breuer_map needs a normalized input (beta_0 = 1), got {coords[0]}")
    n1 = len(coords)
    return [float(n1 - 2)] + [0.0 if k % 2 else -2.0 * coords[k] for k in range(1, n1)]


def _min_alpha(lt: np.ndarray, coords) -> float:
    """min_J alpha_J for tensor coordinates, given lt = L^T.

    A Python min over the floats, so a tie between 0.0 and -0.0 keeps the
    first one, as a min over an AlphaVector's coordinates does.
    """
    return min((lt @ np.array(coords)).tolist())


def _min_theta1_alpha(lt: np.ndarray, coords) -> float:
    """min_J alpha_J(theta_1 rho)."""
    return _min_alpha(lt, _theta1_coords(coords))


def _min_breuer_alpha(lt: np.ndarray, coords) -> float:
    """min_J alpha_J(Phi_1 rho), unnormalized image; needs the map to apply."""
    return _min_alpha(lt, _breuer_coords(coords))


def partial_time_reversal(beta: BetaVector) -> BetaVector:
    """theta_1 in tensor coordinates: beta_K -> (-1)**K beta_K (an involution)."""
    return BetaVector(beta.system, _theta1_coords(beta.coords))


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
    return BetaVector(beta.system, _breuer_coords(beta.coords))


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
    return _min_breuer_alpha(build_l_matrix(beta.system).values.T, beta.coords) < -tol


def is_ppt(beta: BetaVector, tol: float = DEFAULT_TOL) -> bool:
    """Whether the partial time reversal of the state is still positive."""
    return _min_theta1_alpha(build_l_matrix(beta.system).values.T, beta.coords) >= -tol


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

    Works on the coordinate tuple: one L lookup, then alpha, the theta_1
    image's alpha and (where the Breuer map applies) the Breuer image's
    alpha, each one ``L.T @ v`` product; the coordinate rules and the state
    test are the ones the public maps and :func:`check_state` use.
    """
    sys_ = beta.system
    coords = beta.coords
    lt = build_l_matrix(sys_).values.T
    alpha = lt @ np.array(coords)
    normalized, positive = _normalized_positive(sys_, alpha, tol)
    is_state = normalized and positive
    min_theta1 = _min_theta1_alpha(lt, coords)
    ppt = min_theta1 >= -tol

    detected: bool | None = None
    min_breuer: float | None = None
    if sys_.breuer_applicable:
        min_breuer = _min_breuer_alpha(lt, coords)
        detected = min_breuer < -tol

    separable = False
    if sys_.n1 == 4 and is_state and ppt and not detected:
        separable = minimal_separable_membership_4xn(beta, tol)

    if not is_state:
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
        is_state=is_state,
        is_ppt=ppt,
        breuer_detected=detected,
        known_separable=separable,
        verdict=verdict,
        min_alpha=min(alpha.tolist()),
        min_theta1_alpha=min_theta1,
        min_breuer_alpha=min_breuer,
        tol=tol,
    )
