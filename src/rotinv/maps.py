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

This module holds the verdicts and the public maps; the coordinate rules,
the per-system plan and the verdict names live in :mod:`rotinv.states`.
The maps wrap a rule's coordinates in a BetaVector.  Each decision margin
has one home: ``_theta1_margin`` is the smallest alpha of the theta_1
image and ``_breuer_margin`` that of the Breuer image, each one product
with the plan's L^T.  :func:`classify`, :func:`is_ppt` and
:func:`breuer_detects` make one plan lookup per call and only compare the
margins with ``tol``.  The 4 x N separable rule is
``geometry.minimal_separable_membership_4xn``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import minimal_separable_membership_4xn
from .states import (
    DEFAULT_TOL,
    BetaVector,
    SpinPair,
    Verdict,
    _breuer_coords,
    _plan,
    _theta1_coords,
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


def partial_time_reversal(beta: BetaVector) -> BetaVector:
    """theta_1 in tensor coordinates: beta_K -> (-1)**K beta_K (an involution)."""
    return BetaVector(beta.system, _theta1_coords(beta.coords))


def symmetrize(beta: BetaVector) -> BetaVector:
    """(beta + theta_1 beta)/2, i.e. the odd-K coordinates set to zero and the even ones kept."""
    return BetaVector(beta.system, tuple(0.0 if k % 2 else c for k, c in enumerate(beta.coords)))


def breuer_map(beta: BetaVector) -> BetaVector:
    """The unnormalized coefficients of Phi_1(rho) for a normalized invariant state.

    Their trace n1-2 vanishes for n1 = 2; they depend on the input only
    through its theta_1-symmetrization.
    """
    return BetaVector(beta.system, _breuer_coords(beta.as_array()))


def _theta1_margin(plan, c: np.ndarray) -> float:
    """The smallest alpha of the theta_1 image of the coordinates ``c``: PPT iff >= -tol."""
    return min((plan.lt_theta1 @ c).tolist())


def _breuer_margin(plan, c: np.ndarray) -> float:
    """The smallest alpha of the Breuer image of the coordinates ``c``: detected iff < -tol."""
    return min((plan.lt @ _breuer_coords(c)).tolist())


def breuer_detects(beta: BetaVector, tol: float = DEFAULT_TOL) -> bool:
    """Whether Phi_1(rho) has a negative alpha coordinate, certifying entanglement.

    Only meaningful where the map is positive; raises
    :class:`BreuerNotApplicableError` unless n1 is even and >= 4.  Boundary
    cases within ``tol`` report False (a witness must not claim
    entanglement inside numerical noise).
    """
    plan = _plan(beta.system)
    if not plan.breuer_applicable:
        raise BreuerNotApplicableError("Breuer criterion needs even n1 >= 4, "
                                       f"got n1 = {beta.system.n1}")
    return _breuer_margin(plan, beta.as_array()) < -tol


def is_ppt(beta: BetaVector, tol: float = DEFAULT_TOL) -> bool:
    """Whether the partial time reversal of the state is still positive."""
    return _theta1_margin(_plan(beta.system), beta.as_array()) >= -tol


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
    Input off the trace condition (beta_0 != 1) is NotAState, except where the
    Breuer map applies (even n1 >= 4): there it raises the ``breuer_map`` ValueError.

    Works on one coordinate array and the system's plan: alpha is L^T times
    the array, and the theta_1 and Breuer margins come from
    ``_theta1_margin`` and ``_breuer_margin``.  Minima are Python ``min``
    over the floats, as over an AlphaVector (a 0.0/-0.0 tie keeps the
    first); the state test reads that minimum.  The record skips the frozen
    ``__init__`` and its per-field ``object.__setattr__``.
    """
    sys_ = beta.system
    plan = _plan(sys_)
    c = np.array(beta.coords)
    alpha = plan.lt @ c
    min_alpha = min(alpha.tolist())
    is_state = abs(float(plan.weights @ alpha) - 1.0) <= tol and min_alpha >= -tol
    min_theta1 = _theta1_margin(plan, c)
    ppt = min_theta1 >= -tol

    detected: bool | None = None
    min_breuer: float | None = None
    if plan.breuer_applicable:
        min_breuer = _breuer_margin(plan, c)
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

    record = object.__new__(Classification)
    vars(record).update(
        system=sys_,
        is_state=is_state,
        is_ppt=ppt,
        breuer_detected=detected,
        known_separable=separable,
        verdict=verdict,
        min_alpha=min_alpha,
        min_theta1_alpha=min_theta1,
        min_breuer_alpha=min_breuer,
        tol=tol,
    )
    return record
