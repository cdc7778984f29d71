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
for the Breuer image with its trace check (``states._unit_trace``); the
public maps wrap their result in a BetaVector.  :func:`classify`,
:func:`is_ppt` and :func:`breuer_detects` read one cached plan per system
instead, with four fields: ``lt`` (L^T), ``lt_theta1`` (L^T diag((-1)**K)),
``weights`` (the norm weights) and ``breuer_applicable``.  So a call makes
one lookup and takes each alpha image as one product.  The 4 x N separable
rule is ``geometry.minimal_separable_membership_4xn``; dense matrices live
in :mod:`rotinv.dense`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .geometry import minimal_separable_membership_4xn
from .states import (
    DEFAULT_TOL,
    BetaVector,
    SpinPair,
    _theta1_coords,
    _unit_trace,
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
    if not _unit_trace(coords[0]):
        raise ValueError(f"breuer_map needs a normalized input (beta_0 = 1), got {coords[0]}")
    n1 = len(coords)
    return [float(n1 - 2)] + [0.0 if k % 2 else -2.0 * coords[k] for k in range(1, n1)]


class _Plan(NamedTuple):
    """What the per-state tests read of one system, built once from the float L."""

    lt: np.ndarray
    lt_theta1: np.ndarray
    weights: np.ndarray
    breuer_applicable: bool


@lru_cache(maxsize=None)
def _plan(system: SpinPair) -> _Plan:
    """L^T, the read-only theta_1 matrix L^T diag((-1)**K), weights and the Breuer flag.

    The theta_1 matrix is a signed copy of L, transposed: it keeps the
    F-ordered layout of L^T, so its products are bitwise those of L^T on the
    flipped coordinates (a C-ordered copy or a stacked product are not).
    """
    values = build_l_matrix(system).values
    lt_theta1 = (values * np.array(_theta1_coords((1.0,) * system.n1))[:, None]).T
    lt_theta1.flags.writeable = False
    return _Plan(values.T, lt_theta1, system.norm_weights(), system.breuer_applicable)


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
    plan = _plan(beta.system)
    if not plan.breuer_applicable:
        raise BreuerNotApplicableError(
            f"Breuer criterion needs even n1 >= 4, got n1 = {beta.system.n1}"
        )
    return min((plan.lt @ np.array(_breuer_coords(beta.coords))).tolist()) < -tol


def is_ppt(beta: BetaVector, tol: float = DEFAULT_TOL) -> bool:
    """Whether the partial time reversal of the state is still positive."""
    return min((_plan(beta.system).lt_theta1 @ np.array(beta.coords)).tolist()) >= -tol


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

    Works on the coordinate tuple and the system's plan: alpha and the
    theta_1 image's alpha are L^T and the theta_1 matrix times one array,
    the Breuer image's alpha is L^T times its coordinate list.  Minima are
    Python ``min`` over the floats, as over an AlphaVector (a 0.0/-0.0 tie
    keeps the first); the state test reads that minimum.  The record skips
    the frozen ``__init__`` and its per-field ``object.__setattr__``.
    """
    sys_, coords = beta.system, beta.coords
    lt, lt_theta1, weights, breuer_applicable = _plan(sys_)
    c = np.array(coords)
    alpha = lt @ c
    min_alpha = min(alpha.tolist())
    is_state = abs(float(weights @ alpha) - 1.0) <= tol and min_alpha >= -tol
    min_theta1 = min((lt_theta1 @ c).tolist())
    ppt = min_theta1 >= -tol

    detected: bool | None = None
    min_breuer: float | None = None
    if breuer_applicable:
        min_breuer = min((lt @ np.array(_breuer_coords(coords))).tolist())
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
