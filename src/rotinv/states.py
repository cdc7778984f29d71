"""Coordinate representations of SO(3)-invariant bipartite states.

An invariant state on C^n1 x C^n2 (n1 <= n2, spins j_i = (n_i - 1)/2) is

    rho = (n1*n2)**(-1/2) * sum_J alpha_J / sqrt(2J+1) * P_J,

with P_J the projector onto total angular momentum J, J running from
j2 - j1 to j1 + j2.  The same state expands over the invariant tensor
operators Q_K (K = 0 .. n1-1) with coordinates beta_K; the two coordinate
vectors are related by the orthogonal matrix

    L[K, J] = sqrt((2K+1)(2J+1)) * (-1)**(j1+j2+J) * {j1 j2 J; j2 j1 K}.

alpha is indexed by increasing J, beta by K = 0 .. n1-1.  rho is a state
iff alpha_J >= 0 and sum_J sqrt((2J+1)/(n1*n2)) alpha_J = 1; in beta
coordinates normalization reads beta_0 = 1.

L's exact entries are Racah sums assembled by ``wigner._l_rows`` (its 4 x N
closed form is in geometry).  It is cached here per system, beside the
rules that maps and geometry share: the exact weights w_J
(``_exact_weights``, whose floats are ``norm_weights``), theta_1
(``_theta1_coords``), the Breuer image (``_breuer_rule``, and
``_breuer_coords``, which writes the rule's image of a coordinate array
into a zeroed one), the trace test, the per-system float plan (``_plan``)
and the verdict names.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import ClassVar, NamedTuple

import numpy as np

from .radical import ExactRadical
from .wigner import _l_rows, twice

__all__ = [
    "SpinPair",
    "AlphaVector",
    "BetaVector",
    "LMatrix",
    "StateCheck",
    "build_l_matrix",
    "alpha_to_beta",
    "beta_to_alpha",
    "check_state",
    "spectrum_from_alpha",
    "maximally_mixed",
    "vector_from_json_dict",
    "Verdict",
]

DEFAULT_TOL = 1e-10

# largest |beta_0 - 1|, i.e. |trace - 1|, that still counts as unit trace
TRACE_TOL = 1e-9


def _unit_trace(beta0: float, bound: float = TRACE_TOL) -> bool:
    """Whether beta_0, the trace, is within ``bound`` of 1; nan is not."""
    return abs(beta0 - 1.0) <= bound


class Verdict(enum.Enum):
    NOT_A_STATE = "NotAState"
    NPT_ENTANGLED = "NptEntangled"
    PPT_BOUND_ENTANGLED_DETECTED = "PptBoundEntangledDetected"
    KNOWN_SEPARABLE = "KnownSeparable"
    PPT_UNDETERMINED = "PptUndetermined"


@dataclass(frozen=True)
class SpinPair:
    """The bipartite system (n1, n2) with n1 <= n2."""

    n1: int
    n2: int

    def __post_init__(self):
        if not (isinstance(self.n1, int) and isinstance(self.n2, int)):
            raise TypeError("dimensions must be ints")
        if self.n1 < 2:
            raise ValueError(f"n1 must be >= 2, got {self.n1}")
        if self.n2 < self.n1:
            raise ValueError(f"need n2 >= n1, got ({self.n1}, {self.n2})")

    @property
    def j1(self) -> Fraction:
        return Fraction(self.n1 - 1, 2)

    @property
    def j2(self) -> Fraction:
        return Fraction(self.n2 - 1, 2)

    @property
    def dim(self) -> int:
        return self.n1 * self.n2

    @property
    def breuer_applicable(self) -> bool:
        """Whether the Breuer map is a positive map on this system (even n1 >= 4)."""
        return self.n1 % 2 == 0 and self.n1 >= 4

    def j_values(self) -> tuple[Fraction, ...]:
        """Total angular momenta j2-j1 .. j1+j2, ascending (n1 values)."""
        return tuple(Fraction(tj, 2) for tj in range(self.n2 - self.n1, self.n1 + self.n2 - 1, 2))

    def k_values(self) -> tuple[int, ...]:
        """Tensor ranks 0 .. n1-1."""
        return tuple(range(self.n1))

    def norm_weights(self) -> np.ndarray:
        """Weights w_J = sqrt((2J+1)/(n1*n2)); a state has w . alpha = 1.

        The array is cached per system and read-only.
        """
        return _norm_weights(self)


@lru_cache(maxsize=None)
def _exact_weights(system: SpinPair) -> tuple[ExactRadical, ...]:
    """The exact weights w_J = sqrt((2J+1)/(n1*n2)), ascending J: row 0 of L."""
    return tuple(ExactRadical.sqrt(Fraction(twice(j) + 1, system.dim)) for j in system.j_values())


@lru_cache(maxsize=None)
def _norm_weights(system: SpinPair) -> np.ndarray:
    w = np.array([float(w) for w in _exact_weights(system)])
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class _CoordinateVector:
    """The n1 float coordinates of an invariant state in one basis.

    Each subclass names its basis in the class variable ``basis`` and
    labels its coordinates; vectors of different subclasses never compare
    equal.
    """

    basis: ClassVar[str]
    system: SpinPair
    coords: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(map(float, self.coords)))
        if len(self.coords) != self.system.n1:
            raise ValueError(
                f"{self.basis} for {self.system} needs {self.system.n1} coordinates, "
                f"got {len(self.coords)}"
            )

    def as_array(self) -> np.ndarray:
        return np.array(self.coords)

    def to_json_dict(self) -> dict:
        return {
            "system": [self.system.n1, self.system.n2],
            "basis": self.basis,
            "coords": list(self.coords),
        }


class AlphaVector(_CoordinateVector):
    """Coordinates over the projectors P_J, indexed by increasing J."""

    basis = "alpha"

    def labeled(self) -> tuple[tuple[str, float], ...]:
        """(J label, value) pairs, e.g. ('J=3/2', 0.25)."""
        return tuple(
            (f"J={j}", c) for j, c in zip(self.system.j_values(), self.coords)
        )


class BetaVector(_CoordinateVector):
    """Coordinates over the invariant tensor operators Q_K, K = 0 .. n1-1."""

    basis = "beta"

    def labeled(self) -> tuple[tuple[str, float], ...]:
        return tuple((f"K={k}", c) for k, c in enumerate(self.coords))


def _theta1_coords(coords) -> tuple:
    """theta_1 on tensor coordinates: beta_K -> (-1)**K beta_K."""
    return tuple(-c if k % 2 else c for k, c in enumerate(coords))


def _breuer_rule(n1: int) -> tuple[int, float]:
    """(trace, factor): Phi_1 maps (1, beta_1, beta_2, ...) to (trace, 0, factor beta_2, 0, ...)."""
    return n1 - 2, -2.0


def _breuer_coords(c: np.ndarray) -> np.ndarray:
    """Phi_1 on the float tensor coordinates ``c`` of a unit-trace state, by :func:`_breuer_rule`.

    A zeroed array gets the trace at K = 0 and, in place, ``c_K * factor``
    at even K >= 2; the odd coordinates are never read, so an infinite one
    raises no floating-point warning.
    """
    if not _unit_trace(float(c[0])):
        raise ValueError(f"breuer_map needs a normalized input (beta_0 = 1), got {float(c[0])}")
    trace, factor = _breuer_rule(len(c))
    b = np.zeros(len(c))
    b[0] = trace
    np.multiply(c[2::2], factor, out=b[2::2])
    return b


def vector_from_json_dict(data: dict) -> AlphaVector | BetaVector:
    """Inverse of AlphaVector/BetaVector.to_json_dict.

    The dict is input from outside the program: a missing key or a value of
    the wrong kind raises ValueError naming the key.  ``json.loads`` also
    reads NaN, Infinity, 1e400 and ints past float's range; none is a coordinate.
    """
    def list_of(value, kinds):  # bools are ints to isinstance, and never a coordinate
        return isinstance(value, list) and all(
            isinstance(item, kinds) and not isinstance(item, bool) for item in value)
    for key, valid, kind in (
            ("system", lambda v: list_of(v, int) and len(v) == 2, "a list of two ints"),
            ("basis", lambda v: isinstance(v, str), "a string"),
            ("coords", lambda v: list_of(v, (int, float)) and all(  # NaN compares False
                abs(item) <= sys.float_info.max for item in v),
             "a list of finite ints and floats")):
        if key not in data:
            raise ValueError(f"a coordinate vector needs the key {key!r}")
        if not valid(data[key]):
            raise ValueError(f"the key {key!r} needs {kind}, got {data[key]!r}")
    system = SpinPair(*data["system"])
    for cls in (AlphaVector, BetaVector):
        if data["basis"] == cls.basis:
            return cls(system, data["coords"])
    raise ValueError(f"unknown basis {data['basis']!r}")


@dataclass(frozen=True)
class LMatrix:
    """The orthogonal alpha -> beta basis change, rows K, columns ascending J.

    Entries are stored as ExactRadical (for the closed-form geometry, which
    needs exact values); ``values`` holds their floats (for numerics).
    """

    system: SpinPair
    exact: tuple[tuple[ExactRadical, ...], ...]

    @cached_property
    def values(self) -> np.ndarray:
        """The float entries of ``exact``, converted once per matrix; read-only."""
        arr = np.array([[float(e) for e in row] for row in self.exact])
        arr.flags.writeable = False
        return arr


@lru_cache(maxsize=None)
def build_l_matrix(system: SpinPair) -> LMatrix:
    """L[K, J] = sqrt((2K+1)(2J+1)) (-1)**(j1+j2+J) {j1 j2 J; j2 j1 K}, by ``wigner._l_rows``."""
    return LMatrix(system, _l_rows(system.n1 - 1, system.n2 - 1))


class _Plan(NamedTuple):
    """What the per-state tests read of one system, built once from the float L."""

    lt: np.ndarray
    lt_theta1: np.ndarray
    weights: np.ndarray
    breuer_applicable: bool


@lru_cache(maxsize=None)
def _plan(system: SpinPair) -> _Plan:
    """L^T, the read-only theta_1 matrix L^T diag((-1)**K), the weights and Breuer applicability.

    The theta_1 matrix is a signed copy of L, transposed: it keeps the
    F-ordered layout of L^T, so its products are bitwise those of L^T on the
    flipped coordinates (a C-ordered copy or a stacked product are not).
    """
    values = build_l_matrix(system).values
    lt_theta1 = (values * np.array(_theta1_coords((1.0,) * system.n1))[:, None]).T
    lt_theta1.flags.writeable = False
    return _Plan(values.T, lt_theta1, system.norm_weights(), system.breuer_applicable)


def alpha_to_beta(alpha: AlphaVector) -> BetaVector:
    """beta = L alpha.  Normalized alpha maps to beta with beta_0 = 1."""
    l = build_l_matrix(alpha.system).values
    return BetaVector(alpha.system, l @ alpha.as_array())


def beta_to_alpha(beta: BetaVector) -> AlphaVector:
    """alpha = L^T beta (L is orthogonal), with the plan's L^T."""
    return AlphaVector(beta.system, _plan(beta.system).lt @ beta.as_array())


@dataclass(frozen=True)
class StateCheck:
    normalized: bool
    positive: bool

    @property
    def is_state(self) -> bool:
        return self.normalized and self.positive


def check_state(alpha: AlphaVector, tol: float = DEFAULT_TOL) -> StateCheck:
    """Whether alpha is normalized (w . alpha = 1) and entrywise nonnegative."""
    a = alpha.as_array()
    return StateCheck(normalized=abs(float(alpha.system.norm_weights() @ a) - 1.0) <= tol,
                      positive=bool(a.min() >= -tol))


def spectrum_from_alpha(alpha: AlphaVector) -> tuple[tuple[float, int], ...]:
    """(eigenvalue, multiplicity) per J block, ascending J.

    The block for total momentum J contributes the eigenvalue
    alpha_J / sqrt(n1*n2*(2J+1)) with multiplicity 2J+1; multiplicities
    sum to n1*n2.
    """
    sys_ = alpha.system
    out = []
    for j, a in zip(sys_.j_values(), alpha.coords):
        mult = twice(j) + 1
        out.append((a / np.sqrt(sys_.dim * mult), mult))
    return tuple(out)


def maximally_mixed(system: SpinPair) -> AlphaVector:
    """alpha of the maximally mixed state 1/(n1*n2): alpha_J = w_J."""
    return AlphaVector(system, system.norm_weights())
