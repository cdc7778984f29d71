"""Closed-form state-space geometry of invariant states.

For 4 x N the invariant states form a tetrahedron ABCD in the coordinates
(beta_1, beta_2, beta_3); its image under partial time reversal is
A'B'C'D', the PPT states are the intersection DD'EE'FF'GG', and DD'EE' is
the minimal set known to be separable.  Every labelled point has
coordinates of the form (rational) * r_K with the shared radial units

    r_1 = sqrt((N-1) / (5(N+1))),
    r_2 = sqrt((N-1)(N-2) / ((N+1)(N+2))),
    r_3 = sqrt((N-1)(N-2)(N-3) / (5(N+1)(N+2)(N+3))),

so all point constructions and hull tests here are exact.  The table of
these rationals is scaled once, by :func:`named_points_4xn`, and every other
4 x N reader takes its points: column J of the basis change L is w_J times
vertex J of ABCD, so :func:`explicit_l_matrix_4xn` reads L off A..D, and the
invariant segment E''G'' reads off E and G.  D'', the midpoint of DD', is D
with its odd coordinates set to zero: the n1 = 4 case of D~'' below.
Membership in DD'EE' has one rule, ``_hull_margin``, the smallest
barycentric weight over D, D', E and E' (nan for a nan weight), which the
float point test, the sweep and the exact test compare.

For general even n1 the theta_1-invariant states form a polytope in the
even coordinates (beta_2, ..., beta_{n1-2}) with facets alpha_J = 0,
ascending J, read off L by :func:`theta1_polytope`; in floats ``_slice_margins``
is the one reader, in columns: (d,) or (d, N) even coordinates to the
state's and its Breuer image's smallest alpha, which its callers only
compare.  Gamma, where the Breuer image meets the Jmin facet, separates the
detected bound-entangled region; D~'', the Jmax facet over its constant (the
symmetrized extreme state of maximal total momentum), lies on Gamma and
strictly inside the polytope, so the detected region is nonempty for every
even n1 >= 4, n2 >= n1.  Gamma and the sweeps take the Breuer image's
numbers and the class names from states.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb
from types import MappingProxyType

import numpy as np

from .radical import ExactRadical
from .states import (
    DEFAULT_TOL,
    TRACE_TOL,
    AlphaVector,
    BetaVector,
    LMatrix,
    SpinPair,
    Verdict,
    _breuer_rule,
    _exact_weights,
    _theta1_coords,
    _unit_trace,
    build_l_matrix,
)

__all__ = [
    "NamedPoint",
    "Hyperplane",
    "alpha_extreme_points",
    "explicit_l_matrix_4xn",
    "named_points_4xn",
    "gamma_hyperplane",
    "d_tilde_point",
    "theta1_polytope",
    "segment_state_4xn",
    "segment_detection_threshold",
    "minimal_separable_membership_4xn",
    "exact_hull_membership_4xn",
    "polytope_bounding_box",
    "be_region_fraction",
    "find_detected_invariant_state",
    "SWEEP_CLASSES",
    "sweep_columns",
    "sweep_rows",
]


@dataclass(frozen=True)
class NamedPoint:
    """A labelled invariant state with exact tensor coordinates."""

    label: str
    beta: BetaVector
    exact: tuple[ExactRadical, ...]

    @property
    def system(self) -> SpinPair:
        return self.beta.system

    def flipped(self, label: str) -> "NamedPoint":
        """The partial-time-reversal image (odd-K signs change)."""
        return NamedPoint(label, BetaVector(self.system, _theta1_coords(self.beta.coords)),
                          _theta1_coords(self.exact))


@dataclass(frozen=True)
class Hyperplane:
    """Affine functional constant + sum_K coeff_{2K} beta_{2K} over even K >= 2.

    Stored exactly: equality and hashing see only the exact fields, and
    ``constant`` and ``coeffs`` are their floats, converted once per plane.
    The coefficients may all vanish: at 4 x 5 the face alpha_{J=1/2} = 0
    misses the theta_1-invariant line and its functional is the constant
    L[0, J=1/2] > 0.
    """

    system: SpinPair
    label: str
    exact_constant: ExactRadical
    exact_coeffs: tuple[ExactRadical, ...]  # for beta_2, beta_4, ..., beta_{n1-2}

    def __post_init__(self):
        if len(self.exact_coeffs) != (self.system.n1 - 2) // 2:
            raise ValueError("one coefficient per even coordinate beta_2..beta_{n1-2}")

    @cached_property
    def constant(self) -> float:
        return float(self.exact_constant)

    @cached_property
    def coeffs(self) -> tuple[float, ...]:
        return tuple(float(c) for c in self.exact_coeffs)

    def evaluate_even(self, x) -> np.ndarray | float:
        """Evaluate on even coordinates (beta_2, ..., beta_{n1-2})."""
        x = np.asarray(x, dtype=float)
        return self.constant + x @ np.array(self.coeffs)

    def evaluate(self, beta: BetaVector) -> float:
        """Evaluate on a state of this plane's system; another system raises ValueError."""
        if beta.system != self.system:
            raise ValueError(f"{self.label} lives on {self.system}, got a state of {beta.system}")
        return float(self.evaluate_even(beta.coords[2::2]))


def _require_even(system: SpinPair, what: str):
    if not system.breuer_applicable:
        raise ValueError(f"{what} needs an even n1 >= 4, got n1 = {system.n1}")


def _require_4xn(n: int):
    if n < 4:
        raise ValueError(f"4 x N geometry needs N >= 4, got {n}")


# ---------------------------------------------------------------------------
# extreme points and 4 x N labelled geometry
# ---------------------------------------------------------------------------

def alpha_extreme_points(system: SpinPair) -> tuple[AlphaVector, ...]:
    """The n1 extreme invariant states: one projector each, ascending J.

    The point for total momentum J has alpha_J = sqrt(n1 n2 / (2J+1)) and
    zeros elsewhere.
    """
    points = []
    for idx, w in enumerate(_exact_weights(system)):
        coords = [0.0] * system.n1
        coords[idx] = float(ExactRadical.one() / w)
        points.append(AlphaVector(system, coords))
    return tuple(points)


@lru_cache(maxsize=None)
def _radial_units(n: int) -> tuple[ExactRadical, ExactRadical, ExactRadical]:
    return (
        ExactRadical.sqrt(Fraction(n - 1, 5 * (n + 1))),
        ExactRadical.sqrt(Fraction((n - 1) * (n - 2), (n + 1) * (n + 2))),
        ExactRadical.sqrt(Fraction((n - 1) * (n - 2) * (n - 3),
                                   5 * (n + 1) * (n + 2) * (n + 3))),
    )


@lru_cache(maxsize=None)
def _radial_unit_floats(n: int) -> tuple[float, float, float]:
    return tuple(float(u) for u in _radial_units(n))


def _scaled_coords(n: int) -> dict[str, tuple[Fraction, Fraction, Fraction]]:
    """Closed-form coordinates of the labelled 4 x N points, in r_K units."""
    f = Fraction
    return {
        "A": (f(-3 * (n + 1), n - 1),
              f((n + 1) * (n + 2), (n - 1) * (n - 2)),
              f(-(n + 1) * (n + 2) * (n + 3), (n - 1) * (n - 2) * (n - 3))),
        "B": (f(-(n + 7), n - 1),
              f(-(n - 5) * (n + 2), (n - 1) * (n - 2)),
              f(3 * (n + 2) * (n + 3), (n - 1) * (n - 2))),
        "C": (f(n - 7, n - 1),
              f(-(n + 5), n - 1),
              f(-3 * (n + 3), n - 1)),
        "D": (f(3), f(1), f(1)),
        "E": (f(-1), f(-1), f(3)),
        "F": (f(-9 * (n - 4), 7 * n - 20),
              f(n + 4, 7 * n - 20),
              f(-(13 * n + 28), 7 * n - 20)),
        "G": (f(-3 * (n + 1), n + 5),
              f((n + 1) * (n + 2), (n - 2) * (n + 5)),
              f(-(n - 7) * (n + 1) * (n + 2), (n - 2) * (n - 3) * (n + 5))),
    }


def _exact_point(label: str, system: SpinPair, exact) -> NamedPoint:
    exact = tuple(exact)
    return NamedPoint(label, BetaVector(system, tuple(float(e) for e in exact)), exact)


@lru_cache(maxsize=None)
def named_points_4xn(n: int) -> Mapping[str, NamedPoint]:
    """All labelled 4 x N points, in output order: A..D, A'..D', E..G, E'..G', D''.

    The mapping is cached per N and read-only.

    A, B, C, D are the tetrahedron's vertices, the images under L of the
    extreme states with ascending J.  E, F, G with D, D' are the vertices of
    the PPT set, the intersection of the tetrahedron with its time-reversal
    image; each lies on the boundary of both.  X' is the partial time
    reversal of X, its floats negated (so a zero odd coordinate reads -0.0).
    D'' is the midpoint of DD': D with its odd coordinates set to zero.
    """
    _require_4xn(n)
    system, units = SpinPair(4, n), _radial_units(n)
    points = {label: _exact_point(label, system, (ExactRadical.one(),)
                                  + tuple(u.scale(c) for u, c in zip(units, coords)))
              for label, coords in _scaled_coords(n).items()}
    out: dict[str, NamedPoint] = {}
    for labels in ("ABCD", "EFG"):
        out.update((label, points[label]) for label in labels)
        out.update((label + "'", points[label].flipped(label + "'")) for label in labels)
    out["D''"] = _exact_point("D''", system, (ExactRadical.zero() if k % 2 else e
                                              for k, e in enumerate(points["D"].exact)))
    return MappingProxyType(out)


@lru_cache(maxsize=None)
def explicit_l_matrix_4xn(n: int) -> LMatrix:
    """The 4 x N basis change read off the table: L[K, J] = w_J X_J[K], no Wigner symbol.

    X_J is the labelled point A, B, C or D for ascending J and w_J = L[0, J].
    """
    named = named_points_4xn(n)
    system = SpinPair(4, n)
    columns = [tuple(w * e for e in named[label].exact)
               for w, label in zip(_exact_weights(system), "ABCD")]
    return LMatrix(system, tuple(zip(*columns)))


# ---------------------------------------------------------------------------
# hyperplanes: Gamma, gamma, and the theta_1-invariant polytope
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def gamma_hyperplane(system: SpinPair) -> Hyperplane:
    """The detection boundary in the theta_1-invariant coordinates, cached per system.

    Gamma(beta) = (L[0, Jmin] - 2/(n1-2) sum_K L[2K, Jmin] beta_2K) / sqrt(2Jmin+1)

    with Jmin = (n2-n1)/2, the Breuer image of the polytope's Jmin facet;
    the constant is 1/sqrt(n1 n2).  Gamma is alpha_Jmin of the Breuer image
    over (n1-2) sqrt(2Jmin+1): the image of a point on Gamma lies on the
    state-space face alpha_Jmin = 0, and Gamma < 0 is exactly the detected
    side.  For n1 = 4 this is the plane through D'' orthogonal to the
    invariant segment E''G''.
    """
    _require_even(system, "gamma_hyperplane")
    face = theta1_polytope(system)[0]
    unit = ExactRadical.sqrt(Fraction(1, system.n2 - system.n1 + 1))
    trace, factor = _breuer_rule(system.n1)
    return Hyperplane(system, "Gamma", face.exact_constant * unit,
                      tuple(c.scale(Fraction(factor) / trace) * unit for c in face.exact_coeffs))


@lru_cache(maxsize=None)
def d_tilde_point(system: SpinPair) -> NamedPoint:
    """The symmetrized maximal-momentum extreme state D~'', cached per system.

    beta_2K = L[2K, Jmax] / L[0, Jmax], the polytope's Jmax facet's
    coefficients over its constant w_Jmax = sqrt((n1+n2-1) / (n1 n2)), with
    beta_0 = 1; odd coordinates vanish.  It is an interior point of the
    invariant polytope (all alpha_J > 0) and lies on Gamma, which proves
    that detected bound entangled states exist for every even n1 >= 4.
    """
    _require_even(system, "d_tilde_point")
    face = theta1_polytope(system)[-1]
    even = (ExactRadical.one(),) + tuple(c / face.exact_constant for c in face.exact_coeffs)
    return _exact_point("D~''", system, (e for b in even for e in (b, ExactRadical.zero())))


@lru_cache(maxsize=None)
def theta1_polytope(system: SpinPair) -> tuple[Hyperplane, ...]:
    """The facets alpha_J >= 0, ascending J: column J of the exact L, cached per system.

    A theta_1-invariant coefficient vector (1, 0, beta_2, 0, ...) is a
    state iff every returned functional is >= 0 at (beta_2, ..., beta_{n1-2}).
    """
    _require_even(system, "theta1_polytope")
    l = build_l_matrix(system).exact
    return tuple(
        Hyperplane(system, f"alpha[J={j}]=0", l[0][j_idx],
                   tuple(row[j_idx] for row in l[2::2]))
        for j_idx, j in enumerate(system.j_values())
    )


# ---------------------------------------------------------------------------
# the invariant segment and detection threshold (4 x N)
# ---------------------------------------------------------------------------

def segment_detection_threshold(n: int) -> float:
    """t* = (N-2)(N+5) / ((N-1)(N+4)): the Breuer flip point on E''G''.

    The segment state at t* is the midpoint D'' of DD'.
    """
    _require_4xn(n)
    return float(Fraction((n - 2) * (n + 5), (n - 1) * (n + 4)))


def segment_state_4xn(n: int, t: float) -> BetaVector:
    """The theta_1-invariant interpolation (1-t) E'' + t G'', t in [0, 1].

    E'' and G'' are the symmetrizations (X + theta_1 X)/2 of E and G; only
    beta_2 varies along the segment.  Detection flips exactly once, at
    :func:`segment_detection_threshold`.
    """
    return BetaVector(named_points_4xn(n)["E"].beta.system, (1.0, 0.0, _segment_beta_2(n)(t), 0.0))


def _segment_beta_2(n: int):
    """beta_2 along E''G'' as a function of t in [0, 1], reading E'' and G'' once for N;
    it takes float(t) once, so a NumPy scalar gives the bits of its Python float."""
    named = named_points_4xn(n)
    e, g = named["E"].beta.coords[2], named["G"].beta.coords[2]

    def beta_2(t) -> float:
        if isinstance(t, (bool, np.bool_)) or not 0 <= t <= 1:
            raise ValueError(f"t must be a number in [0, 1] and not a bool, got {t!r}")
        t = float(t)
        return (1.0 - t) * e + t * g
    return beta_2


# ---------------------------------------------------------------------------
# minimal separable set DD'EE' (4 x N)
# ---------------------------------------------------------------------------

# In r_K units the hull vertices D, D', E, E' do not depend on N: the vertex
# matrix (rows x1, x2, x3, 1; columns D, D', E, E') is
#     [[3, -3, -1, 1], [1, 1, -1, -1], [1, -1, 3, -3], [1, 1, 1, 1]].
# Rows of its inverse, times 20, give lambda_D, lambda_D', lambda_E,
# lambda_E' as linear forms in (x1, x2, x3, 1):
#     (3, 5, 1, 5), (-3, 5, -1, 5), (-1, -5, 3, 5), (1, -5, -3, 5).


def _hull_weights_x20(x) -> list:
    """20 times the barycentric weights of x = (x1, x2, x3) over D, D', E, E'.

    Each row of the inverse is written out as a left-to-right sum from 0, the
    float operations of ``sum()`` in Python 3.10 and 3.11.  From 3.12 on a
    float ``sum()`` is compensated, so the written-out form keeps the bits
    independent of the Python version.  x may hold floats, float arrays or
    Fractions.
    """
    x1, x2, x3 = x
    return [0 + 3 * x1 + 5 * x2 + 1 * x3 + 5,
            0 + -3 * x1 + 5 * x2 + -1 * x3 + 5,
            0 + -1 * x1 + -5 * x2 + 3 * x3 + 5,
            0 + 1 * x1 + -5 * x2 + -3 * x3 + 5]


def _hull_margin(x):
    """The smallest barycentric weight of x = (x1, x2, x3) over D, D', E and E'.

    The one DD'EE' membership rule: the float point test and the sweep
    compare it with -tol, the exact test with 0.  x is in r_K units, as
    floats, (N,) columns or Fractions, giving a float, an (N,) array or a
    Fraction.  A nan weight makes it nan, so that point is never a member.
    """
    return np.minimum.reduce(_hull_weights_x20(x)) / 20


def minimal_separable_membership_4xn(beta: BetaVector, tol: float = DEFAULT_TOL) -> bool:
    """Whether beta lies in the tetrahedron DD'EE' (the minimal separable set).

    Computes the unique barycentric weights over the four vertices and
    accepts weights down to -tol; a nan weight is never accepted.  Points
    outside this hull are not thereby entangled; DD'EE' is only the region
    known separable in closed form.
    """
    sys_ = beta.system
    if sys_.n1 != 4:
        raise ValueError(f"minimal separable set is only known for n1 = 4, got {sys_.n1}")
    if not _unit_trace(beta.coords[0], max(tol, TRACE_TOL)):
        return False
    _, c1, c2, c3 = beta.coords
    r1, r2, r3 = _radial_unit_floats(sys_.n2)
    return bool(_hull_margin((c1 / r1, c2 / r2, c3 / r3)) >= -tol)


def _separable_mask_4xn(n: int, beta2: np.ndarray, tol: float) -> np.ndarray:
    """minimal_separable_membership_4xn at each (1, 0, beta_2, 0), its float steps in its order."""
    r1, r2, r3 = _radial_unit_floats(n)
    return _hull_margin((0.0 / r1, beta2 / r2, 0.0 / r3)) >= -tol


def exact_hull_membership_4xn(point: NamedPoint) -> bool:
    """Exact-arithmetic membership of a labelled point in DD'EE'.

    Requires coordinates that are rational multiples of the radial units
    (all labelled points are); decides boundary cases without rounding.
    """
    sys_ = point.system
    if sys_.n1 != 4:
        raise ValueError("exact hull membership is a 4 x N operation")
    units = _radial_units(sys_.n2)
    x = []
    for k in range(3):
        ratio = point.exact[k + 1].ratio(units[k])
        if ratio is None:
            raise ValueError(f"{point.label}: coordinate {k + 1} is not in the radial lattice")
        x.append(ratio)
    return _hull_margin(x) >= 0


# ---------------------------------------------------------------------------
# polytope sweeps and the bound-entangled region
# ---------------------------------------------------------------------------

def _slice_margins(system: SpinPair, x) -> tuple[float | np.ndarray, float | np.ndarray]:
    """(state margin, Breuer margin) at even coordinates x: floats at (d,), (N,) arrays at (d, N).

    The theta_1-invariant state (1, 0, x_1, 0, x_2, ...) has alpha
    L[0,:] + L[2::2,:]^T x; by ``states._breuer_rule`` its Breuer image
    (trace, 0, factor x_1, ...) has alpha trace L[0,:] + factor L[2::2,:]^T x.
    Each margin is the smallest of its alphas, column by column.
    """
    l = build_l_matrix(system).values
    linear = l[2::2].T @ x
    const = l[0] if linear.ndim == 1 else l[0][:, None]
    trace, factor = _breuer_rule(system.n1)
    phi = factor * linear
    phi += trace * const
    linear += const
    return np.minimum.reduce(linear), np.minimum.reduce(phi)


def polytope_bounding_box(system: SpinPair) -> tuple[tuple[float, float], ...]:
    """Per-coordinate [min, max] of the invariant polytope, over its vertices.

    Each vertex solves d = (n1-2)/2 of the facet equations alpha_J = 0, on
    the facets' floats.  Every choice of d facets is solved, singular
    choices are skipped and infeasible solutions dropped; the
    binomial(n1, d) solves suit the small n1 that sweeps use.
    """
    _require_even(system, "invariant polytope")
    faces = np.array([(face.constant, *face.coeffs) for face in theta1_polytope(system)])
    vertices = []
    for facets in combinations(range(system.n1), faces.shape[1] - 1):
        rows = list(facets)
        try:
            x = np.linalg.solve(faces[rows, 1:], -faces[rows, 0])
        except np.linalg.LinAlgError:
            continue
        if _slice_margins(system, x)[0] >= -1e-12:
            vertices.append(x)
    return tuple((float(lo), float(hi))
                 for lo, hi in zip(np.min(vertices, axis=0), np.max(vertices, axis=0)))


# the most grid points (grid ** d) a sweep evaluates: about 210 bytes of peak memory each
_SWEEP_POINT_BUDGET = 4_000_000

# the PPT verdicts, in precedence order: the names of sweep class codes 0, 1, 2
SWEEP_CLASSES = tuple(v.value for v in (Verdict.PPT_BOUND_ENTANGLED_DETECTED,
                                        Verdict.KNOWN_SEPARABLE, Verdict.PPT_UNDETERMINED))


def sweep_columns(system: SpinPair, grid: int, tol: float
                  ) -> tuple[tuple[str, ...], list[np.ndarray], tuple[np.ndarray, ...],
                             np.ndarray, float]:
    """A uniform grid over the bounding box, in columns (d, N) through ``_slice_margins``.

    Returns (header, axes, index, codes, fraction).  header names the
    even coordinates and the class column; axes[k] holds the grid values of
    the k-th even coordinate.  The grid points inside the polytope, in
    row-major grid order, are (axes[0][index[0][i]], axes[1][index[1][i]],
    ...) with class code codes[i], in precedence order 0 detected, else 1
    4 x N separable, else 2 undetermined, named by ``SWEEP_CLASSES``.
    fraction is the detected share of them (0.0 if there are none).  A grid
    of more than ``_SWEEP_POINT_BUDGET`` points raises ValueError before any
    array is allocated.
    """
    if system.n1 not in (4, 6):
        raise ValueError(f"region sweep supports n1 in (4, 6), got {system.n1}")
    if grid < 10:
        raise ValueError(f"grid must be >= 10, got {grid}")
    box = polytope_bounding_box(system)
    count = grid ** len(box)
    if count > _SWEEP_POINT_BUDGET:
        raise ValueError(f"a sweep of {system} at grid {grid} has {count} points, "
                         f"above the budget of {_SWEEP_POINT_BUDGET}")
    axes = [np.linspace(lo, hi, grid) for lo, hi in box]
    points = np.stack(np.meshgrid(*axes, indexing="ij", copy=False)).reshape(len(axes), -1)
    state, breuer = _slice_margins(system, points)
    flat = np.flatnonzero(state >= -tol)
    index = np.unravel_index(flat, (grid,) * len(axes))
    detected = breuer[flat] < -tol
    separable = np.zeros(len(flat), dtype=bool)
    if system.n1 == 4:
        # classify's DD'EE' rule, _hull_margin, on the beta_2 column
        separable = _separable_mask_4xn(system.n2, axes[0][index[0]], tol)
    codes = np.where(detected, 0, np.where(separable, 1, 2))
    fraction = float(detected.sum() / len(flat)) if len(flat) else 0.0
    header = tuple(f"beta_K={2 * (k + 1)}" for k in range(len(axes))) + ("class",)
    return header, axes, index, codes, fraction


def _beta_from_even(system: SpinPair, x) -> BetaVector:
    coords = [1.0] + [0.0] * (system.n1 - 1)
    for k, val in enumerate(x):
        coords[2 * (k + 1)] = float(val)
    return BetaVector(system, coords)


def be_region_fraction(system: SpinPair, grid: int, tol: float = DEFAULT_TOL) -> float:
    """Fraction of invariant-polytope grid states detected by the Breuer map.

    Enumerates a uniform grid over the polytope's bounding box, keeps the
    points inside the polytope and returns the detected share.
    Deterministic for a fixed grid.
    """
    _, _, index, _, fraction = sweep_columns(system, grid, tol)
    if len(index[0]) == 0:
        raise RuntimeError(f"empty polytope grid for {system}; refine the grid")
    return fraction


def _ray_step(system: SpinPair) -> Fraction:
    """The witness's ray step n1 n2 / (4 C(n1+n2-2, n1-1)): half the smallest u_J(D~'')."""
    return Fraction(system.dim, 4 * comb(system.n1 + system.n2 - 2, system.n1 - 1))


@lru_cache(maxsize=None)
def find_detected_invariant_state(system: SpinPair) -> BetaVector | None:
    """A theta_1-invariant PPT state beyond Gamma that the Breuer map detects, cached per system.

    Takes x_s = (1+s) x_D on the ray from the maximally mixed state through
    D~'', s = :func:`_ray_step`.  D~'' reads off the theta_1 column
    {j1 j2 J; j1 j2 Jmax}, whose Racah sum is the single term t = n1+n2-2, so
    with N = n1+n2-1 and a = Jmax-J its relative coordinates are binomial:
    u_J = alpha_J / L[0,J] = (n1 n2 / 2N) (delta_{a,0} + C(N, a) / C(N-1, n1-1)).
    C(N, a) rises over a = 1..n1-1 < N/2 and u at a = 0 exceeds u at a = 1,
    so the smallest u_J sits at J = Jmax-1; s is half of it.  Then
    u_J(x_s) = u_J + s (u_J - 1) >= u_J / 2 > 0 and, as u_Jmin = n1/2,
    alpha_Phi,Jmin(x_s) = -s (n1-2) L[0,Jmin] < 0: x_s is an interior state,
    beyond Gamma and detected.  Returns None unless float64 confirms the
    point: every alpha >= tol and some alpha_Phi < -tol, tol = DEFAULT_TOL.
    """
    _require_even(system, "detection search")
    x = (1.0 + float(_ray_step(system))) * np.array(d_tilde_point(system).beta.coords[2::2])
    state, breuer = _slice_margins(system, x)
    if state >= DEFAULT_TOL and breuer < -DEFAULT_TOL:
        return _beta_from_even(system, x)
    return None


def sweep_rows(system: SpinPair, grid: int, tol: float = DEFAULT_TOL
               ) -> tuple[tuple[str, ...], list[tuple], float]:
    """Grid sweep of the invariant polytope: (header, rows, detected fraction).

    One row per grid point inside the polytope, carrying the even
    coordinates and the classification of the point (all such points are
    PPT states by theta_1 invariance), named by ``SWEEP_CLASSES``.
    """
    header, axes, index, codes, fraction = sweep_columns(system, grid, tol)
    classes = np.array(SWEEP_CLASSES, dtype=object)[codes].tolist()
    rows = list(zip(*(ax[i].tolist() for ax, i in zip(axes, index)), classes))
    return header, rows, fraction
