"""The verification checks: one function per identity the results rest on.

Each check takes the cases it runs on and returns its largest residual.
`rotinv verify` and the acceptance suite run these same functions, each
over its own case lists and against its own bounds.  A check given no
cases returns inf, which fails every bound: a sweep over nothing proves
nothing.  The theta_1 and Breuer images are read through :mod:`rotinv.maps`
alone: off a ``classify`` record, or from its maps and the margins they compare.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, groupby

import numpy as np

from . import dense, geometry, maps, states, wigner
from .radical import ExactRadical, exact_sum
from .states import DEFAULT_TOL, SpinPair

__all__ = [
    "orthogonality_sums",
    "appendix_sum",
    "l_orthogonality",
    "explicit_l_4xn",
    "named_points",
    "segment_threshold",
    "gamma_plane_4x4",
    "d_tilde_on_gamma",
    "be_existence",
    "dense_equivalence",
]


def _worst(residuals) -> float:
    return max(residuals, default=math.inf)


def _exact_residual(got: ExactRadical, want: ExactRadical) -> float:
    """0.0 on exact equality, else the float distance, or inf if it rounds to 0."""
    if got == want:
        return 0.0
    return abs(float(got) - float(want)) or math.inf


def orthogonality_sums(cases) -> float:
    """sum_K (2J+1)(2K+1) {a b J; c d K} {a b J'; c d K} = delta(J, J').

    Cases are (a, b, c, d, J, J') tuples.  The sums are compared exactly:
    the residual is 0.0 only if every sum equals its delta exactly.  A case
    is decided by whether its terms minus the delta sum exactly to zero; the
    float distance of the sum from its delta is taken only where they do not.
    With J = J' every term is rational, so subtracting 1 never meets an
    incompatible radical.
    """
    one, zero = ExactRadical.one(), ExactRadical.zero()

    def residual(case):
        doubled = tuple(map(wigner.twice, case))
        terms = wigner._orthogonality_terms(*doubled)
        same = doubled[4] == doubled[5]
        if same:
            terms.append((-1, one))
        if exact_sum(terms).is_zero:
            return 0.0
        return _exact_residual(wigner.verify_orthogonality_sum(*case), one if same else zero)
    return _worst(map(residual, cases))


def appendix_sum(systems) -> float:
    """sum_K (2K+1)(1 + (-1)**K) {j1 j2 j2-j1; j2 j1 K} {j1 j2 j1+j2; j2 j1 K} = -1/n2.

    1 + (-1)**K is 2 for even K and 0 for odd K, so only even K are
    summed.  The sum is compared exactly: the residual is 0.0 only if it
    equals -1/n2 exactly.
    """
    def residual(system):
        tj1, tj2 = system.n1 - 1, system.n2 - 1  # doubled spins
        total = exact_sum([(2 * (tk + 1), wigner._six_j(tj1, tj2, tj2 - tj1, tj2, tj1, tk),
                            wigner._six_j(tj1, tj2, tj1 + tj2, tj2, tj1, tk))
                           for tk in range(0, 2 * system.n1, 4)])
        return _exact_residual(total, ExactRadical.from_rational(Fraction(-1, system.n2)))
    return _worst(residual(s) for s in systems)


def l_orthogonality(matrices) -> float:
    """max |L L^T - 1| and |L^T L - 1| over float L matrices."""
    def residual(l):
        eye = np.eye(len(l))
        return max(float(np.abs(l @ l.T - eye).max()), float(np.abs(l.T @ l - eye).max()))
    return _worst(residual(l) for l in matrices)


def explicit_l_4xn(ns) -> float:
    """The built 4 x N L matrix against its closed form, for each N, entry by entry exactly."""
    def residual(n):
        built = chain.from_iterable(states.build_l_matrix(SpinPair(4, n)).exact)
        closed = chain.from_iterable(geometry.explicit_l_matrix_4xn(n).exact)
        return _worst(map(_exact_residual, built, closed))
    return _worst(residual(n) for n in ns)


def named_points(ns, boundary=("E", "F", "G")) -> float:
    """The closed-form 4 x N points against the alpha -> beta pipeline.

    A..D must equal the images of the alpha extreme points, and each
    boundary point must lie on the boundary of both the state tetrahedron
    and its theta_1 image (the smaller of the two minimum alphas of its
    classify record is 0).
    """
    def residual(n):
        named = geometry.named_points_4xn(n)
        extremes = geometry.alpha_extreme_points(SpinPair(4, n))
        worst = max(float(np.abs(np.array(named[label].beta.coords)
                                 - states.alpha_to_beta(extreme).as_array()).max())
                    for label, extreme in zip("ABCD", extremes))
        for label in boundary:
            record = maps.classify(named[label].beta)
            worst = max(worst, abs(min(record.min_alpha, record.min_theta1_alpha)))
        return worst
    return _worst(residual(n) for n in ns)


def segment_threshold(ns) -> float:
    """Where Breuer detection flips along the 4 x N segment E''G'' against t*.

    The flip is found by bisection on [0, 1], until lo and hi are adjacent floats;
    each step decides ``breuer_detects(segment_state_4xn(n, t))`` on one array.
    """
    def residual(n):
        plan, beta_2 = states._plan(SpinPair(4, n)), geometry._segment_beta_2(n)
        c, lo, mid, hi = np.array([1.0, 0.0, 0.0, 0.0]), 0.0, 0.5, 1.0
        while lo < mid < hi:
            c[2] = beta_2(mid)
            if maps._breuer_margin(plan, c) < -DEFAULT_TOL:
                hi = mid
            else:
                lo = mid
            mid = 0.5 * (lo + hi)
        return abs(mid - geometry.segment_detection_threshold(n))
    return _worst(residual(n) for n in ns)


def gamma_plane_4x4(labels) -> float:
    """The labelled 4 x 4 points on the gamma plane: |Gamma(point)|."""
    plane = geometry.gamma_hyperplane(SpinPair(4, 4))
    named = geometry.named_points_4xn(4)
    return _worst(abs(plane.evaluate(named[label].beta)) for label in labels)


def d_tilde_on_gamma(systems) -> float:
    """D~'' lies on Gamma and is a state: |Gamma(D~'')| and any negative alpha."""
    def residual(system):
        point = geometry.d_tilde_point(system)
        return max(abs(geometry.gamma_hyperplane(system).evaluate(point.beta)),
                   max(0.0, -maps.classify(point.beta).min_alpha))
    return _worst(residual(s) for s in systems)


def be_existence(systems) -> float:
    """0.0 if every system has a Breuer-detected PPT state beyond Gamma, else 1.0."""
    def missing(system):
        found = geometry.find_detected_invariant_state(system)
        return float(found is None or not (
            maps.breuer_detects(found) and maps.is_ppt(found)
            and geometry.gamma_hyperplane(system).evaluate(found) < 0))
    return _worst(missing(s) for s in systems)


def dense_equivalence(alphas) -> float:
    """The dense-matrix oracle against the parameter-space maps, per alpha state.

    A state's residual covers the extracted beta against L alpha and the
    largest entry of rho off its M = m1 + m2 blocks; a decision of the
    parameter path that the dense eigenvalues contradict (beyond 1e-10)
    counts 1.0: ``is_ppt`` against the theta_1 image's smallest eigenvalue
    (theta_1 is unitarily equivalent to the partial transpose), and, where
    the map is positive (even n1 >= 4), ``breuer_detects`` against the
    Breuer image's, each as the margin it compares, read off one beta array
    per state with one plan per stack.  Both images conserve M, so their
    spectra are read on the M blocks, in float64, from the real part of rho
    (``from_alpha`` leaves every imaginary part +0.0, and ``extract_beta``
    raises on any operator that strays from its real, invariant projection by
    more than 1e-8); no image is formed whole.  Each map reads an image's off-block
    entries from rho's alone (the dense tests hold the maps to that), and
    ``from_alpha`` fills only the entries of equal M, so the off-block entry
    is exactly 0.0 on correct operators, and an operator that breaks M,
    which the block spectra would leave out, shows as the residual.  The
    extraction stays complex and is taken from full matrix products.
    Consecutive alphas of one system go through the oracle as one stack;
    each state's residual is the one it gets alone.
    """
    def residuals(system, group):
        group, plan = list(group), states._plan(system)
        rho = dense.from_alpha(group)
        extracted = dense.extract_beta(rho, system)
        theta, phi, off = dense._block_spectra(rho, system)
        for alpha, dense_beta, theta_min, phi_min, outside in zip(
                group, extracted, theta[:, 0].tolist(), phi[:, 0].tolist(), off.tolist()):
            beta = states.alpha_to_beta(alpha).as_array()
            extract = float(np.abs(dense_beta.as_array() - beta).max())
            ppt = (maps._theta1_margin(plan, beta) >= -DEFAULT_TOL) != (theta_min >= -DEFAULT_TOL)
            breuer = system.breuer_applicable and (
                (maps._breuer_margin(plan, beta) < -DEFAULT_TOL) != (phi_min < -DEFAULT_TOL))
            yield max(extract, float(ppt), float(breuer), outside)
    return _worst(r for system, group in groupby(alphas, key=lambda a: a.system)
                  for r in residuals(system, group))
