"""Closed-form geometry against exact independent oracles.

The strongest check here enumerates every vertex of the intersection of
the state tetrahedron with its time-reversal image by exact rational
linear algebra (all labelled points are rational in the shared radial
units), and compares the vertex set with the closed forms.
"""

import dataclasses
import functools
import math
import operator
import random
import struct
import sys
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotinv import geometry, maps, wigner
from rotinv.geometry import (
    Hyperplane,
    alpha_extreme_points,
    be_region_fraction,
    d_tilde_point,
    exact_hull_membership_4xn,
    find_detected_invariant_state,
    gamma_hyperplane,
    minimal_separable_membership_4xn,
    named_points_4xn,
    polytope_bounding_box,
    segment_detection_threshold,
    segment_state_4xn,
    sweep_rows,
    theta1_polytope,
)
from rotinv.radical import ExactRadical
from rotinv.states import (
    AlphaVector,
    BetaVector,
    SpinPair,
    _breuer_rule,
    alpha_to_beta,
    beta_to_alpha,
    build_l_matrix,
    check_state,
    maximally_mixed,
)
from rotinv.wigner import six_j


# ---------------------------------------------------------------------------
# exact rational oracle for the intersection vertices
# ---------------------------------------------------------------------------

def rational_face_functionals(n: int) -> list[tuple[Fraction, Fraction, Fraction]]:
    """alpha_J >= 0 written as 1 + a . x over the radial-unit coordinates x."""
    l = build_l_matrix(SpinPair(4, n)).exact
    units = geometry._radial_units(n)
    faces = []
    for j_idx in range(4):
        coeffs = []
        for k in (1, 2, 3):
            ratio = (l[k][j_idx] * units[k - 1] / l[0][j_idx]).as_rational()
            assert ratio is not None, "L entries must live in the radial lattice"
            coeffs.append(ratio)
        faces.append(tuple(coeffs))
    return faces


def solve3(rows, rhs):
    """Exact 3x3 linear solve; returns None if singular."""
    a = [list(rows[i]) + [rhs[i]] for i in range(3)]
    for col in range(3):
        piv = next((r for r in range(col, 3) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        a[col] = [v / a[col][col] for v in a[col]]
        for r in range(3):
            if r != col and a[r][col] != 0:
                a[r] = [vr - a[r][col] * vc for vr, vc in zip(a[r], a[col])]
    return tuple(a[i][3] for i in range(3))


def enumerate_ppt_vertices(n: int) -> set[tuple[Fraction, ...]]:
    """All vertices of tetrahedron ∩ flipped tetrahedron, exactly."""
    faces = rational_face_functionals(n)
    planes = [f for f in faces]
    planes += [(-f[0], f[1], -f[2]) for f in faces]  # time-reversed constraints
    verts = set()
    for trio in combinations(planes, 3):
        x = solve3(trio, [Fraction(-1)] * 3)
        if x is None:
            continue
        if all(1 + sum(p[i] * x[i] for i in range(3)) >= 0 for p in planes):
            verts.add(x)
    return verts


def scaled(point) -> tuple[Fraction, ...]:
    units = geometry._radial_units(point.system.n2)
    out = []
    for k in range(3):
        e = point.exact[k + 1]
        out.append(Fraction(0) if e.is_zero else e.ratio(units[k]))
    return tuple(out)


# ---------------------------------------------------------------------------
# grid-free polygon oracle for the 6 x N theta_1-invariant slice
# ---------------------------------------------------------------------------

def clip(polygon, a, c):
    """The part of a convex polygon where c + a . x >= 0 (Sutherland-Hodgman)."""
    out = []
    for p, q in zip(polygon, polygon[1:] + polygon[:1]):
        fp, fq = c + a @ p, c + a @ q
        if fp >= 0:
            out.append(p)
        if (fp >= 0) != (fq >= 0):
            out.append(p + fp / (fp - fq) * (q - p))
    return out


def shoelace(polygon) -> float:
    x, y = np.array(polygon).T
    return 0.5 * abs(x @ np.roll(y, -1) - y @ np.roll(x, -1))


def perimeter(polygon) -> float:
    p = np.array(polygon)
    return float(np.linalg.norm(p - np.roll(p, -1, axis=0), axis=1).sum())


def slice_polygons(system):
    """({alpha >= 0}, {alpha >= 0} ∩ {alpha_Phi >= 0}) over (beta_2, beta_4).

    Built from the L floats alone: alpha_J = L[0,J] + b2 L[2,J] + b4 L[4,J]
    and the Breuer image has alpha_Phi_J = 4 L[0,J] - 2 (b2 L[2,J] + b4 L[4,J]).
    """
    l = build_l_matrix(system).values
    r = 10.0 * system.dim
    polytope = [np.array(v) for v in ((-r, -r), (r, -r), (r, r), (-r, r))]
    for j in range(6):
        polytope = clip(polytope, l[[2, 4], j], l[0, j])
    undetected = polytope
    for j in range(6):
        undetected = clip(undetected, -2.0 * l[[2, 4], j], 4.0 * l[0, j])
    return polytope, undetected


class TestIntersectionOracle:
    @pytest.mark.parametrize("n", [4, 5, 6, 8, 12])
    def test_vertex_set_matches_closed_forms(self, n):
        enumerated = enumerate_ppt_vertices(n)
        named = named_points_4xn(n)
        closed = {scaled(named[lab]) for lab in ("D", "D'", "E", "E'", "F", "F'", "G", "G'")}
        assert enumerated == closed

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_points_sit_on_both_boundaries(self, n):
        named = named_points_4xn(n)
        for label in ("E", "F", "G"):
            beta = named[label].beta
            alpha = beta_to_alpha(beta).as_array()
            flip = beta_to_alpha(maps.partial_time_reversal(beta)).as_array()
            assert alpha.min() > -1e-10 and flip.min() > -1e-10
            assert alpha.min() < 1e-10 and flip.min() < 1e-10  # on a face of each


class TestExtremePointsAndVertices:
    @pytest.mark.parametrize("n", [4, 6, 9])
    def test_extreme_points_formula(self, n):
        system = SpinPair(4, n)
        points = alpha_extreme_points(system)
        assert len(points) == 4
        for idx, alpha in enumerate(points):
            expected = np.sqrt(4 * n / (n - 3 + 2 * idx))
            assert abs(alpha.coords[idx] - expected) < 1e-14
            assert check_state(alpha).is_state

    def test_4x4_extreme_values(self):
        points = alpha_extreme_points(SpinPair(4, 4))
        diag = [points[i].coords[i] for i in range(4)]
        expected = [4.0, np.sqrt(16 / 3), np.sqrt(16 / 5), np.sqrt(16 / 7)]
        assert np.abs(np.array(diag) - np.array(expected)).max() < 1e-14

    @pytest.mark.parametrize("n", [4, 6, 8, 12, 20])
    def test_vertices_equal_pipeline_exactly(self, n):
        named = named_points_4xn(n)
        l = build_l_matrix(SpinPair(4, n)).exact
        for idx, label in enumerate("ABCD"):
            alpha = ExactRadical.sqrt(Fraction(4 * n, n - 3 + 2 * idx))
            for k in range(4):
                assert named[label].exact[k] == l[k][idx] * alpha, (n, label, k)

    def test_d_double_prime_is_d_tilde(self):
        # the table route (D with odd coordinates zeroed) and the L route give one point
        for n in range(4, 61):
            table, from_l = named_points_4xn(n)["D''"], d_tilde_point(SpinPair(4, n))
            assert table.exact == from_l.exact, n
            assert (np.array(table.beta.coords).tobytes()
                    == np.array(from_l.beta.coords).tobytes()), n

    def test_flips_negate_the_floats(self):
        # X' negates X's floats, so a zero odd coordinate of X reads -0.0 in X'
        named = named_points_4xn(4)
        assert named["F"].exact[1].is_zero
        assert float.hex(named["F"].beta.coords[1]) == float.hex(0.0)
        assert float.hex(named["F'"].beta.coords[1]) == float.hex(-0.0)

    def test_points_come_in_output_order(self):
        assert list(named_points_4xn(5)) == ["A", "B", "C", "D", "A'", "B'", "C'", "D'",
                                             "E", "F", "G", "E'", "F'", "G'", "D''"]

    def test_points_are_one_read_only_mapping_per_n(self):
        named = named_points_4xn(7)
        assert named_points_4xn(7) is named
        with pytest.raises(TypeError):
            named["D"] = named["E"]
        with pytest.raises(TypeError):
            del named["D"]

    def test_primes_are_time_reversals(self):
        named = named_points_4xn(6)
        for label in ("A", "B", "C", "D", "E", "F", "G"):
            flipped = maps.partial_time_reversal(named[label].beta)
            assert flipped == named[label + "'"].beta

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            named_points_4xn(3)
        with pytest.raises(ValueError):
            named_points_4xn(2)
        with pytest.raises(ValueError, match="4 x N geometry needs N >= 4, got 3"):
            segment_state_4xn(3, 0.5)
        with pytest.raises(ValueError, match="4 x N geometry needs N >= 4, got 3"):
            segment_detection_threshold(3)

    def test_explicit_l_rejects_small_n(self):
        with pytest.raises(ValueError, match="4 x N geometry needs N >= 4, got 3"):
            geometry.explicit_l_matrix_4xn(3)

    def test_hyperplane_needs_one_coefficient_per_even_coordinate(self):
        system = SpinPair(6, 8)
        with pytest.raises(ValueError, match="one coefficient per even coordinate"):
            Hyperplane(system, "h", ExactRadical.one(), (ExactRadical.one(),))


class TestGammaPlane:
    def test_passes_through_d_double_prime(self):
        for n in (4, 5, 8, 14):
            plane = gamma_hyperplane(SpinPair(4, n))
            named = named_points_4xn(n)
            assert abs(plane.evaluate(named["D''"].beta)) < 1e-14

    def test_evaluate_rejects_a_state_of_another_system(self):
        plane = gamma_hyperplane(SpinPair(6, 8))
        coords = (1, 0, 0.1, 0, 0.1, 0)
        with pytest.raises(ValueError, match="n2=12"):
            plane.evaluate(BetaVector(SpinPair(6, 12), coords))
        same_system = BetaVector(SpinPair(6, 8), coords)
        assert plane.evaluate(same_system) == plane.evaluate_even((0.1, 0.1))

    def test_4x4_special_points_on_plane(self):
        plane = gamma_hyperplane(SpinPair(4, 4))
        named = named_points_4xn(4)
        for label in ("D", "D'", "F", "F'"):
            assert abs(plane.evaluate(named[label].beta)) < 1e-13

    def test_d_tilde_on_gamma_exact(self):
        for n1 in (4, 6, 8, 10):
            for n2 in range(n1, 21):
                system = SpinPair(n1, n2)
                plane = gamma_hyperplane(system)
                point = d_tilde_point(system)
                total = plane.exact_constant
                for coeff, k in zip(plane.exact_coeffs, range(2, n1, 2)):
                    total = total + coeff * point.exact[k]
                assert total.is_zero, system

    def test_detection_side_consistency(self):
        # sampled: Gamma < 0 <=> detected, inside the invariant polytope
        rng = np.random.default_rng(21)
        for dims in ((6, 6), (6, 8), (6, 14)):
            system = SpinPair(*dims)
            plane = gamma_hyperplane(system)
            box = polytope_bounding_box(system)
            pts = np.column_stack([rng.uniform(lo, hi, 800) for lo, hi in box])
            inside = geometry._slice_margins(system, pts.T)[0] >= 0
            for x in pts[inside]:
                value = plane.evaluate_even(x)
                if abs(value) < 1e-9:
                    continue
                beta = geometry._beta_from_even(system, x)
                assert maps.breuer_detects(beta) == (value < 0)

    def test_breuer_image_lands_on_boundary_face(self):
        # Phi_1 image of a Gamma point has alpha = 0 at J = (n2-n1)/2
        rng = np.random.default_rng(22)
        for dims in ((4, 6), (6, 8), (8, 10)):
            system = SpinPair(*dims)
            plane = gamma_hyperplane(system)
            coeffs = np.array(plane.coeffs)
            dims_even = len(coeffs)
            hits = 0
            for _ in range(50):
                x = rng.normal(size=dims_even)
                # project onto Gamma: move along the normal to zero the functional
                x = x - (plane.evaluate_even(x) / (coeffs @ coeffs)) * coeffs
                beta = geometry._beta_from_even(system, x)
                image = beta_to_alpha(maps.breuer_map(beta))
                # ascending J: the face J = (n2-n1)/2 sits at position 0
                assert abs(image.coords[0]) < 1e-10
                hits += 1
            assert hits == 50

    def test_plane_stores_exact_values_only(self):
        plane = gamma_hyperplane(SpinPair(6, 8))
        assert [f.name for f in dataclasses.fields(Hyperplane)] == [
            "system", "label", "exact_constant", "exact_coeffs"]
        assert plane.constant == float(plane.exact_constant)
        assert plane.coeffs == tuple(float(c) for c in plane.exact_coeffs)
        # a fresh copy, whose floats are not yet converted, is equal with the same hash
        copy = Hyperplane(plane.system, plane.label, plane.exact_constant, plane.exact_coeffs)
        assert copy == plane and hash(copy) == hash(plane)
        negated = Hyperplane(plane.system, plane.label, -plane.exact_constant,
                             plane.exact_coeffs)
        assert negated != plane and negated.constant == -plane.constant

    def test_rejects_odd_or_small_n1(self):
        with pytest.raises(ValueError):
            gamma_hyperplane(SpinPair(5, 7))
        with pytest.raises(ValueError):
            gamma_hyperplane(SpinPair(2, 6))


def gamma_six_j_form(system):
    """Gamma by its 6-j closed form: constant 1/sqrt(n1 n2) and coefficients
    (-1)**n2 * 2/(n1-2) * sqrt(4K+1) {j1 j2 Jmin; j2 j1 2K}, Jmin = j2 - j1."""
    j1, j2 = system.j1, system.j2
    sign = -1 if system.n2 % 2 else 1
    coeffs = tuple(
        (six_j(j1, j2, j2 - j1, j2, j1, 2 * k) * ExactRadical.sqrt(4 * k + 1))
        .scale(Fraction(2 * sign, system.n1 - 2))
        for k in range(1, system.n1 // 2))
    return ExactRadical.sqrt(Fraction(1, system.dim)), coeffs


def d_tilde_six_j_form(system):
    """D~'' by its 6-j closed form: beta_K = sqrt(n1 n2 (2K+1)) (-1)**n2
    {j1 j2 Jmax; j2 j1 K} for even K >= 2, beta_0 = 1, odd beta_K = 0."""
    j1, j2 = system.j1, system.j2
    sign = -1 if system.n2 % 2 else 1
    exact = [ExactRadical.one()]
    for k in range(1, system.n1):
        if k % 2:
            exact.append(ExactRadical.zero())
        else:
            exact.append((six_j(j1, j2, j1 + j2, j2, j1, k)
                          * ExactRadical.sqrt(system.dim * (2 * k + 1))).scale(sign))
    return tuple(exact)


class TestLColumnForms:
    """Gamma and D~'' are read off the L matrix; the 6-j forms are the reference."""

    SYSTEMS = [SpinPair(n1, n2) for n1 in range(4, 21, 2) for n2 in range(n1, 2 * n1 + 9)]

    def test_gamma_equals_six_j_form(self):
        for system in self.SYSTEMS:
            plane = gamma_hyperplane(system)
            assert (plane.exact_constant, plane.exact_coeffs) == gamma_six_j_form(system), system
            assert plane.constant == float(plane.exact_constant)
            assert plane.coeffs == tuple(float(c) for c in plane.exact_coeffs)

    def test_d_tilde_equals_six_j_form(self):
        for system in self.SYSTEMS:
            point = d_tilde_point(system)
            assert point.exact == d_tilde_six_j_form(system), system
            assert point.beta.coords == tuple(float(e) for e in point.exact)

    def test_gamma_cached_per_system(self):
        assert gamma_hyperplane(SpinPair(6, 8)) is gamma_hyperplane(SpinPair(6, 8))


class TestDTildePoint:
    def test_equals_symmetrized_top_extreme_state(self):
        for dims in ((4, 7), (6, 10), (8, 8)):
            system = SpinPair(*dims)
            top = alpha_extreme_points(system)[-1]
            expected = maps.symmetrize(alpha_to_beta(top))
            point = d_tilde_point(system)
            assert np.abs(point.beta.as_array() - expected.as_array()).max() < 1e-12

    def test_4xn_case_is_midpoint_of_dd(self):
        for n in (4, 9, 16):
            point = d_tilde_point(SpinPair(4, n))
            named = named_points_4xn(n)
            mid = 0.5 * (named["D"].beta.as_array() + named["D'"].beta.as_array())
            assert np.abs(point.beta.as_array() - mid).max() < 1e-14

    def test_interior_point(self):
        for dims in ((6, 6), (6, 14), (10, 18)):
            alpha = beta_to_alpha(d_tilde_point(SpinPair(*dims)).beta)
            assert min(alpha.coords) > 1e-6, dims

    def test_cached_per_system(self):
        assert d_tilde_point(SpinPair(6, 8)) is d_tilde_point(SpinPair(6, 8))

    def test_odd_n1_raises_on_every_call(self):
        for _ in range(2):  # a failed call leaves nothing in the cache
            with pytest.raises(ValueError, match="needs an even n1"):
                d_tilde_point(SpinPair(5, 7))


class TestDTildeThetaColumn:
    """Exact facts of D~'' in relative coordinates u_J = alpha_J / w_J, w_J = L[0, J].

    u_J(D~'') = (n1 n2 / 2) (delta_{J,Jmax} / (n1+n2-1) + (-1)**(n1+n2) {j1 j2 J; j1 j2 Jmax}),
    so the existence certificate needs only the n1 symbols of this theta_1 column.
    """

    SYSTEMS = [SpinPair(n1, n2) for n1 in range(4, 41, 2) for n2 in range(n1, 2 * n1 + 9)]
    LADDER = [SpinPair(n1, n2) for n1 in range(4, 201, 2)
              for n2 in (n1, n1 + 2, 2 * n1, 2 * n1 + 8)]

    @staticmethod
    def column(system):
        j1, j2 = system.j1, system.j2
        return [six_j(j1, j2, j, j1, j2, j1 + j2) for j in system.j_values()]

    @staticmethod
    def closed_form_u(system):
        """u_J(D~'') = (n1 n2 / 2N) (delta_{a,0} + C(N, a) / C(N-1, n1-1)), ascending J,
        as one rational factor times a column of ints."""
        n = system.n1 + system.n2 - 1
        central = comb(n - 1, system.n1 - 1)
        return (Fraction(system.dim, 2 * n * central),
                [(a == 0) * central + comb(n, a) for a in range(system.n1 - 1, -1, -1)])

    def test_column_sign_is_closed_form(self):
        """Every symbol is (-1)**(n1+n2) C(N, a) / (N C(N-1, n1-1)), N = n1+n2-1, a = Jmax-J.

        With Jmax = j1+j2 the four triad sums are 2(j1+j2) at most and equal to it for
        (j1, j2, Jmax); the column sums are 2(j1+j2), 2j2+J+Jmax and 2j1+J+Jmax, at least
        2(j1+j2) since J >= j2-j1.  So Racah's sum has the single term t = n1+n2-2, and
        the symbol is (-1)**t (n1-1)! (n2-1)! / (a! (N-a)!).  Every u_J(D~'') > 0 follows:
        D~'' is interior.
        """
        count = 0
        for system in self.SYSTEMS:
            n1, n2 = system.n1, system.n2
            n, sign = n1 + n2 - 1, (-1) ** (n1 + n2)
            den = n * comb(n - 1, n1 - 1)
            for tj in range(n2 - n1, n1 + n2 - 1, 2):
                a = (n1 + n2 - 2 - tj) // 2
                want = ExactRadical.from_rational(Fraction(sign * comb(n, a), den))
                # the Racah kernel behind the memo, so the 15,238 symbols are not kept
                symbol = wigner._six_j.__wrapped__(n1 - 1, n2 - 1, tj, n1 - 1, n2 - 1, n - 1)
                assert symbol == want, (system, a)
                count += 1
        assert count == 15238

    def test_ray_step_is_half_the_smallest_u(self):
        """_ray_step is half the smallest closed-form u_J(D~''), which sits at J = Jmax-1.

        On SYSTEMS, LADDER and five seeded sizes up to n1 = 1000, u_Jmin = n1/2, every
        u_J(x_s) = u_J + s (u_J - 1) is at least u_J / 2 > 0 and the Breuer image's u_Jmin,
        -s (n1-2), is negative, exactly.  With u_J = p c_J / q and s = sn / sd the checks
        run on integers: u_J + s (u_J - 1) - u_J / 2 is (sd p c + 2 sn (p c - q)) / (2 q sd).
        """
        rng = random.Random(1000)
        sample = [SpinPair(n1, rng.randint(n1, 2 * n1 + 8))
                  for n1 in [2 * rng.randint(21, 500) for _ in range(5)]]
        sizes = set(self.SYSTEMS) | set(self.LADDER) | set(sample)
        assert len(sizes) == 914 and max(s.n1 for s in sample) > 800
        for system in sizes:
            (factor, column), s = self.closed_form_u(system), geometry._ray_step(system)
            assert s == factor * min(column) / 2, system
            (p, q), (sn, sd) = factor.as_integer_ratio(), s.as_integer_ratio()
            assert min(column) == column[-2] and 2 * p * column[0] == system.n1 * q, system
            assert all(c > 0 and sd * p * c + 2 * sn * (p * c - q) >= 0 for c in column), system
            assert sn > 0 and system.n1 > 2
        assert geometry._ray_step(SpinPair(4, 4)) == Fraction(1, 5)

    def test_jmin_entry_puts_d_tilde_on_gamma(self):
        # u_Jmin(D~'') = n1/2 exactly: {j1 j2 Jmin; j1 j2 Jmax} = (-1)**(n1+n2) / n2
        for system in self.SYSTEMS + self.LADDER:
            j1, j2 = system.j1, system.j2
            want = ExactRadical.from_rational(Fraction((-1) ** (system.n1 + system.n2), system.n2))
            assert six_j(j1, j2, j2 - j1, j1, j2, j1 + j2) == want, system

    def test_relative_coordinates_match_d_tilde(self):
        # verify's default sweep: even n1 in 4..10, n2 from n1 to 20
        for system in [SpinPair(n1, n2) for n1 in (4, 6, 8, 10) for n2 in range(n1, 21)]:
            u = beta_to_alpha(d_tilde_point(system).beta).as_array() / system.norm_weights()
            want = np.array([abs(float(s)) for s in self.column(system)])
            want[-1] += 1 / (system.n1 + system.n2 - 1)
            want *= system.dim / 2
            # relative to the largest u_J: the smallest ones (1.4e-5 at 10x20) carry
            # float64 cancellation from beta_to_alpha, 5.4e-12 of their size at 10x18
            assert np.abs(u - want).max() <= 1e-12 * np.abs(want).max(), system


class TestPolytope:
    def test_halfspace_count_and_membership(self):
        # at 4x5 one facet has an all-zero coefficient (L[2, J=1/2] = 0)
        for system in (SpinPair(6, 8), SpinPair(4, 5)):
            planes = theta1_polytope(system)
            assert len(planes) == system.n1
            # maximally mixed (all even coords zero) is strictly inside
            origin = np.zeros((system.n1 - 2) // 2)
            for plane in planes:
                assert plane.evaluate_even(origin) > 1e-3

    def test_interior_points_are_states(self):
        rng = np.random.default_rng(23)
        for system in (SpinPair(6, 6), SpinPair(4, 5)):
            planes = theta1_polytope(system)
            box = polytope_bounding_box(system)
            pts = np.column_stack([rng.uniform(lo, hi, 300) for lo, hi in box])
            for x in pts:
                inside = all(plane.evaluate_even(x) >= 0 for plane in planes)
                beta = geometry._beta_from_even(system, x)
                alpha = beta_to_alpha(beta)
                assert inside == (min(alpha.coords) >= -1e-12)

    @pytest.mark.parametrize("n2", [6, 8, 14])
    def test_bounding_box_endpoints_are_attained(self, n2):
        system = SpinPair(6, n2)
        l = build_l_matrix(system).values
        corners = np.array(slice_polygons(system)[0])
        for k, (lo, hi) in enumerate(polytope_bounding_box(system)):
            for end, corner in ((lo, corners[corners[:, k].argmin()]),
                                (hi, corners[corners[:, k].argmax()])):
                assert abs(corner[k] - end) < 1e-12
                x = corner.copy()
                x[k] = end
                assert (l[0] + x @ l[[2, 4]]).min() >= -1e-12, (k, end)

    def test_one_cached_tuple_per_system(self):
        # Gamma, D~'' and the bounding box read these facets: each system builds them once
        for system in (SpinPair(4, 5), SpinPair(6, 9)):
            planes = theta1_polytope(system)
            assert type(planes) is tuple
            assert theta1_polytope(SpinPair(system.n1, system.n2)) is planes
            assert [p.label for p in planes] == [f"alpha[J={j}]=0" for j in system.j_values()]

    def test_polytope_matches_alpha_functionals(self):
        system = SpinPair(8, 12)
        planes = theta1_polytope(system)
        rng = np.random.default_rng(24)
        for _ in range(50):
            x = rng.normal(size=3)
            beta = geometry._beta_from_even(system, x)
            alpha = beta_to_alpha(beta).as_array()
            values = np.array([plane.evaluate_even(x) for plane in planes])
            assert np.abs(values - alpha).max() < 1e-12


class TestSegment:
    @pytest.mark.parametrize("n", [4, 6, 11, 20])
    def test_breuer_image_min_alpha_matches_closed_form(self, n):
        # alpha_{Jmin} of the image over its trace n1 - 2 = 2 is sqrt((N-3)/N)(1 - t/t*)
        t_star = Fraction((n - 2) * (n + 5), (n - 1) * (n + 4))
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            beta = segment_state_4xn(n, t)
            image = beta_to_alpha(maps.breuer_map(beta)).as_array() / 2
            expected = np.sqrt((n - 3) / n) * (1 - t / float(t_star))
            assert abs(image[0] - expected) < 1e-12
            assert image[1:].min() > -1e-12  # only the lowest block binds

    def test_flip_point_is_d_double_prime(self):
        named = named_points_4xn(4)
        beta = segment_state_4xn(4, segment_detection_threshold(4))
        assert np.abs(beta.as_array() - named["D''"].beta.as_array()).max() < 1e-12

    def test_endpoints_are_symmetrizations(self):
        for n in (4, 8):
            points = named_points_4xn(n)
            e_sym = maps.symmetrize(points["E"].beta)
            g_sym = maps.symmetrize(points["G"].beta)
            assert segment_state_4xn(n, 0.0) == e_sym
            assert segment_state_4xn(n, 1.0) == g_sym

    def test_rejects_out_of_range_t(self):
        with pytest.raises(ValueError):
            segment_state_4xn(4, -0.01)
        with pytest.raises(ValueError):
            segment_state_4xn(4, 1.01)

    @pytest.mark.parametrize("n", list(range(4, 21)))
    def test_detection_flips_once_at_threshold(self, n):
        flips = 0
        previous = maps.breuer_detects(segment_state_4xn(n, 0.0))
        for t in np.linspace(0.0, 1.0, 401)[1:]:
            current = maps.breuer_detects(segment_state_4xn(n, float(t)))
            flips += current != previous
            previous = current
        assert flips == 1
        lo, hi = 0.0, 1.0
        for _ in range(55):
            mid = 0.5 * (lo + hi)
            if maps.breuer_detects(segment_state_4xn(n, mid)):
                hi = mid
            else:
                lo = mid
        assert abs(0.5 * (lo + hi) - segment_detection_threshold(n)) < 1e-9


# the inverse vertex matrix that _hull_weights_x20 writes out, row by row
HULL_INVERSE_X20 = ((3, 5, 1, 5), (-3, 5, -1, 5), (-1, -5, 3, 5), (1, -5, -3, 5))


def _left_fold(terms):
    return functools.reduce(operator.add, terms, 0)


def sum_form_weights(x):
    """The weights as sums of c * v over each row and (x1, x2, x3, 1), per summation route.

    A left fold from 0 on every Python; ``sum()`` too before 3.12, where its
    float sum is that fold (3.12 compensates it).
    """
    totals = [_left_fold] + ([sum] if sys.version_info < (3, 12) else [])
    return [[total(c * v for c, v in zip(row, (*x, 1))) for row in HULL_INVERSE_X20]
            for total in totals]


def float_bytes(values) -> list[bytes | None]:
    """The bytes of each float, None for a NaN: IEEE 754 leaves a NaN's payload unspecified."""
    return [None if math.isnan(v) else struct.pack("<d", v) for v in values]


def assert_written_out_weights_equal_the_sum_form(x):
    for weights in sum_form_weights(x):
        assert float_bytes(geometry._hull_weights_x20(x)) == float_bytes(weights)


class TestMinimalSeparableSet:
    def test_vertices_and_midpoint_belong(self):
        named = named_points_4xn(6)
        for label in ("D", "D'", "E", "E'", "D''"):
            assert minimal_separable_membership_4xn(named[label].beta)
            assert exact_hull_membership_4xn(named[label])

    def test_g_double_prime_outside(self):
        beta = segment_state_4xn(6, 1.0)
        assert not minimal_separable_membership_4xn(beta)

    def test_f_outside(self):
        named = named_points_4xn(5)
        assert not exact_hull_membership_4xn(named["F"])

    def test_random_convex_combinations_belong(self):
        rng = np.random.default_rng(31)
        named = named_points_4xn(7)
        corners = np.array([
            named[label].beta.as_array() for label in ("D", "D'", "E", "E'")
        ])
        for _ in range(100):
            w = rng.random(4)
            w /= w.sum()
            beta = BetaVector(SpinPair(4, 7), w @ corners)
            assert minimal_separable_membership_4xn(beta)

    def test_hull_inverse_weights_of_vertices(self):
        # the constant inverse gives each closed-form vertex weight one on itself
        for n in (4, 9):
            named = named_points_4xn(n)
            for idx, label in enumerate(("D", "D'", "E", "E'")):
                weights = geometry._hull_weights_x20(scaled(named[label]))
                assert weights == [20 * (i == idx) for i in range(4)]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(width=64), min_size=3, max_size=3))
    def test_written_out_weights_equal_the_sum_form_on_floats(self, x):
        assert_written_out_weights_equal_the_sum_form(x)

    def test_written_out_weights_equal_the_sum_form_on_nans_once_warm(self):
        # Once its float adds are specialized (CPython 3.11), NaN + NaN there keeps another
        # operand's payload than sum() does; the weights still agree as NaN, position by position.
        for k in range(100):
            geometry._hull_weights_x20([0.1 * k, 0.2, 0.3])
        payload_one = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
        assert_written_out_weights_equal_the_sum_form([math.nan, payload_one, 1.26e-77])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.floats(width=64), min_size=4, max_size=4),
                    min_size=3, max_size=3),
           st.sampled_from([(0, 1, 2), (1,)]))
    def test_written_out_weights_equal_the_sum_form_on_arrays(self, rows, as_array):
        # (1,) is the sweep mask's shape: floats beside one beta_2 array
        x = [np.array(row) if k in as_array else row[0] for k, row in enumerate(rows)]
        with np.errstate(invalid="ignore", over="ignore"):
            got = geometry._hull_weights_x20(x)
            for weights in sum_form_weights(x):
                assert [w.tobytes() for w in got] == [w.tobytes() for w in weights]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.fractions(), min_size=3, max_size=3))
    def test_written_out_weights_equal_the_sum_form_on_fractions(self, x):
        for weights in sum_form_weights(x):
            got = geometry._hull_weights_x20(x)
            assert got == weights and all(type(w) is Fraction for w in got)

    def test_wrong_system_rejected(self):
        beta = alpha_to_beta(maximally_mixed(SpinPair(6, 6)))
        with pytest.raises(ValueError):
            minimal_separable_membership_4xn(beta)
        with pytest.raises(ValueError, match="4 x N operation"):
            exact_hull_membership_4xn(d_tilde_point(SpinPair(6, 8)))

    def test_off_trace_point_is_not_a_member(self):
        # D'' scaled to beta_0 = 1.5: the weights alone would accept it
        d = named_points_4xn(6)["D''"].beta.coords
        assert minimal_separable_membership_4xn(BetaVector(SpinPair(4, 6), d))
        assert not minimal_separable_membership_4xn(BetaVector(SpinPair(4, 6), (1.5,) + d[1:]))

    def test_exact_membership_needs_the_radial_lattice(self):
        # r_1 = sqrt(3)/5 at N = 4, so beta_1 = sqrt(2)/5 is an irrational multiple
        exact = (ExactRadical.one(), ExactRadical.sqrt(Fraction(2, 25)),
                 ExactRadical.zero(), ExactRadical.zero())
        point = geometry.NamedPoint("X", BetaVector(SpinPair(4, 4), [float(e) for e in exact]),
                                    exact)
        with pytest.raises(ValueError, match="X: coordinate 1 is not in the radial lattice"):
            exact_hull_membership_4xn(point)


class TestRegionSweeps:
    def test_fraction_shrinks_with_n2(self):
        fracs = [be_region_fraction(SpinPair(6, n2), 100) for n2 in (6, 8)]
        assert fracs[0] > fracs[1] > 0

    def test_4xn_fraction_matches_segment_picture(self):
        # for 4xN the polytope is the segment [E2, G2]; detected part is beyond D2
        n = 6
        frac = be_region_fraction(SpinPair(4, n), 2001)
        named = named_points_4xn(n)
        e2, g2 = named["E"].beta.coords[2], named["G"].beta.coords[2]
        d2 = named["D''"].beta.coords[2]
        expected = (g2 - d2) / (g2 - e2)
        assert abs(frac - expected) < 2e-3

    @pytest.mark.parametrize("n2", [6, 8, 14])
    def test_fraction_matches_shoelace_areas(self, n2):
        # grid-free detected share: 1 - area(undetected) / area(polytope)
        system = SpinPair(6, n2)
        polytope, undetected = slice_polygons(system)
        exact = 1.0 - shoelace(undetected) / shoelace(polytope)
        grid = 400
        # the grid misjudges only points within one cell diagonal of the
        # boundary of the detected region or, through the normalization,
        # of the polytope; the detected boundary is the polytope boundary it
        # does not share with the undetected region plus the cut, twice
        l = build_l_matrix(system).values
        cut = 0.0
        for p, q in zip(undetected, undetected[1:] + undetected[:1]):
            mid = 0.5 * (p + q)
            if abs((4.0 * l[0] - 2.0 * (mid @ l[[2, 4]])).min()) < 1e-9:
                cut += float(np.linalg.norm(q - p))
        detected_perimeter = perimeter(polytope) - perimeter(undetected) + 2.0 * cut
        diagonal = np.hypot(*[(hi - lo) / (grid - 1)
                              for lo, hi in polytope_bounding_box(system)])
        resolution = ((detected_perimeter + exact * perimeter(polytope))
                      * diagonal / shoelace(polytope))
        assert 0.0 < exact < 1.0
        assert abs(be_region_fraction(system, grid) - exact) <= resolution

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            be_region_fraction(SpinPair(6, 6), 5)
        with pytest.raises(ValueError):
            be_region_fraction(SpinPair(8, 8), 100)

    def test_sweep_rows_deterministic_and_consistent(self):
        system = SpinPair(6, 8)
        header, rows, fraction = sweep_rows(system, 30)
        header2, rows2, fraction2 = sweep_rows(system, 30)
        assert header == ("beta_K=2", "beta_K=4", "class") and rows == rows2
        assert fraction == fraction2
        detected = sum(r[-1] == "PptBoundEntangledDetected" for r in rows)
        assert abs(detected / len(rows) - fraction) < 1e-12

    def test_sweep_classes_match_classifier(self):
        system = SpinPair(6, 6)
        _, rows, _ = sweep_rows(system, 14)
        for row in rows[:80]:
            beta = geometry._beta_from_even(system, row[:-1])
            verdict = maps.classify(beta).verdict.value
            assert verdict == row[-1]

    def test_known_separable_rows_appear_for_4xn(self):
        _, rows, _ = sweep_rows(SpinPair(4, 6), 200)
        classes = {row[-1] for row in rows}
        assert "KnownSeparable" in classes
        assert "PptBoundEntangledDetected" in classes


class TestSeparableBand4xN:
    """The 4 x N sweep marks KnownSeparable exactly where classify's rule,
    minimal_separable_membership_4xn, accepts (1, 0, beta_2, 0)."""

    @pytest.mark.parametrize("n", [9, 17])
    def test_sweep_and_classify_agree_on_a_fine_grid(self, n):
        system = SpinPair(4, n)
        _, rows, _ = sweep_rows(system, 40000)
        assert {row[-1] for row in rows} == {"KnownSeparable", "PptBoundEntangledDetected"}
        for beta2, cls in rows:
            beta = BetaVector(system, (1.0, 0.0, beta2, 0.0))
            assert maps.classify(beta).verdict.value == cls, beta2

    @pytest.mark.parametrize("n", [9, 17])
    def test_band_is_the_rule_around_plus_minus_r2(self, n):
        system = SpinPair(4, n)
        r2 = geometry._radial_unit_floats(n)[1]
        points = [centre + sign * offset for centre in (-r2, r2)
                  for offset in (0.0, 1e-10, 1.5e-10, 2e-10, 2.9e-10, 3e-10) for sign in (-1, 1)]
        mask = geometry._separable_mask_4xn(n, np.array(points), 1e-10)
        for beta2, inside in zip(points, mask.tolist()):
            beta = BetaVector(system, (1.0, 0.0, beta2, 0.0))
            assert minimal_separable_membership_4xn(beta) == inside, beta2
            result = maps.classify(beta)
            if result.is_state and result.is_ppt and not result.breuer_detected:
                assert result.known_separable == inside, beta2

    @pytest.mark.parametrize("n", [4, 9, 17, 40])
    def test_mask_is_the_rule_float_by_float_at_both_edges(self, n):
        system = SpinPair(4, n)
        r2 = geometry._radial_unit_floats(n)[1]
        for edge in (-r2 * (1 + 4e-10), r2 * (1 + 4e-10)):  # where (5 -+ 5 x) / 20 = -tol
            points = edge + np.arange(-40, 41) * np.spacing(edge)
            mask = geometry._separable_mask_4xn(n, points, 1e-10).tolist()
            assert set(mask) == {True, False}, edge
            for beta2, inside in zip(points.tolist(), mask):
                beta = BetaVector(system, (1.0, 0.0, beta2, 0.0))
                assert minimal_separable_membership_4xn(beta) == inside, beta2

    def test_state_just_below_e_is_separable_in_both(self):
        e2 = named_points_4xn(9)["E"].beta.coords[2]
        beta2 = e2 - 1.5e-10
        beta = BetaVector(SpinPair(4, 9), (1.0, 0.0, beta2, 0.0))
        assert maps.classify(beta).verdict is maps.Verdict.KNOWN_SEPARABLE
        assert minimal_separable_membership_4xn(beta)
        assert geometry._separable_mask_4xn(9, np.array([beta2]), 1e-10).tolist() == [True]


class TestDetectionExistence:
    @pytest.mark.parametrize("n1", [4, 6, 8, 10])
    def test_found_state_is_detected_invariant_ppt(self, n1):
        for n2 in (n1, n1 + 5):
            system = SpinPair(n1, n2)
            beta = find_detected_invariant_state(system)
            assert beta is not None, system
            assert maps.breuer_detects(beta)
            assert maps.is_ppt(beta)
            assert check_state(beta_to_alpha(beta)).is_state
            assert beta.coords[1::2] == (0.0,) * (n1 // 2)  # theta_1 invariant
            assert gamma_hyperplane(system).evaluate(beta) < 0

    # the existence-ladder sizes (even n1, n2 in {n1, n1+2, 2n1, 2n1+8}) where
    # float64 resolves the radial witness; 14x36 and 20x22 need the ray
    @pytest.mark.parametrize("dims", [
        (4, 4), (4, 6), (4, 8), (4, 16), (6, 6), (6, 8), (6, 12), (6, 20), (8, 8), (8, 10),
        (8, 16), (8, 24), (10, 10), (10, 12), (10, 20), (10, 28), (12, 12), (12, 14),
        (12, 24), (12, 32), (14, 14), (14, 16), (14, 28), (14, 36), (16, 16), (16, 18),
        (18, 18), (18, 20), (20, 20), (20, 22)])
    def test_witness_on_existence_ladder(self, dims):
        system = SpinPair(*dims)
        beta = find_detected_invariant_state(system)
        assert beta is not None
        assert maps.classify(beta).verdict is maps.Verdict.PPT_BOUND_ENTANGLED_DETECTED
        assert gamma_hyperplane(system).evaluate(beta) < 0

    # ladder sizes where float64 no longer confirms the radial witness: the
    # search returns None rather than an unconfirmed point.  The exact step
    # certifies these sizes (TestDTildeThetaColumn), but alpha_{Jmax-1} of the
    # witness falls below the float64 tolerance; a witness of maximal margin
    # is what can turn them into found witnesses
    @pytest.mark.parametrize("dims", [(22, 22), (16, 32), (20, 40)])
    def test_unconfirmed_witness_is_none(self, dims):
        assert find_detected_invariant_state(SpinPair(*dims)) is None


# the theta_1 slice in rows, one per point: with row_min, the bitwise reference
# for _slice_margins, which takes columns and returns their margins
def row_form_alphas(system: SpinPair, x) -> tuple[np.ndarray, np.ndarray]:
    l = build_l_matrix(system).values
    linear = x @ l[2::2]
    trace, factor = _breuer_rule(system.n1)
    return l[0] + linear, trace * l[0] + factor * linear


def row_min(a: np.ndarray) -> np.ndarray:
    return functools.reduce(np.minimum, a.T)


def row_form_sweep(system: SpinPair, grid: int, tol: float = 1e-10):
    """sweep_columns on rows: (box, axes, index, codes, fraction, alpha, alpha_phi)."""
    faces = np.array([(face.constant, *face.coeffs) for face in theta1_polytope(system)])
    vertices = []
    for rows in map(list, combinations(range(system.n1), faces.shape[1] - 1)):
        try:
            x = np.linalg.solve(faces[rows, 1:], -faces[rows, 0])
        except np.linalg.LinAlgError:
            continue
        if row_form_alphas(system, x)[0].min() >= -1e-12:
            vertices.append(x)
    box = tuple((float(lo), float(hi))
                for lo, hi in zip(np.min(vertices, axis=0), np.max(vertices, axis=0)))
    axes = [np.linspace(lo, hi, grid) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    alpha, alpha_phi = row_form_alphas(system, np.stack([m.ravel() for m in mesh], axis=-1))
    flat = np.flatnonzero(row_min(alpha) >= -tol)
    index = np.unravel_index(flat, mesh[0].shape)
    detected = row_min(alpha_phi)[flat] < -tol
    separable = np.zeros(len(flat), dtype=bool)
    if system.n1 == 4:
        separable = geometry._separable_mask_4xn(system.n2, axes[0][index[0]], tol)
    codes = np.where(detected, 0, np.where(separable, 1, 2))
    fraction = float(detected.sum() / len(flat)) if len(flat) else 0.0
    return box, axes, index, codes, fraction, alpha, alpha_phi


# every sweep of the full digest listing, and every sweep the sweep benchmark can
# draw (4 x N at grid 40000, 6 x N at grid 260, and its warm-ups at grid 10)
SWEEP_SPAN = sorted({(4, n2, 200) for n2 in range(4, 41)}
                    | {(4, n2, 40000) for n2 in [*range(4, 21), 40]}
                    | {(6, n2, 260) for n2 in range(6, 17)} | {(6, 8, 15)}
                    | {(4, n2, 10) for n2 in range(4, 21)} | {(6, n2, 10) for n2 in range(6, 17)})

EXISTENCE_LADDER = [SpinPair(n1, n2) for n1 in range(4, 41, 2)
                    for n2 in sorted({n1, n1 + 2, 2 * n1, 2 * n1 + 8})]


class TestColumnLayout:
    """_slice_margins in columns gives the row layout's margins bit for bit, sweeps and
    single points alike."""

    @pytest.mark.parametrize("n1, n2, grid", SWEEP_SPAN)
    def test_sweep_equals_the_row_form_bitwise(self, n1, n2, grid, monkeypatch):
        system = SpinPair(n1, n2)
        box, axes, index, codes, fraction, alpha, alpha_phi = row_form_sweep(system, grid)
        assert polytope_bounding_box(system) == box
        calls = []
        slice_margins = geometry._slice_margins
        monkeypatch.setattr(geometry, "_slice_margins",
                            lambda *args: calls.append(slice_margins(*args)) or calls[-1])
        _, axes2, index2, codes2, fraction2 = geometry.sweep_columns(system, grid, 1e-10)
        assert [a.tobytes() for a in axes2] == [a.tobytes() for a in axes]
        assert all(np.array_equal(i2, i) for i2, i in zip(index2, index, strict=True))
        assert np.array_equal(codes2, codes)
        assert repr(fraction2) == repr(fraction)
        # the last call is the grid's, in columns (the bounding box's come first)
        assert [a.tobytes() for a in calls[-1]] == [row_min(alpha).tobytes(),
                                                     row_min(alpha_phi).tobytes()]

    def test_point_path_equals_the_row_form_bitwise(self):
        assert len(EXISTENCE_LADDER) == 76
        for system in EXISTENCE_LADDER:
            rng = np.random.default_rng([25, system.n1, system.n2])
            witness = ((1.0 + float(geometry._ray_step(system)))
                       * np.array(d_tilde_point(system).beta.coords[2::2]))
            points = [witness, *(witness * rng.uniform(-2.0, 2.0, size=(100, len(witness))))]
            for x in points:
                got = geometry._slice_margins(system, x)
                want = [row_min(a) for a in row_form_alphas(system, x)]
                assert all(isinstance(margin, float) for margin in got), (system, x)
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want], (system, x)
