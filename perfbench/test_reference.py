"""Tests of the benchmark's reference computations (no rotinv involved).

Run with ``python3 -m pytest perfbench/test_reference.py``.
"""

import numpy as np
import pytest

import reference as ref

SYSTEMS = [(4, 4), (4, 9), (5, 7), (6, 8), (8, 12)]


@pytest.mark.parametrize("n1,n2", SYSTEMS)
def test_l_is_orthogonal_with_weight_row(n1, n2):
    l = ref.l_matrix(n1, n2)
    assert np.abs(l @ l.T - np.eye(n1)).max() < 1e-13
    # K = 0 row: L[0, J] = sqrt((2J+1)/(n1 n2)), so beta_0 = w . alpha
    assert np.allclose(l[0], ref.norm_weights(n1, n2), atol=1e-15)


def test_spin_half_pair_by_hand():
    # j1 = j2 = 1/2: {1/2 1/2 J; 1/2 1/2 K} gives L = [[1/2, sqrt3/2], [-sqrt3/2, 1/2]]
    l = ref.l_matrix(2, 2)
    s = np.sqrt(3) / 2
    assert np.allclose(l, [[0.5, s], [-s, 0.5]], atol=1e-15)


@pytest.mark.parametrize("n1,n2", [(6, 8), (10, 14)])
def test_spots_are_full_matrix_entries(n1, n2):
    l = ref.l_matrix(n1, n2)
    for (k, j), value in ref.l_spots(n1, n2).items():
        assert value == l[k, j]


def test_breuer_image_formula():
    beta = np.array([1.0, 0.3, -0.2, 0.7, 0.1, -0.4])
    assert ref.breuer_image(beta).tolist() == [4.0, 0.0, 0.4, 0.0, -0.2, 0.0]
    # the maximally mixed state maps to (n1-2) times itself: never detected
    l, w = ref.l_matrix(6, 8), ref.norm_weights(6, 8)
    image_alpha = ref.breuer_image(w @ l.T) @ l
    assert np.allclose(image_alpha, 4 * w)


def test_theta_flip_is_an_involution():
    beta = np.arange(1.0, 7.0)
    assert ref.theta_flip(beta).tolist() == [1, -2, 3, -4, 5, -6]
    assert (ref.theta_flip(ref.theta_flip(beta)) == beta).all()


@pytest.mark.parametrize("n", [4, 5, 6, 9, 14])
def test_threshold_matches_interval_geometry(n):
    """1 - t* equals the detected share of the invariant interval, from L alone."""
    l = ref.l_matrix(4, n)
    const, slope = l[0], l[2]

    def interval(c, s):
        lo = (-c[s > 0] / s[s > 0]).max()
        hi = (-c[s < 0] / s[s < 0]).min()
        return lo, hi

    lo, hi = interval(const, slope)
    u_lo, u_hi = interval(np.concatenate([const, 2 * const]),
                          np.concatenate([slope, -2 * slope]))
    assert 1 - (u_hi - u_lo) / (hi - lo) == pytest.approx(1 - float(ref.threshold_4xn(n)),
                                                          abs=1e-12)
    assert ref.threshold_4xn(4) == ref.Fraction(3, 4)


def test_polygon_of_unit_square():
    const = np.array([0.0, 1.0, 0.0, 1.0])
    coefs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    poly = ref.halfplane_polygon(const, coefs)
    assert len(poly) == 4
    assert ref.shoelace_area(poly) == pytest.approx(1.0)


@pytest.mark.parametrize("n2", [6, 8, 13])
def test_polygon_fraction_matches_fine_grid(n2):
    coarse = ref.sweep_reference(6, n2, 50)
    fine = ref.sweep_reference(6, n2, 1500)
    grid_fraction = fine["detected_lo"] / fine["inside_lo"]
    assert 0.0 < fine["fraction"] < 1.0
    assert grid_fraction == pytest.approx(fine["fraction"], abs=fine["fraction_tol"])
    assert coarse["fraction"] == pytest.approx(fine["fraction"], abs=1e-12)


@pytest.mark.parametrize("n2", [4, 7, 12])
def test_separable_vertices_are_ppt_states(n2):
    l, w = ref.l_matrix(4, n2), ref.norm_weights(4, n2)
    alpha = ref.separable_vertices_alpha(n2)
    beta = alpha @ l.T
    assert np.allclose(alpha @ w, 1.0)
    assert (alpha >= 0).all()
    assert (ref.theta_flip(beta) @ l).min() > -1e-12
    # m1 = 3/2 is the stretched state: all weight on J max
    assert np.allclose(alpha[0, :3], 0.0)
    # time reversal on the first factor sends m1 to -m1
    assert np.allclose(ref.theta_flip(beta[0]), beta[3])
    assert np.allclose(ref.theta_flip(beta[1]), beta[2])


def test_reference_verdicts():
    sref = ref.SystemReference(4, 6)
    vertices = ref.separable_vertices_alpha(6) @ sref.l.T
    inside = np.full(4, 0.25) @ vertices
    beyond = 1.5 * vertices[0] - 0.5 * inside
    assert sref.verdicts([inside]) == ["KnownSeparable"]
    assert sref.verdicts([[1.0, 3.0, 0.0, 0.0]]) == ["NotAState"]
    assert sref.verdicts([beyond]) != ["KnownSeparable"]


def test_sweep_reference_4xn_counts_whole_interval():
    out = ref.sweep_reference(4, 9, 1001)
    assert out["inside_hi"] == 1001
    assert out["detected_lo"] <= out["detected_hi"] <= out["inside_hi"]
    assert out["separable_lo"] <= out["separable_hi"]
    grid_fraction = out["detected_hi"] / out["inside_hi"]
    assert grid_fraction == pytest.approx(out["fraction"], abs=out["fraction_tol"])
