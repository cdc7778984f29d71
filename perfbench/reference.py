"""Reference computations for checking rotinv's outputs, made apart from rotinv.

Nothing here imports rotinv.  Wigner symbols come from
``sympy.physics.wigner``; the rest is the paper's closed forms and plain
numpy geometry:

* the basis change ``L[K, J] = sqrt((2K+1)(2J+1)) (-1)^(j1+j2+J)
  {j1 j2 J; j2 j1 K}`` from sympy's 6-j symbol (full matrix or spot entries);
* the Breuer image ``(1, beta_1, beta_2, ...) -> (n1-2, 0, -2 beta_2, 0, ...)``;
* the 4 x N threshold ``t* = (N-2)(N+5)/((N-1)(N+4))``;
* the minimal separable set of 4 x N as the hull of twirled product states
  ``|m1> (x) |j2 j2>``, whose alpha coordinates are squared 3-j symbols;
* the 6 x N detected fraction as a ratio of shoelace areas of the polygons
  cut out by ``alpha_J >= 0`` and ``alpha(Phi)_J >= 0``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from sympy import Rational, sqrt
from sympy.physics.wigner import wigner_3j, wigner_6j

TOL = 1e-10  # rotinv's default decision tolerance

VERDICTS = ("NotAState", "NptEntangled", "PptBoundEntangledDetected",
            "KnownSeparable", "PptUndetermined")


def _spins(n1: int, n2: int):
    return Rational(n1 - 1, 2), Rational(n2 - 1, 2)


def l_entry(n1: int, n2: int, k: int, j_index: int) -> float:
    """L[K, J] with J the j_index-th total momentum counted from j2 - j1."""
    j1, j2 = _spins(n1, n2)
    big_j = j2 - j1 + j_index
    phase = -1 if int(j1 + j2 + big_j) % 2 else 1
    value = phase * sqrt((2 * k + 1) * (2 * big_j + 1)) * wigner_6j(j1, j2, big_j, j2, j1, k)
    return float(value)


def l_matrix(n1: int, n2: int) -> np.ndarray:
    """The full n1 x n1 basis change, rows K, columns ascending J."""
    return np.array([[l_entry(n1, n2, k, j) for j in range(n1)] for k in range(n1)])


def spot_positions(n1: int) -> tuple[tuple[int, int], ...]:
    """Fixed (K, J index) entries checked at sizes too large for a full matrix."""
    last, mid = n1 - 1, n1 // 2
    return ((0, 0), (last, last), (mid, 0), (1, last), (last, mid))


def l_spots(n1: int, n2: int) -> dict[tuple[int, int], float]:
    return {pos: l_entry(n1, n2, *pos) for pos in spot_positions(n1)}


def norm_weights(n1: int, n2: int) -> np.ndarray:
    """w_J = sqrt((2J+1)/(n1 n2)); a state has w . alpha = 1."""
    two_j = (n2 - n1) + 2 * np.arange(n1)
    return np.sqrt((two_j + 1) / (n1 * n2))


def theta_flip(beta: np.ndarray) -> np.ndarray:
    """Partial time reversal in tensor coordinates: odd-K signs change."""
    out = np.array(beta, dtype=float)
    out[..., 1::2] *= -1
    return out


def breuer_image(beta: np.ndarray) -> np.ndarray:
    """The paper's Breuer image (n1-2, 0, -2 beta_2, 0, -2 beta_4, ...)."""
    beta = np.asarray(beta, dtype=float)
    n1 = beta.shape[-1]
    out = -2.0 * beta
    out[..., 1::2] = 0.0
    out[..., 0] = n1 - 2
    return out


def threshold_4xn(n: int) -> Fraction:
    """t* = (N-2)(N+5)/((N-1)(N+4)); the detected share of E''G'' is 1 - t*."""
    return Fraction((n - 2) * (n + 5), (n - 1) * (n + 4))


def separable_vertices_alpha(n2: int) -> np.ndarray:
    """Alpha coordinates of the twirls of |m1> (x) |j2 j2>, m1 = 3/2 .. -3/2.

    The twirl of a pure state psi is sum_J <psi|P_J|psi>/(2J+1) P_J, and
    <psi|P_J|psi> is a squared Clebsch-Gordan coefficient, so
    alpha_J = sqrt(n1 n2 (2J+1)) (j1 j2 J; m1 j2 -m1-j2)^2, free of phase
    conventions.  Their hull is the 4 x N minimal separable set DD'EE'.
    """
    n1 = 4
    j1, j2 = _spins(n1, n2)
    rows = []
    for m1 in (Rational(3, 2), Rational(1, 2), Rational(-1, 2), Rational(-3, 2)):
        row = []
        for j_index in range(n1):
            big_j = j2 - j1 + j_index
            sym = wigner_3j(j1, j2, big_j, m1, j2, -m1 - j2)
            row.append(float(sqrt(n1 * n2 * (2 * big_j + 1)) * sym ** 2))
        rows.append(row)
    return np.array(rows)


class SystemReference:
    """Reference decisions for one system, from the full sympy L matrix."""

    def __init__(self, n1: int, n2: int):
        self.n1, self.n2 = n1, n2
        self.l = l_matrix(n1, n2)
        self.w = norm_weights(n1, n2)
        self.hull = None
        if n1 == 4:
            # barycentric solve against the separable vertices, in beta space
            self.hull = np.linalg.inv(self.l @ separable_vertices_alpha(n2).T)

    def decisions(self, beta: np.ndarray) -> dict:
        """The quantities each verdict turns on, for an (M, n1) beta array."""
        beta = np.atleast_2d(np.asarray(beta, dtype=float))
        out = {
            "norm": beta @ self.l @ self.w - 1.0,
            "min_alpha": (beta @ self.l).min(axis=1),
            "min_theta1_alpha": (theta_flip(beta) @ self.l).min(axis=1),
        }
        if self.n1 % 2 == 0 and self.n1 >= 4:
            out["min_breuer_alpha"] = (breuer_image(beta) @ self.l).min(axis=1)
        if self.hull is not None:
            out["hull_min_weight"] = (beta @ self.hull.T).min(axis=1)
        return out

    def verdicts(self, beta: np.ndarray, tol: float = TOL) -> list[str]:
        """Verdicts by the documented precedence, decided from the references."""
        d = self.decisions(beta)
        out = []
        for i in range(len(d["min_alpha"])):
            if abs(d["norm"][i]) > tol or d["min_alpha"][i] < -tol:
                out.append("NotAState")
            elif d["min_theta1_alpha"][i] < -tol:
                out.append("NptEntangled")
            elif "min_breuer_alpha" in d and d["min_breuer_alpha"][i] < -tol:
                out.append("PptBoundEntangledDetected")
            elif "hull_min_weight" in d and d["hull_min_weight"][i] >= -tol:
                out.append("KnownSeparable")
            else:
                out.append("PptUndetermined")
        return out

    def margins(self, beta: np.ndarray) -> np.ndarray:
        """Distance of each state from the nearest decision boundary in use."""
        d = self.decisions(beta)
        parts = [np.abs(d["min_alpha"]), np.abs(d["min_theta1_alpha"])]
        for key in ("min_breuer_alpha", "hull_min_weight"):
            if key in d:
                parts.append(np.abs(d[key]))
        return np.min(parts, axis=0)


# ---------------------------------------------------------------------------
# polygons and grids of the theta_1-invariant polytope
# ---------------------------------------------------------------------------

def halfplane_polygon(const: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """Vertices, counter-clockwise, of {x in R^2 : const + coefs @ x >= 0}.

    ``coefs`` has shape (m, 2).  Every pairwise line intersection that
    satisfies all constraints is a vertex; the region must be bounded.
    """
    pts = []
    m = len(const)
    for a in range(m):
        for b in range(a + 1, m):
            mat = np.array([coefs[a], coefs[b]])
            if abs(np.linalg.det(mat)) < 1e-14:
                continue
            x = np.linalg.solve(mat, -np.array([const[a], const[b]]))
            if (const + coefs @ x).min() >= -1e-12:
                pts.append(x)
    pts = np.unique(np.round(np.array(pts), 12), axis=0)
    centre = pts.mean(axis=0)
    order = np.argsort(np.arctan2(pts[:, 1] - centre[1], pts[:, 0] - centre[0]))
    return pts[order]


def shoelace_area(vertices: np.ndarray) -> float:
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * abs(float(x @ np.roll(y, -1) - y @ np.roll(x, -1)))


def sweep_reference(n1: int, n2: int, grid: int, tol: float = TOL,
                    delta: float = 1e-9) -> dict:
    """Independent expectations for ``rotinv sweep`` on a 4 x N or 6 x N system.

    Returns the grid-free detected fraction (1 - t* for 4 x N, a ratio of
    polygon areas for 6 x N), the tolerance the grid fraction must meet at
    this resolution, and for each class the number of grid points whose
    decision is certain (``*_lo``) or possible within ``delta`` of its
    boundary (``*_hi``); the program's counts must lie in between.
    """
    l = l_matrix(n1, n2)
    const = l[0]
    coefs = l[2:n1 - 1:2].T  # (n1, dims) over beta_2, beta_4, ...
    img_const, img_coefs = (n1 - 2) * const, -2.0 * coefs
    out: dict = {}
    if n1 == 4:
        # alpha_J = const_J + b * coefs_J: an interval in b = beta_2
        slope = coefs[:, 0]
        if (const[slope == 0] < 0).any():
            raise ValueError(f"empty polytope for {n1}x{n2}")
        lo = float((-const[slope > 0] / slope[slope > 0]).max())
        hi = float((-const[slope < 0] / slope[slope < 0]).min())
        axes = [np.linspace(lo, hi, grid)]
        out["fraction"] = 1.0 - float(threshold_4xn(n2))
        out["fraction_tol"] = 2.0 / (grid - 1)
    elif n1 == 6:
        poly = halfplane_polygon(const, coefs)
        undetected = halfplane_polygon(np.concatenate([const, img_const]),
                                       np.concatenate([coefs, img_coefs]))
        area = shoelace_area(poly)
        out["fraction"] = 1.0 - shoelace_area(undetected) / area
        lo_hi = list(zip(poly.min(axis=0), poly.max(axis=0)))
        axes = [np.linspace(lo, hi, grid) for lo, hi in lo_hi]
        # one grid step, relative: the grid's resolution
        out["fraction_tol"] = 1.0 / (grid - 1)
    else:
        raise ValueError(f"sweep reference covers n1 in (4, 6), got {n1}")
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    inside = (const + pts @ coefs.T).min(axis=1)
    breuer = (img_const + pts @ img_coefs.T).min(axis=1)
    out["inside_lo"] = int((inside >= delta).sum())
    out["inside_hi"] = int((inside >= -delta).sum())
    out["detected_lo"] = int(((inside >= delta) & (breuer < -delta)).sum())
    out["detected_hi"] = int(((inside >= -delta) & (breuer < delta)).sum())
    if n1 == 4:
        # theta_1-invariant slice of DD'EE': beta_2 between E'' and D''
        vert_beta = separable_vertices_alpha(n2) @ l.T
        e2, d2 = vert_beta[2, 2], vert_beta[0, 2]
        b = pts[:, 0]
        sep_certain = (inside >= delta) & (breuer > delta) & (b >= e2 + delta) & (b <= d2 - delta)
        sep_possible = (inside >= -delta) & (breuer > -delta) & (b >= e2 - delta) & (b <= d2 + delta)
        out["separable_lo"] = int(sep_certain.sum())
        out["separable_hi"] = int(sep_possible.sum())
    return out
