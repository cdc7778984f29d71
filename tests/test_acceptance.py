"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines with their worst residuals.
"""

from fractions import Fraction

import numpy as np

from rotinv import checks, dense, geometry, maps, states
from rotinv.states import AlphaVector, SpinPair, alpha_to_beta, beta_to_alpha, build_l_matrix


def report(name: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def random_invariant_states(system: SpinPair, count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        raw = rng.random(system.n1) + 1e-3
        yield AlphaVector(system, raw / (system.norm_weights() @ raw))


def test_criterion_1_appendix_identities():
    """Appendix sums: -1/N2 within 1e-12 and exact orthogonality delta."""
    worst = checks.appendix_sum(
        SpinPair(n1, n2) for n1 in (4, 6, 8, 10, 12) for n2 in range(n1, 21))

    cases = []
    spins = [Fraction(t, 2) for t in range(0, 13)]  # spins up to 6
    rng = np.random.default_rng(2024)
    for _ in range(160):
        a, b, c = (spins[rng.integers(0, len(spins))] for _ in range(3))
        d = a + b - c
        if d < 0 or d > 6:
            continue
        js = [
            J for J in spins
            if abs(a - b) <= J <= a + b and abs(c - d) <= J <= c + d
            and (a + b + J).denominator == 1 and (c + d + J).denominator == 1
        ]
        if not js:
            continue
        J = js[rng.integers(0, len(js))]
        Jp = js[rng.integers(0, len(js))]
        cases.append((a, b, c, d, J, Jp))
    exact_ok = checks.orthogonality_sums(cases) == 0.0

    report(
        "criterion 1 (appendix identities)",
        worst < 1e-12 and exact_ok,
        f"sum residual {worst:.2e}, orthogonality exact={exact_ok}",
    )


def test_criterion_2_l_orthogonality():
    """L orthogonality < 1e-12 and the explicit 4xN matrix matches < 1e-12."""
    worst = checks.l_orthogonality(
        build_l_matrix(SpinPair(n1, n2)).values
        for n1 in range(2, 13, 2) for n2 in range(n1, 25))
    worst_explicit = checks.explicit_l_4xn(range(4, 21))
    report(
        "criterion 2 (L orthogonality + explicit 4xN)",
        worst < 1e-12 and worst_explicit < 1e-12,
        f"orthogonality {worst:.2e}, explicit match {worst_explicit:.2e}",
    )


def test_criterion_3_figure_one_geometry():
    """Named points equal the pipeline within 1e-12; states; E,F,G PPT."""
    ns = (4, 6, 8, 12)
    # vertices of the intersection: on the boundary of both tetrahedra
    worst = checks.named_points(ns, boundary=("E", "F", "G", "E'", "F'", "G'"))
    ok = True
    for n in ns:
        named = geometry.named_points_4xn(n)
        for label in "ABCD":
            prime = maps.partial_time_reversal(named[label].beta).as_array()
            worst = max(worst, float(np.abs(
                np.array(named[label + "'"].beta.coords) - prime).max()))
        for label in ("A", "B", "C", "D", "E", "F", "G"):
            alpha = beta_to_alpha(named[label].beta)
            ok &= states.check_state(alpha, tol=1e-10).is_state
        for label in ("E", "F", "G", "E'", "F'", "G'"):
            ok &= maps.is_ppt(named[label].beta, tol=1e-10)
    report(
        "criterion 3 (figure-1 geometry)",
        worst < 1e-12 and ok,
        f"max deviation {worst:.2e}, states/PPT ok={ok}",
    )


def test_criterion_4_detection_threshold():
    """Single detection flip at t* within 1e-9; N=4 flip point is D''."""
    worst_t = checks.segment_threshold(range(4, 21))
    single_flip = True
    for n in range(4, 21):
        previous = maps.breuer_detects(geometry.segment_state_4xn(n, 0.0))
        flips = 0
        for t in np.linspace(0.0, 1.0, 241)[1:]:
            current = maps.breuer_detects(geometry.segment_state_4xn(n, float(t)))
            flips += current != previous
            previous = current
        single_flip &= flips == 1

    flip_state = geometry.segment_state_4xn(4, geometry.segment_detection_threshold(4))
    named = geometry.named_points_4xn(4)
    d_dev = float(np.abs(
        flip_state.as_array() - named["D''"].beta.as_array()).max())
    ok = single_flip and worst_t < 1e-9 and d_dev < 1e-12
    ok &= geometry.segment_detection_threshold(4) == 0.75
    report(
        "criterion 4 (detection threshold)",
        ok,
        f"|t_flip - t*| {worst_t:.2e}, single flip={single_flip}, D'' dev {d_dev:.2e}",
    )


def test_criterion_5_gamma_plane_4x4():
    """D, D', F, F' lie on the 4x4 gamma plane within 1e-12."""
    worst = checks.gamma_plane_4x4(("D", "D'", "F", "F'"))
    report("criterion 5 (4x4 gamma plane)", worst < 1e-12, f"max residual {worst:.2e}")


def test_criterion_6_gamma_d_tilde_existence():
    """D~'' on Gamma within 1e-12, interior, and a detected witness beyond it."""
    systems = [SpinPair(n1, n2) for n1 in (4, 6, 8, 10) for n2 in range(n1, 21)]
    worst = checks.d_tilde_on_gamma(systems)
    interior_ok = all(
        min(beta_to_alpha(geometry.d_tilde_point(system).beta).coords) > 0
        for system in systems)
    existence_ok = checks.be_existence(systems) == 0.0
    report(
        "criterion 6 (Gamma / D~'' / BE existence)",
        worst < 1e-12 and interior_ok and existence_ok,
        f"Gamma residual {worst:.2e}, interior={interior_ok}, existence={existence_ok}",
    )


def test_criterion_7_separability_anchors():
    """Twirled product states reproduce E (N in 4..20) and D (n1 n2 <= 64)."""
    worst_e = 0.0
    for n in range(4, 21):
        system = SpinPair(4, n)
        prod = dense.PureProductState.basis_state(system, -0.5, (n - 1) / 2)
        beta = dense.pi_project(prod)
        expected = geometry.named_points_4xn(n)["E"].beta
        worst_e = max(worst_e, float(np.abs(
            beta.as_array() - expected.as_array()).max()))

    worst_d = 0.0
    for n1 in range(2, 9):
        for n2 in range(n1, 65):
            if n1 * n2 > 64:
                break
            system = SpinPair(n1, n2)
            prod = dense.PureProductState.basis_state(
                system, system.j1.value, system.j2.value
            )
            beta = dense.pi_project(prod)
            top = geometry.alpha_extreme_points(system)[-1]
            expected = alpha_to_beta(top)
            worst_d = max(worst_d, float(np.abs(
                beta.as_array() - expected.as_array()).max()))
    report(
        "criterion 7 (separability anchors)",
        worst_e < 1e-12 and worst_d < 1e-12,
        f"E deviation {worst_e:.2e}, D deviation {worst_d:.2e}",
    )


def test_criterion_8_oracle_equivalence():
    """100 seeded states per system: extraction, Breuer sign, PT spectra."""
    worst = checks.dense_equivalence(
        alpha
        for seed, dims in enumerate(((4, 4), (4, 6), (6, 6), (6, 8)))
        for alpha in random_invariant_states(SpinPair(*dims), 100, seed=100 + seed))
    report(
        "criterion 8 (dense oracle equivalence)",
        worst < 1e-10,
        f"extract/spectra/signs {worst:.2e}",
    )


def test_criterion_9_region_shrinkage():
    """Fractions strictly decrease with n2 and are grid-stable within 0.02."""
    at_200 = [geometry.be_region_fraction(SpinPair(6, n2), 200) for n2 in (6, 8, 14)]
    decreasing = at_200[0] > at_200[1] > at_200[2] > 0
    stable = True
    drift = 0.0
    for n2 in (6, 8, 14):
        f100 = geometry.be_region_fraction(SpinPair(6, n2), 100)
        f400 = geometry.be_region_fraction(SpinPair(6, n2), 400)
        drift = max(drift, abs(f400 - f100))
        stable &= abs(f400 - f100) < 0.02
    report(
        "criterion 9 (region shrinkage)",
        decreasing and stable,
        f"fractions@200 {[f'{f:.5f}' for f in at_200]}, refinement drift {drift:.4f}",
    )
