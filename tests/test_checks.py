"""The verification checks shared by `rotinv verify` and the acceptance suite."""

import contextlib
import io
import math
from collections import Counter
from fractions import Fraction
from itertools import groupby

import numpy as np
import pytest

from rotinv import checks, cli, dense, geometry, maps, wigner
from rotinv.states import DEFAULT_TOL, LMatrix, SpinPair, alpha_to_beta, build_l_matrix


@pytest.mark.parametrize("name", checks.__all__)
def test_no_cases_fails_every_bound(name):
    assert getattr(checks, name)([]) == math.inf


def test_orthogonality_sums_are_exact():
    assert checks.orthogonality_sums([(1, 1, 1, 1, 0, 0), (1, 1, 1, 1, 0, 2)]) == 0.0
    # a = 1, d = 1/2 leaves no admissible K, so the sum is 0 where the delta is 1
    assert checks.orthogonality_sums([(1, 1, 1, 0.5, 0, 0)]) == 1.0


def test_a_six_j_off_by_one_part_in_1e20_fails_both_sums(monkeypatch):
    # as in test_explicit_l_4xn_is_exact: a factor 1 + 1e-20 on one symbol,
    # which float64 cannot see, still leaves a nonzero residual
    six_j = wigner._six_j

    def off(target):
        def patched(*doubled):
            value = six_j(*doubled)
            return value.scale(Fraction(10 ** 20 + 1, 10 ** 20)) if doubled == target else value
        return patched

    cases, system = [(1, 1, 1, 1, 0, 0), (1, 1, 1, 1, 0, 2)], SpinPair(4, 6)
    assert checks.orthogonality_sums(cases) == checks.appendix_sum([system]) == 0.0
    monkeypatch.setattr(wigner, "_six_j", off((2, 2, 0, 2, 2, 2)))
    assert checks.orthogonality_sums(cases[:1]) > 0.0
    assert checks.orthogonality_sums(cases[1:]) > 0.0
    monkeypatch.setattr(wigner, "_six_j", off((3, 5, 2, 5, 3, 0)))  # {3/2 5/2 1; 5/2 3/2 0}
    assert checks.appendix_sum([system]) > 0.0


def test_each_verify_evaluates_every_sum_and_oracle_stack(monkeypatch):
    """Nothing is kept between calls: two in-process verify --deep runs of one seed
    each take all 605 orthogonality sums, all 56 appendix sums and four oracle stacks."""
    counts = Counter()

    def counted(name, function):
        def wrapper(*args):
            counts[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(wigner, "_orthogonality_terms",
                        counted("orthogonality", wigner._orthogonality_terms))
    # checks takes one exact_sum per orthogonality case and one per appendix system
    monkeypatch.setattr(checks, "exact_sum", counted("exact_sum", checks.exact_sum))
    monkeypatch.setattr(dense, "from_alpha", counted("oracle stack", dense.from_alpha))
    for _ in range(2):
        counts.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--deep", "--seed", "3"]) == 0
        assert counts == {"orthogonality": 605, "exact_sum": 605 + 56, "oracle stack": 4}


def test_l_orthogonality_sees_a_perturbed_entry():
    l = build_l_matrix(SpinPair(4, 4)).values.copy()
    assert checks.l_orthogonality([l]) < 1e-15
    l[1, 1] += 1e-6
    assert 1e-6 < checks.l_orthogonality([l]) < 3e-6


def test_explicit_l_4xn_is_exact(monkeypatch):
    # the closed form equals the built L entry by entry; an entry off by a
    # factor 1 + 1e-20, which float64 cannot see, still fails the check
    assert checks.explicit_l_4xn(range(4, 21)) == 0.0
    closed = geometry.explicit_l_matrix_4xn(7)
    rows = [list(row) for row in closed.exact]
    rows[1][1] = rows[1][1].scale(Fraction(10 ** 20 + 1, 10 ** 20))
    off = LMatrix(closed.system, tuple(map(tuple, rows)))
    assert np.array_equal(off.values, closed.values)
    monkeypatch.setattr(geometry, "explicit_l_matrix_4xn", lambda n: off)
    assert checks.explicit_l_4xn([7]) == math.inf


def test_appendix_sum_is_exact():
    # the identity holds for even n1 (2K runs over the even ranks); every sum
    # equals -1/n2 exactly
    systems = [SpinPair(n1, n2) for n1 in range(2, 11, 2) for n2 in range(n1, n1 + 5)]
    assert checks.appendix_sum(systems) == 0.0
    # for odd n1 the sum is +1/n2, and the residual is the float distance
    assert checks.appendix_sum([SpinPair(3, 3)]) == pytest.approx(2 / 3, rel=1e-15)


def test_dense_equivalence_sees_a_negated_breuer_image(monkeypatch):
    # the oracle check decides the Breuer sign from eigenvalues alone; a wrong
    # sign on the dense side must still fail it
    assert checks.dense_equivalence(cli._seeded_states(7)) < 1e-10
    phi1 = dense._phi1  # the Breuer image's entries, gathered as the check reads them
    monkeypatch.setattr(dense, "_phi1", lambda *args: -phi1(*args))
    assert checks.dense_equivalence(cli._seeded_states(7)) == 1.0


@pytest.mark.parametrize("wrong", [lambda index: index, lambda index: index.T],
                         ids=["identity", "full-transpose"])
def test_dense_equivalence_sees_a_wrong_partial_transpose(wrong, monkeypatch):
    # the partial transpose's table, which the theta_1 and Breuer gathers read too
    monkeypatch.setattr(dense, "_transposed_source", lambda system: wrong(
        np.arange(system.dim ** 2).reshape(system.dim, system.dim)))
    assert checks.dense_equivalence(cli._seeded_states(7)) == 1.0


def test_dense_equivalence_sees_a_negated_theta1_image(monkeypatch):
    # the oracle check decides PPT from the theta_1 image's eigenvalues alone; a wrong
    # sign on the dense side must fail it
    time_reversed = dense._time_reversed_1  # the theta_1 entries, gathered as the check reads them
    monkeypatch.setattr(dense, "_time_reversed_1", lambda *args: -time_reversed(*args))
    assert checks.dense_equivalence(cli._seeded_states(7)) == 1.0


def test_dense_equivalence_holds_is_ppt_to_the_dense_route(monkeypatch):
    # a parameter-side PPT fault: every state reads PPT, and the seeded NPT states disagree
    # with the theta_1 image's eigenvalues
    assert not all(maps.is_ppt(alpha_to_beta(alpha)) for alpha in cli._seeded_states(7))
    monkeypatch.setattr(maps, "_theta1_margin", lambda plan, c: 1.0)
    assert checks.dense_equivalence(cli._seeded_states(7)) == 1.0


def test_dense_equivalence_folds_in_an_entry_off_the_blocks(monkeypatch):
    # an entry of rho that links m1 + m2 = j1 + j2 to j1 + j2 - 1 breaks conservation; the
    # block spectra leave it out, so it comes back as the residual itself (1e-9 stays
    # under extract_beta's 1e-8 invariance bound)
    assemble = dense.from_alpha

    def leaky(alphas):
        rho = assemble(alphas)
        rho[..., 0, 1] += 1e-9
        rho[..., 1, 0] += 1e-9
        return rho
    monkeypatch.setattr(dense, "from_alpha", leaky)
    assert checks.dense_equivalence(cli._seeded_states(7)) == 1e-9


def test_eigenvalue_sign_agrees_with_min_eigenvalue():
    for alpha in cli._seeded_states(7):
        image = dense.breuer_phi1(dense.from_alpha(alpha), alpha.system)
        min_eig, _ = dense.min_eigenvalue(image)
        assert (dense.spectrum(image)[0] < -DEFAULT_TOL) == (min_eig < -DEFAULT_TOL)


def test_float64_breuer_sign_agrees_with_the_complex_one():
    # dense_equivalence reads the Breuer sign off the real part of rho; on the
    # seeded states both spectra keep their smallest eigenvalue well clear of the cut
    for seed in range(20):
        for system, group in groupby(cli._seeded_states(seed), key=lambda a: a.system):
            rho = dense.from_alpha(list(group))
            low = dense.spectrum(dense.breuer_phi1(rho.real, system))[:, 0]
            low_complex = dense.spectrum(dense.breuer_phi1(rho, system))[:, 0]
            assert np.array_equal(low < -DEFAULT_TOL, low_complex < -DEFAULT_TOL), (seed, system)
            assert np.abs(np.concatenate([low, low_complex]) + DEFAULT_TOL).min() >= 1e-6, \
                (seed, system)


def test_dense_equivalence_on_interleaved_systems_is_the_max_of_single_states():
    # consecutive alphas of one system share a stack; an interleaved order
    # splits each system into several stacks and must not move any residual
    alphas = list(cli._seeded_states(7))
    by_system = [alphas[i:i + 25] for i in range(0, len(alphas), 25)]
    interleaved = [a for i in range(0, 25, 3) for group in by_system for a in group[i:i + 3]]
    assert len(interleaved) == len(alphas)
    single = max(checks.dense_equivalence([a]) for a in alphas)
    assert checks.dense_equivalence(interleaved) == single
    assert checks.dense_equivalence(alphas) == single


def test_segment_bisection_ends_where_sixty_steps_end(monkeypatch):
    """The bisection tests no point twice and ends on the bracket of 60 fixed steps."""
    def sixty_steps(n):
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if maps.breuer_detects(geometry.segment_state_4xn(n, mid)):
                hi = mid
            else:
                lo = mid
        return abs(0.5 * (lo + hi) - geometry.segment_detection_threshold(n))

    tested, segment_state_4xn = [], geometry.segment_state_4xn

    def segment_state(n, t):
        tested.append(t)
        return segment_state_4xn(n, t)

    for n in range(4, 61):
        want = sixty_steps(n)
        tested.clear()
        with monkeypatch.context() as patch:
            patch.setattr(checks.geometry, "segment_state_4xn", segment_state)
            assert checks.segment_threshold([n]) == want, n
        assert len(set(tested)) == len(tested) <= 60, n
