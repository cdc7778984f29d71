"""The verification checks shared by `rotinv verify` and the acceptance suite."""

import math
from fractions import Fraction

import numpy as np
import pytest

from rotinv import checks, cli, dense, geometry
from rotinv.states import DEFAULT_TOL, LMatrix, SpinPair, build_l_matrix


@pytest.mark.parametrize("name", checks.__all__)
def test_no_cases_fails_every_bound(name):
    assert getattr(checks, name)([]) == math.inf


def test_orthogonality_sums_are_exact():
    assert checks.orthogonality_sums([(1, 1, 1, 1, 0, 0), (1, 1, 1, 1, 0, 2)]) == 0.0
    # a = 1, d = 1/2 leaves no admissible K, so the sum is 0 where the delta is 1
    assert checks.orthogonality_sums([(1, 1, 1, 0.5, 0, 0)]) == 1.0


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
    breuer_phi1 = dense.breuer_phi1
    monkeypatch.setattr(dense, "breuer_phi1", lambda rho, system: -breuer_phi1(rho, system))
    assert checks.dense_equivalence(cli._seeded_states(7)) == 1.0


def test_eigenvalue_sign_agrees_with_min_eigenvalue():
    for alpha in cli._seeded_states(7):
        image = dense.breuer_phi1(dense.from_alpha(alpha), alpha.system)
        min_eig, _ = dense.min_eigenvalue(image)
        assert (dense.spectrum(image)[0] < -DEFAULT_TOL) == (min_eig < -DEFAULT_TOL)


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
