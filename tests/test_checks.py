"""The verification checks shared by `rotinv verify` and the acceptance suite."""

import math

import pytest

from rotinv import checks
from rotinv.states import SpinPair, build_l_matrix


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
