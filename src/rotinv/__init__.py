"""Rotationally invariant bipartite states and bound-entanglement detection.

A C^N1 x C^N2 state commuting with all product rotations D(R) (x) D(R) is
fixed by N1 real numbers.  This package provides the two standard
coordinate systems for such states (alpha over total-angular-momentum
projectors, beta over invariant tensor operators), exact Wigner-symbol
machinery for the basis change between them, partial time reversal and the
Breuer positive map as entanglement tests, the closed-form state-space
geometry for 4 x N systems, and a dense-matrix oracle that cross-validates
every parameter-space operation on small systems.
"""

from .radical import ExactRadical
from .wigner import (
    clebsch_gordan,
    six_j,
    three_j,
    verify_orthogonality_sum,
    verify_recoupling_sum,
)
from .states import (
    AlphaVector,
    BetaVector,
    LMatrix,
    SpinPair,
    StateCheck,
    Verdict,
    alpha_to_beta,
    beta_to_alpha,
    build_l_matrix,
    check_state,
    maximally_mixed,
    spectrum_from_alpha,
    vector_from_json_dict,
)
from .maps import (
    BreuerNotApplicableError,
    Classification,
    breuer_detects,
    breuer_map,
    classify,
    is_ppt,
    partial_time_reversal,
    symmetrize,
)
from .dense import PureProductState, pi_project, tensor_matrix_element
from .geometry import (
    Hyperplane,
    NamedPoint,
    alpha_extreme_points,
    be_region_fraction,
    d_tilde_point,
    explicit_l_matrix_4xn,
    find_detected_invariant_state,
    gamma_hyperplane,
    minimal_separable_membership_4xn,
    named_points_4xn,
    segment_detection_threshold,
    segment_state_4xn,
    theta1_polytope,
)

__version__ = "0.1.0"
