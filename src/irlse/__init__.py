"""Feasible reward sets for tabular inverse reinforcement learning with
sub-optimal experts: membership tests, polytope geometry, Hausdorff
distances, and uniform-sampling estimation with finite-sample error bounds.
"""
from .estimation import (
    ComplexityConstants,
    ConcentrationRadii,
    Dataset,
    ErrorBound,
    GenerativeModel,
    complexity_constants,
    concentration_radii,
    empirical_problem,
    error_bound,
    error_bound_for,
    min_max_probability,
    required_m,
    support_min_probability,
    us_irl_se,
    validity_thresholds,
)
from .feasible import (
    CanonicalParams,
    ConstraintMode,
    ExpertSpec,
    IrlSeProblem,
    MembershipReport,
    RewardPolytope,
    ZetaCaps,
    membership_implicit,
    params_from_reward,
    polytope_h_rep,
    reward_from_params,
    volume_upper_bounds,
    zeta_caps,
)
from .hausdorff import (
    DimensionCapError,
    EmptyPolytopeError,
    HausdorffMode,
    HausdorffReport,
    InfeasiblePointError,
    LinearProgram,
    LpResult,
    SimplexError,
    directed_distance,
    enumerate_vertices,
    hausdorff_distance,
    lp_solve,
    sample_support_points,
)
from .instances import (
    example_fig1,
    lb_chain,
    lb_subopt,
    lb_tree,
    random_problem,
)
from .mdp import (
    MdpNoReward,
    Policy,
    RewardFunction,
    apply_policy,
    apply_transition,
    mask_unsupported,
    occupancy_matrix,
    policy_transition_matrix,
    value_functions,
)
from .problem_io import (
    ProblemFormatError,
    problem_from_dict,
    problem_to_dict,
    read_problem,
    read_reward,
    write_problem,
)

__version__ = "0.1.0"
