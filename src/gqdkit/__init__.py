"""Geometric quantum discord of two-qubit states.

Three independent routes to the same quantity: the closed-form Bloch
computation, exact simulation of the multi-copy singlet-projector
measurement scheme, and finite-shot Monte-Carlo simulation of that scheme,
plus a state-tomography baseline for resource comparison.
"""

from .contraction import (
    OutcomeDistribution,
    build_u,
    build_v,
    expect_layout,
    expect_layout_dense_oracle,
    joint_distribution,
    pauli_exchange_sum,
)
from .errors import NumericalContractError, StateValidationError
from .estimator import (
    MomentAuditReport,
    MomentTriple,
    OutcomeVector,
    eigenvalues_from_moments,
    estimate_gqd,
    moments_from_outcomes,
    outcomes_exact,
    permute_outcomes,
    verify_moment_formulas,
)
from .gqd_core import GqdEstimate, KMatrix, gqd_by_minimization, gqd_exact, k_matrix
from .pairing import (
    PairingLayout,
    PairOp,
    Setting,
    render_layout,
    settings,
    standard_layouts,
)
from .qst_baseline import ResourceReport, qst_estimate, resource_report
from .statekit import (
    BlochForm,
    TwoQubitState,
    decompose,
    make_family,
    random_state,
    state_from_dict,
    state_from_json,
)

__version__ = "0.1.0"

__all__ = [
    "BlochForm",
    "GqdEstimate",
    "KMatrix",
    "MomentAuditReport",
    "MomentTriple",
    "NumericalContractError",
    "OutcomeDistribution",
    "OutcomeVector",
    "PairOp",
    "PairingLayout",
    "ResourceReport",
    "Setting",
    "StateValidationError",
    "TwoQubitState",
    "build_u",
    "build_v",
    "decompose",
    "eigenvalues_from_moments",
    "estimate_gqd",
    "expect_layout",
    "expect_layout_dense_oracle",
    "gqd_by_minimization",
    "gqd_exact",
    "joint_distribution",
    "k_matrix",
    "make_family",
    "moments_from_outcomes",
    "outcomes_exact",
    "pauli_exchange_sum",
    "permute_outcomes",
    "qst_estimate",
    "random_state",
    "render_layout",
    "resource_report",
    "settings",
    "standard_layouts",
    "state_from_dict",
    "state_from_json",
    "verify_moment_formulas",
]
