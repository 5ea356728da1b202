"""Geometric quantum discord of two-qubit states.

Three independent routes to the same quantity: the closed-form Bloch
computation, exact simulation of the multi-copy singlet-projector
measurement scheme, and finite-shot Monte-Carlo simulation of that scheme,
plus a state-tomography baseline for resource comparison.

`import gqdkit` loads no submodule (and so no numpy): a public name's first
access imports the submodule that defines it (PEP 562).
"""

import importlib

# each public name by the submodule that defines it
_SOURCES = {
    "contraction": "OutcomeDistribution build_u build_v expect_layout "
    "expect_layout_dense_oracle joint_distribution pauli_exchange_sum",
    "errors": "NumericalContractError StateValidationError",
    "estimator": "MomentAuditReport MomentTriple OutcomeVector eigenvalues_from_moments estimate_gqd "
    "moments_from_outcomes outcomes_exact verify_moment_formulas",
    "gqd_core": "GqdEstimate KMatrix gqd_by_minimization gqd_exact k_matrix",
    "pairing": "PairingLayout PairOp Setting render_layout settings standard_layouts",
    "qst_baseline": "ResourceReport qst_estimate resource_report",
    "statekit": "BlochForm TwoQubitState decompose make_family random_state state_from_dict "
    "state_from_json",
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # any other name, a submodule's too, is missing, so `from gqdkit import cli` imports the submodule
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
