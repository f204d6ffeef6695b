"""Exact noise figures and lower bounds for quantum measurements that must
respect an additive conservation law, at desk scale.

The package computes, for finite-dimensional indirect measurement models,
the exact measurement noise, checks the conservation-law and Yanase
residuals and the full uncertainty-relation derivation chain as numerical
identities, and searches over conservation-respecting interactions to probe
how closely the error floors can be approached.

Importing the package loads ``linalg``, ``measurement``, ``bounds`` and
``spin``, which is all that verifying a model needs. The names of the
``oscillator`` and ``optimizer`` modules are exported lazily (PEP 562): the
first lookup of one imports its module and keeps the name here, so later
lookups are plain attribute hits.
"""

__version__ = "0.1.0"

from .linalg import (
    DimensionMismatch,
    Ket,
    Operator,
    PreconditionError,
    StructureError,
    TheoremViolation,
    commutator,
    expectation,
    frobenius_norm,
    identity,
    random_hermitian,
    random_ket,
    random_unitary,
    tensor,
    variance,
)
from .measurement import (
    MeasurementModel,
    OutcomeDistribution,
    bsf_deviation,
    error_probability,
    heisenberg_probe,
    noise,
    noise_operator,
    outcome_distribution,
    sup_noise,
)
from .bounds import (
    BoundReport,
    ConservationPair,
    acl_residual,
    bound_comparison,
    bound_report,
    commutator_identity_residual,
    fundamental_bound,
    optimal_spin_bound,
    spin_bound,
    uncertainty_pair,
    variance_additivity_residual,
    yanase_bound,
    yanase_residual,
)
from .spin import (
    YWModel,
    named_state,
    random_yw_model,
    spin_operators,
    swap_demo_model,
    trivial_demo_model,
    yw_check_bound,
    yw_eps_y,
    yw_error_at_alpha_y,
    yw_sample_model,
)

# name -> module, for the exports imported on first use
_LAZY = {
    **dict.fromkeys((
        "CoherentAmplitudes",
        "FockSpace",
        "coherent_state",
        "fock_cutoff",
        "lowering_operator",
        "m_z_operator",
        "number_operator",
        "oscillator_bound",
        "total_number_operator",
        "two_mode_coherent_state",
    ), "oscillator"),
    **dict.fromkeys((
        "CommutantBasis",
        "OptimizationRun",
        "OptimizerConfig",
        "SweepRow",
        "commutant_basis",
        "conservative_unitary",
        "hermitian_coordinates",
        "numerical_gradient",
        "optimize_noise",
        "oscillator_probe",
        "record_observable",
        "spin_ladder_probe",
        "sweep_probe_size",
    ), "optimizer"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
