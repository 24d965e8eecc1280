"""Radial Toeplitz operators on the Fock space: eigenvalue sequences and their synthesis.

A bounded radial symbol g on [0, oo) induces a Toeplitz operator that is
diagonal on the normalized monomial basis; this package computes the diagonal
(the eigenvalue sequence), analyzes sequences under the sqrt-distance on
indices, and constructs Laguerre-Gaussian symbols whose eigenvalue sequences
approximate prescribed convergent targets with a certified uniform error.
"""

from .approx import (
    ApproximationPlan,
    InsufficientDataError,
    VerifyReport,
    plan_c0,
    plan_convergent,
    plan_finite,
    plan_from_json,
    plan_to_json,
    verify_plan,
)
from .eigenvalues import (
    EigenSeq,
    Eigenvalue,
    QuadConfig,
    closed_form_sequence,
    gamma_quadrature,
    gamma_sequence,
    has_closed_form,
    shifted_gamma_residual,
)
from .laguerre import laguerre_eval
from .seqspace import (
    LimitTail,
    SeqGenerator,
    SeqWindow,
    UnknownTail,
    ZeroTail,
    lipschitz_seminorm,
    modulus_of_continuity,
    shift_difference_sup,
    sqrt_dist,
    target_from_json,
    target_to_json,
    vp_smooth,
)
from .symbols import (
    CallableSymbol,
    LaguerreCombo,
    Symbol,
    basic_symbol,
    combo_symbol,
    eval_symbol,
    sup_estimate,
    symbol_from_json,
    symbol_to_json,
    with_limit_offset,
)

__version__ = "0.10.17"
