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
    delta_error,
    plan_c0,
    plan_convergent,
    plan_finite,
    plan_from_json,
    plan_to_json,
    verify_plan,
)
from .eigenvalues import (
    ClosedForm,
    EigenSeq,
    QuadConfig,
    QuadResult,
    Quadrature,
    averaging_operator,
    closed_form_sequence,
    gamma_closed_form,
    gamma_closed_form_float,
    gamma_combo_closed_form,
    gamma_quadrature,
    gamma_sequence,
    has_closed_form,
    shifted_gamma_residual,
)
from .laguerre import (
    DEFAULT_DEGREE_CAP,
    DegreeCapError,
    LaguerrePoly,
    laguerre_coeffs,
    laguerre_eval,
    laguerre_moment,
    laguerre_moment_signed_log,
)
from .seqspace import (
    LimitTail,
    SeqGenerator,
    SeqWindow,
    UnknownTail,
    ZeroTail,
    lipschitz_seminorm,
    min_index_lower_bound,
    modulus_of_continuity,
    shift_difference_sup,
    shift_left,
    shift_right,
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

__version__ = "0.1.0"
