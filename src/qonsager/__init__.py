"""Exact symbolic verification engine for the shift automorphism of the
q-Onsager algebra: quantum adjoint calculus, certified truncation, oriented
rewriting, and exact matrix cross-checks, all over the rational-function
field in q."""

from .qcoeff import (
    LaurentPoly,
    NumericQ,
    RationalFunctionQ,
    SYMBOLIC,
    SymbolicQ,
    qint,
)
from .freealg import Alphabet, NcPoly, ncpoly_from_json, ncpoly_to_json
from .adjoint import (
    FORWARD,
    INVERSE,
    ImageCache,
    apply_ad,
    apply_bad,
    apply_badprod,
    apply_S,
    closed_form_sum,
    truncated_sum,
)
from .rewrite import MonomialOrder, RewriteRule, RewriteSystem, make_system
from .identities import IDENTITIES, run_identity_suite, verify_identity
from .onsager import (
    OnsagerContext,
    higher_dg_check,
    homomorphism_spotcheck,
    lusztig,
    onsager_context,
)
from .currentalg import AqContext, aq_system, verify_S_images, verify_generator_class
from .matrices import ExactMatrix
from .repn import (
    SpectralData,
    TDPair,
    check_dg_spectral,
    higher_dg_matrix,
    import_td_pair,
    matrix_lusztig,
    random_a1_matrix,
    scalar_S_ratio,
    search_td_pair,
    spectral_data,
    td_pair_d1,
    theta_sequence,
    twist_module,
    verify_conjugation,
)
from .report import ENGINE_VERSION, Report

__version__ = ENGINE_VERSION
