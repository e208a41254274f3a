"""Exact counting of quiver representations over truncated polynomial rings.

The package computes higher-depth toric Kac polynomials by independent
symbolic routes, cross-checks them against exact orbit and fiber counts
over small finite rings, and verifies the plethystic, generic-fiber, asymptotic
and positivity identities tying the counts to quiver moment maps.
"""

from .laurent import LaurentPoly, RatFunc
from .series import TSeries
from .plethysm import adams, pleth_exp, pleth_log
from .quiver import Quiver, ValuedTree
from .oring import DEFAULT_GUARD, GuardError, group_order_gl
from .toric import (
    asymptotic_kac,
    asymptotic_moment,
    toric_kac_chain,
    toric_orbit_count,
    tree_stratum_census,
)
from .srcomplex import (
    OrderComplex,
    hilbert_specialized,
    lex_shelling,
    order_complex,
    positivity_certificate,
    verify_hilbert_identity,
)
from .moment import (
    e_series_check,
    is_generic,
    kac_polynomial,
    moment_fiber_count,
    verify_exp_identity,
    verify_generic_fiber,
)
from .rank import (
    closed_form_rank2,
    closed_form_rank3,
    moment_total,
    rank2_class_sums,
    rank3_class_sums,
)

__version__ = "0.1.0"

__all__ = [
    "LaurentPoly",
    "RatFunc",
    "TSeries",
    "adams",
    "pleth_exp",
    "pleth_log",
    "Quiver",
    "ValuedTree",
    "DEFAULT_GUARD",
    "GuardError",
    "group_order_gl",
    "asymptotic_kac",
    "asymptotic_moment",
    "toric_kac_chain",
    "toric_orbit_count",
    "tree_stratum_census",
    "OrderComplex",
    "hilbert_specialized",
    "lex_shelling",
    "order_complex",
    "positivity_certificate",
    "verify_hilbert_identity",
    "e_series_check",
    "is_generic",
    "kac_polynomial",
    "moment_fiber_count",
    "verify_exp_identity",
    "verify_generic_fiber",
    "closed_form_rank2",
    "closed_form_rank3",
    "moment_total",
    "rank2_class_sums",
    "rank3_class_sums",
    "__version__",
]
