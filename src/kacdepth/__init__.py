"""Exact counting of quiver representations over truncated polynomial rings.

The package computes higher-depth toric Kac polynomials by independent
symbolic routes, cross-checks them against exact orbit and fiber counts
over small finite rings, and verifies the plethystic, generic-fiber, asymptotic
and positivity identities tying the counts to quiver moment maps.

Importing the package executes none of its layer modules.  Each layer is
put in ``sys.modules`` (and bound as a package attribute) through
``importlib.util.LazyLoader``, so it is compiled and run on the first access
to one of its attributes; a process compiles only the layers it uses.  The
exported names, and ``__all__`` itself, resolve through the module
``__getattr__`` below.
``cli`` is not registered: ``python -m kacdepth.cli`` must find it unloaded.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

for layer in ("poly", "laurent", "series", "plethysm", "quiver", "oring", "toric", "srcomplex", "moment",
              "rank"):
    spec = find_spec(f"{__name__}.{layer}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = globals()[layer] = module
    spec.loader.exec_module(module)
del layer, spec, module

__version__ = "0.1.0"


def __getattr__(name):
    """Resolve an exported name from its layer module (PEP 562); ``__all__``
    lists the names of every layer and ``__version__``."""
    exports = (
        ("poly", "LaurentPoly"),
        ("laurent", "RatFunc"),
        ("series", "TSeries"),
        ("plethysm", "adams pleth_exp pleth_log"),
        ("quiver", "Quiver ValuedTree"),
        ("oring", "DEFAULT_GUARD GuardError group_order_gl"),
        ("toric", "asymptotic_kac asymptotic_moment toric_kac_chain toric_orbit_count tree_stratum_census"),
        ("srcomplex", "OrderComplex hilbert_specialized lex_shelling order_complex positivity_certificate"
                      " verify_hilbert_identity"),
        ("moment", "e_series_check is_generic kac_polynomial moment_fiber_count verify_exp_identity"
                   " verify_generic_fiber"),
        ("rank", "closed_form_rank2 closed_form_rank3 moment_total rank2_class_sums rank3_class_sums"),
    )
    if name == "__all__":
        return [*" ".join(names for _, names in exports).split(), "__version__"]
    for layer, names in exports:
        if name in names.split():
            return getattr(globals()[layer], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
