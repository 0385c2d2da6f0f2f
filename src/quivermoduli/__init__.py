"""Exact Euler characteristics and Poincare polynomials of moduli spaces of
stable quiver representations, computed by four independent algorithms that
are cross-validated against each other:

* the Harder-Narasimhan recursion in a localized Grothendieck ring,
* the degeneration formula over refinements with stable-tree counting,
* a recursive tropical curve count, and
* ordered factorization in the tropical vertex group.

All arithmetic is exact: every polynomial is in Z[L] (``int`` coefficients
only), a rational function keeps its rational content once as an integer
``scale``, and rational scalars are ``fractions.Fraction``; there is no
floating point anywhere.
"""

import sys

from .quiver import (
    Quiver,
    Refinement,
    Stability,
    antisymmetrized_form,
    check_quiver,
    euler_form,
    hat_quiver,
    n_support,
    slope,
)
from .ratfunc import Poly, RationalFunction
from .symfunc import (
    Partition,
    SymPoly,
    e_lambda_to_p,
    e_to_p,
    lemma3_identity,
    p_to_e,
    principal_specialize,
)
from .motive import (
    MotiveClass,
    dual_mps_check,
    euler_char,
    gl_class,
    gm_class,
    hn_sst_class,
    hn_types,
    motivic_mps_check,
    partition_form_check,
    poincare,
    proj_class,
)
from .localization import (
    GluedTuple,
    SpanningTree,
    admissible_decompositions,
    chi_trees,
    dd1_extensions,
    dd1_family,
    glue,
    spanning_trees,
    stability_weight,
)
from .tropical import (
    degeneration_total,
    mps_euler,
    n_trop,
    ramification_factor,
    refinements,
    weight_vector_of,
)
from .vertex import (
    OrderedFactorization,
    TruncatedElement,
    WallAutomorphism,
    extract_n_trop,
    factorize,
    ks_operators,
    n_trop_via_factorization,
)

__version__ = "0.1.0"


def clear_memos():
    """Empty every memo of the package, so that the next call runs from
    cold memos, as in a fresh process.  Every memo is a ``functools.cache``
    held by one of the package's modules."""
    for name, module in list(sys.modules.items()):
        if name == __name__ or name.startswith(__name__ + "."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
