"""Exact arithmetic for two-parameter companion sequences.

The package computes the pair of sequences attached to the recurrence
X_r = p X_{r-1} - q X_{r-2} (seeds 0, 1 and 2, p), the characteristic
polynomials of their n-th powers, Gaussian and generalized binomial
coefficients, and runs exact identity sweeps over parameter grids. All
arithmetic is integer and Fraction based; nothing is floating point.
"""

from .binomials import (
    HomogeneousBiPoly,
    bivariate_F,
    cyclotomic_exponent,
    cyclotomic_poly,
    gaussian_binomial,
    gaussian_cyclotomic_factorization,
    generalized_binomial,
    generalized_binomial_quotient,
    generalized_binomial_row,
    homogeneous_f,
)
from .charpoly import (
    FactorizationSignError,
    GaloisClassification,
    GaloisGroup,
    classify_galois,
    fibonacci_factorization,
    phi_coeff_formula,
    phi_product,
    quadratic_factor,
)
from .identities import (
    CheckOutcome,
    Counterexample,
    GridSpec,
    IdentityReport,
    REGISTRY,
    check_cor36,
    check_eq22,
    check_eq24,
    check_eq25_freitag,
    check_eq25_zeitlin,
    check_eq35_shape,
    check_prop34,
    pythagorean_like,
    run_grid,
)
from .numeric import (
    FactorizationIncompleteError,
    SquarefreeDecomposition,
    as_fraction,
    is_rational_square,
    squarefree_decompose,
)
from .poly import InexactDivisionError, Poly
from .quadfield import ContextMismatchError, IrrationalResultError, QuadExt, make_roots
from .sequences import (
    FIBONACCI,
    DegenerateDiscriminantError,
    MulCounter,
    RecurrenceParams,
    SequenceTable,
    check_cubic_recurrence,
    cubic_coefficients,
    fast_pair,
    iter_pair,
    u_binet,
    u_from_w,
    w_binet,
    w_from_u,
)

__version__ = "0.1.0"

__all__ = [
    "CheckOutcome",
    "ContextMismatchError",
    "Counterexample",
    "DegenerateDiscriminantError",
    "FIBONACCI",
    "FactorizationIncompleteError",
    "FactorizationSignError",
    "GaloisClassification",
    "GaloisGroup",
    "GridSpec",
    "HomogeneousBiPoly",
    "IdentityReport",
    "InexactDivisionError",
    "IrrationalResultError",
    "MulCounter",
    "Poly",
    "QuadExt",
    "REGISTRY",
    "RecurrenceParams",
    "SequenceTable",
    "SquarefreeDecomposition",
    "as_fraction",
    "bivariate_F",
    "check_cor36",
    "check_cubic_recurrence",
    "check_eq22",
    "check_eq24",
    "check_eq25_freitag",
    "check_eq25_zeitlin",
    "check_eq35_shape",
    "check_prop34",
    "classify_galois",
    "cubic_coefficients",
    "cyclotomic_exponent",
    "cyclotomic_poly",
    "fast_pair",
    "fibonacci_factorization",
    "gaussian_binomial",
    "gaussian_cyclotomic_factorization",
    "generalized_binomial",
    "generalized_binomial_quotient",
    "generalized_binomial_row",
    "homogeneous_f",
    "is_rational_square",
    "iter_pair",
    "make_roots",
    "phi_coeff_formula",
    "phi_product",
    "pythagorean_like",
    "quadratic_factor",
    "run_grid",
    "squarefree_decompose",
    "u_binet",
    "u_from_w",
    "w_binet",
    "w_from_u",
]
