"""Exact construction and verification of exceptional Legendre families.

Multi-parameter deformations of the Legendre Sturm-Liouville problem are
built in exact rational arithmetic, two independent ways (a polynomial-matrix
determinant and a chain of confluent Darboux steps), and every algebraic
identity they satisfy (eigenvalue relations, operator factorizations, degree
laws, orthogonality norms, admissibility bounds) is checkable with zero
numerical tolerance.
"""

from .admissibility import (
    InadmissibleKeyError,
    admissibility_formula,
    admissibility_record,
    norm_of,
    orthogonality_check,
    root_count,
)
from .legendre import classical_norm, legendre_poly, overlap_R
from .operators import (
    eigenvalue,
    verify_eigen,
    verify_factorization,
    verify_intertwining,
)
from .polyring import (
    InexactDivisionError,
    NEG_INFINITY,
    Poly,
    Rat,
    parse_rat,
    poly_dot,
    poly_gcd,
    rat_str,
)
from .ratfun import PoleError, RatFun
from .xfamily import (
    FamilyKey,
    PolyMatrix,
    RecursiveFamily,
    XFamily,
    build_matrix,
    canonicalize,
    exceptional_poly,
    expected_degree,
    family,
    missing_degrees,
    recursive_family,
    tau,
)

__version__ = "0.1.0"

__all__ = [
    "FamilyKey",
    "InadmissibleKeyError",
    "InexactDivisionError",
    "NEG_INFINITY",
    "PoleError",
    "Poly",
    "PolyMatrix",
    "Rat",
    "RatFun",
    "RecursiveFamily",
    "XFamily",
    "admissibility_formula",
    "admissibility_record",
    "build_matrix",
    "canonicalize",
    "classical_norm",
    "eigenvalue",
    "exceptional_poly",
    "expected_degree",
    "family",
    "legendre_poly",
    "missing_degrees",
    "norm_of",
    "orthogonality_check",
    "overlap_R",
    "parse_rat",
    "poly_dot",
    "poly_gcd",
    "rat_str",
    "recursive_family",
    "root_count",
    "tau",
    "verify_eigen",
    "verify_factorization",
    "verify_intertwining",
]
