"""Workbench for truncation-defined factorization systems on bounded
complexes of quiver representations over prime fields."""

from .complexes import (
    ChainMap,
    CommutingSquare,
    Complex,
    compose,
    cone,
    fib,
    hom_complex,
    homology_dims,
    homotopic,
    homotopy_pullback,
    homotopy_pushout,
    identity_map,
    is_pullout,
    is_quasi_iso,
    random_chain_map,
    random_complex,
    shift,
    zero_complex,
    zero_map,
)
from .document import Document, DocumentError, document_of, parse_document, serialize_document
from .factorization import (
    Factorization,
    NormalityReport,
    factor,
    in_E,
    in_M,
    is_orthogonal,
    normality_report,
    roundtrip_check,
    sator_check,
    semiexact_check,
    solve_lifting,
    three_for_two_check,
)
from .linalg import Mat, PrimeField
from .postnikov import BoundWindow, Tower, boundedness_window, postnikov_tower, verify_tower
from .quiver import Quiver, QuiverRep, RepMap
from .suite import Report, SuiteConfig, replay_case, run_suite
from .tstruct import (
    HeartMorphism,
    TStructure,
    heart_cokernel,
    heart_kernel,
    truncate_ge,
    truncate_lt,
)

__version__ = "0.1.0"
