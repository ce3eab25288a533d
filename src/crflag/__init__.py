"""Exact CR geometry of real-form orbits in complex flag manifolds.

The package decides, from purely combinatorial input (a simple type, a
parabolic subalgebra given by simple roots, and a root-lattice
involution), whether the corresponding orbit is open, totally real, or
genuinely CR; its order of finite nondegeneracy or a holomorphic
degeneracy witness; and its minimality.  A Chevalley-basis realization
with exact integer structure constants re-derives the same answers by
rational linear algebra and is used as a cross-check.
"""

from .cralgebra import (
    DEGENERATE,
    ORBIT_CR,
    ORBIT_OPEN,
    ORBIT_TOTALLY_REAL,
    CRAlgebraData,
    CaseResult,
    analyze,
    evaluate,
    filtration,
    holomorphic_degeneracy_witness,
    is_minimal,
)
from .chevalley import (
    ChevalleyAlgebra,
    Subspace,
    build_chevalley,
    cross_check,
    jacobi_check,
    levi_tensor_kernel,
    oracle_filtration,
    oracle_minimality,
    subspace_from_rootset,
)
from .involution import (
    InvolutionData,
    InvolutionError,
    cayley_update,
    enumerate_cayley_involutions,
    identity_involution,
    involution_from_matrix,
    strongly_orthogonal,
)
from .parabolic import (
    NotMaximal,
    ParabolicData,
    c_of_q,
    parabolic_from_subset,
)
from .roots import (
    InvariantViolation,
    Root,
    RootSystem,
    UnknownRootSystem,
    build_root_system,
    format_root,
    highest_root,
    pairing,
    parse_root,
)
from .survey import SurveyRow, TheoremViolation, run_survey

__all__ = [
    # cralgebra
    "CRAlgebraData", "CaseResult", "DEGENERATE", "ORBIT_CR", "ORBIT_OPEN",
    "ORBIT_TOTALLY_REAL", "analyze", "evaluate", "filtration", "holomorphic_degeneracy_witness",
    "is_minimal",
    # chevalley
    "ChevalleyAlgebra", "Subspace", "build_chevalley", "cross_check", "jacobi_check",
    "levi_tensor_kernel", "oracle_filtration", "oracle_minimality", "subspace_from_rootset",
    # involution
    "InvolutionData", "InvolutionError", "cayley_update", "enumerate_cayley_involutions",
    "identity_involution", "involution_from_matrix", "strongly_orthogonal",
    # parabolic
    "NotMaximal", "ParabolicData", "c_of_q", "parabolic_from_subset",
    # roots
    "InvariantViolation", "Root", "RootSystem", "UnknownRootSystem", "build_root_system",
    "format_root", "highest_root", "pairing", "parse_root",
    # survey
    "SurveyRow", "TheoremViolation", "run_survey",
]
