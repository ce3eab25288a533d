"""Exact CR geometry of real-form orbits in complex flag manifolds.

The package decides, from purely combinatorial input (a simple type, a
parabolic subalgebra given by simple roots, and a root-lattice
involution), whether the corresponding orbit is open, totally real, or
genuinely CR; its order of finite nondegeneracy or a holomorphic
degeneracy witness; and its minimality.  A Chevalley-basis realization
with exact integer structure constants re-derives the same answers by
rational linear algebra and is used as a cross-check.

``import crflag`` loads none of the layer modules.  Each public name is
imported from its defining module on first access (PEP 562), so a
program pays only for the layers it uses: ``crflag.analyze`` loads the
root-combinatoric fast path, and the Chevalley oracle and the survey load
only when one of their names is read.
"""

from importlib import import_module

# each public name, grouped by its defining module
_LAYERS = {
    "cralgebra": (
        "CRAlgebraData", "CaseResult", "DEGENERATE", "ORBIT_CR", "ORBIT_OPEN",
        "ORBIT_TOTALLY_REAL", "analyze", "evaluate", "filtration", "holomorphic_degeneracy_witness",
        "is_minimal",
    ),
    "chevalley": (
        "ChevalleyAlgebra", "Subspace", "build_chevalley", "cross_check", "jacobi_check",
        "levi_tensor_kernel", "oracle_filtration", "oracle_minimality", "subspace_from_rootset",
    ),
    "involution": (
        "InvolutionData", "InvolutionError", "cayley_update", "enumerate_cayley_involutions",
        "identity_involution", "involution_from_matrix", "strongly_orthogonal",
    ),
    "parabolic": ("NotMaximal", "ParabolicData", "c_of_q", "parabolic_from_subset"),
    "roots": (
        "InvariantViolation", "Root", "RootSystem", "UnknownRootSystem", "build_root_system",
        "format_root", "highest_root", "pairing", "parse_root",
    ),
    "survey": ("SurveyRow", "TheoremViolation", "run_survey"),
}
_MODULE_OF = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = [name for names in _LAYERS.values() for name in names]


def __getattr__(name):
    layer = _MODULE_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
