"""Mod-2 gradings in bordered Floer homology, decategorification to
Donaldson's exterior-algebra TQFT, and classical knot invariants.

The package namespace is lazy (PEP 562): ``borderedfloer.basis`` or
``borderedfloer.strands`` imports its submodule on first access, so a
program loads only the modules it uses.
"""

from importlib import import_module as _import_module

_SUBMODULES = ("decat", "errors", "gradings", "heegaard", "hochschild",
               "knots", "laurent", "pmc", "strands", "structures")

# name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("PointedMatchedCircle", "connected_sum", "genus1",
                     "genus2_split", "reverse", "trefoil_pmc", "validate"),
                    "pmc"),
    **dict.fromkeys(("StrandsBasisElement", "StrandsElement", "basis",
                     "differential", "idempotent", "multiply",
                     "reeb_element"), "strands"),
    **dict.fromkeys(("BorderedPartialPermutation", "GradingGroupElement",
                     "refinement", "sum_permutations",
                     "verify_grading_equivalence"), "gradings"),
    **dict.fromkeys(("BorderedDiagram", "DiagramGenerator",
                     "enumerate_generators"), "heegaard"),
    **dict.fromkeys(("ModuleGenerator", "Structure", "TypeAStructure",
                     "TypeDAStructure", "TypeDDStructure", "TypeDStructure",
                     "box_tensor", "box_tensor_bimodules", "direct_sum",
                     "identity_aa", "shift"), "structures"),
    **dict.fromkeys(("F2ChainComplex", "graded_euler",
                     "hochschild_generators"), "hochschild"),
    **dict.fromkeys(("ExteriorElement", "GradedEndomorphism", "graded_trace",
                     "hodge_eta", "k0_of_da", "plucker", "psi_K0",
                     "tqft_compose", "upsilon"), "decat"),
    **dict.fromkeys(("Presentation", "intersection_from_algebra",
                     "intersection_from_pmc", "kernel_basis_from_plucker",
                     "presentation_to_alexander", "recover_seifert"),
                    "knots"),
    "LaurentPolynomial": "laurent",
}

__all__ = [*_EXPORTS, *_SUBMODULES]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        value = getattr(__getattr__(_EXPORTS[name]), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
