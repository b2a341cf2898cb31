"""Mod-2 gradings in bordered Floer homology, decategorification to
Donaldson's exterior-algebra TQFT, and classical knot invariants."""

from .pmc import (PointedMatchedCircle, connected_sum, genus1, genus2_split,
                  reverse, trefoil_pmc, validate)
from .strands import (StrandsBasisElement, StrandsElement, basis, differential,
                      idempotent, multiply, reeb_element)
from .gradings import (BorderedPartialPermutation, GradingGroupElement,
                       refinement, sum_permutations,
                       verify_grading_equivalence)
from .heegaard import BorderedDiagram, DiagramGenerator, enumerate_generators
from .structures import (ModuleGenerator, Structure, TypeAStructure,
                         TypeDAStructure, TypeDDStructure, TypeDStructure,
                         box_tensor, box_tensor_bimodules, direct_sum,
                         identity_aa, shift)
from .hochschild import (F2ChainComplex, graded_euler, hochschild_generators)
from .decat import (ExteriorElement, GradedEndomorphism, graded_trace,
                    hodge_eta, k0_of_da, plucker, psi_K0, tqft_compose,
                    upsilon)
from .knots import (Presentation, intersection_from_algebra,
                    intersection_from_pmc, kernel_basis_from_plucker,
                    presentation_to_alexander, recover_seifert)
from .laurent import LaurentPolynomial

__version__ = "0.1.0"
