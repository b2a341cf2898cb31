"""Hochschild chain groups of DA bimodules and their graded Euler
characteristics.  A GF(2) chain complex, with its file and its homology,
is `structures.F2ChainComplex`, the structure with no sides; the benchmark
times its homology as ``hochschild.F2ChainComplex``, so it is imported here."""

from __future__ import annotations

from .errors import BasisMismatch, BoundaryMismatch
from .laurent import LaurentPolynomial
from .pmc import reverse
from .structures import F2ChainComplex  # noqa: F401 (see the docstring)


def hochschild_generators(n):
    """The Hochschild chains of a DA structure over (-Z, Z): its generators
    whose left and right idempotents are one class set."""
    if n.flavor != "DA":
        raise BasisMismatch("Hochschild chains need a DA structure")
    if n.pmc_left != reverse(n.pmc_right):
        raise BoundaryMismatch(
            "Hochschild chains need boundary algebras over Z and -Z")
    return tuple(g for g in n.generators.values()
                 if g.idem_left == g.idem_right)


def graded_euler(n):
    """Sum of (-1)^(gr + i) t^i over the Hochschild chains of the DA
    structure n, i = |s| - k the strands grading of a chain in idempotent s."""
    coeffs = {}
    for g in hochschild_generators(n):
        i = len(g.idem_right) - n.pmc_right.k
        coeffs[i] = coeffs.get(i, 0) + (-1 if (g.grading + i) % 2 else 1)
    return LaurentPolynomial(coeffs)
