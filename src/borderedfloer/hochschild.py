"""Hochschild chain groups of DA bimodules and their graded Euler
characteristics.  A GF(2) chain complex, with its file and its homology,
is `structures.F2ChainComplex`, the structure with no sides; the benchmark
times its homology as ``hochschild.F2ChainComplex``, so it is imported here."""

from __future__ import annotations

from .errors import BoundaryMismatch, Record
from .laurent import LaurentPolynomial
from .pmc import reverse
from .structures import F2ChainComplex  # noqa: F401 (see the docstring)


class HochschildGenerator(Record):
    """A DA generator x whose left and right idempotents are one set s:
    ``grading`` is gr_DA(x) + i and ``strands_grading`` is i = |s| - k."""
    __slots__ = _fields = ("name", "grading", "strands_grading")


def hochschild_generators(n):
    """Generators x with equal left/right idempotent classes, gradings
    shifted by the strands grading."""
    if n.pmc_left != reverse(n.pmc_right):
        raise BoundaryMismatch(
            "Hochschild chains need boundary algebras over Z and -Z")
    k = n.pmc_right.k
    gens = []
    for g in n.generators.values():
        if g.idem_left != g.idem_right:
            continue
        i = len(g.idem_right) - k
        gens.append(HochschildGenerator(g.name, (g.grading + i) % 2, i))
    return tuple(gens)


def graded_euler(gens):
    """Sum over strands gradings i of t^i times the signed generator count."""
    out = LaurentPolynomial.zero()
    for g in gens:
        sign = -1 if g.grading % 2 else 1
        out = out + LaurentPolynomial.monomial(g.strands_grading, sign)
    return out
