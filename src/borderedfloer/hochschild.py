"""Hochschild chain groups of DA bimodules, and GF(2) chain complexes read
from JSON.  A complex is `structures.F2ChainComplex`, the structure with no
sides, which computes its own homology."""

from __future__ import annotations

from .errors import BoundaryMismatch, OneOf, Record, check, unique
from .laurent import LaurentPolynomial
from .pmc import reverse
from .structures import F2ChainComplex, ModuleGenerator


class HochschildGenerator(Record):
    """``idem`` is the common left/right idempotent class set, ``grading``
    is gr_DA(x) + i and ``strands_grading`` is i = |s| - k."""
    __slots__ = _fields = ("name", "idem", "grading", "strands_grading")


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
        gens.append(HochschildGenerator(
            g.name, g.idem_right, (g.grading + i) % 2, i))
    return tuple(gens)


def graded_euler(gens):
    """Sum over strands gradings i of t^i times the signed generator count."""
    out = LaurentPolynomial.zero()
    for g in gens:
        sign = -1 if g.grading % 2 else 1
        out = out + LaurentPolynomial.monomial(g.strands_grading, sign)
    return out


def complex_from_json(obj):
    """A complex in the JSON form of ``F2ChainComplex.to_json``; the
    homology that ``mod box --json`` adds is allowed and not read."""
    check(obj, {"generators": [{"name": str, "grading": (0, 1)}],
                "differential?": list, "homology?": {"0": int, "1": int}})
    names = OneOf(g["name"] for g in obj["generators"])
    unique(names, "generators")
    diff = check(obj.get("differential", []),
                 [{"source": names, "targets": [names]}], "differential")
    unique([d["source"] for d in diff], "differential")
    for i, d in enumerate(diff):
        unique(d["targets"], f"differential[{i}].targets")
    return F2ChainComplex(
        None, None, [ModuleGenerator(g["name"], None, None, g["grading"])
                     for g in obj["generators"]],
        {(d["source"], ()): {(None, t) for t in d["targets"]} for d in diff})
