"""Hochschild chain groups of DA bimodules and GF(2) chain complex homology."""

from __future__ import annotations

from .errors import (BoundaryMismatch, NotAComplex, OneOf, Record, check,
                     unique)
from .laurent import LaurentPolynomial
from .pmc import reverse


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


class F2ChainComplex:
    """Generators with a Z/2 grading and a differential over GF(2); the
    generators are the keys of ``grading``, in its order."""

    def __init__(self, grading, differential):
        self.grading = dict(grading)
        self.generators = list(self.grading)
        self.differential = {k: frozenset(v)
                             for k, v in differential.items() if v}

    def validate(self):
        errors = []
        for x, targets in self.differential.items():
            for y in targets:
                if self.grading[y] != (self.grading[x] + 1) % 2:
                    errors.append(f"d does not flip the grading at {x}")
        acc = {}
        for x, targets in self.differential.items():
            for y in targets:
                for z in self.differential.get(y, ()):
                    acc[(x, z)] = acc.get((x, z), 0) ^ 1
        errors.extend(f"d^2 != 0 from {x} to {z}"
                      for (x, z), v in acc.items() if v)
        if errors:
            raise NotAComplex("; ".join(errors))
        return True

    def homology_dimensions(self):
        """{grading: dim} of the homology, by exact rank-nullity over GF(2)."""
        self.validate()
        index = {g: i for i, g in enumerate(self.generators)}
        dims = {0: 0, 1: 0}
        for g in self.generators:
            dims[self.grading[g] % 2] += 1
        # d flips the grading, so its matrix splits by source parity; each
        # rank kills one dimension at the source and one at the target
        rank_by_target = {0: 0, 1: 0}
        for parity in (0, 1):
            sub = []
            for x, targets in self.differential.items():
                if self.grading[x] % 2 != parity:
                    continue
                row = 0
                for y in targets:
                    row |= 1 << index[y]
                sub.append(row)
            rank_by_target[(parity + 1) % 2] = _f2_rank(sub)
        return {parity: dims[parity] - rank_by_target[parity]
                - rank_by_target[(parity + 1) % 2]
                for parity in (0, 1)}

    def euler(self):
        return sum(1 if self.grading[g] % 2 == 0 else -1
                   for g in self.generators)

    def to_json(self):
        return {"generators": [{"name": g, "grading": self.grading[g]}
                               for g in self.generators],
                "differential": [{"source": x, "targets": sorted(t)}
                                 for x, t in sorted(self.differential.items())]}


def _f2_rank(rows):
    rank = 0
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
            rank += 1
    return rank


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
    return F2ChainComplex({g["name"]: g["grading"] for g in obj["generators"]},
                          {d["source"]: frozenset(d["targets"]) for d in diff})
