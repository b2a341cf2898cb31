"""Type D/A/DA/DD/AA structures over strands algebras, with GF(2) coefficients.

One `Structure` type carries all five flavors.  A structure has a left and
a right side, each of type "D", "A" or absent (None); an absent side has
circle None, as in `heegaard.BorderedDiagram`.  The five flavor classes
only name their sides.  Structure maps are one sparse `ops` map at the
basis-element level, from a generator and a sequence of A-side inputs to
pairs of a D-side output (or None) and a target generator.

Validation checks the generators' idempotents, idempotent compatibility of
every op, the grading-flip rule (an op with i A-side inputs flips the total
grading by i + 1), that no input is an idempotent (the unit is implicit),
the one DA structure relation, whose degenerate cases are d^2 = 0 for type
D and the A-infinity relation for type A, and boundedness of the
delta-transition graph for type D.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from . import pmc as pmc_mod, strands
from .errors import (AlgebraMismatch, BothUnbounded, SchemaViolation, check,
                     unique)
from .pmc import PointedMatchedCircle


@dataclass(frozen=True)
class ModuleGenerator:
    name: str
    idem_left: frozenset  # classes of the left idempotent, or None
    idem_right: frozenset  # classes of the right idempotent, or None
    grading: int  # Z/2

    def to_json(self):
        obj = {"name": self.name, "grading": self.grading}
        if self.idem_left is not None:
            obj["idem_left"] = sorted(self.idem_left)
        if self.idem_right is not None:
            obj["idem_right"] = sorted(self.idem_right)
        return obj


def _source_classes(a):
    return frozenset(a.pmc.cls(s) for s, _ in a.pairs)


def _target_classes(a):
    return frozenset(a.pmc.cls(t) for _, t in a.pairs)


def _factor_pairs(c):
    """The pairs (a, b) of non-idempotent basis elements with a * b = c."""
    elts = [a for a in strands.basis(c.pmc, c.strands_grading)
            if not a.is_idempotent]
    lefts = [a for a in elts if _source_classes(a) == _source_classes(c)]
    rights = [b for b in elts if _target_classes(b) == _target_classes(c)]
    return [(a, b) for a in lefts for b in rights
            if strands.multiply_basis(a, b) is c]


def _idempotent(pmc, classes):
    return strands.idempotent(pmc, classes).basis_terms()[0]


def _is_dag(edges, nodes):
    """No directed cycle among the given edge set."""
    color = {n: 0 for n in nodes}

    def visit(n):
        color[n] = 1
        for m in edges.get(n, ()):
            if color[m] == 1 or (color[m] == 0 and not visit(m)):
                return False
        color[n] = 2
        return True

    return all(color[n] or visit(n) for n in nodes)


def _generator_errors(pmc_left, pmc_right, generators):
    """Each present side needs an idempotent of classes of its circle, an
    absent side none; generator names are distinct."""
    errors, seen = [], set()
    for g in generators:
        if g.name in seen:
            errors.append(f"duplicate generator {g.name!r}")
        seen.add(g.name)
        for side, circle, idem in (("left", pmc_left, g.idem_left),
                                   ("right", pmc_right, g.idem_right)):
            if circle is None:
                if idem is not None:
                    errors.append(f"generator {g.name!r}: idem_{side} on an "
                                  "absent side")
            elif idem is None:
                errors.append(f"generator {g.name!r}: no idem_{side}")
            else:
                n = circle.num_classes
                bad = [j for j in idem if type(j) is not int or not 1 <= j <= n]
                if bad:
                    errors.append(f"generator {g.name!r}: idem_{side} class "
                                  f"{bad[0]!r} is not in 1..{n}")
    return errors


def _basis_json(a):
    return strands.StrandsElement.from_basis(a).to_json()


class Structure:
    """ops: (name, tuple of A-side algebra basis elements) -> frozenset of
    (D-side algebra basis element or None, target name).

    The key (x, (a_1, ..., a_i)) records delta^1_{1+i} of a DA structure,
    m_{i+1} of a type A structure (D-side output None) and, with i = 0,
    delta^1 of a type D structure.  The unit delta^1(x, I) = I (x) x is
    implicit; `delta` adds it.  DD and AA structures carry generator data
    only.
    """

    left = None  # "D", "A" or None
    right = None

    def __init_subclass__(cls):
        cls.flavor = (cls.left or "") + (cls.right or "")
        # an op has at most one D output, on the left, and A inputs on the right
        cls.carries_ops = cls.left != "A" and cls.right != "D"

    def __init__(self, pmc_left, pmc_right, generators, ops=None, name=""):
        if (pmc_left is None) != (self.left is None) or \
                (pmc_right is None) != (self.right is None):
            raise AlgebraMismatch(
                f"a {self.flavor} structure has a circle exactly on its sides")
        self.pmc_left = pmc_left
        self.pmc_right = pmc_right
        self.generators = {g.name: g for g in generators}
        self.ops = {(x, tuple(seq)): frozenset(v)
                    for (x, seq), v in (ops or {}).items()}
        self.name = name

    def validate(self):
        errors = _generator_errors(self.pmc_left, self.pmc_right,
                                   self.generators.values())
        if self.ops and not self.carries_ops:
            errors.append(f"a {self.flavor} structure carries no ops")
        if errors:
            return {"ok": False, "errors": errors}
        for (x, seq), terms in self.ops.items():
            gx = self.generators[x]
            classes = gx.idem_right
            for a in seq:
                if a.pmc != self.pmc_right:
                    errors.append(f"op({x},...): input over wrong circle")
                if a.is_idempotent:
                    errors.append(f"op({x},...): idempotent input (the unit "
                                  "is implicit)")
                if _source_classes(a) != classes:
                    errors.append(f"op({x},...): inputs not composable")
                classes = _target_classes(a)
            total = gx.grading + sum(a.gr for a in seq) + len(seq) + 1
            for b, y in terms:
                gy = self.generators[y]
                if (b is None) == (self.left == "D"):
                    errors.append(f"op({x},...) -> {y}: output does not match "
                                  f"the {self.flavor} sides")
                    continue
                if gy.idem_right != classes:
                    errors.append(f"op({x},...) -> {y}: right idempotent mismatch")
                if b is not None:
                    if b.pmc != self.pmc_left:
                        errors.append(f"op({x},...): output over wrong circle")
                    if _source_classes(b) != gx.idem_left:
                        errors.append(f"op({x},...): left idempotent mismatch")
                    if _target_classes(b) != gy.idem_left:
                        errors.append(f"op({x},...) -> {y}: left idempotent mismatch")
                # gr(x) + sum gr(a_i) + |seq| + 1 + gr(b) + gr(y) = 0
                if (total + (b.gr if b is not None else 0) + gy.grading) % 2:
                    errors.append(f"op({x},...) -> {y}: grading flip violated")
        errors.extend(self._check_relation())
        if self.left == "D" and self.right is None and not self.bounded:
            errors.append("delta-transition graph has a cycle (unbounded)")
        return {"ok": not errors, "errors": errors}

    def delta(self, x, seq):
        """delta^1(x, *seq) over GF(2) as a set of (D-side output or None,
        target): the ops plus the strict unit delta^1(x, I) = I (x) x."""
        seq = tuple(seq)
        out = set(self.ops.get((x, seq), ()))
        g = self.generators[x]
        if len(seq) == 1 and seq[0].is_idempotent and \
                _source_classes(seq[0]) == g.idem_right:
            out ^= {(_idempotent(self.pmc_left, g.idem_left)
                     if self.left == "D" else None, x)}
        return out

    def _alphabet(self):
        """Algebra elements worth feeding to the structure relation check."""
        alpha = {a for (_, seq) in self.ops for a in seq}
        alpha.update(_idempotent(self.pmc_right, g.idem_right)
                     for g in self.generators.values())
        products = {strands.multiply_basis(a, b) for a in alpha for b in alpha}
        differentials = {c for a in alpha
                         for c in strands.differential_basis(a).basis_terms()}
        alpha = (alpha | products | differentials) - {None}
        # the factors of each element, so that a dropped op on a factor
        # shows in the word of the two factors
        factors = {e for c in alpha for pair in _factor_pairs(c) for e in pair}
        return sorted(alpha | factors, key=lambda e: e.pairs)

    def _check_relation(self):
        """The DA structure relation (Lipshitz-Ozsvath-Thurston,
        arXiv:1003.0598, 2.2) at each generator and word of at most 3 A-side
        inputs, over GF(2).  With no A side the one word is empty and this is
        d^2 = 0 of type D; with no D-side output it is the A-infinity
        relation of type A.  A failure names the word's strand maps."""
        errors = []
        alpha = self._alphabet() if self.right == "A" else []
        for x in self.generators:
            for n in range(min(self.max_arity, 3) + 1):
                for seq in itertools.product(alpha, repeat=n):
                    acc = set()
                    # two delta^1 composed, mu_2 on their D-side outputs
                    for i in range(n + 1):
                        for b, y in self.delta(x, seq[:i]):
                            for c, z in self.delta(y, seq[i:]):
                                if b is None:  # no D side
                                    acc ^= {(None, z)}
                                elif (bc := strands.multiply_basis(b, c)) is not None:
                                    acc ^= {(bc, z)}
                    # d of the D-side output
                    for b, y in self.delta(x, seq):
                        if b is not None:
                            acc ^= {(c, y) for c in
                                    strands.differential_basis(b).basis_terms()}
                    for i in range(n):  # d of one input
                        for c in strands.differential_basis(seq[i]).basis_terms():
                            acc ^= self.delta(x, seq[:i] + (c,) + seq[i + 1:])
                    for i in range(n - 1):  # two adjacent inputs multiplied
                        c = strands.multiply_basis(seq[i], seq[i + 1])
                        if c is not None:
                            acc ^= self.delta(x, seq[:i] + (c,) + seq[i + 2:])
                    if acc:
                        word = "".join(f" {list(a.pairs)}" for a in seq)
                        errors.append(f"structure relation (d^2 = 0) fails at "
                                      f"{x}, {n} inputs{':' if seq else ''}{word}")
        return errors

    @property
    def bounded(self):
        edges = {}
        for (x, _), terms in self.ops.items():
            edges.setdefault(x, set()).update(y for _, y in terms)
        return _is_dag(edges, self.generators)

    def delta_chains(self, x, max_length):
        """All (a_1, ..., a_j, y) with j <= max_length reachable from x."""
        frontier = [((), x)]
        out = list(frontier)
        for _ in range(max_length):
            frontier = [(chain + (a,), z) for chain, y in frontier
                        for a, z in self.ops.get((y, ()), ())]
            out += frontier
        return out

    @property
    def max_arity(self):
        return max((len(seq) + 1 for _, seq in self.ops), default=1)

    # JSON -----------------------------------------------------------------
    def to_json(self):
        obj = {"flavor": self.flavor, "name": self.name}
        circles = (self.pmc_left, self.pmc_right)
        for key, side, i in _algebra_keys(type(self)):
            obj[key] = {"pmc": circles[i].to_json(), "side": side}
        obj["generators"] = [g.to_json() for g in self.generators.values()]
        if not self.carries_ops:
            return obj
        obj["ops"] = []
        for (x, seq), terms in sorted(
                self.ops.items(),
                key=lambda kv: (kv[0][0], [a.pairs for a in kv[0][1]])):
            op = {"source": x}
            if self.right == "A":
                op["inputs"] = [_basis_json(a) for a in seq]
            if self.left != "D":
                obj["ops"].append(dict(op, targets=sorted(y for _, y in terms)))
                continue
            for b, y in sorted(terms, key=lambda t: (t[1], t[0].pairs)):
                obj["ops"].append(dict(op, output=_basis_json(b), target=y))
        return obj


class TypeDStructure(Structure):
    left = "D"


class TypeAStructure(Structure):
    right = "A"


class TypeDAStructure(Structure):
    left, right = "D", "A"


class TypeDDStructure(Structure):
    left, right = "D", "D"


class TypeAAStructure(Structure):
    left, right = "A", "A"


_CLASSES = {cls.flavor: cls for cls in Structure.__subclasses__()}


def induct_dd(d, k1):
    """Read a type D over a connected-sum algebra as a DD over the factors.

    Classes <= 2*k1 belong to the left factor; the rest shift down.
    """
    pmc = d.pmc_left
    left = PointedMatchedCircle(pmc.matching[:4 * k1], pmc.orientation[:4 * k1])
    right = PointedMatchedCircle(
        tuple(c - 2 * k1 for c in pmc.matching[4 * k1:]),
        pmc.orientation[4 * k1:])
    gens = []
    for g in d.generators.values():
        lo = frozenset(j for j in g.idem_left if j <= 2 * k1)
        hi = frozenset(j - 2 * k1 for j in g.idem_left if j > 2 * k1)
        gens.append(ModuleGenerator(g.name, lo, hi, g.grading))
    return TypeDDStructure(left, right, gens, name=d.name)


# elementary modules and formal operations --------------------------------
def elementary_d(pmc, idem, grading, name="e"):
    return TypeDStructure(
        pmc, None, [ModuleGenerator(name, frozenset(idem), None, grading % 2)])


def elementary_a(pmc, idem, grading, name="e"):
    return TypeAStructure(
        None, pmc, [ModuleGenerator(name, None, frozenset(idem), grading % 2)])


def elementary_da(pmc_left, pmc_right, idem_left, idem_right, grading, name="e"):
    return TypeDAStructure(
        pmc_left, pmc_right,
        [ModuleGenerator(name, frozenset(idem_left), frozenset(idem_right),
                         grading % 2)])


def shift(s):
    """Grading flip on every generator."""
    flipped = [replace(g, grading=(g.grading + 1) % 2)
               for g in s.generators.values()]
    return type(s)(s.pmc_left, s.pmc_right, flipped, s.ops, name=s.name)


def direct_sum(a, b):
    if a.flavor != b.flavor:
        raise AlgebraMismatch("cannot sum structures of different flavors")
    if (a.pmc_left, a.pmc_right) != (b.pmc_left, b.pmc_right):
        raise AlgebraMismatch("different boundary circles")
    seen = set(a.generators)
    rename = {}
    for x in b.generators:
        new = x
        while new in seen:
            new = new + "'"
        rename[x] = new
        seen.add(new)
    gens = list(a.generators.values()) + [
        replace(g, name=rename[g.name]) for g in b.generators.values()]
    ops = dict(a.ops)
    for (x, seq), terms in b.ops.items():
        ops[(rename[x], seq)] = frozenset((c, rename[y]) for c, y in terms)
    return type(a)(a.pmc_left, a.pmc_right, gens, ops)


# box tensor products ------------------------------------------------------
def box_tensor(a_struct, d_struct):
    """A (x) D along a common boundary circle; returns an F2ChainComplex."""
    from .hochschild import F2ChainComplex
    if a_struct.pmc_right != d_struct.pmc_left:
        raise AlgebraMismatch("boundary circles differ")
    if not d_struct.bounded and a_struct.max_arity >= 2:
        raise BothUnbounded("type D side is unbounded")
    grading = {(x.name, y.name): (x.grading + y.grading) % 2
               for x in a_struct.generators.values()
               for y in d_struct.generators.values() if x.idem_right == y.idem_left}
    gens = list(grading)
    diff = {}
    depth = max(a_struct.max_arity - 1, 0)
    for (xn, yn) in gens:
        targets = set()
        for chain, zn in d_struct.delta_chains(yn, depth):
            for _, wn in a_struct.delta(xn, chain):
                if (wn, zn) in grading:
                    targets ^= {(wn, zn)}
        if targets:
            diff[(xn, yn)] = frozenset(targets)
    return F2ChainComplex(gens, grading, diff)


_PRODUCTS = {("DA", "D"): TypeDStructure, ("AA", "D"): TypeAStructure,
             ("AA", "DD"): TypeDAStructure}


def _onto_sides(cls, outer_left, outer_right):
    """The outer values that are not None, on the sides cls has, in order."""
    values = iter([v for v in (outer_left, outer_right) if v is not None])
    return tuple(next(values) if side else None for side in (cls.left, cls.right))


def box_tensor_bimodules(left, right):
    """left (x) right along left's right circle and right's left circle:
    DA (x) D -> D with structure maps; AA (x) D -> A and AA (x) DD -> DA at
    the generator/idempotent/grading level (an AA structure carries no ops,
    so only the unit of `delta` contributes).  The outer sides fill the
    result's sides in order, so AA (x) D keeps its left idempotent in
    idem_right."""
    cls = _PRODUCTS.get((left.flavor, right.flavor))
    if cls is None:
        raise AlgebraMismatch(
            f"unsupported pairing {left.flavor} (x) {right.flavor}")
    if left.pmc_right != right.pmc_left:
        raise AlgebraMismatch("middle circles differ")
    if left.left == "D" and not right.bounded:
        raise BothUnbounded("type D side is unbounded")
    pairs = [(x, y) for x in left.generators.values()
             for y in right.generators.values() if x.idem_right == y.idem_left]
    gens = [ModuleGenerator(f"{x.name}*{y.name}",
                            *_onto_sides(cls, x.idem_left, y.idem_right),
                            (x.grading + y.grading) % 2) for x, y in pairs]
    names = {g.name for g in gens}
    max_inputs = max((len(seq) for _, seq in left.ops), default=0)
    ops = {}
    for x, y in pairs:
        terms = set()
        for chain, zn in right.delta_chains(y.name, max_inputs):
            for b, wn in left.delta(x.name, chain):
                if f"{wn}*{zn}" in names:
                    terms ^= {(b, f"{wn}*{zn}")}
        if terms:
            ops[(f"{x.name}*{y.name}", ())] = terms
    return cls(*_onto_sides(cls, left.pmc_left, right.pmc_right), gens, ops)


def identity_aa(pmc):
    """The identity bimodule's graded idempotent data: one generator per
    subset s of the matched classes, idempotents (complement, s), grading
    theta(s)."""
    classes = range(1, pmc.num_classes + 1)
    gens = []
    for r in range(pmc.num_classes + 1):
        for s in itertools.combinations(classes, r):
            sset = frozenset(s)
            comp = frozenset(classes) - sset
            gens.append(ModuleGenerator(
                "s" + "".join(str(j) for j in s), comp, sset, theta(sset, pmc)))
    return TypeAAStructure(pmc_mod.reverse(pmc), pmc, gens, name="identity_aa")


def theta(s, pmc):
    comp = [j for j in range(1, pmc.num_classes + 1) if j not in s]
    return (len(s) + sum(1 for jp in comp for j in s if j < jp)) % 2


# JSON ---------------------------------------------------------------------
def _algebra_keys(cls):
    """(JSON key, side name, side index) of each side a flavor has; a
    one-sided structure names its one side "algebra"."""
    kinds = (cls.left, cls.right)
    return [("algebra" if None in kinds else key,
             "left" if kind == "D" else "right", i)
            for i, (key, kind) in enumerate(zip(("algebra_left", "algebra_right"),
                                                kinds)) if kind]


# the module file of each flavor; generators and ops are checked one by one
_SPECS = {flavor: {"flavor": str, "name?": str, "generators": [dict],
                   **({"ops?": [dict]} if cls.carries_ops else {}),
                   **{key: {"pmc": dict, "side": (side,)}
                      for key, side, _ in _algebra_keys(cls)}}
          for flavor, cls in _CLASSES.items()}


def _single_basis(pmc, obj, path):
    terms = strands.element_from_json(pmc, obj, path).basis_terms()
    if len(terms) != 1:
        raise SchemaViolation("expected one basis element", path)
    return terms[0]


def structure_from_json(obj):
    flavor = check(check(obj, dict).get("flavor"), tuple(_SPECS), "flavor")
    cls = _CLASSES[flavor]
    check(obj, _SPECS[flavor])
    circles = {i: pmc_mod.load(obj[key]["pmc"], f"{key}.pmc")
               for key, _, i in _algebra_keys(cls)}
    pl, pr = circles.get(0), circles.get(1)
    check(obj["generators"], [{"name": str, "grading": (0, 1), **{
        ("idem_left", "idem_right")[i]: [range(1, circle.num_classes + 1)]
        for i, circle in circles.items()}}], "generators")
    unique([g["name"] for g in obj["generators"]], "generators")
    for i, g in enumerate(obj["generators"]):
        for k in ("idem_left", "idem_right"):
            unique(g.get(k, ()), f"generators[{i}].{k}")
    gens = [ModuleGenerator(g["name"], *(frozenset(g[k]) if k in g else None
                                         for k in ("idem_left", "idem_right")),
                            g["grading"]) for g in obj["generators"]]
    names = tuple(g.name for g in gens)
    op = {"source": names, **({"inputs": [dict]} if cls.right == "A" else {}),
          **({"output": dict, "target": names} if cls.left == "D"
             else {"targets": [names]})}
    ops, keys = {}, []  # an op file entry is listed once
    for i, raw in enumerate(obj.get("ops", ())):
        where = f"ops[{i}]"
        check(raw, op, where)
        seq = tuple(_single_basis(pr, a, f"{where}.inputs[{j}]")
                    for j, a in enumerate(raw.get("inputs", ())))
        key = (raw["source"], tuple(a.pairs for a in seq))
        if cls.left == "D":
            b = _single_basis(pl, raw["output"], f"{where}.output")
            key += (b.pairs, raw["target"])
            ops.setdefault((raw["source"], seq), set()).add((b, raw["target"]))
        else:
            unique(raw["targets"], f"{where}.targets")
            ops[(raw["source"], seq)] = {(None, t) for t in raw["targets"]}
        keys.append(key)
    unique(keys, "ops")
    return cls(pl, pr, gens, ops, name=obj.get("name", ""))
