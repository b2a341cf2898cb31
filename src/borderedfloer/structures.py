"""Type D/A/DA/DD/AA structures over strands algebras, and chain complexes,
with GF(2) coefficients.

One `Structure` type carries all five flavors.  A structure has a left and
a right side, each of type "D", "A" or absent (None); an absent side has
circle None, as in `heegaard.BorderedDiagram`.  The five flavor classes
only name their sides.  The structure with no sides, a type D structure
over the trivial algebra, is a chain complex: `F2ChainComplex` adds its
homology, and its file is the structure file less flavor and name, with the
ops as its "differential".  Structure maps are one sparse `ops` map at the
basis-element level, from a generator and a sequence of A-side inputs to
pairs of a D-side output (or None) and a target generator.

A malformed shape raises SchemaViolation when a structure is made: a
repeated generator name, an op on an unknown one, an idempotent that is
missing, on an absent side or off its circle's classes, ops on a DD or AA
structure, and an op input or output off its side or over another circle.
`validate` then
reports only the mathematics: idempotent compatibility of every op, the
grading-flip rule (an op with i A-side inputs flips the total grading by
i + 1), that no input is an idempotent (the unit is implicit), the one DA
structure relation on every composable word of basis elements, whose
degenerate cases are d^2 = 0 for type D and the A-infinity relation for
type A, and boundedness of the delta-transition graph for type D.  On a
complex these are the grading flip of d and d^2 = 0.

One box tensor product, `box_tensor(left, right)`, pairs A (x) D into a
chain complex and DA (x) D, AA (x) D and AA (x) DD into D, A and DA
structures, each on "x*y" generator names.  It walks right's delta^1
chains up to length max(arity of left - 1, 1), so the implicit unit always
meets an idempotent D output, and needs a bounded right factor only when
left has an op with an A-side input.
"""

from __future__ import annotations

import itertools

from . import pmc as pmc_mod, strands
from .errors import (AlgebraMismatch, BothUnbounded, NotAComplex, OneOf,
                     Record, SchemaViolation, check, show, sided, unique)
from .pmc import PointedMatchedCircle


class ModuleGenerator(Record):
    """``idem_left``/``idem_right``: the classes of the left/right
    idempotent, or None; ``grading`` is in Z/2."""
    __slots__ = _fields = ("name", "idem_left", "idem_right", "grading")

    def to_json(self):
        obj = {"name": self.name, "grading": self.grading}
        if self.idem_left is not None:
            obj["idem_left"] = sorted(self.idem_left)
        if self.idem_right is not None:
            obj["idem_right"] = sorted(self.idem_right)
        return obj


def _is_dag(edges, nodes):
    """No directed cycle among the given edge set: drop a node that no edge
    enters until none is left (Kahn), without recursion."""
    entering = dict.fromkeys(nodes, 0)
    for n in nodes:
        for m in edges.get(n, ()):
            entering[m] += 1
    free = [n for n, count in entering.items() if not count]
    for n in free:
        for m in edges.get(n, ()):
            entering[m] -= 1
            if not entering[m]:
                free.append(m)
    return len(free) == len(entering)


def _basis_json(a):
    return {"terms": [a.to_json()]}


class Structure:
    """ops: (name, tuple of A-side algebra basis elements) -> frozenset of
    (D-side algebra basis element or None, target name).

    The key (x, (a_1, ..., a_i)) records delta^1_{1+i} of a DA structure,
    m_{i+1} of a type A structure (D-side output None) and, with i = 0,
    delta^1 of a type D structure.  The unit delta^1(x, I) = I (x) x is
    implicit; `delta` adds it.  DD and AA structures carry generator data
    only.  A malformed shape, listed in the module docstring, raises
    SchemaViolation when the structure is made.
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
                f"a {self.flavor or 'sideless'} structure has a circle "
                "exactly on its sides")
        self.pmc_left = pmc_left
        self.pmc_right = pmc_right
        unique([g.name for g in generators], "generators")
        for i, g in enumerate(generators):
            for side, circle, idem in (("left", pmc_left, g.idem_left),
                                       ("right", pmc_right, g.idem_right)):
                if circle is None:
                    bad, want = idem is not None, "none on an absent side"
                else:
                    n = circle.num_classes
                    bad = idem is None or any(
                        type(j) is not int or not 1 <= j <= n for j in idem)
                    want = f"classes in 1..{n}"
                if bad:
                    raise SchemaViolation(f"expected {want}",
                                          f"generators[{i}].idem_{side}")
        self.generators = {g.name: g for g in generators}
        self.ops = {(x, tuple(seq)): frozenset(v)
                    for (x, seq), v in (ops or {}).items()}
        if self.ops and not self.carries_ops:
            raise SchemaViolation(f"a {self.flavor} structure carries no ops",
                                  "ops")
        for (x, seq), terms in self.ops.items():
            for y in (x, *(t for _, t in terms)):
                if y not in self.generators:
                    raise SchemaViolation(f"unknown generator {show(y)}", "ops")
            if any(a.pmc != pmc_right for a in seq):
                raise SchemaViolation(f"op({x},...): input over wrong circle",
                                      "ops")
            for b, y in terms:
                if (b is None) == (self.left == "D"):
                    raise SchemaViolation(f"op({x},...) -> {y}: output does "
                                          f"not match the {self.flavor} sides",
                                          "ops")
                if b is not None and b.pmc != pmc_left:
                    raise SchemaViolation(f"op({x},...): output over wrong "
                                          "circle", "ops")
        self.name = name

    def validate(self):
        """{"ok", "errors"}: the mathematics the module docstring lists."""
        errors = []
        for (x, seq), terms in self.ops.items():
            gx = self.generators[x]
            classes = gx.idem_right
            for a in seq:
                if a.is_idempotent:
                    errors.append(f"op({x},...): idempotent input (the unit "
                                  "is implicit)")
                if a.source_classes != classes:
                    errors.append(f"op({x},...): inputs not composable")
                classes = a.target_classes
            total = gx.grading + sum(a.gr for a in seq) + len(seq) + 1
            for b, y in terms:
                gy = self.generators[y]
                if gy.idem_right != classes:
                    errors.append(f"op({x},...) -> {y}: right idempotent mismatch")
                if b is not None:
                    if b.source_classes != gx.idem_left:
                        errors.append(f"op({x},...): left idempotent mismatch")
                    if b.target_classes != gy.idem_left:
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
                seq[0].source_classes == g.idem_right:
            [b] = strands.idempotent(self.pmc_left, g.idem_left).terms \
                if self.left == "D" else [None]
            out ^= {(b, x)}
        return out

    def _letters(self, letters, classes):
        """The basis elements of the right algebra that start at classes, in
        basis order; letters holds them per strands grading."""
        i = len(classes) - self.pmc_right.k
        if i not in letters:
            letters[i] = {}
            for a in strands.basis(self.pmc_right, i):
                letters[i].setdefault(a.source_classes, []).append(a)
        return letters[i].get(classes, ())

    def _check_relation(self):
        """The DA structure relation (Lipshitz-Ozsvath-Thurston,
        arXiv:1003.0598, 2.2) at each generator x and every composable word
        of at most max(2 (max_arity - 1), max_arity) basis elements of the
        right algebra, the most that two chained ops or one op on a product
        of two letters take, over GF(2): the first letter starts at x's
        right idempotent and each later one where the one before it ends.
        A word that does not compose contributes nothing, since the inputs
        of a valid op compose and d and mu_2 keep the class sets.  With no A
        side the one word is empty and this is d^2 = 0 of type D; with no
        D-side output it is the A-infinity relation of type A.  A failure
        names the word's strand maps."""
        errors = []
        arity = self.max_arity
        depth = max(2 * (arity - 1), arity) if self.right == "A" else 0
        letters = {}  # strands grading -> {source classes: basis elements}

        for x, g in self.generators.items():
            words = [()]
            for n in range(depth + 1):
                if n:  # each word of n - 1 letters, extended by one letter
                    words = [w + (a,) for w in words for a in self._letters(
                        letters, w[-1].target_classes if w else g.idem_right)]
                for seq in words:
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
                            acc ^= {(c, y) for c in strands.differential_terms(b)}
                    for i in range(n):  # d of one input
                        for c in strands.differential_terms(seq[i]):
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


_CLASSES = {cls.flavor: cls for cls in (
    TypeDStructure, TypeAStructure, TypeDAStructure, TypeDDStructure,
    TypeAAStructure)}


class F2ChainComplex(Structure):
    """A chain complex over GF(2): the structure with no sides, a type D
    structure over the trivial algebra.  The differential is the ops
    (x, ()) -> {(None, y)}, and `validate` checks that d flips the grading
    and that d^2 = 0."""

    def homology_dimensions(self):
        """{grading: dim} of the homology, by exact rank-nullity over GF(2);
        NotAComplex carries the errors of `validate`."""
        report = self.validate()
        if not report["ok"]:
            raise NotAComplex("; ".join(report["errors"]))
        index = {x: i for i, x in enumerate(self.generators)}
        dims = {0: 0, 1: 0}
        for g in self.generators.values():
            dims[g.grading] += 1
        # d flips the grading, so its matrix splits by source parity; each
        # rank kills one dimension at the source and one at the target
        rank_from = {parity: _f2_rank(
            [sum(1 << index[y] for _, y in terms)
             for (x, _), terms in self.ops.items()
             if self.generators[x].grading == parity]) for parity in (0, 1)}
        return {parity: dims[parity] - rank_from[parity] - rank_from[1 - parity]
                for parity in (0, 1)}

    def euler(self):
        return sum(-1 if g.grading else 1 for g in self.generators.values())

    def to_json(self):
        obj = super().to_json()
        return {"generators": obj["generators"], "differential": obj["ops"]}

    @classmethod
    def from_json(cls, obj):
        """A complex file as `to_json` writes it; the homology that
        ``mod box --json`` adds is allowed and not read."""
        check(obj, {"generators": [dict], "differential?": [dict],
                    "homology?": {"0": int, "1": int}})
        return _read(cls, {}, obj["generators"], obj.get("differential", ()),
                     "differential", "")


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


def induct_dd(d):
    """Read a type D over a connected-sum algebra as a DD over the factors,
    split at k1, half the circle's genus: classes <= 2*k1 belong to the left
    factor; the rest shift down.  AlgebraMismatch unless d is type D, k1 >= 1
    and the first 4*k1 points carry exactly the classes 1..2*k1."""
    if d.flavor != "D":
        raise AlgebraMismatch("induct_dd needs a type D structure")
    pmc = d.pmc_left
    k1 = pmc.k // 2
    if k1 < 1 or set(pmc.matching[:4 * k1]) != set(range(1, 2 * k1 + 1)):
        raise AlgebraMismatch("the circle does not split at half its genus")
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
    flipped = [ModuleGenerator(g.name, g.idem_left, g.idem_right,
                               (g.grading + 1) % 2)
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
        ModuleGenerator(rename[g.name], g.idem_left, g.idem_right, g.grading)
        for g in b.generators.values()]
    ops = dict(a.ops)
    for (x, seq), terms in b.ops.items():
        ops[(rename[x], seq)] = frozenset((c, rename[y]) for c, y in terms)
    return type(a)(a.pmc_left, a.pmc_right, gens, ops)


# box tensor product -------------------------------------------------------
# (left flavor, right flavor) -> the class of left (x) right
_PRODUCTS = {("A", "D"): F2ChainComplex, ("DA", "D"): TypeDStructure,
             ("AA", "D"): TypeAStructure, ("AA", "DD"): TypeDAStructure}


def _onto_sides(cls, outer_left, outer_right):
    """The outer values that are not None, on the sides cls has, in order."""
    values = iter([v for v in (outer_left, outer_right) if v is not None])
    return tuple(next(values) if side else None for side in (cls.left, cls.right))


def box_tensor(left, right):
    """left (x) right along left's right circle and right's left circle
    (Lipshitz-Ozsvath-Thurston, arXiv:1003.0598, 2.3), with the depth and
    boundedness rules of the module docstring.  Every pairing names the
    product generator of x and y "x*y", and two pairs joined to one name
    raise SchemaViolation.  The outer sides fill the result's sides in
    order: A (x) D has none and is an F2ChainComplex, and AA (x) D keeps its
    left idempotent in idem_right."""
    key = (left.flavor, right.flavor)
    if key not in _PRODUCTS:
        raise AlgebraMismatch(f"unsupported pairing {key[0]} (x) {key[1]}")
    if left.pmc_right != right.pmc_left:
        raise AlgebraMismatch("boundary circles differ")
    if left.max_arity >= 2 and not right.bounded:
        raise BothUnbounded("type D side is unbounded")
    pairs = {(x.name, y.name): (x, y) for x in left.generators.values()
             for y in right.generators.values() if x.idem_right == y.idem_left}
    names = {p: "*".join(p) for p in pairs}
    depth = max(left.max_arity - 1, 1)
    ops = {}
    for xn, yn in pairs:
        terms = set()
        for chain, zn in right.delta_chains(yn, depth):
            for b, wn in left.delta(xn, chain):
                if (wn, zn) in pairs:
                    terms ^= {(b, names[wn, zn])}
        if terms:
            ops[names[xn, yn]] = terms
    cls = _PRODUCTS[key]
    gens = [ModuleGenerator(names[p],
                            *_onto_sides(cls, x.idem_left, y.idem_right),
                            (x.grading + y.grading) % 2)
            for p, (x, y) in pairs.items()]
    return cls(*_onto_sides(cls, left.pmc_left, right.pmc_right), gens,
               {(n, ()): terms for n, terms in ops.items()})


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
    keys = sided("algebra", None not in kinds)
    return [(key, "left" if kind == "D" else "right", i)
            for i, (key, kind) in enumerate(zip(keys, kinds)) if kind]


# the module file of each flavor; generators and ops are checked one by one
_SPECS = {flavor: {"flavor": str, "name?": str, "generators": [dict],
                   **({"ops?": [dict]} if cls.carries_ops else {}),
                   **{key: {"pmc": dict, "side": (side,)}
                      for key, side, _ in _algebra_keys(cls)}}
          for flavor, cls in _CLASSES.items()}


def _single_basis(pmc, obj, path):
    terms = strands.json_basis_terms(pmc, obj, path)
    if len(terms) != 1:
        raise SchemaViolation("expected one basis element", path)
    return terms.pop()


def structure_from_json(obj):
    flavor = check(check(obj, dict).get("flavor"), tuple(_SPECS), "flavor")
    cls = _CLASSES[flavor]
    check(obj, _SPECS[flavor])
    circles = {i: pmc_mod.load(obj[key]["pmc"], f"{key}.pmc")
               for key, _, i in _algebra_keys(cls)}
    return _read(cls, circles, obj["generators"], obj.get("ops", ()), "ops",
                 obj.get("name", ""))


def _read(cls, circles, generators, ops_json, at, name):
    """The structure of class cls over circles ({side index: circle}) from
    the generator and op lists of any structure or complex file; at is the
    key of the op list."""
    pl, pr = circles.get(0), circles.get(1)
    check(generators, [{"name": str, "grading": (0, 1), **{
        ("idem_left", "idem_right")[i]: [range(1, circle.num_classes + 1)]
        for i, circle in circles.items()}}], "generators")
    for i, g in enumerate(generators):
        for k in ("idem_left", "idem_right"):
            unique(g.get(k, ()), f"generators[{i}].{k}")
    gens = [ModuleGenerator(g["name"], *(frozenset(g[k]) if k in g else None
                                         for k in ("idem_left", "idem_right")),
                            g["grading"]) for g in generators]
    names = OneOf(g.name for g in gens)
    unique(names, "generators")
    op = {"source": names, **({"inputs": [dict]} if cls.right == "A" else {}),
          **({"output": dict, "target": names} if cls.left == "D"
             else {"targets": [names]})}
    ops, keys = {}, []  # an op file entry is listed once
    for i, raw in enumerate(ops_json):
        where = f"{at}[{i}]"
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
    unique(keys, at)
    return cls(pl, pr, gens, ops, name=name)
