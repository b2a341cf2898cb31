"""Type D/A/DA/DD/AA structures over strands algebras, with GF(2) coefficients.

Structure maps are stored sparsely at the basis-element level.  Validation
checks idempotent compatibility, the grading-flip rule (a map with i-1 algebra
inputs on the A side and one output flips the total grading by i), d^2 = 0,
and boundedness of the delta-transition graph.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from . import pmc as pmc_mod, strands
from .errors import AlgebraMismatch, BothUnbounded, SchemaViolation
from .pmc import PointedMatchedCircle


@dataclass(frozen=True)
class ModuleGenerator:
    name: str
    idem_left: frozenset  # classes of the D-side idempotent, or None
    idem_right: frozenset  # classes of the A-side idempotent, or None
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


class TypeDStructure:
    """delta1: name -> frozenset of (algebra basis element, target name)."""

    def __init__(self, pmc, generators, delta1=None, name=""):
        self.pmc = pmc
        self.generators = {g.name: g for g in generators}
        self.delta1 = {k: frozenset(v) for k, v in (delta1 or {}).items()}
        self.name = name

    @property
    def flavor(self):
        return "D"

    def validate(self):
        errors = []
        for x, terms in self.delta1.items():
            gx = self.generators[x]
            for a, y in terms:
                gy = self.generators[y]
                if a.pmc != self.pmc:
                    errors.append(f"delta({x}): algebra element over wrong circle")
                    continue
                if _source_classes(a) != gx.idem_left:
                    errors.append(f"delta({x}): left idempotent mismatch")
                if _target_classes(a) != gy.idem_left:
                    errors.append(f"delta({x}) -> {y}: right idempotent mismatch")
                if (a.gr + gy.grading) % 2 != (gx.grading + 1) % 2:
                    errors.append(f"delta({x}) -> {y}: grading does not drop by 1")
        errors.extend(self._check_d_squared())
        edges = {x: {y for _, y in terms} for x, terms in self.delta1.items()}
        if not _is_dag(edges, self.generators):
            errors.append("delta-transition graph has a cycle (unbounded)")
        return {"ok": not errors, "errors": errors}

    def _check_d_squared(self):
        # (mu_2 o (id (x) delta1) o delta1 + (d (x) id) o delta1)(x) = 0 over GF(2)
        acc = {}
        for x, terms in self.delta1.items():
            for a, y in terms:
                for b in strands.differential_basis(a).basis_terms():
                    key = (x, b, y)
                    acc[key] = acc.get(key, 0) ^ 1
                for a2, z in self.delta1.get(y, ()):
                    c = strands.multiply_basis(a, a2)
                    if c is not None:
                        key = (x, c, z)
                        acc[key] = acc.get(key, 0) ^ 1
        return [f"d^2 != 0 at {k[0]} -> {k[2]}" for k, v in acc.items() if v]

    @property
    def bounded(self):
        edges = {x: {y for _, y in terms} for x, terms in self.delta1.items()}
        return _is_dag(edges, self.generators)

    def delta_chains(self, x, max_length):
        """All (a_1, ..., a_j, y) with j <= max_length reachable from x."""
        out = [((), x)]
        frontier = [((), x)]
        for _ in range(max_length):
            nxt = []
            for chain, y in frontier:
                for a, z in self.delta1.get(y, ()):
                    nxt.append((chain + (a,), z))
            out.extend(nxt)
            frontier = nxt
            if not frontier:
                break
        return out

    def to_json(self):
        return {"flavor": "D", "name": self.name,
                "algebra": {"pmc": self.pmc.to_json(), "side": "left"},
                "generators": [g.to_json() for g in self.generators.values()],
                "ops": [{"source": x,
                         "output": strands.StrandsElement.from_basis(a).to_json(),
                         "target": y}
                        for x in sorted(self.delta1)
                        for a, y in sorted(self.delta1[x],
                                           key=lambda t: (t[1], t[0].pairs))]}


class TypeAStructure:
    """m_ops: (name, tuple of algebra basis elements) -> frozenset of names.

    The key (x, (a_1, ..., a_i)) records m_{i+1}(x, a_1, ..., a_i); the
    idempotent action m_2(x, I(s_x)) = x is implicit.
    """

    def __init__(self, pmc, generators, m_ops=None, name=""):
        self.pmc = pmc
        self.generators = {g.name: g for g in generators}
        self.m_ops = {(x, tuple(seq)): frozenset(v)
                      for (x, seq), v in (m_ops or {}).items()}
        self.name = name

    @property
    def flavor(self):
        return "A"

    @property
    def max_arity(self):
        return max((len(seq) + 1 for _, seq in self.m_ops), default=1)

    def m(self, x, seq):
        """m_{len(seq)+1}(x, *seq) as a set of generator names (GF(2))."""
        seq = tuple(seq)
        out = set(self.m_ops.get((x, seq), ()))
        if len(seq) == 1 and seq[0].is_idempotent and \
                _source_classes(seq[0]) == self.generators[x].idem_right:
            out ^= {x}
        return out

    def validate(self):
        errors = []
        for (x, seq), targets in self.m_ops.items():
            gx = self.generators[x]
            classes = gx.idem_right
            for a in seq:
                if a.pmc != self.pmc:
                    errors.append(f"m({x},...): wrong circle")
                if _source_classes(a) != classes:
                    errors.append(f"m({x},...): inputs not composable")
                classes = _target_classes(a)
            for y in targets:
                gy = self.generators[y]
                if gy.idem_right != classes:
                    errors.append(f"m({x},...) -> {y}: idempotent mismatch")
                flip = (len(seq) + 1) % 2
                total = (sum(a.gr for a in seq) + gx.grading) % 2
                if gy.grading != (total + flip) % 2:
                    errors.append(f"m({x},...) -> {y}: grading flip violated")
        errors.extend(self._check_a_infinity())
        return {"ok": not errors, "errors": errors}

    def _alphabet(self):
        """Algebra elements worth feeding to the A-infinity relation check."""
        alpha = {a for (_, seq) in self.m_ops for a in seq}
        for g in self.generators.values():
            alpha.add(next(iter(
                strands.idempotent(self.pmc, g.idem_right).basis_terms())))
        extra = set()
        for a in alpha:
            extra.update(strands.differential_basis(a).basis_terms())
            for b in alpha:
                c = strands.multiply_basis(a, b)
                if c is not None:
                    extra.add(c)
        return sorted(alpha | extra, key=lambda e: e.pairs)

    def _check_a_infinity(self):
        errors = []
        alpha = self._alphabet()
        max_len = min(self.max_arity, 3)
        for x in self.generators:
            for n in range(max_len + 1):
                for seq in itertools.product(alpha, repeat=n):
                    acc = set()
                    # m(m(x, a_1..a_i), a_{i+1}..a_n)
                    for i in range(n + 1):
                        for y in self.m(x, seq[:i]):
                            acc ^= self.m(y, seq[i:])
                    # m(x, ..., a_i a_{i+1}, ...)
                    for i in range(n - 1):
                        c = strands.multiply_basis(seq[i], seq[i + 1])
                        if c is not None:
                            acc ^= self.m(x, seq[:i] + (c,) + seq[i + 2:])
                    # m(x, ..., d(a_i), ...)
                    for i in range(n):
                        for c in strands.differential_basis(seq[i]).basis_terms():
                            acc ^= self.m(x, seq[:i] + (c,) + seq[i + 1:])
                    if acc:
                        errors.append(
                            f"A-infinity relation fails at {x}, {n} inputs")
        return errors

    def to_json(self):
        return {"flavor": "A", "name": self.name,
                "algebra": {"pmc": self.pmc.to_json(), "side": "right"},
                "generators": [g.to_json() for g in self.generators.values()],
                "ops": [{"source": x,
                         "inputs": [strands.StrandsElement.from_basis(a).to_json()
                                    for a in seq],
                         "targets": sorted(t)}
                        for (x, seq), t in sorted(
                            self.m_ops.items(), key=lambda kv: kv[0][0])]}


class TypeDAStructure:
    """delta1: (name, tuple of right algebra basis elements) ->
    frozenset of (left algebra basis element, target name)."""

    def __init__(self, pmc_left, pmc_right, generators, delta1=None, name=""):
        self.pmc_left = pmc_left
        self.pmc_right = pmc_right
        self.generators = {g.name: g for g in generators}
        self.delta1 = {(x, tuple(seq)): frozenset(v)
                       for (x, seq), v in (delta1 or {}).items()}
        self.name = name

    @property
    def flavor(self):
        return "DA"

    @property
    def k_right(self):
        return self.pmc_right.k

    def strands_grading(self, x):
        """|s| - k_R for the right idempotent."""
        return len(self.generators[x].idem_right) - self.k_right

    def validate(self):
        errors = []
        for (x, seq), terms in self.delta1.items():
            gx = self.generators[x]
            classes = gx.idem_right
            for a in seq:
                if a.pmc != self.pmc_right:
                    errors.append(f"delta({x},...): right input over wrong circle")
                if _source_classes(a) != classes:
                    errors.append(f"delta({x},...): inputs not composable")
                classes = _target_classes(a)
            for b, y in terms:
                gy = self.generators[y]
                if b.pmc != self.pmc_left:
                    errors.append(f"delta({x},...): left output over wrong circle")
                if _source_classes(b) != gx.idem_left:
                    errors.append(f"delta({x},...): left idempotent mismatch")
                if _target_classes(b) != gy.idem_left:
                    errors.append(f"delta({x},...) -> {y}: left idempotent mismatch")
                if gy.idem_right != classes:
                    errors.append(f"delta({x},...) -> {y}: right idempotent mismatch")
                arity = len(seq) + 1
                total = (gx.grading + sum(a.gr for a in seq)) % 2
                if (b.gr + gy.grading) % 2 != (total + arity) % 2:
                    errors.append(f"delta({x},...) -> {y}: grading flip violated")
        return {"ok": not errors, "errors": errors}

    def to_json(self):
        return {"flavor": "DA", "name": self.name,
                "algebra_left": {"pmc": self.pmc_left.to_json(), "side": "left"},
                "algebra_right": {"pmc": self.pmc_right.to_json(), "side": "right"},
                "generators": [g.to_json() for g in self.generators.values()],
                "ops": [{"source": x,
                         "inputs": [strands.StrandsElement.from_basis(a).to_json()
                                    for a in seq],
                         "output": strands.StrandsElement.from_basis(b).to_json(),
                         "target": y}
                        for (x, seq), terms in sorted(
                            self.delta1.items(), key=lambda kv: kv[0][0])
                        for b, y in sorted(terms, key=lambda t: t[1])]}


class TypeDDStructure:
    """Generator/idempotent/grading data only; both sides are D-type."""

    def __init__(self, pmc_left, pmc_right, generators, name=""):
        self.pmc_left = pmc_left
        self.pmc_right = pmc_right
        self.generators = {g.name: g for g in generators}
        self.name = name

    @property
    def flavor(self):
        return "DD"

    def validate(self):
        return {"ok": True, "errors": []}

    def to_json(self):
        return {"flavor": "DD", "name": self.name,
                "algebra_left": {"pmc": self.pmc_left.to_json(), "side": "left"},
                "algebra_right": {"pmc": self.pmc_right.to_json(), "side": "left"},
                "generators": [g.to_json() for g in self.generators.values()]}


class TypeAAStructure:
    """Generator/idempotent/grading data only; both sides are A-type."""

    def __init__(self, pmc_left, pmc_right, generators, name=""):
        self.pmc_left = pmc_left
        self.pmc_right = pmc_right
        self.generators = {g.name: g for g in generators}
        self.name = name

    @property
    def flavor(self):
        return "AA"

    def validate(self):
        return {"ok": True, "errors": []}


def induct_dd(d, k1):
    """Read a type D over a connected-sum algebra as a DD over the factors.

    Classes <= 2*k1 belong to the left factor; the rest shift down.
    """
    pmc = d.pmc
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
        pmc, [ModuleGenerator(name, frozenset(idem), None, grading % 2)])


def elementary_a(pmc, idem, grading, name="e"):
    return TypeAStructure(
        pmc, [ModuleGenerator(name, None, frozenset(idem), grading % 2)])


def elementary_da(pmc_left, pmc_right, idem_left, idem_right, grading, name="e"):
    return TypeDAStructure(
        pmc_left, pmc_right,
        [ModuleGenerator(name, frozenset(idem_left), frozenset(idem_right),
                         grading % 2)])


def shift(structure):
    """Grading flip on every generator."""
    flipped = [ModuleGenerator(g.name, g.idem_left, g.idem_right,
                               (g.grading + 1) % 2)
               for g in structure.generators.values()]
    cls = type(structure)
    if isinstance(structure, (TypeDAStructure, TypeDDStructure, TypeAAStructure)):
        out = cls(structure.pmc_left, structure.pmc_right, flipped,
                  name=structure.name)
        if isinstance(structure, TypeDAStructure):
            out.delta1 = structure.delta1
        return out
    out = cls(structure.pmc, flipped, name=structure.name)
    if isinstance(structure, TypeDStructure):
        out.delta1 = structure.delta1
    else:
        out.m_ops = structure.m_ops
    return out


def direct_sum(a, b):
    if type(a) is not type(b):
        raise AlgebraMismatch("cannot sum structures of different flavors")
    seen = {g.name for g in a.generators.values()}
    rename = {}
    for g in b.generators.values():
        new = g.name
        while new in seen:
            new = new + "'"
        rename[g.name] = new
        seen.add(new)
    bgens = [ModuleGenerator(rename[g.name], g.idem_left, g.idem_right,
                             g.grading) for g in b.generators.values()]
    gens = list(a.generators.values()) + bgens
    if isinstance(a, TypeDAStructure):
        if (a.pmc_left, a.pmc_right) != (b.pmc_left, b.pmc_right):
            raise AlgebraMismatch("different boundary circles")
        out = TypeDAStructure(a.pmc_left, a.pmc_right, gens)
        out.delta1 = dict(a.delta1)
        for (x, seq), terms in b.delta1.items():
            out.delta1[(rename[x], seq)] = frozenset(
                (c, rename[y]) for c, y in terms)
        return out
    if isinstance(a, (TypeDDStructure, TypeAAStructure)):
        if (a.pmc_left, a.pmc_right) != (b.pmc_left, b.pmc_right):
            raise AlgebraMismatch("different boundary circles")
        return type(a)(a.pmc_left, a.pmc_right, gens)
    if a.pmc != b.pmc:
        raise AlgebraMismatch("different boundary circles")
    if isinstance(a, TypeDStructure):
        out = TypeDStructure(a.pmc, gens)
        out.delta1 = dict(a.delta1)
        for x, terms in b.delta1.items():
            out.delta1[rename[x]] = frozenset((c, rename[y]) for c, y in terms)
        return out
    out = TypeAStructure(a.pmc, gens)
    out.m_ops = dict(a.m_ops)
    for (x, seq), targets in b.m_ops.items():
        out.m_ops[(rename[x], seq)] = frozenset(rename[y] for y in targets)
    return out


# box tensor products ------------------------------------------------------
def box_tensor(a_struct, d_struct):
    """A (x) D along a common boundary circle; returns an F2ChainComplex."""
    from .hochschild import F2ChainComplex
    if a_struct.pmc != d_struct.pmc:
        raise AlgebraMismatch("boundary circles differ")
    if not d_struct.bounded and a_struct.max_arity >= 2:
        raise BothUnbounded("type D side is unbounded")
    gens = []
    grading = {}
    for x in a_struct.generators.values():
        for y in d_struct.generators.values():
            if x.idem_right == y.idem_left:
                gens.append((x.name, y.name))
                grading[(x.name, y.name)] = (x.grading + y.grading) % 2
    diff = {}
    depth = max(a_struct.max_arity - 1, 0)
    for (xn, yn) in gens:
        targets = set()
        for chain, zn in d_struct.delta_chains(yn, depth):
            for wn in a_struct.m(xn, chain):
                if (wn, zn) in grading:
                    targets ^= {(wn, zn)}
        if targets:
            diff[(xn, yn)] = frozenset(targets)
    return F2ChainComplex(gens, grading, diff)


def box_tensor_bimodules(left, right):
    """DA (x) D -> D with structure maps; AA (x) DD -> DA and elementary
    DA (x) elementary D at the generator/idempotent/grading level."""
    if isinstance(left, TypeDAStructure) and isinstance(right, TypeDStructure):
        if left.pmc_right != right.pmc:
            raise AlgebraMismatch("middle circles differ")
        if not right.bounded:
            raise BothUnbounded("type D side is unbounded")
        gens = []
        for x in left.generators.values():
            for y in right.generators.values():
                if x.idem_right == y.idem_left:
                    gens.append(ModuleGenerator(
                        f"{x.name}*{y.name}", x.idem_left, None,
                        (x.grading + y.grading) % 2))
        names = {g.name for g in gens}
        max_inputs = max((len(seq) for _, seq in left.delta1), default=0)
        delta = {}
        for x in left.generators.values():
            for y in right.generators.values():
                src = f"{x.name}*{y.name}"
                if src not in names:
                    continue
                terms = set()
                for chain, zn in right.delta_chains(y.name, max_inputs):
                    for b, wn in left.delta1.get((x.name, chain), ()):
                        tgt = f"{wn}*{zn}"
                        if tgt in names:
                            terms ^= {(b, tgt)}
                if terms:
                    delta[src] = frozenset(terms)
        return TypeDStructure(left.pmc_left, gens, delta)
    if isinstance(left, TypeAAStructure) and isinstance(right, TypeDStructure):
        if left.pmc_right != right.pmc:
            raise AlgebraMismatch("middle circles differ")
        gens = [ModuleGenerator(f"{x.name}*{y.name}", None, x.idem_left,
                                (x.grading + y.grading) % 2)
                for x in left.generators.values()
                for y in right.generators.values()
                if x.idem_right == y.idem_left]
        return TypeAStructure(left.pmc_left, gens)
    if isinstance(left, TypeAAStructure) and isinstance(right, TypeDDStructure):
        if left.pmc_right != right.pmc_left:
            raise AlgebraMismatch("middle circles differ")
        gens = []
        for x in left.generators.values():
            for y in right.generators.values():
                if x.idem_right == y.idem_left:
                    gens.append(ModuleGenerator(
                        f"{x.name}*{y.name}", x.idem_left, y.idem_right,
                        (x.grading + y.grading) % 2))
        return TypeDAStructure(left.pmc_left, right.pmc_right, gens)
    raise AlgebraMismatch(
        f"unsupported pairing {type(left).__name__} (x) {type(right).__name__}")


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
    from .pmc import reverse
    return TypeAAStructure(reverse(pmc), pmc, gens, name="identity_aa")


def theta(s, pmc):
    n2k = pmc.num_classes
    comp = [j for j in range(1, n2k + 1) if j not in s]
    return (len(s) + sum(1 for jp in comp for j in s if j < jp)) % 2


# JSON ---------------------------------------------------------------------
def _gen_from_json(obj):
    try:
        return ModuleGenerator(
            str(obj["name"]),
            frozenset(obj["idem_left"]) if "idem_left" in obj else None,
            frozenset(obj["idem_right"]) if "idem_right" in obj else None,
            int(obj["grading"]) % 2)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaViolation(f"bad generator: {exc}") from exc


def _single_basis(pmc, obj):
    elt = strands.element_from_json(pmc, obj)
    terms = elt.basis_terms()
    if len(terms) != 1:
        raise SchemaViolation("structure coefficients must be basis elements")
    return next(iter(terms))


def _list(op, key):
    value = op[key]
    if not isinstance(value, list):
        raise SchemaViolation(f"op {key!r} must be a list, got {value!r}")
    return value


def _known(names, name):
    if name not in names:
        raise SchemaViolation(f"op names unknown generator {name!r}")
    return name


def structure_from_json(obj):
    try:
        flavor = str(obj["flavor"])
    except (KeyError, TypeError) as exc:
        raise SchemaViolation(f"bad module JSON: {exc}") from exc
    name = obj.get("name", "")
    try:
        gens = [_gen_from_json(g) for g in obj["generators"]]
        names = {g.name for g in gens}
        if flavor == "D":
            pmc = pmc_mod.load(obj["algebra"]["pmc"])
            delta = {}
            for op in obj.get("ops", ()):
                a = _single_basis(pmc, op["output"])
                delta.setdefault(_known(names, op["source"]), set()).add(
                    (a, _known(names, op["target"])))
            return TypeDStructure(pmc, gens, delta, name=name)
        if flavor == "A":
            pmc = pmc_mod.load(obj["algebra"]["pmc"])
            mops = {}
            for op in obj.get("ops", ()):
                seq = tuple(_single_basis(pmc, i) for i in _list(op, "inputs"))
                key = (_known(names, op["source"]), seq)
                mops.setdefault(key, set()).update(
                    _known(names, t) for t in _list(op, "targets"))
            return TypeAStructure(pmc, gens, mops, name=name)
        if flavor == "DA":
            pl = pmc_mod.load(obj["algebra_left"]["pmc"])
            pr = pmc_mod.load(obj["algebra_right"]["pmc"])
            delta = {}
            for op in obj.get("ops", ()):
                seq = tuple(_single_basis(pr, i) for i in _list(op, "inputs"))
                b = _single_basis(pl, op["output"])
                delta.setdefault((_known(names, op["source"]), seq),
                                 set()).add((b, _known(names, op["target"])))
            return TypeDAStructure(pl, pr, gens, delta, name=name)
        if flavor == "DD":
            pl = pmc_mod.load(obj["algebra_left"]["pmc"])
            pr = pmc_mod.load(obj["algebra_right"]["pmc"])
            return TypeDDStructure(pl, pr, gens, name=name)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaViolation(f"bad module JSON: {exc}") from exc
    raise SchemaViolation(f"unknown flavor {flavor}")


def structure_from_file(path):
    with open(path) as fh:
        return structure_from_json(json.load(fh))
