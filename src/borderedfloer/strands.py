"""The strands algebra of a pointed matched circle, over GF(2).

Basis elements are M-admissible upward-veering partial permutations (S, T, phi)
of the 4k marked points, taken up to the symmetrization that sums over
completions of fixed (horizontal) strands across their matched class.  The
canonical representative keeps every horizontal strand at the smaller point of
its class.

Each circle carries tables bounded by its algebra, filled as they are read:
one ``(s, t)`` tuple per strand, shared by every pairs tuple built here; one
interned ``StrandsBasisElement`` per canonical pairs tuple; and the basis per
strands grading.  The interned element is the one name of a basis element
outside the kernels: a ``StrandsElement`` holds a set of them, and an element
memoises its own ``gr`` and its d, as the tuple of its interned terms (``()``
when d = 0), so reading d looks nothing up.  Its ``source_classes`` and
``target_classes``, the classes its strands start and end in, are read off
the class table on each call; x = I(source) x I(target), and every
idempotent check outside this module reads these two.  A structure relation
check reads each d dozens of times but asks for each product about twice, so
products are computed on every call and never stored: a product table would
grow with the pairs asked, not with the algebra.  The kernels loop over
canonical pairs tuples and the circle's per-point tables (class, partner,
class minimum): d resolves a crossing by swapping two targets, which keeps
the source order, and re-sorts only after resolving a horizontal strand; a
product stops at the first two strands that cross in both factors; ``gr``
counts class inversions unsorted.  ``multiply_basis_raw`` expands every
representative in the big strands algebra and stays as an independent
cross-check of ``multiply_basis``.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from itertools import combinations
from operator import attrgetter

from .errors import (AlgebraMismatch, InconsistentChordSet, Record,
                     SchemaViolation, StrandsGradingOutOfRange, check)

# a strand diagram is a tuple of (source, target) pairs sorted by source


def inv_seq(seq):
    """Inversions of a sequence (strict; ties not counted): each entry adds
    the earlier entries above it, counted in a sorted list of them."""
    before, total = [], 0
    for x in seq:
        total += len(before) - bisect_right(before, x)
        insort(before, x)
    return total


def sources(pairs):
    return tuple(s for s, _ in pairs)


def targets(pairs):
    return tuple(sorted(t for _, t in pairs))


def _admissible(pmc, pts):
    classes = [pmc.cls_table[p] for p in pts]
    return len(set(classes)) == len(classes)


def canonicalize(pmc, pairs):
    low, strand = pmc.low_table, _algebra(pmc).strand
    return tuple(sorted(strand[low[s]][low[s]] if s == t else strand[s][t]
                        for s, t in pairs))


def raw_expand(pmc, pairs):
    """All representatives obtained by toggling horizontal strands."""
    reps = [[]]
    for s, t in pairs:
        if s == t:
            p2 = pmc.partner(s)
            reps = [r + [(s, s)] for r in reps] + [r + [(p2, p2)] for r in reps]
        else:
            reps = [r + [(s, t)] for r in reps]
    return [tuple(sorted(r)) for r in reps]


class _Table(dict):
    """A dict that fills a missing entry with ``compute(owner, key)``."""

    __slots__ = ("owner", "compute")

    def __init__(self, owner, compute):
        self.owner, self.compute = owner, compute

    def __missing__(self, key):
        out = self[key] = self.compute(self.owner, key)
        return out


class _Algebra:
    """The tables of one circle's algebra; they live on the circle itself."""

    __slots__ = ("pmc", "strand", "elements", "bases")

    def __init__(self, pmc):
        points = range(pmc.n + 1)
        self.pmc = pmc
        # the one (s, t) tuple of each strand, at strand[s][t]
        self.strand = tuple(tuple((s, t) for t in points) for s in points)
        self.elements = _Table(pmc, StrandsBasisElement)  # pairs -> element
        self.bases = _Table(self, _basis)  # strands grading -> basis elements


def _algebra(pmc):
    alg = pmc.algebra
    if alg is None:
        alg = _Algebra(pmc)
        object.__setattr__(pmc, "algebra", alg)
    return alg


class StrandsBasisElement(Record):
    _fields = ("pmc", "pairs")
    __slots__ = _fields + ("_gr", "_d")  # gr and d's terms, memoised

    def __init__(self, pmc, pairs):
        set_ = object.__setattr__
        set_(self, "pmc", pmc)
        set_(self, "pairs", pairs)
        set_(self, "_gr", None)
        set_(self, "_d", None)

    def __eq__(self, other):
        if other.__class__ is not StrandsBasisElement:
            return NotImplemented
        return (self.pmc, self.pairs) == (other.pmc, other.pairs)

    def __hash__(self):  # equal elements have equal pairs
        return hash(self.pairs)

    @classmethod
    def make(cls, pmc, pairs):
        pairs = tuple(sorted(tuple(p) for p in pairs))
        if any(not 1 <= x <= pmc.n for p in pairs for x in p):
            raise SchemaViolation(f"strand endpoint outside 1..{pmc.n}: {pairs}")
        pairs = canonicalize(pmc, pairs)
        if not _admissible(pmc, sources(pairs)) or not _admissible(pmc, targets(pairs)):
            raise AlgebraMismatch(f"not M-admissible: {pairs}")
        if any(t < s for s, t in pairs):
            raise AlgebraMismatch(f"not upward-veering: {pairs}")
        return _algebra(pmc).elements[pairs]

    @property
    def strands_grading(self):
        return len(self.pairs) - self.pmc.k

    @property
    def gr(self):
        if self._gr is None:
            object.__setattr__(self, "_gr", gr_pairs(self.pmc, self.pairs))
        return self._gr

    @property
    def is_idempotent(self):
        return all(s == t for s, t in self.pairs)

    # an interned element's points lie in 1..n: the table needs no guard
    @property
    def source_classes(self):
        cls = self.pmc.cls_table
        return frozenset(cls[s] for s, _ in self.pairs)

    @property
    def target_classes(self):
        cls = self.pmc.cls_table
        return frozenset(cls[t] for _, t in self.pairs)

    def to_json(self):
        return {"source": list(sources(self.pairs)),
                "target": list(targets(self.pairs)),
                "map": [list(p) for p in self.pairs]}


class StrandsElement(Record):
    __slots__ = _fields = ("pmc", "terms")  # terms: a frozenset of basis elements

    def __init__(self, pmc, terms):
        object.__setattr__(self, "pmc", pmc)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def zero(cls, pmc):
        return cls(pmc, frozenset())

    @classmethod
    def from_basis(cls, elt):
        return cls(elt.pmc, frozenset([elt]))

    def basis_terms(self):
        return sorted(self.terms, key=attrgetter("pairs"))

    def __add__(self, other):
        if self.pmc != other.pmc:
            raise AlgebraMismatch("elements of different algebras")
        return StrandsElement(self.pmc, self.terms ^ other.terms)

    def __bool__(self):
        return bool(self.terms)

    def to_json(self):
        return {"terms": [e.to_json() for e in self.basis_terms()]}


def json_basis_terms(pmc, obj, path=""):
    """The set of interned basis elements of the element a JSON object at
    ``path`` names; a term listed twice cancels.  A term gives its map, or
    its source and target where they force it (one strand, or an
    idempotent); a source or target next to a map must match the map."""
    point = range(1, pmc.n + 1)
    check(obj, {"terms": [{"source?": [point], "target?": [point],
                           "map?": [[point, point]]}]}, path)
    out = set()
    for i, term in enumerate(obj["terms"]):
        src, tgt = (sorted(term[k]) if k in term else None
                    for k in ("source", "target"))
        pairs = term.get("map")
        if pairs is None and None not in (src, tgt) and \
                (len(src) == len(tgt) == 1 or src == tgt):
            pairs = list(zip(src, tgt))
        if pairs is None or any(ends not in (None, sorted(p[k] for p in pairs))
                                for k, ends in enumerate((src, tgt))):
            raise SchemaViolation("expected a map, or a source and a target that "
                                  "force it and match it", f"{path}.terms[{i}]")
        out ^= {StrandsBasisElement.make(pmc, pairs)}
    return out


# gradings ---------------------------------------------------------------
def gr_pairs(pmc, pairs):
    """Sum of orientations over S and T plus inversions of the class map: the
    pairs of strands whose source and target classes lie in opposite orders."""
    o, cls = pmc.orientation, pmc.cls_table
    total = 0
    seen = []  # (source class, target class) of the strands before
    for s, t in pairs:
        a, b = cls[s], cls[t]
        total += o[s - 1] + o[t - 1]
        for a2, b2 in seen:
            if (a2 < a) != (b2 < b):
                total += 1
        seen.append((a, b))
    return total % 2


# basis enumeration ------------------------------------------------------
def _basis(alg, i):
    """The interned basis elements of strands grading i, in increasing order
    of their canonical pairs tuples.

    Backtracks over sources in increasing order, giving each a target no lower
    than it: the sources lie in distinct classes, so do the targets, and a
    horizontal strand sits only at the minimum of its class.
    """
    pmc, strand, elements = alg.pmc, alg.strand, alg.elements
    n, low, size = pmc.n, pmc.low_table, pmc.k + i
    bit = [0] + [1 << c for c in pmc.matching]
    out = []
    prefix = []

    def extend(first, src_used, tgt_used):
        left = size - len(prefix)
        if not left:
            out.append(elements[tuple(prefix)])
            return
        for s in range(first, n + 2 - left):
            if src_used & bit[s]:
                continue
            row = strand[s]
            for t in range(s if low[s] == s else s + 1, n + 1):
                if tgt_used & bit[t]:
                    continue
                prefix.append(row[t])
                extend(s + 1, src_used | bit[s], tgt_used | bit[t])
                prefix.pop()

    extend(1, 0, 0)
    return tuple(out)


def basis(pmc, i):
    k = pmc.k
    if not -k <= i <= k:
        raise StrandsGradingOutOfRange(f"strands grading {i} outside [{-k},{k}]")
    return _algebra(pmc).bases[i]


# idempotents ------------------------------------------------------------
def idempotent(pmc, s):
    alg = _algebra(pmc)
    pairs = tuple(sorted(alg.strand[m][m] for m in map(pmc.class_min, s)))
    return StrandsElement(pmc, frozenset([alg.elements[pairs]]))


# multiplication ---------------------------------------------------------
def _raw_multiply(pa, pb):
    """Product in the big strands algebra; None when zero."""
    if targets(pa) != tuple(sorted(sources(pb))):
        return None
    lookup = dict(pb)
    composed = tuple(sorted((s, lookup[t]) for s, t in pa))
    inv = [inv_seq([t for _, t in p]) for p in (composed, pa, pb)]
    if inv[0] != inv[1] + inv[2]:
        return None
    return composed


def _product(alg, a, b):
    """The interned product of the basis elements with pairs a, b; None for 0.

    Picks the one pair of raw representatives that compose: each strand x -> y
    of a meets the strand of b leaving y.  A horizontal strand of b moves to
    the end of a's moving strand in its class, a horizontal strand of a moves
    to the start of b's moving strand in its class, and two horizontal
    strands of one class both stay at its minimum, so the composite needs no
    re-canonicalizing.  The product is zero unless every strand of b is met
    once (the strands of a meet strands of b in distinct classes, so equal
    counts suffice) and no two strands cross in both factors.
    """
    if len(a) != len(b):
        return None
    partner, strand = alg.pmc.partner_table, alg.strand
    leave_b = dict(b)  # start of a strand of b -> its end
    paths = []  # (x, y, z): a runs x -> y, then b runs y -> z
    moved = False  # whether a horizontal strand of a moved to its partner
    for x, y in a:
        z = leave_b.get(y)
        if z is None:  # no strand of b starts at y; try the other point
            p = partner[y]
            z = leave_b.get(p)
            if z == p:  # a horizontal strand of b holds the class
                z = y
            elif z is None or x != y:
                return None
            else:  # a's horizontal strand moves to the start of b's
                x = y = p
                moved = True
        for x2, y2, z2 in paths:
            if (x < x2) == (z < z2) != (y < y2):  # crosses in a and in b
                return None
        paths.append((x, y, z))
    out = [strand[x][z] for x, _, z in paths]
    return alg.elements[tuple(sorted(out) if moved else out)]


def multiply_basis(x, y):
    """Product of two basis elements: a basis element or None."""
    if x.pmc is not y.pmc and x.pmc != y.pmc:
        raise AlgebraMismatch("different ambient circles")
    return _product(_algebra(x.pmc), x.pairs, y.pairs)


def multiply_basis_raw(x, y):
    """Slow reference product via full representative expansion.

    Used as an independent cross-check of multiply_basis in the test suite.
    """
    if x.pmc != y.pmc:
        raise AlgebraMismatch("different ambient circles")
    pmc = x.pmc
    counts = {}
    for ra in raw_expand(pmc, x.pairs):
        for rb in raw_expand(pmc, y.pairs):
            c = _raw_multiply(ra, rb)
            if c is not None:
                counts[c] = counts.get(c, 0) + 1
    orbits = {}  # canonical pairs -> how many representatives survive
    for p, c in counts.items():
        if c % 2:
            key = canonicalize(pmc, p)
            orbits[key] = orbits.get(key, 0) + 1
    for key, size in orbits.items():
        assert size == 2 ** sum(s == t for s, t in key), \
            f"incomplete symmetrization orbit at {key}"
    return set(orbits)


def multiply(x, y):
    """Bilinear product of StrandsElements."""
    if x.pmc is not y.pmc and x.pmc != y.pmc:
        raise AlgebraMismatch("different ambient circles")
    alg = _algebra(x.pmc)
    acc = set()
    for a in x.terms:
        for b in y.terms:
            p = _product(alg, a.pairs, b.pairs)
            if p is not None:
                acc ^= {p}
    return StrandsElement(x.pmc, frozenset(acc))


# differential -----------------------------------------------------------
def _differential(alg, pairs):
    """The interned terms of d of the basis element with these pairs.

    Resolves each crossing of the canonical representative: moving strands
    (s1, t1), (s2, t2) with s1 < s2 and t1 > t2 become (s1, t2), (s2, t1); a
    moving strand (s, t) and a horizontal class with a point h, s < h < t,
    become (s, h), (h, t), for either point h of the class.  A resolution
    counts only when no moving strand runs from inside the source interval
    to inside the target interval (that would leave a double crossing); no
    horizontal strand can, as strands only veer upwards.  This is the sum over
    all representatives, read off one orbit at a time: every resolution gives
    a different term, so nothing cancels, and the tuple's terms are distinct.
    """
    partner, strand, elements = alg.pmc.partner_table, alg.strand, alg.elements
    n = len(pairs)
    flat = [s for s, t in pairs if s == t]
    out = []
    for i, (s1, t1) in enumerate(pairs):
        if s1 == t1:
            continue
        # pairs is sorted by source; top is the highest end below t1 of the
        # strands met so far, so a crossing with (s2, t2) is free iff t2 > top
        top = s1
        for j in range(i + 1, n):
            s2, t2 = pairs[j]
            if top < t2 < t1:
                top = t2
                if s2 != t2:  # swapping two targets keeps the order
                    new = list(pairs)
                    new[i], new[j] = strand[s1][t2], strand[s2][t1]
                    out.append(elements[tuple(new)])
        for m in flat:
            for h in (m, partner[m]):
                if s1 < h < t1:
                    for s, t in pairs:
                        if s1 < s < h < t < t1:
                            break
                    else:  # the horizontal resolution alone re-sorts
                        out.append(elements[tuple(sorted(
                            [p for p in pairs if p[0] not in (s1, m)]
                            + [strand[s1][h], strand[h][t1]]))])
    return tuple(out)


def differential_terms(x):
    """d of a basis element: the tuple of its interned terms, unsorted
    (``()`` when d = 0), memoised on x."""
    d = x._d
    if d is None:
        d = _differential(x.pmc.algebra or _algebra(x.pmc), x.pairs)
        object.__setattr__(x, "_d", d)
    return d


def differential_basis(x):
    return StrandsElement(x.pmc, frozenset(differential_terms(x)))


def differential(x):
    acc = set()
    for b in x.terms:
        acc.symmetric_difference_update(differential_terms(b))
    return StrandsElement(x.pmc, frozenset(acc))


# Reeb chords ------------------------------------------------------------
def reeb_element(pmc, chords):
    """a(rho) for a consistent set of Reeb chords [(start, end), ...]: one
    term for each set of classes that no chord starts or ends in, the chords
    plus a horizontal strand at the minimum of each of those classes; zero
    when the chords' starts, or their ends, share a class."""
    chords = [tuple(c) for c in chords]
    starts = [s for s, _ in chords]
    ends = [e for _, e in chords]
    if any(not 1 <= s < e <= pmc.n for s, e in chords):
        raise InconsistentChordSet("chords must run positively between points")
    if len(set(starts)) != len(starts) or len(set(ends)) != len(ends):
        raise InconsistentChordSet("chords share initial or terminal points")
    if not _admissible(pmc, starts) or not _admissible(pmc, ends):
        return StrandsElement.zero(pmc)
    used = {pmc.cls_table[p] for p in starts + ends}
    free = [pmc.class_min(j) for j in range(1, pmc.num_classes + 1) if j not in used]
    return StrandsElement(pmc, frozenset(
        StrandsBasisElement.make(pmc, chords + [(m, m) for m in extra])
        for size in range(len(free) + 1) for extra in combinations(free, size)))
