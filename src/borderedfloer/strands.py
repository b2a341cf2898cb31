"""The strands algebra of a pointed matched circle, over GF(2).

Basis elements are M-admissible upward-veering partial permutations (S, T, phi)
of the 4k marked points, taken up to the symmetrization that sums over
completions of fixed (horizontal) strands across their matched class.  The
canonical representative keeps every horizontal strand at the smaller point of
its class; products and differentials expand representatives, operate in the
big strands algebra, and re-canonicalize.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

from .errors import (AlgebraMismatch, InconsistentChordSet, SchemaViolation,
                     StrandsGradingOutOfRange)

# a strand diagram is a tuple of (source, target) pairs sorted by source


def _inv(pairs):
    return sum(1 for i in range(len(pairs)) for j in range(i + 1, len(pairs))
               if pairs[i][1] > pairs[j][1])


def sources(pairs):
    return tuple(s for s, _ in pairs)


def targets(pairs):
    return tuple(sorted(t for _, t in pairs))


def _admissible(pmc, pts):
    classes = [pmc.cls(p) for p in pts]
    return len(set(classes)) == len(classes)


def canonicalize(pmc, pairs):
    out = []
    for s, t in pairs:
        if s == t:
            m = pmc.class_min(pmc.cls(s))
            out.append((m, m))
        else:
            out.append((s, t))
    return tuple(sorted(out))


def is_canonical(pmc, pairs):
    return all(s == pmc.class_min(pmc.cls(s)) for s, t in pairs if s == t)


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


@dataclass(frozen=True)
class StrandsBasisElement:
    pmc: object
    pairs: tuple

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
        return cls(pmc, pairs)

    @property
    def strands_grading(self):
        return len(self.pairs) - self.pmc.k

    @property
    def gr(self):
        return gr_pairs(self.pmc, self.pairs)

    @property
    def is_idempotent(self):
        return all(s == t for s, t in self.pairs)

    def to_json(self):
        return {"source": list(sources(self.pairs)),
                "target": list(targets(self.pairs)),
                "map": [list(p) for p in self.pairs]}


@dataclass(frozen=True)
class StrandsElement:
    pmc: object
    terms: frozenset  # of pairs-tuples (canonical)

    @classmethod
    def zero(cls, pmc):
        return cls(pmc, frozenset())

    @classmethod
    def from_basis(cls, elt):
        return cls(elt.pmc, frozenset([elt.pairs]))

    def basis_terms(self):
        return [StrandsBasisElement(self.pmc, p) for p in sorted(self.terms)]

    def __add__(self, other):
        if self.pmc != other.pmc:
            raise AlgebraMismatch("elements of different algebras")
        return StrandsElement(self.pmc, self.terms ^ other.terms)

    def __bool__(self):
        return bool(self.terms)

    def to_json(self):
        return {"terms": [StrandsBasisElement(self.pmc, p).to_json()
                          for p in sorted(self.terms)]}


def element_from_json(pmc, obj):
    try:
        terms = []
        for term in obj["terms"]:
            if "map" in term:
                pairs = [tuple(p) for p in term["map"]]
            else:
                src, tgt = term["source"], term["target"]
                if len(src) != len(tgt):
                    raise SchemaViolation("source/target length mismatch")
                if len(src) == 1 or sorted(src) == sorted(tgt):
                    # single strand, or an idempotent: the map is forced
                    pairs = (list(zip(sorted(src), sorted(tgt)))
                             if sorted(src) != sorted(tgt)
                             else [(s, s) for s in sorted(src)])
                else:
                    raise SchemaViolation("ambiguous element term needs 'map'")
            terms.append(StrandsBasisElement.make(pmc, pairs).pairs)
    except (KeyError, TypeError) as exc:
        raise SchemaViolation(f"bad element JSON: {exc}") from exc
    out = StrandsElement.zero(pmc)
    for t in terms:
        out = out + StrandsElement(pmc, frozenset([t]))
    return out


# gradings ---------------------------------------------------------------
def gr_pairs(pmc, pairs):
    """Sum of orientations over S and T plus inversions of the class map."""
    total = sum(pmc.o(s) for s, _ in pairs) + sum(pmc.o(t) for _, t in pairs)
    cmap = sorted((pmc.cls(s), pmc.cls(t)) for s, t in pairs)
    total += _inv(tuple(cmap))
    return total % 2


# basis enumeration ------------------------------------------------------
@lru_cache(maxsize=None)
def basis(pmc, i):
    k = pmc.k
    if not -k <= i <= k:
        raise StrandsGradingOutOfRange(f"strands grading {i} outside [{-k},{k}]")
    size = k + i
    out = []
    pts = range(1, pmc.n + 1)
    subsets = [s for s in combinations(pts, size) if _admissible(pmc, s)]
    for s in subsets:
        for t in subsets:
            for perm in permutations(t):
                if all(b >= a for a, b in zip(s, perm)):
                    pairs = tuple(zip(s, perm))
                    if is_canonical(pmc, pairs):
                        out.append(StrandsBasisElement(pmc, pairs))
    out.sort(key=lambda e: e.pairs)
    return out


def all_basis(pmc):
    out = []
    for i in range(-pmc.k, pmc.k + 1):
        out.extend(basis(pmc, i))
    return out


# idempotents ------------------------------------------------------------
def idempotent(pmc, s):
    pairs = tuple(sorted((pmc.class_min(j), pmc.class_min(j)) for j in s))
    return StrandsElement(pmc, frozenset([pairs]))


def idempotent_sum(pmc, i=None):
    """The sum of minimal idempotents (of strands grading i, or all)."""
    gradings = range(-pmc.k, pmc.k + 1) if i is None else [i]
    out = StrandsElement.zero(pmc)
    for g in gradings:
        size = pmc.k + g
        for s in combinations(range(1, pmc.num_classes + 1), size):
            out = out + idempotent(pmc, s)
    return out


# multiplication ---------------------------------------------------------
def _raw_multiply(pa, pb):
    """Product in the big strands algebra; None when zero."""
    if targets(pa) != tuple(sorted(sources(pb))):
        return None
    lookup = dict(pb)
    composed = tuple(sorted((s, lookup[t]) for s, t in pa))
    if _inv(composed) != _inv(pa) + _inv(pb):
        return None
    return composed


@lru_cache(maxsize=None)
def _multiply_pairs(pmc, a, b):
    """Canonical-level basis product; None when zero.

    Picks the unique compatible raw representatives directly: horizontal
    strands are forced wherever one factor's moving endpoints need covering,
    and free common classes sit at their class minimum on both sides.
    """
    mov_a = [(s, t) for s, t in a if s != t]
    mov_b = [(s, t) for s, t in b if s != t]
    fix_a = {pmc.cls(s) for s, t in a if s == t}
    fix_b = {pmc.cls(s) for s, t in b if s == t}
    ta = {t for _, t in mov_a}
    sb = {s for s, _ in mov_b}
    cover_b = {}
    for t in ta - sb:
        c = pmc.cls(t)
        if c not in fix_b:
            return None
        cover_b[c] = t
    cover_a = {}
    for s in sb - ta:
        c = pmc.cls(s)
        if c not in fix_a:
            return None
        cover_a[c] = s
    rest_a = fix_a - set(cover_a)
    rest_b = fix_b - set(cover_b)
    if rest_a != rest_b:
        return None
    free = [(pmc.class_min(c),) * 2 for c in rest_a]
    raw_a = tuple(sorted(mov_a + [(p, p) for p in cover_a.values()] + free))
    raw_b = tuple(sorted(mov_b + [(p, p) for p in cover_b.values()] + free))
    composed = _raw_multiply(raw_a, raw_b)
    if composed is None:
        return None
    return canonicalize(pmc, composed)


def multiply_basis(x, y):
    """Product of two basis elements: a basis element or None."""
    if x.pmc != y.pmc:
        raise AlgebraMismatch("different ambient circles")
    p = _multiply_pairs(x.pmc, x.pairs, y.pairs)
    return None if p is None else StrandsBasisElement(x.pmc, p)


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
    odd = {p for p, c in counts.items() if c % 2}
    return _collect_orbits(pmc, odd)


def _collect_orbits(pmc, raw_terms):
    """Group surviving raw terms into complete symmetrization orbits."""
    groups = {}
    for p in raw_terms:
        groups.setdefault(canonicalize(pmc, p), set()).add(p)
    out = set()
    for key, members in groups.items():
        fixed = sum(1 for s, t in key if s == t)
        assert len(members) == 2 ** fixed, \
            f"incomplete symmetrization orbit at {key}"
        out.add(key)
    return out


def multiply(x, y):
    """Bilinear product of StrandsElements."""
    if x.pmc != y.pmc:
        raise AlgebraMismatch("different ambient circles")
    acc = set()
    for pa in x.terms:
        for pb in y.terms:
            p = _multiply_pairs(x.pmc, pa, pb)
            if p is not None:
                acc ^= {p}
    return StrandsElement(x.pmc, frozenset(acc))


# differential -----------------------------------------------------------
def _raw_differential(pairs):
    """Resolutions of single crossings in the big strands algebra."""
    out = []
    base_inv = _inv(pairs)
    n = len(pairs)
    for i in range(n):
        for j in range(i + 1, n):
            if pairs[i][1] > pairs[j][1]:
                swapped = list(pairs)
                swapped[i] = (pairs[i][0], pairs[j][1])
                swapped[j] = (pairs[j][0], pairs[i][1])
                swapped = tuple(sorted(swapped))
                if _inv(swapped) == base_inv - 1:
                    out.append(swapped)
    return out


@lru_cache(maxsize=None)
def _differential_pairs(pmc, pairs):
    counts = {}
    for rep in raw_expand(pmc, pairs):
        for res in _raw_differential(rep):
            counts[res] = counts.get(res, 0) + 1
    odd = {p for p, c in counts.items() if c % 2}
    return frozenset(_collect_orbits(pmc, odd))


def differential_basis(x):
    return StrandsElement(x.pmc, _differential_pairs(x.pmc, x.pairs))


def differential(x):
    acc = set()
    for p in x.terms:
        acc ^= set(_differential_pairs(x.pmc, p))
    return StrandsElement(x.pmc, frozenset(acc))


# Reeb chords ------------------------------------------------------------
def reeb_element(pmc, chords):
    """a(rho) for a consistent set of Reeb chords [(start, end), ...]."""
    chords = [tuple(c) for c in chords]
    starts = [s for s, _ in chords]
    ends = [e for _, e in chords]
    if any(not 1 <= s < e <= pmc.n for s, e in chords):
        raise InconsistentChordSet("chords must run positively between points")
    if len(set(starts)) != len(starts) or len(set(ends)) != len(ends):
        raise InconsistentChordSet("chords share initial or terminal points")
    used = set(starts) | set(ends)
    rest = [p for p in range(1, pmc.n + 1) if p not in used]
    raw = set()
    for size in range(len(rest) + 1):
        for extra in combinations(rest, size):
            pairs = tuple(sorted(chords + [(p, p) for p in extra]))
            if _admissible(pmc, sources(pairs)) and _admissible(pmc, targets(pairs)):
                raw.add(pairs)
    return StrandsElement(pmc, frozenset(_collect_orbits(pmc, raw)))


def matched_chord(pmc, j):
    """The Reeb chord running across matched class j."""
    lo, hi = pmc.class_points(j)
    return (lo, hi)
