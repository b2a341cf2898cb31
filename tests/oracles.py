"""Test-side reference implementations: slower algorithms, independent of
the ones they check, that the library's results are compared against."""

import itertools
from math import gcd

from borderedfloer.decat import ExteriorElement, det
from borderedfloer.errors import (FlavorViolation, InconsistentChordSet,
                                  NotDecomposable)
from borderedfloer.gradings import BorderedPartialPermutation
from borderedfloer.heegaard import DiagramGenerator
from borderedfloer.knots import _hnf, left_kernel
from borderedfloer.strands import basis, canonicalize, idempotent


class RankDeficient(Exception):
    """The rows given to plucker are linearly dependent."""


def plucker(rows):
    """Maximal minors of an r x m integer matrix, as a degree-r element."""
    rows = [list(map(int, r)) for r in rows]
    r = len(rows)
    m = len(rows[0]) if rows else 0
    out = {}
    for cols in itertools.combinations(range(m), r):
        out[tuple(c + 1 for c in cols)] = det([[row[c] for c in cols]
                                               for row in rows])
    elt = ExteriorElement.single(m, out)
    if not elt:
        raise RankDeficient("rows are linearly dependent")
    return elt


def inversions_by_definition(seq):
    """The pairs of positions i < j with seq[i] > seq[j], one by one."""
    return sum(1 for i, j in itertools.combinations(range(len(seq)), 2)
               if seq[i] > seq[j])


def collect_orbits(pmc, raw_terms):
    """The canonical pairs of a set of representatives in the big strands
    algebra, asserting that each symmetrization orbit is complete: a
    canonical element with f horizontal strands has 2^f representatives."""
    groups = {}
    for p in raw_terms:
        groups.setdefault(canonicalize(pmc, p), set()).add(p)
    for key, members in groups.items():
        fixed = sum(1 for s, t in key if s == t)
        assert len(members) == 2 ** fixed, \
            f"incomplete symmetrization orbit at {key}"
    return set(groups)


def all_basis(pmc):
    """Every basis element of the strands algebra, over all strands
    gradings."""
    return [x for i in range(-pmc.k, pmc.k + 1) for x in basis(pmc, i)]


def reeb_element_by_expansion(pmc, chords):
    """The canonical pairs of the terms of a(rho), by expansion: the chords
    plus horizontal strands on every subset of the points no chord starts or
    ends at, kept when the sources, and the targets, lie in distinct classes,
    then grouped into complete orbits.  Raises InconsistentChordSet as
    ``strands.reeb_element`` does."""
    chords = [tuple(c) for c in chords]
    starts = [s for s, _ in chords]
    ends = [e for _, e in chords]
    if any(not 1 <= s < e <= pmc.n for s, e in chords):
        raise InconsistentChordSet("chords must run positively between points")
    if len(set(starts)) != len(starts) or len(set(ends)) != len(ends):
        raise InconsistentChordSet("chords share initial or terminal points")
    rest = [p for p in range(1, pmc.n + 1) if p not in set(starts) | set(ends)]

    def distinct_classes(points):
        classes = [pmc.matching[p - 1] for p in points]
        return len(set(classes)) == len(classes)

    raw = set()
    for size in range(len(rest) + 1):
        for extra in itertools.combinations(rest, size):
            pairs = tuple(sorted(chords + [(p, p) for p in extra]))
            if distinct_classes([s for s, _ in pairs]) and \
                    distinct_classes([t for _, t in pairs]):
                raw.add(pairs)
    return collect_orbits(pmc, raw)


def sgn_by_definition(bpp):
    """The sign of a BorderedPartialPermutation as its definition reads:
    inv(sigma), plus one for each (image point, unhit D position above it)
    pair, plus t(g - k_l - k_r) when both sides are present."""
    im, d_block = set(bpp.sigma), bpp.d_block
    d_extra = sum(1 for i in im for j in d_block if j > i and j not in im)
    both = bpp.k_l is not None and bpp.k_r is not None
    shape = bpp.t * (bpp.g - bpp.k_l - bpp.k_r) if both else 0
    return (inversions_by_definition(bpp.sigma) + d_extra + shape) % 2


def hochschild_closable(bpp):
    """Whether a DA permutation with k_l = k_r closes up: its left and right
    occupancies complement each other."""
    if bpp.k_l is None or bpp.k_l != bpp.k_r:
        raise FlavorViolation("Hochschild closure needs a DA shape with k_l = k_r")
    kept, folded = bpp.occupied()
    return not (folded & kept) and folded | kept == set(bpp.d_block)


def hochschild_closure(bpp):
    """The closed-up permutation of [g] (requires hochschild_closable)."""
    return tuple(x - bpp.g if x in bpp.a_block else x for x in bpp.sigma)


def f2_rank_by_span(rows):
    """The GF(2) rank of integer bit rows, as log2 of the number of distinct
    sums of subsets of the rows.  Exponential in the number of rows."""
    span = {0}
    for row in rows:
        span |= {v ^ row for v in span}
    return len(span).bit_length() - 1


def box_tensor_ops_by_every_chain(left, right):
    """The ops of left (x) right for a bounded type D right factor, keyed
    by name pairs: {(x, y): {(D-side output or None, (w, z))}}.  Feeds every
    delta^1 chain of right from y, of any length, to left's op on that word,
    and a one-letter idempotent word to left's unit, whose D-side output is
    the idempotent of x's left classes."""
    pairs = {(x.name, y.name) for x in left.generators.values()
             for y in right.generators.values() if x.idem_right == y.idem_left}
    out = {}
    for xn, yn in sorted(pairs):
        x, terms, chains = left.generators[xn], set(), [((), yn)]
        while chains:
            chain, zn = chains.pop()
            found = set(left.ops.get((xn, chain), ()))
            if len(chain) == 1 and chain[0].is_idempotent:
                unit = None
                if left.left == "D":
                    [unit] = idempotent(left.pmc_left, x.idem_left).terms
                found ^= {(unit, xn)}
            terms ^= {(b, (wn, zn)) for b, wn in found if (wn, zn) in pairs}
            chains += [(chain + (a,), z) for a, z in right.ops.get((zn, ()), ())]
        if terms:
            out[(xn, yn)] = terms
    return out


def kernel_rows_by_constraints(p):
    """(content, rows) of a single-factor Plucker point p, by solving
    v ^ (p/content) = 0 as an integer linear system: one constraint per
    (r+1)-subset of 1..m, so C(m, r+1) rows, then a re-check by all C(m, r)
    maximal minors.  Exponential in m; a reference for small points."""
    m = p.dims[0]
    degrees = {len(k) for k in p.terms}
    if len(degrees) != 1:
        raise NotDecomposable("mixed-degree element")
    r = degrees.pop()
    content = 0
    for c in p.terms.values():
        content = gcd(content, abs(c))
    q = {k: c // content for k, c in p.terms.items()}
    # v in W  iff  v ^ q = 0: one constraint per (r+1)-subset w, with
    # coefficient of v_i equal to +-q_{w - i}
    constraints = []
    for w in itertools.combinations(range(1, m + 1), r + 1):
        row = [0] * m
        for pos, i in enumerate(w):
            rest = w[:pos] + w[pos + 1:]
            sign = -1 if pos % 2 else 1  # moving e_i to the front of rest
            row[i - 1] = sign * q.get(rest, 0)
        constraints.append(row)
    # left kernel of the transposed constraint matrix
    transposed = [[constraints[c][i] for c in range(len(constraints))]
                  for i in range(m)]
    rows = _hnf(left_kernel(transposed))
    if len(rows) != r:
        raise NotDecomposable(
            f"solution space has rank {len(rows)}, expected {r}")
    check = plucker(rows)
    target = ExteriorElement.single(m, q)
    if check != target and check != -target:
        raise NotDecomposable("wedge of the recovered rows differs from the point")
    return content, tuple(tuple(row) for row in rows)


def apply_endomorphism(e, v):
    """e(v) for a GradedEndomorphism e and a one-factor ExteriorElement v:
    block j maps the lex-ordered degree-j monomials, columns to rows."""
    out = {}
    for key, c in v.terms.items():
        subsets = list(itertools.combinations(range(1, e.n + 1), len(key)))
        col = subsets.index(key)
        for row, s in enumerate(subsets):
            out[s] = out.get(s, 0) + e.blocks[len(key)][row][col] * c
    return ExteriorElement.single(e.n, out)


def generators_by_product(diagram):
    """(name, sigma, grading, D idempotent, A idempotent) of each
    generator of a diagram, by brute force: every pick of one point per
    beta (betas in order, each beta's points in file order), kept when the
    BorderedPartialPermutation constructor accepts its alpha slots.  The
    slots come from their own offsets (left arcs from 0, circles from 2k_l,
    right arcs from g + k_l - k_r), not from the diagram's table, and the
    idempotents from the picked points' arcs, not from sigma: the D side is
    1..2k_l less the left arcs, the A side the right arcs."""
    g, kl, kr = diagram.genus, diagram.k_l or 0, diagram.k_r or 0
    left, right = diagram.arc_kinds
    offset = {"circle": 2 * kl}
    if diagram.pmc_left is not None:
        offset[left] = 0
    if diagram.pmc_right is not None:
        offset[right] = g + kl - kr
    per_beta = [[p for p in diagram.points if p.beta == beta]
                for beta in range(1, g + 1)]
    out = []
    for combo in itertools.product(*per_beta):
        try:
            sigma = BorderedPartialPermutation(
                g, diagram.k_l, diagram.k_r,
                tuple(offset[p.alpha_kind] + p.alpha for p in combo))
        except FlavorViolation:
            continue
        gen = DiagramGenerator(combo, sigma)
        arcs = [frozenset(p.alpha for p in combo if p.alpha_kind == kind)
                for kind in (left, right)]
        out.append((gen.name, sigma, gen.grading,
                    None if diagram.pmc_left is None
                    else frozenset(range(1, 2 * kl + 1)) - arcs[0],
                    None if diagram.pmc_right is None else arcs[1]))
    return out
