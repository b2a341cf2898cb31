import collections
import itertools
import random

import pytest

from borderedfloer import pmc as pmc_mod
from borderedfloer import strands
from borderedfloer.errors import (AlgebraMismatch, InconsistentChordSet,
                                  SchemaViolation, StrandsGradingOutOfRange)

from oracle_constants import (STRANDS_DIMS_GENUS1, STRANDS_DIMS_GENUS2_SPLIT,
                              STRANDS_DIMS_GENUS3_SPLIT)
from oracles import (all_basis, collect_orbits, inversions_by_definition,
                     reeb_element_by_expansion)
from test_structures import identity_da

Z1 = pmc_mod.genus1()
Z2 = pmc_mod.genus2_split()
Z2_ANTIPODAL = pmc_mod.PointedMatchedCircle((1, 2, 3, 4, 1, 2, 3, 4),
                                            (1, 1, 1, 1, 0, 0, 0, 0))
Z3 = pmc_mod.connected_sum(pmc_mod.genus2_split(), pmc_mod.genus1())


def test_basis_dimensions_match_oracle():
    dims1 = {i: len(strands.basis(Z1, i)) for i in range(-1, 2)}
    assert dims1 == STRANDS_DIMS_GENUS1
    dims2 = {i: len(strands.basis(Z2, i)) for i in range(-2, 3)}
    assert dims2 == STRANDS_DIMS_GENUS2_SPLIT


def test_basis_grading_out_of_range():
    with pytest.raises(StrandsGradingOutOfRange):
        strands.basis(Z1, 2)
    with pytest.raises(StrandsGradingOutOfRange):
        strands.basis(Z2, -3)


def test_canonical_representatives():
    for x in all_basis(Z2):
        assert strands.canonicalize(Z2, x.pairs) == x.pairs
        assert x.strands_grading == len(x.pairs) - Z2.k


def test_make_rejections():
    with pytest.raises(AlgebraMismatch):
        strands.StrandsBasisElement.make(Z1, [(1, 1), (3, 3)])  # same class twice
    with pytest.raises(AlgebraMismatch):
        strands.StrandsBasisElement.make(Z1, [(3, 1)])  # downward-veering
    for pairs in ([(0, 1)], [(-1, 2)], [(1, 5)]):  # endpoints outside 1..4
        with pytest.raises(SchemaViolation):
            strands.StrandsBasisElement.make(Z1, pairs)


@pytest.mark.parametrize("entry", [[1, 2, 3], [1]], ids=["triple", "single"])
def test_element_from_json_rejects_map_entries_that_are_not_pairs(entry):
    with pytest.raises(SchemaViolation):
        strands.json_basis_terms(Z1, {"terms": [{"map": [entry]}]})


def test_fast_product_matches_raw_genus1():
    elts = all_basis(Z1)
    for x in elts:
        for y in elts:
            fast = strands.multiply_basis(x, y)
            slow = strands.multiply_basis_raw(x, y)
            if fast is None:
                assert slow == set()
            else:
                assert slow == {fast.pairs}


def test_fast_product_matches_raw_genus2_sampled():
    elts = all_basis(Z2)
    rng = random.Random(7)
    for _ in range(400):
        x, y = rng.choice(elts), rng.choice(elts)
        fast = strands.multiply_basis(x, y)
        slow = strands.multiply_basis_raw(x, y)
        if fast is None:
            assert slow == set()
        else:
            assert slow == {fast.pairs}


def test_fast_product_matches_raw_genus3_split_sampled():
    # seeded class-composable pairs: x's target classes are y's source classes
    b0 = strands.basis(Z3, 0)
    by_source = collections.defaultdict(list)
    for y in b0:
        by_source[frozenset(Z3.cls(s) for s, _ in y.pairs)].append(y)
    rng = random.Random(1501)
    nonzero = 0
    for _ in range(2000):
        x = rng.choice(b0)
        y = rng.choice(by_source[frozenset(Z3.cls(t) for _, t in x.pairs)])
        fast = strands.multiply_basis(x, y)
        slow = strands.multiply_basis_raw(x, y)
        assert slow == (set() if fast is None else {fast.pairs})
        nonzero += fast is not None
    assert nonzero > 200


def gr_by_definition(z, pairs):
    """gr read off its definition, sharing no code with strands: the
    orientations of the points of S and of T, plus the inversions of the map
    from source classes to target classes, mod 2."""
    point_class = dict(enumerate(z.matching, start=1))
    total = sum(z.orientation[s - 1] + z.orientation[t - 1] for s, t in pairs)
    class_map = sorted((point_class[s], point_class[t]) for s, t in pairs)
    total += sum(1 for (_, t1), (_, t2) in itertools.combinations(class_map, 2)
                 if t1 > t2)
    return total % 2


@pytest.mark.parametrize("z, top", [(Z1, 1), (Z2, 2), (Z2_ANTIPODAL, 2), (Z3, 0)],
                         ids=["genus1", "genus2_split", "genus2_antipodal",
                              "genus3_split"])
def test_gr_matches_its_definition(z, top):
    for i in range(-z.k, top + 1):
        for x in strands.basis(z, i):
            assert x.gr == gr_by_definition(z, x.pairs)


def test_associativity_genus1():
    elts = all_basis(Z1)
    for x, y, z in itertools.product(elts, repeat=3):
        xy = strands.multiply_basis(x, y)
        yz = strands.multiply_basis(y, z)
        lhs = strands.multiply_basis(xy, z) if xy is not None else None
        rhs = strands.multiply_basis(x, yz) if yz is not None else None
        assert lhs == rhs


def test_differential_squares_to_zero():
    for z in (Z1, Z2):
        for x in all_basis(z):
            dx = strands.differential_basis(x)
            assert not strands.differential(dx)


def test_leibniz_genus1():
    elts = all_basis(Z1)
    for x, y in itertools.product(elts, repeat=2):
        ex = strands.StrandsElement.from_basis(x)
        ey = strands.StrandsElement.from_basis(y)
        lhs = strands.differential(strands.multiply(ex, ey))
        rhs = (strands.multiply(strands.differential(ex), ey)
               + strands.multiply(ex, strands.differential(ey)))
        assert lhs == rhs


def test_grading_rules():
    # differential raises gr by 1, product is additive, mod 2
    for z in (Z1,):
        for x in all_basis(z):
            for term in strands.differential_basis(x).basis_terms():
                assert term.gr == (x.gr + 1) % 2
            for y in all_basis(z):
                p = strands.multiply_basis(x, y)
                if p is not None:
                    assert p.gr == (x.gr + y.gr) % 2


def test_named_chords():
    rho2 = strands.StrandsBasisElement.make(Z1, [(2, 3)])
    rho3 = strands.StrandsBasisElement.make(Z1, [(3, 4)])
    assert rho2.gr == 1
    assert rho3.gr == 0


def test_idempotents():
    iota = strands.idempotent(Z1, (1,))
    assert all(e.is_idempotent for e in iota.terms)
    # minimal idempotents act as left/right units on compatible elements
    total = iota + strands.idempotent(Z1, (2,))
    for x in strands.basis(Z1, 0):
        ex = strands.StrandsElement.from_basis(x)
        assert strands.multiply(total, ex) == ex
        assert strands.multiply(ex, total) == ex


def test_reeb_element():
    lo, hi = Z1.class_points(1)
    a = strands.reeb_element(Z1, [(lo, hi)])
    assert a
    with pytest.raises(InconsistentChordSet):
        strands.reeb_element(Z1, [(3, 2)])
    with pytest.raises(InconsistentChordSet):
        strands.reeb_element(Z1, [(1, 3), (1, 4)])


@pytest.mark.parametrize("z, most", [(Z1, 3), (Z2, 2)],
                         ids=["genus1", "genus2_split"])
def test_reeb_element_matches_its_expansion(z, most):
    """a(rho) on every set of at most `most` chords between points of z,
    against the sum over every placement of horizontal strands, grouped
    into orbits: the same terms, or the same InconsistentChordSet."""
    chords = list(itertools.product(range(1, z.n + 1), repeat=2))
    seen = collections.Counter()
    for size in range(most + 1):
        for rho in itertools.combinations(chords, size):
            try:
                want = reeb_element_by_expansion(z, rho)
            except InconsistentChordSet:
                with pytest.raises(InconsistentChordSet):
                    strands.reeb_element(z, rho)
                seen["inconsistent"] += 1
                continue
            a = strands.reeb_element(z, rho)
            assert {e.pairs for e in a.terms} == want, rho
            assert all(e is strands.StrandsBasisElement.make(z, e.pairs)
                       for e in a.terms), rho
            seen["zero" if not want else "nonzero"] += 1
    assert min(seen.values()) > 0 and len(seen) == 3, seen


def test_mismatched_circles():
    x = all_basis(Z1)[0]
    y = all_basis(Z2)[0]
    ex, ey = (strands.StrandsElement.from_basis(b) for b in (x, y))
    for operation, message in (
            (lambda: strands.multiply_basis(x, y), "different ambient circles"),
            (lambda: strands.multiply_basis_raw(x, y),
             "different ambient circles"),
            (lambda: strands.multiply(ex, ey), "different ambient circles"),
            (lambda: ex + ey, "elements of different algebras")):
        with pytest.raises(AlgebraMismatch, match=f"^{message}$"):
            operation()


def test_element_json_roundtrip():
    x = strands.StrandsBasisElement.make(Z1, [(1, 1), (2, 4)])
    ex = strands.StrandsElement.from_basis(x)
    assert strands.json_basis_terms(Z1, ex.to_json()) == ex.terms
    with pytest.raises(SchemaViolation):
        strands.json_basis_terms(Z1, {"terms": [{"source": [1, 2]}]})


def basis_by_permutation_filter(z, i):
    """Every permutation of every admissible target set, kept if canonical."""
    size = z.k + i
    subsets = [s for s in itertools.combinations(range(1, z.n + 1), size)
               if len({z.cls(p) for p in s}) == size]
    out = []
    for src in subsets:
        for tgt in subsets:
            for perm in itertools.permutations(tgt):
                pairs = tuple(zip(src, perm))
                if (all(t >= s for s, t in pairs)
                        and all(s == z.class_min(z.cls(s))
                                for s, t in pairs if s == t)):
                    out.append(pairs)
    return sorted(out)


def differential_by_expansion(z, pairs):
    """d summed over every representative in the big strands algebra."""
    def inv(pairs):  # inversions of the targets, in source order
        return inversions_by_definition([t for _, t in pairs])

    counts = collections.Counter()
    for rep in strands.raw_expand(z, pairs):
        base = inv(rep)
        for i, j in itertools.combinations(range(len(rep)), 2):
            if rep[i][1] > rep[j][1]:
                swapped = list(rep)
                swapped[i] = (rep[i][0], rep[j][1])
                swapped[j] = (rep[j][0], rep[i][1])
                swapped = tuple(sorted(swapped))
                if inv(swapped) == base - 1:
                    counts[swapped] += 1
    return collect_orbits(z, {p for p, c in counts.items() if c % 2})


@pytest.mark.parametrize("z, top", [(Z1, 1), (Z2, 2), (Z2_ANTIPODAL, 2), (Z3, 0)],
                         ids=["genus1", "genus2_split", "genus2_antipodal",
                              "genus3_split"])
def test_basis_matches_permutation_filter(z, top):
    for i in range(-z.k, top + 1):
        assert [x.pairs for x in strands.basis(z, i)] == \
            basis_by_permutation_filter(z, i)


def test_differential_matches_expansion():
    for z in (Z1, Z2, Z2_ANTIPODAL):
        for x in all_basis(z):
            assert {e.pairs for e in strands.differential_basis(x).terms} == \
                differential_by_expansion(z, x.pairs)
    rng = random.Random(11)
    for i in range(-Z3.k, Z3.k + 1):
        for x in rng.sample(strands.basis(Z3, i), min(300, len(strands.basis(Z3, i)))):
            assert {e.pairs for e in strands.differential_basis(x).terms} == \
                differential_by_expansion(Z3, x.pairs)


def test_elements_are_interned():
    for z in (Z1, Z2):
        elts = all_basis(z)
        shared = {x.pairs: x for x in elts}
        for i in range(-z.k, z.k + 1):
            assert strands.basis(z, i) is strands.basis(z, i)
        for x in elts:
            assert x.gr == strands.gr_pairs(z, x.pairs)
            assert strands.StrandsBasisElement.make(z, x.pairs) is x
            for term in strands.differential_basis(x).basis_terms():
                assert term is shared[term.pairs]
        rng = random.Random(5)
        for x, y in itertools.product(rng.sample(elts, min(60, len(elts))),
                                      repeat=2):
            p = strands.multiply_basis(x, y)
            assert p is None or p is shared[p.pairs]
    # an equal circle that is another object has its own table, and agrees
    twin = pmc_mod.genus1()
    x, y = (strands.StrandsBasisElement.make(twin, [(1, 2)]),
            strands.StrandsBasisElement.make(Z1, [(2, 3)]))
    assert x.pmc is twin and x == strands.StrandsBasisElement.make(Z1, [(1, 2)])
    assert strands.multiply_basis(x, y).pairs == ((1, 3),)


@pytest.mark.parametrize("z, top", [(Z1, 1), (Z2, 2), (Z2_ANTIPODAL, 2), (Z3, 0)],
                         ids=["genus1", "genus2_split", "genus2_antipodal",
                              "genus3_split"])
def test_tables_hold_one_copy_of_each_strand_diagram(z, top):
    alg = strands._algebra(z)
    for i in range(-z.k, top + 1):
        # d keeps the number of strands: its terms lie in the same basis
        shared = {x.pairs: x for x in strands.basis(z, i)}
        for x in strands.basis(z, i):
            assert all(p is alg.strand[p[0]][p[1]] for p in x.pairs), x.pairs
            entry = strands.differential_terms(x)
            assert entry is x._d, x.pairs  # memoised on the element
            assert strands.differential_terms(x) is entry, x.pairs
            # differential xors entries through a set: terms must be distinct
            assert len(set(entry)) == len(entry), x.pairs
            assert all(t is alg.elements[t.pairs] for t in entry), x.pairs
            assert all(t is shared[t.pairs] for t in entry), x.pairs
            assert type(strands.differential_basis(x).terms) is frozenset


def test_memos_change_no_comparison_and_stay_on_their_circle():
    """An element with its gr and d memos filled equals, hashes and prints
    like the same element over an equal circle that is another object and
    has empty memos, and so do the elements of the algebra they span;
    filling one circle's memos fills nothing on the other's."""
    a, b = pmc_mod.genus2_split(), pmc_mod.genus2_split()
    assert a == b and a is not b
    pairs = next(x.pairs for x in strands.basis(Z2, 0)
                 if strands.differential_basis(x))
    x, y = (strands.StrandsBasisElement.make(z, pairs) for z in (a, b))
    shown = repr(x)
    assert (x._gr, x._d) == (None, None)
    assert x.gr in (0, 1) and strands.differential_basis(x)
    assert x._gr is not None and x._d
    assert (y._gr, y._d) == (None, None)
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y) == shown
    assert strands.differential_terms(y) == x._d
    assert all(p is not q and q is b.algebra.elements[q.pairs]
               for p, q in zip(x._d, y._d))
    for ex, ey in ((strands.StrandsElement.from_basis(x),
                    strands.StrandsElement.from_basis(y)),
                   (strands.differential_basis(x), strands.differential_basis(y))):
        assert (ex.pmc, ey.pmc) == (a, b) and ex.pmc is not ey.pmc
        assert ex == ey and hash(ex) == hash(ey) and repr(ex) == repr(ey)
    assert not strands.differential_basis(x) + strands.differential_basis(y)


@pytest.mark.parametrize("z", [Z2, Z2_ANTIPODAL], ids=["genus2_split",
                                                       "genus2_antipodal"])
def test_differential_terms_agree_with_differential_basis(z):
    for x in all_basis(z):
        assert set(strands.differential_terms(x)) == set(
            strands.differential_basis(x).basis_terms()), x.pairs


def test_tables_are_bounded_by_the_algebra():
    """Products are computed, not stored: after the genus-2 split identity
    DA's relation check (10,572 products asked, of 5,286 distinct pairs), no
    table on the circle holds more entries than the circle has basis
    elements."""
    z = pmc_mod.genus2_split()
    assert identity_da(z).validate()["ok"]
    alg = strands._algebra(z)
    size = len(all_basis(z))
    for name in strands._Algebra.__slots__:
        if name != "pmc":
            assert len(getattr(alg, name)) <= size, name
    x, y = (strands.StrandsBasisElement.make(z, [(1, 2)]),
            strands.StrandsBasisElement.make(z, [(2, 3)]))
    assert strands.multiply_basis(x, y) is strands.multiply_basis(x, y)
    assert strands.multiply_basis(x, y).pairs == ((1, 3),)


def test_genus3_split_gate():
    dims = {i: len(strands.basis(Z3, i)) for i in range(-Z3.k, Z3.k + 1)}
    assert dims == STRANDS_DIMS_GENUS3_SPLIT
    elts = all_basis(Z3)
    assert len(elts) == 59648
    for x in elts:
        dx = strands.differential_basis(x)
        assert not strands.differential(dx)
        assert all(t.gr == (x.gr + 1) % 2 for t in dx.basis_terms())

    # seeded class-composable triples: x's target classes are y's source classes
    by_source = collections.defaultdict(list)
    for y in elts:
        by_source[frozenset(Z3.cls(s) for s, _ in y.pairs)].append(y)

    def after(rng, x):
        return rng.choice(by_source[frozenset(Z3.cls(t) for _, t in x.pairs)])

    rng = random.Random(2015)
    nonzero = 0
    for _ in range(3000):
        x = rng.choice(elts)
        y = after(rng, x)
        w = after(rng, y)
        xy = strands.multiply_basis(x, y)
        yw = strands.multiply_basis(y, w)
        lhs = strands.multiply_basis(xy, w) if xy is not None else None
        rhs = strands.multiply_basis(x, yw) if yw is not None else None
        assert lhs == rhs
        if xy is not None:
            nonzero += 1
            assert xy.gr == (x.gr + y.gr) % 2
        ex = strands.StrandsElement.from_basis(x)
        ey = strands.StrandsElement.from_basis(y)
        assert strands.differential(strands.multiply(ex, ey)) == (
            strands.multiply(strands.differential(ex), ey)
            + strands.multiply(ex, strands.differential(ey)))
    assert nonzero > 300


@pytest.mark.parametrize("z", [Z1, Z2, Z2_ANTIPODAL],
                         ids=["genus1", "genus2_split", "genus2_antipodal"])
def test_class_sets_are_the_classes_the_strands_start_and_end_in(z):
    for x in all_basis(z):
        assert x.source_classes == frozenset(z.cls(s) for s, _ in x.pairs)
        assert x.target_classes == frozenset(z.cls(t) for _, t in x.pairs)
