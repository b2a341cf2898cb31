import importlib.resources as resources
import itertools
import json

import pytest
from hypothesis import given, strategies as st

from borderedfloer import pmc
from borderedfloer.errors import (BadOrientationPair, DisconnectedSurgery,
                                  NonSurjectiveMatching, SchemaViolation)

from oracle_constants import SURGERY_EXAMPLES, SURGERY_N4, SURGERY_N8


def all_matchings(n):
    """All 2-to-1 matchings of [n] with ascending class labels."""
    points = list(range(n))

    def rec(remaining, cls):
        if not remaining:
            yield {}
            return
        first = remaining[0]
        for partner in remaining[1:]:
            rest = [p for p in remaining if p not in (first, partner)]
            for sub in rec(rest, cls + 1):
                sub = dict(sub)
                sub[first] = cls
                sub[partner] = cls
                yield sub
    for assignment in rec(points, 1):
        yield tuple(assignment[p] for p in points)


def oriented(matching):
    seen = set()
    o = []
    for c in matching:
        o.append(pmc.NEG if c not in seen else pmc.POS)
        seen.add(c)
    return tuple(o)


def surgery_histogram(n):
    hist = {}
    for m in all_matchings(n):
        z = pmc.PointedMatchedCircle(m, oriented(m))
        comps = pmc._surgery_components(z)
        hist[comps] = hist.get(comps, 0) + 1
    return hist


def test_surgery_counts_match_oracle():
    h4 = surgery_histogram(4)
    assert h4 == SURGERY_N4["histogram"]
    assert h4.get(1, 0) == SURGERY_N4["connected"]
    h8 = surgery_histogram(8)
    assert h8 == SURGERY_N8["histogram"]
    assert h8.get(1, 0) == SURGERY_N8["connected"]


def test_surgery_examples():
    for matching, comps in SURGERY_EXAMPLES.items():
        z = pmc.PointedMatchedCircle(matching, oriented(matching))
        assert pmc._surgery_components(z) == comps


def test_validate_genus1():
    assert pmc.validate(pmc.genus1())
    assert pmc.validate(pmc.genus2_split())
    assert pmc.validate(pmc.trefoil_pmc())


def test_validate_rejections():
    with pytest.raises(NonSurjectiveMatching):
        pmc.validate(pmc.PointedMatchedCircle((1, 1, 1, 2), (1, 0, 1, 0)))
    with pytest.raises(BadOrientationPair):
        pmc.validate(pmc.PointedMatchedCircle((1, 2, 1, 2), (0, 1, 1, 0)))
    with pytest.raises(DisconnectedSurgery):
        pmc.validate(pmc.PointedMatchedCircle((1, 1, 2, 2), (1, 0, 1, 0)))
    with pytest.raises(NonSurjectiveMatching):
        pmc.validate(pmc.PointedMatchedCircle((1, 2, 1), (1, 1, 0)))


@pytest.mark.parametrize("p", [0, -1, 5])
def test_point_lookups_reject_points_outside_the_circle(p):
    # p = 5 is one past genus 1's points; on the genus-3 split circle the
    # point one past its tables is n + 1 = 13
    z3 = pmc.connected_sum(pmc.genus2_split(), pmc.genus1())
    for z, q in ((pmc.genus1(), p), (z3, z3.n + 1 if p > 0 else p)):
        for lookup in (z.cls, z.o, z.partner):
            with pytest.raises(SchemaViolation, match=f"point {q} outside"):
                lookup(q)


def test_tables_agree_with_the_matching():
    for z in (pmc.genus1(), pmc.trefoil_pmc(),
              pmc.PointedMatchedCircle((1, 1, 1, 2), (1, 0, 1, 0))):
        for p in range(1, z.n + 1):
            pts = tuple(q for q in range(1, z.n + 1)
                        if z.matching[q - 1] == z.matching[p - 1])
            assert z.class_points(z.cls(p)) == pts
            assert z.low_table[p] == pts[0]
            assert z.partner(p) == (
                (set(pts) - {p}).pop() if len(pts) == 2 else None)


def test_reverse_involution_and_orientation():
    for z in (pmc.genus1(), pmc.genus2_split(), pmc.trefoil_pmc()):
        r = pmc.reverse(z)
        assert pmc.validate(r)
        assert pmc.reverse(r) == z
        # reversal swaps which point of each class is negative
        for j in range(1, z.num_classes + 1):
            lo, _ = z.class_points(j)
            assert z.o(lo) == pmc.NEG


def test_reverse_genus1_not_subordinate():
    assert pmc.genus1().subordinate
    assert not pmc.reverse(pmc.genus1()).subordinate
    assert pmc.genus2_split().subordinate
    assert not pmc.trefoil_pmc().subordinate


def test_connected_sum_shapes():
    z = pmc.connected_sum(pmc.genus1(), pmc.genus1())
    assert z.n == 8 and z.k == 2
    assert z.matching == (1, 2, 1, 2, 3, 4, 3, 4)
    assert pmc.validate(z)


def test_json_roundtrip():
    for z in (pmc.genus1(), pmc.trefoil_pmc()):
        assert pmc.PointedMatchedCircle.from_json(z.to_json()) == z
    files = sorted(resources.files("borderedfloer").joinpath("data").glob(
        "pmc_*.json"))
    assert len(files) == 3
    for path in files:
        assert pmc.PointedMatchedCircle.from_file(path) == \
            pmc.PointedMatchedCircle.from_json(json.loads(path.read_text()))
    with pytest.raises(SchemaViolation):
        pmc.PointedMatchedCircle.from_json({"points": 4, "matching": [1, 2]})


@st.composite
def valid_pmcs(draw):
    k = draw(st.integers(min_value=1, max_value=2))
    choices = [m for m in all_matchings(4 * k)
               if pmc._surgery_components(
                   pmc.PointedMatchedCircle(m, oriented(m))) == 1]
    m = draw(st.sampled_from(choices))
    return pmc.PointedMatchedCircle(m, oriented(m))


@given(valid_pmcs())
def test_property_reverse_preserves_validity(z):
    assert pmc.validate(z)
    assert pmc.validate(pmc.reverse(z))
    assert pmc.reverse(pmc.reverse(z)) == z


@given(valid_pmcs(), valid_pmcs())
def test_property_connected_sum_valid(z1, z2):
    z = pmc.connected_sum(z1, z2)
    assert pmc.validate(z)
    assert z.k == z1.k + z2.k
    # subordinate matchings compose
    if z1.subordinate and z2.subordinate:
        assert z.subordinate
