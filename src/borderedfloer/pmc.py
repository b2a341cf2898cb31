"""Pointed matched circles.

A circle with basepoint z, 4k marked points ordered by cutting at z, a 2-to-1
matching onto [2k] class labels, and a point orientation (1 for "-", 0 for
"+").  Validity includes the convention that the negative point of each class
comes first, and that surgering the circle along all matched pairs yields a
connected 1-manifold.
"""

from __future__ import annotations

import json

from .errors import (BadOrientationPair, DisconnectedSurgery,
                     NonSurjectiveMatching, Record, SchemaViolation, check)

NEG, POS = 1, 0


class PointedMatchedCircle(Record):
    """A pointed matched circle with its lookup tables.

    The tables are built once, when the circle is made, and hold whatever the
    fields say even when the circle is invalid, so that ``validate`` can still
    name what is wrong.  Tuples indexed by point have a ``None`` at index 0.
    ``matching[p-1]`` is the class of point p (1-based), ``orientation[p-1]``
    its orientation, 1 ("-") or 0 ("+"); ``low_table`` holds class minima,
    and ``algebra`` the strands algebra's tables, filled in by strands.py.
    """
    _fields = ("matching", "orientation")
    __slots__ = _fields + ("n", "cls_table", "partner_table", "low_table",
                           "_points", "algebra")

    def __init__(self, matching, orientation):
        points = {}
        for p, c in enumerate(matching, start=1):
            points.setdefault(c, []).append(p)
        points = {c: tuple(pts) for c, pts in points.items()}
        set_ = object.__setattr__
        set_(self, "matching", matching)
        set_(self, "orientation", orientation)
        set_(self, "n", len(matching))
        set_(self, "cls_table", (None,) + tuple(matching))
        set_(self, "partner_table", (None,) + tuple(
            sum(points[c]) - p if len(points[c]) == 2 else None
            for p, c in enumerate(matching, start=1)))
        set_(self, "low_table", (None,) + tuple(points[c][0] for c in matching))
        set_(self, "_points", points)
        set_(self, "algebra", None)

    @property
    def k(self):
        return self.n // 4

    @property
    def num_classes(self):
        return self.n // 2

    # a point p < 1 would index a table from its end, and p > n runs off it;
    # each lookup tests 0 < p <= n itself, without a call, as callers look
    # points up in tight loops
    def _outside(self, p):
        return SchemaViolation(f"point {p} outside 1..{self.n}")

    def cls(self, p):
        if 0 < p <= self.n:
            return self.cls_table[p]
        raise self._outside(p)

    def o(self, p):
        if 0 < p <= self.n:
            return self.orientation[p - 1]
        raise self._outside(p)

    def class_points(self, j):
        return self._points.get(j, ())

    def partner(self, p):
        if 0 < p <= self.n:
            return self.partner_table[p]
        raise self._outside(p)

    def class_min(self, j):
        return self._points[j][0]

    @property
    def subordinate(self):
        """Minus points ordered by class index."""
        minus = [self.class_points(j)[0] for j in range(1, self.num_classes + 1)]
        return minus == sorted(minus)

    # serialization -------------------------------------------------------
    def to_json(self):
        return {"points": self.n,
                "matching": list(self.matching),
                "orientation": ["-" if x == NEG else "+" for x in self.orientation]}

    @classmethod
    def from_json(cls, obj, path=""):
        n = check(obj, {"points": int, "matching": [int],
                        "orientation": [("-", "+")]}, path)["points"]
        for key in ("matching", "orientation"):
            if len(obj[key]) != n:
                raise SchemaViolation(f"expected {n} entries", f"{path}.{key}")
        return cls(tuple(obj["matching"]),
                   tuple(NEG if x == "-" else POS for x in obj["orientation"]))

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _surgery_components(pmc):
    """Number of circles after surgering along all matched pairs.

    Arc s runs from point s to point s+1 (arc n through z); the successor of
    the arc ending at p is the arc starting at partner(p).  Component count is
    the number of cycles of the successor permutation.
    """
    n = pmc.n
    succ = {}
    for s in range(1, n + 1):
        end = s + 1 if s < n else 1
        succ[s] = pmc.partner(end)
    seen = set()
    comps = 0
    for s in range(1, n + 1):
        if s in seen:
            continue
        comps += 1
        while s not in seen:
            seen.add(s)
            s = succ[s]
    return comps


def validate(pmc):
    """Check all invariants; raises on failure, returns True otherwise."""
    n = pmc.n
    if n == 0 or n % 4 != 0:
        raise NonSurjectiveMatching(f"need a positive multiple of 4 points, got {n}")
    for j in range(1, n // 2 + 1):
        pts = pmc.class_points(j)
        if len(pts) != 2:
            raise NonSurjectiveMatching(
                f"class {j} has {len(pts)} points, expected 2")
        lo, hi = pts
        if pmc.o(lo) != NEG or pmc.o(hi) != POS:
            raise BadOrientationPair(
                f"class {j} must have its negative point first (points {pts})")
    comps = _surgery_components(pmc)
    if comps != 1:
        raise DisconnectedSurgery(f"surgery yields {comps} circles")
    return True


def load(obj, path=""):
    """The circle at JSON path ``path`` of a larger input file, where an
    invalid circle is malformed input: SchemaViolation with its reason."""
    z = PointedMatchedCircle.from_json(obj, path)
    try:
        validate(z)
    except (NonSurjectiveMatching, BadOrientationPair, DisconnectedSurgery) as exc:
        raise SchemaViolation(f"invalid pmc: {exc}", path) from exc
    return z


def intersection_from_pmc(pmc):
    """The intersection form, read off the interleaving of the matched
    pairs: gamma_j . gamma_j' is 1 when lo_j < lo_j' < hi_j < hi_j', -1
    when lo_j' < lo_j < hi_j' < hi_j, and 0 otherwise."""
    n2k = pmc.num_classes
    out = [[0] * n2k for _ in range(n2k)]
    for j in range(1, n2k + 1):
        mj, pj = pmc.class_points(j)
        for jp in range(1, n2k + 1):
            if jp == j:
                continue
            mp, pp = pmc.class_points(jp)
            if mj < mp < pj < pp:
                out[j - 1][jp - 1] = 1
            elif mp < mj < pp < pj:
                out[j - 1][jp - 1] = -1
    return tuple(tuple(r) for r in out)


def reverse(pmc):
    """-Z: reverse the point order, flip every orientation, keep class labels."""
    n = pmc.n
    matching = tuple(pmc.matching[n - i] for i in range(1, n + 1))
    orientation = tuple(1 - pmc.orientation[n - i] for i in range(1, n + 1))
    return PointedMatchedCircle(matching, orientation)


def connected_sum(p1, p2):
    """p1 # p2: all of p1's points before p2's; p2's classes offset."""
    off = p1.num_classes
    matching = p1.matching + tuple(c + off for c in p2.matching)
    orientation = p1.orientation + p2.orientation
    return PointedMatchedCircle(matching, orientation)


# built-in circles --------------------------------------------------------
def genus1():
    return PointedMatchedCircle((1, 2, 1, 2), (NEG, NEG, POS, POS))


def genus2_split():
    return connected_sum(genus1(), genus1())


def trefoil_pmc():
    """The 8-point circle Z # -Z used by the trefoil complement data."""
    return connected_sum(genus1(), reverse(genus1()))
