"""Strands-algebra dimension oracle.

Counts the dimension of each strands-graded piece of the algebra of a pointed
matched circle by raw enumeration in the big strands algebra: all M-admissible
upward-veering triples (S, T, phi), grouped into orbits under toggling fixed
points between the two points of their matched class.  Dimension = number of
orbits.  Also sanity-checks that the raw count decomposes into full orbits.

Written before (and independently of) the package's basis enumeration.
Also counts every connected 8-point (genus-2) circle, taken from the surgery
oracle next to this script.

Run from the repo root: python scripts/oracle_strands_dims.py
"""

from itertools import combinations, permutations

from oracle_surgery import components, matchings

GENUS1 = [1, 2, 1, 2]
GENUS2_SPLIT = [1, 2, 1, 2, 3, 4, 3, 4]
GENUS3_SPLIT = [1, 2, 1, 2, 3, 4, 3, 4, 5, 6, 5, 6]  # about ten seconds of enumeration


def class_min(matching, c):
    return min(i + 1 for i, m in enumerate(matching) if m == c)


def admissible_subsets(matching, size):
    n = len(matching)
    for s in combinations(range(1, n + 1), size):
        classes = [matching[p - 1] for p in s]
        if len(set(classes)) == len(classes):
            yield s


def dims(matching):
    n = len(matching)
    k = n // 4
    out = {}
    for i in range(-k, k + 1):
        size = k + i
        raw = set()
        for s in admissible_subsets(matching, size):
            for t in admissible_subsets(matching, size):
                for perm in permutations(t):
                    if all(b >= a for a, b in zip(s, perm)):
                        raw.add(tuple(zip(s, perm)))
        canon = {}
        for pairs in raw:
            key = tuple(sorted(
                (class_min(matching, matching[a - 1]),) * 2 if a == b else (a, b)
                for a, b in pairs))
            canon.setdefault(key, []).append(pairs)
        # full-orbit check
        for key, members in canon.items():
            fixed = sum(1 for a, b in key if a == b)
            assert len(members) == 2 ** fixed, (key, members)
        out[i] = len(canon)
        assert sum(2 ** sum(1 for a, b in key if a == b) for key in canon) == len(raw)
    return out


def connected_matchings(n):
    """Every matching of n points whose surgery is connected, as class labels
    numbered in the order of each class's first point."""
    for pairing in matchings(range(1, n + 1)):
        if components(n, pairing) == 1:
            labels = [0] * n
            for c, (p, q) in enumerate(sorted(pairing), start=1):
                labels[p - 1] = labels[q - 1] = c
            yield labels


def main():
    for name, m in (("genus1", GENUS1), ("genus2_split", GENUS2_SPLIT),
                    ("genus3_split", GENUS3_SPLIT)):
        d = dims(m)
        print(name, d, "total", sum(d.values()))
    for m in connected_matchings(8):
        print(f"{tuple(m)}: {dims(m)},")


if __name__ == "__main__":
    main()
