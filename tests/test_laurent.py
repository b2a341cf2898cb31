from hypothesis import given, strategies as st

from borderedfloer.laurent import LaurentPolynomial


def poly(d):
    return LaurentPolynomial(d)


def test_basic_arithmetic():
    p = poly({-1: 1, 0: -1, 1: 1})
    q = poly({0: 1, 1: 1})
    assert p + q == poly({-1: 1, 1: 2, 0: 0})
    assert p - p == LaurentPolynomial.zero()
    assert p * q == poly({-1: 1, 0: 0, 1: 0, 2: 1})
    assert 3 * p == poly({-1: 3, 0: -3, 1: 3})
    assert not LaurentPolynomial.zero()
    assert p == p.reversed()


def test_zero_coefficients_dropped():
    assert poly({2: 0, 0: 5}).coeffs == {0: 5}
    assert poly({0: 5}) == 5


def test_symmetrized():
    # t^2 - t^3 + t^4 recenters to t^-1 - 1 + t with positive top coefficient
    p = poly({2: 1, 3: -1, 4: 1})
    assert p.symmetrized() == poly({-1: 1, 0: -1, 1: 1})
    # sign flips so the top coefficient is positive
    assert (-p).symmetrized() == poly({-1: 1, 0: -1, 1: 1})
    # no symmetric representative
    assert poly({0: 1, 1: 2}).symmetrized() is None
    assert LaurentPolynomial.zero().symmetrized() == LaurentPolynomial.zero()


def test_str_and_json():
    p = poly({-1: 1, 0: -1, 1: 1})
    assert str(p) == "t^-1 - 1 + t"
    assert p.to_json() == {"-1": 1, "0": -1, "1": 1}
    assert str(LaurentPolynomial.zero()) == "0"
    assert str(poly({2: -3})) == "-3*t^2"


polys = st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=5).map(poly)


@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert (p * q).reversed() == p.reversed() * q.reversed()


def symmetrized_by_every_shift(p):
    """The first shift m in lo..hi whose t^-m p is symmetric, made positive
    at the top, or None."""
    if not p:
        return p
    for m in range(min(p.coeffs), max(p.coeffs) + 1):
        cand = poly({e - m: c for e, c in p.coeffs.items()})
        if cand.is_symmetric():
            return -cand if cand.coeffs[max(cand.coeffs)] < 0 else cand
    return None


# palindromes, shifted and signed, so that about half the draws are symmetric
palindromes = st.builds(
    lambda half, mid, shift, sign: poly(
        {shift + i: sign * c for i, c in enumerate(half + [mid] + half[::-1])}),
    st.lists(st.integers(-5, 5), max_size=3), st.integers(-5, 5),
    st.integers(-4, 4), st.sampled_from((1, -1)))


@given(st.one_of(polys, palindromes))
def test_symmetrized_is_symmetric(p):
    s = p.symmetrized()
    assert s == symmetrized_by_every_shift(p)
    if s is not None:
        assert s.is_symmetric()
        if s:
            assert s.coeffs[max(s.coeffs)] > 0


def test_hash_agrees_with_equality():
    for p, n in ((LaurentPolynomial.zero(), 0), (poly({0: 3}), 3),
                 (poly({0: -2}), -2)):
        assert p == n and hash(p) == hash(n)
        assert len({p, n}) == 1
    p, q = poly({-1: 1, 0: 2}), poly({0: 2, -1: 1})
    assert p == q and hash(p) == hash(q)
    assert p != 2 and len({p, q, 2}) == 2
