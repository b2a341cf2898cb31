"""Integer Laurent polynomials in one variable t."""

from __future__ import annotations


class LaurentPolynomial:
    """Finite integer coefficient map exponent -> coefficient."""

    def __init__(self, coeffs=None):
        self.coeffs = {int(e): int(c) for e, c in (coeffs or {}).items() if c}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def monomial(cls, exponent, coeff=1):
        return cls({exponent: coeff})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial({0: other})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):  # a constant equals its integer, so hashes as it
        if self.coeffs.keys() <= {0}:
            return hash(self.coeffs.get(0, 0))
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial(out)

    def __neg__(self):
        return LaurentPolynomial({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPolynomial({e: c * other for e, c in self.coeffs.items()})
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPolynomial(out)

    __rmul__ = __mul__

    def reversed(self):
        """p(1/t)."""
        return LaurentPolynomial({-e: c for e, c in self.coeffs.items()})

    def is_symmetric(self):
        return self.coeffs == self.reversed().coeffs

    def symmetrized(self):
        """A representative +-t^-m * p with a_i = a_{-i}, or None.

        Deterministic: smallest shift m, then the sign making the top
        coefficient positive.
        """
        if not self.coeffs:
            return self
        exps = sorted(self.coeffs)
        for m in range(exps[0], exps[-1] + 1):
            cand = LaurentPolynomial({e - m: c for e, c in self.coeffs.items()})
            if cand.is_symmetric():
                if cand.coeffs[max(cand.coeffs)] < 0:
                    cand = -cand
                return cand
        return None

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                body = str(abs(c))
            else:
                tpow = "t" if e == 1 else f"t^{e}"
                body = tpow if abs(c) == 1 else f"{abs(c)}*{tpow}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    __repr__ = __str__

    def to_json(self):
        return {str(e): c for e, c in sorted(self.coeffs.items())}
