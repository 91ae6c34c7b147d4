"""Exact arithmetic in Q extended by square roots of integers.

A value is a finite sum  sum_d q_d * sqrt(d)  with q_d rational and d a
positive squarefree integer.  Square roots of distinct squarefree integers
are linearly independent over Q, so the term map is a canonical form:
equality, zero tests and signs are decided exactly, never through floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

Rational = Union[int, Fraction]
Term = tuple[int, Fraction]  # one term q*sqrt(d) as (d, q), d squarefree


@lru_cache(maxsize=None)
def squarefree_decompose(n: int) -> tuple[int, int]:
    """Split n > 0 as d * k**2 with d squarefree; returns (d, k)."""
    if n <= 0:
        raise ValueError("squarefree_decompose needs a positive integer")
    d = k = 1
    p = 2
    while n > 1:
        p = _least_prime(n, p)  # n has no prime factor below the last one
        n //= p
        if n % p:
            d *= p
        else:
            n //= p
            k *= p
    return d, k


def _least_prime(d: int, p: int = 2) -> int:
    """The least prime factor of d > 1, trial-dividing from p (2, or odd and no
    larger than any prime factor of d); the one trial division of the package."""
    while p * p <= d:
        if d % p == 0:
            return p
        p += 1 if p == 2 else 2
    return d


@lru_cache(maxsize=None)
def _sqrt_bounds(d: int, bits: int) -> tuple[Fraction, Fraction]:
    # lo <= sqrt(d) <= hi with hi - lo = 2**-bits
    s = math.isqrt(d << (2 * bits))
    return Fraction(s, 1 << bits), Fraction(s + 1, 1 << bits)


class RadExpr:
    """Immutable element of Q[sqrt(d1), sqrt(d2), ...].

    The constructor trusts its term map: positive squarefree keys, nonzero
    Fraction values.  On any other map equality is wrong and sign may never
    end ({4: 1, 1: -2} is zero, and no interval around it clears zero)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        object.__setattr__(self, "_terms", terms or {})

    def __setattr__(self, *a):  # pragma: no cover - guards accidental mutation
        raise AttributeError("RadExpr is immutable")

    @classmethod
    def of(cls, x: Rational | "RadExpr") -> "RadExpr":
        if isinstance(x, RadExpr):
            return x
        x = Fraction(x)
        return cls({1: x} if x else None)

    @classmethod
    def sqrt(cls, x: Rational | "RadExpr") -> "RadExpr":
        """Exact square root of a nonnegative rational value."""
        if isinstance(x, RadExpr):
            if not x.is_rational():
                raise ValueError("square root of an irrational value is not representable")
            x = x.rational_value()
        x = Fraction(x)
        if x < 0:
            raise ValueError("square root of a negative value")
        if x == 0:
            return cls()
        d, k = squarefree_decompose(x.numerator * x.denominator)
        # sqrt(n/m) = sqrt(n*m)/m
        return cls({d: Fraction(k, x.denominator)})

    # --- structure ---------------------------------------------------------

    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_rational(self) -> bool:
        return all(d == 1 for d in self._terms)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self._terms.get(1, Fraction(0))

    def is_integer(self) -> bool:
        return self.is_rational() and self.rational_value().denominator == 1

    # --- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for d, q in other._terms.items():
            if d not in out:
                out[d] = q
            elif s := out[d] + q:
                out[d] = s
            else:
                del out[d]
        return RadExpr(out)

    __radd__ = __add__

    def __neg__(self):
        return RadExpr({d: -q for d, q in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, Fraction] = {}
        for d1, q1 in self._terms.items():
            for d2, q2 in other._terms.items():
                d, q = term_product((d1, q1), (d2, q2))
                if d not in out:
                    out[d] = q
                elif s := out[d] + q:
                    out[d] = s
                else:
                    del out[d]
        return RadExpr(out)

    __rmul__ = __mul__

    def inverse(self) -> "RadExpr":
        """1/self, one prime at a time: times the conjugate that flips sqrt(p),
        the denominator loses p; conjugates of a nonzero value are nonzero."""
        if not self._terms:
            raise ZeroDivisionError("inverse of zero")
        num, den = RadExpr.of(1), self
        while not den.is_rational():
            p = _least_prime(max(den._terms))
            # d is squarefree, so sqrt(d) changes sign exactly when p divides d
            conj = RadExpr({d: -q if d % p == 0 else q for d, q in den._terms.items()})
            num, den = num * conj, den * conj
        r = 1 / den.rational_value()
        return RadExpr({d: q * r for d, q in num._terms.items()})

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    # --- order and conversion ----------------------------------------------

    def sign(self) -> int:
        """Exact sign via interval refinement of the square roots.  On a
        well-formed map it always ends: a nonzero term map is a nonzero number
        (the roots are linearly independent), and the interval narrows to it."""
        if not self._terms:
            return 0
        bits = 16
        while True:
            lo = Fraction(0)
            hi = Fraction(0)
            for d, q in self._terms.items():
                if d == 1:
                    lo += q
                    hi += q
                    continue
                slo, shi = _sqrt_bounds(d, bits)
                if q >= 0:
                    lo += q * slo
                    hi += q * shi
                else:
                    lo += q * shi
                    hi += q * slo
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __float__(self) -> float:
        # fsum rounds the exact sum once, so equal values in any term order agree
        return math.fsum(float(q) * math.sqrt(d) for d, q in self._terms.items())

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # equal to a Fraction or int, so hashed as one when rational
        if self.is_rational():
            return hash(self.rational_value())
        return hash(tuple(sorted(self._terms.items())))

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for d, q in sorted(self._terms.items()):
            if d == 1:
                parts.append(str(q))
            elif q == 1:
                parts.append(f"sqrt({d})")
            else:
                parts.append(f"{q}*sqrt({d})")
        return " + ".join(parts)


def _coerce(x) -> "RadExpr":
    if isinstance(x, (RadExpr, int, Fraction)):
        return RadExpr.of(x)
    return NotImplemented


def term(x: Fraction | RadExpr) -> Term:
    """The one term of a nonzero Fraction or one-term RadExpr."""
    if isinstance(x, RadExpr):
        ((d, q),) = x._terms.items()
        return d, q
    return 1, x


def term_product(a: Term, b: Term) -> Term:
    """sqrt(d)*sqrt(e) = g*sqrt(d*e/g**2) with g = gcd(d, e), squarefree again."""
    (d, q), (e, r) = a, b
    g = math.gcd(d, e)
    return (d // g) * (e // g), q * r * g if g > 1 else q * r


def term_inverse(a: Term) -> Term:
    """1/(q*sqrt(d)) = sqrt(d)/(q*d)."""
    d, q = a
    return d, 1 / (q * d)


def times_term_map(y: Rational | RadExpr, t: Term) -> dict[int, Fraction]:
    """The term map of y * t: times one term, distinct keys stay distinct."""
    if not isinstance(y, RadExpr):
        return {t[0]: t[1] * y} if y else {}
    return dict(term_product(s, t) for s in y._terms.items())


def times_term(y: Rational | RadExpr, t: Term) -> RadExpr:
    """y * t from its term map, with no RadExpr product."""
    return RadExpr(times_term_map(y, t))


def combination(pairs: Iterable[tuple[Rational, Fraction | RadExpr]]) -> RadExpr:
    """sum of c*x over the (c, x) pairs, c rational and x a Fraction or
    RadExpr, added term by term with no RadExpr product.

    The sum is kept as integer numerators per radicand over one running
    denominator, the lcm of the terms' denominators so far: a term c*q adds
    its numerator scaled to that denominator, and a term whose denominator
    does not divide it first scales every numerator up to the new lcm.  One
    Fraction is built per radicand at the end, and a radicand whose
    numerator cancelled is dropped, so the map is canonical."""
    nums: dict[int, int] = {}
    den = 1
    for c, x in pairs:
        cn, cd = c.numerator, c.denominator
        for d, q in x._terms.items() if isinstance(x, RadExpr) else ((1, x),):
            n, m = cn * q.numerator, cd * q.denominator
            if den % m:
                grow = m // math.gcd(den, m)
                den *= grow
                nums = {e: a * grow for e, a in nums.items()}
            nums[d] = nums.get(d, 0) + n * (den // m)
    return RadExpr({d: Fraction(n, den) for d, n in nums.items() if n})


def simplify(x: Rational | RadExpr) -> Rational | RadExpr:
    """The one reduction of exact data: a rational RadExpr as its Fraction,
    any other value as it is."""
    if isinstance(x, RadExpr) and x.is_rational():
        return x.rational_value()
    return x


def sign(x: Rational | RadExpr) -> int:
    """-1, 0 or 1: an int or Fraction by its numerator, a RadExpr by RadExpr.sign."""
    return x.sign() if isinstance(x, RadExpr) else (x.numerator > 0) - (x.numerator < 0)
