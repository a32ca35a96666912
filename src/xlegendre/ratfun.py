"""Rational functions over the exact polynomial ring.

A ``RatFun`` is a quotient num/den of two :class:`~xlegendre.polyring.Poly`
values.  Its canonical form has a nonzero monic denominator, a pair with
constant gcd, and 0/1 for the zero element.  Canonical form makes equality a
plain coefficient comparison, which is what lets every verification in this
package assert with zero tolerance.

``RatFun.of`` rejects a zero denominator at once but defers the reduction to
the first read of ``num`` or ``den`` (equality, hashing, arithmetic and
``str`` all read them).  It also takes the numerator as a sum of products of
two or more factors each, which it defers the same way: at that first read
(or at ``is_zero``) each product of more than two factors is multiplied
down to a pair, and one ``poly_dot`` sums the pairs.  That first read,
``_reduce``, is the one reduction: a sum is the deferred ``a*d + c*b`` over
``b*d`` and a derivative the deferred quotient rule ``u'*v - u*v'`` over
``v*v``, both reduced there.  Only ``__mul__`` cancels before it, each
numerator against the other factor's denominator, which keeps the products
small (without it the level-by-level overlap oracle in the tests ran more
than twice as long); the quotient is the product with the swapped pair.
``evaluate`` uses the unreduced pair when its denominator does not vanish at
the point, reading a deferred numerator from its factors' values
(``polyring._dot_at``), so a value that is only evaluated never pays for a
gcd or a product; at a root of that denominator it reduces first, so a
removable singularity still evaluates and a true pole raises.  A value at a
point is integers until its end: the denominator is one Horner pass, read
once per call even where it is also a factor of the numerator's terms (the
diagonal overlaps), the numerator one integer pair, and the quotient one
``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import mul
from typing import Iterable, Sequence

from .polyring import (
    InexactDivisionError,
    Poly,
    RatLike,
    _dot_at,
    _horner,
    poly_dot,
    poly_gcd,
)

__all__ = ["PoleError", "RatFun"]


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a pole."""


def _coerce(value: object) -> "RatFun | None":
    if isinstance(value, RatFun):
        return value
    if isinstance(value, Poly):
        return RatFun.from_poly(value)
    if isinstance(value, (int, Fraction)):
        return RatFun.from_poly(Poly.constant(value))
    return None


class RatFun:
    """Quotient of two polynomials, read in canonical form."""

    # _pair is (num, den), num a Poly or, until the reduction, a tuple of
    # terms, each a sequence of factors, whose sum of products it is; the
    # pair is canonical once _reduced is set.  Only the reduction writes it:
    # it is idempotent and _pair is assigned before _reduced, so concurrent
    # first reads may both reduce and still agree.
    __slots__ = ("_pair", "_reduced")

    def __init__(self, num: Poly, den: Poly):
        # trusts canonical input; use RatFun.of for arbitrary pairs
        self._pair = (num, den)
        self._reduced = True

    @classmethod
    def of(
        cls, num: Poly | Iterable[Sequence[Poly]], den: Poly | None = None
    ) -> "RatFun":
        """num/den, reduced (then den made monic) when num or den is first read.

        num may be the terms of the numerator, each a sequence of two or more
        factors whose product it adds, which is then built at that first read
        too.
        """
        if den is None:
            den = Poly.one()
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if not isinstance(num, Poly):
            num = tuple(num)
        elif num.is_zero:
            return _ZERO
        out = cls(num, den)
        out._reduced = False
        return out

    def _reduce(self) -> tuple[Poly, Poly]:
        num, den = self._pair
        if not isinstance(num, Poly):
            num = poly_dot((reduce(mul, t[:-1]), t[-1]) for t in num)
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        lc = den.leading_coefficient
        if lc != 1:
            inv = 1 / lc
            num = num.scale(inv)
            den = den.scale(inv)
        pair = (num, den)
        self._pair = pair
        self._reduced = True
        return pair

    @property
    def num(self) -> Poly:
        return (self._pair if self._reduced else self._reduce())[0]

    @property
    def den(self) -> Poly:
        return (self._pair if self._reduced else self._reduce())[1]

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFun":
        return cls(p, Poly.one())

    @classmethod
    def zero(cls) -> "RatFun":
        return _ZERO

    @classmethod
    def one(cls) -> "RatFun":
        return _ONE

    # -- queries ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        # a nonzero numerator stays nonzero under reduction; a deferred one
        # is only known once built
        num = self._pair[0]
        return (num if isinstance(num, Poly) else self.num).is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: object) -> "RatFun":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.num, self.den
        c, d = other.num, other.den
        return RatFun.of(((a, d), (c, b)), b * d)

    __radd__ = __add__

    def __sub__(self, other: object) -> "RatFun":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "RatFun":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self) -> "RatFun":
        return RatFun(-self.num, self.den)

    def __mul__(self, other: object) -> "RatFun":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return _ZERO
        a, b = self.num, self.den
        c, d = other.num, other.den
        g1 = poly_gcd(a, d)
        if g1.degree > 0:
            a, d = a.exact_div(g1), d.exact_div(g1)
        g2 = poly_gcd(c, b)
        if g2.degree > 0:
            c, b = c.exact_div(g2), b.exact_div(g2)
        num = a * c
        den = b * d
        lc = den.leading_coefficient
        if lc != 1:
            inv = 1 / lc
            num, den = num.scale(inv), den.scale(inv)
        return RatFun(num, den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "RatFun":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        # the swapped pair is coprime, and the product's denominator is monic
        return self * RatFun(other.den, other.num)

    def __rtruediv__(self, other: object) -> "RatFun":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    # -- analysis -----------------------------------------------------------------

    def derivative(self) -> "RatFun":
        u, v = self.num, self.den
        return RatFun.of(((u.differentiate(), v), (u, -v.differentiate())), v * v)

    def evaluate(self, x: RatLike) -> Fraction:
        """Exact value at x; raises PoleError on a pole.

        The denominator is one Horner pass, and the same pass serves a
        deferred numerator that has it as a factor; the value is one
        integer pair over another, one ``Fraction``.
        """
        at = Fraction(x)
        xn, xd = at.numerator, at.denominator
        reduced = self._reduced  # read before the pair (class comment)
        num, den = self._pair
        dv, dw = _horner(den._nums, xn, xd)
        if not dv and not reduced:
            num, den = self._reduce()
            dv, dw = _horner(den._nums, xn, xd)
        if not dv:
            raise PoleError(f"pole at z = {x}")
        terms = ((num,),) if isinstance(num, Poly) else num
        nv, nw = _dot_at(terms, xn, xd, {id(den): (den, dv, dw)})
        # num(x) = nv/nw and den(x) = dv/(den._den*dw)
        return Fraction(nv * den._den * dw, nw * dv)

    def as_polynomial(self) -> Poly:
        """The exact polynomial quotient; raises if the value is not polynomial."""
        if self.is_polynomial:  # the denominator is monic, so it is 1
            return self.num
        raise InexactDivisionError(
            "rational function is not a polynomial (nonconstant denominator)"
        )

    # -- identity ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        coerced = _coerce(other)
        if coerced is None:
            return NotImplemented
        return self.num == coerced.num and self.den == coerced.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        if self.is_polynomial:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RatFun({self!s})"


_ZERO = RatFun(Poly.zero(), Poly.one())
_ONE = RatFun(Poly.one(), Poly.one())
