"""Exact univariate polynomial arithmetic over the rationals.

A polynomial in ``z`` is stored densely as a tuple of integer coefficients
together with a single positive integer denominator, so that

    p(z) = (nums[0] + nums[1]*z + ... + nums[d]*z^d) / den.

The pair is kept normalized: trailing zero coefficients are trimmed, the
denominator is positive, and gcd(content(nums), den) == 1.  Externally every
coefficient is an exact ``fractions.Fraction``; the shared-denominator layout
just keeps the inner loops (convolutions, eliminations, remainder chains) in
pure integer arithmetic, which is what makes determinant expansion and the
deformation recursions fast enough to verify whole parameter lattices.

Scalars are ``fractions.Fraction`` throughout (aliased as ``Rat``): it already
guarantees lowest terms and a positive denominator, which is exactly the
canonical form we need.

``poly_dot(terms)`` is the fused sum of products ``sum(a * b for a, b in
terms)``: all products share one denominator and, for large operands, one
Kronecker slot width and one unpack, and the result is normalized once
instead of once per multiply, scale and add.  Every product, single or
summed, is one ``poly_dot``: ``a * b`` is the one-term sum.  So is every
sum and difference: ``a + b`` and ``a - b`` are the two-term sums of
``a * 1`` and ``b * 1`` or ``b * -1``.  Family polynomials up to index 12,
the first elimination and chain step and a built overlap numerator
(``xfamily``), and the operator numerator and factorization triples
(``operators``) are one such sum each.  Every later fraction-free step,
``(a*b + c*d) / e``, is one ``_dot_div``: the same sum, left unnormalized,
goes straight into the exact quotient.  Beside them, ``_dot_at``
reads the value at a point of a sum whose terms are products of any number
of factors, with no product built: one integer Horner pass per factor (the
loop ``Poly.evaluate`` runs too), up to the first factor of a term that
vanishes at the point, and the sum as one integer numerator over one integer
denominator.  ``RatFun.evaluate`` hands it a factor it has already read (the
denominator), so that factor's pass is not run twice, and makes the pair one
``Fraction``.  An overlap evaluated at z = 1 or z = -1 reads its numerator
this way and never builds it: there nearly every term ends at its first
factor, a classical overlap.
``FixedOperands`` holds polynomials that many zero tests share (an
operator's coefficients) over one denominator, and keeps their Kronecker
packs by slot width.  ``is_zero(terms)`` asks whether a sum of weighted
fixed operands times varying polynomials and their derivatives is zero: it
packs only the varying digits and stops at the packed integer, the sum's
value at z = 2^w, which is zero exactly when every coefficient is
(Kronecker comment below).  The eigen and intertwining residuals
(``operators``) are one such integer each.  ``kronecker_slots(bound)`` hands
out the pack and unpack of one slot width to a caller that does its own
arithmetic on packed integers (the family polynomials above index 12).

Exact division (``exact_div``, ``exact_div_or_none``, ``_dot_div``) is one
loop of exact integer quotients, ``_quotient``.  The integer pseudo-division
``_pdivmod`` is behind ``divmod`` and the remainder sequence.
``remainder_sequence(a, b)`` is the one integer primitive remainder
sequence: ``poly_gcd`` reads its last element and the Sturm chain
(``admissibility``) is the whole sequence of p and p'.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rat = Fraction
RatLike = Union[Fraction, int, str]

NEG_INFINITY = float("-inf")

__all__ = [
    "Rat",
    "RatLike",
    "NEG_INFINITY",
    "InexactDivisionError",
    "Poly",
    "parse_rat",
    "rat_str",
    "poly_dot",
    "FixedOperands",
    "kronecker_slots",
    "poly_gcd",
    "remainder_sequence",
]


class InexactDivisionError(ArithmeticError):
    """A division that was required to be exact left a nonzero remainder."""


_RAT_PATTERN = re.compile(r"^-?\d+(?:/\d+)?$")


def parse_rat(text: str) -> Rat:
    """Parse an exact rational from the grammar ``['-'] digits ['/' digits]``."""
    text = text.strip()
    if not _RAT_PATTERN.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


def _rat(value: RatLike) -> Rat:
    """A RatLike as an exact rational; strings follow ``parse_rat``."""
    return parse_rat(value) if isinstance(value, str) else Fraction(value)


def rat_str(value: Rat) -> str:
    """Render a rational as ``p/q`` with the denominator always explicit."""
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def _content(nums: Iterable[int], g: int = 0) -> int:
    """gcd of ``g`` and the coefficients, stopping as soon as it is 1."""
    for v in nums:
        if v:
            g = math.gcd(g, v)
            if g == 1:
                return 1
    return g


# ---------------------------------------------------------------------------
# Kronecker-substitution multiplication.
#
# For large operands the coefficient convolution is done with a single big
# integer multiplication: coefficients are packed into fixed-width bit slots,
# multiplied, and unpacked with a bias so that negative digits decode
# correctly.  CPython's big-integer multiply runs at C speed, which beats a
# Python-level double loop by well over an order of magnitude at the degrees
# produced by determinant expansion.
#
# A polynomial packs to its value at z = 2^w, w = 8 * slot_bytes.  ``_pack``
# adds half = 2^(w-1) to each digit, fills its slot as unsigned bytes, joins
# the slots in one pass and takes half * sum_k 2^(w*k) off again; a digit
# outside [-half, half) raises OverflowError instead of spilling into its
# neighbour.  The kernels below pack through ``_pack_in_slot``, which takes
# a short operand by the Horner shift loop acc = (acc << w) + v instead:
# each shift copies the accumulator, so its cost grows as digits^2 * slot
# bytes, and past _SHIFT_PACK_COST the byte join wins.  The shift loop
# checks no digit (a check per digit costs most of its gain), and needs
# none: each kernel's slot bound covers every digit it packs, in
# ``poly_dot`` because the bound is at least every operand digit, in
# ``FixedOperands`` because the slots are sized by ``widest``.
#
# Packing is linear, so a sum of products sum_k f_k * a_k * b_k is also one
# packed integer, sum_k f_k * pack(a_k) * pack(b_k), as long as the slots hold
# its largest digit, sum_k |f_k| max|a_k| max|b_k| min(len a_k, len b_k).
# ``poly_dot`` packs each operand once, adds the scaled big-integer products
# and unpacks once; a single product is the sum with one term.  Below the
# cutoff it adds each f_k*a_i*b_j into the output, a_i from the shorter operand.
#
# ``FixedOperands.is_zero`` stops at the packed sum.  The slots leave every
# digit of the sum below 2^(w-2) in absolute value, so a nonzero top digit c_t
# outweighs all digits below it, |sum_{j<t} c_j 2^(w*j)| < 2^(w*t): the
# integer is zero exactly when every coefficient of the sum is.  The slots
# must also hold every digit of every operand packed, a fixed operand whose
# partner is zero included, hence ``widest``.  A slot wider than needed is
# still exact: both conditions only ask for a lower bound on w, so packs kept
# at one width serve every sum that width holds.
# ---------------------------------------------------------------------------

_SCHOOLBOOK_CUTOFF = 300  # product of operand lengths below which looping wins
_SHIFT_PACK_COST = 1 << 14  # digits^2 * slot bytes up to which shifting wins


def _slot_bytes(bound: int) -> int:
    """Slot width holding every digit of absolute value at most ``bound``."""
    return (bound.bit_length() + 2 + 7) // 8  # room for sign bias


def _bias(n: int, slot_bytes: int) -> int:
    """sum_{k<n} half * 2^(8*slot_bytes*k), half = 2^(8*slot_bytes - 1)."""
    half = 1 << (slot_bytes * 8 - 1)
    return int.from_bytes(half.to_bytes(slot_bytes, "little") * n, "little")


def _pack(nums: Sequence[int], slot_bytes: int) -> int:
    """The value at z = 2^(8*slot_bytes) of the polynomial with digits ``nums``."""
    half = 1 << (slot_bytes * 8 - 1)
    raw = b"".join([(v + half).to_bytes(slot_bytes, "little") for v in nums])
    return int.from_bytes(raw, "little") - _bias(len(nums), slot_bytes)


def _unpack(packed: int, n_out: int, slot_bytes: int) -> list[int]:
    """The ``n_out`` signed slot digits of ``packed``."""
    half = 1 << (slot_bytes * 8 - 1)
    biased = packed + _bias(n_out, slot_bytes)
    raw = biased.to_bytes(n_out * slot_bytes + slot_bytes, "little")
    # biased digits never overflow a slot, so chunks decode independently
    return [
        int.from_bytes(raw[k * slot_bytes : (k + 1) * slot_bytes], "little") - half
        for k in range(n_out)
    ]


def _pack_in_slot(nums: Sequence[int], slot_bytes: int) -> int:
    """``_pack`` for digits the slot is known to hold, unchecked: a short
    operand by the shift loop, a long one by the byte join."""
    n = len(nums)
    if n * n * slot_bytes > _SHIFT_PACK_COST:
        return _pack(nums, slot_bytes)
    w = 8 * slot_bytes
    acc = 0
    for v in reversed(nums):
        acc = (acc << w) + v
    return acc


def kronecker_slots(bound: int):
    """(w, pack, unpack) for slots of w bits holding every digit of absolute
    value at most ``bound``: ``pack(nums)`` is the value at z = 2^w of the
    polynomial with integer digits ``nums``, ``unpack(packed, n)`` the first
    n digits of a packed value."""
    s = _slot_bytes(bound)
    return 8 * s, lambda nums: _pack(nums, s), lambda packed, n: _unpack(packed, n, s)


# ---------------------------------------------------------------------------
# Integer division.
#
# ``_pdivmod`` is the pseudo-division behind ``divmod`` and the remainder
# sequence.  It stays in integers by scaling the dividend, at each nonzero
# top coefficient, by the least factor that makes that coefficient divisible
# by lc(g).  A constant divisor cancels every coefficient (r = 0) and a
# dividend shorter than the divisor takes no step (q = 0, r = f, s = 1).
#
# ``_quotient`` is exact division, and needs neither scaling nor a gcd per
# step.  It divides the integer digits f by the primitive part g of the
# divisor.  By Gauss's lemma, when g divides f over Q the quotient has
# integer digits, so every top digit met is a multiple of lc(g); one that is
# not, or a nonzero remainder below the last one, means g does not divide f.
# ---------------------------------------------------------------------------


def _pdivmod(f: Sequence[int], g: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Integer pseudo-division of f by a nonzero g: (q, r, s) with
    s*f == q*g + r, s > 0 and r trimmed to fewer coefficients than g."""
    dg = len(g) - 1
    lg = g[-1]
    alg = abs(lg)
    r = list(f)
    q = [0] * (len(r) - dg)
    s = 1
    for k in range(len(r) - 1, dg - 1, -1):
        top = r[k]
        if top:
            off = k - dg
            # |lc(g)| / gcd is positive, so s stays positive whatever the sign
            # of lc(g): r is a positive multiple of the remainder over Q, and
            # the Sturm chain's sign counts read it as such
            d = math.gcd(top, lg)
            m = alg // d
            if m != 1:
                for i in range(k):
                    r[i] *= m
                for j in range(off + 1, len(q)):
                    q[j] *= m
                s *= m
            c = top // d if lg > 0 else -(top // d)
            q[off] = c
            for i in range(dg):
                gi = g[i]
                if gi:
                    r[off + i] -= c * gi
    del r[dg:]
    while r and r[-1] == 0:
        r.pop()
    return q, r, s


def _quotient(f: list[int], den: int, divisor: Poly) -> "Poly | None":
    """(f / den) / divisor for integer digits f, or None when divisor does
    not divide it; f is consumed as the running remainder."""
    g = divisor._nums
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    c = _content(g)
    if c > 1:
        g = [v // c for v in g]
    dg = len(g) - 1
    lg, low = g[-1], g[:-1]
    q = [0] * (len(f) - dg)
    for off in range(len(q) - 1, -1, -1):
        qk, rem = divmod(f[off + dg], lg)
        if rem:
            return None
        if qk:
            q[off] = qk
            for i, gi in enumerate(low, off):
                if gi:
                    f[i] -= qk * gi
    if any(f[:dg]):
        return None
    if divisor._den > 1:
        q = [v * divisor._den for v in q]
    return Poly._raw(q, den * c)


def _horner(nums: Sequence[int], xn: int, xd: int) -> tuple[int, int]:
    """(acc, pw) with sum(nums[k] * (xn/xd)**k) == acc / pw, both integers.

    An integer point takes no powers of xd; z = 1, where every orthogonality
    check reads its overlaps, is the coefficient sum.
    """
    acc = 0
    if xd == 1:
        if xn == 1:
            return sum(nums), 1
        for c in reversed(nums):
            acc = acc * xn + c
        return acc, 1
    pw = 1
    for k in range(len(nums) - 1, -1, -1):
        acc = acc * xn + nums[k] * pw
        if k:
            pw *= xd
    return acc, pw


_F0 = Fraction(0)


class Poly:
    """Immutable dense univariate polynomial with exact rational coefficients."""

    __slots__ = ("_nums", "_den")

    def __init__(self, coefficients: Iterable[RatLike] = ()):
        fracs = [_rat(c) for c in coefficients]
        den = math.lcm(*(c.denominator for c in fracs))
        p = Poly._raw([c.numerator * (den // c.denominator) for c in fracs], den)
        self._nums = p._nums
        self._den = p._den

    @classmethod
    def _raw(cls, nums: list[int], den: int) -> "Poly":
        """Build from integer coefficients over ``den``, normalizing in place."""
        while nums and nums[-1] == 0:
            nums.pop()
        self = object.__new__(cls)
        if not nums:
            self._nums = ()
            self._den = 1
            return self
        if den < 0:
            den = -den
            nums = [-v for v in nums]
        if den > 1:
            g = _content(nums, den)
            if g > 1:
                nums = [v // g for v in nums]
                den //= g
        self._nums = tuple(nums)
        self._den = den
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return _ZERO

    @classmethod
    def one(cls) -> "Poly":
        return _ONE

    @classmethod
    def x(cls) -> "Poly":
        return _X

    @classmethod
    def constant(cls, value: RatLike) -> "Poly":
        c = _rat(value)
        return cls._raw([c.numerator], c.denominator)

    @classmethod
    def monomial(cls, power: int, coefficient: RatLike = 1) -> "Poly":
        c = _rat(coefficient)
        return cls._raw([0] * power + [c.numerator], c.denominator)

    # -- basic queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def degree(self) -> int | float:
        """Degree of the polynomial; the zero polynomial has degree -inf."""
        return len(self._nums) - 1 if self._nums else NEG_INFINITY

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        d = self._den
        return tuple(Fraction(n, d) for n in self._nums)

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self._nums):
            return Fraction(self._nums[power], self._den)
        return _F0

    @property
    def leading_coefficient(self) -> Fraction:
        return Fraction(self._nums[-1], self._den) if self._nums else _F0

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "Poly | RatLike") -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return poly_dot(((self, _ONE), (other, _ONE)))

    __radd__ = __add__

    def __sub__(self, other: "Poly | RatLike") -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return poly_dot(((self, _ONE), (other, _MINUS_ONE)))

    def __rsub__(self, other: "Poly | RatLike") -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return poly_dot(((other, _ONE), (self, _MINUS_ONE)))

    def __neg__(self) -> "Poly":
        if not self._nums:
            return self
        p = object.__new__(Poly)
        p._nums = tuple(-v for v in self._nums)
        p._den = self._den
        return p

    def __mul__(self, other: "Poly | RatLike") -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return poly_dot(((self, other),))

    def __rmul__(self, other: "Poly | RatLike") -> "Poly":
        return self.__mul__(other)

    def scale(self, factor: RatLike) -> "Poly":
        factor = Fraction(factor)
        if not factor:
            return _ZERO
        return Poly._raw(
            [v * factor.numerator for v in self._nums], self._den * factor.denominator
        )

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = _ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- calculus ------------------------------------------------------------

    def differentiate(self) -> "Poly":
        """Exact formal derivative."""
        nums = self._nums
        if len(nums) <= 1:
            return _ZERO
        return Poly._raw([k * nums[k] for k in range(1, len(nums))], self._den)

    def antiderivative_from_minus1(self) -> "Poly":
        """The antiderivative F with F' = self and F(-1) = 0, exactly."""
        nums = self._nums
        if not nums:
            return _ZERO
        # the coefficient of z^k is (n/g) / (den * k/g) with g = gcd(n, k), so
        # over den * lcm(k/g), the least common denominator, it is an integer
        gs = [math.gcd(n, k) for k, n in enumerate(nums, 1)]
        lcm = math.lcm(*[k // g for k, g in enumerate(gs, 1)])
        out = [0]
        out.extend(n // g * (lcm * g // k) for k, (n, g) in enumerate(zip(nums, gs), 1))
        out[0] = sum(out[1::2]) - sum(out[2::2])  # -F(-1) of the integral part
        return Poly._raw(out, self._den * lcm)

    def evaluate(self, x: RatLike) -> Fraction:
        """Exact Horner evaluation."""
        x = Fraction(x)
        acc, pw = _horner(self._nums, x.numerator, x.denominator)
        return Fraction(acc, self._den * pw)

    # -- division ------------------------------------------------------------

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not isinstance(other, Poly):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q, r, s = _pdivmod(self._nums, other._nums)
        den = s * self._den
        return Poly._raw([v * other._den for v in q], den), Poly._raw(r, den)

    def exact_div(self, other: "Poly") -> "Poly":
        """Quotient self/other, raising InexactDivisionError on a remainder."""
        q = self.exact_div_or_none(other)
        if q is None:
            raise InexactDivisionError("polynomial division left a remainder")
        return q

    def exact_div_or_none(self, other: "Poly") -> "Poly | None":
        return _quotient(list(self._nums), self._den, other)

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        lc = self.leading_coefficient
        return self.scale(1 / lc) if lc != 1 else self

    def primitive_part(self) -> "Poly":
        """Integer-coefficient multiple with content 1 and the same sign."""
        if self.is_zero:
            return self
        c = _content(self._nums)
        return Poly._raw([v // c for v in self._nums], 1)

    # -- equality / hashing / rendering ---------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._nums == other._nums and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __str__(self) -> str:
        if not self._nums:
            return "0"
        parts = []
        for k in range(len(self._nums) - 1, -1, -1):
            c = self.coefficient(k)
            if not c:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "z" if k == 1 else f"z^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self!s})"

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> list[str]:
        """Coefficient strings ``p/q`` in lowest terms, index = power of z."""
        d = self._den
        out = []
        for n in self._nums:
            g = math.gcd(n, d)
            out.append(f"{n // g}/{d // g}")
        return out

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "Poly":
        return cls(parse_rat(s) for s in data)


def _coerce(value: object) -> Poly | None:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.constant(value)
    return None


_ZERO = Poly()
_ONE = Poly([1])
_MINUS_ONE = Poly([-1])
_X = Poly([0, 1])


def poly_dot(terms: Iterable[tuple[Poly, Poly]]) -> Poly:
    """The sum of ``a * b`` over the pairs in ``terms``, normalized once.

    Every product is brought to the least common denominator of the
    products' denominators; large sums take one Kronecker product per term
    in a shared slot width and one unpack (see the Kronecker comment above).
    """
    nums, den = _dot_nums(terms)
    return Poly._raw(nums, den) if nums else _ZERO


def _dot_div(terms: Iterable[tuple[Poly, Poly]], divisor: Poly) -> Poly:
    """``poly_dot(terms).exact_div(divisor)`` with the sum left unnormalized:
    its digits go straight into the exact quotient loop of ``_quotient``."""
    q = _quotient(*_dot_nums(terms), divisor)
    if q is None:
        raise InexactDivisionError("polynomial division left a remainder")
    return q


def _dot_nums(terms: Iterable[tuple[Poly, Poly]]) -> tuple[list[int], int]:
    """(digits, den): the sum of ``a * b`` over ``terms`` is the polynomial
    with integer digits ``digits`` over ``den``, not normalized."""
    pairs = []  # each product with two nonzero factors: (shorter, longer, den)
    den = 1
    n_out = work = 0
    for a, b in terms:
        an, bn = a._nums, b._nums
        if an and bn:
            if len(an) > len(bn):
                an, bn = bn, an
            d = a._den * b._den
            pairs.append((an, bn, d))
            den = math.lcm(den, d)
            n_out = max(n_out, len(an) + len(bn) - 1)
            work += len(an) * len(bn)
    if work <= _SCHOOLBOOK_CUTOFF:
        out = [0] * n_out
        for an, bn, d in pairs:
            f = den // d
            for i, ai in enumerate(an):
                if ai:
                    fa = f * ai
                    for k, bj in enumerate(bn, i):
                        if bj:
                            out[k] += fa * bj
        return out, den
    bound = sum(
        (den // d) * max(map(abs, an)) * max(map(abs, bn)) * len(an)
        for an, bn, d in pairs
    )
    slot_bytes = _slot_bytes(bound)
    total = sum(
        (den // d) * _pack_in_slot(an, slot_bytes) * _pack_in_slot(bn, slot_bytes)
        for an, bn, d in pairs
    )
    return _unpack(total, n_out, slot_bytes), den


# (k, w) pairs: the integer weight w of the fixed operand F_k
_Row = Sequence[tuple[int, int]]


class FixedOperands:
    """Polynomials F_0, F_1, ... over one denominator, packed once per slot
    width, for zero tests of the sums they make with varying polynomials.

    ``polys`` are the operands as given.  ``is_zero(terms)`` tests one sum
    (Kronecker comment above); the packs of the F_k are kept by slot width,
    so a caller that holds this object across many tests packs them once
    per width, and each test packs only its varying digits.
    """

    __slots__ = ("polys", "_nums", "_bounds", "_bound", "_packs")

    def __init__(self, polys: Iterable[Poly]):
        self.polys = tuple(polys)
        den = math.lcm(*(p._den for p in self.polys))
        self._nums = [[v * (den // p._den) for v in p._nums] for p in self.polys]
        self._bounds = [max(map(abs, n), default=0) for n in self._nums]
        self._bound = max(self._bounds, default=0)
        self._packs: dict[int, list[int]] = {}

    def is_zero(self, terms: Iterable[tuple[Poly, Sequence[_Row]]]) -> bool:
        """Whether the sum over ``(f, rows)`` in ``terms`` and over r of

            (sum of w * F_k over (k, w) in rows[r]) * f^(r)

        is the zero polynomial.  The digits of f^(r) are read from f's integer
        numerators (k * a_k, then k * (k - 1) * a_k, ...) with no
        polynomial built; the sum is one integer, its value at z = 2^w.
        """
        terms = tuple(terms)
        den = math.lcm(*(f._den for f, _ in terms))
        nums, bounds = self._nums, self._bounds
        products = []  # (den // f's denominator, row, digits of f^(r))
        bound = 0  # the sum's largest digit
        widest = self._bound  # the largest digit packed
        for f, rows in terms:
            s = den // f._den
            v = f._nums
            for r, row in enumerate(rows):
                if r:
                    v = [k * v[k] for k in range(1, len(v))]
                if not v:
                    break
                mu = lu = 0
                for k, w in row:
                    mu += abs(w) * bounds[k]
                    lu = max(lu, len(nums[k]))
                if mu:
                    mv = max(map(abs, v))
                    widest = max(widest, mv)
                    bound += s * mu * mv * min(lu, len(v))
                    products.append((s, row, v))
        slot_bytes = _slot_bytes(max(bound, widest))
        packs = self._packs.get(slot_bytes)
        if packs is None:
            packs = self._packs[slot_bytes] = [_pack_in_slot(n, slot_bytes) for n in nums]
        total = 0
        for s, row, v in products:
            u = sum(w * packs[k] for k, w in row)
            total += s * u * _pack_in_slot(v, slot_bytes)
        return not total


def _dot_at(
    terms: Iterable[Sequence[Poly]], xn: int, xd: int, seen: dict
) -> tuple[int, int]:
    """(num, den) with num/den the value at xn/xd of the sum of the products
    of the factors in each term, den > 0, not reduced.

    A term is a sequence of one or more polynomials.  Each distinct factor
    is one integer Horner pass, however many terms share it, and a term
    stops at its first factor that vanishes at the point.  ``seen`` maps
    id(f) to (f, the Horner pair of f's integer numerators); it is filled as
    factors are read, and a caller may seed it with a factor it has already
    read.  Holding f keeps its id.  A term's denominator is brought to the
    running one by their gcd, and not at all when they are equal.
    """
    num, den = 0, 1
    for factors in terms:
        v = d = 1
        for f in factors:
            hit = seen.get(id(f))
            if hit is None:
                hit = seen[id(f)] = (f, *_horner(f._nums, xn, xd))
            _, vf, wf = hit
            if not vf:
                break
            v *= vf
            d *= f._den * wf
        else:
            if d == den:
                num += v
            else:
                g = math.gcd(den, d)
                num = num * (d // g) + v * (den // g)
                den = den // g * d
    return num, den


# ---------------------------------------------------------------------------
# Primitive remainder sequences over Q[z].
#
# Primitive pseudo-remainder sequence (von zur Gathen & Gerhard, Modern
# Computer Algebra, ch. 6): every element is stripped to its primitive
# integer part, which keeps the sequence in integers and the coefficient
# growth linear along it.  Each element is the negated remainder of the two
# before it, up to a positive factor, so the same sequence is the gcd (its
# last element) and the Sturm chain of p (the sequence of p and p').
# ---------------------------------------------------------------------------


def remainder_sequence(a: Poly, b: Poly) -> tuple[Poly, ...]:
    """a, b, then the negated pseudo-remainder of the two elements before,
    up to the last nonzero element; a must be nonzero.

    Every element is its primitive integer part with its sign kept.  Each
    pseudo-remainder is a positive multiple of the remainder over Q (the
    multiplier of ``_pdivmod`` is positive).
    """
    seq = [a.primitive_part()]
    r, sign = b._nums, 1
    while r:
        c = sign * _content(r)
        g = [v // c for v in r]
        r = _pdivmod(seq[-1]._nums, g)[1]
        seq.append(Poly._raw(g, 1))
        sign = -1
    return tuple(seq)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of two polynomials over the rationals."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    last = remainder_sequence(a, b)[-1]
    return last.monic() if last.degree > 0 else _ONE
