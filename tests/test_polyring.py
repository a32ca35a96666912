"""Ring arithmetic, calculus, division, gcd, and serialization of Poly."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from xlegendre import (
    InexactDivisionError,
    NEG_INFINITY,
    Poly,
    parse_rat,
    poly_dot,
    poly_gcd,
    rat_str,
)
from xlegendre import polyring
from xlegendre.polyring import (
    _SCHOOLBOOK_CUTOFF,
    _SHIFT_PACK_COST,
    FixedOperands,
    _dot_at,
    _dot_div,
    _pack,
    _pack_in_slot,
    _unpack,
)

from helpers import fraction_antiderivative, fraction_divmod, poly_dot_is_zero, sparse_poly

rats = st.fractions(min_value=-5, max_value=5, max_denominator=6)
polys = st.lists(rats, min_size=0, max_size=6).map(Poly)
points = st.fractions(min_value=-3, max_value=3, max_denominator=8)

# coefficients up to about 2^200 over mixed denominators, and lengths on both
# sides of the schoolbook/Kronecker cutoff
_BIG = 2**200
_near_big = st.integers(_BIG - 3, _BIG + 3)
big_rats = st.builds(
    Fraction,
    st.one_of(_near_big.map(lambda v: -v), st.integers(-50, 50), _near_big),
    st.one_of(st.integers(1, 12), _near_big),
)
big_polys = st.lists(big_rats, min_size=0, max_size=40).map(Poly)
any_polys = st.one_of(polys, big_polys)


# -- rational literals ------------------------------------------------------


def test_parse_rat_grammar():
    assert parse_rat("3/4") == Fraction(3, 4)
    assert parse_rat("-7") == Fraction(-7)
    assert parse_rat(" 26/5 ") == Fraction(26, 5)
    for bad in ("1.5", "a", "1/-2", "--3", "2/0x", ""):
        with pytest.raises(ValueError):
            parse_rat(bad)
    with pytest.raises(ZeroDivisionError):
        parse_rat("1/0")


def test_rat_str_always_carries_denominator():
    assert rat_str(Fraction(1)) == "1/1"
    assert rat_str(Fraction(-1, 2)) == "-1/2"


# -- construction and basic queries ----------------------------------------


def test_trailing_zeros_trimmed_and_zero_degree():
    assert Poly([1, 2, 0, 0]) == Poly([1, 2])
    assert Poly([0, 0]).is_zero
    assert Poly().degree == NEG_INFINITY
    assert Poly([5]).degree == 0
    # degree arithmetic stays consistent with the -inf sentinel
    assert Poly().degree + 3 == NEG_INFINITY
    assert max(Poly().degree, Poly([1]).degree) == 0


def test_coefficients_are_exact_fractions():
    p = Poly(["1/1", "0/1", "-1/2"])
    assert p.coeffs == (Fraction(1), Fraction(0), Fraction(-1, 2))
    assert p.coefficient(2) == Fraction(-1, 2)
    assert p.coefficient(99) == 0
    assert p.leading_coefficient == Fraction(-1, 2)


def test_mul_golden_difference_of_squares():
    assert Poly([1, 1]) * Poly([-1, 1]) == Poly([-1, 0, 1])


def test_add_identity():
    p = sparse_poly({0: -1, 2: 3}, 2)
    assert p + Poly.zero() == p


def test_mul_golden_legendre2_squared():
    # ((3z^2-1)/2)^2 expanded by hand: (9z^4 - 6z^2 + 1)/4
    p2 = Poly([Fraction(-1, 2), 0, Fraction(3, 2)])
    assert p2 * p2 == sparse_poly({0: 1, 2: -6, 4: 9}, 4)


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def _schoolbook(a, b):
    """a * b from the integer convolution of the numerators, over the
    product of the denominators."""
    if a.is_zero or b.is_zero:
        return Poly.zero()
    an, bn = a._nums, b._nums
    out = [0] * (len(an) + len(bn) - 1)
    for i, x in enumerate(an):
        for j, y in enumerate(bn):
            out[i + j] += x * y
    den = a._den * b._den
    return Poly([Fraction(c, den) for c in out])


# coefficients of 300 bits and more, and lengths whose product falls on
# either side of the schoolbook/Kronecker cutoff
_HUGE = 2**300
_near_huge = st.integers(_HUGE - 3, _HUGE + 3)
huge_rats = st.builds(
    Fraction,
    st.one_of(_near_huge.map(lambda v: -v), st.integers(-50, 50), _near_huge),
    st.one_of(st.integers(1, 12), _near_huge),
)
_EDGE = math.isqrt(_SCHOOLBOOK_CUTOFF)  # EDGE^2 <= cutoff < (EDGE + 1)^2


def _huge_poly(n: int, sign: int) -> Poly:
    return Poly([Fraction(sign * (_HUGE + k) * (-1) ** k, 7 + k) for k in range(n)])


@given(
    st.lists(huge_rats, max_size=_EDGE + 8).map(Poly),
    st.lists(huge_rats, max_size=_EDGE + 8).map(Poly),
)
@example(_huge_poly(_EDGE, 1), _huge_poly(_EDGE, -1))
@example(_huge_poly(_EDGE + 1, 1), _huge_poly(_EDGE + 1, -1))
@example(_huge_poly(2 * _EDGE, -1), _huge_poly(_EDGE // 2, -1))
def test_mul_matches_schoolbook_oracle(a, b):
    _same(a * b, _schoolbook(a, b))


@given(polys, polys)
def test_degree_of_product(a, b):
    if not a.is_zero and not b.is_zero:
        assert (a * b).degree == a.degree + b.degree
    else:
        assert (a * b).is_zero


# -- calculus ----------------------------------------------------------------


def test_differentiate_goldens():
    assert Poly([0, 0, 0, 1]).differentiate() == Poly([0, 0, 3])
    assert Poly([7]).differentiate().is_zero
    # derivative of the diagonal overlap (9z^5-10z^3+5z+4)/20 equals the
    # independently expanded square of the degree-2 Legendre polynomial
    overlap = sparse_poly({0: 4, 1: 5, 3: -10, 5: 9}, 20)
    assert overlap.differentiate() == sparse_poly({0: 1, 2: -6, 4: 9}, 4)


def test_antiderivative_goldens():
    assert Poly([1]).antiderivative_from_minus1() == Poly([1, 1])
    assert Poly([0, 1]).antiderivative_from_minus1() == Poly([Fraction(-1, 2), 0, Fraction(1, 2)])
    p22 = sparse_poly({0: 1, 2: -6, 4: 9}, 4)
    assert p22.antiderivative_from_minus1() == sparse_poly({0: 4, 1: 5, 3: -10, 5: 9}, 20)


@given(any_polys)
def test_antiderivative_matches_fraction_construction(p):
    got, want = p.antiderivative_from_minus1(), fraction_antiderivative(p)
    assert (got._nums, got._den) == (want._nums, want._den)


def test_antiderivative_of_zero_and_of_huge_constant():
    assert Poly.zero().antiderivative_from_minus1() is Poly.zero()
    c = Fraction(2**200 + 1, 3)
    got = Poly([c]).antiderivative_from_minus1()
    assert (got._nums, got._den) == ((2**200 + 1, 2**200 + 1), 3)


@given(polys)
def test_antiderivative_roundtrip(p):
    f = p.antiderivative_from_minus1()
    assert f.differentiate() == p
    assert f.evaluate(-1) == 0


def test_evaluate_goldens():
    assert Poly([Fraction(-1, 2), 0, Fraction(1, 2)]).evaluate(1) == 0
    assert Poly([1, 1]).evaluate(1) == 2
    r22 = sparse_poly({0: 4, 1: 5, 3: -10, 5: 9}, 20)
    assert r22.evaluate(1) == Fraction(2, 5)


@given(polys, polys, points)
def test_evaluate_is_ring_homomorphism(a, b, x):
    assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
    assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)


# -- fused sum of products ------------------------------------------------------


def _naive_dot(terms):
    acc = Poly.zero()
    for a, b in terms:
        acc = acc + _schoolbook(a, b)
    return acc


def _same(got, want):
    assert (got._nums, got._den) == (want._nums, want._den)


@given(st.lists(st.tuples(any_polys, any_polys), max_size=5))
def test_poly_dot_matches_sum_of_products(terms):
    _same(poly_dot(terms), _naive_dot(terms))


@given(any_polys, any_polys, any_polys)
def test_poly_dot_cancellation(a, b, c):
    # the sum cancels to zero, or its top coefficients cancel
    _same(poly_dot([(a, b), (-a, b)]), Poly.zero())
    _same(poly_dot([(b, a), (a, c), (-a, b)]), a * c)


@given(
    # each factor with a flag: multiply it by (z - x), so that it vanishes at x
    st.lists(st.lists(st.tuples(any_polys, st.booleans()), min_size=1, max_size=4), max_size=5),
    st.one_of(st.integers(-4, 4), points),
)
@example([], 1)
@example([], Fraction(1, 3))
@example([[(Poly.zero(), False), (Poly([1, 2]), False)]], 1)
@example([[(Poly([Fraction(1, 2), 3]), False), (Poly([Fraction(-2, 3), 0, 5]), False)]], 1)
@example([[(Poly([3]), False)], [(Poly([1, 1]), True), (Poly([2, 0, 1]), False)]], -1)
@example([[(Poly([1, 2]), False), (Poly([4]), True), (Poly([0, 1]), False)]], Fraction(2, 3))
def test_poly_dot_at_matches_value_of_poly_dot(spec, x):
    root = Poly([-Fraction(x), 1])
    terms = [[f * root if vanish else f for f, vanish in fs] for fs in spec]
    # each product as a pair: all its factors but the last, multiplied out
    pairs = [(math.prod(fs[:-1], start=Poly.one()), fs[-1]) for fs in terms]
    want = poly_dot(pairs).evaluate(x)
    x = Fraction(x)
    num, den = _dot_at(terms, x.numerator, x.denominator, {})
    assert den > 0 and Fraction(num, den) == want


def test_poly_dot_goldens():
    assert poly_dot([]) is Poly.zero()
    assert poly_dot([(Poly.zero(), Poly([1, 2]))]) is Poly.zero()
    half_z = Poly([0, Fraction(1, 2)])
    # (z/2)(z/2) - (1/3)(3/4 z^2 - 1) = 1/3, below the schoolbook cutoff
    third = Poly([Fraction(-1, 3)])
    assert poly_dot([(half_z, half_z), (third, Poly([-1, 0, Fraction(3, 4)]))]) == Poly(
        [Fraction(1, 3)]
    )
    # the degree-118 products cancel to degree 89, above the cutoff
    long = Poly(range(1, 61))
    tail = Poly([0] * 30 + [Fraction(-1, 7)])
    got = poly_dot([(long, long), (-long, long - tail)])
    assert got == long * tail and got.degree == 89


# below the schoolbook cutoff: interior zeros, mixed denominators, and either
# operand the longer one
_sparse_rats = st.one_of(st.just(Fraction(0)), rats)
_short_sparse = st.lists(_sparse_rats, max_size=14).map(Poly)


@given(st.lists(st.tuples(_short_sparse, _short_sparse), max_size=4))
def test_poly_dot_schoolbook_matches_sum_of_products(terms):
    _same(poly_dot(terms), _naive_dot(terms))


def test_poly_dot_schoolbook_longer_operand_first():
    long = sparse_poly({0: 3, 4: -5, 9: 7}, den=4)
    short = Poly([Fraction(1, 3), 0, Fraction(-2, 9)])
    fifth = Poly([Fraction(1, 5)])
    for terms in (
        [(long, short)],
        [(long, short), (short, long.scale(Fraction(5, 7))), (fifth, long)],
        [(long, long), (short, short), (Poly.x(), fifth)],
    ):
        _same(poly_dot(terms), _naive_dot(terms))
    # (3 - 5z^4 + 7z^9)/4 * (1/3 - 2z^2/9) + z/5
    want = [Fraction(1, 4), Fraction(1, 5), Fraction(-1, 6), 0, Fraction(-5, 12), 0,
            Fraction(5, 18), 0, 0, Fraction(7, 12), 0, Fraction(-7, 18)]
    assert poly_dot([(long, short), (fifth, Poly.x())]) == Poly(want)


class _CountingInt(int):
    products = 0

    def __mul__(self, other):
        _CountingInt.products += 1
        return int(self) * other

    __rmul__ = __mul__


def test_poly_dot_schoolbook_loops_over_the_shorter_operand():
    # the shorter operand is the outer loop, so each of its nonzero
    # coefficients enters one product, with the denominator factor
    short = Poly._raw([_CountingInt(v) for v in (3, 0, -2)], 5)
    long = Poly([Fraction(k - 4, 3) for k in range(11)])
    want = _naive_dot([(short, long)])
    for terms in ([(short, long)], [(long, short)]):
        _CountingInt.products = 0
        got = poly_dot(terms)
        assert _CountingInt.products == 2
        _same(got, want)


@pytest.mark.parametrize("bits", range(60, 68))
def test_poly_dot_slots_hold_the_largest_digit(bits):
    # equal extreme coefficients make the middle digits reach the slot bound,
    # and one of eight consecutive sizes leaves no rounding slack in the slot
    top = Poly([2**bits - 1] * 32)
    bottom = -top
    ones = Poly([1] * 32)
    for terms in ([(top, top)] * 8, [(bottom, top)] * 8, [(top, top), (bottom, ones)]):
        _same(poly_dot(terms), _naive_dot(terms))


_scales = st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-5, 7)])


@given(
    st.lists(st.tuples(any_polys, any_polys), max_size=4),
    st.one_of(st.none(), _scales),
    st.sampled_from([None, "lowest", "middle", "top"]),
    st.sampled_from([1, -1]),
)
@example([], None, None, 1)
@example([(Poly([1, 2]), Poly([3]))], None, None, 1)
@example([(Poly.zero(), Poly([1, 2]))], None, None, 1)
@example([(Poly([1, 2]), Poly([Fraction(1, 3)]))], Fraction(2), None, 1)
@example(
    [(Poly([Fraction(1, 2**200 + 1)] * 30), Poly([2**200] * 31))], Fraction(1, 3), "middle", -1
)
def test_poly_dot_is_zero_matches_poly_dot(terms, cancel, slot, sign):
    # cancel: each (a, b) also enters as (r*b, -a/r), so the products cancel
    # across different denominators; slot: then one digit +-1 over the
    # common denominator is left in the lowest, a middle or the top slot
    if cancel is not None:
        terms = terms + [(b.scale(cancel), a.scale(-1 / cancel)) for a, b in terms]
    if slot is not None:
        den = math.lcm(1, *(a._den * b._den for a, b in terms if a and b))
        n_out = max((a.degree + b.degree + 1 for a, b in terms if a and b), default=1)
        k = {"lowest": 0, "middle": n_out // 2, "top": n_out - 1}[slot]
        terms = terms + [(Poly.monomial(k, Fraction(sign, den)), Poly.one())]
    got = poly_dot_is_zero(terms)
    assert got is poly_dot(terms).is_zero
    if cancel is not None:
        assert got is (slot is None)


@pytest.mark.parametrize("bits", range(60, 68))
def test_poly_dot_is_zero_slots_hold_the_largest_digit(bits):
    # 2^bits - z and z^2 - 2^bits*z vanish at z = 2^bits, and one of eight
    # consecutive sizes makes that the value at z = 2^w one slot byte short
    h = bits // 2
    ones = Poly([1] * 32)
    top = Poly([2**bits - 1] * 32)
    for terms in (
        [(Poly([2**h]), Poly([2 ** (bits - h)])), (Poly([0, -1]), Poly.one())],
        [(Poly([0, 2**h]), Poly([-(2 ** (bits - h))])), (Poly.x(), Poly.x())],
        [(top, top)] * 8 + [(-top, top)] * 7 + [(top, ones)],
    ):
        assert not poly_dot_is_zero(terms) and not poly_dot(terms).is_zero
    assert poly_dot_is_zero([(top, top)] * 8 + [(top, -top)] * 8)


_weights = st.lists(st.tuples(st.integers(0, 3), st.integers(-3, 3)), max_size=2)


@given(
    st.lists(any_polys, min_size=1, max_size=4),
    st.lists(st.tuples(any_polys, st.lists(_weights, max_size=3)), max_size=3),
    st.booleans(),
)
@example([Poly([1])], [], False)
@example([Poly([2**200])], [(Poly([1, 2]), [[], [(0, 3)]])], True)
def test_fixed_operands_zero_test_matches_built_sum(fixed, terms, cancel):
    # rows[r] weights the fixed operands against f^(r); cancel enters every
    # term again with its weights negated, so the sum is zero
    terms = [
        (f, tuple(tuple((k % len(fixed), w) for k, w in row) for row in rows))
        for f, rows in terms
    ]
    if cancel:
        terms += [(f, tuple(tuple((k, -w) for k, w in row) for row in rows)) for f, rows in terms]
    built = []
    for f, rows in terms:
        for row in rows:
            built.append((sum((fixed[k].scale(w) for k, w in row), Poly.zero()), f))
            f = f.differentiate()
    got = FixedOperands(fixed).is_zero(terms)
    assert got is poly_dot(built).is_zero
    if cancel:
        assert got


def test_fixed_operands_slots_hold_operands_without_a_partner():
    # F_0 = 10^30 meets the zero derivative of a constant, so the sum's digit
    # bound does not cover it; it is packed all the same, in a slot that holds it
    rows = (((1, 1), (2, 1)), ((0, 1),))
    for fixed, zero in (((10**30, 1, -1), True), ((10**30, 1, 0), False)):
        operands = FixedOperands(Poly([c]) for c in fixed)
        assert operands.is_zero([(Poly([3]), rows)]) is zero


def test_fixed_operands_pack_once_per_slot_width(monkeypatch):
    # the classical operator minus lambda_2 = -6: A = 1-z^2, B = -2z, C = 0, tau = 1
    operands = FixedOperands((Poly([1, 0, -1]), Poly([0, -2]), Poly.zero(), Poly.one()))
    rows = (((2, 1), (3, 6)), ((1, 1),), ((0, 1),))
    packed = []
    real = polyring._pack_in_slot
    monkeypatch.setattr(
        polyring, "_pack_in_slot", lambda nums, sb: packed.append(sb) or real(nums, sb)
    )
    assert operands.is_zero([(Poly([-1, 0, 3]), rows)])  # 2 * P_2
    assert len(packed) == 4 + 3  # the four operands, then P, P', P''
    assert not operands.is_zero([(Poly([1, 0, 3]), rows)])
    assert len(packed) == 7 + 3 and len(set(packed)) == 1  # the same slot: P, P', P'' only


@pytest.mark.parametrize("slot_bytes", [1, 2, 8, 33])
def test_pack_round_trips_the_widest_digits(slot_bytes):
    half = 1 << (8 * slot_bytes - 1)
    for x in ([half - 1], [-half], [half - 1, 0, -half, 1 - half, -1, half - 1]):
        assert _unpack(_pack(x, slot_bytes), len(x), slot_bytes) == x
    # a digit outside the slot raises instead of spilling into its neighbour
    for x in ([half], [0, -half - 1]):
        with pytest.raises(OverflowError):
            _pack(x, slot_bytes)


@pytest.mark.parametrize("slot_bytes", [1, 2, 8, 33])
def test_shift_pack_matches_the_byte_join(slot_bytes):
    # in-slot digits, extremes included, at lengths on both sides of the
    # switch from the shift loop to the byte join
    w = 8 * slot_bytes
    half = 1 << (w - 1)
    switch = math.isqrt(_SHIFT_PACK_COST // slot_bytes)  # the longest shifted
    for n in (0, 1, 2, switch - 1, switch, switch + 1, 2 * switch + 3):
        x = [-half, half - 1][:n] + [(k * 2654435761) % (2 * half) - half for k in range(2, n)]
        packed = _pack_in_slot(x, slot_bytes)
        assert packed == _pack(x, slot_bytes) == sum(v << (w * k) for k, v in enumerate(x))


# -- division and gcd ---------------------------------------------------------


@given(polys, polys)
def test_divmod_invariant(a, b):
    if b.is_zero:
        with pytest.raises(ZeroDivisionError):
            divmod(a, b)
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree


@given(any_polys, any_polys)
@example(Poly([1, 2, 3, 4]), Poly([5, 0, -2]))  # negative leading coefficient
@example(Poly([-5, 0, 3]) * Poly([1, 7]), Poly([-5, 0, 3]))
@example(Poly([5, 0, 7, 1]), Poly([1, 2**200 + 1]))  # large leading coefficient
@example(Poly([Fraction(1, 2), 3, -4]), Poly([1]))  # constant divisors
@example(Poly([Fraction(1, 2), 3, -4]), Poly([Fraction(-3, 7)]))
@example(Poly([1, 2]), Poly([1, 0, 1]))  # dividend shorter than the divisor
@example(Poly.monomial(200), Poly([1, 3]))  # quotient denominator 3^200, 317 bits
def test_division_matches_fraction_long_division(a, b):
    assume(not b.is_zero)
    q, r = fraction_divmod(a, b)
    assert divmod(a, b) == (q, r)
    assert a.exact_div_or_none(b) == (q if r.is_zero else None)


@given(polys, polys)
def test_exact_division_of_products(a, b):
    if a.is_zero:
        return
    assert (a * b).exact_div(a) == b


def test_exact_div_rejects_remainder():
    with pytest.raises(InexactDivisionError):
        Poly([1, 0, 1]).exact_div(Poly([1, 1]))
    assert Poly([1, 0, 1]).exact_div_or_none(Poly([1, 1])) is None


def test_exact_div_rejects_a_later_top_digit():
    # (2z^2 + 2z) / (2z + 1): the first top digit 2 is a multiple of lc 2,
    # the next one, 1, is not, and nothing is left below it;
    # (2z^2 + z + 1) / (2z + 1) leaves only the remainder 1, below every top digit
    divisor = Poly([1, 2])
    for dividend in (Poly([0, 2, 2]), Poly([1, 1, 2])):
        assert dividend.exact_div_or_none(divisor) is None
        with pytest.raises(InexactDivisionError):
            _dot_div([(dividend, Poly.one())], divisor)


_divisor_scales = st.sampled_from(
    [Fraction(1), Fraction(6), Fraction(-4), Fraction(1, 6), Fraction(-9, 4)]
)


@given(
    st.lists(st.tuples(any_polys, any_polys), max_size=4),
    st.tuples(polys.filter(bool), _divisor_scales).map(lambda ps: ps[0].scale(ps[1])),
    st.booleans(),
)
@example([(Poly([1, 2]), Poly([3, 0, 1]))], Poly([6, 0, -4]), True)  # content 2, lc < 0
@example([(Poly([1, 2]), Poly([3, 0, 1]))], Poly([6, 0, -4]), False)
@example([(Poly([Fraction(1, 2), 3]), Poly([5]))], Poly([Fraction(-3, 7)]), False)  # constant
@example([(Poly([1, 1]), Poly([0, 2]))], Poly([Fraction(1, 2), Fraction(3, 4)]), True)
@example([], Poly([2, 4]), True)
def test_dot_div_matches_dot_then_exact_div(terms, divisor, exact):
    # rational terms, the sum a multiple of the divisor or not
    if exact:
        terms = [(a * divisor, b) for a, b in terms]
    total = poly_dot(terms)
    q, r = fraction_divmod(total, divisor)
    if r.is_zero:
        got = _dot_div(terms, divisor)
        _same(got, total.exact_div(divisor))
        _same(got, q)
    else:
        assert total.exact_div_or_none(divisor) is None
        with pytest.raises(InexactDivisionError):
            _dot_div(terms, divisor)


@given(polys, polys, polys)
def test_gcd_divides_both_and_contains_common_factor(a, b, c):
    if a.is_zero and b.is_zero:
        return
    g = poly_gcd(a * c, b * c)
    if not (a * c).is_zero:
        assert (a * c).exact_div_or_none(g) is not None
    if not (b * c).is_zero:
        assert (b * c).exact_div_or_none(g) is not None
    if not c.is_zero and not (a.is_zero and b.is_zero):
        # the common factor must be contained in the gcd
        assert g.exact_div_or_none(c.monic()) is not None or poly_gcd(a, b).degree > 0


def test_gcd_is_monic():
    g = poly_gcd(Poly([2, 2]), Poly([-4, 0, 4]))
    assert g == Poly([1, 1])


def test_primitive_part_preserves_sign():
    p = Poly([Fraction(-4, 3), 0, Fraction(-8, 3)])
    pp = p.primitive_part()
    assert pp == Poly([-1, 0, -2])
    assert pp.leading_coefficient < 0


def test_pow():
    assert Poly([1, 1]) ** 4 == sparse_poly({0: 1, 1: 4, 2: 6, 3: 4, 4: 1})
    assert Poly([0, 2]) ** 0 == Poly.one()


# -- serialization -------------------------------------------------------------


def test_json_format_and_roundtrip():
    p = Poly([1, 0, Fraction(-1, 2)])
    assert p.to_json() == ["1/1", "0/1", "-1/2"]
    assert Poly.from_json(p.to_json()) == p


@given(any_polys)
def test_json_roundtrip_random(p):
    assert Poly.from_json(p.to_json()) == p


@given(any_polys)
def test_json_matches_rat_str_of_each_coefficient(p):
    assert p.to_json() == [rat_str(c) for c in p.coeffs]
