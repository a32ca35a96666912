"""Cross-checks against sympy as an independent oracle (skipped without it)."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from xlegendre import Poly, PolyMatrix, legendre_poly, poly_gcd, root_count

from helpers import cofactor_det

sympy = pytest.importorskip("sympy")

_Z = sympy.Symbol("z")

rats = st.fractions(min_value=-9, max_value=9, max_denominator=7)


def _poly(max_size: int, min_size: int = 0):
    return st.lists(rats, min_size=min_size, max_size=max_size).map(Poly)


def _to_sympy(p: Poly):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs or [0], _Z, domain=sympy.QQ)


@settings(max_examples=200)
@given(_poly(4, min_size=1), st.integers(1, 3), _poly(15), _poly(6), st.booleans())
@example(Poly([Fraction(-1, 3), 1]), 3, Poly([2] + [0] * 10 + [5]), Poly([1, 7]), False)
def test_gcd_matches_sympy(common, power, a, b, swap):
    # a repeated common factor, and cofactors whose degrees differ by up to 14
    assume(not common.is_zero)
    c = common**power
    x, y = a * c, b * c
    if swap:
        x, y = y, x
    expected = sympy.gcd(_to_sympy(x), _to_sympy(y))
    assert _to_sympy(poly_gcd(x, y)) == expected


@settings(max_examples=100, deadline=None)
@given(_poly(12), _poly(6, min_size=1))
@example(Poly([1, 2, 3, 4]), Poly([5, 0, -2]))
@example(Poly.monomial(200), Poly([1, 3]))
def test_divmod_matches_sympy(a, b):
    assume(not b.is_zero)
    expected = sympy.div(_to_sympy(a), _to_sympy(b))
    assert tuple(map(_to_sympy, divmod(a, b))) == expected


_POINTS = [Fraction(v) for v in ("-2", "-1", "-1/2", "0", "1/3", "1/2", "1", "3/2")]


@settings(max_examples=100, deadline=None)
@given(
    _poly(4, min_size=1),
    _poly(3),
    st.sampled_from(_POINTS),
    st.lists(st.sampled_from(_POINTS), min_size=2, max_size=2, unique=True).map(sorted),
)
@example(Poly([-1, 0, 1]), Poly([1]), Fraction(1), [-1, 1])  # roots at both ends
@example(Poly([Fraction(-1, 4), 0, 1]), Poly([3, 1]), Fraction(1, 2), [-1, 1])
@example(Poly([2, 1]), Poly([1]), Fraction(-1, 2), [Fraction(-1, 2), 1])  # root at lo
@example(Poly([-3, 1]), Poly([1]), Fraction(3, 2), [0, Fraction(3, 2)])  # root at hi
@example(Poly([1, 0, 1]), Poly([Fraction(-1, 3), 1]), -2, [Fraction(-1, 2), 1])  # double root
def test_root_count_matches_sympy(a, b, r, interval):
    # a squared factor and a root at r make repeated, interior and endpoint
    # roots of the interval [lo, hi]
    lo, hi = interval
    p = a * b * b * Poly([-r, 1])
    assume(not p.is_zero)
    roots = _to_sympy(p).sqf_part().real_roots()
    expected = sum(1 for x in roots if bool(x >= lo) and bool(x <= hi))
    assert root_count(p, lo, hi) == expected


def _matrices(max_n: int):
    # small entries, with zeros often enough to force row swaps
    entry = st.one_of(st.just(Poly.zero()), _poly(3))
    def square(n):
        return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)

    return st.integers(1, max_n).flatmap(square).map(PolyMatrix)


def _sympy_det(m: PolyMatrix):
    mat = sympy.Matrix(m.n, m.n, lambda i, j: _to_sympy(m[i, j]).as_expr())
    return sympy.Poly(sympy.expand(mat.det(method="berkowitz")), _Z, domain=sympy.QQ)


@settings(max_examples=60, deadline=None)
@given(_matrices(4))
@example(PolyMatrix([[Poly.zero(), Poly([1])], [Poly([0, 1]), Poly([2])]]))
@example(
    PolyMatrix(
        [
            [Poly.zero(), Poly([1]), Poly([0, 1]), Poly([3])],
            [Poly.zero(), Poly([2]), Poly([1, 1]), Poly.zero()],
            [Poly([1, 0, 1]), Poly.zero(), Poly([5]), Poly([0, 2])],
            [Poly([Fraction(1, 2)]), Poly([7]), Poly.zero(), Poly([1])],
        ]
    )
)
def test_det_cofactor_and_bareiss_match_sympy(m):
    # the fraction-free elimination behind det() and the cofactor oracle
    expected = _sympy_det(m)
    assert _to_sympy(cofactor_det(m)) == expected
    assert _to_sympy(m.det()) == expected


@pytest.mark.parametrize("i", [0, 1, 2, 5, 13, 40])
def test_legendre_poly_matches_sympy(i):
    expected = sympy.Poly(sympy.legendre(i, _Z), _Z, domain=sympy.QQ)
    assert _to_sympy(legendre_poly(i)) == expected
