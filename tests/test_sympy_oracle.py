"""Cross-checks against sympy as an independent oracle (skipped without it)."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from xlegendre import Poly, poly_gcd

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
