"""Canonical rational functions: reduction, arithmetic, evaluation, poles."""

from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, strategies as st

import xlegendre.polyring as polyring
import xlegendre.ratfun as ratfun
from xlegendre import (
    FamilyKey,
    InexactDivisionError,
    PoleError,
    Poly,
    RatFun,
    family,
    norm_of,
    poly_dot,
)

rats = st.fractions(min_value=-4, max_value=4, max_denominator=5)
polys = st.lists(rats, min_size=0, max_size=5).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


def test_canonical_form_monic_denominator():
    f = RatFun.of(Poly([2, 2]), Poly([0, 4]))  # (2z+2)/(4z) -> (z/2 + 1/2)/z
    assert f.den.leading_coefficient == 1
    assert f.den == Poly([0, 1])
    assert f.num == Poly([Fraction(1, 2), Fraction(1, 2)])


def test_reduction_cancels_common_factor():
    f = RatFun.of(Poly([-1, 0, 1]), Poly([1, 1]))  # (z^2-1)/(z+1) = z-1
    assert f.is_polynomial
    assert f.as_polynomial() == Poly([-1, 1])


@given(nonzero_polys, nonzero_polys)
def test_canonicalization_idempotent(num, den):
    f = RatFun.of(num, den)
    assert RatFun.of(f.num, f.den) == f


def test_mul_by_inverse_golden():
    inv = RatFun.of(Poly.one(), Poly([1, 1]))
    assert inv * Poly([1, 1]) == RatFun.one()


def test_sub_self_is_zero():
    f = RatFun.of(Poly([1, 2, 3]), Poly([5, 0, 1]))
    assert (f - f).is_zero
    assert f - f == RatFun.zero()


def test_one_step_deformed_overlap_reduction():
    # R - t*R^2/(1+t*R) with R = z+1, t = 1 reduces by hand to (z+1)/(z+2)
    r = RatFun.from_poly(Poly([1, 1]))
    t = Fraction(1)
    out = r - (r * r * t) / (RatFun.one() + r * t)
    assert out.num == Poly([1, 1])
    assert out.den == Poly([2, 1])


def test_evaluate_golden_and_boundary():
    f = RatFun.of(Poly([1, 1]), Poly([2, 1]))
    # equals the one-step deformed norm (t + 1/nu)^-1 at t=1, nu=2
    assert f.evaluate(1) == Fraction(2, 3)
    assert f.evaluate(1) == 1 / (1 + Fraction(1, 2))
    g = RatFun.from_poly(Poly([Fraction(-1, 2), 0, Fraction(1, 2)]))
    assert g.evaluate(-1) == 0


def test_evaluate_pole_raises():
    f = RatFun.of(Poly.one(), Poly([-1, 1]))
    with pytest.raises(PoleError):
        f.evaluate(1)
    assert f.evaluate(2) == 1


def test_division_by_zero_raises():
    f = RatFun.from_poly(Poly([1, 1]))
    with pytest.raises(ZeroDivisionError):
        f / RatFun.zero()
    with pytest.raises(ZeroDivisionError):
        RatFun.of(Poly.one(), Poly.zero())


@given(polys, nonzero_polys)
def test_product_quotient_roundtrip(p, q):
    f = RatFun.of(p * q, q)
    assert f.as_polynomial() == p


def test_as_polynomial_rejects_proper_fraction():
    f = RatFun.of(Poly([1, 0, 1]), Poly([1, 1]))
    with pytest.raises(InexactDivisionError):
        f.as_polynomial()


def test_as_polynomial_trivial_denominator():
    p = Poly([3, 0, 5])
    assert RatFun.from_poly(p).as_polynomial() == p


@given(polys, nonzero_polys, st.fractions(min_value=-3, max_value=3, max_denominator=7))
def test_evaluate_matches_componentwise(p, q, x):
    f = RatFun.of(p, q)
    if f.den.evaluate(x) == 0:
        return
    if q.evaluate(x) != 0:
        assert f.evaluate(x) == p.evaluate(x) / q.evaluate(x)


@given(polys, nonzero_polys, polys, nonzero_polys)
def test_field_arithmetic(a_num, a_den, b_num, b_den):
    a = RatFun.of(a_num, a_den)
    b = RatFun.of(b_num, b_den)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) - b == a
    if not b.is_zero:
        assert (a / b) * b == a


def test_derivative_quotient_rule():
    f = RatFun.of(Poly([0, 1]), Poly([1, 1]))  # z/(z+1)
    assert f.derivative() == RatFun.of(Poly.one(), Poly([1, 1]) * Poly([1, 1]))


# -- deferred reduction -------------------------------------------------------------

Z = Poly([0, 1])


def test_deferred_value_evaluates_through_removable_singularity():
    f = RatFun.of((Z - 1) * (Z + 2), Z - 1)
    assert f.evaluate(1) == 3
    assert f.evaluate(2) == 4


def test_deferred_value_still_raises_at_true_pole():
    f = RatFun.of(Poly.one(), Z - 1)
    with pytest.raises(PoleError):
        f.evaluate(1)
    g = RatFun.of((Z + 2) * (Z + 3), (Z + 2) * (Z - 1))
    with pytest.raises(PoleError):
        g.evaluate(1)
    assert g.evaluate(-2) == Fraction(-1, 3)


def test_deferred_and_reduced_values_agree():
    num, den = (Z + 1) * (Z - 3), (Z + 1) * Poly([1, 0, 2])
    eager = RatFun.of(num, den)
    eager.num  # reduces now
    deferred = RatFun.of(num, den)
    assert deferred == eager and eager == deferred
    assert hash(deferred) == hash(eager)
    assert str(RatFun.of(num, den)) == str(eager) == "(1/2*z - 3/2) / (z^2 + 1/2)"
    lazy = RatFun.of(num, den)
    assert (lazy.num, lazy.den) == (eager.num, eager.den)
    assert eager.den == Poly([Fraction(1, 2), 0, 1])


def test_concurrent_first_reads_agree():
    import sys
    import threading

    num, den = (Z + 1) ** 3 * (Z - 2), (Z + 1) ** 2 * (Z + 5)
    terms = [((Z + 1) ** 3, Z), ((Z + 1) ** 3, Poly([-2]))]  # num, deferred
    reduced = RatFun.of(num, den)
    want = (reduced.num, reduced.den)
    for k in range(20):
        shared = RatFun.of(num if k % 2 else terms, den)
        seen = []

        def read():
            seen.append((shared.evaluate(-1), (shared.num, shared.den)))

        threads = [threading.Thread(target=read) for _ in range(8)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=10)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert seen == [(Fraction(0), want)] * 8


# -- deferred numerator -------------------------------------------------------------


def test_deferred_numerator_matches_materialized():
    terms = [(Z + 1, Z - 3), (Poly([2]), Z * Z - 1)]
    den = (Z + 1) * Poly([1, 0, 2])
    built = RatFun.of(poly_dot(terms), den)
    assert RatFun.of(terms, den).evaluate(Fraction(1, 2)) == built.evaluate(Fraction(1, 2))
    assert RatFun.of(terms, den).evaluate(-1) == built.evaluate(-1)  # removable
    assert RatFun.of(terms, den) == built and hash(RatFun.of(terms, den)) == hash(built)
    assert str(RatFun.of(terms, den)) == str(built)
    once = RatFun.of(iter(terms), den)
    assert (once.num, once.den) == (built.num, built.den)


def test_deferred_zero_numerator():
    a, b = Z + 2, Z * Z - 3
    zero = RatFun.of([(a, b), (-a, b)], Z - 1)
    assert zero.is_zero and not zero
    assert zero == RatFun.zero() and zero.den == Poly.one()
    assert RatFun.of([], Z - 1).evaluate(1) == 0  # 0/0 reduces to 0/1 first
    assert not RatFun.of([(a, b)], Z - 1).is_zero
    with pytest.raises(ZeroDivisionError):
        RatFun.of([(a, b)], Poly.zero())


# -- values at a point as integer pairs ----------------------------------------------

# factors over different denominators; points off the integers and below zero
wide_polys = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=12), min_size=1, max_size=4
).map(Poly)
products = st.lists(wide_polys, min_size=2, max_size=3)
points = st.builds(Fraction, st.integers(-40, 40), st.integers(2, 9)) | st.integers(-5, -1).map(
    Fraction
)


@given(st.lists(products, max_size=4), wide_polys.filter(bool), points)
def test_deferred_value_matches_reduced_pair(terms, den, x):
    reduced = RatFun.of(terms, den)
    num_r, den_r = reduced.num, reduced.den
    built = sum((reduce(mul, t) for t in terms), Poly.zero())
    for value in (RatFun.of(terms, den), RatFun.of(built, den)):
        if den_r.evaluate(x) == 0:
            with pytest.raises(PoleError):
                value.evaluate(x)
        else:
            assert value.evaluate(x) == num_r.evaluate(x) / den_r.evaluate(x)


def test_diagonal_overlap_reads_tau_once(monkeypatch):
    key = FamilyKey((1, 2), (Fraction(1), Fraction(-1, 4)))
    fam = family(key)
    tau_nums = fam.tau._nums
    assert len(tau_nums) > 1
    calls = []
    horner = polyring._horner

    def counted(nums, xn, xd):
        if nums is tau_nums:
            calls.append((xn, xd))
        return horner(nums, xn, xd)

    monkeypatch.setattr(polyring, "_horner", counted)
    monkeypatch.setattr(ratfun, "_horner", counted, raising=False)
    for i in (1, 3):
        calls.clear()
        assert fam.overlap(i, i).evaluate(1) == norm_of(key, i)
        assert calls == [(1, 1)]
