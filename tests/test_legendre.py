"""Classical Legendre layer: closed form, overlaps, norms, and cross-oracles."""

import math
import sys
import threading
from fractions import Fraction

import pytest

from xlegendre import Poly, classical_norm, legendre, legendre_poly, overlap_R
from xlegendre.operators import eigenvalue

from helpers import (
    OperatorSpec,
    apply_T_hat,
    fraction_antiderivative,
    recurrence_legendre,
    rodrigues_legendre,
    sparse_poly,
)


def test_recurrence_goldens():
    assert legendre_poly(0) == Poly.one()
    assert legendre_poly(1) == Poly([0, 1])
    assert legendre_poly(2) == Poly([Fraction(-1, 2), 0, Fraction(3, 2)])
    # degree-4 value frozen from the independent differentiation generator
    assert legendre_poly(4) == sparse_poly({0: 3, 2: -30, 4: 35}, 8)
    assert legendre_poly(4) == rodrigues_legendre(4)


def test_recurrence_matches_differentiation_generator_up_to_10():
    for i in range(11):
        assert legendre_poly(i) == rodrigues_legendre(i), i


def test_degree_and_leading_coefficient():
    for i in range(13):
        p = legendre_poly(i)
        assert p.degree == i
        want = Fraction(math.factorial(2 * i), 2**i * math.factorial(i) ** 2)
        assert p.leading_coefficient == want


def test_value_at_one_is_one():
    for i in range(13):
        assert legendre_poly(i).evaluate(1) == 1


def test_classical_eigenrelation_up_to_20():
    spec = OperatorSpec(Poly.one())
    for i in range(21):
        out = apply_T_hat(spec, legendre_poly(i))
        assert out.is_polynomial
        assert out.as_polynomial() == legendre_poly(i).scale(eigenvalue(i))


def test_overlap_goldens():
    assert overlap_R(0, 0) == Poly([1, 1])
    assert overlap_R(1, 1) == sparse_poly({0: 1, 3: 1}, 3)
    assert overlap_R(4, 4) == sparse_poly(
        {0: 64, 1: 81, 3: -540, 5: 1998, 7: -2700, 9: 1225}, 576
    )


def test_overlap_defining_properties():
    for i1 in range(6):
        for i2 in range(i1, 6):
            r = overlap_R(i1, i2)
            assert r.differentiate() == legendre_poly(i1) * legendre_poly(i2)
            assert r.evaluate(-1) == 0
            assert r.degree == i1 + i2 + 1
            assert overlap_R(i2, i1) == r


def test_overlaps_to_index_130_match_fraction_antiderivative():
    # the integer kernel's least common denominator against one Fraction per
    # coefficient, at the sizes `gen` reaches
    for i in range(131):
        for m in range(6):
            got = overlap_R(i, m)
            want = fraction_antiderivative(legendre_poly(i) * legendre_poly(m))
            assert (got._nums, got._den) == (want._nums, want._den), (i, m)


def test_orthogonality_at_one_up_to_12():
    for i1 in range(13):
        for i2 in range(i1 + 1, 13):
            assert overlap_R(i1, i2).evaluate(1) == 0


def test_classical_norms():
    assert classical_norm(0) == 2
    assert classical_norm(2) == Fraction(2, 5)
    # independent oracle: evaluate the diagonal overlap at the right endpoint
    assert overlap_R(7, 7).evaluate(1) == Fraction(2, 15)
    assert classical_norm(7) == Fraction(2, 15)
    for i in range(13):
        assert overlap_R(i, i).evaluate(1) == classical_norm(i)


def test_classical_norm_rejects_negative_index():
    with pytest.raises(ValueError):
        classical_norm(-1)
    with pytest.raises(ValueError):
        legendre_poly(-2)


def test_cache_concurrent_fill_is_consistent():
    # four threads fill both memos from empty; each entry equals the oracle's
    legendre_poly.cache_clear()
    legendre._overlap.cache_clear()
    start = threading.Barrier(4)
    results = {}

    def worker(tag):
        start.wait()
        polys = [legendre_poly(i) for i in range(25)]
        results[tag] = polys, [overlap_R(i, 24 - i) for i in range(25)]

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    expected = recurrence_legendre(24)
    overlaps = [fraction_antiderivative(expected[i] * expected[24 - i]) for i in range(25)]
    assert len(results) == 4
    for polys, got in results.values():
        assert polys == expected
        assert got == overlaps
    assert legendre_poly.cache_info().currsize == 25
    assert legendre._overlap.cache_info().currsize == 13
