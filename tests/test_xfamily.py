"""Family construction: canonical keys, matrices, both build routes, degrees."""

import gc
import itertools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from xlegendre import (
    FamilyKey,
    Poly,
    PoleError,
    PolyMatrix,
    RatFun,
    build_matrix,
    canonicalize,
    exceptional_poly,
    expected_degree,
    family,
    legendre_poly,
    missing_degrees,
    norm_of,
    overlap_R,
    poly_dot,
    recursive_family,
    tau,
)
from xlegendre import legendre, polyring, ratfun, xfamily
from xlegendre.admissibility import admissibility_formula
from xlegendre.xfamily import XFamily, _tau_raw, _q_raw, _xpoly_raw

from helpers import (
    cofactor_det,
    deformed_overlaps_oracle,
    full_lattice,
    raw_xpoly,
    recurrence_legendre,
    sparse_poly,
)

F = Fraction


# -- keys and canonicalization ------------------------------------------------


def test_key_validation():
    with pytest.raises(ValueError):
        FamilyKey((1, 2), (F(1),))
    with pytest.raises(ValueError):
        FamilyKey((-1,), (F(1),))
    key = FamilyKey.of([2, 1], ["1/2", "-3"])
    assert key.t == (F(1, 2), F(-3))


def test_canonicalize_merges_duplicates():
    key = canonicalize(FamilyKey((3, 3), (F(1, 2), F(1, 2))))
    assert key == FamilyKey((3,), (F(1),))


def test_canonicalize_sorts():
    key = canonicalize(FamilyKey((2, 1), (F("1/3"), F(5))))
    assert key == FamilyKey((1, 2), (F(5), F(1, 3)))


def test_canonicalize_drops_zero_parameters():
    assert canonicalize(FamilyKey((5,), (F(0),))) == FamilyKey.classical()
    # cancelling duplicates vanish entirely
    assert canonicalize(FamilyKey((2, 2), (F(3), F(-3)))) == FamilyKey.classical()


# -- deformation matrix ---------------------------------------------------------


def test_matrix_one_level():
    key = FamilyKey((3,), (F(7, 2),))
    mat = build_matrix(key)
    assert mat.n == 1
    assert mat[0, 0] == Poly.one() + overlap_R(3, 3).scale(F(7, 2))


def test_matrix_two_levels_structure():
    t1, t2 = F(2), F(-8, 5)
    key = FamilyKey((1, 2), (t1, t2))
    mat = build_matrix(key)
    assert mat[0, 0] == Poly.one() + overlap_R(1, 1).scale(t1)
    assert mat[0, 1] == overlap_R(1, 2).scale(t2)
    assert mat[1, 0] == overlap_R(1, 2).scale(t1)
    assert mat[1, 1] == Poly.one() + overlap_R(2, 2).scale(t2)


def test_empty_key_matrix():
    mat = build_matrix(FamilyKey.classical())
    assert mat.n == 0
    assert mat.det() == Poly.one()
    assert tau(FamilyKey.classical()) == Poly.one()


# -- determinants and adjugates ---------------------------------------------------


small_rats = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _matrix_strategy(n):
    entry = st.lists(small_rats, min_size=0, max_size=3).map(Poly)
    return st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(PolyMatrix)


def _assert_adjugate_identity(mat):
    det = mat.det()
    adj = mat.adjugate()
    n = mat.n
    for i in range(n):
        got = adj.apply([mat[k, i] for k in range(n)])
        for j in range(n):
            assert got[j] == (det if i == j else Poly.zero())


@settings(max_examples=25)
@given(_matrix_strategy(4))
def test_bareiss_equals_cofactor(mat):
    assert mat.det() == cofactor_det(mat)


@settings(max_examples=15)
@given(_matrix_strategy(3))
def test_adjugate_identity(mat):
    if mat.det().is_zero:
        with pytest.raises(ValueError):
            mat.adjugate()
    else:
        _assert_adjugate_identity(mat)


_levels = st.integers(0, 5)
_params = st.fractions(min_value=-9, max_value=9, max_denominator=5)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(_levels, min_size=n, max_size=n),
            st.lists(_params, min_size=n, max_size=n),
        )
    )
)
def test_adjugate_identity_on_deformation_matrices(mt):
    # unsorted levels, duplicates and zero parameters are drawn as well; the
    # matrix of any key is I at z = -1, so no pivot of the elimination is zero
    mat = build_matrix(FamilyKey(tuple(mt[0]), tuple(mt[1])))
    n = mat.n
    assert all(mat[k, l].evaluate(-1) == (k == l) for k in range(n) for l in range(n))
    _assert_adjugate_identity(mat)


def test_bareiss_equals_cofactor_on_family_matrices():
    key = FamilyKey((0, 2, 3, 5), (F(1), F(-1, 4), F(7, 2), F(1, 3)))
    mat = build_matrix(key)
    assert mat.det() == cofactor_det(mat)


def test_singular_matrix_determinant_zero():
    row = (Poly([1, 1]), Poly([0, 2]))
    mat = PolyMatrix((row, row))
    assert mat.det().is_zero
    assert cofactor_det(mat).is_zero


@pytest.mark.parametrize(
    "rows",
    [
        ((Poly.zero(),),),
        ((Poly([1, 1]), Poly([0, 2])), (Poly([1, 1]), Poly([0, 2]))),
        # the first pivot is zero, so a row swap comes before the zero column
        (
            (Poly.zero(), Poly([1]), Poly([2])),
            (Poly([0, 1]), Poly([3]), Poly([1, 1])),
            (Poly.zero(), Poly([2]), Poly([4])),
        ),
    ],
)
def test_adjugate_of_singular_matrix_raises(rows):
    mat = PolyMatrix(rows)
    assert mat.det().is_zero
    with pytest.raises(ValueError, match="singular"):
        mat.adjugate()


# -- tau ------------------------------------------------------------------------


def test_tau_one_level_golden():
    key = FamilyKey((0,), (F(1),))
    assert tau(key) == Poly([2, 1])  # 1 + (z+1)


def test_tau_degree_and_boundary_value():
    for key in (
        FamilyKey((4,), (F(26, 5),)),
        FamilyKey((1, 2), (F(2), F(-8, 5))),
        FamilyKey((0, 3, 5), (F(1), F(7, 2), F(-1, 4))),
    ):
        tv = tau(key)
        assert tv.evaluate(-1) == 1
        assert tv.degree == 2 * sum(key.m) + key.n


def test_tau_four_level_display_scaled():
    # deformation polynomial for level 4 at t = 26/5: the degree-9 bracket
    # scaled by 26/2880
    key = FamilyKey((4,), (F(26, 5),))
    bracket = sparse_poly({0: 64, 1: 81, 3: -540, 5: 1998, 7: -2700, 9: 1225})
    assert tau(key) == Poly.one() + bracket.scale(F(26, 5 * 576))
    assert tau(key) == Poly.one() + bracket.scale(F(26, 2880))


def test_tau_symmetric_under_permutation():
    base = FamilyKey((1, 3, 4), (F(1), F(-1, 4), F(7, 2)))
    for perm in itertools.permutations(range(3)):
        key = FamilyKey(
            tuple(base.m[p] for p in perm), tuple(base.t[p] for p in perm)
        )
        assert _tau_raw(key) == tau(base)


# -- deformation vector -----------------------------------------------------------


def test_q_vector_one_level_is_classical_polynomial():
    key = FamilyKey((3,), (F(5, 7),))
    assert family(key).q == (legendre_poly(3),)


def test_q_vector_two_levels_display():
    t1, t2 = F(1, 2), F(-2, 3)
    key = FamilyKey((1, 2), (t1, t2))
    q = family(key).q
    first = (Poly.one() + overlap_R(2, 2).scale(t2)) * legendre_poly(1) - (
        overlap_R(1, 2).scale(t2) * legendre_poly(2)
    )
    second = (Poly.one() + overlap_R(1, 1).scale(t1)) * legendre_poly(2) - (
        overlap_R(1, 2).scale(t1) * legendre_poly(1)
    )
    assert q == (first, second)


def test_q_vector_equivariant_under_permutation():
    base = FamilyKey((0, 2, 5), (F(1), F(7, 2), F(-1, 4)))
    q_base = _q_raw(base)
    for perm in itertools.permutations(range(3)):
        key = FamilyKey(
            tuple(base.m[p] for p in perm), tuple(base.t[p] for p in perm)
        )
        q_perm = _q_raw(key)
        assert q_perm == tuple(q_base[p] for p in perm)


# -- family polynomials -----------------------------------------------------------


def test_polynomial_at_own_level_is_classical():
    key = FamilyKey((4,), (F(26, 5),))
    assert exceptional_poly(key, 4) == legendre_poly(4)


def test_polynomial_display_level4_index0():
    key = FamilyKey((4,), (F(1),))
    want = Poly.one() + sparse_poly({0: 16, 3: 135, 5: -459, 7: 585, 9: -245}, 144)
    assert exceptional_poly(key, 0) == want


def test_polynomial_one_step_hand_expansion():
    # (1 + R00) * z - R10 * 1 at t=1, with R00 = z+1, R10 = (z^2-1)/2
    key = FamilyKey((0,), (F(1),))
    want = Poly([F(1, 2), 2, F(1, 2)])  # z + (1/2)(z+1)^2
    assert exceptional_poly(key, 1) == want


def test_polynomial_independent_of_extension_parameter():
    key = FamilyKey((1, 3), (F(1), F(-1, 4)))
    reference = exceptional_poly(key, 5)
    for t_ext in (F(0), F(1), F(-3, 7)):
        extended = key.extended(5, t_ext)
        assert _q_raw(extended)[-1] == reference


def test_polynomial_classical_anchor_at_zero_parameters():
    key = canonicalize(FamilyKey((3,), (F(0),)))
    assert tau(key) == Poly.one()
    for i in range(6):
        assert exceptional_poly(key, i) == legendre_poly(i)


def test_level_removal_identity():
    key = FamilyKey((1, 2), (F(2), F(-8, 5)))
    assert exceptional_poly(key, 1) == exceptional_poly(FamilyKey((2,), (F(-8, 5),)), 1)
    assert exceptional_poly(key, 2) == exceptional_poly(FamilyKey((1,), (F(2),)), 2)


def test_one_parameter_tau_derivative_identity():
    for m, t in ((1, F(1)), (4, F(26, 5)), (5, F(-1, 4))):
        key = FamilyKey((m,), (t,))
        p = legendre_poly(m)
        assert tau(key).differentiate() == (p * p).scale(t)


# -- degrees ------------------------------------------------------------------------


def test_expected_degree_goldens():
    assert expected_degree(FamilyKey((4,), (F(1),)), 1) == 10
    assert expected_degree(FamilyKey((4,), (F(1),)), 4) == 4
    assert expected_degree(FamilyKey((1, 2), (F(1), F(1))), 1) == 6


def test_degree_law_matches_actual():
    for key in (
        FamilyKey((4,), (F(26, 5),)),
        FamilyKey((1, 2), (F(2), F(-8, 5))),
        FamilyKey((0, 2, 5), (F(1), F(-1, 4), F(7, 2))),
    ):
        for i in range(13):
            assert exceptional_poly(key, i).degree == expected_degree(key, i)


def test_missing_degrees_counts():
    assert missing_degrees(FamilyKey.classical()) == []
    key4 = FamilyKey((4,), (F(26, 5),))
    assert len(missing_degrees(key4)) == 9
    key12 = FamilyKey((1, 2), (F(2), F(-8, 5)))
    missing = missing_degrees(key12)
    assert len(missing) == 8 == tau(key12).degree
    # independent enumeration over a wide index range
    attained = {expected_degree(key12, i) for i in range(40)}
    assert missing == [d for d in range(max(attained)) if d not in attained][: len(missing)]


@pytest.mark.parametrize("t", [(F(1, 2), F(1, 2)), (F(1), F(-1))])
def test_expected_degree_answers_for_the_canonical_key(t):
    # duplicate levels merge (1/2 + 1/2 = 1) or cancel (1 - 1 = 0, the classical key)
    key = FamilyKey((3, 3), t)
    canonical = canonicalize(key)
    assert canonical.n == (t[0] + t[1] != 0)
    assert missing_degrees(key) == missing_degrees(canonical)
    for i in range(9):
        degree = exceptional_poly(key, i).degree
        assert expected_degree(key, i) == expected_degree(canonical, i) == degree, i


def test_degrees_drop_zero_parameter_levels():
    key = FamilyKey((4,), (F(0),))
    assert exceptional_poly(key, 0).degree == expected_degree(key, 0) == 0
    assert missing_degrees(key) == []
    mixed = FamilyKey((3, 1), (F(0), F(2)))
    assert missing_degrees(mixed) == missing_degrees(FamilyKey((1,), (F(2),)))
    for i in range(6):
        assert exceptional_poly(mixed, i).degree == expected_degree(mixed, i)


# -- recursive route -----------------------------------------------------------------


def test_recursive_one_level_matches_determinant():
    key = FamilyKey((2,), (F(7, 2),))
    rec = recursive_family(key, 6)
    assert rec.tau == tau(key)
    for i in range(7):
        assert rec.xpolys[i] == exceptional_poly(key, i)


def test_recursive_two_level_display():
    key = FamilyKey((1, 2), (F(1), F(1)))
    rec = recursive_family(key, 4)
    quart = (Poly([1, 1]) ** 4) * sparse_poly({0: 49, 1: -116, 2: 110, 3: -36, 4: 9})
    want = (
        Poly.one()
        + overlap_R(1, 1)
        + overlap_R(2, 2)
        + quart.scale(F(1, 960))
    )
    assert rec.tau == want


def test_recursive_equals_determinantal_sample():
    keys = [
        FamilyKey((0,), (F(1),)),
        FamilyKey((3, 5), (F(-1, 4), F(7, 2))),
        FamilyKey((1, 2, 4), (F(1), F(1), F(-1, 4))),
    ]
    for key in keys:
        rec = recursive_family(key, 10)
        assert rec.tau == tau(key)
        for i in range(11):
            assert rec.xpolys[i] == exceptional_poly(key, i)


def test_chain_tau_equals_determinantal_tau_at_ten_levels():
    key = FamilyKey(tuple(range(10)), tuple(F(k + 2, k + 1) for k in range(10)))
    mat = build_matrix(key)
    assert recursive_family(key, 0).tau == mat.det()
    assert mat.det().degree == 2 * sum(key.m) + key.n


def test_chain_polynomials_equal_determinantal_at_six_levels():
    t = (F(3, 2), F(-1, 3), F(5, 4), F(2), F(-7, 5), F(1, 6))
    key = FamilyKey((0, 1, 2, 3, 4, 6), t)
    rec = recursive_family(key, 6)
    fam = family(key)
    assert rec.tau == fam.tau
    for i in range(7):
        assert rec.xpolys[i] == fam.polynomial(i), i


def test_chain_divides_by_no_constant_one(monkeypatch):
    # tau_0 = 1 on the first step: dividing by it would change nothing
    key = FamilyKey((1, 2, 4), (F(1), F(-1, 4), F(7, 2)))
    fam = family(key)
    want = (fam.tau, [fam.polynomial(i) for i in range(13)])
    original = xfamily._dot_div
    divisors = []

    def refuse_one(terms, divisor):
        if divisor == Poly.one():
            raise AssertionError("exact division by 1")
        divisors.append(divisor)
        return original(terms, divisor)

    monkeypatch.setattr(xfamily, "_dot_div", refuse_one)
    rec = recursive_family(key, 12)
    assert (rec.tau, [rec.xpolys[i] for i in range(13)]) == want
    assert divisors  # steps 1 and 2 divide, through the fused kernel


def test_recursive_overlap_base_example():
    rec = recursive_family(FamilyKey((0,), (F(1),)), 2)
    ov = rec.overlaps[(0, 0)]
    assert ov == RatFun.of(Poly([1, 1]), Poly([2, 1]))


def test_overlaps_vanish_at_left_endpoint():
    for key in (
        FamilyKey((0,), (F(1),)),
        FamilyKey((1, 2), (F(2), F(-8, 5))),
        FamilyKey((2, 3, 5), (F(7, 2), F(-1, 4), F(1))),
    ):
        rec = recursive_family(key, 5)
        for i1 in range(6):
            for i2 in range(i1, 6):
                assert rec.overlaps[(i1, i2)].evaluate(-1) == 0


def test_overlap_derivative_is_weighted_product():
    # d/dz overlap(i1,i2) == P_i1 * P_i2 / tau^2 as rational functions
    key = FamilyKey((1, 2), (F(2), F(-8, 5)))
    rec = recursive_family(key, 3)
    tau_rf = RatFun.from_poly(rec.tau)
    for pair in ((0, 0), (1, 2), (3, 3)):
        lhs = rec.overlaps[pair].derivative()
        num = RatFun.from_poly(rec.xpolys[pair[0]] * rec.xpolys[pair[1]])
        assert lhs == num / (tau_rf * tau_rf)


def test_duplicate_levels_collapse_to_summed_parameter():
    # duplicate levels add their parameters, a zero parameter drops out and
    # the order of the levels is immaterial: the key's own matrix and the
    # public functions both give the merged key's tau and polynomials
    for base_m, base_t in (((), ()), ((2,), (F(1),))):
        for j in (0, 1, 3, 4):
            if j in base_m:
                continue
            for t1, t2 in ((F(1, 2), F(1, 2)), (F(2), F(-3, 4))):
                s = t1 + t2
                merged = FamilyKey(base_m + (j,), base_t + (s,))
                variants = (
                    FamilyKey(base_m + (j, j), base_t + (t1, t2)),
                    FamilyKey(base_m + (j, 5), base_t + (s, F(0))),
                    FamilyKey((j,) + base_m, (s,) + base_t),
                    FamilyKey((5, j, j) + base_m, (F(0), t2, t1) + base_t),
                )
                for key in variants:
                    assert _tau_raw(key) == _tau_raw(merged) == tau(key), key
                    for i in (0, j, j + 1):
                        expected = exceptional_poly(merged, i)
                        assert raw_xpoly(key, i) == expected, (key, i)
                        assert exceptional_poly(key, i) == expected, (key, i)


def test_chain_crosses_tau_with_repeated_root():
    # the level {1: -3} alone gives tau_1 = -z^3; every later step divides
    # by it, and each division must still be exact
    assert tau(FamilyKey((1,), (F(-3),))) == Poly([0, 0, 0, -1])
    for key in (
        FamilyKey((1, 2), (F(-3), F(1))),
        FamilyKey((1, 3, 4), (F(-3), F(2), F(-9, 2))),
    ):
        rec = recursive_family(key, 6)
        fam = family(key)
        assert rec.tau == fam.tau, key
        for i in range(7):
            assert rec.xpolys[i] == fam.polynomial(i), (key, i)


def test_closed_form_overlaps_match_level_by_level_deformation():
    keys = full_lattice(3, 5)[::17] + [FamilyKey((0, 1, 2, 4), (F(1), F(1, 2), F(-1, 4), F(2)))]
    cases = [(key, range(6)) for key in keys]
    five = FamilyKey((0, 1, 2, 3, 5), (F(1), F(1, 2), F(-1, 4), F(2), F(-3, 7)))
    cases.append((five, range(5)))
    assert {key.n for key, _ in cases} == {1, 2, 3, 4, 5}
    for key, indices in cases:
        fam = family(key)
        expected = deformed_overlaps_oracle(key, indices)
        for (i1, i2), value in expected.items():
            assert fam.overlap(i1, i2) == value, (key, i1, i2)
            assert fam.overlap(i2, i1) == fam.overlap(i1, i2)


def _value_or_pole(f, x):
    try:
        return f.evaluate(x)
    except PoleError:
        return PoleError


def _assert_overlap_matches_built_numerator(key, i, j, points):
    # a family of its own, so that its overlaps are deferred when first read;
    # the numerator built by rows: tau R(i, j) + sum_l a_i[l] R(m_l, j) with
    # a_i[l] = sum_k -t_k R(i, m_k) adj[k, l]
    fam = XFamily(canonicalize(key))
    m, t, adj = fam.key.m, fam.key.t, fam.adjugate
    scaled = [overlap_R(i, mk).scale(-tk) for mk, tk in zip(m, t)]
    rows = [poly_dot((s, adj[k, l]) for k, s in enumerate(scaled)) for l in range(len(m))]
    terms = [(fam.tau, overlap_R(i, j))] + [(a, overlap_R(ml, j)) for a, ml in zip(rows, m)]
    built = RatFun.of(poly_dot(terms), fam.tau)
    deferred = fam.overlap(i, j)
    for x in points:
        assert _value_or_pole(deferred, x) == _value_or_pole(built, x), (key, i, j, x)
    assert str(deferred) == str(built)
    assert (deferred.num, deferred.den) == (built.num, built.den)
    assert deferred == built and hash(deferred) == hash(built)


_admissible_keys = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 5), min_size=n, max_size=n, unique=True),
        st.lists(st.fractions(min_value=-1, max_value=9, max_denominator=5),
                 min_size=n, max_size=n),
    )
).map(lambda mt: FamilyKey(tuple(mt[0]), tuple(mt[1])))


@settings(max_examples=40, deadline=None)
@given(
    _admissible_keys,
    st.integers(0, 6),
    st.integers(0, 6),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=7), max_size=3),
)
def test_deferred_overlap_matches_built_numerator(key, i1, i2, points):
    assume(admissibility_formula(canonicalize(key)))
    i, j = min(i1, i2), max(i1, i2)
    _assert_overlap_matches_built_numerator(key, i, j, [1, -1, 0, *points])


@pytest.mark.parametrize("i, j", [(0, 0), (0, 2), (1, 1), (1, 3), (2, 2)])
def test_deferred_overlap_at_a_root_of_tau(i, j):
    key = FamilyKey((1,), (F(-3),))
    assert family(key).tau == Poly([0, 0, 0, -1])
    _assert_overlap_matches_built_numerator(key, i, j, [0, 1, -1])


def _count_poly_dot(monkeypatch) -> list:
    calls = []
    real = polyring.poly_dot

    def counted(terms):
        calls.append(terms)
        return real(terms)

    for module in (polyring, ratfun, xfamily):
        monkeypatch.setattr(module, "poly_dot", counted)
    return calls


def test_overlap_evaluate_builds_no_numerator(monkeypatch):
    key = canonicalize(FamilyKey((1, 3), (F(1), F(1, 2))))
    fam = XFamily(key)
    for i in range(5):
        for j in (*range(5), *key.m):
            overlap_R(i, j)
    calls = _count_poly_dot(monkeypatch)
    overlap = fam.overlap(2, 4)
    assert overlap.evaluate(1) == 0
    assert fam.overlap(2, 2).evaluate(1) == F(2, 5)
    assert calls == []
    overlap.num  # one product per pair of levels, then the sum
    assert len(calls) == key.n**2 + 1
    overlap.den
    assert len(calls) == key.n**2 + 1


def test_overlaps_at_both_ends_multiply_no_polynomial(monkeypatch):
    key = canonicalize(FamilyKey((3, 4, 5), (F(1, 2), F(-3, 4), F(5, 3))))
    for i in range(13):
        for j in range(i, 13):
            overlap_R(i, j)
    fam = XFamily(key)
    calls = _count_poly_dot(monkeypatch)
    for i in range(13):
        for j in range(i, 13):
            overlap = fam.overlap(i, j)
            assert overlap.evaluate(1) == (norm_of(key, i) if i == j else 0), (i, j)
            assert overlap.evaluate(-1) == 0, (i, j)
    assert calls == []


# bytes the overlaps of a fresh 3-level family retain once one overlap has
# been read, read by tracemalloc: 0 here, 46,120 while every overlap was
# memoized (about 500 bytes per pair), 43,304 while each index kept its row
# of polynomials; the bound leaves room for allocator noise
_OVERLAP_RETAINED_BOUND = 8_000


def test_overlaps_are_not_memoized():
    key = canonicalize(FamilyKey((3, 4, 5), (F(1, 2), F(-3, 4), F(5, 3))))
    pairs = [(i, j) for i in range(13) for j in range(i, 13)]  # the lattice range
    warm = XFamily(key)  # fills the Legendre overlap cache
    for i, j in pairs:
        warm.overlap(i, j).evaluate(1)
    fam = XFamily(key)
    fam.overlap(0, 0)  # builds the family's table of scaled adjugate entries
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i, j in pairs:
            fam.overlap(i, j).evaluate(1)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < _OVERLAP_RETAINED_BOUND, retained


@pytest.mark.parametrize(
    "key",
    [FamilyKey((2,), (F(1),)), FamilyKey((1, 3), (F(1), F(1, 2)))],
)
def test_overlap_map_answers_only_for_its_index_set(key):
    overlaps = recursive_family(key, 4).overlaps
    with pytest.raises(KeyError) as err:
        overlaps[(9, 9)]
    assert err.value.args == ((9, 9),)
    with pytest.raises(KeyError):
        overlaps[(2, 9)]
    assert (9, 9) not in overlaps and (2, 9) not in overlaps
    pairs = list(overlaps)
    assert len(pairs) == len(overlaps) == len(set(pairs)) == 15
    assert all(pair in overlaps and pair[0] <= pair[1] for pair in pairs)
    assert (3, 1) in overlaps
    assert overlaps[(3, 1)] == overlaps[(1, 3)] == family(key).overlap(1, 3)


# -- submatrix inversion identity -----------------------------------------------------


def _ratfun_matrix_inverse(rows):
    """Inverse of a small RatFun matrix via cofactors (test-local helper)."""
    n = len(rows)
    if n == 1:
        return [[RatFun.one() / rows[0][0]]]
    det = RatFun.zero()
    # Laplace expansion determinant
    def minor(rs, i, j):
        return [
            [e for cj, e in enumerate(r) if cj != j]
            for ri, r in enumerate(rs)
            if ri != i
        ]

    def det_of(rs):
        k = len(rs)
        if k == 1:
            return rs[0][0]
        acc = RatFun.zero()
        for idx in range(k):
            term = rs[0][idx] * det_of(minor(rs, 0, idx))
            acc = acc + term if idx % 2 == 0 else acc - term
        return acc

    det = det_of(rows)
    inv = []
    for i in range(n):
        inv.append([])
        for j in range(n):
            cof = det_of(minor(rows, j, i))
            if (i + j) % 2:
                cof = RatFun.zero() - cof
            inv[i].append(cof / det)
    return inv


@pytest.mark.parametrize(
    "key",
    [
        FamilyKey((0, 1, 3), (F(1), F(1, 2), F(-1, 4))),
        FamilyKey((0, 1, 2, 4), (F(1), F(1, 2), F(-1, 4), F(2))),
    ],
)
def test_bottom_right_block_of_inverse_matches_reduced_matrix(key):
    """The trailing 2x2 block of the full inverse equals the inverse of the
    2x2 matrix built from the chain-deformed overlaps of the first n-2
    levels (Schur-complement style submatrix identity)."""
    n = key.n
    mat = build_matrix(key)
    rows = [[RatFun.from_poly(mat[i, j]) for j in range(n)] for i in range(n)]
    inv = _ratfun_matrix_inverse(rows)
    block = [[inv[n - 2][n - 2], inv[n - 2][n - 1]], [inv[n - 1][n - 2], inv[n - 1][n - 1]]]

    prefix = FamilyKey(key.m[: n - 2], key.t[: n - 2])
    rec = recursive_family(prefix, max(key.m))
    ma, mb = key.m[n - 2], key.m[n - 1]
    ta, tb = key.t[n - 2], key.t[n - 1]
    small = [
        [RatFun.one() + rec.overlaps[(ma, ma)] * ta, rec.overlaps[(ma, mb)] * tb],
        [rec.overlaps[(ma, mb)] * ta, RatFun.one() + rec.overlaps[(mb, mb)] * tb],
    ]
    small_inv = _ratfun_matrix_inverse(small)
    for i in range(2):
        for j in range(2):
            assert block[i][j] == small_inv[i][j]


# -- cache object ------------------------------------------------------------------


def test_family_cache_returns_same_object_and_canonicalizes():
    a = family(FamilyKey((2, 1), (F(1), F(2))))
    b = family(FamilyKey((1, 2), (F(2), F(1))))
    assert a is b
    assert a.key.is_canonical
    matrix = build_matrix(a.key)
    assert a.tau == matrix.det()
    n = a.key.n
    prod = a.adjugate.apply([matrix[k, 0] for k in range(n)])
    assert prod[0] == a.tau
    assert prod[1].is_zero


def test_family_polynomial_memoized():
    fam = family(FamilyKey((3,), (F(1),)))
    assert fam.polynomial(2) is fam.polynomial(2)
    assert fam.polynomial(2) == exceptional_poly(fam.key, 2)
    # an index above the cutoff and outside the key is built again on each
    # read by the first-order route, not held, on the classical family too
    assert fam.polynomial(20) == fam.polynomial(20)
    assert 20 not in fam._xpolys and 2 in fam._xpolys
    classical = family(FamilyKey.classical())
    assert classical.polynomial(20) == legendre_poly(20)
    assert 20 not in classical._xpolys


# -- first-order form of the family polynomials ------------------------------------

_CUTOFF = xfamily._FIRST_ORDER_ABOVE


def _sum_form(fam, i):
    """The determinantal sum tau*P_i + sum_l R(i, m_l)*u_l, the oracle."""
    return _xpoly_raw(fam.key, i, fam.tau, fam._neg_tq)


_first_order_keys = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 9), min_size=n, max_size=n, unique=True),
        st.lists(
            st.fractions(min_value=-1000, max_value=1000, max_denominator=1000).filter(bool),
            min_size=n,
            max_size=n,
        ),
    )
).map(lambda mt: canonicalize(FamilyKey(tuple(mt[0]), tuple(mt[1]))))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_family_polynomials_are_minus_one_to_the_i_at_minus_one(data):
    # tau(-1) = 1 and every R(a, b) vanishes at -1, so P^_i(-1) = P_i(-1) on
    # every key, inadmissible or not: an index in the key, one the
    # determinantal sum reads (at most 12) or one the first-order route reads
    key = data.draw(_first_order_keys)
    i = data.draw(
        st.one_of(st.sampled_from(key.m), st.integers(0, 12), st.integers(13, 60))
    )
    assert exceptional_poly(key, i).evaluate(-1) == (-1) ** i


@settings(max_examples=25, deadline=None)
@given(_first_order_keys)
def test_first_order_form_equals_determinantal_sum(key):
    # every index up to the cutoff + 1 (so some lie between two levels, where
    # pi_i < 0, whenever the levels leave a gap), and one index far above
    fam = XFamily(key)
    route = xfamily._first_order(key, fam.tau, fam._neg_tq)
    for i in [*range(1, _CUTOFF + 2), 200]:
        if i not in key.m:
            assert route(i) == _sum_form(fam, i), (key, i)
    assert fam.polynomial(200) == _sum_form(fam, 200)


@pytest.mark.parametrize(
    "m, t, i",
    [((3, 20), (1, 2), 15), ((3, 9), (F(-5, 7), 4), 5), ((0, 20, 30), (F(1, 3), -2, 7), 17)],
)
def test_first_order_form_between_levels(m, t, i):
    fam = family(FamilyKey.of(m, t))
    assert math.prod(k * (k + 1) - i * (i + 1) for k in m) < 0  # pi_i
    assert xfamily._first_order(fam.key, fam.tau, fam._neg_tq)(i) == _sum_form(fam, i)
    assert fam.polynomial(i) == _sum_form(fam, i)


@pytest.mark.parametrize("key", [FamilyKey((1,), (F(-3),)), FamilyKey((1, 2), (F(-3), F(1)))])
def test_first_order_form_across_a_repeated_root_of_tau(key):
    # {1: -3} alone gives tau = -z^3; the chain is an oracle independent of R
    fam = XFamily(key)
    rec = recursive_family(key, _CUTOFF + 2)
    for i in (_CUTOFF + 1, _CUTOFF + 2):
        assert fam.polynomial(i) == _sum_form(fam, i) == rec.xpolys[i], (key, i)
    assert fam.polynomial(60) == _sum_form(fam, 60)


def test_polynomial_routes_indices_in_the_key_and_up_to_the_cutoff_to_the_sum(monkeypatch):
    calls = []
    sum_form, first_order = xfamily._xpoly_raw, xfamily._first_order

    def counted_sum(key, i, *rest):
        calls.append(("sum", i))
        return sum_form(key, i, *rest)

    def counted_first_order(*args):
        calls.append(("built", None))
        route = first_order(*args)
        return lambda i: calls.append(("first-order", i)) or route(i)

    monkeypatch.setattr(xfamily, "_xpoly_raw", counted_sum)
    monkeypatch.setattr(xfamily, "_first_order", counted_first_order)
    fam = XFamily(FamilyKey((2, 15), (F(1, 3), F(-2))))
    for i in [*range(_CUTOFF + 1), 15, 13, 14, 16, 40, 13, 2, 15]:
        fam.polynomial(i)
    # a second read of 2 or 15 is a memo hit; one of 13 is a route call again
    assert calls == (
        [("sum", i) for i in range(_CUTOFF + 1)]
        + [("sum", 15), ("built", None)]
        + [("first-order", i) for i in (13, 14, 16, 40, 13)]
    )
    calls.clear()
    XFamily(FamilyKey.classical()).polynomial(40)  # P_40 itself
    assert calls == [("built", None), ("first-order", 40)]


# -- the route's state: packed products advanced by the Legendre recurrence --------


def test_route_start_digits_are_the_closed_form_of_p_i():
    # against the three-term recurrence: legendre_poly reads the closed form too
    for i, p in enumerate(recurrence_legendre(200)):
        assert Poly(legendre._p_digits(i)) == p.scale(2**i), i


def test_route_on_the_classical_key():
    # a start at 13, a widening past the first capacity, a jump more than 128
    # ahead and a read back to 13
    fam = XFamily(FamilyKey.classical())
    cap = xfamily._capacity(_CUTOFF + 1)
    far = cap + 1 + xfamily._RESTART_AHEAD + 1
    for i in (_CUTOFF + 1, _CUTOFF + 2, cap, cap + 1, far, _CUTOFF + 1):
        assert fam.polynomial(i) == legendre_poly(i), i
    assert fam._first_order is not None


@pytest.mark.parametrize("key", [FamilyKey.classical(), FamilyKey((3, 20), (F(1), F(2)))])
def test_route_keeps_no_legendre_polynomial_above_the_levels(monkeypatch, key):
    # the route starts from the closed form of p_{i-1} and p_i; the memo keeps
    # only the polynomials the levels read
    legendre_poly.cache_clear()
    legendre._overlap.cache_clear()
    monkeypatch.setattr(xfamily, "_FAMILY_CACHE", {})
    exceptional_poly(key, 1000)
    assert legendre_poly.cache_info().currsize == key.n
    hits = legendre_poly.cache_info().hits
    for m in key.m:  # the ones held are the levels'
        legendre_poly(m)
    info = legendre_poly.cache_info()
    assert (info.hits, info.currsize) == (hits + key.n, key.n)


def test_route_access_patterns():
    key = FamilyKey((2, 15, 40), (F(1, 3), F(-2), F(5, 7)))
    fam = XFamily(key)
    route = xfamily._first_order(key, fam.tau, fam._neg_tq)
    caps = [xfamily._capacity(_CUTOFF + 1)]  # the capacities a start at 13 passes
    while caps[-1] < 200:
        caps.append(xfamily._capacity(caps[-1] + 1))
    assert len(caps) >= 4
    checked = {*range(13, 31), *caps, *(c + 1 for c in caps), 200}
    for i in range(_CUTOFF + 1, 201):  # sequential, stepping past 15 and 40
        if i not in key.m:
            p = route(i)
            if i in checked:  # the oracle at every index would take seconds
                assert p == _sum_form(fam, i), i
    # backward, a repeat, a jump past the capacity, a jump far ahead, backward
    cap = xfamily._capacity(50)
    far = cap + 1 + xfamily._RESTART_AHEAD + 1
    for i in (50, 50, cap + 1, far, 14):
        assert route(i) == _sum_form(fam, i), i


@pytest.mark.parametrize(
    "m, t", [((13,), (F(3, 2),)), ((20, 21), (F(-1, 4), 2)), ((0, 20, 21), (1, F(5, 3), -1))]
)
def test_route_steps_past_levels_it_does_not_serve(m, t):
    fam = XFamily(FamilyKey.of(m, t))
    for i in range(_CUTOFF + 1, 31):
        assert fam.polynomial(i) == _sum_form(fam, i), i


def test_route_across_sign_changes_of_pi():
    key = FamilyKey((2, 20, 21, 40), (F(1, 2), F(-3), F(7, 5), F(2)))
    fam = XFamily(key)
    signs = set()
    for i in range(_CUTOFF + 1, 50):
        if i not in key.m:
            signs.add(math.prod(m * (m + 1) - i * (i + 1) for m in key.m) > 0)
            assert fam.polynomial(i) == _sum_form(fam, i), i
    assert signs == {False, True}


_tall_keys = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 9), min_size=n, max_size=n, unique=True),
        st.lists(
            st.fractions(min_value=-1024, max_value=1024, max_denominator=1024).filter(bool),
            min_size=n,
            max_size=n,
        ),
    )
).map(lambda mt: canonicalize(FamilyKey(tuple(mt[0]), tuple(mt[1]))))


@settings(max_examples=10, deadline=None)
@given(_tall_keys)
def test_route_at_a_high_index_with_tall_parameters(key):
    # a start at 200, the last index its slots hold, and the widening after it
    fam = XFamily(key)
    route = xfamily._first_order(key, fam.tau, fam._neg_tq)
    cap = xfamily._capacity(200)
    for i in (200, cap, cap + 1):
        assert route(i) == _sum_form(fam, i), (key, i)


def test_route_digits_within_the_slot_bound(monkeypatch):
    # every digit read back, of a numerator or of a product repacked at a
    # widening, lies within the bound its slots were sized for
    seen = []

    def recording(bound):
        w, pack, unpack = polyring.kronecker_slots(bound)

        def checked(packed, n):
            digits = unpack(packed, n)
            seen.append((max(map(abs, digits)), bound))
            return digits

        return w, pack, checked

    monkeypatch.setattr(xfamily, "kronecker_slots", recording)
    key = FamilyKey((0, 3, 5, 7), (F(1021, 1019), F(-1000, 1023), F(997, 1013), F(-1009, 1024)))
    fam = XFamily(key)
    route = xfamily._first_order(key, fam.tau, fam._neg_tq)
    cap = xfamily._capacity(200)
    for i in (13, xfamily._capacity(13), xfamily._capacity(13) + 1, 200, cap, cap + 1):
        assert route(i) == _sum_form(fam, i), i
    assert all(top <= bound for top, bound in seen)


def test_route_under_concurrent_callers():
    # more threads than cores and a short switch interval, so that callers
    # interleave inside the route; a lost or torn update of its packed
    # products gives a wrong polynomial or an inexact division
    key = FamilyKey((1, 3, 4), (F(2), F(-1, 3), F(5, 2)))
    fam = XFamily(key)
    spans = [
        range(13, 90), range(60, 130), range(120, 40, -1), range(13, 130, 9), range(129, 12, -5)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(spans)) as pool:
            futures = [pool.submit(lambda s: {i: fam.polynomial(i) for i in s}, s) for s in spans]
            runs = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for run in runs:
        for i, p in run.items():
            assert p == _sum_form(fam, i), i
