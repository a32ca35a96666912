"""Sturm chains, admissibility decisions, norms, and orthogonality reports."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from xlegendre import (
    FamilyKey,
    InadmissibleKeyError,
    Poly,
    admissibility_formula,
    admissibility_record,
    classical_norm,
    legendre_poly,
    norm_of,
    orthogonality_check,
    root_count,
    tau,
)

from xlegendre.polyring import remainder_sequence
from xlegendre.xfamily import canonicalize

from helpers import rational_sturm_chain

F = Fraction


# -- Sturm machinery -----------------------------------------------------------


def test_sturm_chain_shape():
    p = Poly([-2, 0, 1])  # z^2 - 2
    chain = remainder_sequence(p, p.differentiate())
    assert chain[0] == p.primitive_part()
    assert chain[1] == Poly([0, 1])  # derivative 2z, primitive
    assert chain[-1].degree == 0


_sturm_rats = st.fractions(min_value=-6, max_value=6, max_denominator=5)
_sturm_polys = st.one_of(
    st.lists(_sturm_rats, min_size=1, max_size=10).map(Poly),
    # a squared factor gives a repeated root and a chain ending above degree 0
    st.tuples(
        st.lists(_sturm_rats, min_size=1, max_size=4).map(Poly),
        st.lists(_sturm_rats, min_size=2, max_size=4).map(Poly),
    ).map(lambda ab: ab[0] * ab[1] * ab[1]),
).filter(bool)


@given(_sturm_polys)
@example(Poly([-2, 1, 0, -3]))  # negative leading coefficient
@example(Poly([F(1, 4), -1, 1]) * Poly([3, 1]))  # double root at 1/2
@example(Poly([F(-5, 3)]))  # constant: the chain is p alone
@example(Poly([1, 0, 0, 0, 1]))  # z^4 + 1 by z^3 leaves 1: degree drops by 3
@example(Poly([0, -1, 0, 0, 0, 2]))  # 2z^5 - z: degree drops from 4 to 1
def test_sturm_chain_matches_rational_chain(p):
    assert remainder_sequence(p, p.differentiate()) == rational_sturm_chain(p)


def test_root_count_endpoints():
    assert root_count(Poly([-1, 0, 1]), -1, 1) == 2  # roots exactly at both ends
    assert root_count(Poly([-1, 0, 1]), F(-1, 2), F(1, 2)) == 0


def test_root_count_boundary_parameter():
    # 1 + t(z+1) with t = -1/2 has its only root at z = 1
    p = Poly.one() + Poly([1, 1]).scale(F(-1, 2))
    assert root_count(p, -1, 1) == 1
    assert p.evaluate(1) == 0


def test_root_count_interior_and_multiplicity():
    p = Poly([0, 1]) * Poly([0, 1]) * Poly([2, 1])  # z^2 (z+2)
    assert root_count(p, -1, 1) == 1  # double root counts once
    q = Poly([-F(1, 4), 0, 1]) * Poly([3, 1])  # (z^2-1/4)(z+3)
    assert root_count(q, -1, 1) == 2


def test_root_count_level4_admissible_tau():
    key = FamilyKey((4,), (F(26, 5),))
    tv = tau(key)
    assert root_count(tv, -1, 1) == 0
    # independent oracle: sign sampling on a fine rational grid
    for k in range(101):
        z = F(-1) + F(2 * k, 100)
        assert tv.evaluate(z) > 0


def test_root_count_counts_sign_crossings_of_inadmissible_tau():
    key = FamilyKey((2,), (F(-3),))  # t < -m - 1/2
    assert root_count(tau(key), -1, 1) >= 1


def test_root_count_rejects_bad_input():
    with pytest.raises(ValueError):
        root_count(Poly.zero(), -1, 1)
    with pytest.raises(ValueError):
        root_count(Poly.one(), 1, -1)


# -- admissibility --------------------------------------------------------------


def test_admissibility_examples():
    assert admissibility_formula(FamilyKey((4,), (F(26, 5),)))
    assert admissibility_formula(FamilyKey((1, 2), (F(2), F(-8, 5))))  # -8/5 > -5/2
    assert not admissibility_formula(FamilyKey((0,), (F(-1, 2),)))  # boundary excluded


def test_admissibility_cross_check_runs():
    # the formula's verdict, and the Sturm count of tau agreeing with it
    for key, verdict in ((FamilyKey((3,), (F(-1, 4),)), True), (FamilyKey((1,), (F(-2),)), False)):
        record = admissibility_record(key)
        assert admissibility_formula(key) is record.formula_verdict is verdict
        assert record.consistent


def test_admissibility_record_consistency_grid():
    # formula verdict must equal the zero-free verdict on both sides of the
    # boundary, at distances 1/10 and 1/1000
    for m in range(4):
        boundary = -F(2 * m + 1, 2)
        for eps in (F(1, 10), F(1, 1000)):
            for t in (boundary + eps, boundary - eps):
                record = admissibility_record(FamilyKey((m,), (t,)))
                assert record.consistent
                assert record.formula_verdict == (t > boundary)


def test_admissibility_answers_for_merged_duplicate_levels():
    # {3: -4} alone is inadmissible, but the duplicates merge into {3: 1/2}
    key = FamilyKey((3, 3), (F(-4), F(9, 2)))
    assert admissibility_formula(key)
    record = admissibility_record(key)
    assert record.key == FamilyKey((3,), (F(1, 2),))
    assert record.formula_verdict and record.consistent and record.roots_in_interval == 0


def test_admissibility_two_level_mixed():
    rec = admissibility_record(FamilyKey((1, 3), (F(-3, 2) + F(1, 10), F(1))))
    assert rec.consistent and rec.formula_verdict
    rec = admissibility_record(FamilyKey((1, 3), (F(-3, 2) - F(1, 10), F(1))))
    assert rec.consistent and not rec.formula_verdict


# -- norms ------------------------------------------------------------------------


def test_norm_values():
    key = FamilyKey((4,), (F(26, 5),))
    assert norm_of(key, 4) == F(10, 97)  # 2 / (1 + 8 + 52/5)
    assert norm_of(key, 7) == F(2, 15)
    assert norm_of(FamilyKey.classical(), 3) == F(2, 7)


def test_norm_rejects_inadmissible_key():
    with pytest.raises(InadmissibleKeyError):
        norm_of(FamilyKey((0,), (F(-1, 2),)), 0)


def test_norm_table_positive_for_admissible():
    for key in (
        FamilyKey((4,), (F(26, 5),)),
        FamilyKey((1, 2), (F(2), F(-8, 5))),
        FamilyKey((0, 3), (F(-1, 4), F(7, 2))),
    ):
        assert all(norm_of(key, i) > 0 for i in range(11))


def test_norms_of_untouched_levels_are_classical():
    key = FamilyKey((2, 4), (F(1), F(-1, 4)))
    for i in range(9):
        if i not in key.m:
            assert norm_of(key, i) == classical_norm(i)


_HEIGHT = 2**64


@st.composite
def _keys_near_bound(draw):
    # distinct levels; each parameter either of height up to 2^64 or within
    # 1/q of the bound -m - 1/2 (at it, above or below)
    levels = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True))
    ts = []
    for m in levels:
        if draw(st.booleans()):
            side = draw(st.sampled_from((-1, 0, 1)))
            ts.append(-m - F(1, 2) + side * F(1, draw(st.integers(1, _HEIGHT))))
        else:
            ts.append(F(draw(st.integers(-_HEIGHT, _HEIGHT)), draw(st.integers(1, _HEIGHT))))
    return FamilyKey(tuple(levels), tuple(ts))


@given(_keys_near_bound())
@example(FamilyKey((0,), (F(-1, 2),)))
@example(FamilyKey((3, 1), (F(-7, 2) + F(1, _HEIGHT), F(-3, 2) - F(1, _HEIGHT))))
@example(FamilyKey((2,), (F(-_HEIGHT, 3),)))
def test_norm_and_admissibility_match_fraction_formulas(key):
    canon = canonicalize(key)
    admissible = all(t > -m - F(1, 2) for m, t in zip(canon.m, canon.t))
    assert admissibility_formula(key) is admissible
    params = dict(zip(canon.m, canon.t))
    for i in range(11):
        if admissible:
            assert norm_of(key, i) == F(2) / (1 + 2 * i + 2 * params.get(i, 0))
        else:
            with pytest.raises(InadmissibleKeyError):
                norm_of(key, i)


@pytest.mark.parametrize("m", [0, 1, 5])
def test_admissibility_bound_is_strict(m):
    bound = -m - F(1, 2)
    for eps, verdict in ((F(0), False), (F(1, _HEIGHT), True), (-F(1, _HEIGHT), False)):
        assert admissibility_formula(FamilyKey((m,), (bound + eps,))) is verdict


# -- orthogonality reports -----------------------------------------------------------


def test_orthogonality_level4():
    report = orthogonality_check(FamilyKey((4,), (F(26, 5),)), 8)
    assert report.passed
    assert len(report.entries) == 45


def test_orthogonality_classical():
    report = orthogonality_check(FamilyKey.classical(), 6)
    assert report.passed
    for e in report.entries:
        if e.i1 == e.i2:
            assert e.actual == classical_norm(e.i1)
        else:
            assert e.actual == 0


def test_orthogonality_two_level_figure_point():
    key = FamilyKey((1, 2), (F(2), F(-8, 5)))
    report = orthogonality_check(key, 6)
    assert report.passed
    by_pair = {(e.i1, e.i2): e for e in report.entries}
    assert by_pair[(1, 1)].actual == F(2, 7)  # 2/(3+4)
    assert by_pair[(2, 2)].actual == F(10, 9)  # 2/(5-16/5)


def test_orthogonality_merges_duplicate_levels():
    key = FamilyKey((3, 3), (F(1, 2), F(1, 2)))
    assert norm_of(key, 3) == norm_of(FamilyKey((3,), (F(1),)), 3) == F(2, 9)
    assert orthogonality_check(key, 4).passed


def test_orthogonality_rejects_inadmissible():
    with pytest.raises(InadmissibleKeyError):
        orthogonality_check(FamilyKey((0,), (F(-1, 2),)), 4)


def test_orthogonality_report_json_shape():
    report = orthogonality_check(FamilyKey((1,), (F(1),)), 2)
    blob = report.to_json_obj()
    assert blob["kind"] == "orthogonality"
    assert blob["pass"] is True
    assert {"i1", "i2", "expected", "actual", "pass"} == set(blob["entries"][0])


def test_admissibility_report_json_shape():
    blob = admissibility_record(FamilyKey((1,), (F(1),))).to_json_obj()
    assert blob["kind"] == "admissibility"
    assert blob["pass"] is True


# -- weight shape ---------------------------------------------------------------------


def test_one_parameter_weight_monotone_for_positive_parameter():
    # tau' = t * P_m^2 >= 0, so the weight 1/tau^2 decreases for t > 0
    key = FamilyKey((4,), (F(26, 5),))
    tv = tau(key)
    p4 = legendre_poly(4)
    assert tv.differentiate() == (p4 * p4).scale(F(26, 5))
    values = [tv.evaluate(F(-1) + F(k, 25)) for k in range(51)]
    assert all(a < b for a, b in zip(values, values[1:]))
