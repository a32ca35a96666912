"""Acceptance suite: one test per criterion, exact assertions, timed budgets.

Every check is zero-tolerance (exact rational equality).  Each test prints a
single PASS/FAIL line with its runtime; run with ``pytest -s`` to see the
lines as they appear.  Criteria are ordered so that caches warm in sequence
(the polynomial/family caches are process-wide, as in normal library use).
"""

import itertools
import json
import time
from fractions import Fraction

from xlegendre import (
    FamilyKey,
    Poly,
    admissibility_record,
    canonicalize,
    exceptional_poly,
    expected_degree,
    family,
    legendre_poly,
    missing_degrees,
    norm_of,
    overlap_R,
    recursive_family,
    tau,
    verify_eigen,
    verify_factorization,
    verify_intertwining,
)
from xlegendre.operators import eigenvalue, t_hat_numerator
from xlegendre.xfamily import _tau_raw

from helpers import LATTICE_T, full_lattice, raw_xpoly, run_cli, sparse_poly

F = Fraction

_LATTICE = full_lattice(max_n=3, max_m=5)


class _Budget:
    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.criterion}: {status} ({dt:.2f}s)", flush=True)
        if exc_type is None:
            assert dt < self.seconds, (
                f"criterion {self.criterion} exceeded its {self.seconds}s budget: {dt:.2f}s"
            )
        return False


# -- criterion 1: single-level golden coefficients -----------------------------

# Reference table for the level-4 family: every entry is classical + t * dev.
# The i=3 deviation enters with +: that sign (unlike a widely seen misprint)
# is certified below by the exact eigenvalue identity, which only the +
# version satisfies.
_LEVEL4_TABLE = {
    0: (Poly.one(), sparse_poly({0: 16, 3: 135, 5: -459, 7: 585, 9: -245}, 144)),
    1: (
        legendre_poly(1),
        sparse_poly({0: -9, 1: 128, 2: 171, 4: 30, 6: -1314, 8: 2475, 10: -1225}, 1152),
    ),
    2: (
        legendre_poly(2),
        sparse_poly(
            {0: 32, 2: -96, 3: 189, 5: -756, 7: 1278, 9: -1300, 11: 525}, -576
        ),
    ),
    3: (
        legendre_poly(3),
        sparse_poly(
            {
                0: 243,
                1: -1536,
                2: -3402,
                3: 2560,
                4: 3645,
                6: 7668,
                8: -17955,
                10: 16950,
                12: -6125,
            },
            9216,
        ),
    ),
    4: (legendre_poly(4), Poly.zero()),
    5: (
        legendre_poly(5),
        sparse_poly(
            {
                0: 243,
                1: 1920,
                2: -1215,
                3: -8960,
                4: -3645,
                5: 8064,
                6: 17145,
                8: -42255,
                10: 66171,
                12: -50855,
                14: 15435,
            },
            9216,
        ),
    ),
}

_TAU4_BRACKET = sparse_poly({0: 64, 1: 81, 3: -540, 5: 1998, 7: -2700, 9: 1225}, 576)


def test_criterion_1_level4_golden_coefficients():
    with _Budget("1 (golden level-4 family)", 1.0):
        for t4 in (F(1), F(26, 5)):
            result = run_cli(
                "gen", "--m", "4", "--t", f"{t4.numerator}/{t4.denominator}", "--i", "0..5"
            )
            assert result.exit_code == 0, result.output
            blob = json.loads(result.output)
            tau_expected = Poly.one() + _TAU4_BRACKET.scale(t4)
            assert Poly.from_json(blob["tau"]) == tau_expected
            for entry in blob["polys"]:
                classical, dev = _LEVEL4_TABLE[entry["i"]]
                expected = classical + dev.scale(t4)
                assert Poly.from_json(entry["coeffs"]) == expected, entry["i"]
                # spot anchor: the i=5 entry carries +15435/9216 * t4 * z^14
                if entry["i"] == 5:
                    got = Poly.from_json(entry["coeffs"])
                    assert got.coefficient(14) == F(15435, 9216) * t4
            # the table itself must satisfy the eigenvalue identity, which
            # pins every sign in it
            for i, (classical, dev) in _LEVEL4_TABLE.items():
                p = classical + dev.scale(t4)
                assert t_hat_numerator(tau_expected, p) == (p * tau_expected).scale(
                    eigenvalue(i)
                ), i


# -- criterion 2: two-level golden deformation polynomial ------------------------


def test_criterion_2_two_level_golden_tau():
    with _Budget("2 (golden two-level tau)", 1.0):
        term_a = overlap_R(1, 1)  # (1 + z^3)/3
        assert term_a == sparse_poly({0: 1, 3: 1}, 3)
        term_b = overlap_R(2, 2)  # (4 + 5z - 10z^3 + 9z^5)/20
        assert term_b == sparse_poly({0: 4, 1: 5, 3: -10, 5: 9}, 20)
        quartic = (Poly([1, 1]) ** 4) * sparse_poly(
            {0: 49, 1: -116, 2: 110, 3: -36, 4: 9}
        )
        term_ab = quartic.scale(F(1, 960))
        for t1, t2 in ((F(1), F(1)), (F(2), F(-8, 5)), (F(-1, 3), F(7, 2)), (F(5), F(1, 7))):
            key = FamilyKey((1, 2), (t1, t2))
            expected = Poly.one() + term_a.scale(t1) + term_b.scale(t2) + term_ab.scale(t1 * t2)
            assert tau(key) == expected, (t1, t2)


# -- criterion 3: eigenvalue sweep over the lattice ------------------------------


def test_criterion_3_eigenvalue_sweep():
    with _Budget("3 (eigenvalue sweep, 9009 identities)", 60.0):
        count = 0
        for key in _LATTICE:
            for i in range(13):
                assert verify_eigen(key, i), (key, i)
                count += 1
        assert count == 693 * 13


# -- criterion 4: determinantal == recursive over the lattice ---------------------


def test_criterion_4_determinantal_equals_recursive():
    with _Budget("4 (determinantal == recursive)", 60.0):
        for key in _LATTICE:
            fam = family(key)
            rec = fam.recursive(12)
            assert rec.tau == fam.tau, key
            for i in range(13):
                assert rec.xpolys[i] == fam.polynomial(i), (key, i)


# -- criterion 5: admissibility iff via Sturm -------------------------------------


def test_criterion_5_admissibility_iff():
    with _Budget("5 (admissibility iff)", 30.0):
        def straddle(m):
            boundary = -F(2 * m + 1, 2)
            return [boundary + e for e in (F(1, 10), F(-1, 10), F(1, 1000), F(-1, 1000))]

        cases = 0
        for m in range(5):
            for t in straddle(m):
                record = admissibility_record(FamilyKey((m,), (t,)))
                assert record.consistent, record
                assert record.formula_verdict == (t > -F(2 * m + 1, 2))
                cases += 1
        for m1, m2 in itertools.combinations(range(5), 2):
            for t1 in straddle(m1):
                for t2 in straddle(m2):
                    record = admissibility_record(FamilyKey((m1, m2), (t1, t2)))
                    assert record.consistent, record
                    cases += 1
        assert cases == 20 + 160


# -- criterion 6: norms and orthogonality at z = 1 ---------------------------------


def test_criterion_6_norms_and_orthogonality():
    with _Budget("6 (norms / orthogonality)", 60.0):
        for key in _LATTICE:
            # every lattice parameter satisfies t > -m - 1/2
            fam = family(key)
            for i1 in range(13):
                for i2 in range(i1, 13):
                    value = fam.overlap(i1, i2).evaluate(1)
                    if i1 != i2:
                        assert value == 0, (key, i1, i2)
                    else:
                        assert value == norm_of(key, i1), (key, i1)


# -- criterion 7: degree law and codimension ----------------------------------------


def test_criterion_7_degrees_and_codimension():
    with _Budget("7 (degree law / codimension)", 10.0):
        for key in _LATTICE:
            for i in range(13):
                assert family(key).polynomial(i).degree == expected_degree(key, i)
            missing = missing_degrees(key)
            assert len(missing) == family(key).tau.degree, key


# -- criterion 8: duplicate level collapse -------------------------------------------


def test_criterion_8_duplicate_levels_collapse():
    with _Budget("8 (duplicate collapse)", 10.0):
        pairs = ((F(1, 2), F(1, 2)), (F(2), F(-3, 4)), (F(-1, 4), F(1, 3)))
        for j in range(5):
            for t1, t2 in pairs:
                dup = FamilyKey((j, j), (t1, t2))
                merged = FamilyKey((j,), (t1 + t2,))
                assert _tau_raw(dup) == _tau_raw(merged), (j, t1, t2)
                for i in (0, j, j + 2):
                    assert raw_xpoly(dup, i) == exceptional_poly(merged, i)
        # with a nonempty base in front
        for j in (1, 3):
            dup = FamilyKey((2, j, j) if j != 2 else (4, j, j), (F(1), F(1, 3), F(2, 3)))
            merged = FamilyKey(dup.m[:1] + (j,), (F(1), F(1)))
            assert _tau_raw(dup) == _tau_raw(merged)
            for i in (0, 5):
                assert raw_xpoly(dup, i) == exceptional_poly(merged, i)


# -- criterion 9: factorization and intertwining --------------------------------------


def test_criterion_9_factorization_and_intertwining():
    with _Budget("9 (factorization / intertwining)", 30.0):
        # single steps from the classical operator
        for m in range(6):
            for t in LATTICE_T:
                key = FamilyKey((m,), (t,))
                assert verify_factorization(key, m).passed, (m, t)
            for i in (0, 1, m + 1, 7):
                if i != m:
                    assert verify_intertwining(FamilyKey((m,), (F(1),)), m, i), (m, i)
        # single steps on top of one-parameter families
        for base_m, step_m in ((0, 3), (1, 4), (2, 5), (4, 1)):
            key = FamilyKey.of(
                sorted((base_m, step_m)),
                [F(1), F(-1, 4)] if base_m < step_m else [F(-1, 4), F(1)],
            )
            assert verify_factorization(key, step_m).passed, key
            for i in (0, 2, 6):
                if i != step_m:
                    assert verify_intertwining(key, step_m, i), (key, i)


# -- criterion 10: weight shape claims --------------------------------------------------


def _weight_samples(key: FamilyKey, samples: int) -> list[Fraction]:
    tv = tau(key)
    step = F(2, samples - 1)
    return [1 / tv.evaluate(-1 + step * k) ** 2 for k in range(samples)]


def test_criterion_10_weight_shape():
    with _Budget("10 (weight shape)", 5.0):
        # one deformed level, positive parameter: strictly decreasing weight,
        # with slope vanishing exactly at the classical polynomial's roots
        key4 = FamilyKey((4,), (F(26, 5),))
        tv = tau(key4)
        p4 = legendre_poly(4)
        assert tv.differentiate() == (p4 * p4).scale(F(26, 5))
        w = _weight_samples(key4, 1001)
        assert all(a > b for a, b in zip(w, w[1:]))

        # two deformed levels at the figure parameters: at least two strict
        # local extrema (neither monotonic nor unimodal)
        key12 = FamilyKey((1, 2), (F(2), F(-8, 5)))
        w2 = _weight_samples(key12, 1001)
        extrema = 0
        for a, b, c in zip(w2, w2[1:], w2[2:]):
            if (b > a and b > c) or (b < a and b < c):
                extrema += 1
        assert extrema >= 2
