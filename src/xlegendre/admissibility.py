"""Exact admissibility decisions and orthogonality norms.

A key is admissible when every parameter satisfies t > -m - 1/2; exactly then
the deformation polynomial has no zeros on [-1, 1], the weight 1/tau^2 is
finite and positive there, and the family polynomials are orthogonal with

    norm(i) = 2/(1+2i)          for levels the key does not deform,
    norm(i) = 2/(1+2i+2*t_i)    for deformed levels.

The verdict is ``admissibility_formula``.  The zero-free condition is also
decidable exactly, by Sturm's root count of tau on [-1, 1], and
``admissibility_record`` holds both verdicts: their equivalence is an
invariant of the construction, which the ``ortho`` suite of ``verify`` and
the tests check, never a silent preference.  Since tau(-1) = 1, "no zeros on
[-1, 1]" and "positive on [-1, 1]" coincide.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .polyring import Poly, RatLike, remainder_sequence
from .record import Record
from .xfamily import FamilyKey, canonicalize, family, tau

__all__ = [
    "InadmissibleKeyError",
    "AdmissibilityRecord",
    "OrthogonalityEntry",
    "OrthogonalityReport",
    "admissibility_formula",
    "admissibility_record",
    "norm_of",
    "orthogonality_check",
    "root_count",
]


class InadmissibleKeyError(ValueError):
    """Operation requires an admissible key (weight finite on [-1, 1])."""


def root_count(p: Poly, lo: RatLike, hi: RatLike) -> int:
    """Number of distinct real roots of p in the closed interval [lo, hi]."""
    if p.is_zero:
        raise ValueError("root count of the zero polynomial")
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise ValueError("interval must satisfy lo < hi")
    endpoint_roots = 0
    q = p
    for point in (lo, hi):
        if q.evaluate(point) == 0:
            endpoint_roots += 1
            linear = Poly([-point, 1])
            while q.evaluate(point) == 0:
                q = q.exact_div(linear)
    if q.degree <= 0:
        return endpoint_roots
    # Sturm's theorem: the roots in (lo, hi) are the sign changes that the
    # chain of q and q' loses from lo to hi; each element of
    # remainder_sequence is a positive multiple of the chain's element over Q
    chain = remainder_sequence(q, q.differentiate())
    return _sign_changes(chain, lo) - _sign_changes(chain, hi) + endpoint_roots


def _sign_changes(chain: Sequence[Poly], x: Fraction) -> int:
    signs = [v > 0 for v in (p.evaluate(x) for p in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def admissibility_formula(key: FamilyKey) -> bool:
    """Parameter bounds t > -m - 1/2, one per level of the canonical key."""
    key = canonicalize(key)
    # t = p/q with q > 0: t > -(2m+1)/2 exactly when 2p + (2m+1)q > 0
    return all(
        2 * t.numerator + (2 * m + 1) * t.denominator > 0 for m, t in zip(key.m, key.t)
    )


class AdmissibilityRecord(Record):
    """Formula verdict next to the Sturm root count of tau on [-1, 1]."""

    key: FamilyKey
    formula_verdict: bool
    roots_in_interval: int

    @property
    def consistent(self) -> bool:
        return self.formula_verdict == (self.roots_in_interval == 0)

    def to_json_obj(self) -> dict:
        return {
            "kind": "admissibility",
            "key": self.key.to_json_obj(),
            "formula_verdict": self.formula_verdict,
            "roots_in_interval": self.roots_in_interval,
            "pass": self.consistent,
        }


def admissibility_record(key: FamilyKey) -> AdmissibilityRecord:
    key = canonicalize(key)
    return AdmissibilityRecord(
        key, admissibility_formula(key), root_count(tau(key), -1, 1)
    )


def norm_of(key: FamilyKey, i: int) -> Fraction:
    """Squared weighted norm of the i-th family polynomial."""
    key = canonicalize(key)
    if not admissibility_formula(key):
        raise InadmissibleKeyError(f"{key} is not admissible")
    if i < 0:
        raise ValueError("polynomial index must be non-negative")
    return _norm(key, i)


def _norm(key: FamilyKey, i: int) -> Fraction:
    # the norm formula for a canonical admissible key and i >= 0, unchecked:
    # with t = p/q, 2/(2i+1+2t) = 2q/((2i+1)q + 2p)
    if i in key.m:
        t = key.parameter_for(i)
        q = t.denominator
        return Fraction(2 * q, (2 * i + 1) * q + 2 * t.numerator)
    return Fraction(2, 2 * i + 1)


class OrthogonalityEntry(Record):
    """One overlap at z = 1 against the value the norm formulas expect."""

    i1: int
    i2: int
    expected: Fraction
    actual: Fraction

    @property
    def passed(self) -> bool:
        return self.expected == self.actual

    def to_json_obj(self) -> dict:
        return {
            "i1": self.i1,
            "i2": self.i2,
            "expected": f"{self.expected.numerator}/{self.expected.denominator}",
            "actual": f"{self.actual.numerator}/{self.actual.denominator}",
            "pass": self.passed,
        }


class OrthogonalityReport(Record):
    """Every overlap of a key up to ``max_index``, checked at z = 1."""

    key: FamilyKey
    max_index: int
    entries: tuple[OrthogonalityEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_json_obj(self) -> dict:
        return {
            "kind": "orthogonality",
            "key": self.key.to_json_obj(),
            "max_index": self.max_index,
            "pass": self.passed,
            "entries": [e.to_json_obj() for e in self.entries],
        }


def orthogonality_check(key: FamilyKey, max_i: int) -> OrthogonalityReport:
    """Evaluate every deformed overlap at z = 1 against the norm formulas.

    Off-diagonal overlaps must vanish there; diagonal ones must equal
    ``norm_of``.  Everything is exact rational arithmetic.
    """
    key = canonicalize(key)
    if not admissibility_formula(key):
        raise InadmissibleKeyError(f"{key} is not admissible")
    fam = family(key)
    entries = []
    for i1 in range(max_i + 1):
        for i2 in range(i1, max_i + 1):
            expected = _norm(key, i1) if i1 == i2 else Fraction(0)
            actual = fam.overlap(i1, i2).evaluate(1)
            entries.append(OrthogonalityEntry(i1, i2, expected, actual))
    return OrthogonalityReport(key, max_i, tuple(entries))
