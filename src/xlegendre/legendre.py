"""Classical Legendre polynomials and their overlap antiderivatives.

The polynomials are read from a closed form in the standard normalization
(P_i(1) = 1, leading coefficient (2i)! / (2^i (i!)^2)): p_i = 2^i P_i has
the integer coefficients (-1)^k C(i, k) C(2i - 2k, i) at z^(i - 2k).  The
overlap of two indices is the antiderivative of P_{i1} P_{i2} that vanishes
at z = -1; evaluated at z = 1 it yields the classical orthogonality relations
(0 off the diagonal, 2/(2i+1) on it).  Everything here is the base case of
the deformation chains built in :mod:`xlegendre.xfamily`.

Both are memoized (``functools.lru_cache``), per index and per ordered pair,
and only what is read is built.  Entries are immutable polynomials, so two
threads that fill one entry at once compute equal values (the memo is an
optimization, never semantics).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .polyring import Poly

__all__ = ["legendre_poly", "overlap_R", "classical_norm"]


def _p_digits(i: int) -> list[int]:
    """The coefficients of p_i = 2^i P_i, ascending: (-1)^k C(i, k) C(2i - 2k, i)
    at z^(i - 2k), each term the previous one times their exact ratio."""
    if i < 0:
        raise ValueError("polynomial index must be non-negative")
    digits = [0] * (i + 1)
    c = math.comb(2 * i, i)
    for k in range(i // 2 + 1):
        digits[i - 2 * k] = c
        c = -c * (i - 2 * k) * (i - 2 * k - 1) // (2 * (k + 1) * (2 * i - 2 * k - 1))
    return digits


@lru_cache(maxsize=None)
def legendre_poly(i: int) -> Poly:
    """The degree-i Legendre polynomial, from the closed form of 2^i P_i."""
    return Poly._raw(_p_digits(i), 1 << i)


def overlap_R(i1: int, i2: int) -> Poly:
    """Antiderivative of P_{i1} P_{i2} vanishing at z = -1 (degree i1+i2+1)."""
    return _overlap(i1, i2) if i1 <= i2 else _overlap(i2, i1)


@lru_cache(maxsize=None)
def _overlap(i1: int, i2: int) -> Poly:
    return (legendre_poly(i1) * legendre_poly(i2)).antiderivative_from_minus1()


def classical_norm(i: int) -> Fraction:
    """Squared L2 norm of P_i on [-1, 1]: 2/(2i+1)."""
    if i < 0:
        raise ValueError("polynomial index must be non-negative")
    return Fraction(2, 2 * i + 1)
