"""Multi-parameter exceptional Legendre families, built two equivalent ways.

An exceptional family is indexed by a tuple of distinct non-negative levels
``m`` with one exact rational deformation parameter per level.  The package
constructs it

* determinantally: an n-by-n polynomial matrix with entries
  ``delta_kl + t_l * R(m_k, m_l)`` (R = classical overlap antiderivative),
  whose determinant is the deformation polynomial ``tau``; the family
  polynomials come from the adjugate acting on the classical Legendre vector;

* recursively: one confluent Darboux step per level, which rewrites tau, the
  polynomials, and the deformed overlap functions through exact polynomial
  divisions.

Both routes are exposed and the test-suite asserts they agree coefficient by
coefficient.  All intermediate quantities here are exact; a division that
fails to be exact signals a violated polynomiality claim and raises.

Degrees obey ``deg tau = 2*sum(m) + n`` and
``deg P_i = 2*sum(m) + n + i - (2i+1)*[i in m]``, so the attained degree
sequence misses exactly ``deg tau`` non-negative integers (the family's
codimension).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .legendre import legendre_poly, overlap_R
from .polyring import InexactDivisionError, Poly, RatLike, parse_rat, rat_str
from .ratfun import RatFun

__all__ = [
    "FamilyKey",
    "PolyMatrix",
    "RecursiveFamily",
    "XFamily",
    "build_matrix",
    "canonicalize",
    "exceptional_poly",
    "expected_degree",
    "family",
    "missing_degrees",
    "q_vector",
    "recursive_family",
    "tau",
]


def _as_rat(value: RatLike) -> Fraction:
    if isinstance(value, str):
        return parse_rat(value)
    return Fraction(value)


@dataclass(frozen=True)
class FamilyKey:
    """Deformation levels ``m`` paired with exact rational parameters ``t``."""

    m: tuple[int, ...]
    t: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        m = tuple(int(v) for v in self.m)
        t = tuple(_as_rat(v) for v in self.t)
        if len(m) != len(t):
            raise ValueError("level tuple and parameter tuple differ in length")
        if any(v < 0 for v in m):
            raise ValueError("levels must be non-negative integers")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "t", t)

    @classmethod
    def of(cls, m: Sequence[int] = (), t: Sequence[RatLike] = ()) -> "FamilyKey":
        return cls(tuple(m), tuple(_as_rat(v) for v in t))

    @classmethod
    def classical(cls) -> "FamilyKey":
        return cls((), ())

    @property
    def n(self) -> int:
        return len(self.m)

    @property
    def is_canonical(self) -> bool:
        return all(a < b for a, b in zip(self.m, self.m[1:])) and all(self.t)

    def extended(self, level: int, parameter: RatLike = 0) -> "FamilyKey":
        return FamilyKey(self.m + (level,), self.t + (_as_rat(parameter),))

    def without(self, position: int) -> "FamilyKey":
        m = self.m[:position] + self.m[position + 1 :]
        t = self.t[:position] + self.t[position + 1 :]
        return FamilyKey(m, t)

    def parameter_for(self, level: int) -> Fraction:
        return self.t[self.m.index(level)]

    def to_json_obj(self) -> dict:
        return {"m": list(self.m), "t": [rat_str(v) for v in self.t]}

    def __str__(self) -> str:
        pairs = ", ".join(f"{m}:{t}" for m, t in zip(self.m, self.t))
        return f"{{{pairs}}}" if pairs else "{classical}"


def canonicalize(key: FamilyKey) -> FamilyKey:
    """Merge duplicate levels (parameters add), drop zero parameters, sort."""
    if key.is_canonical:
        return key
    acc: dict[int, Fraction] = {}
    for m, t in zip(key.m, key.t):
        acc[m] = acc.get(m, Fraction(0)) + t
    pairs = sorted((m, t) for m, t in acc.items() if t != 0)
    return FamilyKey(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))


# ---------------------------------------------------------------------------
# Polynomial matrices
# ---------------------------------------------------------------------------


class PolyMatrix:
    """Square matrix of polynomials with exact determinant and adjugate."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[Poly]]):
        rows = tuple(tuple(row) for row in rows)
        for row in rows:
            if len(row) != len(rows):
                raise ValueError("matrix must be square")
        self.rows = rows

    @property
    def n(self) -> int:
        return len(self.rows)

    def __getitem__(self, idx: tuple[int, int]) -> Poly:
        return self.rows[idx[0]][idx[1]]

    def submatrix(self, drop_row: int, drop_col: int) -> "PolyMatrix":
        return PolyMatrix(
            tuple(
                tuple(e for j, e in enumerate(row) if j != drop_col)
                for i, row in enumerate(self.rows)
                if i != drop_row
            )
        )

    def det(self) -> Poly:
        if self.n <= 3:
            return self.det_cofactor()
        return self.det_bareiss()

    def det_cofactor(self) -> Poly:
        n = self.n
        if n == 0:
            return Poly.one()
        if n == 1:
            return self.rows[0][0]
        if n == 2:
            (a, b), (c, d) = self.rows
            return a * d - b * c
        acc = Poly.zero()
        for i in range(n):
            entry = self.rows[i][0]
            if entry.is_zero:
                continue
            minor = self.submatrix(i, 0).det_cofactor()
            term = entry * minor
            acc = acc + term if i % 2 == 0 else acc - term
        return acc

    def det_bareiss(self) -> Poly:
        """Fraction-free elimination; every division along the way is exact."""
        n = self.n
        if n == 0:
            return Poly.one()
        m = [list(row) for row in self.rows]
        sign = 1
        prev = Poly.one()
        for k in range(n - 1):
            if m[k][k].is_zero:
                for i in range(k + 1, n):
                    if not m[i][k].is_zero:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return Poly.zero()
            pivot = m[k][k]
            for i in range(k + 1, n):
                row_i = m[i]
                row_k = m[k]
                head = row_i[k]
                for j in range(k + 1, n):
                    num = pivot * row_i[j] - head * row_k[j]
                    row_i[j] = num.exact_div(prev)
                row_i[k] = Poly.zero()
            prev = pivot
        result = m[n - 1][n - 1]
        return result if sign > 0 else -result

    def adjugate(self) -> "PolyMatrix":
        """Transpose cofactor matrix: adj(M) @ M == det(M) * I."""
        n = self.n
        if n == 0:
            return PolyMatrix(())
        if n == 1:
            return PolyMatrix(((Poly.one(),),))
        out = [[Poly.zero()] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minor = self.submatrix(j, i).det()
                out[i][j] = minor if (i + j) % 2 == 0 else -minor
        return PolyMatrix(out)

    def apply(self, vector: Sequence[Poly]) -> tuple[Poly, ...]:
        if len(vector) != self.n:
            raise ValueError("vector length must match matrix size")
        return tuple(
            sum((row[j] * vector[j] for j in range(self.n)), Poly.zero())
            for row in self.rows
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)


# ---------------------------------------------------------------------------
# Determinantal construction
# ---------------------------------------------------------------------------


def build_matrix(key: FamilyKey) -> PolyMatrix:
    """Deformation matrix: entry (k, l) is delta_kl + t_l * R(m_k, m_l)."""
    n = key.n
    rows = []
    for k in range(n):
        row = []
        for l in range(n):
            entry = overlap_R(key.m[k], key.m[l]).scale(key.t[l])
            if k == l:
                entry = entry + Poly.one()
            row.append(entry)
        rows.append(row)
    return PolyMatrix(rows)


def _tau_raw(key: FamilyKey) -> Poly:
    return build_matrix(key).det()


def _q_raw(key: FamilyKey) -> tuple[Poly, ...]:
    if key.n == 0:
        return ()
    adj = build_matrix(key).adjugate()
    return adj.apply(tuple(legendre_poly(m) for m in key.m))


def _xpoly_raw(key: FamilyKey, i: int, tau_val: Poly, q: Sequence[Poly]) -> Poly:
    # Last adjugate component of the key extended by level i (any parameter
    # there gives the same polynomial; expanding the bordered determinant
    # along its last row reduces it to data of the unextended family).
    acc = tau_val * legendre_poly(i)
    for c in range(key.n):
        acc = acc - (overlap_R(i, key.m[c]) * q[c]).scale(key.t[c])
    return acc


def tau(key: FamilyKey) -> Poly:
    """Determinant of the deformation matrix."""
    if key.is_canonical:
        return family(key).tau
    return _tau_raw(key)


def q_vector(key: FamilyKey) -> tuple[Poly, ...]:
    """Adjugate of the deformation matrix applied to (P_{m_1}, ..., P_{m_n})."""
    if key.is_canonical:
        return family(key).q
    return _q_raw(key)


def exceptional_poly(key: FamilyKey, i: int) -> Poly:
    """The i-th family polynomial (equals P_i when the key is empty)."""
    if i < 0:
        raise ValueError("polynomial index must be non-negative")
    if key.is_canonical:
        return family(key).polynomial(i)
    return _xpoly_raw(key, i, _tau_raw(key), _q_raw(key))


def expected_degree(key: FamilyKey, i: int) -> int:
    """Predicted degree of the i-th family polynomial (distinct levels only).

    Zero-parameter levels deform nothing and are dropped first.
    """
    if len(set(key.m)) != len(key.m):
        raise ValueError("degree formula requires distinct levels")
    key = canonicalize(key)
    base = 2 * sum(key.m) + key.n + i
    if i in key.m:
        base -= 2 * i + 1
    return base


def missing_degrees(key: FamilyKey) -> list[int]:
    """The finitely many degrees the family skips (codimension set)."""
    key = canonicalize(key)
    bound = 2 * sum(key.m) + key.n + (max(key.m) if key.m else 0) + 1
    attained = {expected_degree(key, i) for i in range(bound + 1)}
    return [d for d in range(bound + 1) if d not in attained]


# ---------------------------------------------------------------------------
# Recursive construction (one confluent Darboux step per level)
#
# The chain state after j steps is (tau_j, polynomials, deformed overlaps).
# Overlaps are carried as polynomial numerators over a power of tau_j:
#
#   narrow form: numerator over tau_j    (holds whenever tau_j is squarefree,
#                                         which is the generic case)
#   wide form:   numerator over tau_j^2  (holds unconditionally: the overlap's
#                                         pole order at a root of multiplicity
#                                         a is at most 2a-1 < 2a)
#
# The narrow form is tried first; every step is an exact division, so a
# non-generic key is detected immediately and the chain reruns in wide form.
# One step with level m, parameter t maps the narrow state as
#
#   tau_next = tau + t*N[m, m]
#   P_next_i = (tau_next*P_i - t*N[i, m]*P_m) / tau
#   N_next   = (N[i1, i2]*tau_next - t*N[i1, m]*N[i2, m]) / tau
#
# and the wide state (W = N*tau) as
#
#   E        = tau^2 + t*W[m, m]                 (equals tau*tau_next)
#   tau_next = E / tau
#   P_next_i = (E*P_i - t*W[i, m]*P_m) / tau^2
#   W_next   = (W[i1, i2]*E - t*W[i1, m]*W[i2, m]) * tau_next / tau^3
#
# Every overlap vanishes at z = -1, so every step keeps tau_j(-1) = 1 and
# E(-1) = 1: no parameter makes a step's denominator identically zero.
#
# Only the overlap columns against the not-yet-applied levels are carried
# through the chain eagerly; any other overlap pair is cascaded through the
# stored per-level columns on demand.
# ---------------------------------------------------------------------------


_PAIR = tuple[int, int]


def _pkey(i1: int, i2: int) -> _PAIR:
    return (i1, i2) if i1 <= i2 else (i2, i1)


@dataclass(frozen=True)
class _ChainStep:
    level: int
    t: Fraction
    tau: Poly  # tau after this step
    columns: dict[_PAIR, Poly]  # overlap numerators at this step's depth


class _Chain:
    """Per-level deformation data shared by polynomials and overlap cascades."""

    __slots__ = ("key", "steps", "wide", "tau", "polys")

    def __init__(self, key: FamilyKey, indices: Sequence[int], wide: bool):
        self.key = key
        self.wide = wide
        steps: list[_ChainStep] = []
        tau_prev = Poly.one()
        polys: dict[int, Poly] = {i: legendre_poly(i) for i in indices}
        n = key.n

        def col(depth: int, x: int, y: int) -> Poly:
            if depth == 0:
                return overlap_R(x, y)
            return steps[depth - 1].columns[_pkey(x, y)]

        for j, (level, t) in enumerate(zip(key.m, key.t)):
            if wide:
                tau_sq = tau_prev * tau_prev
                e = tau_sq + col(j, level, level).scale(t)
                tau_next = e.exact_div(tau_prev)
                tau_cube = tau_sq * tau_prev
                p_level = polys[level]
                polys = {
                    i: (e * p - (col(j, i, level) * p_level).scale(t)).exact_div(tau_sq)
                    for i, p in polys.items()
                }
                columns: dict[_PAIR, Poly] = {}
                for k in range(j + 1, n):
                    mk = key.m[k]
                    for x in indices:
                        pair = _pkey(x, mk)
                        if pair in columns:
                            continue
                        u = col(j, x, mk) * e - (
                            col(j, x, level) * col(j, mk, level)
                        ).scale(t)
                        columns[pair] = (u * tau_next).exact_div(tau_cube)
            else:
                tau_next = tau_prev + col(j, level, level).scale(t)
                p_level = polys[level]
                polys = {
                    i: (tau_next * p - (col(j, i, level) * p_level).scale(t)).exact_div(
                        tau_prev
                    )
                    for i, p in polys.items()
                }
                columns = {}
                for k in range(j + 1, n):
                    mk = key.m[k]
                    for x in indices:
                        pair = _pkey(x, mk)
                        if pair in columns:
                            continue
                        u = col(j, x, mk) * tau_next - (
                            col(j, x, level) * col(j, mk, level)
                        ).scale(t)
                        columns[pair] = u.exact_div(tau_prev)
            steps.append(_ChainStep(level, t, tau_next, columns))
            tau_prev = tau_next

        self.steps = steps
        self.tau = tau_prev
        self.polys = polys

    def column(self, depth: int, x: int, y: int) -> Poly:
        if depth == 0:
            return overlap_R(x, y)
        return self.steps[depth - 1].columns[_pkey(x, y)]

    def cascade_pair(self, i1: int, i2: int) -> Poly:
        """Overlap numerator for (i1, i2) at full depth (over tau or tau^2)."""
        cur = overlap_R(i1, i2)
        tau_prev = Poly.one()
        for j, step in enumerate(self.steps):
            a = self.column(j, i1, step.level)
            b = self.column(j, i2, step.level)
            if self.wide:
                e = tau_prev * step.tau
                u = cur * e - (a * b).scale(step.t)
                cur = (u * step.tau).exact_div(tau_prev * tau_prev * tau_prev)
            else:
                u = cur * step.tau - (a * b).scale(step.t)
                cur = u.exact_div(tau_prev)
            tau_prev = step.tau
        return cur


def _canonical_over_tau(num: Poly, tau_val: Poly, power: int) -> RatFun:
    """Canonicalize num / tau_val**power, dividing out whole tau factors."""
    if tau_val.degree <= 0 or power == 1:
        return RatFun.of(num, tau_val**power)
    den = tau_val**power
    for _ in range(power):
        q = num.exact_div_or_none(tau_val)
        if q is None:
            break
        num = q
        den = den.exact_div(tau_val)
    return RatFun.of(num, den)


class OverlapMap(Mapping):
    """Lazy map (i1, i2) -> deformed overlap as a canonical rational function.

    Pairs are cascaded level by level through the chain columns on first
    access and memoized; sweeps therefore pay only for the pairs they read.
    """

    __slots__ = ("_chain", "_pairs", "_memo", "_lock")

    def __init__(self, chain: _Chain, indices: Sequence[int]):
        self._chain = chain
        self._pairs = tuple(
            (a, b) for pos, a in enumerate(indices) for b in indices[pos:]
        )
        self._memo: dict[_PAIR, RatFun] = {}
        self._lock = threading.Lock()

    def __getitem__(self, pair: _PAIR) -> RatFun:
        pair = _pkey(*pair)
        hit = self._memo.get(pair)
        if hit is not None:
            return hit
        chain = self._chain
        try:
            num = chain.cascade_pair(*pair)
        except InexactDivisionError:
            # non-generic pair: redo this overlap through the always-valid
            # wide chain
            if not chain.wide:
                chain = _Chain(chain.key, sorted({*pair, *chain.polys}), True)
                num = chain.cascade_pair(*pair)
            else:
                raise
        value = _canonical_over_tau(num, chain.tau, 2 if chain.wide else 1)
        with self._lock:
            return self._memo.setdefault(pair, value)

    def __iter__(self) -> Iterator[_PAIR]:
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)


@dataclass(frozen=True)
class RecursiveFamily:
    """Result of running the deformation chain level by level."""

    key: FamilyKey
    tau: Poly
    xpolys: Mapping[int, Poly]
    overlaps: OverlapMap
    max_index: int


def recursive_family(key: FamilyKey, max_i: int) -> RecursiveFamily:
    """Run the deformation chain from the classical base case.

    Returns the deformation polynomial, the family polynomials for indices
    up to ``max_i`` (plus the key's own levels), and the deformed overlap
    functions; all three must match the determinantal construction exactly.
    """
    indices = sorted(set(range(max_i + 1)) | set(key.m))
    try:
        chain = _Chain(key, indices, wide=False)
    except InexactDivisionError:
        chain = _Chain(key, indices, wide=True)
    return RecursiveFamily(
        key, chain.tau, chain.polys, OverlapMap(chain, indices), max_i
    )


# ---------------------------------------------------------------------------
# Cached family objects
# ---------------------------------------------------------------------------


class XFamily:
    """One canonical family with every expensive object computed once.

    Construction is single-writer; afterwards the instance is immutable apart
    from memo maps, whose entries are pure recomputations and therefore safe
    to fill concurrently.
    """

    __slots__ = ("key", "matrix", "tau", "adjugate", "q", "_xpolys", "_recursive", "_lock")

    def __init__(self, key: FamilyKey):
        if not key.is_canonical:
            raise ValueError("XFamily requires a canonical key")
        self.key = key
        self.matrix = build_matrix(key)
        self.tau = self.matrix.det()
        self.adjugate = self.matrix.adjugate()
        self.q = (
            self.adjugate.apply(tuple(legendre_poly(m) for m in key.m))
            if key.n
            else ()
        )
        self._xpolys: dict[int, Poly] = {}
        self._recursive: RecursiveFamily | None = None
        self._lock = threading.Lock()

    def polynomial(self, i: int) -> Poly:
        hit = self._xpolys.get(i)
        if hit is not None:
            return hit
        value = _xpoly_raw(self.key, i, self.tau, self.q)
        with self._lock:
            return self._xpolys.setdefault(i, value)

    def recursive(self, max_i: int) -> RecursiveFamily:
        rec = self._recursive
        if rec is None or rec.max_index < max_i:
            rec = recursive_family(self.key, max_i)
            with self._lock:
                cur = self._recursive
                if cur is None or cur.max_index < max_i:
                    self._recursive = rec
                else:
                    rec = cur
        return rec

    def overlap(self, i1: int, i2: int) -> RatFun:
        return self.recursive(max(i1, i2)).overlaps[(i1, i2)]


_FAMILY_CACHE: dict[FamilyKey, XFamily] = {}
_FAMILY_LOCK = threading.Lock()


def family(key: FamilyKey) -> XFamily:
    """Cached family for the canonicalized key."""
    key = canonicalize(key)
    hit = _FAMILY_CACHE.get(key)
    if hit is not None:
        return hit
    built = XFamily(key)
    with _FAMILY_LOCK:
        return _FAMILY_CACHE.setdefault(key, built)
