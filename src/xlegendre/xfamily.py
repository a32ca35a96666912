"""Multi-parameter exceptional Legendre families, built two equivalent ways.

An exceptional family is indexed by a tuple of distinct non-negative levels
``m`` with one exact rational deformation parameter per level.  The package
constructs it

* determinantally: an n-by-n polynomial matrix with entries
  ``delta_kl + t_l * R(m_k, m_l)`` (R = classical overlap antiderivative),
  whose determinant is the deformation polynomial ``tau``; the family
  polynomials come from the adjugate acting on the classical Legendre vector.
  One fraction-free elimination gives both ``tau`` and the adjugate, without
  a row swap, since the matrix is the identity at ``z = -1``;

* recursively: one confluent Darboux step per level, which rewrites tau and
  the polynomials through exact polynomial divisions.

Both routes are exposed and the test-suite asserts they agree coefficient by
coefficient.  All intermediate quantities here are exact; a division that
fails to be exact signals a violated polynomiality claim and raises.

Off the levels, a family polynomial also has a first-order (Darboux) form.
The construction reads ``P^_i = tau P_i + sum_l R(i, m_l) u_l``, with
``u_l = -t_l q_l``.  For i != m, ``((1 - z^2) P_k')' = -lambda_k P_k`` with
``lambda_k = k(k+1)`` gives (both sides vanish at z = -1)

    R(i, m) = (1 - z^2)(P_i' P_m - P_i P_m') / (lambda_m - lambda_i).

With ``pi_i = prod_l (lambda_{m_l} - lambda_i) = e_l (lambda_{m_l} - lambda_i)``
and ``(1 - z^2) P_i' = i (P_{i-1} - z P_i)``, the sum becomes

    pi_i P^_i = (a_i - i z b_i) P_i + i b_i P_{i-1},
    a_i = pi_i tau - sum_l e_l (1 - z^2) u_l P_{m_l}',   b_i = sum_l e_l u_l P_{m_l},

of degree n and n - 1 in lambda_i.  Their coefficients a^(k) and b^(k) are
fixed by the family and kept as integer digit lists over one denominator
den, of length len; no R(i, m_l) is built.  An index in ``m`` makes pi_i
zero and keeps the sum.

No index multiplies by P_i either.  p_i = 2^i P_i has the integer
coefficients (-1)^k C(i, k) C(2i - 2k, i) at z^(i - 2k), the closed form
that :mod:`xlegendre.legendre` reads P_i from too, and the Legendre
recurrence reads (i + 1) p_{i+1} = 2 (2i + 1) z p_i - 4i p_{i-1}.  It is
linear, so at z = 2^w it holds for the packed product X(i) = pack(F) pack(p_i)
of any fixed F, an integer identity whose division is exact:

    (i + 1) X(i + 1) = 2 (2i + 1) (X(i) << w) - 4i X(i - 1).

The route keeps A_k(i) and B_k(i), the products of a^(k) and b^(k) with p_i,
and the same products with p_{i-1}; it advances them one index at a time,
five linear big-integer operations each, and reads an index by Horner in
lambda_i on those integers and one unpack:

    (2^i pi_i den P^_i)(2^w) = sum_k lambda_i^k [A_k(i) - i (B_k(i) << w) + 2i B_k(i - 1)].

Slots.  They are sized for a capacity c.  Each coefficient of p_{i+1} is
at least the one of p_i at the same k, so max|p_i| <= max|p_c| for i <= c;
lambda_i and i grow too.  A product of digit lists of lengths len and i + 1
has no digit above max|F| max|p_i| len, so no digit of the numerator at
i <= c exceeds

    (sum_k lambda_c^k max|a^(k)| + 3c sum_k lambda_c^k max|b^(k)|) max|p_c| len,

where 3c bounds i and 2i together, and no digit of a stored product does
either.  max|p_c| is read from the closed form.  An index above c widens
the slots to c = i + i/2 + 8: the stored products are unpacked at the old
width, where they fit by the same bound, and packed at the new one.  The
first index, an index below the current one and one more than 128 ahead
start again: the products with p_{i-1} and p_i, two per digit list, each
p from the closed form's digits, so no Legendre polynomial is built or kept.
(On a 4-level key a jump from 13 to 200 cost 75 ms by steps and 63 ms by a
start; from 400 to 500, 298 and 320 ms; from 400 to 800, 3.0 and 1.0 s.)
The route's state changes under its own lock.

The classical key takes the route too: with no levels pi_i = 1, a_i = tau =
1 and b_i = 0, so the route is the recurrence on p_i itself.

Time per index, route over sum, fresh route, CPython 3.11:

    levels                          1      2      3      4      5
    i = 13..40,  R(i, m) cached     2.5    1.3    0.8    0.9    0.8
    i = 13..40,  R not yet built    0.9    0.6    0.4    0.5    0.5
    i = 13..130, R(i, m) cached     2.8    0.9    0.7    0.5    0.4
    i = 13..130, R not yet built    1.1    0.6    0.4    0.4    0.2

So the indices above 12 take the first-order form, on every key; those at
or below, which the lattice checks and ``verify`` read after the chain has
cached R, keep the sum.

The deformed overlaps (antiderivatives of ``P_i1 P_i2 / tau^2`` vanishing at
``z = -1``) have a closed form in the same data: with ``adj`` the adjugate,

    overlap(i, j) = R(i, j) - sum_{k,l} t_k R(i, m_k) adj[k, l] R(m_l, j) / tau

which is exact for every key.  ``XFamily.overlap`` returns it as ``N / tau``
with the numerator ``N`` left as the closed form's own products: ``R(i, j)
tau`` and, for each pair of levels, ``R(m_l, j) R(i, m_k) c[k][l]`` with
``c[k][l] = -t_k adj[k, l]``, a table built at the family's first overlap
read.  A value at a point is read from the factors' values, a product
stopping at its first factor that vanishes there.  Every ``R(a, b)`` is
``delta_ab 2/(2a+1)`` at z = 1 and 0 at z = -1, so there nearly every product
ends at its first factor and no polynomial is multiplied.  ``N`` is built
only when the rational function itself is read.  The test suite checks it
against a level-by-level deformation.

Degrees obey ``deg tau = 2*sum(m) + n`` and
``deg P_i = 2*sum(m) + n + i - (2i+1)*[i in m]``, so the attained degree
sequence misses exactly ``deg tau`` non-negative integers (the family's
codimension).
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import partial
from typing import Iterator, Mapping, Sequence

from .legendre import _p_digits, legendre_poly, overlap_R
from .polyring import (
    InexactDivisionError,
    Poly,
    RatLike,
    _dot_div,
    _rat,
    kronecker_slots,
    poly_dot,
    rat_str,
)
from .ratfun import RatFun
from .record import Record

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
    "recursive_family",
    "tau",
]


class FamilyKey(Record):
    """Deformation levels ``m`` paired with exact rational parameters ``t``.

    The hash of ``(m, t)`` is taken once, at construction: every ``family``
    lookup hashes its key, and hashing a ``Fraction`` takes a modular inverse.
    """

    m: tuple[int, ...]
    t: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        m = tuple(int(v) for v in self.m)
        t = tuple(_rat(v) for v in self.t)
        if len(m) != len(t):
            raise ValueError("level tuple and parameter tuple differ in length")
        if any(v < 0 for v in m):
            raise ValueError("levels must be non-negative integers")
        self.__dict__.update(m=m, t=t, _hash=hash((m, t)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.m == other.m and self.t == other.t

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def of(cls, m: Sequence[int] = (), t: Sequence[RatLike] = ()) -> "FamilyKey":
        return cls(tuple(m), tuple(t))

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
        return FamilyKey(self.m + (level,), self.t + (parameter,))

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
    """Square matrix of polynomials with exact determinant and adjugate.

    Both come from one fraction-free Gauss-Jordan elimination on ``[M | I]``
    (Bareiss 1968), run on the first call of either method.  Step k clears
    column k off the diagonal by ``row_i <- (pivot * row_i - row_i[k] *
    row_k) / previous pivot``, one ``_dot_div`` per entry past step 0, every
    division exact by Sylvester's identity,
    and leaves ``[det(M) * I | adj(M)]`` at the end.  Rows are swapped only
    at a zero pivot.  A deformation matrix (``build_matrix``) never needs a
    swap, for any key: every ``R(m_k, m_l)`` vanishes at z = -1, so
    ``M(-1) = I`` and every leading principal minor is 1 there.

    ``det()`` returns 0 for a singular matrix; ``adjugate()`` raises
    ``ValueError`` on one.
    """

    __slots__ = ("rows", "_elim")

    def __init__(self, rows: Sequence[Sequence[Poly]]):
        rows = tuple(tuple(row) for row in rows)
        for row in rows:
            if len(row) != len(rows):
                raise ValueError("matrix must be square")
        self.rows = rows
        self._elim: tuple[Poly, PolyMatrix | None] | None = None  # (det, adj)

    @property
    def n(self) -> int:
        return len(self.rows)

    def __getitem__(self, idx: tuple[int, int]) -> Poly:
        return self.rows[idx[0]][idx[1]]

    def det(self) -> Poly:
        # a pure function of the rows: concurrent first calls agree
        if self._elim is None:
            self._elim = _gauss_jordan(self.rows)
        return self._elim[0]

    def adjugate(self) -> "PolyMatrix":
        """Transpose cofactor matrix: adj(M) @ M == det(M) * I."""
        self.det()
        adj = self._elim[1]
        if adj is None:
            raise ValueError("adjugate of a singular matrix")
        return adj

    def apply(self, vector: Sequence[Poly]) -> tuple[Poly, ...]:
        if len(vector) != self.n:
            raise ValueError("vector length must match matrix size")
        return tuple(poly_dot(zip(row, vector)) for row in self.rows)


def _gauss_jordan(rows: tuple[tuple[Poly, ...], ...]) -> tuple[Poly, PolyMatrix | None]:
    # Entries known a priori are never computed.  Before step k, left
    # columns 0..k-1 are the previous pivot times the identity, and so are
    # right columns k..n-1 (stored as None); step k sets right column k to
    # -row_i[k] off the diagonal and to the previous pivot on it.
    n = len(rows)
    aug = [list(row) + [None] * n for row in rows]
    order = list(range(n))  # order[j]: the row of M now at position j
    sign, prev = 1, Poly.one()
    for k in range(n):
        swap = next((i for i in range(k, n) if not aug[i][k].is_zero), None)
        if swap is None:
            return Poly.zero(), None
        if swap != k:
            aug[k], aug[swap] = aug[swap], aug[k]
            order[k], order[swap] = order[swap], order[k]
            sign = -sign
        row_k = aug[k]
        pivot = row_k[k]
        for i, row in enumerate(aug):
            if i == k:
                continue
            neg_head = -row[k]
            for j in (*range(k + 1, n), *range(n, n + k)):
                terms = ((pivot, row[j]), (neg_head, row_k[j]))
                row[j] = _dot_div(terms, prev) if k else poly_dot(terms)
            row[n + k] = neg_head
        row_k[n + k] = prev
        prev = pivot
    # The right block is adj(P M) for the row permutation P, and
    # adj(M) = det(P) * adj(P M) * P moves its column j to column order[j].
    adj = [[None] * n for _ in range(n)]
    for i, row in enumerate(aug):
        for j, col in enumerate(order):
            adj[i][col] = row[n + j] if sign > 0 else -row[n + j]
    return (prev if sign > 0 else -prev), PolyMatrix(adj)


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
    adj = build_matrix(key).adjugate()
    return adj.apply(tuple(legendre_poly(m) for m in key.m))


def _xpoly_raw(key: FamilyKey, i: int, tau_val: Poly, neg_tq: Sequence[Poly]) -> Poly:
    # Last adjugate component of the key extended by level i (any parameter
    # there gives the same polynomial; expanding the bordered determinant
    # along its last row reduces it to data of the unextended family).
    # neg_tq[c] = -t_c * q_c does not depend on i.
    return poly_dot(
        [(tau_val, legendre_poly(i))]
        + [(overlap_R(i, m), w) for m, w in zip(key.m, neg_tq)]
    )


_FIRST_ORDER_ABOVE = 12  # indices above it take the first-order form (module docstring)
_ONE_MINUS_Z2 = Poly([1, 0, -1])
_RESTART_AHEAD = 128  # a jump further ahead restarts from the closed form


def _capacity(i: int) -> int:
    """The largest index the slots sized at index i serve (module docstring)."""
    return i + i // 2 + 8


def _first_order(key: FamilyKey, tau_val: Poly, neg_tq: Sequence[Poly]):
    """i -> P^_i for i > 0 not in the key, in first-order form, advanced along
    the Legendre recurrence on packed products (module docstring).  The
    coefficients of a_i and b_i in lambda_i are digit lists over one
    denominator, one slot longer than the longest so z * b_i fits."""
    n, mus = key.n, [m * (m + 1) for m in key.m]
    e = []  # e[l]: prod (mu - lambda) over the levels but the l-th, ascending; e[n] is pi
    for l in range(n + 1):
        row = [1] + [0] * n
        for mu in mus[:l] + mus[l + 1 :]:
            row = [mu * x - y for x, y in zip(row, [0] + row)]
        e.append(row)
    ps = [legendre_poly(m) for m in key.m]
    alphas = [_ONE_MINUS_Z2 * u * p.differentiate() for u, p in zip(neg_tq, ps)]
    betas = [u * p for u, p in zip(neg_tq, ps)]
    const = Poly.constant
    polys = [  # a_i's coefficients, then b_i's
        poly_dot([(const(e[n][k]), tau_val)] + [(const(-el[k]), x) for el, x in zip(e, alphas)])
        for k in range(n + 1)
    ] + [poly_dot((const(el[k]), x) for el, x in zip(e, betas)) for k in range(n)]
    den = math.lcm(*(p._den for p in polys))
    width = max(len(p._nums) for p in polys) + 1
    digits = [
        [v * (den // p._den) for v in p._nums] + [0] * (width - len(p._nums)) for p in polys
    ]
    tops = [max(map(abs, d)) for d in digits]
    lock = threading.Lock()
    cap = j = 0  # the slots hold every index up to cap; the products are at j - 1 and j
    slots = prev = cur = None

    def sized(c: int):
        lam = c * (c + 1)
        top_p = max(map(abs, _p_digits(c)))
        a = sum(lam**k * v for k, v in enumerate(tops[: n + 1]))
        b = sum(lam**k * v for k, v in enumerate(tops[n + 1 :]))
        return kronecker_slots((a + 3 * c * b) * top_p * width)

    def polynomial(i: int) -> Poly:
        nonlocal cap, j, slots, prev, cur
        with lock:
            if i < j or not j or i - j > _RESTART_AHEAD:  # start at i
                cap, j = _capacity(i), i
                slots = w, pack, _ = sized(cap)
                fs = [pack(d) for d in digits]
                p0, p1 = pack(_p_digits(i - 1)), pack(_p_digits(i))
                prev, cur = [f * p0 for f in fs], [f * p1 for f in fs]
            elif i > cap:  # widen: repack at the new slot width
                unpack, cap = slots[2], _capacity(i)
                slots = w, pack, _ = sized(cap)
                prev, cur = ([pack(unpack(x, width + j)) for x in xs] for xs in (prev, cur))
            w, _, unpack = slots
            while j < i:  # (j + 1) p_{j+1} = 2 (2j + 1) z p_j - 4j p_{j-1}
                nxt, c1, c0 = [], 2 * (2 * j + 1), 4 * j
                for x, y in zip(prev, cur):
                    q, r = divmod(c1 * (y << w) - c0 * x, j + 1)
                    if r:
                        raise InexactDivisionError("Legendre recurrence left a remainder")
                    nxt.append(q)
                prev, cur, j = cur, nxt, j + 1
            lam = i * (i + 1)
            a, b, b_prev = cur[n], 0, 0  # no b_i on the classical key
            for k in range(n - 1, -1, -1):  # Horner in lambda_i
                a = a * lam + cur[k]
                b = b * lam + cur[n + 1 + k]
                b_prev = b_prev * lam + prev[n + 1 + k]
            total = a - i * (b << w) + 2 * i * b_prev
        pi = (den << i) * math.prod(mu - lam for mu in mus)
        return Poly._raw(unpack(total, width + i), pi)

    return polynomial


def tau(key: FamilyKey) -> Poly:
    """Determinant of the deformation matrix, read from the canonical family."""
    return family(key).tau


def exceptional_poly(key: FamilyKey, i: int) -> Poly:
    """The i-th family polynomial (equals P_i when the key is empty)."""
    if i < 0:
        raise ValueError("polynomial index must be non-negative")
    return family(key).polynomial(i)


def expected_degree(key: FamilyKey, i: int) -> int:
    """Predicted degree of the i-th family polynomial of the canonical key.

    Duplicate levels merge and zero-parameter levels, which deform nothing,
    are dropped first.
    """
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
# After j steps the chain holds tau_j (the determinant of the key's first j
# levels), the polynomials, and the overlap numerators N = tau_j * overlap_j
# against the levels not yet applied.  One step with level m, parameter t is
#
#   tau_next = tau + t*N[m, m]
#   P_next_i = (tau_next*P_i + N[i, m]*(-t*P_m)) / tau
#   N_next   = (N[i1, i2]*tau_next + N[i1, m]*(-t*N[i2, m])) / tau
#
# since tau_next = tau*(1 + t*overlap[m, m]) and a step deforms an overlap to
# overlap[i1, i2] - t*overlap[i1, m]*overlap[i2, m] / (1 + t*overlap[m, m]).
# Every division is exact, for every key: P_next is the family polynomial of
# the first j+1 levels (an adjugate component), and N_next is the numerator
# of XFamily.overlap's closed form for those levels; both are polynomials,
# however often the roots of tau repeat (the level {1: -3} alone gives
# tau = -z^3).  Were this wrong, the kernel _dot_div would raise
# InexactDivisionError; it cannot return a wrong value.  Every overlap
# vanishes at z = -1, so every step keeps tau_j(-1) = 1: no parameter makes
# a divisor identically zero.  Each step is one two-term sum and exact
# division, _dot_div, with -t folded into its second operand once per step
# (-t*P_m) or per level i2; the first step, over tau_0 = 1, is the sum alone.
#
# Only the overlap columns against the not-yet-applied levels are carried,
# which is all the polynomial steps read; XFamily.overlap has every pair in
# closed form.
# ---------------------------------------------------------------------------


_PAIR = tuple[int, int]


def _pkey(i1: int, i2: int) -> _PAIR:
    return (i1, i2) if i1 <= i2 else (i2, i1)


def _chain(key: FamilyKey, indices: Sequence[int]) -> tuple[Poly, dict[int, Poly]]:
    """Deform tau and the polynomials of ``indices`` level by level.

    ``indices`` must contain the key's levels.
    """
    tau_prev = Poly.one()
    polys = {i: legendre_poly(i) for i in indices}
    cols = {_pkey(x, m): overlap_R(x, m) for m in key.m for x in indices}
    for j, (level, t) in enumerate(zip(key.m, key.t)):
        tau_next = tau_prev + cols[(level, level)].scale(t)
        neg_tp = polys[level].scale(-t)
        # tau_0 = 1 divides nothing
        step = partial(_dot_div, divisor=tau_prev) if j else poly_dot
        polys = {
            i: step(((tau_next, p), (cols[_pkey(i, level)], neg_tp)))
            for i, p in polys.items()
        }
        nxt: dict[_PAIR, Poly] = {}
        for mk in key.m[j + 1 :]:
            neg_tn = cols[_pkey(mk, level)].scale(-t)
            for x in indices:
                pair = _pkey(x, mk)
                if pair not in nxt:
                    nxt[pair] = step(
                        ((cols[pair], tau_next), (cols[_pkey(x, level)], neg_tn))
                    )
        cols = nxt
        tau_prev = tau_next
    return tau_prev, polys


class OverlapMap(Mapping):
    """Deformed overlaps of one family over the pairs of an index set.

    Keys are unordered pairs: ``(i1, i2)`` is in the map when both indices
    are in the set, a lookup accepts either order, and iteration yields each
    pair once as ``(i1, i2)`` with ``i1 <= i2``.  Values are read from
    ``XFamily.overlap``, which computes them on each read.
    """

    __slots__ = ("_family", "_indices", "_pairs")

    def __init__(self, fam: "XFamily", indices: Sequence[int]):
        ordered = sorted(set(indices))
        self._family = fam
        self._indices = frozenset(ordered)
        self._pairs = tuple(
            (a, b) for pos, a in enumerate(ordered) for b in ordered[pos:]
        )

    def __contains__(self, pair: object) -> bool:
        if not isinstance(pair, tuple) or len(pair) != 2:
            return False
        return pair[0] in self._indices and pair[1] in self._indices

    def __getitem__(self, pair: _PAIR) -> RatFun:
        if pair not in self:
            raise KeyError(pair)
        return self._family.overlap(*pair)

    def __iter__(self) -> Iterator[_PAIR]:
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)


class RecursiveFamily(Record):
    """Result of running the deformation chain level by level."""

    key: FamilyKey
    tau: Poly
    xpolys: Mapping[int, Poly]
    overlaps: OverlapMap
    max_index: int


def recursive_family(key: FamilyKey, max_i: int) -> RecursiveFamily:
    """Run the deformation chain from the classical base case.

    Returns the deformation polynomial and the family polynomials for indices
    up to ``max_i`` (plus the key's own levels), which must match the
    determinantal construction exactly, and a view of the deformed overlaps
    over the same indices.
    """
    indices = sorted(set(range(max_i + 1)) | set(key.m))
    tau_val, polys = _chain(key, indices)
    return RecursiveFamily(key, tau_val, polys, OverlapMap(family(key), indices), max_i)


# ---------------------------------------------------------------------------
# Cached family objects
# ---------------------------------------------------------------------------


class XFamily:
    """One canonical family: tau, the adjugate and q, computed once from its
    matrix, which is not kept.

    Construction is single-writer; afterwards the instance is immutable apart
    from memo maps, whose entries are pure recomputations and therefore safe
    to fill concurrently, and the first-order route, which advances its
    packed products under its own lock.

    Polynomials at indices up to 12 and in the key are memoized; those
    above 12 and outside the key are not, on the classical key too.  So each
    read of such an index is a call of the first-order route (a read below
    the route's current index restarts it from the closed form of p_{i-1}
    and p_i), and a caller that walks 0..N several times, as ``verify``
    does once per suite that reads the polynomials, walks the route each
    time.

    Overlaps are not memoized either (every check reads a pair once).  They
    are read from the classical overlaps and the table ``c[k][l] = -t_k
    adj[k, l]``, kept from the first overlap read on; nothing per index or
    per pair is kept.
    """

    __slots__ = (
        "key",
        "tau",
        "adjugate",
        "q",
        "_neg_tq",
        "_xpolys",
        "_first_order",
        "_c",
        "_lock",
    )

    def __init__(self, key: FamilyKey):
        if not key.is_canonical:
            raise ValueError("XFamily requires a canonical key")
        self.key = key
        matrix = build_matrix(key)
        self.tau = matrix.det()
        self.adjugate = matrix.adjugate()
        self.q = self.adjugate.apply(tuple(legendre_poly(m) for m in key.m))
        self._neg_tq = tuple(qc.scale(-t) for t, qc in zip(key.t, self.q))
        self._xpolys: dict[int, Poly] = {}
        self._first_order = None
        self._c: tuple[tuple[Poly, ...], ...] | None = None
        self._lock = threading.Lock()

    def polynomial(self, i: int) -> Poly:
        key = self.key
        if i <= _FIRST_ORDER_ABOVE or i in key.m:
            hit = self._xpolys.get(i)
            if hit is not None:
                return hit
            value = _xpoly_raw(key, i, self.tau, self._neg_tq)
            with self._lock:
                return self._xpolys.setdefault(i, value)
        # not memoized, so a reader of many indices (gen) holds one polynomial
        # at a time: the route's packed products are its cache
        if self._first_order is None:  # a pure function of the family
            self._first_order = _first_order(key, self.tau, self._neg_tq)
        return self._first_order(i)

    def recursive(self, max_i: int) -> RecursiveFamily:
        return recursive_family(self.key, max_i)

    def overlap(self, i1: int, i2: int) -> RatFun:
        """Deformed overlap of P_i1 and P_i2 as N / tau, where, with i <= j
        the sorted pair, N = R(i, j) tau + sum_{k,l} R(m_l, j) R(i, m_k) c[k][l]
        and c[k][l] = -t_k adj[k, l].

        N is handed to ``RatFun.of`` as those products, so evaluating the
        overlap away from the roots of tau builds no polynomial; reading it
        as a rational function builds N.
        """
        c = self._c
        if c is None:  # a pure function of the family
            key, adj = self.key, self.adjugate
            c = self._c = tuple(
                tuple(adj[k, l].scale(-t) for l in range(key.n)) for k, t in enumerate(key.t)
            )
        i, j = _pkey(i1, i2)
        m = self.key.m
        left = [overlap_R(i, mk) for mk in m]
        terms = [(overlap_R(i, j), self.tau)]
        for l, ml in enumerate(m):
            right = overlap_R(ml, j)
            terms += [(right, r_k, c_k[l]) for r_k, c_k in zip(left, c)]
        return RatFun.of(terms, self.tau)


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
