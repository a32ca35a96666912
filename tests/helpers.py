"""Shared test utilities: compact polynomial builders, parameter lattices,
and the independent oracles the package is checked against."""

from __future__ import annotations

import contextlib
import io
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from xlegendre import FamilyKey, Poly, PolyMatrix, RatFun, operators, overlap_R
from xlegendre.cli import main
from xlegendre.polyring import FixedOperands
from xlegendre.xfamily import _q_raw, _tau_raw, _xpoly_raw


@dataclass(frozen=True)
class CliRun:
    """Exit code and captured streams of one in-process CLI invocation."""

    exit_code: int
    output: str  # standard output
    stderr: str

    @property
    def stdout_bytes(self) -> bytes:
        return self.output.encode()


def run_cli(*args: str) -> CliRun:
    """Run ``xlegendre <args>`` in this process through ``main.main``, which
    always ends in SystemExit; an exception from a command propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        else:
            raise AssertionError("main.main returned instead of exiting")
    return CliRun(code, out.getvalue(), err.getvalue())


def sparse_poly(pairs: dict[int, int], den: int = 1) -> Poly:
    """Polynomial from {power: integer numerator} over a common denominator."""
    top = max(pairs)
    return Poly([Fraction(pairs.get(k, 0), den) for k in range(top + 1)])


def rodrigues_legendre(i: int) -> Poly:
    """Independent generator: (1/(2^i i!)) * d^i/dz^i (z^2-1)^i."""
    p = Poly([-1, 0, 1]) ** i
    for _ in range(i):
        p = p.differentiate()
    return p.scale(Fraction(1, 2**i * math.factorial(i)))


def recurrence_legendre(n: int) -> list[Poly]:
    """Independent generator: P_0, ..., P_n by the three-term recurrence
    (k+1) P_{k+1} = (2k+1) z P_k - k P_{k-1} on Fraction-scaled polynomials,
    one index after another."""
    polys = [Poly.one(), Poly.x()]
    for k in range(1, n):
        z_pk = Poly([0, *polys[k].coeffs])
        polys.append(
            z_pk.scale(Fraction(2 * k + 1, k + 1)) - polys[k - 1].scale(Fraction(k, k + 1))
        )
    return polys[: n + 1]


def fraction_antiderivative(p: Poly) -> Poly:
    """F with F' = p and F(-1) = 0, built one Fraction coefficient at a time
    (the integral's coefficients c_k / (k + 1), then minus its value at -1)."""
    partial = Poly([Fraction(0)] + [c / (k + 1) for k, c in enumerate(p.coeffs)])
    return partial - partial.evaluate(-1)


def cofactor_det(mat: PolyMatrix) -> Poly:
    """Determinant by cofactor expansion along the first column."""
    rows = mat.rows
    if not rows:
        return Poly.one()
    acc = Poly.zero()
    for i, row in enumerate(rows):
        if row[0].is_zero:
            continue
        minor = PolyMatrix([r[1:] for k, r in enumerate(rows) if k != i])
        term = row[0] * cofactor_det(minor)
        acc = acc + term if i % 2 == 0 else acc - term
    return acc


def poly_dot_is_zero(terms) -> bool:
    """Whether ``poly_dot(terms)`` is zero, through ``FixedOperands.is_zero``:
    the first factors of the pairs are the fixed operands, and each second
    factor is the varying polynomial of its own term, with weight 1."""
    terms = list(terms)
    fixed = FixedOperands(a for a, _ in terms)
    return fixed.is_zero((b, (((k, 1),),)) for k, (_, b) in enumerate(terms))


def unfused_t_hat_numerator(tau_val: Poly, p: Poly) -> Poly:
    """tau times the deformed operator applied to p, from separate products:
    (1-z^2)(p'' tau - 2 tau' p' + tau'' p) - 2 z p' tau."""
    dt = tau_val.differentiate()
    dp = p.differentiate()
    inner = dp.differentiate() * tau_val - (dt * dp).scale(2) + dt.differentiate() * p
    return Poly([1, 0, -1]) * inner - Poly([0, 2]) * dp * tau_val


def wronskian(a: Poly, b: Poly) -> Poly:
    """Wr(a, b) = a*b' - a'*b."""
    return a * b.differentiate() - a.differentiate() * b


def wronskian_ba_numerator(tau_a: Poly, tau_b: Poly, phi: Poly, f: Poly) -> Poly:
    """B(phi, tau_b) A(tau_a, phi) f times phi * tau_a^2, composed through
    the Wronskian W = Wr(phi, f):
    (1-z^2)*[tau_b*(W'*tau_a - W*tau_a') - tau_b'*W*tau_a] - 2*z*tau_b*W*tau_a."""
    w = wronskian(phi, f)
    w_tau = w * tau_a
    inner = tau_b * (w.differentiate() * tau_a - w * tau_a.differentiate())
    inner = inner - tau_b.differentiate() * w_tau
    return Poly([1, 0, -1]) * inner - Poly([0, 2]) * tau_b * w_tau


def wronskian_ab_numerator(tau_val: Poly, phi: Poly, f: Poly) -> Poly:
    """A(tau, phi) B(phi, tau) f times phi * tau, composed through
    V = (1-z^2)*Wr(tau, f) - 2*z*tau*f:  V'*phi - 2*phi'*V."""
    v = Poly([1, 0, -1]) * wronskian(tau_val, f) - Poly([0, 2]) * tau_val * f
    return v.differentiate() * phi - (phi.differentiate() * v).scale(2)


def fraction_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of a by a nonzero b over Q, by schoolbook long
    division one Fraction coefficient at a time."""
    r, d = list(a.coeffs), b.coeffs
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * (len(r) - len(d) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + len(d) - 1] / d[-1]
        for i, di in enumerate(d):
            r[k + i] -= q[k] * di
    return Poly(q), Poly(r[: len(d) - 1])


def rational_sturm_chain(p: Poly) -> tuple[Poly, ...]:
    """Sturm chain of p with remainders over Q: p, p', then the primitive
    part of minus the remainder of the two elements before, while nonzero."""
    chain = [p.primitive_part()]
    if p.degree > 0:
        chain.append(p.differentiate().primitive_part())
        while chain[-1].degree > 0:
            rem = fraction_divmod(chain[-2], chain[-1])[1]
            if rem.is_zero:
                break
            chain.append((-rem).primitive_part())
    return tuple(chain)


# -- the deformed operator and its factorization pair on canonical RatFuns ----

_ONE_MINUS_Z2 = Poly([1, 0, -1])
_TWO_Z = Poly([0, 2])


@dataclass(frozen=True)
class OperatorSpec:
    """Second-order operator determined by a nonzero deformation polynomial."""

    tau: Poly

    def __post_init__(self) -> None:
        if self.tau.is_zero:
            raise ValueError("deformation polynomial must be nonzero")


def apply_T_hat(spec: OperatorSpec, p: Poly) -> RatFun:
    """Apply the operator; the result is polynomial exactly on eigenfunctions.

    The numerator is read through the module, so a test that patches
    ``operators._coefficients`` perturbs this oracle as well."""
    return RatFun.of(operators.t_hat_numerator(spec.tau, p), spec.tau)


@dataclass(frozen=True)
class FirstOrderOp:
    """First-order factorization operator of kind A or B:

    A(tau, phi):  f  ->  (phi*f' - phi'*f) / tau
    B(phi, tau):  f  ->  ((1-z^2)*(tau*f' - tau'*f) - 2*z*tau*f) / phi
    """

    kind: Literal["A", "B"]
    first: Poly
    second: Poly

    def __post_init__(self) -> None:
        if self.first.is_zero or self.second.is_zero:
            raise ValueError("factorization operator polynomials must be nonzero")


def a_op(tau_val: Poly, phi: Poly) -> FirstOrderOp:
    return FirstOrderOp("A", tau_val, phi)


def b_op(phi: Poly, tau_val: Poly) -> FirstOrderOp:
    return FirstOrderOp("B", phi, tau_val)


def apply_first_order(op: FirstOrderOp, f: RatFun | Poly) -> RatFun:
    if isinstance(f, Poly):
        f = RatFun.from_poly(f)
    u, v = f.num, f.den
    wr_uv = u.differentiate() * v - u * v.differentiate()  # (u/v)' numerator over v^2
    if op.kind == "A":
        tau_val, phi = op.first, op.second
        num = phi * wr_uv - phi.differentiate() * (u * v)
        return RatFun.of(num, tau_val * v * v)
    phi, tau_val = op.first, op.second
    num = _ONE_MINUS_Z2 * (tau_val * wr_uv - tau_val.differentiate() * (u * v)) - (
        _TWO_Z * tau_val * (u * v)
    )
    return RatFun.of(num, phi * v * v)


LATTICE_T = (Fraction(1), Fraction(-1, 4), Fraction(7, 2))


def raw_xpoly(key: FamilyKey, i: int) -> Poly:
    """The i-th family polynomial expanded from the key's own matrix, as
    given: duplicate levels, zero parameters and level order are kept."""
    neg_tq = tuple(qc.scale(-t) for t, qc in zip(key.t, _q_raw(key)))
    return _xpoly_raw(key, i, _tau_raw(key), neg_tq)


def full_lattice(max_n: int = 3, max_m: int = 5, include_classical: bool = False):
    """Every key with n <= max_n distinct ascending levels <= max_m and
    parameters drawn independently from LATTICE_T."""
    keys = [FamilyKey.classical()] if include_classical else []
    for n in range(1, max_n + 1):
        for m in itertools.combinations(range(max_m + 1), n):
            for t in itertools.product(LATTICE_T, repeat=n):
                keys.append(FamilyKey(m, t))
    return keys


def deformed_overlaps_oracle(key: FamilyKey, indices) -> dict:
    """Deformed overlaps for every pair of ``indices`` (i1 <= i2), built one
    level at a time in RatFun arithmetic:
    R(a, b) <- R(a, b) - t R(a, m) R(b, m) / (1 + t R(m, m))."""
    idx = sorted(set(indices) | set(key.m))
    cur = {
        (a, b): RatFun.from_poly(overlap_R(a, b))
        for pos, a in enumerate(idx)
        for b in idx[pos:]
    }

    def get(a, b):
        return cur[(a, b) if a <= b else (b, a)]

    for m, t in zip(key.m, key.t):
        denom = RatFun.one() + get(m, m) * t
        cur = {
            (a, b): r - get(a, m) * get(b, m) * t / denom
            for (a, b), r in cur.items()
        }
    wanted = sorted(set(indices))
    return {(a, b): cur[(a, b)] for pos, a in enumerate(wanted) for b in wanted[pos:]}
