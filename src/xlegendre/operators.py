"""The deformed Legendre operator, its factorizations, and identity checks.

For a deformation polynomial tau the second-order operator acts on p as

    (1 - z^2) * (p'' - 2*(tau'/tau)*p' + (tau''/tau)*p) - 2*z*p'

and reduces to the classical Legendre operator for tau = 1.  Its polynomial
eigenfunctions carry eigenvalues -i(i+1); that sign convention is fixed
package-wide.

Each deformation level corresponds to a confluent pair of first-order
factorization operators.  With base deformation tau, step polynomial phi and
deformed tau_m the operators are

    A(tau, phi):  f  ->  (phi*f' - phi'*f) / tau          (= Wr(phi, f)/tau)
    B(phi, tau):  f  ->  ((1-z^2)*(tau*f' - tau'*f) - 2*z*tau*f) / phi

Every composite has a known denominator.  With W = Wr(phi, f) and
V_tau = (1-z^2)*Wr(tau, f) - 2*z*tau*f,

    B(phi, tau_b) A(tau_a, phi) f  =  BA_num / (phi * tau_a^2),
        BA_num = (1-z^2)*[tau_b*(W'*tau_a - W*tau_a') - tau_b'*W*tau_a]
                 - 2*z*tau_b*W*tau_a
    A(tau, phi) B(phi, tau) f      =  (V_tau'*phi - 2*phi'*V_tau) / (phi * tau)

so each identity certifying a deformation step is checked as an exact
polynomial identity between numerators, after multiplying both sides by the
common denominator.  No rational function is reduced on the way.  The tests
apply the same operators to canonical rational functions (``tests/helpers.py``)
as an independent oracle for the numerator identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .polyring import Poly, poly_dot
from .xfamily import FamilyKey, exceptional_poly, family, tau

__all__ = [
    "FactorizationReport",
    "IdentityCheck",
    "eigenvalue",
    "t_hat_numerator",
    "verify_eigen",
    "verify_factorization",
    "verify_intertwining",
    "wronskian",
]

_ONE_MINUS_Z2 = Poly([1, 0, -1])
_TWO_Z = Poly([0, 2])


def eigenvalue(i: int) -> int:
    """Eigenvalue attached to index i: -i(i+1)."""
    return -i * (i + 1)


def wronskian(a: Poly, b: Poly) -> Poly:
    """Wr(a, b) = a*b' - a'*b."""
    return a * b.differentiate() - a.differentiate() * b


@lru_cache(maxsize=2)  # a family's eigen checks, or a step's two taus, share it
def _coefficients(tau_val: Poly) -> tuple[Poly, Poly, Poly]:
    """A, B, C with tau * (operator p) = A p'' + B p' + C p."""
    dt = tau_val.differentiate()
    b = poly_dot(((_ONE_MINUS_Z2, dt), (Poly.x(), tau_val))).scale(-2)
    return _ONE_MINUS_Z2 * tau_val, b, _ONE_MINUS_Z2 * dt.differentiate()


def t_hat_numerator(tau_val: Poly, p: Poly) -> Poly:
    """Numerator of the operator applied to p, over denominator tau."""
    a, b, c = _coefficients(tau_val)
    dp = p.differentiate()
    return poly_dot(((a, dp.differentiate()), (b, dp), (c, p)))


def verify_eigen(key: FamilyKey, i: int) -> bool:
    """Exact check that the i-th family polynomial has eigenvalue -i(i+1)."""
    fam = family(key)
    p = fam.polynomial(i)
    a, b, c = _coefficients(fam.tau)
    c_lam = c - fam.tau.scale(eigenvalue(i))
    dp = p.differentiate()
    return poly_dot(((a, dp.differentiate()), (b, dp), (c_lam, p))).is_zero


@dataclass(frozen=True)
class IdentityCheck:
    identity: str
    passed: bool
    counterexample_probe: Poly | None

    def to_json_obj(self, key: FamilyKey, i: int | None = None) -> dict:
        return {
            "identity": self.identity,
            "key": key.to_json_obj(),
            "i": i,
            "pass": self.passed,
            "counterexample_probe": (
                None
                if self.counterexample_probe is None
                else self.counterexample_probe.to_json()
            ),
        }


@dataclass(frozen=True)
class FactorizationReport:
    key: FamilyKey
    step_level: int
    probe_degree: int
    checks: tuple[IdentityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_obj(self) -> dict:
        return {
            "kind": "factorization",
            "key": self.key.to_json_obj(),
            "step_level": self.step_level,
            "probe_degree": self.probe_degree,
            "pass": self.passed,
            "checks": [c.to_json_obj(self.key) for c in self.checks],
        }


def _step_context(key: FamilyKey, m_step: int):
    if m_step not in key.m:
        raise ValueError(f"level {m_step} is not part of the key {key}")
    base = key.without(key.m.index(m_step))
    tau0 = tau(base)
    tau1 = tau(key)
    phi = exceptional_poly(base, m_step)
    if phi.is_zero:
        raise ValueError("factorization operator polynomials must be nonzero")
    return base, tau0, tau1, phi


def _ba_numerator(tau_a: Poly, tau_b: Poly, phi: Poly, f: Poly) -> Poly:
    """B(phi, tau_b) A(tau_a, phi) f times phi * tau_a^2."""
    w = wronskian(phi, f)
    w_tau = w * tau_a
    inner = tau_b * (w.differentiate() * tau_a - w * tau_a.differentiate())
    inner = inner - tau_b.differentiate() * w_tau
    return _ONE_MINUS_Z2 * inner - _TWO_Z * tau_b * w_tau


def _ab_numerator(tau_val: Poly, phi: Poly, f: Poly) -> Poly:
    """A(tau, phi) B(phi, tau) f times phi * tau."""
    v = _ONE_MINUS_Z2 * wronskian(tau_val, f) - _TWO_Z * tau_val * f
    return v.differentiate() * phi - (phi.differentiate() * v).scale(2)


def verify_factorization(
    key: FamilyKey, m_step: int, probe_degree: int | None = None
) -> FactorizationReport:
    """Probe the three operator identities certifying one deformation step.

    The step is the one that adds level ``m_step`` to the family obtained by
    removing it from ``key``; tau0, tau1 are the deformation polynomials
    before and after it and lambda_m = -m(m+1).  Each identity is cleared of
    its denominator and checked as an exact polynomial identity on the
    probes f = 1, z, ..., z^D:

    * ``factor_base`` / ``factor_deformed`` (tau = tau0 / tau1), i.e.
      T = B A + lambda_m over phi * tau^2:
      phi*tau * t_hat_numerator(tau, f) == BA_num(tau, tau, f) + lambda_m*f*phi*tau^2;
    * ``middle_product``, i.e. A B agrees for both taus, over phi*tau0*tau1:
      tau1 * AB_num(tau0, f) == tau0 * AB_num(tau1, f).

    BA_num and AB_num are the numerators given in the module docstring.
    The report names the first failing probe of each identity.  Each
    identity's difference is a second-order operator with polynomial
    coefficients, so evaluating it on 1, z and z^2 decides every probe.
    A negative ``probe_degree`` raises ValueError: it leaves no probe, and
    every identity would pass unchecked.
    """
    if probe_degree is not None and probe_degree < 0:
        raise ValueError("probe degree must be non-negative")
    base, tau0, tau1, phi = _step_context(key, m_step)
    lam = eigenvalue(m_step)
    if probe_degree is None:
        degs = [int(q.degree) for q in (tau0, tau1, phi) if not q.is_zero]
        probe_degree = 2 * max(degs + [2]) + 2

    def factor_difference(tau_val: Poly) -> Callable[[Poly], Poly]:
        phi_tau = phi * tau_val
        lam_phi_tau_sq = (phi_tau * tau_val).scale(lam)
        return lambda f: (
            phi_tau * t_hat_numerator(tau_val, f)
            - _ba_numerator(tau_val, tau_val, phi, f)
            - lam_phi_tau_sq * f
        )

    def middle_difference(f: Poly) -> Poly:
        return tau1 * _ab_numerator(tau0, phi, f) - tau0 * _ab_numerator(tau1, phi, f)

    differences = {
        "factor_base": factor_difference(tau0),
        "factor_deformed": factor_difference(tau1),
        "middle_product": middle_difference,
    }
    # Each difference is linear and of second order with polynomial
    # coefficients, N f = C2*f'' + C1*f' + C0*f.  N(1) = C0, N(z) = z*C0 + C1
    # and N(z^2) = z^2*C0 + 2*z*C1 + 2*C2 all vanish only if C0 = C1 = C2 = 0,
    # so a failing probe set always fails first at 1, z or z^2.
    checks = []
    for name, difference in differences.items():
        probes = (Poly.monomial(k) for k in range(min(probe_degree, 2) + 1))
        probe = next((p for p in probes if not difference(p).is_zero), None)
        checks.append(IdentityCheck(name, probe is None, probe))
    return FactorizationReport(key, m_step, probe_degree, tuple(checks))


def verify_intertwining(key: FamilyKey, m_step: int, i: int) -> bool:
    """Exact check of the second-order intertwining identity for index i.

    The operator built from one deformation step maps the base family's i-th
    polynomial onto (lambda_i - lambda_m) times the deformed one:

        B(phi, tau_m) A(tau, phi) pi_i == (lambda_i - lambda_m) * pi_{m;i}

    (The sign follows from d/dz[(1-z^2)*Wr(phi, pi_i)/tau^2] being
    (lambda_i - lambda_m)*pi_i*phi/tau^2; both sides vanish at z = -1.)
    Both sides are multiplied by phi * tau^2 and compared as polynomials:
    BA_num(tau, tau_m, pi_i) == (lambda_i - lambda_m) * pi_{m;i} * phi * tau^2.
    """
    if i == m_step:
        raise ValueError("intertwining check requires i distinct from the step level")
    base, tau0, tau1, phi = _step_context(key, m_step)
    pi_i = exceptional_poly(base, i)
    pi_mi = exceptional_poly(key, i)
    factor = eigenvalue(i) - eigenvalue(m_step)
    lhs = _ba_numerator(tau0, tau1, phi, pi_i)
    return lhs == (pi_mi * phi * tau0 * tau0).scale(factor)
