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

Every second-order operator here has a known denominator, and over it a
coefficient triple (C2, C1, C0) of polynomials: it sends f to
(C2*f'' + C1*f' + C0*f) / denominator.  With L = (1-z^2)*tau' + 2*z*tau,
P = tau_a*tau_b and K = (1-z^2)*P' + 2*z*P:

    T(tau), over tau:
        ((1-z^2)*tau,  -2*((1-z^2)*tau' + z*tau),  (1-z^2)*tau'')
    B(phi, tau_b) A(tau_a, phi), over phi * tau_a^2:
        ((1-z^2)*P*phi,  -K*phi,  K*phi' - (1-z^2)*P*phi'')
    A(tau, phi) B(phi, tau), over phi * tau:
        ((1-z^2)*tau*phi,  -2*tau*(2*z*phi + (1-z^2)*phi'),  2*phi'*L - phi*L')

An operator is applied as one three-term sum of products, and an identity
is cleared of its common denominator, with no rational function reduced.
The eigen and intertwining residuals are each one ``FixedOperands.is_zero``:
one integer, the residual's value at z = 2^w, which is zero exactly when the
residual is, so no residual polynomial is built.  The operands that do not
change with the index (a family's triple and tau, a step's B A triple and
phi * tau0^2) sit over one denominator on the memoized ``_coefficients`` and
``_intertwiner`` entries, with their packs by slot width; each check packs
only its polynomials and their derivative digits, and forms C - lambda*tau
as pack(C) - lambda*pack(tau).  Only the factorization identities build
their difference triples, because a failing one reports its first nonzero
coefficient C_k.  The tests compose the same operators on canonical rational
functions and as Wronskians (``tests/helpers.py``), as independent oracles
for the triples.
"""

from __future__ import annotations

from functools import lru_cache

from .polyring import FixedOperands, Poly, poly_dot
from .record import Record
from .xfamily import FamilyKey, canonicalize, exceptional_poly, family, tau

__all__ = [
    "FactorizationReport",
    "IdentityCheck",
    "eigenvalue",
    "t_hat_numerator",
    "verify_eigen",
    "verify_factorization",
    "verify_intertwining",
]

_ONE_MINUS_Z2 = Poly([1, 0, -1])
_TWO_Z = Poly([0, 2])
_MINUS_ONE = Poly([-1])

# (C2, C1, C0) of the operator f -> C2*f'' + C1*f' + C0*f
_Triple = tuple[Poly, Poly, Poly]


def eigenvalue(i: int) -> int:
    """Eigenvalue attached to index i: -i(i+1)."""
    return -i * (i + 1)


def _apply(triple: _Triple, f: Poly) -> Poly:
    c2, c1, c0 = triple
    df = f.differentiate()
    return poly_dot(((c2, df.differentiate()), (c1, df), (c0, f)))


@lru_cache(maxsize=2)  # a family's eigen checks, or a step's two taus, share it
def _coefficients(tau_val: Poly) -> FixedOperands:
    """The triple of tau times the operator, then tau, packed once per width."""
    dt = tau_val.differentiate()
    b = poly_dot(((_ONE_MINUS_Z2, dt), (Poly.x(), tau_val))).scale(-2)
    return FixedOperands(
        (_ONE_MINUS_Z2 * tau_val, b, _ONE_MINUS_Z2 * dt.differentiate(), tau_val)
    )


def t_hat_numerator(tau_val: Poly, p: Poly) -> Poly:
    """Numerator of the operator applied to p, over denominator tau."""
    return _apply(_coefficients(tau_val).polys[:3], p)


def verify_eigen(key: FamilyKey, i: int) -> bool:
    """Exact check that the i-th family polynomial has eigenvalue -i(i+1).

    With (A, B, C) the triple of T(tau), the residual A*P'' + B*P' +
    (C - lambda*tau)*P is one integer: A, B, C and tau are packed once per
    slot width for the family, and only P and its derivative digits per index.
    """
    fam = family(key)
    # rows weight P, P', P'' in the operands (A, B, C, tau) = (F_0, ..., F_3)
    rows = ((2, 1), (3, -eigenvalue(i))), ((1, 1),), ((0, 1),)
    return _coefficients(fam.tau).is_zero(((fam.polynomial(i), rows),))


class IdentityCheck(Record):
    """One operator identity; when it fails, the probe z^k its difference fails on."""

    identity: str
    passed: bool
    counterexample_probe: Poly | None

    def to_json_obj(self, key: FamilyKey) -> dict:
        return {
            "identity": self.identity,
            "key": key.to_json_obj(),
            "i": None,
            "pass": self.passed,
            "counterexample_probe": (
                None
                if self.counterexample_probe is None
                else self.counterexample_probe.to_json()
            ),
        }


class FactorizationReport(Record):
    """The factorization identities of one Darboux step of a key."""

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
    """(canonical key, base key, tau0, tau1, phi) of the step that adds
    ``m_step`` to the canonical key with that level removed."""
    key = canonicalize(key)
    if m_step not in key.m:
        raise ValueError(f"level {m_step} is not part of the key {key}")
    base = key.without(key.m.index(m_step))
    return key, base, tau(base), tau(key), exceptional_poly(base, m_step)


def _ba(tau_a: Poly, tau_b: Poly, phi: Poly) -> _Triple:
    """B(phi, tau_b) A(tau_a, phi) times phi * tau_a^2."""
    p = tau_a * tau_b
    w = _ONE_MINUS_Z2 * p
    k = poly_dot(((_ONE_MINUS_Z2, p.differentiate()), (_TWO_Z, p)))
    dphi = phi.differentiate()
    return w * phi, -(k * phi), poly_dot(((k, dphi), (-w, dphi.differentiate())))


@lru_cache(maxsize=2)  # every index of a step shares it
def _intertwiner(tau0: Poly, tau1: Poly, phi: Poly) -> FixedOperands:
    """BA(tau0, tau1, phi), then phi * tau0^2, packed once per width."""
    return FixedOperands((*_ba(tau0, tau1, phi), phi * tau0 * tau0))


def _ab(tau_val: Poly, phi: Poly) -> _Triple:
    """A(tau, phi) B(phi, tau) times phi * tau."""
    dphi = phi.differentiate()
    l = poly_dot(((_ONE_MINUS_Z2, tau_val.differentiate()), (_TWO_Z, tau_val)))
    c1 = poly_dot(((_TWO_Z, phi), (_ONE_MINUS_Z2, dphi))) * tau_val.scale(-2)
    c0 = poly_dot(((dphi.scale(2), l), (-phi, l.differentiate())))
    return _ONE_MINUS_Z2 * tau_val * phi, c1, c0


def _factor_difference(tau_val: Poly, phi: Poly, lam: int) -> _Triple:
    """phi*tau * (T - lambda) minus B(phi, tau) A(tau, phi), over phi * tau^2."""
    a, b, c, _ = _coefficients(tau_val).polys
    ba2, ba1, ba0 = _ba(tau_val, tau_val, phi)
    pt = phi * tau_val
    return (
        poly_dot(((pt, a), (ba2, _MINUS_ONE))),
        poly_dot(((pt, b), (ba1, _MINUS_ONE))),
        poly_dot(((pt, c), (pt, tau_val.scale(-lam)), (ba0, _MINUS_ONE))),
    )


def _first_failing_probe(difference: _Triple) -> Poly | None:
    # N f = C2*f'' + C1*f' + C0*f gives N(1) = C0, N(z) = z*C0 + C1 and
    # N(z^2) = z^2*C0 + 2*z*C1 + 2*C2, so the probes 1, z, z^2 fail first at
    # z^k for the first nonzero C_k, and every probe passes when none is.
    k = next((k for k, c in enumerate(reversed(difference)) if not c.is_zero), None)
    return None if k is None else Poly.monomial(k)


def verify_factorization(key: FamilyKey, m_step: int) -> FactorizationReport:
    """Check the three operator identities certifying one deformation step.

    The step adds level ``m_step`` to the family obtained by removing it from
    the canonical form of ``key``, the key the report carries (a level whose
    parameters cancel is not a step and raises ``ValueError``); tau0, tau1
    are the deformation polynomials before and after it
    and lambda_m = -m(m+1).  Cleared of its denominator, each identity's
    difference is a triple (module docstring), zero exactly when it holds:

    * ``factor_base`` / ``factor_deformed`` (tau = tau0 / tau1), T = B A +
      lambda_m over phi*tau^2: phi*tau * (A, B, C - lambda_m*tau) - BA(tau, tau),
      with (A, B, C) the triple of T(tau);
    * ``middle_product``, A B agrees for both taus, over phi*tau0*tau1:
      tau1 * AB(tau0) - tau0 * AB(tau1).

    A failing identity reports the probe z^k (k <= 2) of its first nonzero
    coefficient C_k, the first monomial its difference does not annihilate.
    The report's ``probe_degree``, 2*max(deg tau0, deg tau1, deg phi, 2) + 2,
    names the probes 1, z, ..., z^D of the report format; a passing identity
    holds on all of them.
    """
    key, _, tau0, tau1, phi = _step_context(key, m_step)
    lam = eigenvalue(m_step)
    probe_degree = 2 * max(tau0.degree, tau1.degree, phi.degree, 2) + 2
    ab0, ab1 = _ab(tau0, phi), _ab(tau1, phi)
    differences = {
        "factor_base": _factor_difference(tau0, phi, lam),
        "factor_deformed": _factor_difference(tau1, phi, lam),
        "middle_product": tuple(
            poly_dot(((tau1, x), (-tau0, y))) for x, y in zip(ab0, ab1)
        ),
    }
    probes = {name: _first_failing_probe(d) for name, d in differences.items()}
    checks = tuple(IdentityCheck(name, p is None, p) for name, p in probes.items())
    return FactorizationReport(key, m_step, probe_degree, checks)


def verify_intertwining(key: FamilyKey, m_step: int, i: int) -> bool:
    """Exact check of the second-order intertwining identity for index i.

    The operator built from one deformation step maps the base family's i-th
    polynomial onto (lambda_i - lambda_m) times the deformed one:

        B(phi, tau_m) A(tau, phi) pi_i == (lambda_i - lambda_m) * pi_{m;i}

    (The sign follows from d/dz[(1-z^2)*Wr(phi, pi_i)/tau^2] being
    (lambda_i - lambda_m)*pi_i*phi/tau^2; both sides vanish at z = -1.)
    Both sides are multiplied by phi * tau^2, and their difference

        BA(tau, tau_m) pi_i - (lambda_i - lambda_m) * (phi * tau^2) * pi_{m;i}

    is one zero test of four products: the B A triple and phi * tau^2 are
    packed once per slot width for the step, and only pi_i, its derivative
    digits and pi_{m;i} per index.
    """
    if i == m_step:
        raise ValueError("intertwining check requires i distinct from the step level")
    key, base, tau0, tau1, phi = _step_context(key, m_step)
    pi_i = exceptional_poly(base, i)
    pi_mi = exceptional_poly(key, i)
    factor = eigenvalue(i) - eigenvalue(m_step)
    # rows weight f, f', f'': the triple (F_0, F_1, F_2) on pi_i, F_3 on pi_{m;i}
    rows = ((2, 1),), ((1, 1),), ((0, 1),)
    pi_terms = (pi_i, rows), (pi_mi, (((3, -factor),),))
    return _intertwiner(tau0, tau1, phi).is_zero(pi_terms)
