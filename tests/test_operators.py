"""Operator layer: eigen relations, factorizations, intertwining, boundaries."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from xlegendre import (
    FamilyKey,
    Poly,
    RatFun,
    canonicalize,
    eigenvalue,
    exceptional_poly,
    family,
    legendre_poly,
    overlap_R,
    poly_dot,
    recursive_family,
    tau,
    verify_eigen,
    verify_factorization,
    verify_intertwining,
)
from xlegendre import operators, xfamily
from xlegendre.admissibility import admissibility_formula
from xlegendre.operators import FactorizationReport, IdentityCheck, t_hat_numerator
from xlegendre.polyring import FixedOperands

from helpers import (
    OperatorSpec,
    a_op,
    apply_T_hat,
    apply_first_order,
    b_op,
    full_lattice,
    poly_dot_is_zero,
    rodrigues_legendre,
    sparse_poly,
    unfused_t_hat_numerator,
    wronskian,
    wronskian_ab_numerator,
    wronskian_ba_numerator,
)

F = Fraction


def _classical_apply(p: Poly) -> Poly:
    """Independent classical operator: (1-z^2) p'' - 2z p'."""
    return Poly([1, 0, -1]) * p.differentiate().differentiate() - (
        Poly([0, 2]) * p.differentiate()
    )


def test_apply_matches_classical_operator_on_probes():
    spec = OperatorSpec(Poly.one())
    for k in range(9):
        probe = Poly.monomial(k)
        out = apply_T_hat(spec, probe)
        assert out.is_polynomial
        assert out.as_polynomial() == _classical_apply(probe)


def test_apply_classical_eigenrelation():
    spec = OperatorSpec(Poly.one())
    out = apply_T_hat(spec, legendre_poly(2))
    assert out.as_polynomial() == legendre_poly(2).scale(-6)


def test_apply_one_step_eigenpolynomial():
    # tau = 1 + (z+1), input z + (1/2)(z+1)^2, eigenvalue -2
    spec = OperatorSpec(Poly([2, 1]))
    p = Poly([F(1, 2), 2, F(1, 2)])
    out = apply_T_hat(spec, p)
    assert out.is_polynomial
    assert out.as_polynomial() == p.scale(-2)


def test_apply_level4_ground_state_annihilated():
    # independent recomputation: tau built from the differentiation-generator
    # route rather than the cached recurrence
    p4 = rodrigues_legendre(4)
    tau4 = Poly.one() + (p4 * p4).antiderivative_from_minus1()
    key = FamilyKey((4,), (F(1),))
    assert tau4 == tau(key)
    p = exceptional_poly(key, 0)
    out = apply_T_hat(OperatorSpec(tau4), p)
    assert out.is_zero


def test_apply_returns_proper_rational_for_non_eigenfunction():
    spec = OperatorSpec(Poly([2, 1]))
    out = apply_T_hat(spec, Poly.monomial(3))
    assert not out.is_polynomial


def test_first_order_a_is_derivative_for_trivial_pair():
    op = a_op(Poly.one(), Poly.one())
    f = RatFun.of(Poly([0, 0, 1]), Poly([1, 1]))
    assert apply_first_order(op, f) == f.derivative()
    p = Poly([3, 1, 2])
    assert apply_first_order(op, p) == RatFun.from_poly(p.differentiate())


def test_first_order_a_annihilates_its_seed():
    phi = legendre_poly(3)
    op = a_op(Poly([2, 1]), phi)
    assert apply_first_order(op, phi).is_zero


def test_wronskian_antisymmetry_and_derivative():
    a, b = legendre_poly(2), legendre_poly(3)
    assert wronskian(a, b) == -wronskian(b, a)
    assert wronskian(a, a).is_zero


def test_overlap_from_wronskian_specialization():
    # (1-z^2) * A(1, P_m) P_i == (lambda_i - lambda_m) * overlap(i, m)
    # for the classical start; checked for the m=0, i=1 pair
    phi = legendre_poly(0)
    out = apply_first_order(a_op(Poly.one(), phi), legendre_poly(1))
    lhs = RatFun.from_poly(Poly([1, 0, -1])) * out
    factor = eigenvalue(1) - eigenvalue(0)
    assert lhs == RatFun.from_poly(overlap_R(1, 0).scale(factor))


def test_boundary_wronskian_vanishes_at_minus_one():
    # (1-z^2) * Wr(pi_i, pi_m) / tau^2 evaluates to 0 at z = -1
    for key in (FamilyKey((2,), (F(7, 2),)), FamilyKey((1, 3), (F(1), F(-1, 4)))):
        tv = tau(key)
        for m_level in key.m:
            pi_m = exceptional_poly(key, m_level)
            for i in (0, 1, 4, 6):
                if i == m_level:
                    continue
                pi_i = exceptional_poly(key, i)
                expr = RatFun.of(
                    Poly([1, 0, -1]) * wronskian(pi_i, pi_m), tv * tv
                )
                assert expr.evaluate(-1) == 0


def test_factorization_from_classical_start():
    report = verify_factorization(FamilyKey((0,), (F(1),)), 0)
    assert report.passed
    assert {c.identity for c in report.checks} == {
        "factor_base",
        "factor_deformed",
        "middle_product",
    }


def test_factorization_admissible_negative_parameter():
    report = verify_factorization(FamilyKey((2,), (F(-1, 4),)), 2)
    assert report.passed


def test_factorization_rejects_perturbed_operator(monkeypatch):
    _perturb_t_hat(0)(monkeypatch)
    key = FamilyKey((1,), (F(1),))
    assert not verify_factorization(key, 1).passed


def test_factorization_second_step_of_two():
    report = verify_factorization(FamilyKey((1, 4), (F(1), F(-1, 4))), 4)
    assert report.passed


def test_factorization_rejects_foreign_level():
    with pytest.raises(ValueError):
        verify_factorization(FamilyKey((1,), (F(1),)), 2)


@pytest.mark.parametrize("t", [(F(1, 2), F(1, 2)), (F(1), F(-1))])
def test_factorization_answers_for_the_canonical_key(t):
    # duplicate levels merge (1/2 + 1/2 = 1) or cancel (1 - 1 = 0): a level
    # whose parameters cancel is no step of the canonical key
    key = FamilyKey((3, 3), t)
    canonical = canonicalize(key)
    if not canonical.n:
        with pytest.raises(ValueError, match="not part of the key"):
            verify_factorization(key, 3)
        with pytest.raises(ValueError, match="not part of the key"):
            verify_intertwining(key, 3, 1)
        return
    report = verify_factorization(key, 3)
    assert report.passed and report == verify_factorization(canonical, 3)
    for i in (0, 1, 2, 4, 8):
        assert verify_intertwining(key, 3, i) and verify_intertwining(canonical, 3, i)


def test_factorization_report_json_shape():
    report = verify_factorization(FamilyKey((0,), (F(1),)), 0)
    blob = report.to_json_obj()
    assert blob["kind"] == "factorization"
    assert blob["pass"] is True
    entry = blob["checks"][0]
    assert set(entry) == {"identity", "key", "i", "pass", "counterexample_probe"}
    assert entry["counterexample_probe"] is None


def test_verify_eigen_examples():
    assert verify_eigen(FamilyKey((3,), (F(7, 2),)), 0)  # eigenvalue 0
    assert verify_eigen(FamilyKey((4,), (F(26, 5),)), 5)
    assert verify_eigen(FamilyKey((1, 2), (F(2), F(-8, 5))), 3)


_rats = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@given(
    st.lists(_rats, min_size=1, max_size=12).map(Poly).filter(bool),
    st.lists(_rats, max_size=14).map(Poly),
)
@example(Poly([F(-3, 2)]), Poly([1, 2, 3]))  # constant tau
@example(Poly([1, 0, 0, 5]), Poly.zero())
@example(Poly([1]), Poly.zero())
def test_t_hat_numerator_matches_unfused_oracle(tau_val, p):
    assert t_hat_numerator(tau_val, p) == unfused_t_hat_numerator(tau_val, p)


@given(
    st.lists(_rats, min_size=1, max_size=6).map(Poly).filter(bool),
    st.lists(_rats, min_size=1, max_size=6).map(Poly).filter(bool),
    st.lists(_rats, min_size=1, max_size=6).map(Poly).filter(bool),
    st.lists(_rats, max_size=8).map(Poly),
)
@example(Poly([2, 1]), Poly([2, 1]), Poly([F(-3, 2)]), Poly([1, 2, 3]))  # constant phi
@example(Poly([F(5, 3)]), Poly([7]), legendre_poly(3), Poly([0, 1, 0, 4]))  # constant taus
@example(Poly([1, 0, 0, 5]), Poly([2, 1]), legendre_poly(2), Poly.zero())
def test_operator_triples_match_wronskian_oracles(tau_a, tau_b, phi, f):
    assert operators._apply(operators._ba(tau_a, tau_b, phi), f) == (
        wronskian_ba_numerator(tau_a, tau_b, phi, f)
    )
    assert operators._apply(operators._ab(tau_a, phi), f) == (
        wronskian_ab_numerator(tau_a, phi, f)
    )


def test_verify_eigen_rejects_a_perturbed_family_polynomial(monkeypatch):
    # P_i + c*z^k is no eigenfunction, however small c: the zero test must see it
    key = FamilyKey((1, 2), (F(2), F(-8, 5)))
    assert all(verify_eigen(key, i) for i in range(5))
    original = xfamily.XFamily.polynomial
    for c in (F(1), F(1, 10**40)):
        for k in (0, 1, 4):
            shifted = Poly.monomial(k, c)
            monkeypatch.setattr(
                xfamily.XFamily, "polynomial", lambda fam, i: original(fam, i) + shifted
            )
            assert not any(verify_eigen(key, i) for i in range(5)), (c, k)


def _eigen_by_built_terms(key, i):
    """verify_eigen from the built residual terms, (A, P''), (B, P'), (C - lambda*tau, P),
    as one zero test with fresh packs and as the built polynomial."""
    fam = family(key)
    a, b, c, t = operators._coefficients(fam.tau).polys
    p = fam.polynomial(i)
    dp = p.differentiate()
    terms = [(a, dp.differentiate()), (b, dp), (c - t.scale(eigenvalue(i)), p)]
    zero = poly_dot(terms).is_zero
    assert poly_dot_is_zero(terms) is zero
    return zero


@pytest.mark.parametrize(
    "key",
    [
        FamilyKey.classical(),  # tau = 1, so C = 0
        FamilyKey((1,), (F(-3),)),  # tau = -z^3
        FamilyKey((2, 5), (F(1021, 1024), F(-1023, 1019))),  # parameter height 1024
    ],
    ids=["classical", "tau_minus_z3", "height_1024"],
)
def test_verify_eigen_slots_hold_every_packed_operand(monkeypatch, key):
    # i = 0 and 1 leave P'' or P' zero, so a fixed operand can be packed with
    # no partner; P + c*z^k moves the widths up and down, and running the
    # indices both ways reuses packs at one width and adds others
    original = xfamily.XFamily.polynomial
    shifts = [Poly.monomial(k, c) for c in (F(1), F(1, 10**40), F(10**30)) for k in (0, 1, 4, 20)]
    for shifted in (None, *shifts):
        if shifted is not None:
            monkeypatch.setattr(
                xfamily.XFamily, "polynomial", lambda fam, i, s=shifted: original(fam, i) + s
            )
        for indices in (range(13), range(12, -1, -1)):
            got = [verify_eigen(key, i) for i in indices]
            assert got == [_eigen_by_built_terms(key, i) for i in indices], shifted
            assert all(got) if shifted is None else not all(got), shifted


@pytest.mark.parametrize("order", [1, 2])
def test_verify_eigen_packs_follow_coefficients(monkeypatch, order):
    # the packs live on what _coefficients returns: with the unperturbed
    # operands cached and packed, a perturbed triple must not read their packs
    key = FamilyKey((1, 2), (F(2), F(-8, 5)))
    indices = range(order, 9)
    assert all(verify_eigen(key, i) for i in indices)
    _perturb_t_hat(order)(monkeypatch)
    assert not any(verify_eigen(key, i) for i in indices)


def test_eigen_identity_fails_for_wrong_eigenvalue():
    key = FamilyKey((3,), (F(7, 2),))
    fam_tau = tau(key)
    p = exceptional_poly(key, 2)
    assert t_hat_numerator(fam_tau, p) == (p * fam_tau).scale(eigenvalue(2))
    assert t_hat_numerator(fam_tau, p) != (p * fam_tau).scale(eigenvalue(3))


def test_intertwining_examples():
    assert verify_intertwining(FamilyKey((0,), (F(1),)), 0, 1)
    assert verify_intertwining(FamilyKey((1,), (F(1, 3),)), 1, 0)
    assert verify_intertwining(FamilyKey((2, 5), (F(1), F(7, 2))), 5, 3)


def test_intertwining_rejects_a_perturbed_deformed_polynomial(monkeypatch):
    # pi_{m;i} + c*z^k on the deformed key alone breaks the identity, however small c
    key = FamilyKey((2, 5), (F(1), F(7, 2)))
    indices = (0, 1, 3, 6)
    assert all(verify_intertwining(key, 5, i) for i in indices)
    deformed = xfamily.family(key)
    original = xfamily.XFamily.polynomial
    for c in (F(1), F(1, 10**40)):
        for k in (0, 1, 4):
            shifted = Poly.monomial(k, c)

            def perturbed(fam, i, shifted=shifted):
                return original(fam, i) + shifted if fam is deformed else original(fam, i)

            monkeypatch.setattr(xfamily.XFamily, "polynomial", perturbed)
            assert not any(verify_intertwining(key, 5, i) for i in indices), (c, k)


def test_intertwining_rejects_equal_indices():
    with pytest.raises(ValueError):
        verify_intertwining(FamilyKey((2,), (F(1),)), 2, 2)


def test_one_step_overlap_transformation_identity():
    # appending one level transforms every overlap by
    #   R' = R - t * R(i1,m) * R(i2,m) / (1 + t * R(m,m))
    base = FamilyKey((1,), (F(2),))
    m_new, t_new = 3, F(-1, 4)
    extended = FamilyKey((1, 3), (F(2), t_new))
    rec_base = recursive_family(base, 6)
    rec_ext = recursive_family(extended, 6)
    denom = RatFun.one() + rec_base.overlaps[(m_new, m_new)] * t_new
    for pair in ((0, 0), (2, 4), (5, 5), (1, 3)):
        i1, i2 = pair
        transported = rec_base.overlaps[(i1, i2)] - (
            rec_base.overlaps[(i1, m_new)] * rec_base.overlaps[(i2, m_new)] * t_new
        ) / denom
        assert rec_ext.overlaps[pair] == transported


# -- polynomial identities against the rational-function composition ---------


def _oracle_factorization(key, m_step):
    """The identities probed one monomial at a time on canonical RatFuns."""
    _, _, tau0, tau1, phi = operators._step_context(key, m_step)
    lam = eigenvalue(m_step)
    probe_degree = 2 * max(tau0.degree, tau1.degree, phi.degree, 2) + 2
    a0, b0, a1, b1 = a_op(tau0, phi), b_op(phi, tau0), a_op(tau1, phi), b_op(phi, tau1)

    def factor(spec, a, b, probe):
        rf = RatFun.from_poly(probe)
        return apply_T_hat(spec, probe) == apply_first_order(
            b, apply_first_order(a, rf)
        ) + rf * lam

    def middle(probe):
        rf = RatFun.from_poly(probe)
        return apply_first_order(a0, apply_first_order(b0, rf)) == apply_first_order(
            a1, apply_first_order(b1, rf)
        )

    holds = {
        "factor_base": lambda p: factor(OperatorSpec(tau0), a0, b0, p),
        "factor_deformed": lambda p: factor(OperatorSpec(tau1), a1, b1, p),
        "middle_product": middle,
    }
    checks = []
    for name, check in holds.items():
        probes = (Poly.monomial(k) for k in range(probe_degree + 1))
        probe = next((p for p in probes if not check(p)), None)
        checks.append(IdentityCheck(name, probe is None, probe))
    return FactorizationReport(key, m_step, probe_degree, tuple(checks))


def _oracle_intertwining(key, m_step, i):
    key, base, tau0, tau1, phi = operators._step_context(key, m_step)
    factor = eigenvalue(i) - eigenvalue(m_step)
    composed = apply_first_order(
        b_op(phi, tau1),
        apply_first_order(a_op(tau0, phi), RatFun.from_poly(exceptional_poly(base, i))),
    )
    return composed == RatFun.from_poly(exceptional_poly(key, i).scale(factor))


_ORACLE_KEYS = [
    key
    for n, stride in ((1, 5), (2, 43), (3, 307))
    for key in [k for k in full_lattice(max_n=3, max_m=5) if k.n == n][::stride]
]


def _assert_matches_oracle(keys):
    for key in keys:
        for m_step in key.m:
            got = verify_factorization(key, m_step).to_json_obj()
            want = _oracle_factorization(key, m_step).to_json_obj()
            assert got == want, (key, m_step)
            for i in (0, 1, 3, 6):
                if i != m_step:
                    assert verify_intertwining(key, m_step, i) == _oracle_intertwining(
                        key, m_step, i
                    ), (key, m_step, i)


def test_polynomial_identities_match_ratfun_oracle_on_lattice():
    assert {key.n for key in _ORACLE_KEYS} == {1, 2, 3}
    _assert_matches_oracle(_ORACLE_KEYS)


def _perturb_phi(monkeypatch):
    original = operators._step_context

    def perturbed(key, m_step):
        key, base, tau0, tau1, phi = original(key, m_step)
        return key, base, tau0, tau1, phi + Poly.monomial(3)

    monkeypatch.setattr(operators, "_step_context", perturbed)


def _perturb_t_hat(order):
    # one more f^(order) term in tau * T f: +1 on that coefficient of the
    # triple, which t_hat_numerator, verify_eigen and the factor checks read
    def perturb(monkeypatch):
        original = operators._coefficients

        def perturbed(tau_val):
            polys = list(original(tau_val).polys)
            polys[2 - order] = polys[2 - order] + Poly.one()
            return FixedOperands(polys)

        monkeypatch.setattr(operators, "_coefficients", perturbed)

    return perturb


@pytest.mark.parametrize(
    "perturb, first_failure",
    [(_perturb_phi, 0), (_perturb_t_hat(1), 1), (_perturb_t_hat(2), 2)],
    ids=["phi_plus_z3", "extra_f1_term", "extra_f2_term"],
)
def test_polynomial_identities_match_ratfun_oracle_on_counterexamples(
    monkeypatch, perturb, first_failure
):
    perturb(monkeypatch)
    keys = _ORACLE_KEYS[::3]
    _assert_matches_oracle(keys)
    report = verify_factorization(keys[-1], keys[-1].m[-1])
    failing = [c.counterexample_probe for c in report.checks if not c.passed]
    assert failing and min(failing, key=lambda p: p.degree) == Poly.monomial(first_failure)


# -- eigen and intertwining zero tests against independent oracles -----------

_oracle_property_keys = (
    st.integers(1, 3)
    .flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 5), min_size=n, max_size=n, unique=True),
            st.lists(
                st.fractions(min_value=-5, max_value=9, max_denominator=1024),
                min_size=n,
                max_size=n,
            ),
        )
    )
    .map(lambda mt: canonicalize(FamilyKey(tuple(mt[0]), tuple(mt[1]))))
    .filter(lambda key: key.n and admissibility_formula(key))
)
# None, or P + c*z^k in place of every family polynomial P
_shifts = st.one_of(
    st.none(),
    st.builds(
        Poly.monomial,
        st.integers(0, 20),
        st.sampled_from([F(1), F(-3, 7), F(1, 10**40), F(10**30)]),
    ),
)


def _shifted_polynomials(mp, shifted):
    if shifted is not None:
        original = xfamily.XFamily.polynomial
        mp.setattr(xfamily.XFamily, "polynomial", lambda fam, i: original(fam, i) + shifted)


@settings(max_examples=30, deadline=None)
@given(_oracle_property_keys, st.integers(0, 12), _shifts)
@example(FamilyKey((3,), (F(7, 2),)), 0, None)
@example(FamilyKey((3,), (F(7, 2),)), 0, Poly.monomial(1, F(10**30)))
def test_verify_eigen_matches_unfused_oracle(key, i, shifted):
    with pytest.MonkeyPatch.context() as mp:
        _shifted_polynomials(mp, shifted)
        fam = family(key)
        p = fam.polynomial(i)
        want = unfused_t_hat_numerator(fam.tau, p) == (p * fam.tau).scale(eigenvalue(i))
        assert verify_eigen(key, i) is want
        if shifted is None:
            assert want


@settings(max_examples=30, deadline=None)
@given(_oracle_property_keys, st.integers(0, 2), st.integers(0, 12), _shifts)
@example(FamilyKey((2, 5), (F(1), F(7, 2))), 1, 3, None)
@example(FamilyKey((2, 5), (F(1), F(7, 2))), 1, 3, Poly.monomial(4, F(1, 10**40)))
def test_verify_intertwining_matches_ratfun_oracle(key, step, i, shifted):
    m_step = key.m[step % key.n]
    assume(i != m_step)
    with pytest.MonkeyPatch.context() as mp:
        _shifted_polynomials(mp, shifted)
        want = _oracle_intertwining(key, m_step, i)
        assert verify_intertwining(key, m_step, i) is want
        if shifted is None:
            assert want
