"""Covariant derivatives, curvature, group maps and gauge transformations."""

import random
from fractions import Fraction as F

import pytest

from liecartan.algebra import build_algebra, is_unimodular
from liecartan.connection import (GroupMap, Representation, algebra_slot,
                                  adjoint_transport, beside_d, bracket_wedge,
                                  coadjoint_transport, cov_d, curvature,
                                  gauge_transform, levi_civita_coeff_fields,
                                  maurer_cartan_form, maurer_cartan_residual)
from liecartan.charts import Rng
from liecartan.fields import Taylor, f_zero
from liecartan.forms import Coframe, Form, contracted_wedge, exterior_d, one_form
from liecartan.scalars import Polynomial
from liecartan.suites import _near_identity

# the number backend these tests run on, as ``--backend`` names it; the id
# of each test that takes it ends in that name
RATIONAL = pytest.mark.parametrize("backend", ["rational"])


def rng_poly(rng, n, deg=2, terms=3):
    out = {}
    for _ in range(terms):
        e = [0] * n
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(n)] += 1
        out[tuple(e)] = out.get(tuple(e), 0) + F(rng.randint(-2, 2))
    return Polynomial(n, out)


def vanishing_poly(rng, n, probe):
    lin = Polynomial(n, {tuple(1 if i == j else 0 for i in range(n)):
                         F(rng.randint(-3, 3)) for j in range(n)})
    lin = lin + Polynomial.constant(F(0) - lin.eval(probe), n)
    return lin * rng_poly(rng, n, 1, 2)


def rand_alg_form(rng, alg, n, degree=1):
    slot = algebra_slot(alg)
    out = Form(n, degree, (slot,))
    keys = [(k,) for k in range(n)] if degree == 1 else [()]
    for key in keys:
        for i in range(alg.dim):
            out.add_term(key, (i,), rng_poly(rng, n))
    return out._finalize()


def make_group_map(rng, alg, n, probe):
    eta = [vanishing_poly(rng, n, probe) for _ in range(alg.dim)]
    return GroupMap(alg, eta, probe)


def test_cov_d_reduces_to_d():
    rng = random.Random(1)
    alg = build_algebra("su2")
    n = 3
    slot = algebra_slot(alg)
    zero_omega = Form(n, 1, (slot,))
    alpha = rand_alg_form(rng, alg, n)
    adrep = Representation.adjoint(alg)
    pt = (F(0), F(1), F(2))
    d1 = cov_d(zero_omega, alpha, (adrep,))
    d2 = exterior_d(alpha)
    assert (d1 - d2).max_abs(pt) == 0
    # trivial representation ignores any omega
    omega = rand_alg_form(rng, alg, n)
    triv = Representation("trivial", [{}] * alg.dim, alg.dim)
    assert (cov_d(omega, alpha, (triv,)) - d2).max_abs(pt) == 0


def test_cov_d_constant_section_bracket_oracle():
    rng = random.Random(2)
    alg = build_algebra("su2")
    n = 3
    omega = rand_alg_form(rng, alg, n)
    xi = [F(rng.randint(-3, 3)) for _ in range(3)]
    slot = algebra_slot(alg)
    sec = Form(n, 0, (slot,))
    for i in range(3):
        sec.add_term((), (i,), Polynomial.constant(xi[i], n))
    sec._finalize()
    adrep = Representation.adjoint(alg)
    got = cov_d(omega, sec, (adrep,))
    pt = (F(1), F(0), F(-1))
    # direct bracket expansion: (d^w xi)^k_m = c^k_{ij} w^i_m xi^j
    for m in range(n):
        for k in range(3):
            expect = sum(alg.c(k, i, j) * omega.get((m,), (i,)).value(pt)
                         * xi[j] for i in range(3) for j in range(3))
            assert got.get((m,), (k,)).value(pt) == expect


def test_curvature_u1_symbolic_oracle():
    # w = x_0^2 dx_1 on u(1): Omega = d w = 2 x_0 dx_0 ^ dx_1
    alg = build_algebra("u1")
    n = 2
    slot = algebra_slot(alg)
    omega = Form(n, 1, (slot,))
    omega.add_term((1,), (0,), Polynomial(n, {(2, 0): F(1)}))
    omega._finalize()
    Om = curvature(omega, alg)
    for pt in [(F(0), F(0)), (F(3), F(1))]:
        assert Om.get((0, 1), (0,)).value(pt) == 2 * pt[0]


def test_curvature_zero_connection():
    alg = build_algebra("su2")
    slot = algebra_slot(alg)
    omega = Form(3, 1, (slot,))
    assert not curvature(omega, alg).comps


def test_maurer_cartan_residual_exact():
    rng = random.Random(7)
    for name in ("u1", "su2", "p_0(3)"):
        alg = build_algebra(name)
        if hasattr(alg, "ambient"):
            alg = alg.ambient
        n = alg.dim
        probe = tuple(F(rng.randint(-1, 1), rng.choice([1, 2])) for _ in range(n))
        gm = make_group_map(rng, alg, n, probe)
        theta = maurer_cartan_form(gm)
        assert maurer_cartan_residual(theta, alg, probe) == 0


def test_u1_maurer_cartan_is_exact_differential():
    alg = build_algebra("u1")
    rng = random.Random(3)
    probe = (F(0),)
    f = vanishing_poly(rng, 1, probe)
    gm = GroupMap(alg, [f], probe)
    theta = maurer_cartan_form(gm)
    assert (theta - one_form_of(f)).max_abs(probe) == 0


def one_form_of(f):
    out = Form(1, 1, (algebra_slot(build_algebra("u1")),))
    out.add_term((0,), (0,), f.partial_poly(0))
    return out._finalize()


def test_gauge_transform_identity_and_constant():
    rng = random.Random(9)
    alg = build_algebra("su2")
    n = 3
    probe = (F(0), F(0), F(0))
    theta = rand_alg_form(rng, alg, n)
    pi = Form(n, 1, (algebra_slot(alg, dual=True),))
    for k in range(n):
        for i in range(3):
            pi.add_term((k,), (i,), rng_poly(rng, n))
    pi._finalize()
    gm = GroupMap(alg, [f_zero(n)] * alg.dim, probe)
    a, p = gauge_transform(gm, theta, pi)
    assert (a - theta).max_abs(probe) == 0
    assert (p - pi).max_abs(probe) == 0


def test_gauge_transform_abelian():
    alg = build_algebra("u1")
    rng = random.Random(4)
    probe = (F(0), F(1))
    n = 2
    xi = vanishing_poly(rng, n, probe)
    gm = GroupMap(alg, [xi], probe)
    slot = algebra_slot(alg)
    theta = Form(n, 1, (slot,))
    for k in range(n):
        theta.add_term((k,), (0,), rng_poly(rng, n))
    theta._finalize()
    a = gauge_transform(gm, theta)
    expect = theta - one_form_d(xi, n, slot)
    assert (a - expect).max_abs(probe) == 0


def one_form_d(f, n, slot):
    out = Form(n, 1, (slot,))
    for k in range(n):
        out.add_term((k,), (0,), f.partial_poly(k))
    return out._finalize()


def test_main_lemma_rows_exact():
    rng = random.Random(21)
    for name in ("su2", "p_0(3)"):
        alg = build_algebra(name)
        if hasattr(alg, "ambient"):
            alg = alg.ambient
        n = alg.dim
        probe = tuple(F(rng.randint(-1, 1), 2) for _ in range(n))
        gm = make_group_map(rng, alg, n, probe)
        adrep = Representation.adjoint(alg)
        coad = adrep.dual()
        theta = rand_alg_form(rng, alg, n)
        a = gauge_transform(gm, theta)
        assert (curvature(a, alg)
                - adjoint_transport(gm, curvature(theta, alg))).max_abs(probe) == 0
        phi = rand_alg_form(rng, alg, n)
        assert (cov_d(a, adjoint_transport(gm, phi), (adrep,))
                - adjoint_transport(gm, cov_d(theta, phi, (adrep,)))
                ).max_abs(probe) == 0
        pi = Form(n, 1, (algebra_slot(alg, dual=True),))
        for k in range(n):
            for i in range(alg.dim):
                pi.add_term((k,), (i,), rng_poly(rng, n))
        pi._finalize()
        assert (cov_d(a, coadjoint_transport(gm, pi), (coad,))
                - coadjoint_transport(gm, cov_d(theta, pi, (coad,)))
                ).max_abs(probe) == 0
        e = adjoint_transport(gm, theta)
        om = e - gm.right_log_derivative()
        assert (cov_d(om, e, (adrep,)) - curvature(om, alg)
                - bracket_wedge(alg, e, e).scale(F(1, 2))).max_abs(probe) == 0


def test_cov_d_squared_is_curvature_action():
    rng = random.Random(23)
    alg = build_algebra("su2")
    n = 3
    omega = rand_alg_form(rng, alg, n)
    alpha = rand_alg_form(rng, alg, n, degree=0)
    adrep = Representation.adjoint(alg)
    dd = cov_d(omega, cov_d(omega, alpha, (adrep,)), (adrep,))
    rhs = bracket_wedge(alg, curvature(omega, alg), alpha)
    assert (dd - rhs).max_abs((F(0), F(1), F(2))) == 0


def test_torsion_flat_and_bracket_oracle():
    sp = build_algebra("p_0(3)")
    alg = sp.ambient
    n = alg.dim
    rng = random.Random(31)
    slot = algebra_slot(alg)
    e_s = Form(n, 1, (slot,))
    for pos, a in enumerate(sp.s_indices):
        e_s.add_term((pos,), (a,), Polynomial.constant(F(1), n))
    e_s._finalize()
    adrep = Representation.adjoint(alg)
    zero = Form(n, 1, (slot,))
    assert not cov_d(zero, e_s, (adrep,)).comps
    omega = Form(n, 1, (slot,))
    for k in range(n):
        for i in sp.l_indices:
            omega.add_term((k,), (i,), rng_poly(rng, n))
    omega._finalize()
    got = cov_d(omega, e_s, (adrep,))
    oracle = bracket_wedge(alg, omega, e_s)
    assert (got - oracle).max_abs((F(0),) * n) == 0


def _slotted_e(cf, slot, probed):
    """e = e^A t_A as one algebra-valued 1-form: from the coframe's one-forms,
    read at its probe, or from its symbolic entries."""
    e_form = Form(cf.N, 1, (slot,))
    for A in range(cf.N):
        terms = (cf.one_form(A).terms() if probed else
                 (((k,), (), c) for k, c in enumerate(cf.entries[A])))
        for K, _, c in terms:
            e_form.add_term(K, (A,), c)
    return e_form._finalize()


@pytest.mark.parametrize("probed", [False, True], ids=["symbolic", "probed"])
def test_minor_leibniz_unimodular(probed):
    rng = random.Random(41)
    alg = build_algebra("su2")
    n = 3
    probe = (F(0), F(1, 2), F(-1, 3))
    entries = [[Polynomial.constant(F(1 if A == k else 0), n)
                + vanishing_poly(rng, n, probe) for k in range(n)]
               for A in range(n)]
    cf = Coframe(entries, probe)
    mins = cf.minors()
    slot = algebra_slot(alg)
    adrep = Representation.adjoint(alg)
    coad = adrep.dual()
    assert is_unimodular(alg)
    e_form = _slotted_e(cf, slot, probed)
    omega = rand_alg_form(rng, alg, n)
    if probed:
        omega = omega.at(probe)
    dwe = cov_d(omega, e_form, (adrep,))
    m1 = mins.minor_form(1, slot)
    m2 = mins.minor_form(2, slot)
    m3 = mins.minor_form(3, slot)
    assert (cov_d(omega, m1, (coad,))
            - contracted_wedge(dwe, m2, [(0, 1)])).max_abs(probe) == 0
    assert (cov_d(omega, m2, (coad, coad))
            - contracted_wedge(dwe, m3, [(0, 2)])).max_abs(probe) == 0


@RATIONAL
@pytest.mark.parametrize("spec", ["su2", "p_0(3)"])
def test_probed_minor_leibniz_inputs(backend, spec, monkeypatch):
    """gauge-lemmas' minor-Leibniz block reads e and omega at the probe: the
    probed e has the symbolic one's keys in order (less the terms that are
    zero there), and its values and kept partials there; every coefficient
    is a Taylor number bound to the probe; and d^omega e and its
    contraction with a minor build no polynomial product."""
    alg = build_algebra(spec)
    alg = getattr(alg, "ambient", alg)
    n = alg.dim
    rng = Rng(5)
    probe = tuple(rng.scalar(-1, 1) for _ in range(n))
    cf = Coframe(_near_identity(rng, n, probe), probe)
    slot = algebra_slot(alg)
    symbolic, probed = _slotted_e(cf, slot, False), _slotted_e(cf, slot, True)
    omega = Form(n, 1, (slot,))
    for k in range(n):
        for i in range(n):
            omega.add_term((k,), (i,), rng.poly(n, deg=2, terms=2))
    omega = omega._finalize().at(probe)

    def kept(K, f):
        return {k: x for k, x in f.partials(probe).items() if k not in K}

    # a coefficient whose value and kept partials are 0 at the probe is
    # dropped, as every zero Taylor number is
    want = [(K, [sk for sk, f in b.items() if f.value(probe) or kept(K, f)])
            for K, b in symbolic.comps.items()]
    assert [(K, list(b)) for K, b in probed.comps.items()] == \
        [(K, sks) for K, sks in want if sks]
    for K, sk, c in probed.terms():
        ref = symbolic.comps[K][sk]
        assert c.value(probe) == ref.value(probe)
        assert c.partials(probe) == kept(K, ref)
        assert c.drop == sum(1 << k for k in K)
    for form in (probed, omega):
        for _, _, c in form.terms():
            assert isinstance(c, Taylor) and c._pt == probe

    def no_product(*_):
        raise AssertionError("a polynomial product was built")

    monkeypatch.setattr(Polynomial, "__mul__", no_product)
    dwe = cov_d(omega, probed, (Representation.adjoint(alg),))
    contracted_wedge(dwe, cf.minors().minor_form(2, slot), [(0, 1)])


def _constant_fields(table, n_chart):
    return [[[Polynomial.constant(v, n_chart) for v in row] for row in block]
            for block in table]


def test_levi_civita_coeffs():
    # flat torsion data gives a vanishing connection
    n = 2
    probe = (F(0), F(0))
    zero_theta = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    h = [F(1), F(1)]
    gamma = levi_civita_coeff_fields(_constant_fields(zero_theta, n), h, n)
    assert all(gamma[a][b][c].value(probe) == 0 for a in range(n)
               for b in range(n) for c in range(n))
    # antisymmetry of gamma^{ab}_c on random antisymmetric torsion input
    rng = random.Random(12)
    theta = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    for a in range(3):
        for b in range(3):
            for c in range(b + 1, 3):
                v = F(rng.randint(-3, 3))
                theta[a][b][c] = v
                theta[a][c][b] = -v
    h3 = [F(-1), F(1), F(1)]
    probe3 = (F(0),) * 3
    gamma = levi_civita_coeff_fields(_constant_fields(theta, 3), h3, 3)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                up_ab = gamma[a][b][c].value(probe3) / h3[b]
                up_ba = gamma[b][a][c].value(probe3) / h3[a]
                assert up_ab + up_ba == 0


def test_levi_civita_torsion_free_2d():
    # e^0 = dx^0, e^1 = (1 + x^0) dx^1: check d e + gamma ^ e = 0 at a probe
    n = 2
    one = Polynomial.constant(F(1), n)
    e1 = one + Polynomial.coordinate(0, n)
    entries = [[one, Polynomial.constant(F(0), n)],
               [Polynomial.constant(F(0), n), e1]]
    probe = (F(1, 2), F(1, 3))
    cf = Coframe(entries, probe)
    # d e^1 = dx^0 ^ dx^1 = (1/(1+x^0)) e^0 ^ e^1: Theta^1_{01} = 1/(1+x^0)
    from liecartan.forms import decompose, exterior_d

    theta = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    de1 = decompose(exterior_d(cf.one_form(1)), cf, "by-coframe")
    theta[1] = de1
    gamma = levi_civita_coeff_fields(_constant_fields(theta, n), [F(1), F(1)], n)
    # torsion-free: Theta^a_bc = gamma^a_bc - gamma^a_cb, metric residual 0
    for a in range(n):
        de = decompose(exterior_d(cf.one_form(a)), cf, "by-coframe")
        for b in range(n):
            for c in range(n):
                g_abc = gamma[a][b][c].value(probe)
                assert de[b][c] - g_abc + gamma[a][c][b].value(probe) == 0
                # Euclidean metric
                assert g_abc + gamma[b][a][c].value(probe) == 0


def test_curvature_abelian_coordinate_instance():
    # w = x_1 dx_0 on u(1): Omega = dx_1 ^ dx_0 = -(dx_0 ^ dx_1)
    alg = build_algebra("u1")
    n = 2
    slot = algebra_slot(alg)
    omega = Form(n, 1, (slot,))
    omega.add_term((0,), (0,), Polynomial.coordinate(1, n))
    omega._finalize()
    Om = curvature(omega, alg)
    assert Om.get((0, 1), (0,)).value((F(0), F(0))) == -1


def test_exp_adjoint_u1_is_identity():
    from liecartan.algebra import exp_adjoint

    alg = build_algebra("u1")
    ad, ad_dual = exp_adjoint(alg, [0.7])
    assert ad == [[1.0]] and ad_dual == [[1.0]]


def test_singular_coframe_rejected():
    from liecartan.forms import Coframe, SingularCoframeError

    entries = [[Polynomial.constant(F(1), 2), Polynomial.constant(F(1), 2)],
               [Polynomial.constant(F(1), 2), Polynomial.constant(F(1), 2)]]
    with pytest.raises(SingularCoframeError):
        Coframe(entries, (F(0), F(0)))


def test_gauge_lemmas_builds_no_lazy_node(monkeypatch):
    """The gauge lemmas read their group maps, transports and products at
    the probe as Taylor numbers: runs on su2 and p_0(3), 5 cases each,
    build no lazy node."""
    from liecartan import fields
    from liecartan.suites import SuiteConfig, run_suite

    built = []
    init = fields._Lazy.__init__

    def counted(self, n):
        built.append(type(self).__name__)
        init(self, n)

    monkeypatch.setattr(fields._Lazy, "__init__", counted)
    for name in ("su2", "p_0(3)"):
        rep = run_suite(SuiteConfig(suite="gauge-lemmas", algebra=name, cases=5, seed=1))
        assert rep["pass"] and rep["max_residual"] == 0
    assert built == []


def test_product_beside_d_of_a_taylor_form_is_read_at_order_0():
    """Beside d of a form with order-1 Taylor coefficients, whose d is
    order 0, the product factors are order-0 copies at its point; beside d
    of a polynomial form they are the forms themselves."""
    rng = random.Random(5)
    alg = build_algebra("su2")
    n = 3
    probe = (F(1, 2), F(0), F(-1))
    theta = rand_alg_form(rng, alg, n)
    assert beside_d(theta, theta) == (theta,)
    e = adjoint_transport(make_group_map(rng, alg, n, probe), theta)
    w, = beside_d(e, e)
    assert all(type(f) is Taylor and f._d is None and f._pt == probe
               for _, _, f in w.terms())
    assert [(K, sk, f.value(probe)) for K, sk, f in w.terms()] == [
        (K, sk, f.value(probe)) for K, sk, f in e.terms()]

