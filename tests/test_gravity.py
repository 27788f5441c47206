"""Gravity model: constrained EL system, source families, the fundamental
equation and its decomposition, generalized tensors, Bianchi rows,
commutators and conservation."""

from fractions import Fraction as F

import pytest

from liecartan.algebra import build_algebra
from liecartan.charts import Rng
from liecartan.connection import GroupMap, algebra_slot, maurer_cartan_form
from liecartan.forms import Form
from liecartan.gravity import (ChartInvariantError, GravityFields,
                               build_gravity_chart, certify_gravity_chart,
                               fields_from_chart, grav_bianchi_residuals,
                               grav_commutator_residuals,
                               grav_dAp_decomposition_residual,
                               grav_el_residuals, grav_fundamental_residual,
                               grav_psi_q, grav_T_conservation_residual,
                               grav_tensors, kappa_pi_block,
                               q_scalar_consistency, q_source_form,
                               theta_ring_invert, theta_ring_tensor, dAp_form)
from liecartan.kappa import build_kappa
from liecartan.scalars import Polynomial


def p03_chart(seed=42, **kw):
    sp = build_algebra("p_0(3)")
    kap = build_kappa("standard", sp)
    return sp, kap, build_gravity_chart(sp, kap, seed=seed, **kw)


def test_chart_certification():
    # building certifies; certifying the built chart again passes too
    sp, kap, chart = p03_chart(probe_count=2)
    certify_gravity_chart(chart)


def test_certification_rejects_broken_invariants():
    sp, kap, chart = p03_chart()
    # inject a fiber-direction component into A: F gains sl/ll blocks
    N = chart.N
    bad = chart.A_form
    bad.add_term((sp.n,), (0,), Polynomial.constant(F(1), N))
    bad._finalize()
    from liecartan.charts import coframe_from_algebra_form
    from liecartan.connection import curvature

    chart.e_form = bad + chart.gm.right_log_derivative()
    chart.coframe = coframe_from_algebra_form(chart.e_form, N, chart.probes,
                                              chart.exact)
    chart.F_form = curvature(bad, chart.alg)
    with pytest.raises(ChartInvariantError):
        certify_gravity_chart(chart)


def test_maurer_cartan_fields_are_flat():
    # phi = g^{-1} dg has Phi = 0, so r1 vanishes and Psi vanishes
    sp = build_algebra("p_0(3)")
    alg = sp.ambient
    N = alg.dim
    rng = Rng(11)
    probe = tuple(F(0) for _ in range(N))
    # eta_i = z_i + mix + quadratic terms: dexp(eta) keeps rank N at 0
    eta = []
    for i in range(N):
        terms = {tuple(1 if j == i else 0 for j in range(N)): F(1)}
        for j in range(i):
            key = tuple(1 if m == j else 0 for m in range(N))
            terms[key] = terms.get(key, F(0)) + rng.scalar(-1, 1)
        quad = [0] * N
        quad[rng.rng.randrange(N)] += 1
        quad[rng.rng.randrange(N)] += 1
        terms[tuple(quad)] = terms.get(tuple(quad), F(0)) + rng.scalar(-1, 1)
        eta.append(Polynomial(N, terms))
    gm = GroupMap(alg, eta, N)
    phi = maurer_cartan_form(gm)
    kap = build_kappa("standard", sp)
    pi = kappa_pi_block(sp, kap, N)
    fields = GravityFields(sp, kap, phi, pi, [probe])
    rep = grav_el_residuals(fields)
    assert rep["max_r1"] == 0
    # r2 reduces to d^phi pi alone: psi rows are zero by Phi = 0
    from liecartan.connection import Representation, cov_d
    from liecartan.ym import pi_form_from_coeffs

    coframe = fields.coframe()
    pi_form = pi_form_from_coeffs(pi, coframe, N, algebra_slot(alg, dual=True))
    dpi = cov_d(phi, pi_form, (Representation.coadjoint(alg),))
    assert abs(rep["r2"][probe] - dpi.max_abs(probe)) == 0


def test_r1_vanishes_on_flat_certified_chart():
    sp, kap, chart = p03_chart(seed=5, flat=True, linear_group=True)
    fields = fields_from_chart(chart)
    rep = grav_el_residuals(fields)
    assert rep["max_r1"] == 0


def test_r1_reports_phi_perturbation():
    # abelian toy with one injected ll-curvature component: r1 reads it off
    from liecartan.algebra import LieAlgebra, SplitAlgebra
    from liecartan.kappa import KappaTensor

    N = 3
    alg = LieAlgebra("abelian3", ["a0", "a1", "a2"], {})
    split = SplitAlgebra(alg, (0, 1), (2,), b_diag=[F(1), F(1)], k_diag=[F(1)])
    kap = KappaTensor(split, {(2, 0, 1): F(1)}, "standard")
    slot = algebra_slot(alg)
    phi = Form(N, 1, (slot,))
    for A in range(N):
        phi.add_term((A,), (A,), Polynomial.constant(F(1), N))
    # phi^2 += 7 z_0 dz_2: Phi^2 = 7 dz_0 ^ dz_2, an sl-block entry
    phi.add_term((2,), (2,), Polynomial.coordinate(0, N).scale(F(7)))
    phi._finalize()
    probe = (F(0),) * N
    fields = GravityFields(split, kap, phi, kappa_pi_block(split, kap, N),
                           [probe])
    rep = grav_el_residuals(fields)
    assert rep["max_r1"] == 7


def test_el_residuals_on_chart_fields():
    sp, kap, chart = p03_chart(seed=7)
    fields = fields_from_chart(chart)
    rep = grav_el_residuals(fields)
    assert rep["max_r1"] == 0       # F blocks vanish on certified charts


def test_psi_q_families():
    sp, kap, chart = p03_chart(seed=9)
    rep = grav_psi_q(chart)
    assert rep["max"] == 0
    assert rep["q_zero_rows"] == 0  # reductionQourbure: Q_l rows vanish


def test_psi_q_identity_group():
    sp, kap, chart = p03_chart(seed=13, linear_group=True)
    # with eta = y the group is trivial on the probe slice; transport there
    # is the identity and Q equals Psi componentwise
    rep = grav_psi_q(chart)
    assert rep["max"] == 0


def test_q_scalar_consistency():
    sp, kap, chart = p03_chart(seed=15)
    assert q_scalar_consistency(chart) == 0


def test_fundamental_equation_cross_consistency():
    sp, kap, chart = p03_chart(seed=17)
    rep = grav_fundamental_residual(chart)
    assert max(rep["cross"].values()) == 0


def test_fundamental_equation_flat_chart():
    # flat p_0(3) chart: Theta = Omega = 0 and [s, s] = 0, so Q = 0 and the
    # residual is d^A p itself
    sp, kap, chart = p03_chart(seed=19, flat=True)
    rep = grav_fundamental_residual(chart)
    lhs = dAp_form(chart)
    pt = chart.probes[0]
    q = q_source_form(chart, pt)
    assert q.max_abs(pt) == 0
    assert abs(rep["residual"][pt] - lhs.max_abs(pt)) == 0


@pytest.mark.parametrize("seed", [21, 22])
def test_decomposition_p03(seed):
    sp, kap, chart = p03_chart(seed=seed, probe_count=1)
    assert grav_dAp_decomposition_residual(chart)["max"] == 0


def test_decomposition_degenerate_block():
    # p^{sl} = p^{ll} = 0 and A = 0: only the kappa-constant block remains
    sp, kap, chart = p03_chart(seed=23, flat=True, probe_count=1)
    chart.p_coeffs = kappa_pi_block(sp, kap, chart.N)
    assert grav_dAp_decomposition_residual(chart)["max"] == 0


def test_decomposition_p14_holst():
    sp = build_algebra("p_1(4)")
    kap = build_kappa("holst", sp, gamma=F(2))
    chart = build_gravity_chart(sp, kap, seed=25, probe_count=1)
    assert grav_dAp_decomposition_residual(chart)["max"] == 0


def test_tensors_flat_chart():
    sp, kap, chart = p03_chart(seed=27, flat=True, probe_count=1)
    rep = grav_tensors(chart)
    pt = chart.probes[0]
    assert all(v == 0 for v in rep["cartan"][pt].values())
    assert all(v == 0 for v in rep["einstein"][pt].values())
    assert rep["max"] == 0


def test_tensors_roundtrip_and_lambda():
    sp = build_algebra("p_1(4)")
    kap = build_kappa("standard", sp)
    chart = build_gravity_chart(sp, kap, seed=29, probe_count=1)
    rep = grav_tensors(chart)
    assert max(rep["roundtrip"].values()) == 0
    assert max(rep["implicit_theta"].values()) == 0
    assert max(rep["implicit_omega"].values()) == 0
    assert max(rep["einstein_expansion"].values()) == 0
    assert rep["lambda"] == 6


def test_ring_inversion_rejects_low_dimension():
    ring = {(a, b, c): F(0) for a in range(2) for b in range(2) for c in range(2)}
    with pytest.raises(ValueError):
        theta_ring_invert(ring, (0, 1), 2)


@pytest.mark.parametrize("name,kind,gamma", [
    ("p_0(3)", "standard", None),
    ("p_1(4)", "standard", None),
    ("p_1(4)", "holst", F(2)),
])
def test_bianchi_rows(name, kind, gamma):
    sp = build_algebra(name)
    kap = build_kappa(kind, sp, gamma=gamma)
    chart = build_gravity_chart(sp, kap, seed=31, probe_count=1)
    assert grav_bianchi_residuals(chart)["max"] == 0


def test_bianchi_flat_chart():
    sp, kap, chart = p03_chart(seed=33, flat=True, probe_count=1)
    assert grav_bianchi_residuals(chart)["max"] == 0


def test_commutators():
    sp, kap, chart = p03_chart(seed=35, probe_count=1)
    assert grav_commutator_residuals(chart, test_count=2)["max"] == 0


def test_commutators_flat():
    sp, kap, chart = p03_chart(seed=37, flat=True, linear_group=True,
                               probe_count=1)
    # flat chart with a linear group map: all frame fields commute
    assert grav_commutator_residuals(chart, test_count=1)["max"] == 0


def test_conservation_lemma_and_chain():
    sp, kap, chart = p03_chart(seed=39, probe_count=1)
    rep = grav_T_conservation_residual(chart)
    assert rep["max_lemma"] == 0
    assert rep["max_chain"] == 0


def test_conservation_trivial_for_fiber_constant_dual():
    sp, kap, chart = p03_chart(seed=41, p_vars="x", probe_count=1)
    rep = grav_T_conservation_residual(chart)
    pt = chart.probes[0]
    assert all(v == 0 for v in rep["T"][pt].values())
    assert rep["max_defect"] == 0


def test_conservation_synthetic_constant_T():
    # flat chart, p^{s l}-block linear along the fiber: T is proportional to
    # the identity and every coupling row vanishes
    sp, kap, chart = p03_chart(seed=43, flat=True, linear_group=True,
                               p_vars="x", probe_count=1)
    N = chart.N
    n, r = sp.n, sp.r
    tau = F(5)
    for pos_a, a in enumerate(sp.s_indices):
        for pos_l, l in enumerate(sp.l_indices):
            y = Polynomial.coordinate(n + pos_l, N)
            key = (a, a, l) if a < l else (a, l, a)
            chart.p_coeffs[key] = y.scale(tau / r)
    rep = grav_T_conservation_residual(chart)
    pt = chart.probes[0]
    for a in sp.s_indices:
        assert rep["T"][pt][(a, a)] == tau
    assert rep["max_defect"] == 0
    assert rep["max_lemma"] == 0


def test_conservation_chain_p14():
    sp = build_algebra("p_1(4)")
    kap = build_kappa("standard", sp)
    chart = build_gravity_chart(sp, kap, seed=45, probe_count=1)
    rep = grav_T_conservation_residual(chart)
    assert rep["max_lemma"] == 0
    assert rep["max_chain"] == 0


def test_abelian_toy_el_residuals():
    # all-zero brackets: r1 = 0 and r2 is literally d pi
    from liecartan.algebra import LieAlgebra, SplitAlgebra
    from liecartan.connection import Representation, cov_d
    from liecartan.kappa import KappaTensor
    from liecartan.ym import pi_form_from_coeffs

    N = 3
    alg = LieAlgebra("abelian3", ["a0", "a1", "a2"], {})
    split = SplitAlgebra(alg, (0, 1), (2,), b_diag=[F(1), F(1)], k_diag=[F(1)])
    kap = KappaTensor(split, {(2, 0, 1): F(1)}, "standard")
    slot = algebra_slot(alg)
    phi = Form(N, 1, (slot,))
    for A in range(N):
        phi.add_term((A,), (A,), Polynomial.constant(F(1), N))
    phi._finalize()
    pi = {(2, 0, 1): Polynomial.constant(F(1), N),
          (0, 0, 2): Polynomial.coordinate(0, N)}
    probes = [(F(0),) * N, (F(1), F(-1), F(2))]
    fields = GravityFields(split, kap, phi, pi, probes)
    rep = grav_el_residuals(fields)
    assert rep["max_r1"] == 0
    from liecartan.forms import exterior_d

    coframe = fields.coframe()
    pi_form = pi_form_from_coeffs(pi, coframe, N, algebra_slot(alg, dual=True))
    dpi = exterior_d(pi_form)
    for p in probes:
        assert rep["r2"][p] == dpi.max_abs(p)


def test_exact_term_identity():
    # d(1/2 p^{ll} e^{(N-2)}_{ll}) = (d_l p^{ll} + 1/2 c p^{ll}) e^{(N-1)}_l
    from liecartan.charts import frame_partial_field
    from liecartan.fields import f_scale
    from liecartan.forms import Form as FormCls, exterior_d
    from liecartan.ym import pi_form_from_coeffs

    sp, kap, chart = p03_chart(seed=47, probe_count=1)
    alg, N = chart.alg, chart.N
    minors = chart.coframe.minors()
    pt = chart.probes[0]
    p_coeffs = chart.p_coeffs
    dual = algebra_slot(alg, dual=True)
    ll_only = {key: fld for key, fld in p_coeffs.items()
               if key[1] in sp.l_indices and key[2] in sp.l_indices}
    lhs = exterior_d(pi_form_from_coeffs(ll_only, chart.coframe, N, dual))
    rhs = FormCls(N, N - 1, (dual,))
    for I in range(N):
        for L in sp.l_indices:
            acc = 0
            for l1 in sp.l_indices:
                key = (I, L, l1) if L < l1 else (I, l1, L)
                fld = ll_only.get(key)
                if fld is None:
                    continue
                sgn = 1 if L < l1 else -1
                acc += sgn * frame_partial_field(chart.coframe, fld, l1) \
                    .jet(pt, 0).value
            for l1 in sp.l_indices:
                for l2 in sp.l_indices:
                    cv = alg.c(L, l1, l2)
                    if cv != 0:
                        key = (I, l1, l2) if l1 < l2 else (I, l2, l1)
                        fld = ll_only.get(key)
                        if fld is None:
                            continue
                        sgn = 1 if l1 < l2 else -1
                        acc += cv * sgn * fld.jet(pt, 0).value / 2
            if acc != 0:
                for K, _, mf in minors.minor((L,)).terms():
                    rhs.add_term(K, (I,), f_scale(mf, acc))
    rhs._finalize()
    assert (lhs - rhs).max_abs(pt) == 0


def test_action_density_invariance_constant_gauge():
    # the density pi ^ Phi pairs Ad*_g against Ad_g, so a constant gauge
    # transform leaves its top coefficient unchanged pointwise
    from liecartan.algebra import exp_adjoint
    from liecartan.connection import curvature
    from liecartan.forms import merge_sign
    from liecartan.gravity import pi_values_from_chart
    from liecartan.ym import pi_form_from_coeffs
    import liecartan.linalg as la

    sp, kap, chart = p03_chart(seed=49, probe_count=1)
    fields = fields_from_chart(chart)
    alg, N = chart.alg, chart.N
    pt = chart.probes[0]
    coframe = fields.coframe()
    dual = algebra_slot(alg, dual=True)
    Phi = curvature(fields.phi, alg)
    pi_at = pi_values_from_chart(chart, pt)
    pi_form = pi_form_from_coeffs(
        {k: Polynomial.constant(v, N) for k, v in pi_at.items() if k[1] < k[2]},
        coframe, N, dual)

    def wedge_scalar(pi_map, phi_map):
        acc = 0.0
        for (Kp, i), pv in pi_map.items():
            for (Kf, j), fv in phi_map.items():
                if i != j:
                    continue
                ms = merge_sign(Kp, Kf)
                if ms is None or len(ms[0]) != N:
                    continue
                acc += ms[1] * pv * fv
        return acc

    pi_map = {(K, i): float(fld.jet(pt, 0).value)
              for K, (i,), fld in pi_form.terms()}
    phi_map = {(K, i): float(fld.jet(pt, 0).value)
               for K, (i,), fld in Phi.terms()}
    plain = wedge_scalar(pi_map, phi_map)

    ad, _ = exp_adjoint(alg, [0.0] * sp.n + [0.3, -0.2, 0.5])
    ad_inv = la.mat_inverse(ad, exact=False)
    # (Ad*_g pi)_j = sum_i pi_i (Ad^{-1})^i_j ; (Ad_g Phi)^j = sum_i Ad^j_i Phi^i
    pi_t = {}
    for (K, i), v in pi_map.items():
        for j in range(N):
            if ad_inv[i][j]:
                pi_t[(K, j)] = pi_t.get((K, j), 0.0) + v * ad_inv[i][j]
    phi_t = {}
    for (K, i), v in phi_map.items():
        for j in range(N):
            if ad[j][i]:
                phi_t[(K, j)] = phi_t.get((K, j), 0.0) + v * ad[j][i]
    assert abs(wedge_scalar(pi_t, phi_t) - plain) <= 1e-9 * max(1.0, abs(plain))
