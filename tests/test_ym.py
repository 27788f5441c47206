"""Yang-Mills model: EL residuals, Maxwell warm-up, decomposition, currents."""

from fractions import Fraction as F

import pytest

from liecartan.algebra import central_extension, euclidean_diag, su2, u1
from liecartan.charts import Rng, frame_partial_field
from liecartan.connection import algebra_slot
from liecartan.forms import Form
from liecartan.scalars import Polynomial
from liecartan.ym import (YMFields, build_ym_chart, maxwell_q_transport_residual,
                          maxwell_scenario, pi_form_from_coeffs,
                          ym_current, ym_dAp_identity_residual, ym_el_residuals)


def flat_vacuum_fields(split, n, pi=None):
    alg = split.ambient
    N = alg.dim
    slot = algebra_slot(alg)
    beta = Form(N, 1, (slot,))
    for pos, a in enumerate(split.s_indices):
        beta.add_term((pos,), (a,), Polynomial.constant(F(1), N))
    beta._finalize()
    theta = Form(N, 1, (slot,))
    for pos, i in enumerate(split.l_indices):
        theta.add_term((n + pos,), (i,), Polynomial.constant(F(1), N))
    theta._finalize()
    probes = [(F(0),) * N]
    return YMFields(split, n, beta, theta, pi or {}, probes)


def test_flat_vacuum_residuals_vanish():
    split = central_extension(u1(), 1)
    rep = ym_el_residuals(flat_vacuum_fields(split, 1))
    assert rep["max"] == 0


def test_pi_perturbation_reads_off_linearly():
    split = central_extension(u1(), 2, b_diag=euclidean_diag(2))
    i0 = split.l_indices[0]
    pi = {(i0, 0, 1): Polynomial.constant(F(1), split.ambient.dim)}
    rep = ym_el_residuals(flat_vacuum_fields(split, 2, pi))
    # Euclidean metrics make the lowered read-off literally +1
    key = next(k for k in rep["r_pi_ss"] if k[:3] == (i0, 0, 1))
    assert rep["r_pi_ss"][key] == 1


def test_su2_vacuum_gg_block_is_structure_constants():
    split = central_extension(su2(), 2, b_diag=euclidean_diag(2))
    rep = ym_el_residuals(flat_vacuum_fields(split, 2))
    alg = split.ambient
    for (i, j1, j2, p), v in rep["r_pi_gg"].items():
        assert v == alg.c(i, j1, j2)
    assert all(v == 0 for v in rep["r_pi_sg"].values())


def test_maxwell_scenario_unit_field():
    rep = maxwell_scenario(F(1))
    assert rep["d_mu_p"] == F(1, 2)
    assert rep["norm2"] == -1
    assert rep["el_a_residual"] == 0
    assert rep["el_b_residual"] == 0
    assert rep["elvarpi_residual"] == 0
    assert rep["maxwell_residual"] == 0
    assert rep["fiber_average_demo"] <= 1e-8


def test_maxwell_scenario_vacuum():
    rep = maxwell_scenario(F(0))
    assert rep["el_a_residual"] == rep["el_b_residual"] == 0
    assert rep["elvarpi_residual"] == 0


def test_fiber_average_of_exact_term():
    import math

    rep = maxwell_scenario(F(1), nodes=256)
    # d/ds sin(s) = cos(s), whose exact period integral vanishes
    assert rep["fiber_average"](math.cos) <= 1e-8


def test_fiber_diffeo_invariance_of_q():
    assert maxwell_q_transport_residual(0) == 0
    assert maxwell_q_transport_residual(5) == 0


@pytest.mark.parametrize("fiber,n,curved", [
    ("u1", 2, False), ("u1", 3, True), ("su2", 2, False), ("su2", 2, True)])
def test_dAp_identity_on_charts(fiber, n, curved):
    inner = u1() if fiber == "u1" else su2()
    split = central_extension(inner, n)
    chart = build_ym_chart(split, n, seed=17 + n, curved_base=curved,
                           probe_count=1)
    assert ym_dAp_identity_residual(chart)["max"] == 0


def test_dAp_identity_zero_dual_field():
    split = central_extension(su2(), 2)
    chart = build_ym_chart(split, 2, seed=3, probe_count=1)
    chart.p_coeffs = {}
    assert ym_dAp_identity_residual(chart)["max"] == 0


def test_dAp_identity_reduces_without_connection():
    # A = 0 and flat base: the identity degenerates to the minor-derivative rows
    split = central_extension(su2(), 2)
    chart = build_ym_chart(split, 2, seed=5, probe_count=1)
    zero = Form(chart.N, 1, (algebra_slot(chart.alg),))
    for pos, a in enumerate(split.s_indices):
        zero.add_term((pos,), (a,), Polynomial.constant(F(1), chart.N))
    chart.A_form = zero._finalize()
    from liecartan.charts import coframe_from_algebra_form, frame_coeffs_2form
    from liecartan.connection import curvature

    chart.e_form = chart.A_form + chart.gm.right_log_derivative()
    chart.coframe = coframe_from_algebra_form(chart.e_form, chart.N,
                                              chart.probes, chart.exact)
    chart.F_form = curvature(chart.A_form, chart.alg)
    chart.F_coeffs = frame_coeffs_2form(chart.F_form, chart.coframe)
    assert ym_dAp_identity_residual(chart)["max"] == 0


def test_current_vanishes_for_fiber_constant_dual():
    split = central_extension(su2(), 2)
    chart = build_ym_chart(split, 2, seed=11, p_y_dependent=False)
    rep = ym_current(chart)
    for pt, jv in rep["J"].items():
        assert all(v == 0 for v in jv.values())
    assert rep["max_conservation"] == 0
    assert rep["max_commutator"] == 0


def test_current_constant_read_off():
    # u(1): p^{s g} = c * y gives J = c at the y = 0 probes
    split = central_extension(u1(), 2)
    chart = build_ym_chart(split, 2, seed=13, p_y_dependent=False)
    N = chart.N
    g0 = split.l_indices[0]
    y = Polynomial.coordinate(2, N)
    chart.p_coeffs[(g0, 0, g0)] = y.scale(F(7))
    rep = ym_current(chart)
    for pt, jv in rep["J"].items():
        assert jv[(g0, 0)] == 7
        assert jv[(g0, 1)] == 0


def test_commutator_input_identity():
    split = central_extension(su2(), 3)
    chart = build_ym_chart(split, 3, seed=19)
    assert ym_current(chart)["max_commutator"] == 0


def test_pi_norm_gauge_invariance():
    # |pi^{ss}|^2 equals |p^{ss}|^2 after the coefficient transport by Ad*
    split = central_extension(su2(), 2)
    chart = build_ym_chart(split, 2, seed=23)
    alg = chart.alg
    s_idx, g_idx = split.s_indices, split.l_indices
    b, k = split.b_diag, split.k_diag
    pt = chart.probes[0]
    ad = chart.gm._Ad.jets(pt, 0)
    ad_inv = chart.gm._Ad_inv.jets(pt, 0)
    p_at = {}
    for (i, A, B), fld in chart.p_coeffs.items():
        v = fld.jet(pt, 0).value
        p_at[(i, A, B)] = v
        p_at[(i, B, A)] = -v

    def norm2(vals):
        acc = 0
        for i in g_idx:
            gi = g_idx.index(i)
            for a in s_idx:
                for bb in s_idx:
                    v = vals.get((i, a, bb), 0)
                    acc += v * (v * b[a] * b[bb] / k[gi])
        return acc / 2

    # pi_i = sum_j p_j Ad^j_i; the s factors are untouched (Ad trivial on s)
    pi_vals = {}
    for a in s_idx:
        for bb in s_idx:
            for i in g_idx:
                acc = 0
                for j in g_idx:
                    acc += ad[j][i].value * p_at.get((j, a, bb), 0)
                if acc:
                    pi_vals[(i, a, bb)] = acc
    assert norm2(pi_vals) == norm2(p_at)


def test_on_shell_symmetry_of_dual_shift():
    # adding chi with chi^{ss} = 0 leaves the first residual block unchanged
    split = central_extension(u1(), 2, b_diag=euclidean_diag(2))
    i0 = split.l_indices[0]
    N = split.ambient.dim
    pi = {(i0, 0, 1): Polynomial.constant(F(2), N)}
    base = ym_el_residuals(flat_vacuum_fields(split, 2, pi))
    shifted = dict(pi)
    shifted[(i0, 0, i0)] = Polynomial.constant(F(5), N)
    after = ym_el_residuals(flat_vacuum_fields(split, 2, shifted))
    assert base["r_pi_ss"] == after["r_pi_ss"]


def test_current_is_fiber_divergence():
    # d(p^{a g} wedge fiber-minor) restricted to the fiber equals J^a times
    # the fiber volume: the chart-level form of the cancellation mechanism
    from liecartan.forms import Form as FormCls, exterior_d, interior, wedge
    from liecartan import linalg

    split = central_extension(su2(), 2)
    chart = build_ym_chart(split, 2, seed=59, probe_count=1)
    alg, N = chart.alg, chart.N
    s_idx, g_idx = split.s_indices, split.l_indices
    pt = chart.probes[0]
    rep = ym_current(chart)
    J = rep["J"][pt]
    V = linalg.mat_inverse(chart.coframe.matrix_at(pt), True)
    verticals = [[V[kk][L] for kk in range(N)] for L in g_idx]

    g_rows = {L: _row(chart, L) for L in g_idx}
    fiber_top = None
    for L in g_idx:
        fiber_top = g_rows[L] if fiber_top is None else wedge(fiber_top, g_rows[L])

    def full_contract(form):
        out = form
        for vec in reversed(verticals):
            out = interior(vec, out)
        return out.get((), ()).jet(pt, 0).value

    vol = full_contract(fiber_top)
    assert vol != 0
    for i in g_idx:
        for a in s_idx:
            acc = None
            for pos, L in enumerate(g_idx):
                fld = _pc(chart, i, a, L)
                if fld is None:
                    continue
                rest = [g_rows[M] for M in g_idx if M != L]
                minor = None
                for piece in rest:
                    minor = piece if minor is None else wedge(minor, piece)
                sign = (-1) ** pos
                scaled = FormCls(N, minor.degree)
                for K, _, mf in minor.terms():
                    scaled.add_term(K, (), mf if sign > 0 else _neg(mf))
                scaled._finalize()
                contrib = _mul_form(scaled, fld)
                acc = contrib if acc is None else acc + contrib
            if acc is None:
                assert J[(i, a)] == 0
                continue
            lhs = full_contract(exterior_d(acc))
            assert lhs == J[(i, a)] * vol


def _row(chart, L):
    from liecartan.forms import Form as FormCls

    out = FormCls(chart.N, 1)
    for k in range(chart.N):
        fld = chart.e_form.get((k,), (L,))
        from liecartan.fields import f_is_zero

        if not f_is_zero(fld):
            out.add_term((k,), (), fld)
    return out._finalize()


def _pc(chart, i, a, L):
    from liecartan.fields import f_scale

    key = (i, a, L) if a < L else (i, L, a)
    fld = chart.p_coeffs.get(key)
    if fld is None:
        return None
    return fld if a < L else f_scale(fld, -1)


def _neg(f):
    from liecartan.fields import f_scale

    return f_scale(f, -1)


def _mul_form(form, fld):
    from liecartan.fields import f_mul
    from liecartan.forms import Form as FormCls

    out = FormCls(form.n, form.degree)
    for K, _, mf in form.terms():
        out.add_term(K, (), f_mul(fld, mf))
    return out._finalize()
