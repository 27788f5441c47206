"""Yang-Mills model: EL residuals, Maxwell warm-up, decomposition, currents."""

from fractions import Fraction as F

import pytest

from liecartan.algebra import central_extension, euclidean_diag, su2, u1
from liecartan.connection import algebra_slot
from liecartan.forms import Form
from liecartan.scalars import Polynomial
from liecartan.ym import (YMFields, build_ym_chart, maxwell_q_transport_residual,
                          maxwell_residual, maxwell_scenario, ym_current,
                          ym_dAp_identity_residual, ym_el_residuals)

# the number backend these tests run on, as ``--backend`` names it; the id
# of each test that takes it ends in that name
RATIONAL = pytest.mark.parametrize("backend", ["rational"])


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
    return YMFields(split, beta, theta, pi or {}, (F(0),) * N)


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
    assert rep["r_pi_ss"][(i0, 0, 1)] == 1


def test_su2_vacuum_gg_block_is_structure_constants():
    split = central_extension(su2(), 2, b_diag=euclidean_diag(2))
    rep = ym_el_residuals(flat_vacuum_fields(split, 2))
    alg = split.ambient
    for (i, j1, j2), v in rep["r_pi_gg"].items():
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


def test_maxwell_residual_of_a_potential_that_does_not_solve():
    """d_nu F^{mu nu} is read from the potentials' second partials: the
    scenario's A = -E x^1 dx^0 solves the vacuum equation, A_0 = (x^1)^2
    does not, with d_nu F^{0 nu} = -2 / (b_0 b_1) = 2."""
    N = 5
    b = [F(-1), F(1), F(1), F(1)]
    x1 = Polynomial.coordinate(1, N)
    zero = Polynomial.constant(0, N)
    probe = (F(1, 2), F(-1, 3), F(1), F(2), F(0))
    assert maxwell_residual([x1.scale(F(-3)), zero, zero, zero], b, probe) == 0
    assert maxwell_residual([x1 * x1, zero, zero, zero], b, probe) == 2


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
    chart = build_ym_chart(split, n, seed=17 + n, curved_base=curved)
    assert ym_dAp_identity_residual(chart)["max"] == 0


def test_dAp_identity_zero_dual_field():
    split = central_extension(su2(), 2)
    chart = build_ym_chart(split, 2, seed=3)
    chart.p_coeffs = {}
    assert ym_dAp_identity_residual(chart)["max"] == 0


def test_dAp_identity_reduces_without_connection():
    # A = 0 and flat base: the identity degenerates to the minor-derivative rows
    split = central_extension(su2(), 2)
    chart = build_ym_chart(split, 2, seed=5)
    zero = Form(chart.N, 1, (algebra_slot(chart.alg),))
    for pos, a in enumerate(split.s_indices):
        zero.add_term((pos,), (a,), Polynomial.constant(F(1), chart.N))
    chart.A_form = zero._finalize()
    from liecartan.charts import coframe_from_algebra_form, frame_coeffs_2form
    from liecartan.connection import curvature

    chart.e_form = chart.A_form + chart.gm.right_log_derivative()
    chart.coframe = coframe_from_algebra_form(chart.e_form, chart.probe)
    chart.F_form = curvature(chart.A_form, chart.alg)
    chart.F_coeffs = frame_coeffs_2form(chart.F_form, chart.coframe)
    assert ym_dAp_identity_residual(chart)["max"] == 0


@RATIONAL
def test_frame_coeffs_2form_match_the_sum_over_every_index_pair(backend):
    """alpha_{AB} and alpha_{BA} = -alpha_{AB} read, bit for bit, as the sum
    over all (A, B) of the product and its negated transpose; the diagonal,
    0 there, has no key."""
    from liecartan.charts import frame_coeffs_2form
    from liecartan.fields import f_add, f_mul, f_scale

    chart = build_ym_chart(central_extension(su2(), 2), 2, seed=7, curved_base=True)
    V, N, pt = chart.coframe.inverse_field(), chart.N, chart.probe
    want = {}
    for (k, l), sk, fld in chart.F_form.terms():
        for A in range(N):
            for B in range(N):
                term = f_mul(f_mul(V.entry(k, A), V.entry(l, B)), fld)
                want.setdefault(sk + (A, B), []).append(term)
                want.setdefault(sk + (B, A), []).append(f_scale(term, -1))
    got = frame_coeffs_2form(chart.F_form, chart.coframe)
    assert set(got) == {key for key in want if key[-1] != key[-2]}
    for key, parts in want.items():
        ref = f_add(*parts)
        read = [ref.value(pt)] + [ref.dvalue(pt, k) for k in range(N)]
        if key[-1] == key[-2]:
            assert read == [0] * (N + 1)
        else:
            assert repr(read) == repr([got[key].value(pt)]
                                      + [got[key].dvalue(pt, k) for k in range(N)]), key


def test_current_vanishes_for_fiber_constant_dual():
    split = central_extension(su2(), 2)
    for seed in (11, 12):
        chart = build_ym_chart(split, 2, seed=seed, p_y_dependent=False)
        rep = ym_current(chart)
        assert all(v == 0 for v in rep["J"].values())
        assert rep["max_conservation"] == 0
        assert rep["max_commutator"] == 0


def test_current_constant_read_off():
    # u(1): p^{s g} = c * y gives J = c at the y = 0 probe
    split = central_extension(u1(), 2)
    for seed in (13, 14):
        chart = build_ym_chart(split, 2, seed=seed, p_y_dependent=False)
        N = chart.N
        g0 = split.l_indices[0]
        y = Polynomial.coordinate(2, N)
        chart.p_coeffs[(g0, 0, g0)] = y.scale(F(7))
        rep = ym_current(chart)
        assert rep["J"][(g0, 0)] == 7
        assert rep["J"][(g0, 1)] == 0


def test_commutator_input_identity():
    split = central_extension(su2(), 3)
    for seed in (19, 20):
        chart = build_ym_chart(split, 3, seed=seed)
        assert ym_current(chart)["max_commutator"] == 0


def test_pi_norm_gauge_invariance():
    # |pi^{ss}|^2 equals |p^{ss}|^2 after the coefficient transport by Ad*
    split = central_extension(su2(), 2)
    chart = build_ym_chart(split, 2, seed=23)
    alg = chart.alg
    s_idx, g_idx = split.s_indices, split.l_indices
    b, k = split.b_diag, split.k_diag
    pt = chart.probe
    p_at = {}
    for (i, A, B), fld in chart.p_coeffs.items():
        v = fld.value(pt)
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
                    ad = chart.gm.ad_entry(j, i).value(pt)
                    acc += ad * p_at.get((j, a, bb), 0)
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
    chart = build_ym_chart(split, 2, seed=59)
    alg, N = chart.alg, chart.N
    s_idx, g_idx = split.s_indices, split.l_indices
    pt = chart.probe
    rep = ym_current(chart)
    J = rep["J"]
    V = linalg.mat_inverse([[f.value(pt) for f in row]
                           for row in chart.coframe.entries])
    verticals = [[V[kk][L] for kk in range(N)] for L in g_idx]

    g_rows = {L: _row(chart, L) for L in g_idx}
    fiber_top = None
    for L in g_idx:
        fiber_top = g_rows[L] if fiber_top is None else wedge(fiber_top, g_rows[L])

    def full_contract(form):
        out = form
        for vec in reversed(verticals):
            out = interior(vec, out)
        return out.get((), ()).value(pt)

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


def test_decomp_case_inverts_each_coframe_once(monkeypatch):
    """One ym-decomp case on a curved base, with every entry of the chart
    coframe's inverse read by value and first partials afterwards: each
    matrix is inverted once, and each inverse node computes its value
    matrix and its partials at most once at the probe.  The chart's
    coframe entries keep every partial, so its inverse's partials can be
    read."""
    from liecartan import fields, linalg
    from liecartan.algebra import central_extension, su2

    inverted = []
    mat_inverse = linalg.mat_inverse
    monkeypatch.setattr(linalg, "mat_inverse",
                        lambda A: inverted.append(repr(A)) or mat_inverse(A))
    computed = []
    cls = fields.MatrixInverseField
    for kind in ("_value", "_partials"):
        def counted(self, *args, _orig=getattr(cls, kind), _kind=kind):
            computed.append((id(self), _kind))
            return _orig(self, *args)
        monkeypatch.setattr(cls, kind, counted)
    split = central_extension(su2(), 3, b_diag=euclidean_diag(3))
    chart = build_ym_chart(split, 3, seed=7, curved_base=True)
    assert ym_dAp_identity_residual(chart)["max"] == 0
    pt = chart.probe
    V = chart.coframe.inverse_field()
    for i in range(chart.N):
        for j in range(chart.N):
            V.entry(i, j).value(pt)
            for k in range(chart.N):
                V.entry(i, j).dvalue(pt, k)
    frame = [[f.value(pt) for f in row] for row in chart.coframe.entries]
    assert inverted.count(repr(frame)) == 1
    assert len(inverted) == len(set(inverted)) >= 2  # the base block as well
    assert (id(V), "_partials") in computed
    assert len(computed) == len(set(computed))


def test_decomp_reads_partials_of_a_large_lazy_product():
    """A base-field product above the eager cap stays lazy, and this case's
    d^A p reads the product's first partials: the run builds lazy products
    but no partial node, and reads no second partial."""
    from liecartan.suites import SuiteConfig, run_suite

    rep = run_suite(SuiteConfig(suite="ym-decomp", algebra="u1", n=4, cases=2,
                                seed=3136666209))
    assert rep["pass"] and rep["max_residual"] == 0
