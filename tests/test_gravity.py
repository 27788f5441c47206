"""Gravity model: the grav-el blocks (constrained EL system, source
families, the fundamental equation's transport, generalized tensors), the
d^A p decomposition, Bianchi rows, commutators and conservation."""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

import liecartan
from liecartan.algebra import build_algebra
from liecartan.charts import (Rng, antisym, coframe_from_algebra_form,
                              pi_form_from_coeffs)
from liecartan.connection import GroupMap, algebra_slot, maurer_cartan_form
from liecartan.forms import Form
from liecartan.gravity import (ChartInvariantError, GravityFields,
                               build_gravity_chart, certify_gravity_chart,
                               fields_from_chart, generalized_tensor_fields,
                               grav_bianchi_residuals,
                               grav_commutator_residuals,
                               grav_dAp_decomposition_residual,
                               grav_el_blocks, grav_el_residuals,
                               grav_T_conservation_residual, kappa_pi_block,
                               q_families, theta_ring_invert)
from liecartan.kappa import build_kappa, lambda_constant
from liecartan.scalars import Polynomial
from liecartan.suites import case_seed

# the number backend these tests run on, as ``--backend`` names it; the id
# of each test that takes it ends in that name
RATIONAL = pytest.mark.parametrize("backend", ["rational"])

SRC = Path(__file__).resolve().parent.parent / "src" / "liecartan"

# the blocks ``grav_el_blocks`` adds to r1, transport, scalar and q_zero_rows
NEW_BLOCKS = ("cross", "q_scalar", "roundtrip", "implicit_theta",
              "implicit_omega", "einstein_expansion")
TENSOR_BLOCKS = NEW_BLOCKS[2:]


def p03_chart(seed=42, **kw):
    sp = build_algebra("p_0(3)")
    kap = build_kappa("standard", sp)
    return sp, kap, build_gravity_chart(sp, kap, seed=seed, **kw)


def phi_fields(split, phi, coeffs, probe):
    """Phi-side fields with pi built from ``coeffs`` over the phi coframe."""
    pi = pi_form_from_coeffs(coeffs, coframe_from_algebra_form(phi, probe),
                             algebra_slot(split.ambient, dual=True))
    pi_at = antisym({key: f.value(probe) for key, f in coeffs.items()})
    return GravityFields(split, phi, pi, pi_at, probe)


def test_chart_certification():
    # building certifies; certifying the built chart again passes too
    for seed in (42, 43):
        sp, kap, chart = p03_chart(seed=seed)
        certify_gravity_chart(chart)


def test_certification_rejects_broken_invariants():
    from liecartan.charts import coframe_from_algebra_form
    from liecartan.connection import curvature

    for seed in (42, 43):
        sp, kap, chart = p03_chart(seed=seed)
        # inject a fiber-direction component into A: F gains sl/ll blocks
        N = chart.N
        bad = chart.A_form
        bad.add_term((sp.n,), (0,), Polynomial.constant(F(1), N))
        bad._finalize()
        chart.e_form = bad + chart.gm.right_log_derivative()
        chart.coframe = coframe_from_algebra_form(chart.e_form, chart.probe)
        chart.F_form = curvature(bad, chart.alg)
        with pytest.raises(ChartInvariantError, match="does not vanish"):
            certify_gravity_chart(chart)


@RATIONAL
def test_certification_rejects_fiber_dependent_ss_block(backend):
    # y_0 dx^0 ^ dx^1 in slot 0 vanishes at the probe (y = 0), so only the
    # frame derivative along the fiber sees it
    for seed in (42, 43):
        sp, kap, chart = p03_chart(seed=seed)
        y0 = Polynomial.coordinate(sp.n, chart.N)
        chart.F_form.add_term((0, 1), (0,), y0)
        chart.F_form._finalize()
        with pytest.raises(ChartInvariantError,
                           match=r"\(0,0,1\) varies along the fiber"):
            certify_gravity_chart(chart)


@RATIONAL
def test_certification_rejects_fiber_dependent_frame(backend):
    # F is unchanged, but the s frame now moves along the fiber, so the
    # frame coefficients of the s-s block do
    from liecartan.forms import Coframe

    for seed in (42, 43):
        sp, kap, chart = p03_chart(seed=seed)
        y0 = Polynomial.coordinate(sp.n, chart.N)
        entries = [row[:] for row in chart.coframe.entries]
        entries[0][0] = entries[0][0] + y0
        chart.coframe = Coframe(entries, chart.probe)
        with pytest.raises(ChartInvariantError, match="varies along the fiber"):
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
    gm = GroupMap(alg, eta)
    phi = maurer_cartan_form(gm)
    kap = build_kappa("standard", sp)
    fields = phi_fields(sp, phi, kappa_pi_block(sp, kap), probe)
    rep = grav_el_residuals(fields)
    assert rep["r1"] == 0
    # the defect reduces to d^phi pi alone: psi rows are zero by Phi = 0
    from liecartan.connection import Representation, cov_d

    dpi = cov_d(phi, fields.pi, (Representation.coadjoint(alg),))
    assert (rep["defect"] - dpi).max_abs(probe) == 0


def test_r1_vanishes_on_flat_certified_chart():
    for seed in (5, 6):
        sp, kap, chart = p03_chart(seed=seed, flat=True, linear_group=True)
        fields = fields_from_chart(chart)
        rep = grav_el_residuals(fields)
        assert rep["r1"] == 0


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
    fields = phi_fields(split, phi, kappa_pi_block(split, kap), probe)
    rep = grav_el_residuals(fields)
    assert rep["r1"] == 7


def test_el_residuals_on_chart_fields():
    for seed in (7, 8):
        sp, kap, chart = p03_chart(seed=seed)
        fields = fields_from_chart(chart)
        rep = grav_el_residuals(fields)
        assert rep["r1"] == 0       # F blocks vanish on certified charts


def test_psi_q_families():
    for seed in (9, 10):
        sp, kap, chart = p03_chart(seed=seed)
        rep = grav_el_blocks(chart)
        assert rep["transport"] == rep["scalar"] == 0
        assert rep["q_zero_rows"] == 0  # reductionQourbure: Q_l rows vanish


def test_psi_q_identity_group():
    for seed in (13, 14):
        sp, kap, chart = p03_chart(seed=seed, linear_group=True)
        # with eta = y the group is trivial on the probe slice; transport there
        # is the identity and Q equals Psi componentwise
        rep = grav_el_blocks(chart)
        assert rep["transport"] == rep["scalar"] == 0


def test_q_scalar_consistency():
    for seed in (15, 16):
        sp, kap, chart = p03_chart(seed=seed)
        assert grav_el_blocks(chart)["q_scalar"] == 0


def test_fundamental_equation_cross_consistency():
    for seed in (17, 18):
        sp, kap, chart = p03_chart(seed=seed)
        assert grav_el_blocks(chart)["cross"] == 0


def test_fundamental_equation_flat_chart():
    # flat p_0(3) chart: Theta = Omega = 0 and [s, s] = 0, so Q = 0 and
    # cross compares Ad*_g of the phi-side defect with d^A p itself
    for seed in (19, 20):
        sp, kap, chart = p03_chart(seed=seed, flat=True)
        q_mixed, q = q_families(chart)
        assert q == 0 and all(v == 0 for row in q_mixed for v in row)
        assert grav_el_blocks(chart)["cross"] == 0


@pytest.mark.parametrize("seed", [21, 22])
def test_decomposition_p03(seed):
    sp, kap, chart = p03_chart(seed=seed)
    assert grav_dAp_decomposition_residual(chart)["max"] == 0


def test_decomposition_degenerate_block():
    # p^{sl} = p^{ll} = 0 and A = 0: only the kappa-constant block remains
    sp, kap, chart = p03_chart(seed=23, flat=True)
    chart.p_coeffs = kappa_pi_block(sp, kap)
    assert grav_dAp_decomposition_residual(chart)["max"] == 0


def test_decomposition_p14_holst():
    sp = build_algebra("p_1(4)")
    kap = build_kappa("holst", sp, gamma=F(2))
    chart = build_gravity_chart(sp, kap, seed=25)
    assert grav_dAp_decomposition_residual(chart)["max"] == 0


def test_tensors_flat_chart():
    sp, kap, chart = p03_chart(seed=27, flat=True)
    rep = grav_el_blocks(chart)
    assert all(rep[name] == 0 for name in TENSOR_BLOCKS)
    tensors = generalized_tensor_fields(chart)
    for name in ("cartan", "einstein"):
        assert all(f.value(chart.probe) == 0 for f in tensors[name].values())


def test_tensors_roundtrip_and_lambda():
    sp = build_algebra("p_1(4)")
    kap = build_kappa("standard", sp)
    chart = build_gravity_chart(sp, kap, seed=29)
    rep = grav_el_blocks(chart)
    assert all(rep[name] == 0 for name in TENSOR_BLOCKS)
    # [t_a, t_b] = -k t_{ab} with k = 1 on p_1(4)
    assert lambda_constant("gravity", n=4, k=1, split=sp, kappa=kap) == 6


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
    chart = build_gravity_chart(sp, kap, seed=31)
    assert grav_bianchi_residuals(chart)["max"] == 0


def test_bianchi_flat_chart():
    sp, kap, chart = p03_chart(seed=33, flat=True)
    assert grav_bianchi_residuals(chart)["max"] == 0


def test_commutators():
    sp, kap, chart = p03_chart(seed=35)
    assert grav_commutator_residuals(chart, test_count=2)["max"] == 0


def test_commutators_flat():
    sp, kap, chart = p03_chart(seed=37, flat=True, linear_group=True)
    # flat chart with a linear group map: all frame fields commute
    assert grav_commutator_residuals(chart, test_count=1)["max"] == 0


def test_conservation_lemma_and_chain():
    sp, kap, chart = p03_chart(seed=39)
    rep = grav_T_conservation_residual(chart)
    assert rep["max_lemma"] == 0
    assert rep["max_chain"] == 0


def test_conservation_trivial_for_fiber_constant_dual():
    sp, kap, chart = p03_chart(seed=41, p_vars="x")
    rep = grav_T_conservation_residual(chart)
    assert all(v == 0 for v in rep["T"].values())
    assert rep["max_defect"] == 0


def test_conservation_synthetic_constant_T():
    # flat chart, p^{s l}-block linear along the fiber: T is proportional to
    # the identity and every coupling row vanishes
    sp, kap, chart = p03_chart(seed=43, flat=True, linear_group=True,
                               p_vars="x")
    N = chart.N
    n, r = sp.n, sp.r
    tau = F(5)
    for pos_a, a in enumerate(sp.s_indices):
        for pos_l, l in enumerate(sp.l_indices):
            y = Polynomial.coordinate(n + pos_l, N)
            key = (a, a, l) if a < l else (a, l, a)
            chart.p_coeffs[key] = y.scale(tau / r)
    rep = grav_T_conservation_residual(chart)
    for a in sp.s_indices:
        assert rep["T"][(a, a)] == tau
    assert rep["max_defect"] == 0
    assert rep["max_lemma"] == 0


def test_conservation_chain_p14():
    sp = build_algebra("p_1(4)")
    kap = build_kappa("standard", sp)
    chart = build_gravity_chart(sp, kap, seed=45)
    rep = grav_T_conservation_residual(chart)
    assert rep["max_lemma"] == 0
    assert rep["max_chain"] == 0


def test_abelian_toy_el_residuals():
    # all-zero brackets: r1 = 0 and the defect is literally d pi
    from liecartan.algebra import LieAlgebra, SplitAlgebra

    N = 3
    alg = LieAlgebra("abelian3", ["a0", "a1", "a2"], {})
    split = SplitAlgebra(alg, (0, 1), (2,), b_diag=[F(1), F(1)], k_diag=[F(1)])
    slot = algebra_slot(alg)
    phi = Form(N, 1, (slot,))
    for A in range(N):
        phi.add_term((A,), (A,), Polynomial.constant(F(1), N))
    phi._finalize()
    pi = {(2, 0, 1): Polynomial.constant(F(1), N),
          (0, 0, 2): Polynomial.coordinate(0, N)}
    from liecartan.forms import exterior_d

    for probe in [(F(0),) * N, (F(1), F(-1), F(2))]:
        fields = phi_fields(split, phi, pi, probe)
        rep = grav_el_residuals(fields)
        assert rep["r1"] == 0
        assert (rep["defect"] - exterior_d(fields.pi)).max_abs(probe) == 0


def test_exact_term_identity():
    # d(1/2 p^{ll} e^{(N-2)}_{ll}) = (d_l p^{ll} + 1/2 c p^{ll}) e^{(N-1)}_l
    from liecartan.charts import frame_partial_field, pi_form_from_coeffs
    from liecartan.fields import f_scale
    from liecartan.forms import Form as FormCls, exterior_d

    sp, kap, chart = p03_chart(seed=47)
    alg, N = chart.alg, chart.N
    minors = chart.coframe.minors()
    pt = chart.probe
    p_coeffs = chart.p_coeffs
    dual = algebra_slot(alg, dual=True)
    ll_only = {key: fld for key, fld in p_coeffs.items()
               if key[1] in sp.l_indices and key[2] in sp.l_indices}
    lhs = exterior_d(pi_form_from_coeffs(ll_only, chart.coframe, dual))
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
                    .value(pt)
            for l1 in sp.l_indices:
                for l2 in sp.l_indices:
                    cv = alg.c(L, l1, l2)
                    if cv != 0:
                        key = (I, l1, l2) if l1 < l2 else (I, l2, l1)
                        fld = ll_only.get(key)
                        if fld is None:
                            continue
                        sgn = 1 if l1 < l2 else -1
                        acc += cv * sgn * fld.value(pt) / 2
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
    from liecartan.charts import pi_form_from_coeffs
    import liecartan.linalg as la

    sp, kap, chart = p03_chart(seed=49)
    fields = fields_from_chart(chart)
    alg, N = chart.alg, chart.N
    pt = chart.probe
    coframe = fields.coframe()
    dual = algebra_slot(alg, dual=True)
    Phi = curvature(fields.phi, alg)
    pi_at = pi_values_from_chart(chart)
    pi_form = pi_form_from_coeffs(
        {k: Polynomial.constant(v, N) for k, v in pi_at.items() if k[1] < k[2]},
        coframe, dual)

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

    pi_map = {(K, i): float(fld.value(pt))
              for K, (i,), fld in pi_form.terms()}
    phi_map = {(K, i): float(fld.value(pt))
               for K, (i,), fld in Phi.terms()}
    plain = wedge_scalar(pi_map, phi_map)

    ad, ad_dual = exp_adjoint(alg, [0.0] * sp.n + [0.3, -0.2, 0.5])
    ad_inv = la.transpose(ad_dual)
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


@RATIONAL
def test_sign_reaches_every_new_grav_el_block(backend):
    # the chart of the QUICK grav-el run (case 0 at master seed 42): each
    # new block alone fails under the flipped term, and passes without it
    sp, kap, chart = p03_chart(seed=case_seed(42, 0))
    flipped = grav_el_blocks(chart, control_sign=-1)
    assert all(flipped[name] >= 1e-3 for name in NEW_BLOCKS), flipped
    plain = grav_el_blocks(chart)
    assert all(plain[name] <= 1e-9 for name in NEW_BLOCKS), plain


def _top_level_functions_unreached(module: Path):
    """Top-level functions of ``module`` that no code in the package names
    outside their own body, and that the package does not export."""
    trees = {path: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    defs = [node for node in trees[module].body if isinstance(node, ast.FunctionDef)
            and node.name not in liecartan.__all__]
    unreached = []
    for fn in defs:
        own = {id(node) for node in ast.walk(fn)}
        named = any(
            (isinstance(node, ast.Name) and node.id == fn.name)
            or (isinstance(node, ast.Attribute) and node.attr == fn.name)
            for tree in trees.values() for node in ast.walk(tree)
            if id(node) not in own)
        if not named:
            unreached.append(fn.name)
    return unreached


def test_every_gravity_function_is_reached_from_the_package():
    # a name in an import alone does not count: it must be used
    assert _top_level_functions_unreached(SRC / "gravity.py") == []


# ym and kk each keep one function that only the tests reach
@pytest.mark.parametrize("module", ["algebra", "algebra_io", "charts", "cli",
                                    "connection", "fields", "forms", "kappa",
                                    "linalg", "scalars", "suites"])
def test_every_function_is_reached_from_the_package(module):
    assert _top_level_functions_unreached(SRC / f"{module}.py") == []


def test_no_product_is_scaled_after_it_is_built():
    # f_mul(a, b, c) builds the scaled product as one node; f_scale of a
    # fresh f_mul would build a product node only to copy it
    found = [f"{path.name}:{node.lineno}"
             for path in SRC.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "f_scale"
             and node.args and isinstance(node.args[0], ast.Call)
             and getattr(node.args[0].func, "id", None) == "f_mul"]
    assert found == []


def test_grav_el_builds_the_p_form_once(monkeypatch):
    # fields_from_chart and dAp read the one p form of the chart.at() copy
    from liecartan import charts, gravity

    calls = []
    build = charts.pi_form_from_coeffs
    for module in (charts, gravity):
        monkeypatch.setattr(module, "pi_form_from_coeffs",
                            lambda *args: calls.append(args) or build(*args),
                            raising=False)
    sp, kap, chart = p03_chart(seed=case_seed(42, 0))
    grav_el_blocks(chart)
    assert len(calls) == 1
