"""Kaluza-Klein model: Euler-Lagrange residuals, the explicit Levi-Civita
connection on the trivialized chart, Ricci/Einstein block identities, the
Einstein-Yang-Mills reduction and the d^A p decomposition.

The ambient algebra is u = s (+) g with s central and h = b (+) k an
Ad-invariant block metric.  Decomposition charts keep the base coframe
flat (theta^s = dx) — the setting in which the formula is derived — while
the curvature suite also runs on curved 2-D bases through the base
Levi-Civita block.

``_einstein_blocks`` contracts a Riemann tensor to Ricci, scalar and
Einstein, for the chart metric and the base metric alike; ``_f_at_probe``
reads F at the probe and ``_f_divergence`` its covariant divergence, for
the curvature report and the EYM residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .algebra import SplitAlgebra, killing_form
from .charts import (GaugeChart, antisym, assemble_chart, base_lc_gamma_fields,
                     coframe_from_algebra_form, frame_coeffs_1form,
                     frame_partial_field, g_row_divergence)
from .connection import Representation, algebra_slot, beside_d, cov_d, curvature
from .fields import f_is_zero, f_mul, f_scale, f_zero
from .forms import Form, Slot, cominor_rows, contracted_wedge, decompose, exterior_d
from .scalars import _add, _mul, _sub

# exact factors: an int value divided by 2 or 4 would become a float
HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)


@dataclass
class KKFields:
    """Unconstrained fields (theta^u, phi^l, pi_u) with pi_u^{ss} = 0."""

    split: SplitAlgebra
    theta: Form                      # u-valued coframe candidate
    phi: Form                        # so(u,h)-valued: slots (u, u*)
    pi_coeffs: Dict[Tuple[int, int, int], object]
    lambda0: object
    probe: Tuple

    def __post_init__(self):
        for (i, A, B) in self.pi_coeffs:
            if A in self.split.s_indices and B in self.split.s_indices:
                raise ValueError("the constraint pi_u^{ss} = 0 is violated")


def check_h_invariance(split: SplitAlgebra) -> object:
    """Residual of ad-invariance of h = b (+) k under the g block."""
    alg = split.ambient
    h = split.h_diag()
    worst = 0
    for i in split.l_indices:
        for a in range(alg.dim):
            for b in range(alg.dim):
                acc = alg.c(b, i, a) * h[b] + alg.c(a, i, b) * h[a]
                worst = max(worst, abs(acc))
    return worst


def so_curvature(phi: Form) -> Form:
    """Phi = d phi + phi ^ phi for a matrix-valued 1-form."""
    p, = beside_d(phi, phi)
    return exterior_d(phi) + contracted_wedge(p, p, [(1, 0)])


def kk_el_residuals(fields: KKFields) -> dict:
    """Frobenius blocks, the torsion-free defect, and the Einstein equation.

    einstein = d^theta pi + 1/2 theta^(N-3) ^ Phi^{uu} - Lambda0 theta^(N-1)
    - Theta-source, evaluated at the probe.
    """
    split = fields.split
    alg = split.ambient
    N = alg.dim
    s_idx, g_idx = split.s_indices, split.l_indices
    h = split.h_diag()
    pt = fields.probe
    coframe = coframe_from_algebra_form(fields.theta, pt)
    minors = coframe.minors()
    dual = algebra_slot(alg, dual=True)

    theta_curv = curvature(fields.theta, alg)
    # torsion-free defect d^phi theta
    torsion_defect = (exterior_d(fields.theta)
                      + contracted_wedge(fields.phi, fields.theta, [(1, 0)]))

    pi = cominor_rows(minors, fields.pi_coeffs, (dual,), 2)
    coad = Representation.coadjoint(alg)
    dpi = cov_d(fields.theta, pi, (coad,))

    Phi = so_curvature(fields.phi)
    # Phi^{uu}: raise the second slot with h
    uslot = algebra_slot(alg)
    Phi_up = Form(N, 2, (uslot, uslot))
    for K, (A, B), fld in Phi.terms():
        Phi_up.add_term(K, (A, B), f_scale(fld, 1 / h[B]))
    Phi_up._finalize()
    m3 = minors.minor_form(3, uslot)
    phi_term = contracted_wedge(m3, Phi_up, [(0, 0), (1, 1)]).scale(HALF)

    lam_term = cominor_rows(minors, {(U, U): fields.lambda0 for U in range(N)},
                            (dual,), 1)

    tc = decompose(theta_curv, coframe, "by-coframe")
    fr = 0
    for U in range(N):
        for A in range(N):
            for B in range(N):
                if A in s_idx and B in s_idx:
                    continue
                fr = max(fr, abs(tc[(U,)][A][B]))
    tdef = torsion_defect.max_abs(pt)
    # source term Theta^{u}_{U s} pi_u^{g s} e^{(N-1)}_g
    pi_at = antisym({key: f.value(pt) for key, f in fields.pi_coeffs.items()})
    src_rows = {}
    for U in range(N):
        for gg in g_idx:
            acc = 0
            for ub in range(N):
                for sb in s_idx:
                    acc += tc[(ub,)][U][sb] * pi_at.get((ub, gg, sb), 0)
            src_rows[(U, gg)] = acc
    src = cominor_rows(minors, src_rows, (dual,), 1)
    einstein = dpi + phi_term - lam_term - src
    ev = einstein.max_abs(pt)
    return {"frobenius": fr, "torsion_free": tdef, "einstein": ev,
            "max": max(0, fr, tdef, ev)}


# ---------------------------------------------------------------------------
# trivialized KK charts
# ---------------------------------------------------------------------------

def build_kk_chart(split: SplitAlgebra, n_base: int, seed: int,
                   constant_F: bool = False,
                   curved_base: bool = False) -> GaugeChart:
    """Chart e = beta(x) + A^g(x) + dg g^{-1} with p^{ss} = 0.

    The base coframe is flat by default (the setting of the decomposition
    formula); curved_base perturbs it for the curvature-identity suite.
    constant_F uses potentials A^g = -c x^l dx^k with constant F.  The
    suites check that the block metric is ad-invariant before a case runs.
    """
    chart = assemble_chart(split, n_base, seed, curved_base=curved_base,
                           l_rows="constant" if constant_F else "random")
    rng = chart.rng
    N = chart.N
    s_idx, g_idx = split.s_indices, split.l_indices
    p_coeffs: Dict[Tuple[int, int, int], object] = {}
    for i in g_idx:
        for a in s_idx:
            for j in g_idx:
                key = (i, a, j) if a < j else (i, j, a)
                p_coeffs[key] = rng.poly(N, deg=2, terms=2)
        for j1 in g_idx:
            for j2 in g_idx:
                if j1 < j2:
                    p_coeffs[(i, j1, j2)] = rng.poly(N, deg=2, terms=2)
    chart.p_coeffs = p_coeffs
    return chart


def kk_lc_connection(chart: GaugeChart,
                     gamma_fields=None, control_sign: int = 1) -> Tuple[Form, dict]:
    """The Levi-Civita matrix of the trivialized chart and its residuals.

    Blocks: w^s_s = gamma - 1/2 F_g^s_s e^g, w^s_g = 1/2 F_{gs}^s e^s,
    w^g_s = 1/2 F^g_{ss'} e^s', w^g_g = 1/2 c^g_{gg'} (e^g' - 2 A^g').
    Returns (w, report) with torsion and metric residuals at the probe.
    """
    if gamma_fields is None and chart.curved_base:
        gamma_fields = base_lc_gamma_fields(chart)
    split = chart.split
    alg = chart.alg
    N = chart.N
    s_idx, g_idx = split.s_indices, split.l_indices
    h = split.h_diag()
    F_coeffs = chart.F_coeffs
    uslot = algebra_slot(alg)
    omega = Form(N, 1, (uslot, Slot(alg.name, alg.dim, True)))

    e_one = {A: chart.e_form.component(A) for A in range(N)}

    def fco(i, A, B):
        return F_coeffs.get((i, A, B))

    for a in s_idx:
        for b in s_idx:
            parts = []
            for i in g_idx:
                fld = fco(i, a, b)
                if fld is None:
                    continue
                gi = g_idx.index(i)
                scale = -HALF * split.k_diag[gi] / split.b_diag[s_idx.index(a)]
                parts.append((i, f_scale(fld, scale)))
            for i, fld in parts:
                for (k,), _, ef in e_one[i].terms():
                    omega.add_term((k,), (a, b), f_mul(fld, ef))
            if gamma_fields is not None:
                g_ab = gamma_fields[s_idx.index(a)][s_idx.index(b)]
                for c in s_idx:
                    fld = g_ab[s_idx.index(c)]
                    if f_is_zero(fld):
                        continue
                    for (k,), _, ef in e_one[c].terms():
                        omega.add_term((k,), (a, b), f_mul(fld, ef))
    for a in s_idx:
        for j in g_idx:
            gj = g_idx.index(j)
            for b in s_idx:
                fld = fco(j, b, a)
                if fld is None:
                    continue
                scale = HALF * split.k_diag[gj] / split.b_diag[s_idx.index(a)]
                for (k,), _, ef in e_one[b].terms():
                    omega.add_term((k,), (a, j), f_mul(f_scale(fld, scale), ef))
    for i in g_idx:
        for b in s_idx:
            for c in s_idx:
                fld = fco(i, b, c)
                if fld is None:
                    continue
                for (k,), _, ef in e_one[c].terms():
                    omega.add_term((k,), (i, b),
                                   f_mul(f_scale(fld, HALF * control_sign), ef))
    for i in g_idx:
        for j in g_idx:
            for m in g_idx:
                cv = alg.c(i, j, m)
                if cv == 0:
                    continue
                em = e_one[m] - chart.A_form.component(m).scale(2)
                for (k,), _, ef in em.terms():
                    omega.add_term((k,), (i, j), f_scale(ef, HALF * cv))
    omega._finalize()

    pt = chart.probe
    tdef = exterior_d(chart.e_form) + contracted_wedge(omega, chart.e_form, [(1, 0)])
    t = tdef.max_abs(pt)
    m = 0
    for A in range(N):
        for B in range(N):
            v = 0
            for k in range(N):
                wab = omega.get((k,), (A, B)).value(pt) / h[B]
                wba = omega.get((k,), (B, A)).value(pt) / h[A]
                v = max(v, abs(wab + wba))
            m = max(m, v)
    return omega, {"torsion": t, "metric": m, "max": max(0, t, m)}


def _einstein_blocks(decomp, idx, metric):
    """Riemann R^{AB}_{CD} (second index raised), Ricci, scalar and Einstein
    tensors from the by-coframe curvature coefficients ``decomp`` on the
    indices ``idx``; ``metric`` is the diagonal metric by position in
    ``idx``, and Ricci and Einstein are indexed by position too."""
    pos = {A: p for p, A in enumerate(idx)}
    R = {}
    for (A, B), mat in decomp.items():
        if A not in pos or B not in pos:
            continue
        for C in idx:
            for D in idx:
                v = mat[C][D]
                if v != 0:
                    R[(A, B, C, D)] = v / metric[pos[B]]
    ric = [[sum(R.get((A, B, C, B), 0) for B in idx) for C in idx] for A in idx]
    m = len(idx)
    scal = sum(ric[i][i] for i in range(m))
    # E_A^B = Ric_A^B - 1/2 R delta with Ric_A^B = h_A Ric^A_B / h_B
    einstein = [[metric[i] * ric[i][j] / metric[j] - (scal * HALF if i == j else 0)
                 for j in range(m)] for i in range(m)]
    return R, ric, scal, einstein


def riemann_blocks(chart: GaugeChart, omega: Form) -> dict:
    """Riemann, Ricci, scalar and Einstein tensors of the chart metric."""
    oc = decompose(so_curvature(omega), chart.coframe, "by-coframe")
    R, ric, scal, einstein = _einstein_blocks(oc, range(chart.N),
                                              chart.split.h_diag())
    return {"riemann": R, "ricci": ric, "scalar": scal, "einstein": einstein}


def base_curvature_blocks(chart: GaugeChart, gamma_fields):
    """Ricci scalar and Einstein tensor of the base connection gamma."""
    split = chart.split
    n = chart.n_base
    N = chart.N
    e_one = {c: chart.e_form.component(c) for c in split.s_indices}
    gamma_form = Form(N, 1, (algebra_slot(chart.alg),
                             Slot(chart.alg.name, chart.alg.dim, True)))
    for a in range(n):
        for bb in range(n):
            for c in range(n):
                fld = gamma_fields[a][bb][c]
                if f_is_zero(fld):
                    continue
                for (k,), _, ef in e_one[split.s_indices[c]].terms():
                    gamma_form.add_term((k,), (split.s_indices[a],
                                               split.s_indices[bb]),
                                        f_mul(fld, ef))
    gamma_form._finalize()
    gc = decompose(so_curvature(gamma_form), chart.coframe, "by-coframe")
    _, _, scal, einstein = _einstein_blocks(gc, split.s_indices, split.b_diag)
    return {"scalar": scal, "einstein": einstein}


def kk_curvature_report(chart: GaugeChart, gamma_scalar=0,
                        base_einstein=None, control_sign: int = 1) -> dict:
    """Identity residuals for the scalar curvature and Einstein blocks.

    Checks R(h) = R(gamma) - 1/2 |F|^2 - 1/2 <B, k>, the ss-block identity,
    the mixed block E(h)_g^s = 1/2 covariant divergence of F, and the gg
    block formula, at the probe.
    """
    split = chart.split
    alg = chart.alg
    s_idx, g_idx = split.s_indices, split.l_indices
    k = split.k_diag
    pt = chart.probe
    gamma_fields = base_lc_gamma_fields(chart) if chart.curved_base else None
    omega, lc_report = kk_lc_connection(chart, gamma_fields=gamma_fields)
    A_frame = frame_coeffs_1form(chart.A_form, chart.coframe)
    bk = _bk_pairing(split, killing_form(alg))

    if gamma_fields is not None:
        base = base_curvature_blocks(chart, gamma_fields)
        gamma_scalar = base["scalar"]
        base_einstein = base["einstein"]
    blocks = riemann_blocks(chart, omega)
    f_low, f_up, norm_f = _f_at_probe(chart)
    a_at = {key: f.value(pt) for key, f in A_frame.items()}
    res_scalar = blocks["scalar"] \
        - (gamma_scalar - control_sign * norm_f * HALF - bk * HALF)

    E = blocks["einstein"]
    base_E = base_einstein if base_einstein is not None else \
        [[0] * len(s_idx) for _ in s_idx]
    r_ss = 0
    for a2 in s_idx:
        for b2 in s_idx:
            quad = sum(f_up(i, b2, c) * f_low(i, a2, c)
                       for i in g_idx for c in s_idx)
            rhs = (base_E[s_idx.index(a2)][s_idx.index(b2)]
                   - (quad - (norm_f * HALF if a2 == b2 else 0)) * HALF
                   + (bk * QUARTER if a2 == b2 else 0))
            r_ss = max(r_ss, abs(E[a2][b2] - rhs))
    # mixed block: E(h)_g^s = 1/2 (d_s F_g^{a s} + gamma-terms - c A F)
    n = len(s_idx)
    g_at = {} if gamma_fields is None else \
        {(ia, ib, ic): gamma_fields[ia][ib][ic].value(pt)
         for ia in range(n) for ib in range(n) for ic in range(n)}
    r_gs = 0
    for i in g_idx:
        for a2 in s_idx:
            div = _f_divergence(chart, f_up, a_at, i, a2, g_at)
            r_gs = max(r_gs, abs(E[i][a2] - div * HALF))
    # gg block: E_g^g = 1/4 F_g F^g - 1/4 c c k - 1/2 R delta
    r_gg = 0
    for i in g_idx:
        for j in g_idx:
            casimir = 0
            for g1 in g_idx:
                for g2 in g_idx:
                    c1 = alg.c(g1, i, g2)
                    c2 = alg.c(j, g1, g2)
                    if c1 != 0 and c2 != 0:
                        casimir += c1 * c2 / k[g_idx.index(g2)]
            # F_i^{ss'} F^j_{ss'} with i lowered and j raised by the metrics
            quad = sum(f_up(i, a2, b2) * f_low(j, a2, b2)
                       for a2 in s_idx for b2 in s_idx)
            rhs = quad * QUARTER \
                - (casimir * QUARTER if casimir else 0) \
                - (blocks["scalar"] * HALF if i == j else 0)
            r_gg = max(r_gg, abs(E[i][j] - rhs))
    return {"lc": lc_report, "scalar": abs(res_scalar), "block_ss": r_ss,
            "block_gs": r_gs, "block_gg": r_gg,
            "max": max(lc_report["max"], abs(res_scalar), r_ss, r_gs, r_gg)}


def _f_at_probe(chart: GaugeChart):
    """F at the probe: ``f_low(i, a, b)`` = F^i_{ab}, ``f_up(i, a, b)`` =
    F_i^{ab} with i lowered by k and a, b raised by b, and |F|^2."""
    split = chart.split
    s_idx, g_idx = split.s_indices, split.l_indices
    b, k = split.b_diag, split.k_diag
    f_at = {key: f.value(chart.probe) for key, f in chart.F_coeffs.items()}

    def f_low(i, a2, b2):
        return f_at.get((i, a2, b2), 0)

    def f_up(i, a2, b2):
        gi = g_idx.index(i)
        ia, ib = s_idx.index(a2), s_idx.index(b2)
        return k[gi] * f_low(i, a2, b2) / (b[ia] * b[ib])

    norm_f = sum(f_low(i, a2, b2) * f_up(i, a2, b2)
                 for i in g_idx for a2 in s_idx for b2 in s_idx) * HALF
    return f_low, f_up, norm_f


def _f_divergence(chart: GaugeChart, f_up, a_at, i, a2, g_at=None):
    """The A-covariant divergence X_s F_i^{a s} summed over s, at the probe;
    ``g_at`` adds the base Levi-Civita terms gamma on both upper indices."""
    split = chart.split
    alg = chart.alg
    s_idx, g_idx = split.s_indices, split.l_indices
    b, k = split.b_diag, split.k_diag
    pt = chart.probe
    div = 0
    for sb in s_idx:
        fld = chart.F_coeffs.get((i, a2, sb))
        up = f_zero(chart.N) if fld is None else \
            f_scale(fld, k[g_idx.index(i)] / (b[s_idx.index(a2)] * b[s_idx.index(sb)]))
        div = _add(div, frame_partial_field(chart.coframe, up, sb).value(pt))
        for j in g_idx:
            for m in g_idx:
                cv = alg.c(j, m, i)
                if cv != 0:
                    div = _sub(div, _mul(_mul(cv, a_at.get((m, sb), 0)),
                                         f_up(j, a2, sb)))
        if g_at:
            ia, ib = s_idx.index(a2), s_idx.index(sb)
            for s1 in s_idx:
                i1 = s_idx.index(s1)
                div = _add(div, _mul(f_up(i, s1, sb), g_at.get((ia, i1, ib), 0)))
                div = _add(div, _mul(g_at.get((ib, i1, ib), 0), f_up(i, a2, s1)))
    return div


def _bk_pairing(split: SplitAlgebra, Bkill):
    """<B, k> = 1/2 B_{gg} k^{gg} restricted to the g block."""
    acc = 0
    for pos, i in enumerate(split.l_indices):
        acc += Bkill[i][i] / split.k_diag[pos]
    return acc * HALF


def kk_eym_residuals(chart: GaugeChart, lam, base_einstein=None) -> dict:
    """Residual of the reduced Einstein-Yang-Mills system on the base, at
    the probe.

    The caller supplies the intended solution data; for the flat vacuum with
    lam = 0 the residual vanishes, and a pure lam isolates lam * delta.
    """
    split = chart.split
    s_idx, g_idx = split.s_indices, split.l_indices
    pt = chart.probe
    A_frame = frame_coeffs_1form(chart.A_form, chart.coframe)
    f_low, f_up, norm_f = _f_at_probe(chart)
    a_at = {key: f.value(pt) for key, f in A_frame.items()}
    base_E = base_einstein if base_einstein is not None else \
        [[0] * len(s_idx) for _ in s_idx]
    r_e = 0
    for a2 in s_idx:
        for b2 in s_idx:
            lhs = base_E[s_idx.index(a2)][s_idx.index(b2)] + (lam if a2 == b2 else 0)
            rhs = sum(f_up(i, b2, c) * f_low(i, a2, c)
                      for i in g_idx for c in s_idx) * HALF \
                - (norm_f * QUARTER if a2 == b2 else 0)
            r_e = max(r_e, abs(lhs - rhs))
    r_ym = 0
    for i in g_idx:
        for a2 in s_idx:
            r_ym = max(r_ym, abs(_f_divergence(chart, f_up, a_at, i, a2)))
    return {"einstein": r_e, "yang_mills": r_ym, "max": max(0, r_e, r_ym)}


def kk_dAp_identity_residual(chart: GaugeChart, control_sign: int = 1) -> dict:
    """Direct d^A p_u against the closed-form rows (p^{ss} = 0 case) at the
    probe."""
    split = chart.split
    alg = chart.alg
    s_idx, g_idx = split.s_indices, split.l_indices
    dual = algebra_slot(alg, dual=True)
    pt = chart.probe
    A_frame = frame_coeffs_1form(chart.A_form, chart.coframe)

    lhs, minors = chart.at().dAp()
    a_at = {key: f.value(pt) for key, f in A_frame.items()}
    pv, dpv = chart.p_tables()
    rows: Dict[Tuple[int, int], object] = {}
    for i in g_idx:
        for a in s_idx:
            rows[(i, a)] = sum(dpv[i, a, gg, gg] for gg in g_idx)
        for gup in g_idx:
            acc = g_row_divergence(chart, a_at, pv, dpv, i, gup)
            for g1 in g_idx:
                acc += dpv[i, gup, g1, g1]
            for g1 in g_idx:
                for g2 in g_idx:
                    cv = alg.c(gup, g1, g2)
                    if cv:
                        acc += control_sign * cv * pv[i, g1, g2] * HALF
            rows[(i, gup)] = acc
    rhs = cominor_rows(minors, rows, (dual,), 1)
    res = (lhs - rhs).max_abs(pt)
    return {"max": max(0, abs(res)), "rows": rows}
