"""Kaluza-Klein model: Euler-Lagrange residuals, the explicit Levi-Civita
connection on the trivialized chart, Ricci/Einstein block identities, the
Einstein-Yang-Mills reduction and the d^A p decomposition.

The ambient algebra is u = s (+) g with s central and h = b (+) k an
Ad-invariant block metric.  Decomposition charts keep the base coframe
flat (theta^s = dx) — the setting in which the formula is derived — while
the curvature suite also runs on curved 2-D bases through the base
Levi-Civita block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .algebra import SplitAlgebra, killing_form
from .charts import (GaugeChart, antisym, assemble_chart, base_lc_gamma_fields,
                     coframe_from_algebra_form, frame_coeffs_1form,
                     frame_partial_field)
from .connection import Representation, algebra_slot, cov_d, curvature
from .fields import f_is_zero, f_mul, f_scale, f_zero
from .forms import Form, Slot, cominor_rows, contracted_wedge, decompose, exterior_d
from .ym import pi_form_from_coeffs


@dataclass
class KKFields:
    """Unconstrained fields (theta^u, phi^l, pi_u) with pi_u^{ss} = 0."""

    split: SplitAlgebra
    theta: Form                      # u-valued coframe candidate
    phi: Form                        # so(u,h)-valued: slots (u, u*)
    pi_coeffs: Dict[Tuple[int, int, int], object]
    lambda0: object
    probes: List[Tuple]
    exact: bool = True

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


def matrix_slot_wedge(phi: Form, other: Form) -> Form:
    """(phi ^ other) acting through the matrix slot pair (u, u*)."""
    return contracted_wedge(phi, other, [(1, 0)])


def so_curvature(phi: Form) -> Form:
    """Phi = d phi + phi ^ phi for a matrix-valued 1-form."""
    return exterior_d(phi) + contracted_wedge(phi, phi, [(1, 0)])


def kk_el_residuals(fields: KKFields) -> dict:
    """Frobenius blocks, the torsion-free defect, and the Einstein equation.

    einstein = d^theta pi + 1/2 theta^(N-3) ^ Phi^{uu} - Lambda0 theta^(N-1)
    - Theta-source, evaluated at the probe points.
    """
    split = fields.split
    alg = split.ambient
    N = alg.dim
    s_idx, g_idx = split.s_indices, split.l_indices
    h = split.h_diag()
    coframe = coframe_from_algebra_form(fields.theta, N, fields.probes, fields.exact)
    minors = coframe.minors()
    dual = algebra_slot(alg, dual=True)

    theta_curv = curvature(fields.theta, alg)
    # torsion-free defect d^phi theta
    torsion_defect = exterior_d(fields.theta) + matrix_slot_wedge(fields.phi, fields.theta)

    pi = pi_form_from_coeffs(fields.pi_coeffs, coframe, N, dual)
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
    half = Fraction(1, 2)
    phi_term = contracted_wedge(m3, Phi_up, [(0, 0), (1, 1)]).scale(half)

    lam_term = cominor_rows(minors, {(U, U): fields.lambda0 for U in range(N)}, dual)

    report = {"frobenius": {}, "torsion_free": {}, "einstein": {}, "max": 0}
    worst = 0
    for p in fields.probes:
        pt = tuple(p)
        tc = decompose(theta_curv, coframe, "by-coframe", pt, fields.exact)
        fr = 0
        for U in range(N):
            for A in range(N):
                for B in range(N):
                    if A in s_idx and B in s_idx:
                        continue
                    fr = max(fr, abs(tc[(U,)][A][B]))
        report["frobenius"][pt] = fr
        tdef = torsion_defect.max_abs(pt)
        report["torsion_free"][pt] = tdef
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
        src = cominor_rows(minors, src_rows, dual)
        einstein = dpi + phi_term - lam_term - src
        ev = einstein.max_abs(pt)
        report["einstein"][pt] = ev
        worst = max(worst, fr, tdef, ev)
    report["max"] = worst
    return report


# ---------------------------------------------------------------------------
# trivialized KK charts
# ---------------------------------------------------------------------------

def build_kk_chart(split: SplitAlgebra, n_base: int, seed: int,
                   exact: bool = True, probe_count: int = 2,
                   constant_F: bool = False,
                   curved_base: bool = False) -> GaugeChart:
    """Chart e = beta(x) + A^g(x) + dg g^{-1} with p^{ss} = 0.

    The base coframe is flat by default (the setting of the decomposition
    formula); curved_base perturbs it for the curvature-identity suite.
    constant_F uses potentials A^g = -c x^l dx^k with constant F.
    """
    inv = check_h_invariance(split)
    if inv != 0:
        raise ValueError("the block metric is not ad-invariant")
    chart = assemble_chart(split, n_base, seed, probe_count=probe_count,
                           exact=exact, curved_base=curved_base,
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
    Returns (w, report) with torsion and metric residuals at the probes.
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
    half = Fraction(1, 2)

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
                scale = -half * split.k_diag[gi] / split.b_diag[s_idx.index(a)]
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
                scale = half * split.k_diag[gj] / split.b_diag[s_idx.index(a)]
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
                                   f_mul(f_scale(fld, half * control_sign), ef))
    for i in g_idx:
        for j in g_idx:
            for m in g_idx:
                cv = alg.c(i, j, m)
                if cv == 0:
                    continue
                em = e_one[m] - chart.A_form.component(m).scale(2)
                for (k,), _, ef in em.terms():
                    omega.add_term((k,), (i, j), f_scale(ef, half * cv))
    omega._finalize()

    report = {"torsion": {}, "metric": {}, "max": 0}
    tdef = exterior_d(chart.e_form) + matrix_slot_wedge(omega, chart.e_form)
    worst = 0
    for p in chart.probes:
        pt = tuple(p)
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
        report["torsion"][pt] = t
        report["metric"][pt] = m
        worst = max(worst, t, m)
    report["max"] = worst
    return omega, report


def riemann_blocks(chart: GaugeChart, omega: Form, point) -> dict:
    """Riemann, Ricci, scalar and Einstein tensors of the chart metric."""
    alg = chart.alg
    N = chart.N
    h = chart.split.h_diag()
    Om = so_curvature(omega)
    oc = decompose(Om, chart.coframe, "by-coframe", point, chart.exact)
    # R^{AB}_{CD} with the second index raised
    R = {}
    for (A, B), mat in oc.items():
        for C in range(N):
            for D in range(N):
                v = mat[C][D]
                if v != 0:
                    R[(A, B, C, D)] = v / h[B]
    ric = [[sum(R.get((A, B, C, B), 0) for B in range(N)) for C in range(N)]
           for A in range(N)]
    scal = sum(ric[A][A] for A in range(N))
    # E_A^B = Ric_A^B - 1/2 R delta with Ric_A^B = h_A Ric^A_B / h_B
    einstein = [[h[A] * ric[A][B] / h[B] - (scal / 2 if A == B else 0)
                 for B in range(N)] for A in range(N)]
    return {"riemann": R, "ricci": ric, "scalar": scal, "einstein": einstein}


def base_curvature_blocks(chart: GaugeChart, gamma_fields, point):
    """Ricci scalar and Einstein tensor of the base connection gamma."""
    split = chart.split
    n = chart.n_base
    N = chart.N
    b = split.b_diag
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
    Gam = so_curvature(gamma_form)
    gc = decompose(Gam, chart.coframe, "by-coframe", point, chart.exact)
    s_idx = split.s_indices
    R = {}
    for (A, B), mat in gc.items():
        if A not in s_idx or B not in s_idx:
            continue
        for C in s_idx:
            for D in s_idx:
                v = mat[C][D]
                if v != 0:
                    R[(A, B, C, D)] = v / b[s_idx.index(B)]
    ric = [[sum(R.get((a, bb, c, bb), 0) for bb in s_idx) for c in s_idx]
           for a in s_idx]
    scal = sum(ric[i][i] for i in range(n))
    einstein = [[b[i] * ric[i][j] / b[j] - (scal / 2 if i == j else 0)
                 for j in range(n)] for i in range(n)]
    return {"scalar": scal, "einstein": einstein}


def kk_curvature_report(chart: GaugeChart, gamma_scalar=0,
                        base_einstein=None, control_sign: int = 1) -> dict:
    """Identity residuals for the scalar curvature and Einstein blocks.

    Checks R(h) = R(gamma) - 1/2 |F|^2 - 1/2 <B, k>, the ss-block identity,
    the mixed block E(h)_g^s = 1/2 covariant divergence of F, and the gg
    block formula, at each probe.
    """
    split = chart.split
    alg = chart.alg
    N = chart.N
    s_idx, g_idx = split.s_indices, split.l_indices
    b, k = split.b_diag, split.k_diag
    gamma_fields = base_lc_gamma_fields(chart) if chart.curved_base else None
    omega, lc_report = kk_lc_connection(chart, gamma_fields=gamma_fields)
    F_coeffs = chart.F_coeffs
    A_frame = frame_coeffs_1form(chart.A_form, chart.coframe)
    Bkill = killing_form(alg)
    bk = _bk_pairing(split, Bkill)

    report = {"lc": lc_report, "scalar": {}, "block_ss": {}, "block_gs": {},
              "block_gg": {}, "max": 0}
    worst = lc_report["max"]
    for p in chart.probes:
        pt = tuple(p)
        if gamma_fields is not None:
            base = base_curvature_blocks(chart, gamma_fields, pt)
            gamma_scalar = base["scalar"]
            base_einstein = base["einstein"]
        blocks = riemann_blocks(chart, omega, pt)
        f_at = {key: f.value(pt) for key, f in F_coeffs.items()}
        a_at = {key: f.value(pt) for key, f in A_frame.items()}

        def f_low(i, a2, b2):
            return f_at.get((i, a2, b2), 0)

        def f_up(i, a2, b2):
            gi = g_idx.index(i)
            ia, ib = s_idx.index(a2), s_idx.index(b2)
            return k[gi] * f_low(i, a2, b2) / (b[ia] * b[ib])

        norm_f = sum(f_low(i, a2, b2) * f_up(i, a2, b2)
                     for i in g_idx for a2 in s_idx for b2 in s_idx) / 2
        res_scalar = blocks["scalar"] \
            - (gamma_scalar - control_sign * norm_f / 2 - bk / 2)
        report["scalar"][pt] = abs(res_scalar)

        E = blocks["einstein"]
        base_E = base_einstein if base_einstein is not None else \
            [[0] * len(s_idx) for _ in s_idx]
        r_ss = 0
        for a2 in s_idx:
            for b2 in s_idx:
                quad = sum(f_up(i, b2, c) * f_low(i, a2, c)
                           for i in g_idx for c in s_idx)
                rhs = (base_E[s_idx.index(a2)][s_idx.index(b2)]
                       - (quad - (norm_f / 2 if a2 == b2 else 0)) / 2
                       + (bk / 4 if a2 == b2 else 0))
                r_ss = max(r_ss, abs(E[a2][b2] - rhs))
        report["block_ss"][pt] = r_ss
        # mixed block: E(h)_g^s = 1/2 (d_s F_g^{a s} + gamma-terms - c A F)
        g_at = {}
        if gamma_fields is not None:
            for ia in range(len(s_idx)):
                for ib in range(len(s_idx)):
                    for ic in range(len(s_idx)):
                        g_at[(ia, ib, ic)] = gamma_fields[ia][ib][ic] \
                            .value(pt)
        r_gs = 0
        for i in g_idx:
            for a2 in s_idx:
                div = 0
                for sb in s_idx:
                    fld = _f_up_field(chart, i, a2, sb)
                    div += frame_partial_field(chart.coframe, fld, sb).value(pt)
                    for j in g_idx:
                        for m in g_idx:
                            cv = alg.c(j, m, i)
                            if cv != 0:
                                div -= cv * a_at.get((m, sb), 0) * f_up(j, a2, sb)
                    if g_at:
                        ia, ib = s_idx.index(a2), s_idx.index(sb)
                        for s1 in s_idx:
                            i1 = s_idx.index(s1)
                            div += f_up(i, s1, sb) * g_at.get((ia, i1, ib), 0)
                            div += g_at.get((ib, i1, ib), 0) * f_up(i, a2, s1)
                r_gs = max(r_gs, abs(E[i][a2] - div / 2))
        report["block_gs"][pt] = r_gs
        # gg block: E_g^g = 1/4 F_g F^g - 1/4 c c k - 1/2 R delta
        r_gg = 0
        for i in g_idx:
            for j in g_idx:
                casimir = 0
                for g1 in g_idx:
                    for g2 in g_idx:
                        for g3 in g_idx:
                            c1 = alg.c(g1, i, g3)
                            c2 = alg.c(j, g1, g2)
                            if c1 != 0 and c2 != 0:
                                g2i, g3i = g_idx.index(g2), g_idx.index(g3)
                                if g2 == g3:
                                    casimir += c1 * c2 / k[g2i]
                lhs = E[i][j]
                rhs = quad_mixed(chart, f_at, i, j) / 4 \
                    - (casimir / 4 if casimir else 0) \
                    - (blocks["scalar"] / 2 if i == j else 0)
                r_gg = max(r_gg, abs(lhs - rhs))
        report["block_gg"][pt] = r_gg
        worst = max(worst, abs(res_scalar), r_ss, r_gs, r_gg)
    report["max"] = worst
    return report


def quad_mixed(chart: GaugeChart, f_at, i, j):
    """F_i^{ss'} F^j_{ss'} with i lowered and j raised by the metrics."""
    split = chart.split
    s_idx, g_idx = split.s_indices, split.l_indices
    b, k = split.b_diag, split.k_diag

    def f_low(m, a2, b2):
        v = f_at.get((m, a2, b2))
        if v is None:
            v = -f_at.get((m, b2, a2), 0)
        return v

    acc = 0
    for a2 in s_idx:
        for b2 in s_idx:
            ia, ib = s_idx.index(a2), s_idx.index(b2)
            up_i = k[g_idx.index(i)] * f_low(i, a2, b2) / (b[ia] * b[ib])
            acc += up_i * f_low(j, a2, b2)
    return acc


def _f_up_field(chart: GaugeChart, i, a2, sb):
    split = chart.split
    s_idx, g_idx = split.s_indices, split.l_indices
    b, k = split.b_diag, split.k_diag
    fld = chart.F_coeffs.get((i, a2, sb))
    if fld is None:
        return f_zero(chart.N)
    return f_scale(fld, k[g_idx.index(i)] / (b[s_idx.index(a2)] * b[s_idx.index(sb)]))


def _bk_pairing(split: SplitAlgebra, Bkill):
    """<B, k> = 1/2 B_{gg} k^{gg} restricted to the g block."""
    acc = 0
    for pos, i in enumerate(split.l_indices):
        acc += Bkill[i][i] / split.k_diag[pos]
    return acc / 2


def kk_eym_residuals(chart: GaugeChart, lam, base_einstein=None) -> dict:
    """Residual of the reduced Einstein-Yang-Mills system on the base.

    The caller supplies the intended solution data; for the flat vacuum with
    lam = 0 the residual vanishes, and a pure lam isolates lam * delta.
    """
    split = chart.split
    alg = chart.alg
    s_idx, g_idx = split.s_indices, split.l_indices
    b, k = split.b_diag, split.k_diag
    F_coeffs = chart.F_coeffs
    A_frame = frame_coeffs_1form(chart.A_form, chart.coframe)
    report = {"einstein": {}, "yang_mills": {}, "max": 0}
    worst = 0
    for p in chart.probes:
        pt = tuple(p)
        f_at = {key: f.value(pt) for key, f in F_coeffs.items()}
        a_at = {key: f.value(pt) for key, f in A_frame.items()}

        def f_low(i, a2, b2):
            v = f_at.get((i, a2, b2))
            if v is None:
                v = -f_at.get((i, b2, a2), 0)
            return v

        def f_up(i, a2, b2):
            gi = g_idx.index(i)
            ia, ib = s_idx.index(a2), s_idx.index(b2)
            return k[gi] * f_low(i, a2, b2) / (b[ia] * b[ib])

        norm_f = sum(f_low(i, a2, b2) * f_up(i, a2, b2)
                     for i in g_idx for a2 in s_idx for b2 in s_idx) / 2
        base_E = base_einstein if base_einstein is not None else \
            [[0] * len(s_idx) for _ in s_idx]
        r_e = 0
        for a2 in s_idx:
            for b2 in s_idx:
                lhs = base_E[s_idx.index(a2)][s_idx.index(b2)] + (lam if a2 == b2 else 0)
                rhs = sum(f_up(i, b2, c) * f_low(i, a2, c)
                          for i in g_idx for c in s_idx) / 2 \
                    - (norm_f / 4 if a2 == b2 else 0)
                r_e = max(r_e, abs(lhs - rhs))
        r_ym = 0
        for i in g_idx:
            for a2 in s_idx:
                div = 0
                for sb in s_idx:
                    fld = _f_up_field(chart, i, a2, sb)
                    div += frame_partial_field(chart.coframe, fld, sb).value(pt)
                    for j in g_idx:
                        for m in g_idx:
                            cv = alg.c(j, m, i)
                            if cv != 0:
                                div -= cv * a_at.get((m, sb), 0) * f_up(j, a2, sb)
                r_ym = max(r_ym, abs(div))
        report["einstein"][pt] = r_e
        report["yang_mills"][pt] = r_ym
        worst = max(worst, r_e, r_ym)
    report["max"] = worst
    return report


def kk_dAp_identity_residual(chart: GaugeChart, control_sign: int = 1) -> dict:
    """Direct d^A p_u against the closed-form rows (p^{ss} = 0 case)."""
    split = chart.split
    alg = chart.alg
    s_idx, g_idx = split.s_indices, split.l_indices
    dual = algebra_slot(alg, dual=True)
    minors = chart.coframe.minors()

    p_form = pi_form_from_coeffs(chart.p_coeffs, chart.coframe, alg.dim, dual)
    coad = Representation.coadjoint(alg)
    lhs = cov_d(chart.A_form, p_form, (coad,))
    A_frame = frame_coeffs_1form(chart.A_form, chart.coframe)

    report = {"max": 0, "rows": {}}
    worst = 0
    for p in chart.probes:
        pt = tuple(p)
        a_at = {key: f.value(pt) for key, f in A_frame.items()}
        pv, dpv = chart.p_tables(pt)
        rows: Dict[Tuple[int, int], object] = {}
        for i in g_idx:
            for a in s_idx:
                rows[(i, a)] = sum(dpv[i, a, gg, gg] for gg in g_idx)
            for gup in g_idx:
                acc = 0
                for s1 in s_idx:
                    d = dpv[i, gup, s1, s1]
                    for j in g_idx:
                        for m in g_idx:
                            cv = alg.c(j, m, i)
                            if cv != 0:
                                d -= cv * a_at.get((m, s1), 0) * pv[j, gup, s1]
                    for j in g_idx:
                        for m in g_idx:
                            cv = alg.c(gup, m, j)
                            if cv != 0:
                                d += cv * a_at.get((m, s1), 0) * pv[i, j, s1]
                    acc += d
                for g1 in g_idx:
                    acc += dpv[i, gup, g1, g1]
                for g1 in g_idx:
                    for g2 in g_idx:
                        cv = alg.c(gup, g1, g2)
                        if cv != 0:
                            acc += control_sign * cv * pv[i, g1, g2] / 2
                rows[(i, gup)] = acc
        rhs = cominor_rows(minors, rows, dual)
        res = (lhs - rhs).max_abs(pt)
        report["rows"][pt] = {key: v for key, v in rows.items()}
        worst = max(worst, abs(res))
    report["max"] = worst
    return report


def kk_lambda(split: SplitAlgebra, lambda0):
    """Lambda = Lambda0 + 1/4 <B, k> for the chart's structure algebra."""
    Bkill = killing_form(split.ambient)
    return lambda0 + _bk_pairing(split, Bkill) / 4
