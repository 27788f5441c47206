"""Yang-Mills variational model: Euler-Lagrange residuals, the Maxwell
warm-up on R^4 x S^1, the d^A p decomposition identity and the current
conservation law.

Conventions: the ambient algebra is u = s (+) g with s central (basis s
first), chart coordinates are (x, y) with dim N = n + r, and signature
"norms" are the literal metric contractions (no absolute values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .algebra import SplitAlgebra
from .charts import (GaugeChart, Rng, antisym, assemble_chart, base_lc_gamma_fields,
                     coframe_from_algebra_form, frame_coeffs_1form,
                     frame_partial_field)
from .connection import Representation, algebra_slot, cov_d, curvature
from .fields import f_add, f_is_zero, f_mul, f_scale, f_zero
from .forms import Coframe, Form, Slot, cominor_rows, decompose, exterior_d, wedge
from .scalars import Polynomial


@dataclass
class YMFields:
    """Unconstrained fields: pulled-back base coframe, connection, dual."""

    split: SplitAlgebra
    n_base: int
    beta: Form            # s-part coframe, x-dependent, dx components
    theta: Form           # g-valued 1-form (full rank on fibers)
    pi_coeffs: Dict[Tuple[int, int, int], object]   # (i, A, B) -> field, A < B
    probes: List[Tuple]
    exact: bool = True

    @property
    def alg(self):
        return self.split.ambient

    def f_coframe(self) -> Coframe:
        f_form = self.beta + self.theta
        return coframe_from_algebra_form(f_form, self.alg.dim, self.probes, self.exact)


def pi_form_from_coeffs(coeffs: Dict[Tuple[int, int, int], object], coframe: Coframe,
                        alg_dim: int, dual_slot: Slot) -> Form:
    """pi = 1/2 pi_i^{AB} e^{(N-2)}_{AB} as a dual-slot (N-2)-form."""
    N = coframe.N
    minors = coframe.minors()
    out = Form(N, N - 2, (dual_slot,))
    for (i, A, B), fld in coeffs.items():
        if f_is_zero(fld):
            continue
        m = minors.minor((A, B))
        for K, _, mf in m.terms():
            out.add_term(K, (i,), f_mul(fld, mf))
    return out._finalize()


def ym_el_residuals(fields: YMFields, tol_probe: Optional[Sequence] = None) -> dict:
    """Residual blocks of the two Euler-Lagrange equations.

    r_pi collects (pi^g_ss + Theta^g_ss, Theta^g_sg, Theta^g_gg); r_theta is
    the codegree-1 defect of d^theta pi - 1/2 |pi^ss|^2 f^{(N-1)}_g.
    """
    split = fields.split
    alg = fields.alg
    coframe = fields.f_coframe()
    minors = coframe.minors()
    theta_curv = curvature(fields.theta, alg)
    dual = algebra_slot(alg, dual=True)
    pi = pi_form_from_coeffs(fields.pi_coeffs, coframe, alg.dim, dual)
    coad = Representation.coadjoint(alg)
    dpi = cov_d(fields.theta, pi, (coad,))

    b, k = split.b_diag, split.k_diag
    s_idx, g_idx = split.s_indices, split.l_indices

    report = {"r_pi_ss": {}, "r_pi_sg": {}, "r_pi_gg": {}, "max": 0}
    probes = fields.probes if tol_probe is None else [tuple(tol_probe)]
    worst = 0
    for p in probes:
        theta_c = decompose(theta_curv, coframe, "by-coframe", p, fields.exact)
        pi_at = {key: f.value(p) for key, f in fields.pi_coeffs.items()}
        # |pi^ss|^2 and the raised-lowered pi^g_ss
        norm2 = 0
        for (i, a, bb), v in pi_at.items():
            if a in s_idx and bb in s_idx:
                gi = g_idx.index(i)
                low = v * b[a] * b[bb] / k[gi]
                norm2 += v * low          # sum over a<b twice = 1/2 * full sum
        for i in g_idx:
            gi = g_idx.index(i)
            for a in s_idx:
                for bb in s_idx:
                    if a >= bb:
                        continue
                    v = pi_at.get((i, a, bb), 0)
                    low = v * b[a] * b[bb] / k[gi]
                    res = low + theta_c[(i,)][a][bb]
                    report["r_pi_ss"][(i, a, bb, p)] = res
                    worst = max(worst, abs(res))
            for a in s_idx:
                for j in g_idx:
                    res = theta_c[(i,)][a][j]
                    report["r_pi_sg"][(i, a, j, p)] = res
                    worst = max(worst, abs(res))
            for j1 in g_idx:
                for j2 in g_idx:
                    if j1 >= j2:
                        continue
                    res = theta_c[(i,)][j1][j2]
                    report["r_pi_gg"][(i, j1, j2, p)] = res
                    worst = max(worst, abs(res))
        # r_theta: d^theta pi - 1/2 |pi^ss|^2 f^{(N-1)}_g
        rhs = cominor_rows(minors, {(i, i): norm2 / 2 for i in g_idx}, dual)
        diff = dpi - rhs
        worst = max(worst, diff.max_abs(p))
        report.setdefault("r_theta", {})[p] = diff.max_abs(p)
    report["max"] = worst
    return report


# ---------------------------------------------------------------------------
# trivialized YM charts
# ---------------------------------------------------------------------------

def build_ym_chart(split: SplitAlgebra, n_base: int, seed: int,
                   curved_base: bool = False, exact: bool = True,
                   probe_count: int = 2, p_y_dependent: bool = True) -> GaugeChart:
    """Chart satisfying the decomposition hypotheses by construction.

    A has x-only dx components with A^s a base coframe; p^ss is pinned to
    minus the raised field strength; p^sg and p^gg are random fields.
    """
    chart = assemble_chart(split, n_base, seed, probe_count=probe_count,
                           exact=exact, curved_base=curved_base)
    rng = chart.rng
    N = chart.N
    s_idx, g_idx = split.s_indices, split.l_indices
    b, k = split.b_diag, split.k_diag
    F_coeffs = chart.F_coeffs
    p_coeffs: Dict[Tuple[int, int, int], object] = {}
    for i in g_idx:
        gi = g_idx.index(i)
        for a in s_idx:
            for bb in s_idx:
                if a >= bb:
                    continue
                fld = F_coeffs.get((i, a, bb))
                if fld is None or f_is_zero(fld):
                    continue
                # p_i^{ab} = -k_{ij} b^{aa'} b^{bb'} F^j_{a'b'}  (diagonal metrics)
                p_coeffs[(i, a, bb)] = f_scale(fld, -k[gi] / (b[a] * b[bb]))
        vars_ = list(range(N)) if p_y_dependent else list(range(n_base))
        for a in s_idx:
            for j in g_idx:
                key = (i, a, j) if a < j else (i, j, a)
                p_coeffs[key] = rng.poly_in_vars(N, vars_, deg=2, terms=2)
        for j1 in g_idx:
            for j2 in g_idx:
                if j1 < j2:
                    p_coeffs[(i, j1, j2)] = rng.poly_in_vars(N, vars_, deg=2, terms=2)
    chart.p_coeffs = p_coeffs
    return chart


def ym_dAp_identity_residual(chart: GaugeChart, control_sign: int = 1) -> dict:
    """Direct d^A p against its closed-form decomposition, at probe points.

    Returns the max residual and the three blocks (s-codegree, g-codegree,
    exact term) separately.
    """
    split = chart.split
    alg = chart.alg
    N = chart.N
    s_idx, g_idx = split.s_indices, split.l_indices
    p_coeffs = chart.p_coeffs
    dual = algebra_slot(alg, dual=True)
    minors = chart.coframe.minors()

    p_form = pi_form_from_coeffs(p_coeffs, chart.coframe, alg.dim, dual)
    coad = Representation.coadjoint(alg)
    lhs = cov_d(chart.A_form, p_form, (coad,))

    # ingredients for the closed form
    F_coeffs = chart.F_coeffs
    A_frame = frame_coeffs_1form(chart.A_form, chart.coframe)
    gamma = base_lc_gamma_fields(chart)

    report = {"blocks": {}, "max": 0}
    worst = 0
    for p in chart.probes:
        pt = tuple(p)
        a_at = {key: f.value(pt) for key, f in A_frame.items()}
        f_at = {key: f.value(pt) for key, f in F_coeffs.items()}
        g_at = {(a, bb, c): gamma[a][bb][c].value(pt)
                for a in range(chart.n_base) for bb in range(chart.n_base)
                for c in range(chart.n_base)}
        pv, dpv = chart.p_tables(pt)

        def av(m, B):
            return a_at.get((m, B), 0)

        def gv(a, bb, c):
            return g_at.get((a, bb, c), 0)

        # s-row coefficients: cov_s1 p^{a s1} + d_g p^{a g}
        s_row: Dict[Tuple[int, int], object] = {}
        for i in g_idx:
            for a in s_idx:
                acc = 0
                for s1 in s_idx:
                    d = dpv[i, a, s1, s1]
                    # coadjoint action on the g* index
                    for j in g_idx:
                        for m in g_idx:
                            c = alg.c(j, m, i)
                            if c != 0:
                                d -= c * av(m, s1) * pv[j, a, s1]
                    # gamma on both upper s indices
                    for ap in s_idx:
                        d += gv(a, ap, s1) * pv[i, ap, s1]
                        d += gv(s1, ap, s1) * pv[i, a, ap]
                    acc += d
                for gg in g_idx:
                    acc += dpv[i, a, gg, gg]
                s_row[(i, a)] = acc
        # g-row coefficients: cov_s p^{g s} + 1/2 F^g_{s1 s2} p^{s1 s2}
        g_row: Dict[Tuple[int, int], object] = {}
        for i in g_idx:
            for gup in g_idx:
                acc = 0
                for s1 in s_idx:
                    d = dpv[i, gup, s1, s1]
                    for j in g_idx:
                        for m in g_idx:
                            c = alg.c(j, m, i)
                            if c != 0:
                                d -= c * av(m, s1) * pv[j, gup, s1]
                    for j in g_idx:
                        for m in g_idx:
                            c = alg.c(gup, m, j)
                            if c != 0:
                                d += c * av(m, s1) * pv[i, j, s1]
                    for ap in s_idx:
                        d += gv(s1, ap, s1) * pv[i, gup, ap]
                    acc += d
                for j in g_idx:
                    for s1 in s_idx:
                        for s2 in s_idx:
                            fv = f_at.get((j, s1, s2), 0)
                            if fv != 0:
                                acc += control_sign * fv * pv[i, s1, s2] \
                                    * (1 if j == gup else 0) / 2
                g_row[(i, gup)] = acc
        # exact term d(1/2 p^{g1 g2} e^{(N-2)}_{g1 g2})
        exact_form = Form(N, N - 2, (dual,))
        for i in g_idx:
            for j1 in g_idx:
                for j2 in g_idx:
                    if j1 >= j2:
                        continue
                    fld = p_coeffs.get((i, j1, j2))
                    if fld is None:
                        continue
                    for K, _, mf in minors.minor((j1, j2)).terms():
                        exact_form.add_term(K, (i,), f_mul(fld, mf))
        exact_form._finalize()
        exact_term = exterior_d(exact_form)

        rhs = exact_term + cominor_rows(minors, {**s_row, **g_row}, dual)
        diff = lhs - rhs
        res = diff.max_abs(pt)
        worst = max(worst, abs(res))
        report["blocks"][pt] = {
            "s_row": max((abs(v) for v in s_row.values()), default=0),
            "g_row": max((abs(v) for v in g_row.values()), default=0),
            "exact": exact_term.max_abs(pt),
        }
    report["max"] = worst
    return report


def ym_current(chart: GaugeChart) -> dict:
    """Current J_g^s = d_g p_g^{sg} and its covariant conservation residual.

    Also verifies the commutator input [d_g, d_s] = -c A d_g on test scalars.
    """
    split = chart.split
    alg = chart.alg
    N = chart.N
    s_idx, g_idx = split.s_indices, split.l_indices
    p_full = antisym(chart.p_coeffs)
    A_frame = frame_coeffs_1form(chart.A_form, chart.coframe)

    # J as fields: J_i^a = sum_g frame_partial_g p_i^{a g}
    J_fields: Dict[Tuple[int, int], object] = {}
    for i in g_idx:
        for a in s_idx:
            parts = []
            for gg in g_idx:
                fld = p_full.get((i, a, gg))
                if fld is None:
                    continue
                parts.append(frame_partial_field(chart.coframe, fld, gg))
            J_fields[(i, a)] = f_add(*parts) if parts else f_zero(N)

    report = {"J": {}, "conservation": {}, "commutator": {}, "max_conservation": 0,
              "max_commutator": 0}
    test_scalar = chart.rng.poly(N, deg=2, terms=3)
    for p in chart.probes:
        pt = tuple(p)
        a_at = {key: f.value(pt) for key, f in A_frame.items()}
        jv = {key: f.value(pt) for key, f in J_fields.items()}
        report["J"][pt] = dict(jv)
        res_max = 0
        for i in g_idx:
            acc = 0
            for a in s_idx:
                acc += frame_partial_field(chart.coframe, J_fields[(i, a)], a).value(pt)
                for j in g_idx:
                    for m in g_idx:
                        c = alg.c(j, m, i)
                        if c != 0:
                            acc -= c * a_at.get((m, a), 0) * jv[(j, a)]
            report["conservation"][(i, pt)] = acc
            res_max = max(res_max, abs(acc))
        report["max_conservation"] = max(report["max_conservation"], res_max)
        # commutator check on a scalar: [d_g, d_s] f + c^g_{g0 g} A^{g0}_s d_g f = 0
        worst_c = 0
        for gg in g_idx:
            dg = frame_partial_field(chart.coframe, test_scalar, gg)
            for a in s_idx:
                ds = frame_partial_field(chart.coframe, test_scalar, a)
                lhs = (frame_partial_field(chart.coframe, ds, gg).value(pt)
                       - frame_partial_field(chart.coframe, dg, a).value(pt))
                rhs = 0
                for j in g_idx:
                    for m in g_idx:
                        c = alg.c(j, m, gg)
                        if c != 0:
                            rhs -= (c * a_at.get((m, a), 0)
                                    * frame_partial_field(chart.coframe, test_scalar, j)
                                    .value(pt))
                worst_c = max(worst_c, abs(lhs - rhs))
        report["commutator"][pt] = worst_c
        report["max_commutator"] = max(report["max_commutator"], worst_c)
    return report


# ---------------------------------------------------------------------------
# Maxwell warm-up on R^4 x S^1
# ---------------------------------------------------------------------------

def maxwell_scenario(E_strength, seed: int = 42, nodes: int = 256) -> dict:
    """Constructed solution with F = E dx^0 ^ dx^1 and its residual report.

    p^{mu nu} = -F^{mu nu}, p^0 = (E^2/2) x^0; residuals of both rows of the
    trivialized Euler-Lagrange system, the vacuum Maxwell equation, and a
    fiber-average quadrature demo are returned.
    """
    E = Fraction(E_strength) if not isinstance(E_strength, float) else E_strength
    n, N = 4, 5
    b = [Fraction(-1), Fraction(1), Fraction(1), Fraction(1)]
    # A = -E x^1 dx^0, F = dA = E dx^0 ^ dx^1
    x1 = Polynomial.coordinate(1, N)
    A_mu = [x1.scale(-E), f_zero(N), f_zero(N), f_zero(N)]
    F = {(0, 1): E}

    def F_full(mu, nu):
        if (mu, nu) in F:
            return F[(mu, nu)]
        if (nu, mu) in F:
            return -F[(nu, mu)]
        return 0

    def F_up(mu, nu):
        return F_full(mu, nu) / (b[mu] * b[nu])

    p_up = {(mu, nu): -F_up(mu, nu) for mu in range(4) for nu in range(4) if mu != nu}
    x0 = Polynomial.coordinate(0, N)
    p_vec = [x0.scale(E * E / 2 if isinstance(E, float) else Fraction(E * E, 2)),
             f_zero(N), f_zero(N), f_zero(N)]

    # |p^ss|^2 = 1/2 p^{mu nu} p_{mu nu}
    norm2 = 0
    for (mu, nu), v in p_up.items():
        norm2 += v * (b[mu] * b[nu] * v)
    norm2 = norm2 / 2

    probe = (Fraction(1, 2), Fraction(-1, 3), Fraction(1), Fraction(2), Fraction(0))
    # (a) d_nu p^{mu nu} + d_s p^mu = 0 ; (b) d_mu p^mu + 1/2|p^ss|^2 = 0
    res_a = 0
    for mu in range(4):
        acc = 0
        # p^{mu nu} constant here; keep the generic form for clarity
        acc += p_vec[mu].dvalue(probe, 4)
        res_a = max(res_a, abs(acc))
    res_b = abs(sum(p_vec[mu].dvalue(probe, mu) for mu in range(4)) + norm2 / 2)
    maxwell_res = 0  # d_nu F^{mu nu} for constant F
    # (ELvarpi): p_{mu nu} + F_{mu nu} = 0 and Theta_mu = d_y A_mu = 0
    res_elvarpi = 0
    for mu in range(4):
        for nu in range(4):
            if mu == nu:
                continue
            low = b[mu] * b[nu] * p_up.get((mu, nu), 0)
            res_elvarpi = max(res_elvarpi, abs(low + F_full(mu, nu)))
        res_elvarpi = max(res_elvarpi, abs(A_mu[mu].dvalue(probe, 4)))

    two_pi = 2 * math.pi
    def fiber_average(fn: Callable[[float], float]) -> float:
        h = two_pi / nodes
        return abs(sum(fn(i * h) for i in range(nodes)) * h / two_pi)

    demo = fiber_average(math.cos)

    return {
        "elvarpi_residual": res_elvarpi,
        "el_a_residual": res_a,
        "el_b_residual": res_b,
        "maxwell_residual": maxwell_res,
        "fiber_average_demo": demo,
        "fiber_average": fiber_average,
        "p_up": p_up,
        "p_vec": p_vec,
        "norm2": norm2,
        "d_mu_p": sum(p_vec[mu].dvalue(probe, mu) for mu in range(4)),
    }


def maxwell_q_transport_residual(seed: int = 0) -> object:
    """Q^{ss} transported under a fiber reparametrization y -> f(x, y).

    Verifies Q^{ss}[T* theta, T* pi] = Q^{ss}[theta, pi] o T on a synthetic
    chart: the implicit coefficient is computed on both sides from
    pi ^ dx^mu ^ dx^nu = Q^{mu nu} dx^(4) ^ theta.
    """
    rng = Rng(seed, exact=True)
    N = 5
    # theta = theta_mu(x, y) dx + theta_4(x, y) dy with theta_4 nonvanishing
    theta = [rng.poly(N, deg=2, terms=2) for _ in range(4)]
    theta4 = Polynomial.constant(Fraction(2), N) + rng.vanishing_poly(
        N, [tuple([Fraction(0)] * N)], [0, 1, 2, 3, 4])
    pi_up = {(mu, nu): rng.poly(N, deg=2, terms=2)
             for mu in range(4) for nu in range(mu + 1, 4)}
    pi_vec = [rng.poly(N, deg=2, terms=2) for _ in range(4)]
    # fiber map y -> f(x,y) = y + vanishing-at-probe correction
    probe = tuple([Fraction(0)] * N)
    fmap = Polynomial.coordinate(4, N) + rng.vanishing_poly(N, [probe], [0, 1, 2, 3, 4])

    theta_form = _maxwell_theta_form(theta, theta4)
    pi_form = _maxwell_pi_form(pi_up, pi_vec, theta_form)

    q_orig = _implicit_q(theta_form, pi_form, probe)
    theta_p = pullback_fiber(theta_form, fmap)
    pi_p = pullback_fiber(pi_form, fmap)
    # T(probe) = probe here since the correction vanishes at the probe
    q_pulled = _implicit_q(theta_p, pi_p, probe)
    return max(abs(q_orig[key] - q_pulled[key]) for key in q_orig)


def _maxwell_theta_form(theta_mu, theta4) -> Form:
    N = 5
    out = Form(N, 1)
    for mu in range(4):
        out.add_term((mu,), (), theta_mu[mu])
    out.add_term((4,), (), theta4)
    return out._finalize()


def _maxwell_pi_form(pi_up, pi_vec, theta_form: Form) -> Form:
    """pi = 1/2 pi^{mu nu} dx^(2)_{mu nu} ^ theta - pi^mu dx^(3)_mu."""
    N = 5
    out = Form(N, 3)
    for (mu, nu), fld in pi_up.items():
        m = _dx2_minor(mu, nu)
        for K, sgn in m:
            tf = wedge(_chart_form(K, sgn, N), theta_form)
            for KK, _, tfld in tf.terms():
                out.add_term(KK, (), f_mul(fld, tfld))
    for mu in range(4):
        for K, sgn in _dx3_minor(mu):
            out.add_term(K, (), f_scale(pi_vec[mu], -sgn))
    return out._finalize()


def _chart_form(K, sgn, N) -> Form:
    out = Form(N, len(K))
    out.add_term(K, (), Polynomial.constant(Fraction(sgn), N))
    return out._finalize()


def _dx2_minor(mu, nu):
    """dx^(2)_{mu nu} = d/dx^nu _| d/dx^mu _| dx^0123 on the x block."""
    from .forms import perm_parity

    rest = [k for k in range(4) if k not in (mu, nu)]
    sign = perm_parity([mu, nu] + rest)
    return [(tuple(rest), sign)]


def _dx3_minor(mu):
    from .forms import perm_parity

    rest = [k for k in range(4) if k != mu]
    sign = perm_parity([mu] + rest)
    return [(tuple(rest), sign)]


def _implicit_q(theta_form: Form, pi_form: Form, probe) -> dict:
    """Q^{mu nu} from pi ^ dx^mu ^ dx^nu = Q dx^(4) ^ theta at the probe."""
    N = 5
    top_key = (0, 1, 2, 3, 4)
    denom = theta_form.get((4,)).value(probe)
    out = {}
    for mu in range(4):
        for nu in range(mu + 1, 4):
            dxmn = _chart_form((mu, nu), 1, N)
            lhs = wedge(pi_form, dxmn)
            val = lhs.get(top_key).value(probe)
            out[(mu, nu)] = val / denom
    return out


def pullback_fiber(form: Form, fmap: Polynomial) -> Form:
    """Pull back by T(x, y) = (x, f(x, y)); coefficients compose with f."""
    N = form.n
    fiber = N - 1
    out = Form(N, form.degree, form.slots)
    for K, sk, fld in form.terms():
        if not isinstance(fld, Polynomial):
            raise TypeError("fiber pullback needs polynomial coefficients")
        comp = fld.substitute({fiber: fmap})
        if fiber not in K:
            out.add_term(K, sk, comp)
            continue
        rest = tuple(k for k in K if k != fiber)
        # dy -> sum_k df/dx_k dx^k + df/dy dy; the fiber index sits last in
        # the increasing key, so the replacement keeps the other factors fixed
        for k in range(N):
            dfk = fmap.partial_poly(k)
            if dfk.is_zero() or k in rest:
                continue
            out.add_term(rest + (k,), sk, f_mul(comp, dfk))
    return out._finalize()
