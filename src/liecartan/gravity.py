"""Gravity model: constrained Euler-Lagrange residuals, source families,
the fundamental equation and its decomposition, generalized Cartan/Einstein
tensors, commutators, conservation laws and the generalized Bianchi rows.

The structure algebra is a reductive symmetric split p = s (+) l (both
unimodular); charts are trivialized with A = theta^s + omega^l depending on
x only and g = exp(eta(y)) in the l block.  The dual field carries the
constraint p^{ss} = kappa throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .algebra import SplitAlgebra, check_algebra
from .charts import (GravityChart, Rng, antisym, base_probes,
                     build_connection_form, build_group_map,
                     coframe_from_algebra_form, frame_coeffs_1form,
                     frame_coeffs_2form, frame_partial_field)
from .connection import (GroupMap, Representation, algebra_slot,
                         apply_matrix_to_slot, bracket_wedge, cov_d, curvature)
from .fields import f_add, f_mul, f_scale, f_zero
from .forms import (Coframe, CoframeMinors, Form, Slot, cominor_rows, decompose,
                    exterior_d, wedge)
from .kappa import KappaTensor
from .scalars import Polynomial
from .ym import pi_form_from_coeffs


class ChartInvariantError(ValueError):
    """A certified chart invariant failed at a probe point."""


@dataclass
class GravityFields:
    """(phi^p, pi_p) with the constraint pi^{ss} = kappa baked in."""

    split: SplitAlgebra
    kappa: KappaTensor
    phi: Form
    pi_coeffs: Dict[Tuple[int, int, int], object]   # includes the kappa block
    probes: List[Tuple]
    exact: bool = True

    def coframe(self) -> Coframe:
        return coframe_from_algebra_form(self.phi, self.split.ambient.dim,
                                         self.probes, self.exact)


def kappa_pi_block(split: SplitAlgebra, kappa: KappaTensor, N: int) -> Dict:
    """Constant coefficient fields realizing pi^{ss} = kappa."""
    out = {}
    for (I, a, b), v in kappa.entries.items():
        out[(I, a, b)] = Polynomial.constant(v, N)
    return out


def grav_el_residuals(fields: GravityFields) -> dict:
    """r1 = (Phi_{ll}, Phi_{sl}) blocks; r2 = d^phi pi - source rows."""
    split = fields.split
    alg = split.ambient
    N = alg.dim
    s_idx, l_idx = split.s_indices, split.l_indices
    coframe = fields.coframe()
    minors = coframe.minors()
    dual = algebra_slot(alg, dual=True)

    Phi = curvature(fields.phi, alg)
    pi_form = pi_form_from_coeffs(fields.pi_coeffs, coframe, N, dual)
    coad = Representation.coadjoint(alg)
    dpi = cov_d(fields.phi, pi_form, (coad,))

    report = {"r1": {}, "r2": {}, "max_r1": 0, "max_r2": 0}
    for p in fields.probes:
        pt = tuple(p)
        pc = decompose(Phi, coframe, "by-coframe", pt, fields.exact)
        r1 = 0
        for I in range(N):
            for A in range(N):
                for B in range(N):
                    if A in s_idx and B in s_idx:
                        continue
                    r1 = max(r1, abs(pc[(I,)][A][B]))
        report["r1"][pt] = r1
        pi_at = antisym({key: f.value(pt) for key, f in fields.pi_coeffs.items()})
        psi = psi_families(pc, pi_at, N)
        rhs = source_form(minors, psi["psi_mixed"], psi["psi"], dual)
        r2 = (dpi - rhs).max_abs(pt)
        report["r2"][pt] = r2
        report["max_r1"] = max(report["max_r1"], r1)
        report["max_r2"] = max(report["max_r2"], abs(r2))
    return report


def source_form(minors: CoframeMinors, mixed, scalar, dual: Slot) -> Form:
    """Q_p - 1/2 Q e^{(N-1)}_p from a mixed source family Q_P^Q and its trace."""
    N = minors.N
    rows = {(P, Q): mixed[P][Q] - (scalar / 2 if P == Q else 0)
            for P in range(N) for Q in range(N)}
    return cominor_rows(minors, rows, dual)


def psi_families(curv_coeffs, pi_at, N: int) -> dict:
    """Psi_{PQ}^{RS} = Phi^{p}_{PQ} pi_p^{RS}, its trace and double trace."""
    full = {}
    for (I,), mat in curv_coeffs.items():
        for P in range(N):
            for Q in range(N):
                v = mat[P][Q]
                if v == 0:
                    continue
                for (J, R, S), w in pi_at.items():
                    if J != I or w == 0:
                        continue
                    key = (P, Q, R, S)
                    full[key] = full.get(key, 0) + v * w
    mixed = [[sum(full.get((P, X, Q, X), 0) for X in range(N)) for Q in range(N)]
             for P in range(N)]
    scalar = sum(mixed[P][P] for P in range(N))
    return {"psi_full": full, "psi_mixed": mixed, "psi": scalar}


# ---------------------------------------------------------------------------
# chart construction
# ---------------------------------------------------------------------------

def build_gravity_chart(split: SplitAlgebra, kappa: KappaTensor, seed: int,
                        exact: bool = True, probe_count: int = 2,
                        flat: bool = False, linear_group: bool = False,
                        p_vars: Optional[str] = None) -> GravityChart:
    """Trivialized chart with certified invariants.

    flat=True zeroes the connection block (Theta = Omega = 0); linear_group
    restricts eta to the exact linear map y -> sum y_i t_i so the vertical
    frame is the coordinate one on the probe slice.
    """
    rep = check_algebra(split.ambient, split)
    if not (rep["reductive_ok"] and rep["symmetric_ok"]
            and rep["unimodular_ambient"] and rep["unimodular_sub"]):
        raise ChartInvariantError("split must be reductive, symmetric, unimodular")
    rng = Rng(seed, exact)
    n, r = split.n, split.r
    N = n + r
    probes = base_probes(rng, n, r, probe_count)
    if linear_group:
        eta = [f_zero(N) for _ in range(split.ambient.dim)]
        for pos, i in enumerate(split.l_indices):
            e = [0] * N
            e[n + pos] = 1
            eta[i] = Polynomial(N, {tuple(e): Fraction(1) if exact else 1.0})
        gm = GroupMap(split.ambient, eta, N, exact=exact)
    else:
        gm = build_group_map(split, n, rng)
    A_form = build_connection_form(
        split, n, rng, probes,
        s_coframe="flat" if flat else "perturbed",
        l_rows="none" if flat else "random")
    e_form = A_form + gm.right_log_derivative()
    coframe = coframe_from_algebra_form(e_form, split.ambient.dim, probes, exact)

    # split A into theta (s rows) and omega (l rows)
    uslot = algebra_slot(split.ambient)
    theta = Form(N, 1, (uslot,))
    omega = Form(N, 1, (uslot,))
    for (k,), (I,), fld in A_form.terms():
        (theta if I in split.s_indices else omega).add_term((k,), (I,), fld)
    theta._finalize()
    omega._finalize()
    adrep = Representation.adjoint(split.ambient)
    torsion = cov_d(omega, theta, (adrep,))
    curv_l = curvature(omega, split.ambient)
    F_form = curvature(A_form, split.ambient)

    # dual field with the kappa block pinned and random sl / ll blocks
    p_coeffs = kappa_pi_block(split, kappa, N)
    vars_ = list(range(N))
    if p_vars == "x":
        vars_ = list(range(n))
    for I in range(split.ambient.dim):
        for a in split.s_indices:
            for j in split.l_indices:
                key = (I, a, j) if a < j else (I, j, a)
                p_coeffs[key] = rng.poly_in_vars(N, vars_, deg=2, terms=2)
        for j1 in split.l_indices:
            for j2 in split.l_indices:
                if j1 < j2:
                    p_coeffs[(I, j1, j2)] = rng.poly_in_vars(N, vars_, deg=2, terms=2)
    chart = GravityChart(split, n, r, gm, A_form, e_form, coframe, probes, exact,
                         rng, p_coeffs, F_form, kappa, theta, omega, torsion, curv_l)
    certify_gravity_chart(chart)
    return chart


def certify_gravity_chart(chart: GravityChart):
    """F_{sl} = F_{ll} = 0, y-independence, and coframe rank at probes."""
    split = chart.split
    s_idx = split.s_indices
    floor = 0 if chart.exact else 1e-10
    fc = frame_coeffs_2form(chart.F_form, chart.coframe)
    for p in chart.probes:
        pt = tuple(p)
        for (I, A, B), fld in fc.items():
            if A in s_idx and B in s_idx:
                continue
            if abs(fld.value(pt)) > floor:
                raise ChartInvariantError(
                    f"F block ({A},{B}) does not vanish at {pt}")
        for (I, A, B), fld in fc.items():
            if A in s_idx and B in s_idx:
                for l in split.l_indices:
                    d = frame_partial_field(chart.coframe, fld, l)
                    if abs(d.value(pt)) > floor:
                        raise ChartInvariantError(
                            f"F coefficient ({I},{A},{B}) varies along the fiber")


def fields_from_chart(chart: GravityChart) -> GravityFields:
    """Transport (e, p) back to the phi side: phi = Ad_{g^-1} e."""
    phi = apply_matrix_to_slot(chart.e_form, 0, chart.gm.ad_inv_entry)
    # pi coefficients are only ever needed as probe values; transport there
    return GravityFields(chart.split, chart.kappa, phi, chart.p_coeffs,
                         chart.probes, chart.exact)


def pi_values_from_chart(chart: GravityChart, pt) -> Dict:
    """pi^{PQ} values at a probe: inverse coefficient transport of p^{PQ}."""
    alg = chart.alg
    N = alg.dim
    gm = chart.gm
    ad = gm._Ad_inv.jets(pt, 0)          # Ad_{g^-1}
    ad_dual = gm._Ad.jets(pt, 0)         # (Ad_{g^-1})^* = Ad_g^T
    p_at = antisym({key: f.value(pt) for key, f in chart.p_coeffs.items()})
    out: Dict[Tuple[int, int, int], object] = {}
    for I in range(N):
        for A in range(N):
            for B in range(A + 1, N):
                acc = 0
                for (J, C, D), w in p_at.items():
                    if w == 0:
                        continue
                    acc += ad_dual[J][I].value * ad[A][C].value * ad[B][D].value * w
                if acc != 0:
                    out[(I, A, B)] = acc
                    out[(I, B, A)] = -acc
    return out


# ---------------------------------------------------------------------------
# source families and the fundamental equation
# ---------------------------------------------------------------------------

def q_families(chart: GravityChart, pt) -> dict:
    """Q families from the gauge-side field strength and dual coefficients."""
    fc = decompose(chart.F_form, chart.coframe, "by-coframe", pt, chart.exact)
    p_at = antisym({key: f.value(pt) for key, f in chart.p_coeffs.items()})
    fam = psi_families(fc, p_at, chart.alg.dim)
    return {"q_full": fam["psi_full"], "q_mixed": fam["psi_mixed"], "q": fam["psi"]}


def grav_psi_q(chart: GravityChart, control_sign: int = 1) -> dict:
    """Psi on the phi side, Q on the e side, and the transport residual."""
    fields = fields_from_chart(chart)
    coframe = fields.coframe()
    alg = chart.alg
    N = alg.dim
    Phi = curvature(fields.phi, alg)
    gm = chart.gm
    report = {"transport": {}, "scalar": {}, "psi": {}, "q": {}, "max": 0}
    worst = 0
    for p in chart.probes:
        pt = tuple(p)
        pc = decompose(Phi, coframe, "by-coframe", pt, fields.exact)
        pi_at = pi_values_from_chart(chart, pt)
        psi = psi_families(pc, pi_at, N)
        q = q_families(chart, pt)
        report["psi"][pt] = psi
        report["q"][pt] = q
        # transport: Q_P^Q = (Ad*_g (x) Ad_g Psi)_P^Q
        ad = gm._Ad.jets(pt, 0)
        ad_inv = gm._Ad_inv.jets(pt, 0)
        res_t = 0
        for P in range(N):
            for Q in range(N):
                acc = 0
                for Pp in range(N):
                    for Qp in range(N):
                        w = psi["psi_mixed"][Pp][Qp]
                        if w == 0:
                            continue
                        acc += ad_inv[Pp][P].value * ad[Q][Qp].value * w
                res_t = max(res_t, abs(q["q_mixed"][P][Q] - control_sign * acc))
        res_s = abs(q["q"] - psi["psi"])
        report["transport"][pt] = res_t
        report["scalar"][pt] = res_s
        worst = max(worst, res_t, res_s)
    report["max"] = worst
    report["q_zero_rows"] = _q_l_rows_max(chart)
    return report


def _q_l_rows_max(chart: GravityChart):
    worst = 0
    for p in chart.probes:
        q = q_families(chart, tuple(p))
        for P in chart.split.l_indices:
            for Q in range(chart.alg.dim):
                worst = max(worst, abs(q["q_mixed"][P][Q]))
    return worst


def q_source_form(chart: GravityChart, pt) -> Form:
    """Q_p - 1/2 Q e^{(N-1)}_p as a dual-slot (N-1)-form at one probe."""
    q = q_families(chart, pt)
    return source_form(chart.coframe.minors(), q["q_mixed"], q["q"],
                       algebra_slot(chart.alg, dual=True))


def dAp_form(chart: GravityChart) -> Form:
    alg = chart.alg
    dual = algebra_slot(alg, dual=True)
    p_form = pi_form_from_coeffs(chart.p_coeffs, chart.coframe, alg.dim, dual)
    coad = Representation.coadjoint(alg)
    return cov_d(chart.A_form, p_form, (coad,))


def grav_fundamental_residual(chart: GravityChart) -> dict:
    """d^A p - (Q_p - 1/2 Q e^{(N-1)}) and the cross-consistency transport."""
    lhs = dAp_form(chart)
    fields = fields_from_chart(chart)
    coframe = fields.coframe()
    alg = chart.alg
    N = alg.dim
    dual = algebra_slot(alg, dual=True)
    minors_phi = coframe.minors()
    Phi = curvature(fields.phi, alg)
    pi_form = pi_form_from_coeffs_values(chart, coframe, dual)
    coad = Representation.coadjoint(alg)
    dpi = cov_d(fields.phi, pi_form, (coad,))
    gm = chart.gm

    report = {"residual": {}, "cross": {}, "max": 0}
    worst = 0
    for p in chart.probes:
        pt = tuple(p)
        defect = lhs - q_source_form(chart, pt)
        res = defect.max_abs(pt)
        report["residual"][pt] = res
        # cross-consistency: Ad*_g (r2 of the field-side EL defect) == residual
        pc = decompose(Phi, coframe, "by-coframe", pt, fields.exact)
        pi_at = pi_values_from_chart(chart, pt)
        psi = psi_families(pc, pi_at, N)
        defect_phi = dpi - source_form(minors_phi, psi["psi_mixed"], psi["psi"], dual)
        ad_dual = gm._Ad_inv.jets(pt, 0)
        lhs_vals = {(K, sk): fld.value(pt) for K, sk, fld in defect.terms()}
        cross = 0
        for K in itertools.combinations(range(N), N - 1):
            for P in range(N):
                transported = 0
                for Pp in range(N):
                    fld = defect_phi.get(K, (Pp,))
                    transported += ad_dual[Pp][P].value * fld.value(pt)
                cross = max(cross, abs(transported - lhs_vals.get((K, (P,)), 0)))
        report["cross"][pt] = cross
        worst = max(worst, abs(res), cross)
    report["max"] = worst
    return report


def pi_form_from_coeffs_values(chart: GravityChart, coframe_phi: Coframe,
                               dual) -> Form:
    """pi as a form: field-level coadjoint transport of the p form."""
    p_form = pi_form_from_coeffs(chart.p_coeffs, chart.coframe, chart.alg.dim, dual)
    return apply_matrix_to_slot(p_form, 0, chart.gm.ad_dual_inv_entry)


# ---------------------------------------------------------------------------
# the decomposition (two codegree blocks)
# ---------------------------------------------------------------------------

def theta_star_values(theta_c, s_idx, N):
    """Trace of the torsion: Theta*_A = Theta^{s}_{A s} summed over s."""
    return [sum(theta_c[(sb,)][A][sb] for sb in s_idx) for A in range(N)]


def grav_dAp_decomposition_residual(chart: GravityChart,
                                    control_sign: int = 1) -> dict:
    """Direct d^A p against the two-row closed form, with block diagnostics."""
    split = chart.split
    alg = chart.alg
    N = alg.dim
    s_idx, l_idx = split.s_indices, split.l_indices
    kappa = chart.kappa
    minors = chart.coframe.minors()
    dual = algebra_slot(alg, dual=True)
    lhs = dAp_form(chart)
    omega_frame = frame_coeffs_1form(chart.omega, chart.coframe)

    report = {"max": 0, "blocks": {}}
    worst = 0
    for p in chart.probes:
        pt = tuple(p)
        theta_c, omega_c = chart.torsion_curvature(pt)
        tstar = theta_star_values(theta_c, s_idx, N)
        w_at = {key: f.value(pt) for key, f in omega_frame.items()}
        pv, dpv = chart.p_tables(pt)

        def wv(i, B):
            return w_at.get((i, B), 0)

        def cov_term(I, L, sb):
            """(partial^omega)_sb p_I^{L sb} connection terms."""
            acc = 0
            for J in range(N):
                for m in l_idx:
                    cv = alg.c(J, m, I)
                    if cv != 0:
                        acc -= cv * wv(m, sb) * pv[J, L, sb]
            for J in range(N):
                for m in l_idx:
                    cv = alg.c(L, m, J)
                    if cv != 0:
                        acc += cv * wv(m, sb) * pv[I, J, sb]
            for J in range(N):
                for m in l_idx:
                    cv = alg.c(sb, m, J)
                    if cv != 0:
                        acc += cv * wv(m, sb) * pv[I, L, J]
            return acc

        l_rows: Dict[Tuple[int, int], object] = {}
        blocks = {"omega_kappa": 0, "cov": 0, "exact_block": 0, "theta_ring": 0}
        for I in range(N):
            for L in l_idx:
                acc = 0
                for a in s_idx:
                    for b in s_idx:
                        w = omega_c[(L,)][a][b]
                        if w != 0:
                            acc += pv[I, a, b] * w / 2
                blocks["omega_kappa"] = max(blocks["omega_kappa"], abs(acc))
                for sb in s_idx:
                    acc += dpv[I, L, sb, sb] + cov_term(I, L, sb)
                    acc += tstar[sb] * pv[I, L, sb]
                # - c^{p}_{s P} p_p^{L s}
                for sb in s_idx:
                    for J in range(N):
                        cv = alg.c(J, sb, I)
                        if cv != 0:
                            acc -= cv * pv[J, L, sb]
                for l1 in l_idx:
                    acc += dpv[I, L, l1, l1]
                for l1 in l_idx:
                    for l2 in l_idx:
                        cv = alg.c(L, l1, l2)
                        if cv != 0:
                            acc += cv * pv[I, l1, l2] / 2
                l_rows[(I, L)] = acc
        s_rows: Dict[Tuple[int, int], object] = {}
        for I in range(N):
            for S in s_idx:
                acc = 0
                for a in s_idx:
                    for b in s_idx:
                        ring = theta_c[(S,)][a][b] \
                            + (tstar[b] if S == a else 0) \
                            - (tstar[a] if S == b else 0)
                        if ring != 0:
                            acc += control_sign * pv[I, a, b] * ring / 2
                for l1 in l_idx:
                    acc += dpv[I, S, l1, l1]
                for s1 in s_idx:
                    for J in range(N):
                        cv = alg.c(J, s1, I)
                        if cv != 0:
                            acc += cv * kappa.get(J, s1, S)
                s_rows[(I, S)] = acc
        rhs = cominor_rows(minors, {**l_rows, **s_rows}, dual)
        res = (lhs - rhs).max_abs(pt)
        report["blocks"][pt] = blocks
        worst = max(worst, abs(res))
    report["max"] = worst
    return report


# ---------------------------------------------------------------------------
# generalized tensors
# ---------------------------------------------------------------------------

def theta_ring_tensor(theta_c, s_idx, N):
    """Trace-modified torsion on s: Theta-ring^c_{ab}."""
    tstar = theta_star_values(theta_c, s_idx, N)
    ring = {}
    for c in s_idx:
        for a in s_idx:
            for b in s_idx:
                v = theta_c[(c,)][a][b] \
                    + (tstar[b] if c == a else 0) - (tstar[a] if c == b else 0)
                ring[(c, a, b)] = v
    return ring


def theta_ring_invert(ring, s_idx, n: int):
    """Recover Theta^c_{ab} from the trace-modified tensor (n > 2)."""
    if n <= 2:
        raise ValueError("inversion requires n > 2")
    trace = {a: sum(ring[(d, a, d)] for d in s_idx) for a in s_idx}
    out = {}
    for c in s_idx:
        for a in s_idx:
            for b in s_idx:
                v = ring[(c, a, b)]
                if c == b:
                    v = v - trace[a] / (n - 2)
                if c == a:
                    v = v + trace[b] / (n - 2)
                out[(c, a, b)] = v
    return out


def grav_tensors(chart: GravityChart) -> dict:
    """Cartan/Einstein tensors, the ring round-trip, and the constant."""
    split = chart.split
    alg = chart.alg
    N = alg.dim
    n = split.n
    s_idx, l_idx = split.s_indices, split.l_indices
    kappa = chart.kappa
    minors = chart.coframe.minors()

    report = {"roundtrip": {}, "implicit_theta": {}, "einstein_expansion": {},
              "cartan": {}, "einstein": {}, "max": 0}
    worst = 0
    lam = None
    from .kappa import lambda_constant

    for p in chart.probes:
        pt = tuple(p)
        theta_c, omega_c = chart.torsion_curvature(pt)
        ring = theta_ring_tensor(theta_c, s_idx, N)
        if n > 2:
            back = theta_ring_invert(ring, s_idx, n)
            rt = max(abs(back[(c, a, b)] - theta_c[(c,)][a][b])
                     for c in s_idx for a in s_idx for b in s_idx)
        else:
            rt = None
        report["roundtrip"][pt] = rt
        # implicit definition: ring^{s_}_{ab} e^{(N-1)}_{s_} == Theta^{s_} ^ e^{(N-3)}_{a b s_}
        imp = 0
        for a in s_idx:
            for b in s_idx:
                if a >= b:
                    continue
                lhs = Form(N, N - 1)
                for S in s_idx:
                    v = ring[(S, a, b)]
                    if v != 0:
                        lhs = lhs + minors.minor((S,)).scale(v)
                rhs = Form(N, N - 1)
                for S in range(N):
                    row = chart.torsion.component(S)
                    if row.comps:
                        rhs = rhs + wedge(row, minors.minor((a, b, S)))
                imp = max(imp, (lhs - rhs).max_abs(pt))
        report["implicit_theta"][pt] = imp
        # implicit form of the trace-extended curvature family: for every
        # (s1, s2, s3), Omega^g ^ e^{(N-3)}_{s1 s2 s3} equals the cyclic
        # delta-extension contracted with the codegree-1 minors
        imp_o = 0
        for lI in l_idx:
            row = chart.curv_l.component(lI)
            if not row.comps:
                continue
            for s1 in s_idx:
                for s2 in s_idx:
                    for s3 in s_idx:
                        if not s1 < s2 < s3:
                            continue
                        lhs = Form(N, N - 1)
                        for S in s_idx:
                            v = (omega_c[(lI,)][s1][s2] * (1 if S == s3 else 0)
                                 + omega_c[(lI,)][s2][s3] * (1 if S == s1 else 0)
                                 + omega_c[(lI,)][s3][s1] * (1 if S == s2 else 0))
                            if v != 0:
                                lhs = lhs + minors.minor((S,)).scale(v)
                        rhs = wedge(row, minors.minor((s1, s2, s3)))
                        imp_o = max(imp_o, (lhs - rhs).max_abs(pt))
        report.setdefault("implicit_omega", {})[pt] = imp_o
        # Cartan and Einstein tensors
        cartan = {}
        for I in l_idx:
            for S in s_idx:
                acc = 0
                for a in s_idx:
                    for b in s_idx:
                        kv = kappa.get(I, a, b)
                        if kv != 0:
                            acc += kv * ring[(S, a, b)]
                cartan[(I, S)] = -acc / 2
        ricci = {}
        for a in s_idx:
            for b in s_idx:
                acc = 0
                for lI in l_idx:
                    for s1 in s_idx:
                        w = omega_c[(lI,)][s1][a]
                        if w != 0:
                            acc += w * kappa.get(lI, s1, b)
                ricci[(a, b)] = acc
        scal = sum(ricci[(a, a)] for a in s_idx)
        einstein = {key: v - (scal / 2 if key[0] == key[1] else 0)
                    for key, v in ricci.items()}
        # three-term expansion check of the Einstein tensor
        exp_res = 0
        for a in s_idx:
            for b in s_idx:
                acc = 0
                for lI in l_idx:
                    for s1 in s_idx:
                        for s2 in s_idx:
                            kv = kappa.get(lI, s1, s2)
                            if kv == 0:
                                continue
                            w = omega_c[(lI,)][s1][s2]
                            ring_o = (w * (1 if a == b else 0)
                                      + omega_c[(lI,)][s2][a] * (1 if s1 == b else 0)
                                      + omega_c[(lI,)][a][s1] * (1 if s2 == b else 0))
                            acc += kv * ring_o
                exp_res = max(exp_res, abs(einstein[(a, b)] + acc / 2))
        report["einstein_expansion"][pt] = exp_res
        report["cartan"][pt] = cartan
        report["einstein"][pt] = einstein
        worst = max(worst, imp, imp_o, exp_res, rt or 0)
    if kappa.kind == "standard":
        k_const = _deformation_constant(split)
        lam = lambda_constant("gravity", n=n, k=k_const, split=split, kappa=kappa)
    report["lambda"] = lam
    report["max"] = worst
    return report


def _deformation_constant(split: SplitAlgebra):
    """Recover k from [t_a, t_b] = -k t_{ab} (zero when the block is absent)."""
    alg = split.ambient
    a, b = split.s_indices[0], split.s_indices[1]
    for K, v in alg.c_rows(a, b).items():
        return -v
    return Fraction(0)


# ---------------------------------------------------------------------------
# Bianchi identities
# ---------------------------------------------------------------------------

def grav_bianchi_residuals(chart: GravityChart) -> dict:
    """Simple and generalized Bianchi rows on an arbitrary chart."""
    split = chart.split
    alg = chart.alg
    N = alg.dim
    n = split.n
    s_idx, l_idx = split.s_indices, split.l_indices
    kappa = chart.kappa
    omega = chart.omega
    theta = chart.theta
    Theta = chart.torsion
    Omega = chart.curv_l
    adrep = Representation.adjoint(alg)

    simple1 = cov_d(omega, Theta, (adrep,)) + bracket_wedge(alg, theta, Omega)
    simple2 = cov_d(omega, Omega, (adrep,))

    # coefficient fields for the generalized rows
    theta_f = frame_coeffs_2form(Theta, chart.coframe)
    omega_f = frame_coeffs_2form(Omega, chart.coframe)
    omega_conn = frame_coeffs_1form(omega, chart.coframe)

    def tf(S, A, B):
        return theta_f.get((S, A, B), f_zero(N))

    def of(L, A, B):
        return omega_f.get((L, A, B), f_zero(N))

    def wf(m, B):
        return omega_conn.get((m, B), f_zero(N))

    tstar_f = {A: f_add(*[tf(sb, A, sb) for sb in s_idx]) for A in range(N)}
    ring_f = {}
    for c in s_idx:
        for a in s_idx:
            for b in s_idx:
                parts = [tf(c, a, b)]
                if c == a:
                    parts.append(tstar_f[b])
                if c == b:
                    parts.append(f_scale(tstar_f[a], -1))
                ring_f[(c, a, b)] = f_add(*parts)
    cartan_f = {}
    for I in l_idx:
        for S in s_idx:
            parts = []
            for a in s_idx:
                for b in s_idx:
                    kv = kappa.get(I, a, b)
                    if kv != 0:
                        parts.append(f_scale(ring_f[(S, a, b)], kv))
            cartan_f[(I, S)] = f_scale(f_add(*parts), Fraction(-1, 2)) if parts \
                else f_zero(N)
    ricci_f = {}
    for a in s_idx:
        for b in s_idx:
            parts = []
            for lI in l_idx:
                for s1 in s_idx:
                    kv = kappa.get(lI, s1, b)
                    if kv != 0:
                        parts.append(f_scale(of(lI, s1, a), kv))
            ricci_f[(a, b)] = f_add(*parts) if parts else f_zero(N)
    scal_f = f_add(*[ricci_f[(a, a)] for a in s_idx])
    einstein_f = {}
    for a in s_idx:
        for b in s_idx:
            if a == b:
                einstein_f[(a, b)] = f_add(ricci_f[(a, b)],
                                           f_scale(scal_f, Fraction(-1, 2)))
            else:
                einstein_f[(a, b)] = ricci_f[(a, b)]

    def cov_partial_cartan(I, S, B):
        """(partial^omega_B Cartan)_I^S for the (l*, s) index pair."""
        parts = [frame_partial_field(chart.coframe, cartan_f[(I, S)], B)]
        for J in l_idx:
            for m in l_idx:
                cv = alg.c(J, m, I)
                if cv != 0:
                    parts.append(f_scale(f_mul(wf(m, B), cartan_f[(J, S)]), -cv))
        for m in l_idx:
            for sp in s_idx:
                cv = alg.c(S, m, sp)
                if cv != 0:
                    parts.append(f_scale(f_mul(wf(m, B), cartan_f[(I, sp)]), cv))
        return f_add(*parts)

    def cov_partial_einstein(a, b, B):
        parts = [frame_partial_field(chart.coframe, einstein_f[(a, b)], B)]
        for sp in s_idx:
            for m in l_idx:
                cv = alg.c(sp, m, a)
                if cv != 0:
                    parts.append(f_scale(f_mul(wf(m, B), einstein_f[(sp, b)]), -cv))
        for m in l_idx:
            for sp in s_idx:
                cv = alg.c(b, m, sp)
                if cv != 0:
                    parts.append(f_scale(f_mul(wf(m, B), einstein_f[(a, sp)]), cv))
        return f_add(*parts)

    report = {"simple": {}, "row1": {}, "row2": {}, "max": 0}
    worst = 0
    for p in chart.probes:
        pt = tuple(p)
        s1 = simple1.max_abs(pt)
        s2 = simple2.max_abs(pt)
        report["simple"][pt] = max(s1, s2)
        r1 = 0
        for I in l_idx:
            parts = []
            for S in s_idx:
                parts.append(cov_partial_cartan(I, S, S))
                parts.append(f_mul(tstar_f[S], cartan_f[(I, S)]))
            acc = f_add(*parts).value(pt)
            for s0 in s_idx:
                for sb in s_idx:
                    cv = alg.c(s0, I, sb)
                    if cv != 0:
                        acc += cv * einstein_f[(s0, sb)].value(pt)
            r1 = max(r1, abs(acc))
        report["row1"][pt] = r1
        r2 = 0
        for a in s_idx:
            parts = []
            for S in s_idx:
                parts.append(cov_partial_einstein(a, S, S))
                parts.append(f_mul(tstar_f[S], einstein_f[(a, S)]))
            acc = f_add(*parts).value(pt)
            for s0 in s_idx:
                for s1b in s_idx:
                    tv = tf(s0, a, s1b).value(pt)
                    if tv != 0:
                        acc -= tv * einstein_f[(s0, s1b)].value(pt)
            for l0 in l_idx:
                for s1b in s_idx:
                    ov = of(l0, a, s1b).value(pt)
                    if ov != 0:
                        acc -= ov * cartan_f[(l0, s1b)].value(pt)
            r2 = max(r2, abs(acc))
        report["row2"][pt] = r2
        worst = max(worst, max(s1, s2), r1, r2)
    report["max"] = worst
    return report


# ---------------------------------------------------------------------------
# commutators and conservation
# ---------------------------------------------------------------------------

def grav_commutator_residuals(chart: GravityChart, test_count: int = 2) -> dict:
    """All three commutation rows applied to random test scalars."""
    split = chart.split
    alg = chart.alg
    N = alg.dim
    s_idx, l_idx = split.s_indices, split.l_indices
    rng = chart.rng
    omega_conn = frame_coeffs_1form(chart.omega, chart.coframe)

    def wf(m, B):
        return omega_conn.get((m, B), f_zero(N))

    report = {"rows": {}, "max": 0}
    worst = 0
    for _ in range(test_count):
        f = rng.poly(N, deg=2, terms=3)
        df = {A: frame_partial_field(chart.coframe, f, A) for A in range(N)}
        for p in chart.probes:
            pt = tuple(p)
            theta_c, omega_c = chart.torsion_curvature(pt)
            dfv = {A: df[A].value(pt) for A in range(N)}
            row1 = 0
            for a in s_idx:
                for b in s_idx:
                    if a >= b:
                        continue
                    lhs = (frame_partial_field(chart.coframe, df[b], a)
                           .value(pt)
                           - frame_partial_field(chart.coframe, df[a], b)
                           .value(pt))
                    rhs = 0
                    for S in s_idx:
                        rhs -= theta_c[(S,)][a][b] * dfv[S]
                    for L in l_idx:
                        rhs -= omega_c[(L,)][a][b] * dfv[L]
                    for S in s_idx:
                        for m in l_idx:
                            cv = alg.c(S, m, b)
                            if cv != 0:
                                rhs += cv * wf(m, a).value(pt) * dfv[S]
                            cv = alg.c(S, m, a)
                            if cv != 0:
                                rhs -= cv * wf(m, b).value(pt) * dfv[S]
                    row1 = max(row1, abs(lhs - rhs))
            row2 = 0
            for a in s_idx:
                for i in l_idx:
                    lhs = (frame_partial_field(chart.coframe, df[i], a)
                           .value(pt)
                           - frame_partial_field(chart.coframe, df[a], i)
                           .value(pt))
                    rhs = 0
                    for L in l_idx:
                        for m in l_idx:
                            cv = alg.c(L, m, i)
                            if cv != 0:
                                rhs += cv * wf(m, a).value(pt) * dfv[L]
                    row2 = max(row2, abs(lhs - rhs))
            row3 = 0
            for i in l_idx:
                for j in l_idx:
                    if i >= j:
                        continue
                    lhs = (frame_partial_field(chart.coframe, df[j], i)
                           .value(pt)
                           - frame_partial_field(chart.coframe, df[i], j)
                           .value(pt))
                    rhs = 0
                    for L in l_idx:
                        cv = alg.c(L, i, j)
                        if cv != 0:
                            rhs -= cv * dfv[L]
                    row3 = max(row3, abs(lhs - rhs))
            rows = {"row1": row1, "row2": row2, "row3": row3}
            report["rows"][(pt, id(f))] = rows
            worst = max(worst, row1, row2, row3)
    report["max"] = worst
    return report


def grav_T_conservation_residual(chart: GravityChart,
                                 control_sign: int = 1) -> dict:
    """T tensor, the conservation defect, the double-derivative lemma, and
    the derivation-chain check (d of the hidden-field defect equals the
    conservation expression; an identity for arbitrary charts)."""
    split = chart.split
    alg = chart.alg
    N = alg.dim
    s_idx, l_idx = split.s_indices, split.l_indices
    minors = chart.coframe.minors()
    dual = algebra_slot(alg, dual=True)
    omega_conn = frame_coeffs_1form(chart.omega, chart.coframe)
    p_full = antisym(chart.p_coeffs)

    def wf(m, B):
        return omega_conn.get((m, B), f_zero(N))

    def p_field(I, A, B):
        fld = p_full.get((I, A, B))
        return fld if fld is not None else f_zero(N)

    # T_P^a = sum_l frame-partial_l p_P^{a l}
    T_fields: Dict[Tuple[int, int], object] = {}
    for P in range(N):
        for a in s_idx:
            parts = []
            for L in l_idx:
                fld = p_full.get((P, a, L))
                if fld is None:
                    continue
                parts.append(frame_partial_field(chart.coframe, fld, L))
            T_fields[(P, a)] = f_add(*parts) if parts else f_zero(N)

    def cov_T(P, a, B):
        """partial^omega_B T_P^a."""
        parts = [frame_partial_field(chart.coframe, T_fields[(P, a)], B)]
        for J in range(N):
            for m in l_idx:
                cv = alg.c(J, m, P)
                if cv != 0:
                    parts.append(f_scale(f_mul(wf(m, B), T_fields[(J, a)]), -cv))
        for m in l_idx:
            for sp in s_idx:
                cv = alg.c(a, m, sp)
                if cv != 0:
                    parts.append(f_scale(f_mul(wf(m, B), T_fields[(P, sp)]), cv))
        return f_add(*parts)

    def cov_inner(P, L):
        """partial^omega_s p_P^{s L} summed over s (fields)."""
        parts = []
        for sb in s_idx:
            parts.append(frame_partial_field(chart.coframe, p_field(P, sb, L), sb))
            for J in range(N):
                for m in l_idx:
                    cv = alg.c(J, m, P)
                    if cv != 0:
                        parts.append(f_scale(f_mul(wf(m, sb), p_field(J, sb, L)), -cv))
            for m in l_idx:
                for l2 in l_idx:
                    cv = alg.c(L, m, l2)
                    if cv != 0:
                        parts.append(f_scale(f_mul(wf(m, sb), p_field(P, sb, l2)), cv))
            for m in l_idx:
                for s2 in s_idx:
                    cv = alg.c(sb, m, s2)
                    if cv != 0:
                        parts.append(f_scale(f_mul(wf(m, sb), p_field(P, s2, L)), cv))
        return f_add(*parts) if parts else f_zero(N)

    report = {"T": {}, "defect": {}, "lemma": {}, "chain": {}, "max_lemma": 0,
              "max_chain": 0, "max_defect": 0}
    for p in chart.probes:
        pt = tuple(p)
        theta_c, omega_c = chart.torsion_curvature(pt)
        tstar = theta_star_values(theta_c, s_idx, N)
        t_at = {key: f.value(pt) for key, f in T_fields.items()}
        report["T"][pt] = dict(t_at)
        # lemma: sum_l frame-partial_l (cov_inner) == sum_s cov_T with a = s
        lem = 0
        for P in range(N):
            lhs = 0
            for L in l_idx:
                lhs += frame_partial_field(chart.coframe, cov_inner(P, L), L) \
                    .value(pt)
            rhs = sum(cov_T(P, a, a).value(pt) for a in s_idx)
            lem = max(lem, abs(lhs - control_sign * rhs))
        report["lemma"][pt] = lem
        report["max_lemma"] = max(report["max_lemma"], lem)
        # conservation defect rows
        defect = {}
        for P in range(N):
            acc = sum(cov_T(P, a, a).value(pt) for a in s_idx)
            acc += sum(tstar[a] * t_at[(P, a)] for a in s_idx)
            for s0 in s_idx:
                for sb in s_idx:
                    cv = alg.c(s0, P, sb)
                    if cv != 0:
                        acc += cv * t_at[(s0, sb)]
            for s0 in s_idx:
                for s1 in s_idx:
                    acc -= theta_c[(s0,)][P][s1] * t_at[(s0, s1)]
            for l0 in l_idx:
                for s1 in s_idx:
                    acc -= omega_c[(l0,)][P][s1] * t_at[(l0, s1)]
            defect[P] = acc
        report["defect"][pt] = defect
        report["max_defect"] = max(report["max_defect"],
                                   max(abs(v) for v in defect.values()))
        # derivation chain: coefficient of d(hidden-field defect form)
        def_form = Form(N, N - 1, (dual,))
        for P in range(N):
            for L in l_idx:
                parts = []
                for a in s_idx:
                    for b in s_idx:
                        w = omega_c[(L,)][a][b]
                        if w != 0:
                            parts.append(f_scale(p_field(P, a, b), w / 2))
                # (d^omega_s + Theta*_s) p_P^{L s}; cov_inner uses p^{s L}
                parts.append(f_scale(cov_inner(P, L), -1))
                for sb in s_idx:
                    parts.append(f_scale(p_field(P, L, sb), tstar[sb]))
                for s0 in s_idx:
                    for sb in s_idx:
                        cv = alg.c(s0, P, sb)
                        if cv != 0:
                            parts.append(f_scale(p_field(s0, L, sb), cv))
                # minus the right hand side sources
                for s0 in s_idx:
                    for s1 in s_idx:
                        tv = theta_c[(s0,)][P][s1]
                        if tv != 0:
                            parts.append(f_scale(p_field(s0, L, s1), -tv))
                for l0 in l_idx:
                    for s1 in s_idx:
                        ov = omega_c[(l0,)][P][s1]
                        if ov != 0:
                            parts.append(f_scale(p_field(l0, L, s1), -ov))
                coeff = f_add(*parts) if parts else f_zero(N)
                for K, _, mf in minors.minor((L,)).terms():
                    def_form.add_term(K, (P,), f_mul(coeff, mf))
        def_form._finalize()
        # add the -(-1/2 Q delta) = +1/2 Q delta_P^L row (Q is y-independent)
        qv = _q_scalar(chart, pt, theta_c, omega_c)
        for L in l_idx:
            for K, _, mf in minors.minor((L,)).terms():
                def_form.add_term(K, (L,), f_scale(mf, qv / 2))
        def_form._finalize()
        dd = exterior_d(def_form)
        top = tuple(range(N))
        det = minors.top.get(top).value(pt)
        chain = 0
        for P in range(N):
            fld = dd.get(top, (P,))
            # the defect rows carry the opposite orientation of the d-image
            chain = max(chain, abs(fld.value(pt) / det + defect[P]))
        report["chain"][pt] = chain
        report["max_chain"] = max(report["max_chain"], chain)
    return report


def _q_scalar(chart: GravityChart, pt, theta_c, omega_c):
    """Q = Theta kappa + (Omega + c) kappa, the contracted source scalar."""
    split = chart.split
    alg = chart.alg
    kappa = chart.kappa
    s_idx, l_idx = split.s_indices, split.l_indices
    acc = 0
    for s1 in s_idx:
        for s2 in s_idx:
            for S0 in s_idx:
                kv = kappa.get(S0, s1, s2)
                if kv != 0:
                    acc += theta_c[(S0,)][s1][s2] * kv
            for L0 in l_idx:
                kv = kappa.get(L0, s1, s2)
                if kv != 0:
                    acc += (omega_c[(L0,)][s1][s2] + alg.c(L0, s1, s2)) * kv
    return acc


def q_scalar_consistency(chart: GravityChart) -> object:
    """Q from Theta/Omega/c agrees with the F-based definition."""
    worst = 0
    for p in chart.probes:
        pt = tuple(p)
        theta_c, omega_c = chart.torsion_curvature(pt)
        q1 = _q_scalar(chart, pt, theta_c, omega_c)
        q2 = q_families(chart, pt)["q"]
        worst = max(worst, abs(q1 - q2))
    return worst
