"""Verification suite registry: deterministic seeded cases with machine-
readable reports.

Every suite maps a SuiteConfig to a list of cases, each with its own
derived seed and a max-norm residual; the report passes iff every case
does.  The ``corruption`` hook feeds deliberately broken inputs through
the same code paths so that vacuously-green suites are detectable.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from . import algebra as la
from . import kappa as ka
from .algebra import SplitAlgebra, build_algebra, central_extension, corrupt_algebra
from .charts import Rng
from .forms import Coframe, Form, exterior_d, wedge
from .scalars import Polynomial


@dataclass
class SuiteConfig:
    suite: str
    n: int = 3
    r: Optional[int] = None
    algebra: Optional[str] = None
    kappa: str = "standard"
    backend: str = "rational"
    seed: int = 42
    cases: int = 25
    tol: float = 1e-9
    jet_order: int = 3
    corruption: Optional[str] = None
    algebra_path: Optional[str] = None

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.cases < 1:
            raise ValueError("case count must be at least 1")
        if self.backend not in ("rational", "float"):
            raise ValueError("backend must be rational or float")
        if not 0 <= self.jet_order <= 3:
            raise ValueError("jet order cap must lie in [0, 3]")

    @property
    def exact(self) -> bool:
        return self.backend == "rational"


def case_seed(master: int, case_id: int) -> int:
    digest = hashlib.sha256(f"{master}:{case_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def kappa_spec(config: SuiteConfig):
    if config.kappa == "standard":
        return "standard", None
    if config.kappa.startswith("holst"):
        gamma = Fraction(config.kappa.split(":", 1)[1]) if ":" in config.kappa \
            else Fraction(2)
        return "holst", gamma
    raise ValueError(f"unknown kappa kind {config.kappa!r}")


def resolve_algebra(config: SuiteConfig, default: str):
    if config.algebra_path:
        from .algebra_io import load_algebra

        alg = load_algebra(config.algebra_path)
    else:
        alg = build_algebra(config.algebra or default)
    if config.corruption == "structure":
        if isinstance(alg, SplitAlgebra):
            broken = corrupt_algebra(alg.ambient, config.seed)
            alg = SplitAlgebra(broken, alg.s_indices, alg.l_indices,
                               alg.b_diag, alg.k_diag, alg.flags)
        else:
            alg = corrupt_algebra(alg, config.seed)
    return alg


def gauge_split(config: SuiteConfig, fiber: str = "su2") -> SplitAlgebra:
    inner = resolve_algebra(
        SuiteConfig(suite=config.suite, corruption=config.corruption,
                    seed=config.seed, algebra=config.algebra or fiber,
                    algebra_path=config.algebra_path),
        fiber)
    if isinstance(inner, SplitAlgebra):
        return inner
    return central_extension(inner, config.n,
                             b_diag=la.euclidean_diag(config.n))


SIGN_FLIP = {"sign"}


def _sign(config: SuiteConfig):
    return -1 if config.corruption in SIGN_FLIP else 1


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------

def suite_forms_identities(config: SuiteConfig) -> List[dict]:
    cases = []
    dims = [3, 4, 5, 6]
    for cid in range(config.cases):
        seed = case_seed(config.seed, cid)
        rng = Rng(seed, config.exact)
        N = dims[cid % len(dims)] if config.n == 0 else config.n
        probe = tuple(rng.scalar(-2, 2) for _ in range(N))
        entries = []
        for A in range(N):
            row = []
            for k in range(N):
                base = Fraction(1 if A == k else 0)
                if not config.exact:
                    base = float(base)
                fld = Polynomial.constant(base, N) + rng.vanishing_poly(N, [probe], list(range(N)))
                row.append(fld)
            entries.append(row)
        cf = Coframe(entries, probes=[probe], exact=config.exact)
        mins = cf.minors()
        flip = _sign(config)
        top = mins.top if flip > 0 else mins.top.scale(-1)
        res = 0
        picks = [(rng.rng.randrange(N), rng.rng.randrange(N),
                  rng.rng.randrange(N), rng.rng.randrange(N)) for _ in range(10)]
        picks.append((0, 0, 1, 2))
        picks.append((1, 0, 1, 2))
        for (A, Ap, Bp, Cp) in picks:
            lhs = wedge(cf.one_form(A), mins.minor((Ap,)))
            rhs = top.scale(1 if A == Ap else 0)
            res = max(res, abs((lhs - rhs).max_abs(probe)))
            if Ap != Bp:
                lhs = wedge(cf.one_form(A), mins.minor((Ap, Bp)))
                rhs = Form(N, N - 1)
                if A == Bp:
                    rhs = rhs + mins.minor((Ap,))
                if A == Ap:
                    rhs = rhs - mins.minor((Bp,))
                res = max(res, abs((lhs - rhs).max_abs(probe)))
                B2 = Cp
                lhs = wedge(wedge(cf.one_form(A), cf.one_form(B2)), mins.minor((Ap, Bp)))
                dd = ((1 if (A, B2) == (Ap, Bp) else 0)
                      - (1 if (A, B2) == (Bp, Ap) else 0))
                res = max(res, abs((lhs - top.scale(dd)).max_abs(probe)))
            if len({Ap, Bp, Cp}) == 3:
                lhs = wedge(cf.one_form(A), mins.minor((Ap, Bp, Cp)))
                rhs = Form(N, N - 2)
                if A == Cp:
                    rhs = rhs + mins.minor((Ap, Bp))
                if A == Bp:
                    rhs = rhs + mins.minor((Cp, Ap))
                if A == Ap:
                    rhs = rhs + mins.minor((Bp, Cp))
                res = max(res, abs((lhs - rhs).max_abs(probe)))
        # (deAB) rows: codegree 1 and 2
        A = rng.rng.randrange(N)
        lhs = exterior_d(mins.minor((A,))).scale(flip)
        rhs = Form(N, N)
        for B in range(N):
            if B != A:
                rhs = rhs + wedge(exterior_d(cf.one_form(B)), mins.minor((A, B)))
        res = max(res, abs((lhs - rhs).max_abs(probe)))
        B = (A + 1) % N
        lhs = exterior_d(mins.minor((A, B)))
        rhs = Form(N, N - 1)
        for C in range(N):
            if C not in (A, B):
                rhs = rhs + wedge(exterior_d(cf.one_form(C)), mins.minor((A, B, C)))
        res = max(res, abs((lhs - rhs).max_abs(probe)))
        cases.append(_case(cid, seed, res, config))
    return cases


def suite_lie_checks(config: SuiteConfig) -> List[dict]:
    cases = []
    catalog = ["p_0(3)", "p_0(4)", "p_1(4)", "p_-1(4)", "su2", "u1"]
    for cid in range(config.cases):
        seed = case_seed(config.seed, cid)
        name = (config.algebra or catalog[cid % len(catalog)])
        sub = SuiteConfig(suite=config.suite, algebra=name, seed=config.seed,
                          corruption=config.corruption,
                          algebra_path=config.algebra_path)
        alg = resolve_algebra(sub, name)
        split = alg if isinstance(alg, SplitAlgebra) else None
        ambient = split.ambient if split else alg
        rep = la.check_algebra(ambient, split)
        res = abs(rep["jacobi_residual"])
        if not rep["unimodular_ambient"]:
            res = max(res, 1)
        if split is not None:
            for key in ("unimodular_sub", "reductive_ok", "symmetric_ok"):
                if not rep[key]:
                    res = max(res, 1)
        # spot values of the p_k(n) table, for catalog algebras only
        if (split is not None and config.algebra_path is None
                and name.startswith("p_") and config.corruption is None):
            n = split.n
            h = split.b_diag
            pair01 = n  # index of t_{[0,1]}
            res = max(res, abs(ambient.c(0, pair01, 1) - h[1]))
            res = max(res, abs(ambient.c(1, pair01, 0) + h[0]))
        cases.append(_case(cid, seed, res, config))
    return cases


def suite_kappa(config: SuiteConfig) -> List[dict]:
    cases = []
    for cid in range(config.cases):
        seed = case_seed(config.seed, cid)
        name = config.algebra or ("p_1(4)" if cid % 2 else "p_0(4)")
        split = resolve_algebra(
            SuiteConfig(suite=config.suite, algebra=name, seed=config.seed,
                        corruption=config.corruption), name)
        kind, gamma = kappa_spec(config)
        kap = ka.build_kappa(kind, split, gamma=gamma)
        res = ka.kappa_invariance_residual(split, kap, samples=10, seed=seed)
        if config.corruption is None:
            if kind == "holst":
                factor = ka.holst_kernel_factor(1j, split.b_diag)
                res = max(res, abs(factor))
                if ka.kappa_kernel_rank(ka.build_kappa("holst", split, gamma=1j)) >= 6:
                    res = max(res, 1.0)
            if ka.kappa_kernel_rank(kap) < len(split.l_indices):
                res = max(res, 1.0)
        cases.append(_case(cid, seed, res, config))
    return cases


def suite_gauge_lemmas(config: SuiteConfig) -> List[dict]:
    from .connection import (GroupMap, Representation, algebra_slot,
                             bracket_wedge, cov_d, curvature, gauge_transform,
                             adjoint_transport, coadjoint_transport,
                             maurer_cartan_form, maurer_cartan_residual)
    from .forms import contracted_wedge

    cases = []
    for cid in range(config.cases):
        seed = case_seed(config.seed, cid)
        rng = Rng(seed, config.exact)
        name = config.algebra or ("su2" if cid % 2 == 0 else "p_0(3)")
        alg = resolve_algebra(
            SuiteConfig(suite=config.suite, algebra=name, seed=config.seed,
                        corruption=config.corruption), name)
        if isinstance(alg, SplitAlgebra):
            alg = alg.ambient
        n = alg.dim
        probe = tuple(rng.scalar(-1, 1) for _ in range(n))
        eta = [rng.vanishing_poly(n, [probe], list(range(n))) for _ in range(n)]
        gm = GroupMap(alg, eta, n, exact=config.exact)
        slot = algebra_slot(alg)
        adrep = Representation.adjoint(alg)
        coad = adrep.dual()

        def rand_alg_form(degree=1):
            # sparse population keeps the 6-dim cases inside the time budget
            out = Form(n, degree, (slot,))
            keys = [(k,) for k in range(n)] if degree == 1 else [()]
            budget = 2 * n if n > 3 else n * n
            filled = 0
            for key in keys:
                for i in range(n):
                    if n > 3 and (rng.rng.random() > budget / (n * n)):
                        continue
                    out.add_term(key, (i,), rng.poly(n, deg=2, terms=2))
                    filled += 1
            if filled == 0:
                out.add_term(keys[0], (0,), rng.poly(n, deg=2, terms=2))
            return out._finalize()

        theta = rand_alg_form()
        a_form = gauge_transform(gm, theta)
        res = abs((curvature(a_form, alg)
                   - adjoint_transport(gm, curvature(theta, alg))).max_abs(probe))
        phi = rand_alg_form()
        res = max(res, abs((cov_d(a_form, adjoint_transport(gm, phi), (adrep,))
                            - adjoint_transport(gm, cov_d(theta, phi, (adrep,))))
                           .max_abs(probe)))
        pi = Form(n, 1, (slot.dual_slot(),))
        for k in range(n):
            for i in range(n):
                if n > 3 and rng.rng.random() > 0.4:
                    continue
                pi.add_term((k,), (i,), rng.poly(n, deg=2, terms=2))
        pi._finalize()
        res = max(res, abs((cov_d(a_form, coadjoint_transport(gm, pi), (coad,))
                            - coadjoint_transport(gm, cov_d(theta, pi, (coad,))))
                           .max_abs(probe)))
        e = adjoint_transport(gm, theta)
        om = e - gm.right_log_derivative()
        res = max(res, abs((cov_d(om, e, (adrep,)) - curvature(om, alg)
                            - bracket_wedge(alg, e, e).scale(Fraction(1, 2)))
                           .max_abs(probe)))
        # minor Leibniz with the adjoint (unimodular) representation
        entries = [[_one_or_zero(A, k, n, config.exact)
                    + rng.vanishing_poly(n, [probe], list(range(n)))
                    for k in range(n)] for A in range(n)]
        cf = Coframe(entries, probes=[probe], exact=config.exact)
        mins = cf.minors()
        e_form = Form(n, 1, (slot,))
        for A in range(n):
            for k in range(n):
                e_form.add_term((k,), (A,), entries[A][k])
        e_form._finalize()
        omega = rand_alg_form()
        dwe = cov_d(omega, e_form, (adrep,))
        m1 = mins.minor_form(1, slot)
        m2 = mins.minor_form(2, slot)
        res = max(res, abs((cov_d(omega, m1, (coad,)).scale(_sign(config))
                            - contracted_wedge(dwe, m2, [(0, 1)])).max_abs(probe)))
        if cid % 5 == 0:
            m3 = mins.minor_form(3, slot)
            res = max(res, abs((cov_d(omega, m2, (coad, coad))
                                - contracted_wedge(dwe, m3, [(0, 2)])).max_abs(probe)))
        # Maurer-Cartan residual of the dexp-built form
        res = max(res, abs(maurer_cartan_residual(maurer_cartan_form(gm), alg, [probe])))
        cases.append(_case(cid, seed, res, config))
    return cases


def _one_or_zero(A, k, n, exact):
    v = Fraction(1 if A == k else 0)
    return Polynomial.constant(v if exact else float(v), n)


def suite_ym_el(config: SuiteConfig) -> List[dict]:
    """Vacuum charts with a pinned pi^{ss} perturbation: every residual
    block must match its closed-form prediction exactly."""
    from .connection import algebra_slot
    from .ym import YMFields, ym_el_residuals

    cases = []
    for cid in range(config.cases):
        seed = case_seed(config.seed, cid)
        rng = Rng(seed, config.exact)
        split = gauge_split(config, "u1")
        alg = split.ambient
        n = split.n
        N = alg.dim
        slot = algebra_slot(alg)
        one = Fraction(1) if config.exact else 1.0
        beta = Form(N, 1, (slot,))
        for pos, a in enumerate(split.s_indices):
            beta.add_term((pos,), (a,), Polynomial.constant(one, N))
        beta._finalize()
        theta = Form(N, 1, (slot,))
        for pos, i in enumerate(split.l_indices):
            theta.add_term((n + pos,), (i,), Polynomial.constant(one, N))
        theta._finalize()
        probes = [tuple(Fraction(0) if config.exact else 0.0 for _ in range(N))]
        mag = rng.nonzero_scalar(-2, 2)
        i0 = split.l_indices[0]
        a0, b0 = split.s_indices[0], split.s_indices[1]
        pi = {(i0, a0, b0): Polynomial.constant(mag, N)}
        fields = YMFields(split, n, beta, theta, pi, probes, config.exact)
        rep = ym_el_residuals(fields)
        # a sign corruption models an error in the oracle prediction
        low = mag * _sign(config) * split.b_diag[0] * split.b_diag[1] / split.k_diag[0]
        res = 0
        for (i, a, b, p), v in rep["r_pi_ss"].items():
            want = low if (i, a, b) == (i0, a0, b0) else 0
            res = max(res, abs(v - want))
        for v in rep["r_pi_sg"].values():
            res = max(res, abs(v))
        for v in rep["r_pi_gg"].values():
            res = max(res, abs(v))
        norm2 = mag * low
        for p, v in rep["r_theta"].items():
            res = max(res, abs(v - abs(norm2) / 2))
        cases.append(_case(cid, seed, res, config))
    return cases


def suite_ym_maxwell(config: SuiteConfig) -> List[dict]:
    from .ym import maxwell_scenario, maxwell_q_transport_residual

    cases = []
    for cid in range(config.cases):
        seed = case_seed(config.seed, cid)
        rng = Rng(seed, config.exact)
        strength = rng.scalar(-3, 3) * _sign(config)
        rep = maxwell_scenario(strength if config.exact else float(strength),
                               seed=seed)
        res = max(abs(rep["elvarpi_residual"]), abs(rep["el_a_residual"]),
                  abs(rep["el_b_residual"]), abs(rep["maxwell_residual"]),
                  rep["fiber_average_demo"])
        if config.corruption in SIGN_FLIP:
            res = max(res, abs(rep["d_mu_p"] + rep["norm2"] / 2 + strength ** 2))
        if cid == 0 and config.corruption is None:
            res = max(res, abs(maxwell_q_transport_residual(seed)))
        cases.append(_case(cid, seed, res, config))
    return cases


def suite_ym_decomp(config: SuiteConfig) -> List[dict]:
    from .ym import build_ym_chart, ym_dAp_identity_residual

    cases = []
    for cid in range(config.cases):
        seed = case_seed(config.seed, cid)
        n = config.n if config.n else (2, 3, 4)[cid % 3]
        sub = SuiteConfig(suite=config.suite, n=n, seed=config.seed,
                          algebra=config.algebra, corruption=config.corruption)
        split = gauge_split(sub, "su2" if cid % 3 != 2 else "u1")
        chart = build_ym_chart(split, n, seed=seed,
                               curved_base=(cid % 2 == 1), exact=config.exact,
                               probe_count=1)
        rep = ym_dAp_identity_residual(chart, control_sign=_sign(config))
        cases.append(_case(cid, seed, rep["max"], config))
    return cases


def suite_kk_el(config: SuiteConfig) -> List[dict]:
    """Flat abelian vacuum where only the Lambda term can survive."""
    from .connection import algebra_slot
    from .kk import KKFields, kk_el_residuals

    cases = []
    for cid in range(config.cases):
        seed = case_seed(config.seed, cid)
        rng = Rng(seed, config.exact)
        split = gauge_split(config, "u1")
        alg = split.ambient
        N = alg.dim
        slot = algebra_slot(alg)
        theta = Form(N, 1, (slot,))
        for A in range(N):
            theta.add_term((A,), (A,), Polynomial.constant(
                Fraction(1) if config.exact else 1.0, N))
        theta._finalize()
        phi = Form(N, 1, (slot, slot.dual_slot()))
        lam = rng.nonzero_scalar(-2, 2)
        probes = [tuple(Fraction(0) if config.exact else 0.0 for _ in range(N))]
        fields = KKFields(split, theta, phi, {}, lam, probes, config.exact)
        rep = kk_el_residuals(fields)
        predicted = abs(lam) * _sign(config)
        res = max(abs(rep["einstein"][p] - predicted) for p in rep["einstein"])
        res = max(res, max(rep["frobenius"].values()),
                  max(rep["torsion_free"].values()))
        cases.append(_case(cid, seed, res, config))
    return cases


def suite_kk_lc(config: SuiteConfig) -> List[dict]:
    from .kk import build_kk_chart, kk_lc_connection

    cases = []
    for cid in range(config.cases):
        seed = case_seed(config.seed, cid)
        split = gauge_split(config, "u1" if cid % 2 == 0 else "su2")
        chart = build_kk_chart(split, config.n, seed=seed, exact=config.exact,
                               probe_count=1, constant_F=(cid % 3 == 0))
        _, rep = kk_lc_connection(chart, control_sign=_sign(config))
        cases.append(_case(cid, seed, rep["max"], config))
    return cases


def suite_kk_curvature(config: SuiteConfig) -> List[dict]:
    from .kk import build_kk_chart, kk_curvature_report

    cases = []
    for cid in range(config.cases):
        seed = case_seed(config.seed, cid)
        split = gauge_split(config, "u1" if cid % 2 == 0 else "su2")
        chart = build_kk_chart(split, config.n, seed=seed, exact=config.exact,
                               probe_count=1, constant_F=(cid % 2 == 0),
                               curved_base=(config.n == 2 and cid % 3 == 2))
        rep = kk_curvature_report(chart, control_sign=_sign(config))
        cases.append(_case(cid, seed, rep["max"], config))
    return cases


def suite_kk_decomp(config: SuiteConfig) -> List[dict]:
    from .kk import build_kk_chart, kk_dAp_identity_residual

    cases = []
    for cid in range(config.cases):
        seed = case_seed(config.seed, cid)
        n = config.n if config.n else (2, 3, 4)[cid % 3]
        sub = SuiteConfig(suite=config.suite, n=n, seed=config.seed,
                          algebra=config.algebra, corruption=config.corruption)
        split = gauge_split(sub, "su2" if cid % 3 != 2 else "u1")
        chart = build_kk_chart(split, n, seed=seed, exact=config.exact,
                               probe_count=1)
        rep = kk_dAp_identity_residual(chart, control_sign=_sign(config))
        cases.append(_case(cid, seed, rep["max"], config))
    return cases


class BrokenChartInput(Exception):
    """A corrupted input was rejected at chart certification time."""


def _grav_setup(config: SuiteConfig, cid: int, seed: int, small_only=False):
    from .gravity import ChartInvariantError, build_gravity_chart

    name = config.algebra or ("p_0(3)" if (small_only or cid % 5 != 4) else "p_1(4)")
    split = resolve_algebra(
        SuiteConfig(suite=config.suite, algebra=name, seed=config.seed,
                    corruption=config.corruption), name)
    kind, gamma = kappa_spec(config)
    if kind == "holst" and split.n != 4:
        kind, gamma = "standard", None
    kap = ka.build_kappa(kind, split, gamma=gamma)
    try:
        chart = build_gravity_chart(split, kap, seed=seed, exact=config.exact,
                                    probe_count=1)
    except ChartInvariantError as exc:
        raise BrokenChartInput(str(exc)) from exc
    return split, kap, chart


def suite_grav_el(config: SuiteConfig) -> List[dict]:
    from .gravity import fields_from_chart, grav_el_residuals, grav_psi_q

    cases = []
    for cid in range(config.cases):
        seed = case_seed(config.seed, cid)
        split, kap, chart = _grav_setup(config, cid, seed, small_only=True)
        fields = fields_from_chart(chart)
        rep = grav_el_residuals(fields)
        res = rep["max_r1"]
        q = grav_psi_q(chart, control_sign=_sign(config))
        res = max(res, q["max"], q["q_zero_rows"])
        cases.append(_case(cid, seed, res, config))
    return cases


def suite_grav_decomp(config: SuiteConfig) -> List[dict]:
    from .gravity import grav_dAp_decomposition_residual

    cases = []
    for cid in range(config.cases):
        seed = case_seed(config.seed, cid)
        split, kap, chart = _grav_setup(config, cid, seed)
        rep = grav_dAp_decomposition_residual(chart, control_sign=_sign(config))
        cases.append(_case(cid, seed, rep["max"], config))
    return cases


def suite_grav_bianchi(config: SuiteConfig) -> List[dict]:
    from .gravity import grav_bianchi_residuals

    cases = []
    for cid in range(config.cases):
        seed = case_seed(config.seed, cid)
        try:
            split, kap, chart = _grav_setup(config, cid, seed)
            res = grav_bianchi_residuals(chart)["max"]
        except BrokenChartInput:
            res = 1e9
        cases.append(_case(cid, seed, res, config))
    return cases


def suite_grav_commutators(config: SuiteConfig) -> List[dict]:
    from .gravity import grav_commutator_residuals

    cases = []
    for cid in range(config.cases):
        seed = case_seed(config.seed, cid)
        split, kap, chart = _grav_setup(config, cid, seed, small_only=True)
        if config.corruption in SIGN_FLIP:
            chart.torsion = chart.torsion.scale(-1)
        rep = grav_commutator_residuals(chart, test_count=1)
        cases.append(_case(cid, seed, rep["max"], config))
    return cases


def suite_grav_conservation(config: SuiteConfig) -> List[dict]:
    from .gravity import grav_T_conservation_residual

    cases = []
    for cid in range(config.cases):
        seed = case_seed(config.seed, cid)
        split, kap, chart = _grav_setup(config, cid, seed, small_only=True)
        rep = grav_T_conservation_residual(chart, control_sign=_sign(config))
        res = max(rep["max_lemma"], rep["max_chain"])
        cases.append(_case(cid, seed, res, config))
    return cases


def suite_constants(config: SuiteConfig) -> List[dict]:
    cases = []
    targets = [("gravity", 4, Fraction(1), Fraction(6)),
               ("gravity", 3, Fraction(2), Fraction(6)),
               ("gravity", 4, Fraction(-1), Fraction(-6)),
               ("gravity", 5, Fraction(0), Fraction(0)),
               ("holst", 4, Fraction(1), Fraction(6))]
    for cid in range(config.cases):
        seed = case_seed(config.seed, cid)
        kind, n, k_const, expect = targets[cid % len(targets)]
        res = 0
        note = ""
        sign = _sign(config)
        try:
            lam = ka.lambda_constant(kind, n=n, k=k_const * sign)
            note = f"lambda[{kind}, n={n}, k={k_const * sign}] = {lam}"
            res = abs(lam - expect * sign) if sign > 0 else abs(lam - expect)
        except AssertionError:
            res = 1.0
        if config.corruption is None:
            T = ka.epsilon_double_contraction(la.minkowski_diag(4))
            res = max(res, abs(T[(0, 1, 0, 1)] + 2), abs(T[(0, 1, 0, 2)]))
            TE = ka.epsilon_double_contraction(la.euclidean_diag(4))
            res = max(res, abs(TE[(0, 1, 0, 1)] - 2))
            res = max(res, abs(ka.holst_kernel_factor(1j, [-1.0, 1, 1, 1])))
            res = max(res, abs(ka.holst_kernel_factor(Fraction(1),
                                                      la.euclidean_diag(4))))
            B = la.killing_form(build_algebra("su2"))
            res = max(res, abs(la.killing_pairing(B, [Fraction(1)] * 3) + 3))
        case = _case(cid, seed, float(abs(res)) if res else 0, config)
        case["note"] = note
        cases.append(case)
    return cases


REGISTRY: Dict[str, Callable[[SuiteConfig], List[dict]]] = {
    "forms-identities": suite_forms_identities,
    "lie-checks": suite_lie_checks,
    "kappa": suite_kappa,
    "gauge-lemmas": suite_gauge_lemmas,
    "ym-el": suite_ym_el,
    "ym-maxwell": suite_ym_maxwell,
    "ym-decomp": suite_ym_decomp,
    "kk-el": suite_kk_el,
    "kk-lc": suite_kk_lc,
    "kk-curvature": suite_kk_curvature,
    "kk-decomp": suite_kk_decomp,
    "grav-el": suite_grav_el,
    "grav-decomp": suite_grav_decomp,
    "grav-bianchi": suite_grav_bianchi,
    "grav-commutators": suite_grav_commutators,
    "grav-conservation": suite_grav_conservation,
    "constants": suite_constants,
}


def _case(cid: int, seed: int, residual, config: SuiteConfig) -> dict:
    res = float(abs(residual))
    return {"id": cid, "seed": seed, "residual": res,
            "tolerance": config.tol, "pass": res <= config.tol}


def run_suite(config: SuiteConfig) -> dict:
    if config.suite not in REGISTRY:
        raise ValueError(f"unknown suite {config.suite!r}; "
                         f"known: {sorted(REGISTRY)}")
    start = time.perf_counter()
    cases = REGISTRY[config.suite](config)
    cases.sort(key=lambda c: c["id"])
    report = {
        "suite": config.suite,
        "config": {
            "suite": config.suite, "n": config.n, "r": config.r,
            "algebra": config.algebra, "kappa": config.kappa,
            "backend": config.backend, "seed": config.seed,
            "cases": config.cases, "tol": config.tol,
            "jet_order": config.jet_order, "corruption": config.corruption,
        },
        "cases": cases,
        "max_residual": max((c["residual"] for c in cases), default=0.0),
        "pass": all(c["pass"] for c in cases),
        "wall_time": time.perf_counter() - start,
    }
    return report
