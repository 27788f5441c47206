"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
captured output).  Residuals on the rational backend are expected to be
exactly zero wherever a tolerance of zero is pinned below.
"""

import time
from fractions import Fraction as F

import pytest

from liecartan.algebra import (SplitAlgebra, build_algebra, check_algebra,
                               euclidean_diag, minkowski_diag)
from liecartan.kappa import (build_kappa, epsilon_double_contraction,
                             holst_kernel_factor, kappa_invariance_residual,
                             lambda_constant)
from liecartan.suites import SuiteConfig, run_suite


def _line(num, label, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {label}: {mark} {detail}")
    assert ok, f"criterion {num} failed: {label} {detail}"


def test_criterion_01_exterior_algebra_identities():
    t0 = time.perf_counter()
    rep = run_suite(SuiteConfig(suite="forms-identities", n=0, cases=200,
                                tol=1e-30))
    wall = time.perf_counter() - t0
    ok = rep["pass"] and rep["max_residual"] == 0 and wall < 30
    _line(1, "minor identities exact over 200 coframes, N in 3..6", ok,
          f"max={rep['max_residual']:.1e} wall={wall:.1f}s")


def test_criterion_02_lie_catalog():
    ok = True
    detail = []
    for name, n, k in (("p_0(3)", 3, 0), ("p_0(4)", 4, 0),
                       ("p_1(4)", 4, 1), ("p_-1(4)", 4, -1)):
        sp = build_algebra(name)
        rep = check_algebra(sp.ambient, sp)
        ok &= rep["jacobi_residual"] == 0
        ok &= rep["unimodular_ambient"] and rep["unimodular_sub"]
        ok &= rep["reductive_ok"] and rep["symmetric_ok"]
        alg, h = sp.ambient, sp.b_diag
        pair01 = n
        # spot values of the structure table
        ok &= alg.c(0, pair01, 1) == h[1]
        ok &= alg.c(1, pair01, 0) == -h[0]
        ok &= alg.c(pair01, 0, 1) == -F(k)
        detail.append(name)
    _line(2, "p_k(n) catalog checks and table spot values", ok,
          " ".join(detail))


def test_criterion_03_constants():
    ok = lambda_constant("gravity", n=4, k=F(1)) == 6
    ok &= lambda_constant("gravity", n=3, k=F(2)) == 6
    ok &= lambda_constant("gravity", n=4, k=F(-1)) == -6
    ok &= lambda_constant("gravity", n=5, k=F(0)) == 0
    ok &= lambda_constant("holst", k=F(1)) == 6
    ok &= lambda_constant("holst", k=F(-2)) == -12
    T = epsilon_double_contraction(minkowski_diag(4))
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    dd = ((1 if (a, b) == (c, d) else 0)
                          - (1 if (a, b) == (d, c) else 0))
                    ok &= T[(a, b, c, d)] == -2 * dd
    _line(3, "cosmological constants and the epsilon contraction, exact", ok)


def test_criterion_04_kappa_invariance():
    sp = build_algebra("p_1(4)")
    std = kappa_invariance_residual(sp, build_kappa("standard", sp),
                                    samples=100, seed=42)
    hol = kappa_invariance_residual(sp, build_kappa("holst", sp, gamma=F(2)),
                                    samples=100, seed=43)
    ok = std <= 1e-9 and hol <= 1e-9
    ok &= holst_kernel_factor(1j, [-1.0, 1.0, 1.0, 1.0]) == 0
    ok &= holst_kernel_factor(-1j, [-1.0, 1.0, 1.0, 1.0]) == 0
    ok &= holst_kernel_factor(F(1), euclidean_diag(4)) == 0
    ok &= holst_kernel_factor(F(-1), euclidean_diag(4)) == 0
    _line(4, "kappa invariance over 100 samples and degenerate factors", ok,
          f"std={std:.1e} holst={hol:.1e}")


def test_criterion_05_gauge_lemma_suite():
    t0 = time.perf_counter()
    rep = run_suite(SuiteConfig(suite="gauge-lemmas", cases=100, tol=1e-9))
    wall = time.perf_counter() - t0
    ok = rep["pass"] and rep["max_residual"] <= 1e-9 and wall < 60
    _line(5, "gauge lemmas, 50 cases per lemma on su2 and p_0(3)", ok,
          f"max={rep['max_residual']:.1e} wall={wall:.1f}s")


def test_criterion_06_maurer_cartan():
    from liecartan.charts import Rng
    from liecartan.connection import (GroupMap, maurer_cartan_form,
                                      maurer_cartan_residual)

    worst = 0
    for name in ("su2", "p_0(3)"):
        alg = build_algebra(name)
        if isinstance(alg, SplitAlgebra):
            alg = alg.ambient
        n = alg.dim
        for seed in range(10):
            rng = Rng(1000 + seed)
            probe = tuple(rng.scalar(-1, 1) for _ in range(n))
            eta = [rng.vanishing_poly(n, probe, list(range(n)), deg=1)
                   for _ in range(n)]
            gm = GroupMap(alg, eta)
            res = maurer_cartan_residual(maurer_cartan_form(gm), alg, probe)
            worst = max(worst, abs(res))
    ok = worst <= 1e-10
    _line(6, "Maurer-Cartan residual of transported frames", ok,
          f"max={worst:.1e}")


def test_criterion_07_maxwell():
    from liecartan.ym import maxwell_scenario

    worst = 0
    avg = 0
    for E in (F(1), F(-2), F(1, 3)):
        rep = maxwell_scenario(E, nodes=256)
        worst = max(worst, abs(rep["elvarpi_residual"]),
                    abs(rep["el_a_residual"]), abs(rep["el_b_residual"]),
                    abs(rep["maxwell_residual"]))
        avg = max(avg, rep["fiber_average_demo"])
    ok = worst <= 1e-10 and avg <= 1e-8
    _line(7, "Maxwell warm-up on R^4 x S^1", ok,
          f"residual={worst:.1e} fiber-average={avg:.1e}")


def test_criterion_08_decomposition_identities():
    t0 = time.perf_counter()
    reports = {}
    for suite in ("ym-decomp", "kk-decomp", "grav-decomp"):
        reports[suite] = run_suite(SuiteConfig(suite=suite, n=0, cases=25,
                                               tol=1e-9))
    wall = time.perf_counter() - t0
    ok = all(r["pass"] and r["max_residual"] <= 1e-9 for r in reports.values())
    ok &= wall < 300
    detail = " ".join(f"{k}={v['max_residual']:.1e}" for k, v in reports.items())
    _line(8, "d^A p decompositions over 25 charts per model", ok,
          f"{detail} wall={wall:.1f}s")


def test_criterion_09_kk_levi_civita_and_curvature():
    lc = run_suite(SuiteConfig(suite="kk-lc", n=2, cases=10, tol=1e-10))
    cu = run_suite(SuiteConfig(suite="kk-curvature", n=2, cases=10, tol=1e-9))
    ok = lc["pass"] and lc["max_residual"] <= 1e-10
    ok &= cu["pass"] and cu["max_residual"] <= 1e-9
    _line(9, "Levi-Civita matrix and curvature block identities", ok,
          f"lc={lc['max_residual']:.1e} curvature={cu['max_residual']:.1e}")


def test_criterion_10_generalized_bianchi():
    t0 = time.perf_counter()
    runs = [
        SuiteConfig(suite="grav-bianchi", algebra="p_0(3)", cases=24, tol=1e-8),
        SuiteConfig(suite="grav-bianchi", algebra="p_1(4)", cases=13, tol=1e-8),
        SuiteConfig(suite="grav-bianchi", algebra="p_1(4)", kappa="holst:2",
                    cases=13, tol=1e-8),
    ]
    worst = 0
    ok = True
    for config in runs:
        rep = run_suite(config)
        ok &= rep["pass"]
        worst = max(worst, rep["max_residual"])
    _line(10, "simple and generalized Bianchi rows on 50 charts", ok,
          f"max={worst:.1e} wall={time.perf_counter() - t0:.1f}s")


def test_criterion_11_conservation():
    cons = run_suite(SuiteConfig(suite="grav-conservation", cases=10, tol=1e-8))
    comm = run_suite(SuiteConfig(suite="grav-commutators", cases=10, tol=1e-8))
    ok = cons["pass"] and comm["pass"]
    _line(11, "double-derivative lemma and commutator rows", ok,
          f"conservation={cons['max_residual']:.1e} "
          f"commutators={comm['max_residual']:.1e}")


NEGATIVE_PLAN = {
    "forms-identities": ("sign", dict(cases=2, n=4)),
    "lie-checks": ("structure", dict(cases=4)),
    "kappa": ("structure", dict(cases=2)),
    "gauge-lemmas": ("sign", dict(cases=2)),
    "ym-el": ("sign", dict(cases=2, n=2)),
    "ym-maxwell": ("sign", dict(cases=2)),
    "ym-decomp": ("sign", dict(cases=2, n=2)),
    "kk-el": ("sign", dict(cases=2, n=2)),
    "kk-lc": ("sign", dict(cases=2, n=2)),
    "kk-curvature": ("sign", dict(cases=2, n=2)),
    "kk-decomp": ("sign", dict(cases=2, n=2)),
    "grav-el": ("sign", dict(cases=2)),
    "grav-decomp": ("sign", dict(cases=2)),
    # on p_0(3) the corrupted chart fails certification (residual 1e9);
    # p_1(4) passes it, so the corruption reaches the Bianchi rows
    "grav-bianchi": ("structure", dict(cases=2, algebra="p_1(4)")),
    "grav-commutators": ("sign", dict(cases=2)),
    "grav-conservation": ("sign", dict(cases=2)),
    "constants": ("sign", dict(cases=3)),
}


def test_criterion_12_negative_controls():
    failures = []
    for suite, (corruption, kwargs) in NEGATIVE_PLAN.items():
        rep = run_suite(SuiteConfig(suite=suite, corruption=corruption,
                                    **kwargs))
        if rep["pass"] or rep["max_residual"] < 1e-3:
            failures.append(f"{suite} (max={rep['max_residual']:.1e})")
    ok = not failures
    _line(12, "corrupted inputs make every suite fail", ok,
          "; ".join(failures) if failures else "all 17 suites fail as expected")
