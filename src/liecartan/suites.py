"""Verification suite registry: deterministic seeded cases with machine-
readable reports.

Each ``REGISTRY`` entry is a ``Suite``: its case function
``case(config, cid, seed)`` checks case ``cid`` of the suite ``config.suite``
and returns that case's max-norm residual.  ``seed`` is
``case_seed(config.seed, cid)``; a case draws all its randomness from it,
so cases are independent of each other.  The one exception to the return
value is ``constants``, which returns ``(residual, note)``; the note is kept
in the case's report entry.  ``run_suite`` is the only case loop: it calls
the case function for ``cid = 0 .. config.cases - 1`` in order and builds
the report, which passes iff every case residual is within ``config.tol``.
A case function rejects a flag value it cannot use with a ``ValueError``
naming the flag.  Before any case runs, ``run_suite`` rejects what the
suite's declaration rules out: a ``--kappa`` or ``--algebra`` that it never
reads, an ``--algebra`` that breaks a hypothesis its identities need, a
corruption kind that reaches none of its identities, and a ``structure``
run without ``--algebra`` whose default algebras include a 1-dimensional
one.  A case whose chart fails certification, which only a corrupted
algebra builds, fails with the residual 1e9.
The ``corruption`` hook feeds deliberately broken inputs through the same
code paths so that vacuously-green suites are detectable: ``sign`` flips
the sign of one predicted term (``_sign``), ``structure`` breaks the
Jacobi identity of the algebra (``resolve_algebra``).
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, NamedTuple, Optional, Tuple

from . import algebra as la
from . import kappa as ka
from .algebra import SplitAlgebra, build_algebra, central_extension, corrupt_algebra
from .charts import Rng
from .forms import Coframe, CoframeMinors, Form, exterior_d, wedge
from .gravity import ChartInvariantError, split_hypotheses_hold
from .kk import check_h_invariance
from .scalars import Polynomial


@dataclass
class SuiteConfig:
    suite: str
    n: int = 3
    algebra: Optional[str] = None
    kappa: str = "standard"
    backend: str = "rational"
    seed: int = 42
    cases: int = 25
    tol: float = 1e-9
    corruption: Optional[str] = None
    algebra_path: Optional[str] = None

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"--tol {self.tol}: the tolerance must be a finite "
                             f"positive number")
        kappa_spec(self)
        if self.cases < 1:
            raise ValueError("case count must be at least 1")
        if self.backend != "rational":
            why = ("the float backend is retired" if self.backend == "float"
                   else "unknown backend")
            raise ValueError(f"--backend {self.backend}: {why}; use rational")


def case_seed(master: int, case_id: int) -> int:
    digest = hashlib.sha256(f"{master}:{case_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def kappa_spec(config: SuiteConfig):
    """(kind, gamma) of ``--kappa``: ``standard``, ``holst`` (gamma = 2) or
    ``holst:<gamma>`` for a nonzero rational gamma."""
    kind, colon, gamma = config.kappa.partition(":")
    if kind == "standard" and not colon:
        return "standard", None
    if kind == "holst":
        if not colon:
            return "holst", Fraction(2)
        try:
            value = Fraction(gamma)
        except (ValueError, ZeroDivisionError):
            value = 0
        if value != 0:
            return "holst", value
    raise ValueError(f"--kappa {config.kappa}: expected standard, holst or "
                     f"holst:<gamma> with a nonzero rational gamma")


def _load_algebra(config: SuiteConfig, default: Optional[str]):
    if config.algebra_path:
        from .algebra_io import load_algebra

        return load_algebra(config.algebra_path)
    return build_algebra(config.algebra or default)


def resolve_algebra(config: SuiteConfig, cid: int):
    """The algebra of case ``cid``, corrupted under ``structure``."""
    alg = _load_algebra(config, _default(config, cid))
    if config.corruption == "structure":
        if isinstance(alg, SplitAlgebra):
            broken = corrupt_algebra(alg.ambient, config.seed)
            alg = SplitAlgebra(broken, alg.s_indices, alg.l_indices,
                               alg.b_diag, alg.k_diag, alg.flags)
        else:
            alg = corrupt_algebra(alg, config.seed)
    return alg


def gravity_split(config: SuiteConfig, cid: int) -> SplitAlgebra:
    split = resolve_algebra(config, cid)
    _require(config, SPLIT, split)
    return split


def gauge_split(config: SuiteConfig, cid: int,
                n: Optional[int] = None) -> SplitAlgebra:
    """The gauge split of case ``cid``'s algebra: a split with a metric on l
    as given, or the central extension of a plain algebra over a base of
    dimension ``n`` (``config.n`` by default)."""
    inner = resolve_algebra(config, cid)
    _require(config, GAUGE_SPLIT, inner)
    return _as_gauge_split(inner, config.n if n is None else n)


def _as_gauge_split(alg, n: int) -> SplitAlgebra:
    if isinstance(alg, SplitAlgebra):
        return alg
    return central_extension(alg, n, b_diag=la.euclidean_diag(n))


def _ambient(alg) -> la.LieAlgebra:
    return alg.ambient if isinstance(alg, SplitAlgebra) else alg


class Hypothesis(NamedTuple):
    """A property of the uncorrupted ``--algebra`` that a suite's identities
    rest on: ``holds`` reads the loaded algebra, plain or split, and
    ``needs`` names the property in the rejection."""
    holds: Callable[[object], bool]
    needs: str


UNIMODULAR = Hypothesis(lambda alg: la.is_unimodular(_ambient(alg)),
                        "a unimodular algebra (tr ad_x = 0)")
ABELIAN = Hypothesis(lambda alg: not _ambient(alg).table, "an abelian algebra")
SPLIT = Hypothesis(lambda alg: isinstance(alg, SplitAlgebra),
                   "a split algebra such as p_0(3)")
GRAVITY_SPLIT = Hypothesis(split_hypotheses_hold,
                           "a reductive, symmetric, unimodular split")
GAUGE_SPLIT = Hypothesis(
    lambda alg: not isinstance(alg, SplitAlgebra) or alg.k_diag is not None,
    "a plain algebra or a split with a metric on l, not a gravity split")
# s is central in a central extension, so a base of dimension 1 shows what
# any other would
AD_INVARIANT = Hypothesis(
    lambda alg: not check_h_invariance(_as_gauge_split(alg, 1)),
    "an ad-invariant block metric b (+) k")


def _require(config: SuiteConfig, hypothesis: Hypothesis, alg):
    if not hypothesis.holds(alg):
        raise ValueError(f"--algebra {config.algebra or config.algebra_path}: "
                         f"the {config.suite} suite needs {hypothesis.needs}")


@dataclass(frozen=True)
class Suite:
    """One suite's declaration: its case function, the corruption kinds
    that reach its identities, whether it reads ``--algebra`` and
    ``--kappa``, the hypotheses its identities need, checked in order, and
    the catalog algebras its cases cycle through without ``--algebra``:
    case ``cid`` runs on ``defaults[cid % len(defaults)]``."""
    case: Callable[[SuiteConfig, int, int], object]
    corruptions: FrozenSet[str]
    reads_algebra: bool = True
    reads_kappa: bool = False
    hypotheses: Tuple[Hypothesis, ...] = ()
    defaults: Tuple[str, ...] = ()

    def reject_unusable(self, config: SuiteConfig):
        """A one-line ``ValueError`` for what this declaration rules out."""
        kind = config.corruption
        if kind is not None and kind not in self.corruptions:
            raise ValueError(f"corruption {kind}: it reaches no identity of the "
                             f"{config.suite} suite, which takes "
                             f"{' or '.join(sorted(self.corruptions))}")
        if config.kappa != "standard" and not self.reads_kappa:
            raise ValueError(f"--kappa {config.kappa}: the {config.suite} "
                             f"suite builds no kappa tensor")
        algebra = config.algebra or config.algebra_path
        if kind == "structure" and not algebra:
            for cid, name in enumerate(self.defaults[:config.cases]):
                if _ambient(build_algebra(name)).dim < 2:
                    raise ValueError(
                        f"corruption structure: case {cid} of the {config.suite} "
                        f"suite runs on {name}, a 1-dimensional algebra with no "
                        f"bracket to break; pass --algebra")
        if algebra and not self.reads_algebra:
            raise ValueError(f"--algebra {algebra}: the {config.suite} suite "
                             f"takes no algebra")
        if algebra and self.hypotheses:
            # the uncorrupted algebra: a corrupted one must reach the identities
            alg = _load_algebra(config, None)
            for hypothesis in self.hypotheses:
                _require(config, hypothesis, alg)


def _default(config: SuiteConfig, cid: int) -> str:
    """The algebra case ``cid`` runs on without ``--algebra``."""
    defaults = REGISTRY[config.suite].defaults
    return defaults[cid % len(defaults)]


def _require_dim(config: SuiteConfig, least: int, cycle: str = "",
                 kind: str = "base"):
    """Reject a ``--dim`` below ``least``; with ``cycle``, 0 is allowed too."""
    if config.n >= least or (cycle and config.n == 0):
        return
    tail = f", or 0 to cycle through {cycle}" if cycle else ""
    raise ValueError(f"--dim {config.n}: {config.suite} needs a {kind} "
                     f"dimension of at least {least}{tail}")


def _sign(config: SuiteConfig):
    return -1 if config.corruption == "sign" else 1


# ---------------------------------------------------------------------------
# case functions, one per suite
# ---------------------------------------------------------------------------

def case_forms_identities(config: SuiteConfig, cid: int, seed: int):
    _require_dim(config, 3, "3..6", kind="chart")
    rng = Rng(seed)
    N = config.n or (3, 4, 5, 6)[cid % 4]
    probe = tuple(rng.scalar(-2, 2) for _ in range(N))
    cf = Coframe(_near_identity(rng, N, probe), probe)
    # rows read only for their values take order-0 one-forms and minors;
    # the two minors under d come from the coframe's order-1 family
    ones = [cf.one_form(A).at(probe, 0) for A in range(N)]
    mins = CoframeMinors(ones)
    flip = _sign(config)
    top = mins.top if flip > 0 else mins.top.scale(-1)
    res = 0
    picks = [(rng.rng.randrange(N), rng.rng.randrange(N),
              rng.rng.randrange(N), rng.rng.randrange(N)) for _ in range(10)]
    picks.append((0, 0, 1, 2))
    picks.append((1, 0, 1, 2))
    for (A, Ap, Bp, Cp) in picks:
        lhs = wedge(ones[A], mins.minor((Ap,)))
        rhs = top.scale(1 if A == Ap else 0)
        res = max(res, abs((lhs - rhs).max_abs(probe)))
        if Ap != Bp:
            lhs = wedge(ones[A], mins.minor((Ap, Bp)))
            rhs = Form(N, N - 1)
            if A == Bp:
                rhs = rhs + mins.minor((Ap,))
            if A == Ap:
                rhs = rhs - mins.minor((Bp,))
            res = max(res, abs((lhs - rhs).max_abs(probe)))
            B2 = Cp
            lhs = wedge(wedge(ones[A], ones[B2]), mins.minor((Ap, Bp)))
            dd = ((1 if (A, B2) == (Ap, Bp) else 0)
                  - (1 if (A, B2) == (Bp, Ap) else 0))
            res = max(res, abs((lhs - top.scale(dd)).max_abs(probe)))
        if len({Ap, Bp, Cp}) == 3:
            lhs = wedge(ones[A], mins.minor((Ap, Bp, Cp)))
            rhs = Form(N, N - 2)
            if A == Cp:
                rhs = rhs + mins.minor((Ap, Bp))
            if A == Bp:
                rhs = rhs + mins.minor((Cp, Ap))
            if A == Ap:
                rhs = rhs + mins.minor((Bp, Cp))
            res = max(res, abs((lhs - rhs).max_abs(probe)))
    # (deAB) rows: codegree 1 and 2, each d e^B built once
    A = rng.rng.randrange(N)
    de = {B: exterior_d(cf.one_form(B)) for B in range(N) if B != A}
    lhs = exterior_d(cf.minors().minor((A,))).scale(flip)
    rhs = Form(N, N)
    for B in de:
        rhs = rhs + wedge(de[B], mins.minor((A, B)))
    res = max(res, abs((lhs - rhs).max_abs(probe)))
    B = (A + 1) % N
    lhs = exterior_d(cf.minors().minor((A, B)))
    rhs = Form(N, N - 1)
    for C in de:
        if C != B:
            rhs = rhs + wedge(de[C], mins.minor((A, B, C)))
    res = max(res, abs((lhs - rhs).max_abs(probe)))
    return res


def case_lie_checks(config: SuiteConfig, cid: int, seed: int):
    name = config.algebra or _default(config, cid)
    alg = resolve_algebra(config, cid)
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
    if split is not None and config.algebra_path is None and name.startswith("p_"):
        n = split.n
        h = split.b_diag
        pair01 = n  # index of t_{[0,1]}
        res = max(res, abs(ambient.c(0, pair01, 1) - h[1]))
        res = max(res, abs(ambient.c(1, pair01, 0) + h[0]))
    return res


def case_kappa(config: SuiteConfig, cid: int, seed: int):
    split = gravity_split(config, cid)
    kind, gamma = kappa_spec(config)
    kap = ka.build_kappa(kind, split, gamma=gamma)
    res = ka.kappa_ad_residual(split, kap)
    if kind == "holst":
        res = max(res, abs(ka.holst_kernel_factor(1j, split.b_diag)))
        if ka.kappa_kernel_rank(ka.build_kappa("holst", split, gamma=1j)) >= 6:
            res = max(res, 1.0)
    if ka.kappa_kernel_rank(kap) < len(split.l_indices):
        res = max(res, 1.0)
    return res


def case_gauge_lemmas(config: SuiteConfig, cid: int, seed: int):
    from .connection import (GroupMap, Representation, algebra_one_form, algebra_slot,
                             bracket_wedge, cov_d, curvature, gauge_transform,
                             adjoint_transport, coadjoint_transport,
                             maurer_cartan_form, maurer_cartan_residual)
    from .forms import contracted_wedge

    rng = Rng(seed)
    alg = _ambient(resolve_algebra(config, cid))
    n = alg.dim
    probe = tuple(rng.scalar(-1, 1) for _ in range(n))
    eta = [rng.vanishing_poly(n, probe, list(range(n))) for _ in range(n)]
    gm = GroupMap(alg, eta, probe)
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
    curv_a = curvature(a_form, alg)
    res = abs((curv_a - adjoint_transport(gm, curvature(theta, alg))).max_abs(probe))
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
    e = adjoint_transport(gm, theta)  # a_form is e - dg g^-1
    res = max(res, abs((cov_d(a_form, e, (adrep,)) - curv_a
                        - bracket_wedge(alg, e, e).scale(Fraction(1, 2)))
                       .max_abs(probe)))
    # minor Leibniz with the adjoint (unimodular) representation, at the
    # probe: e from the probed coframe's one-forms, and omega read there
    # for its values alone, since no d is taken of it.
    cf = Coframe(_near_identity(rng, n, probe), probe)
    mins = cf.minors()
    e_form = algebra_one_form(alg, [[cf.one_form(A).get((k,)) for k in range(n)]
                                    for A in range(n)])
    omega = rand_alg_form().at(probe, 0)
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
    res = max(res, abs(maurer_cartan_residual(maurer_cartan_form(gm), alg, probe)))
    return res


def _near_identity(rng: Rng, n: int, probe):
    """Coframe entries: the identity plus polynomials vanishing at ``probe``."""
    return [[Polynomial.constant(Fraction(1) if A == k else Fraction(0), n)
             + rng.vanishing_poly(n, probe, list(range(n)))
             for k in range(n)] for A in range(n)]


def case_ym_el(config: SuiteConfig, cid: int, seed: int):
    """Vacuum charts with a pinned pi^{ss} perturbation: every residual
    block must match its closed-form prediction exactly."""
    from .connection import algebra_slot
    from .ym import YMFields, ym_el_residuals

    rng = Rng(seed)
    split = gauge_split(config, cid)
    if split.n < 2:
        raise ValueError(f"--dim {config.n}: ym-el needs a base dimension "
                         f"of at least 2")
    alg = split.ambient
    n = split.n
    N = alg.dim
    slot = algebra_slot(alg)
    beta = Form(N, 1, (slot,))
    for pos, a in enumerate(split.s_indices):
        beta.add_term((pos,), (a,), Polynomial.constant(Fraction(1), N))
    beta._finalize()
    theta = Form(N, 1, (slot,))
    for pos, i in enumerate(split.l_indices):
        theta.add_term((n + pos,), (i,), Polynomial.constant(Fraction(1), N))
    theta._finalize()
    probe = (Fraction(0),) * N
    mag = rng.nonzero_scalar(-2, 2)
    i0 = split.l_indices[0]
    a0, b0 = split.s_indices[0], split.s_indices[1]
    pi = {(i0, a0, b0): Polynomial.constant(mag, N)}
    fields = YMFields(split, beta, theta, pi, probe)
    rep = ym_el_residuals(fields)
    # a sign corruption models an error in the oracle prediction
    low = mag * _sign(config) * split.b_diag[0] * split.b_diag[1] / split.k_diag[0]
    res = 0
    for (i, a, b), v in rep["r_pi_ss"].items():
        want = low if (i, a, b) == (i0, a0, b0) else 0
        res = max(res, abs(v - want))
    for v in rep["r_pi_sg"].values():
        res = max(res, abs(v))
    for v in rep["r_pi_gg"].values():
        res = max(res, abs(v))
    norm2 = mag * low
    return max(res, abs(rep["r_theta"] - abs(norm2) / 2))


def case_ym_maxwell(config: SuiteConfig, cid: int, seed: int):
    from .ym import maxwell_scenario, maxwell_q_transport_residual

    rng = Rng(seed)
    rep = maxwell_scenario(rng.nonzero_scalar(-3, 3), seed=seed,
                           control_sign=_sign(config))
    return max(abs(rep["elvarpi_residual"]), abs(rep["el_a_residual"]),
               abs(rep["el_b_residual"]), abs(maxwell_q_transport_residual(seed)))


def case_ym_decomp(config: SuiteConfig, cid: int, seed: int):
    from .ym import build_ym_chart, ym_dAp_identity_residual

    _require_dim(config, 2, "2..4")
    n = config.n or (2, 3, 4)[cid % 3]
    split = gauge_split(config, cid, n)
    chart = build_ym_chart(split, n, seed=seed, curved_base=(cid % 2 == 1))
    rep = ym_dAp_identity_residual(chart, control_sign=_sign(config))
    return rep["max"]


def case_kk_el(config: SuiteConfig, cid: int, seed: int):
    """Flat abelian vacuum where only the Lambda term can survive."""
    from .connection import algebra_slot
    from .kk import KKFields, kk_el_residuals

    _require_dim(config, 1)
    rng = Rng(seed)
    split = gauge_split(config, cid)
    alg = split.ambient
    N = alg.dim
    slot = algebra_slot(alg)
    theta = Form(N, 1, (slot,))
    for A in range(N):
        theta.add_term((A,), (A,), Polynomial.constant(Fraction(1), N))
    theta._finalize()
    phi = Form(N, 1, (slot, slot.dual_slot()))
    lam = rng.nonzero_scalar(-2, 2)
    probe = (Fraction(0),) * N
    fields = KKFields(split, theta, phi, {}, lam, probe)
    rep = kk_el_residuals(fields)
    predicted = abs(lam) * _sign(config)
    return max(abs(rep["einstein"] - predicted), rep["frobenius"],
               rep["torsion_free"])


def case_kk_lc(config: SuiteConfig, cid: int, seed: int):
    from .kk import build_kk_chart, kk_lc_connection

    _require_dim(config, 2)
    split = gauge_split(config, cid)
    chart = build_kk_chart(split, config.n, seed=seed, constant_F=(cid % 3 == 0))
    _, rep = kk_lc_connection(chart, control_sign=_sign(config))
    return rep["max"]


def case_kk_curvature(config: SuiteConfig, cid: int, seed: int):
    from .kk import build_kk_chart, kk_curvature_report

    _require_dim(config, 2)
    split = gauge_split(config, cid)
    chart = build_kk_chart(split, config.n, seed=seed,
                           constant_F=(cid % 2 == 0),
                           curved_base=(config.n == 2 and cid % 3 == 2))
    rep = kk_curvature_report(chart, control_sign=_sign(config))
    return rep["max"]


def case_kk_decomp(config: SuiteConfig, cid: int, seed: int):
    from .kk import build_kk_chart, kk_dAp_identity_residual

    _require_dim(config, 1, "2..4")
    n = config.n or (2, 3, 4)[cid % 3]
    split = gauge_split(config, cid, n)
    chart = build_kk_chart(split, n, seed=seed)
    rep = kk_dAp_identity_residual(chart, control_sign=_sign(config))
    return rep["max"]


def _grav_setup(config: SuiteConfig, cid: int, seed: int):
    from .gravity import build_gravity_chart

    split = gravity_split(config, cid)
    kind, gamma = kappa_spec(config)
    if kind == "holst" and split.n != 4:
        raise ValueError(
            f"--kappa {config.kappa}: the Holst term needs n = 4, but case "
            f"{cid} of {config.suite} runs on "
            f"{config.algebra_path or config.algebra or _default(config, cid)} "
            f"(n = {split.n})")
    kap = ka.build_kappa(kind, split, gamma=gamma)
    return build_gravity_chart(split, kap, seed=seed)


def case_grav_el(config: SuiteConfig, cid: int, seed: int):
    from .gravity import grav_el_blocks

    chart = _grav_setup(config, cid, seed)
    return max(grav_el_blocks(chart, control_sign=_sign(config)).values())


def case_grav_decomp(config: SuiteConfig, cid: int, seed: int):
    from .gravity import grav_dAp_decomposition_residual

    chart = _grav_setup(config, cid, seed)
    rep = grav_dAp_decomposition_residual(chart, control_sign=_sign(config))
    return rep["max"]


def case_grav_bianchi(config: SuiteConfig, cid: int, seed: int):
    from .gravity import grav_bianchi_residuals

    return grav_bianchi_residuals(_grav_setup(config, cid, seed))["max"]


def case_grav_commutators(config: SuiteConfig, cid: int, seed: int):
    from .gravity import grav_commutator_residuals

    chart = _grav_setup(config, cid, seed)
    rep = grav_commutator_residuals(chart, test_count=1,
                                    control_sign=_sign(config))
    return rep["max"]


def case_grav_conservation(config: SuiteConfig, cid: int, seed: int):
    from .gravity import grav_T_conservation_residual

    chart = _grav_setup(config, cid, seed)
    rep = grav_T_conservation_residual(chart, control_sign=_sign(config))
    return max(rep["max_lemma"], rep["max_chain"])


def case_constants(config: SuiteConfig, cid: int, seed: int):
    targets = [("gravity", 4, Fraction(1), Fraction(6)),
               ("gravity", 3, Fraction(2), Fraction(6)),
               ("gravity", 4, Fraction(-1), Fraction(-6)),
               ("gravity", 5, Fraction(0), Fraction(0)),
               ("holst", 4, Fraction(1), Fraction(6))]
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
    T = ka.epsilon_double_contraction(la.minkowski_diag(4))
    res = max(res, abs(T[(0, 1, 0, 1)] + 2), abs(T[(0, 1, 0, 2)]))
    TE = ka.epsilon_double_contraction(la.euclidean_diag(4))
    res = max(res, abs(TE[(0, 1, 0, 1)] - 2))
    res = max(res, abs(ka.holst_kernel_factor(1j, [-1.0, 1, 1, 1])))
    res = max(res, abs(ka.holst_kernel_factor(Fraction(1), la.euclidean_diag(4))))
    B = la.killing_form(build_algebra("su2"))
    res = max(res, abs(la.killing_pairing(B, [Fraction(1)] * 3) + 3))
    return res, note


SIGN, STRUCTURE = frozenset({"sign"}), frozenset({"structure"})
BOTH = SIGN | STRUCTURE
VACUUM = dict(hypotheses=(UNIMODULAR, ABELIAN), defaults=("u1",))
KK = dict(hypotheses=(GAUGE_SPLIT, AD_INVARIANT))
GRAVITY = dict(reads_kappa=True, hypotheses=(SPLIT, GRAVITY_SPLIT))
GRAVITY_P03 = dict(defaults=("p_0(3)",), **GRAVITY)
GRAVITY_P14 = dict(defaults=("p_0(3)",) * 4 + ("p_1(4)",), **GRAVITY)

REGISTRY: Dict[str, Suite] = {
    "forms-identities": Suite(case_forms_identities, SIGN, reads_algebra=False),
    "lie-checks": Suite(case_lie_checks, STRUCTURE, defaults=(
        "p_0(3)", "p_0(4)", "p_1(4)", "p_-1(4)", "su2", "u1")),
    "kappa": Suite(case_kappa, STRUCTURE, reads_kappa=True,
                   defaults=("p_0(4)", "p_1(4)")),
    "gauge-lemmas": Suite(case_gauge_lemmas, BOTH, hypotheses=(UNIMODULAR,),
                          defaults=("su2", "p_0(3)")),
    "ym-el": Suite(case_ym_el, BOTH, **VACUUM),
    "ym-maxwell": Suite(case_ym_maxwell, SIGN, reads_algebra=False),
    "ym-decomp": Suite(case_ym_decomp, BOTH, hypotheses=(UNIMODULAR,),
                       defaults=("su2", "su2", "u1")),
    "kk-el": Suite(case_kk_el, BOTH, **VACUUM),
    "kk-lc": Suite(case_kk_lc, BOTH, defaults=("u1", "su2"), **KK),
    "kk-curvature": Suite(case_kk_curvature, BOTH, defaults=("u1", "su2"), **KK),
    "kk-decomp": Suite(case_kk_decomp, BOTH, defaults=("su2", "su2", "u1"), **KK),
    # ``structure`` reaches no grav-el block: a corrupted p_0(3) fails chart
    # certification, and on a corrupted p_1(4) every block is exactly 0
    # (seed 42, cases 0 and 1)
    "grav-el": Suite(case_grav_el, SIGN, **GRAVITY_P03),
    "grav-decomp": Suite(case_grav_decomp, BOTH, **GRAVITY_P14),
    "grav-bianchi": Suite(case_grav_bianchi, STRUCTURE, **GRAVITY_P14),
    "grav-commutators": Suite(case_grav_commutators, SIGN, **GRAVITY_P03),
    "grav-conservation": Suite(case_grav_conservation, SIGN, **GRAVITY_P03),
    "constants": Suite(case_constants, SIGN, reads_algebra=False),
}


def _case(cid: int, seed: int, outcome, config: SuiteConfig) -> dict:
    residual, note = outcome if isinstance(outcome, tuple) else (outcome, None)
    res = float(abs(residual))
    case = {"id": cid, "seed": seed, "residual": res,
            "tolerance": config.tol, "pass": res <= config.tol}
    if note is not None:
        case["note"] = note
    return case


def run_suite(config: SuiteConfig) -> dict:
    suite = REGISTRY.get(config.suite)
    if suite is None:
        raise ValueError(f"unknown suite {config.suite!r}; "
                         f"known: {sorted(REGISTRY)}")
    suite.reject_unusable(config)
    start = time.perf_counter()
    cases = []
    for cid in range(config.cases):
        seed = case_seed(config.seed, cid)
        try:
            outcome = suite.case(config, cid, seed)
        except ChartInvariantError:  # a corrupted chart fails certification
            outcome = 1e9
        cases.append(_case(cid, seed, outcome, config))
    return {
        "suite": config.suite,
        "config": {
            "suite": config.suite, "n": config.n,
            "algebra": config.algebra, "kappa": config.kappa,
            "backend": config.backend, "seed": config.seed,
            "cases": config.cases, "tol": config.tol,
            "corruption": config.corruption,
        },
        "cases": cases,
        "max_residual": max((c["residual"] for c in cases), default=0.0),
        "pass": all(c["pass"] for c in cases),
        "wall_time": time.perf_counter() - start,
    }
