"""Shared scaffolding for trivialized bundle charts.

A chart lives on coordinates (x_0..x_{n-1}, y_0..y_{r-1}).  The group map
g = exp(eta(y)) has eta valued in the l (or g) block and vanishing on the
probe set {y = 0}, so exp and dexp of ad(eta) have closed first-order
data there and stay exact.  The chart builders draw every rational from a
seeded ``Rng``.  The connection part A is an x-only 1-form in dx
components, which realizes the hypotheses under which the decomposition
formulas are derived: A has no fiber components and its coefficients are
constant on the fibers.

Chart data is typed.  ``TrivializedChart`` holds what every model puts on
a chart: the coframe e = A + dg g^{-1}, the seeded source ``rng``, the dual
field coefficients ``p_coeffs`` and the field strength ``F_form``.
``GaugeChart`` (Yang-Mills and Kaluza-Klein) adds the frame coefficients
of F and the ``curved_base`` flag; ``GravityChart`` adds kappa, the
theta/omega split of A, its torsion and the l-curvature.

The helpers shared by the three models' identities live here and in
``forms``: ``antisym`` gives both index orders of an antisymmetric
coefficient table, ``TrivializedChart.p_tables`` the values and frame
derivatives of p at the probe, ``g_row_divergence`` the covariant
divergence that the Yang-Mills and Kaluza-Klein g rows of d^A p share,
``GravityChart.torsion_curvature`` the by-coframe coefficients of torsion
and curvature there, and ``forms.cominor_rows`` and ``Form.component``
assemble and split rows.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from .algebra import SplitAlgebra
from .connection import (GroupMap, Representation, algebra_slot, cov_d, curvature,
                         levi_civita_coeff_fields)
from .fields import (MatrixInverseField, at_probe, f_add, f_is_zero, f_mul,
                     f_partial, f_scale, f_zero)
from .forms import Coframe, CoframeMinors, Form, Slot, decompose
from .scalars import Polynomial, _add, _mul, _sub

if TYPE_CHECKING:
    from .kappa import KappaTensor


class Rng:
    """Seeded rational scalar and polynomial source."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def scalar(self, lo=-3, hi=3, dens=(1, 2, 3)):
        return Fraction(self.rng.randint(lo, hi), self.rng.choice(dens))

    def nonzero_scalar(self, lo=-3, hi=3):
        while True:
            v = self.scalar(lo, hi)
            if v != 0:
                return v

    def poly(self, n: int, deg: int = 2, terms: int = 3) -> Polynomial:
        out: Dict[Tuple[int, ...], object] = {}
        for _ in range(terms):
            e = [0] * n
            for _ in range(self.rng.randint(0, deg)):
                e[self.rng.randrange(n)] += 1
            c = self.scalar()
            out[tuple(e)] = out.get(tuple(e), 0) + c
        return Polynomial(n, out)

    def poly_in_vars(self, n: int, vars_: Sequence[int], deg: int = 2,
                     terms: int = 3) -> Polynomial:
        out: Dict[Tuple[int, ...], object] = {}
        for _ in range(terms):
            e = [0] * n
            for _ in range(self.rng.randint(0, deg)):
                e[self.rng.choice(list(vars_))] += 1
            c = self.scalar()
            out[tuple(e)] = out.get(tuple(e), 0) + c
        return Polynomial(n, out)

    def vanishing_poly(self, n: int, point: Tuple, vars_: Sequence[int],
                       deg: int = 1, terms: int = 2) -> Polynomial:
        """Random polynomial vanishing at ``point``.

        Built as a random polynomial in the given variables times an affine
        factor that vanishes there; derivatives at the point stay generic.
        """
        acc = self.poly_in_vars(n, vars_, deg, terms)
        lin_terms: Dict[Tuple[int, ...], object] = {}
        for j in vars_:
            e = [0] * n
            e[j] = 1
            lin_terms[tuple(e)] = self.scalar(-2, 2)
        lin = Polynomial(n, lin_terms)
        shift = 0 - lin.eval(point)
        lin = lin + Polynomial.constant(shift, n)
        if lin.is_zero():
            e = [0] * n
            e[vars_[0]] = 1
            lin = Polynomial(n, {tuple(e): self.nonzero_scalar()})
            lin = lin + Polynomial.constant(0 - lin.eval(point), n)
        return acc * lin


@dataclass
class TrivializedChart:
    """Local model: coframe e = A(x) + dg g^{-1} with g = exp(eta(y)).

    ``p_coeffs`` holds the dual field p_I^{AB} on A < B keys and ``rng`` is
    the chart's seeded source, which later checks keep drawing from.  The
    identities are checked at the one point ``probe``.
    """

    split: SplitAlgebra
    n_base: int
    r_fib: int
    gm: GroupMap
    A_form: Form                 # ambient-algebra-valued, dx components only
    e_form: Form
    coframe: Coframe
    probe: Tuple
    rng: Rng
    p_coeffs: Dict[Tuple[int, int, int], object]
    F_form: Form                 # curvature of A

    @property
    def N(self) -> int:
        return self.n_base + self.r_fib

    @property
    def alg(self):
        return self.split.ambient

    def p_tables(self):
        """p_I^{AB} and its frame derivatives X_C p_I^{AB} at the probe.

        The tables cover both index orders, key the derivatives
        (I, A, B, C) and read 0 where p has no entry.  A derivative sums
        only the nonzero partials of p, in ascending k.
        """
        N = self.N
        pt = self.probe
        V = self.coframe.inverse_field()
        Vp = [[V.entry(k, A).value(pt) for A in range(N)] for k in range(N)]
        p_at, dp_at = defaultdict(int), defaultdict(int)
        for key, fld in antisym(self.p_coeffs).items():
            p_at[key] = fld.value(pt)
            grad = [(k, g) for k in range(N) for g in (fld.dvalue(pt, k),) if g]
            for C in range(N):
                dp = 0
                for k, g in grad:
                    dp = _add(dp, _mul(Vp[k][C], g))
                dp_at[key + (C,)] = dp
        return p_at, dp_at

    def at(self) -> "TrivializedChart":
        """A copy whose ``p_coeffs`` and ``A_form`` coefficients are read at
        the probe (``at_probe``), for ``p_form`` and ``dAp``; it shares this
        chart's coframe, whose forms and minors are built at the probe."""
        pt = self.probe
        return dataclasses.replace(
            self, A_form=self.A_form.at(pt),
            p_coeffs={key: at_probe(f, pt) for key, f in self.p_coeffs.items()})

    @functools.cached_property
    def p_form(self) -> Form:
        """p = 1/2 p_I^{AB} e^{(N-2)}_{AB}, built once; read-only."""
        return pi_form_from_coeffs(self.p_coeffs, self.coframe,
                                   algebra_slot(self.alg, dual=True))

    def dAp(self) -> Tuple[Form, CoframeMinors]:
        """d^A p = dp + ad*(A) ^ p, and the coframe minors p is built from."""
        lhs = cov_d(self.A_form, self.p_form, (Representation.coadjoint(self.alg),))
        return lhs, self.coframe.minors()


@dataclass
class GaugeChart(TrivializedChart):
    """Yang-Mills / Kaluza-Klein chart: F = 1/2 F_{AB} e^A ^ e^B coefficients
    and whether the base coframe is curved."""

    F_coeffs: Dict[Tuple[int, int, int], object]
    curved_base: bool


@dataclass
class GravityChart(TrivializedChart):
    """Gravity chart: A = theta (s rows) + omega (l rows), the torsion
    d^omega theta and the curvature of omega."""

    kappa: "KappaTensor"
    theta: Form
    omega: Form
    torsion: Form
    curv_l: Form

    def torsion_curvature(self):
        """By-coframe coefficients of ``torsion`` and ``curv_l`` at the probe."""
        return (decompose(self.torsion, self.coframe, "by-coframe"),
                decompose(self.curv_l, self.coframe, "by-coframe"))


def antisym(table: Dict[Tuple[int, int, int], object]) -> Dict[Tuple[int, int, int], object]:
    """Both index orders of t_I^{AB} = -t_I^{BA} from entries on A < B keys.

    Entries may be fields or values; each key is followed by its mirror.
    """
    out = {}
    for (I, A, B), x in table.items():
        out[(I, A, B)] = x
        out[(I, B, A)] = -x
    return out


def pi_form_from_coeffs(coeffs: Dict[Tuple[int, int, int], object], coframe: Coframe,
                        dual_slot: Slot) -> Form:
    """pi = 1/2 pi_i^{AB} e^{(N-2)}_{AB} as a dual-slot (N-2)-form."""
    N = coframe.N
    minors = coframe.minors()
    out = Form(N, N - 2, (dual_slot,))
    for (i, A, B), fld in coeffs.items():
        if f_is_zero(fld):
            continue
        m, sign = minors.signed_minor((A, B))
        for K, _, mf in m.terms():
            out.add_term(K, (i,), f_mul(fld, mf, None if sign > 0 else -1))
    return out._finalize()


class ChartError(ValueError):
    pass


def base_probe(rng: Rng, n_base: int, r_fib: int) -> Tuple:
    """The chart's probe point, on the y = 0 section (exp series terminate
    there)."""
    x = [rng.scalar(-2, 2) for _ in range(n_base)]
    return tuple(x) + (Fraction(0),) * r_fib


def build_group_map(split: SplitAlgebra, n_base: int, rng: Rng,
                    quad: bool = True) -> GroupMap:
    """g = exp(eta(y)) with eta in the l block, eta(0) = 0, d eta(0) invertible."""
    alg = split.ambient
    r = split.r
    N = n_base + r
    eta = [f_zero(N) for _ in range(alg.dim)]
    for pos, i in enumerate(split.l_indices):
        terms: Dict[Tuple[int, ...], object] = {}
        e = [0] * N
        e[n_base + pos] = 1
        terms[tuple(e)] = Fraction(1)
        for m in range(r):
            if m >= pos:
                continue
            e2 = [0] * N
            e2[n_base + m] = 1
            terms[tuple(e2)] = terms.get(tuple(e2), 0) + rng.scalar(-1, 1)
        if quad:
            for _ in range(2):
                e3 = [0] * N
                e3[n_base + rng.rng.randrange(r)] += 1
                e3[n_base + rng.rng.randrange(r)] += 1
                terms[tuple(e3)] = terms.get(tuple(e3), 0) + rng.scalar(-1, 1)
        eta[i] = Polynomial(N, terms)
    return GroupMap(alg, eta)


def build_connection_form(split: SplitAlgebra, n_base: int, rng: Rng,
                          probe: Tuple,
                          s_coframe: str = "perturbed",
                          l_rows: str = "random") -> Form:
    """A = A^I_k(x) dx^k: s rows form a base coframe, l rows a connection.

    A "perturbed" base coframe differs from dx by terms vanishing at
    ``probe``.

    ``l_rows`` is "random" (quadratic x-polynomials), "none", or "constant":
    potentials -c x^l dx^k (k < l), whose field strengths are constant.
    """
    alg = split.ambient
    N = n_base + split.r
    x_vars = list(range(n_base))
    out = Form(N, 1, (algebra_slot(alg),))
    for pos, a in enumerate(split.s_indices):
        for k in range(n_base):
            parts = []
            if k == pos:
                parts.append(Polynomial.constant(Fraction(1), N))
            if s_coframe == "perturbed":
                parts.append(rng.vanishing_poly(N, probe, x_vars))
            if parts:
                out.add_term((k,), (a,), f_add(*parts))
    for i in split.l_indices:
        for k in range(n_base):
            if l_rows == "random":
                out.add_term((k,), (i,), rng.poly_in_vars(N, x_vars, deg=2, terms=2))
            elif l_rows == "constant":
                for l in range(k + 1, n_base):
                    c = rng.scalar(-2, 2)
                    if c != 0:
                        out.add_term((k,), (i,), Polynomial.coordinate(l, N).scale(-c))
    return out._finalize()


def assemble_chart(split: SplitAlgebra, n_base: int, seed: int,
                   curved_base: bool = False,
                   l_rows: str = "random") -> GaugeChart:
    """Gauge chart with F and its frame coefficients, and no dual field yet.

    ``curved_base`` perturbs the base coframe; ``l_rows`` is passed on to
    ``build_connection_form``.
    """
    rng = Rng(seed)
    r = split.r
    probe = base_probe(rng, n_base, r)
    gm = build_group_map(split, n_base, rng)
    A_form = build_connection_form(split, n_base, rng, probe,
                                   s_coframe="perturbed" if curved_base else "flat",
                                   l_rows=l_rows)
    e_form = A_form + gm.right_log_derivative()
    coframe = coframe_from_algebra_form(e_form, probe)
    F_form = curvature(A_form, split.ambient)
    return GaugeChart(split, n_base, r, gm, A_form, e_form, coframe, probe,
                      rng, {}, F_form, frame_coeffs_2form(F_form, coframe),
                      curved_base)


def coframe_from_algebra_form(e_form: Form, probe: Tuple) -> Coframe:
    """The coframe of an algebra-valued 1-form, certified at ``probe``."""
    N, dim = e_form.n, e_form.slots[0].dim
    if dim != N:
        raise ChartError("algebra dimension must match the chart dimension")
    entries = [[e_form.get((k,), (I,)) for k in range(N)] for I in range(dim)]
    return Coframe(entries, probe)


# ---------------------------------------------------------------------------
# frame calculus helpers
# ---------------------------------------------------------------------------

def frame_partial_field(coframe: Coframe, f, A: int):
    """Frame derivative field: (d f)(X_A) = sum_k V[k][A] * df/dx_k."""
    V = coframe.inverse_field()
    parts = []
    for k in range(coframe.N):
        df = f_partial(f, k)
        if f_is_zero(df):
            continue
        parts.append(f_mul(V.entry(k, A), df))
    return f_add(*parts) if parts else f_zero(coframe.N)


def g_row_divergence(chart: TrivializedChart, a_at, pv, dpv, i, g, gamma=None):
    """The A-covariant frame divergence X_s p_i^{g s} summed over s, at the
    probe: A acts on the lower index i, then on the upper index g.

    ``a_at`` holds the frame coefficients A^m_B, and ``pv``, ``dpv`` are
    ``p_tables``.  With ``gamma(a, b, c)``, the base Levi-Civita
    coefficients, gamma acts on the upper index s too.
    """
    alg = chart.alg
    s_idx, g_idx = chart.split.s_indices, chart.split.l_indices
    acc = 0
    for s1 in s_idx:
        d = dpv[i, g, s1, s1]
        for j in g_idx:
            for m in g_idx:
                cv = alg.c(j, m, i)
                if cv:
                    d = _sub(d, _mul(_mul(cv, a_at.get((m, s1), 0)), pv[j, g, s1]))
        for j in g_idx:
            for m in g_idx:
                cv = alg.c(g, m, j)
                if cv:
                    d = _add(d, _mul(_mul(cv, a_at.get((m, s1), 0)), pv[i, j, s1]))
        if gamma is not None:
            for ap in s_idx:
                d = _add(d, _mul(gamma(s1, ap, s1), pv[i, g, ap]))
        acc = _add(acc, d)
    return acc


def frame_coeffs_1form(form: Form, coframe: Coframe) -> Dict[Tuple, object]:
    """alpha_A fields (and slot keys) for a 1-form: alpha = alpha_A e^A."""
    V = coframe.inverse_field()
    N = coframe.N
    out: Dict[Tuple, object] = {}
    for (k,), sk, fld in form.terms():
        for A in range(N):
            key = sk + (A,)
            term = f_mul(V.entry(k, A), fld)
            out.setdefault(key, []).append(term)
    return {key: f_add(*parts) for key, parts in out.items()}


def frame_coeffs_2form(form: Form, coframe: Coframe) -> Dict[Tuple, object]:
    """alpha_{AB} fields with alpha = 1/2 alpha_{AB} e^A ^ e^B (A, B appended):
    for A < B, the sum of V^k_A V^l_B alpha_{kl} - V^k_B V^l_A alpha_{kl},
    each product built once.  alpha_{BA} is its negation, bit for bit
    (negation commutes with rounding); alpha_{AA} = 0 has no key."""
    V = coframe.inverse_field()
    N = coframe.N
    out: Dict[Tuple, List] = {}
    for (k, l), sk, fld in form.terms():
        for A in range(N):
            for B in range(A + 1, N):
                ab = f_mul(f_mul(V.entry(k, A), V.entry(l, B)), fld)
                ba = f_mul(f_mul(V.entry(k, B), V.entry(l, A)), fld, -1)
                out.setdefault(sk + (A, B), []).extend((ab, ba))
    coeffs = {}
    for (*sk, A, B), parts in out.items():
        ab = coeffs[(*sk, A, B)] = f_add(*parts)
        coeffs[(*sk, B, A)] = f_scale(ab, -1)
    return coeffs


def base_lc_gamma_fields(chart: GaugeChart):
    """Base Levi-Civita coefficients gamma^a_bc as fields (zero when flat)."""
    split = chart.split
    n = chart.n_base
    N = chart.N
    if not chart.curved_base:
        zero = f_zero(N)
        return [[[zero] * n for _ in range(n)] for _ in range(n)]
    theta_fields = base_torsion_frame_coeffs(chart)
    return levi_civita_coeff_fields(theta_fields, split.b_diag, N)


def base_torsion_frame_coeffs(chart: TrivializedChart):
    """Theta^a_bc of d beta in its own coframe, as fields (s block only)."""
    split = chart.split
    n = chart.n_base
    N = chart.N
    base_entries = [[chart.A_form.get((k,), (a,)) for k in range(N)]
                    for a in split.s_indices]
    # the base coframe only involves dx components; invert the n x n block
    sub = [[base_entries[a][kk] for kk in range(n)] for a in range(n)]
    Vb = MatrixInverseField(sub)
    out = [[[None] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        # d beta^a chart components
        comps: Dict[Tuple[int, int], object] = {}
        for kk in range(n):
            fld = base_entries[a][kk]
            if f_is_zero(fld):
                continue
            for j in range(n):
                if j == kk:
                    continue
                key = (j, kk) if j < kk else (kk, j)
                sgn = 1 if j < kk else -1
                comps.setdefault(key, []).append(f_scale(f_partial(fld, j), sgn))
        comps = {kk: f_add(*v) for kk, v in comps.items()}
        for bb in range(n):
            for c in range(n):
                parts = []
                for (j, l), fld in comps.items():
                    t = f_mul(f_mul(Vb.entry(j, bb), Vb.entry(l, c)), fld)
                    parts.append(t)
                    parts.append(f_mul(f_mul(Vb.entry(j, c), Vb.entry(l, bb)), fld, -1))
                out[a][bb][c] = f_add(*parts) if parts else f_zero(N)
    return out
