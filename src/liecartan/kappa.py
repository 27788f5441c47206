"""Palatini-type kappa tensors, their invariance, and scalar constants."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from . import linalg
from .algebra import (LieAlgebra, SplitAlgebra, exp_adjoint, killing_form,
                      killing_pairing)


class KappaTensor:
    """Entries kappa_I^{ab} stored for a < b; antisymmetrized on read.

    The row index I runs over the ambient algebra basis; for the standard
    and Holst kinds all s-rows vanish (kappa_s^{ss} = 0).
    """

    def __init__(self, split: SplitAlgebra, entries: Dict[Tuple[int, int, int], object],
                 kind: str, gamma=None):
        self.split = split
        self.kind = kind
        self.gamma = gamma
        self.entries = {k: v for k, v in entries.items() if v != 0}
        for (_, a, b) in self.entries:
            if not a < b:
                raise ValueError("entries must be stored with a < b")

    def get(self, I: int, a: int, b: int):
        if a == b:
            return 0
        if a < b:
            return self.entries.get((I, a, b), 0)
        return -self.entries.get((I, b, a), 0)

    def s_pairs(self) -> List[Tuple[int, int]]:
        n = self.split.n
        return [(a, b) for a in range(n) for b in range(a + 1, n)]

    def as_map_matrix(self) -> List[List[object]]:
        """Matrix of xi_ab -> 1/2 kappa_I^{ab} xi_ab on antisymmetric slots.

        Rows are indexed by the l-block basis, columns by s-pairs a < b.
        """
        pairs = self.s_pairs()
        return [[self.get(I, a, b) for (a, b) in pairs]
                for I in self.split.l_indices]


def epsilon_symbol(idx: Sequence[int]) -> int:
    if len(set(idx)) != len(idx):
        return 0
    from .forms import perm_parity

    return perm_parity(list(idx))


def build_kappa(kind: str, split: SplitAlgebra, gamma=None) -> KappaTensor:
    """Standard Palatini kappa or its Holst deformation (n = 4 only)."""
    n = split.n
    off = min(split.l_indices)
    entries: Dict[Tuple[int, int, int], object] = {}
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    pair_pos = {p: i for i, p in enumerate(pairs)}
    if kind == "standard":
        for (c, d) in pairs:
            entries[(off + pair_pos[(c, d)], c, d)] = Fraction(1)
        return KappaTensor(split, entries, "standard")
    if kind == "holst":
        if n != 4:
            raise ValueError("the Holst kappa requires n = 4")
        if gamma is None or gamma == 0:
            raise ValueError("the Holst kappa needs a nonzero parameter")
        h = split.b_diag
        inv_gamma = (Fraction(1) / gamma) if isinstance(gamma, (int, Fraction)) else 1 / gamma
        for (c, d) in pairs:
            for (a, b) in pairs:
                val = (Fraction(1) if (a, b) == (c, d) else Fraction(0))
                eps = epsilon_symbol((a, b, c, d))
                if eps != 0:
                    # eps^{ab}_{cd} = h^{aa'} h^{bb'} eps_{a'b'cd}, diagonal h
                    val = val - inv_gamma * eps / (h[a] * h[b])
                if val != 0:
                    entries[(off + pair_pos[(c, d)], a, b)] = val
        return KappaTensor(split, entries, "holst", gamma)
    raise ValueError(f"unknown kappa kind {kind!r}")


def kappa_invariance_residual(split: SplitAlgebra, kappa: KappaTensor,
                              samples: int = 50, seed: int = 42,
                              scale: float = 0.5) -> float:
    """max |Ad*_g (x) Ad_g (x) Ad_g (kappa) - kappa| over g = exp(xi), xi in l."""
    rng = random.Random(seed)
    alg = split.ambient
    n = split.n
    d = alg.dim
    dense = [[[float(_as_float(kappa.get(I, a, b))) if not _is_complex(kappa.get(I, a, b))
               else kappa.get(I, a, b)
               for b in range(n)] for a in range(n)] for I in range(d)]
    worst = 0.0
    for _ in range(samples):
        xi = [0.0] * d
        for i in split.l_indices:
            xi[i] = rng.uniform(-scale, scale)
        ad, ad_dual = exp_adjoint(alg, xi)
        ad_inv = linalg.transpose(ad_dual)
        for I in range(d):
            for a in range(n):
                for b in range(n):
                    acc = 0.0
                    for J in range(d):
                        w = ad_inv[J][I]
                        if w == 0:
                            continue
                        inner = 0.0
                        for c in range(n):
                            for e in range(n):
                                k = dense[J][c][e]
                                if k == 0:
                                    continue
                                inner += k * ad[a][c] * ad[b][e]
                        acc += w * inner
                    worst = max(worst, abs(acc - dense[I][a][b]))
    return worst


def kappa_ad_residual(split: SplitAlgebra, kappa: KappaTensor):
    """max |(ad_{t_i} kappa)_I^{ab}| over t_i in l, exactly: the
    infinitesimal form of ``kappa_invariance_residual``,
    (ad_{t_i} kappa)_I^{ab} = -sum_J c^J_{iI} kappa_J^{ab}
    + sum_c c^a_{ic} kappa_I^{cb} + sum_c c^b_{ic} kappa_I^{ac}."""
    alg = split.ambient
    n, d = split.n, alg.dim
    worst = 0
    for i in split.l_indices:
        for I in range(d):
            for a in range(n):
                for b in range(a + 1, n):
                    acc = -sum(alg.c(J, i, I) * kappa.get(J, a, b) for J in range(d))
                    for c in range(n):
                        acc += (alg.c(a, i, c) * kappa.get(I, c, b)
                                + alg.c(b, i, c) * kappa.get(I, a, c))
                    worst = max(worst, abs(acc))
    return worst


def _as_float(v):
    return complex(v) if isinstance(v, complex) else float(v)


def _is_complex(v):
    return isinstance(v, complex)


def kappa_kernel_rank(kappa: KappaTensor) -> int:
    """Rank of the antisymmetric-slot map; full rank means trivial kernel."""
    M = [[complex(v) for v in row] for row in kappa.as_map_matrix()]
    return linalg.rank(M, tol=1e-9)


def epsilon_double_contraction(h_diag: Sequence, n: int = 4):
    """T^{ab}_{cd} = eps^{ab}_{c'd'} eps^{c'd'}_{cd}; equals 2 det(hbar) d^{ab}_{cd}."""
    if len(h_diag) != n:
        raise ValueError("metric size mismatch")
    hbar = [1 / Fraction(x) if isinstance(x, (int, Fraction)) else 1.0 / x for x in h_diag]

    def eps_up(a, b, c, d):
        return hbar[a] * hbar[b] * epsilon_symbol((a, b, c, d))

    T = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    acc = 0
                    for cp in range(n):
                        for dp in range(n):
                            acc += eps_up(a, b, cp, dp) * eps_up(cp, dp, c, d)
                    T[(a, b, c, d)] = acc
    return T


def det_hbar(h_diag: Sequence):
    out = 1
    for x in h_diag:
        out = out * (1 / Fraction(x) if isinstance(x, (int, Fraction)) else 1.0 / x)
    return out


def holst_kernel_factor(gamma, h_diag: Sequence):
    """Factor multiplying the trace-modified torsion after double substitution.

    1 + 1/gamma^2 for a normalized Minkowski metric, 1 - 1/gamma^2 for a
    Euclidean one; vanishing factor means a degenerate (Ashtekar-type) kappa.
    """
    if gamma == 0:
        raise ValueError("parameter must be nonzero")
    det = det_hbar(h_diag)
    if abs(det) != 1:
        raise ValueError("metric must be normalized to |det| = 1")
    return 1 - det / gamma ** 2


def lambda_constant(kind: str, **params):
    """Cosmological constants of the three models.

    - gravity(n, k): -1/2 c^l_{ss} kappa_l^{ss} on p_k(n); equals n(n-1)k/2.
    - holst(k): the same on p_k(4) with the Holst kappa; equals 6k.
    - kk(lambda0, algebra, k_diag): lambda0 + 1/4 <B, k>.
    """
    if kind == "gravity" or kind == "holst":
        from .algebra import poincare_family

        n = params.get("n", 4 if kind == "holst" else None)
        if kind == "holst":
            n = 4
        k_const = Fraction(params["k"])
        split = params.get("split") or poincare_family(n, k_const)
        kappa = params.get("kappa")
        if kappa is None:
            kappa = build_kappa("standard" if kind == "gravity" else "holst",
                                split, gamma=params.get("gamma", 2))
        alg = split.ambient
        acc = Fraction(0)
        for I in split.l_indices:
            for a in range(split.n):
                for b in range(split.n):
                    c = alg.c(I, a, b)
                    if c != 0:
                        acc += c * kappa.get(I, a, b)
        lam = -acc / 2
        expected = Fraction(n * (n - 1), 2) * k_const
        if lam != expected:
            raise AssertionError(
                f"computed constant {lam} differs from n(n-1)k/2 = {expected}")
        return lam
    if kind == "kk":
        lam0 = params["lambda0"]
        alg: LieAlgebra = params["algebra"]
        k_diag = params["k_diag"]
        B = killing_form(alg)
        return lam0 + killing_pairing(B, k_diag) / 4
    raise ValueError(f"unknown constant kind {kind!r}")
