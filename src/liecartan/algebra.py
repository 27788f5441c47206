"""Structure-constant Lie algebras, graded splits and adjoint machinery.

Algebras are given by a basis label list and a sparse table c[K][(I,J)]
with [t_I, t_J] = c^K_IJ t_K.  The catalog covers u(1), su(2), so(s,b)
with a diagonal metric, the p_k(n) family (Poincare and its deformations)
and central extensions u = s (+) g used by the gauge models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import linalg
from .fields import TruncationError


def minkowski_diag(n: int) -> List[Fraction]:
    return [Fraction(-1)] + [Fraction(1)] * (n - 1)


def euclidean_diag(n: int) -> List[Fraction]:
    return [Fraction(1)] * n


# what ``c`` and ``c_rows`` give for a missing entry or row: shared, and
# read-only so that no caller can change it for the others
_ZERO = Fraction(0)
_EMPTY_ROW: Mapping[int, Fraction] = MappingProxyType({})


class LieAlgebra:
    """Finite-dimensional Lie algebra with rational structure constants."""

    def __init__(self, name: str, labels: Sequence[str],
                 table: Dict[Tuple[int, int], Dict[int, Fraction]]):
        self.name = name
        self.labels = list(labels)
        self.dim = len(self.labels)
        # normalize: keep both (i,j) and (j,i); drop zeros
        self.table: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
        for (i, j), row in table.items():
            row = {k: v for k, v in row.items() if v != 0}
            if not row:
                continue
            self.table[(i, j)] = dict(row)
            self.table[(j, i)] = {k: -v for k, v in row.items()}
        self._ad_cache: Dict[int, List[List[Fraction]]] = {}

    def c(self, k: int, i: int, j: int) -> Fraction:
        return self.table.get((i, j), _EMPTY_ROW).get(k, _ZERO)

    def c_rows(self, i: int, j: int) -> Mapping[int, Fraction]:
        return self.table.get((i, j), _EMPTY_ROW)

    def entries(self):
        """Yield (K, I, J, value) over the canonical I < J half of the table."""
        for (i, j), row in sorted(self.table.items()):
            if i < j:
                for k, v in sorted(row.items()):
                    yield k, i, j, v

    def basis_ad(self, i: int) -> List[List[Fraction]]:
        m = self._ad_cache.get(i)
        if m is None:
            m = [[self.c(k, i, j) for j in range(self.dim)] for k in range(self.dim)]
            self._ad_cache[i] = m
        return m

    def __repr__(self):
        return f"LieAlgebra({self.name!r}, dim={self.dim})"


@dataclass
class SplitAlgebra:
    """Graded split of an ambient algebra into s and l index blocks."""

    ambient: LieAlgebra
    s_indices: Tuple[int, ...]
    l_indices: Tuple[int, ...]
    b_diag: Optional[List[Fraction]] = None   # metric on s
    k_diag: Optional[List[Fraction]] = None   # metric on l (or g)
    flags: Dict[str, bool] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.s_indices)

    @property
    def r(self) -> int:
        return len(self.l_indices)

    def h_diag(self) -> List[Fraction]:
        """Block metric b (+) k in ambient index order (s first)."""
        return list(self.b_diag) + list(self.k_diag)


# ---------------------------------------------------------------------------
# elementwise operations
# ---------------------------------------------------------------------------

def bracket(alg: LieAlgebra, xi: Sequence, zeta: Sequence) -> List:
    if len(xi) != alg.dim or len(zeta) != alg.dim:
        raise ValueError("element length does not match algebra dimension")
    out = [0] * alg.dim
    for (i, j), row in alg.table.items():
        if i >= j:
            continue
        w = xi[i] * zeta[j] - xi[j] * zeta[i]
        if w == 0:
            continue
        for k, v in row.items():
            out[k] += v * w
    return out


def coadjoint(alg: LieAlgebra, xi: Sequence, alpha: Sequence) -> List:
    """ad*_xi alpha, with <ad*_xi a, z> + <a, [xi, z]> = 0."""
    if len(xi) != alg.dim or len(alpha) != alg.dim:
        raise ValueError("element length does not match algebra dimension")
    out = [0] * alg.dim
    for (i, k), row in alg.table.items():
        w = xi[i]
        if w == 0:
            continue
        for j, v in row.items():
            out[k] -= alpha[j] * v * w
    return out


def ad_matrix(alg: LieAlgebra, xi: Sequence) -> List[List]:
    out = [[0] * alg.dim for _ in range(alg.dim)]
    for i, w in enumerate(xi):
        if w == 0:
            continue
        m = alg.basis_ad(i)
        for k in range(alg.dim):
            row = m[k]
            for j in range(alg.dim):
                if row[j] != 0:
                    out[k][j] += w * row[j]
    return out


def exp_adjoint(alg: LieAlgebra, xi: Sequence, tol: float = 1e-15):
    """Ad_{exp xi} = exp(ad_xi) and its coadjoint partner, numerically.

    Returns (Ad, Ad_dual) as dense float matrices; Ad_dual is the inverse
    transpose, so that <Ad_dual a, Ad z> = <a, z>.
    """
    m = [[float(v) for v in row] for row in ad_matrix(alg, xi)]
    ad = linalg.mat_exp(m, tol=tol)
    m_neg = [[-v for v in row] for row in m]
    ad_inv = linalg.mat_exp(m_neg, tol=tol)
    ad_dual = linalg.transpose(ad_inv)
    return ad, ad_dual


def dexp_right(alg: LieAlgebra, xi: Sequence, dxi: Sequence,
               tol: float = 1e-15, cap: int = 64) -> List:
    """Right transport dg g^{-1} = sum_m ad_xi^m/(m+1)! (dxi) for g = exp(xi)."""
    out = [float(v) for v in dxi]
    term = list(out)
    m = [[float(v) for v in row] for row in ad_matrix(alg, xi)]
    for k in range(1, cap):
        term = [v / (k + 1) for v in linalg.mat_vec(m, term)]
        out = [a + b for a, b in zip(out, term)]
        if max(abs(v) for v in term) < tol:
            return out
    raise TruncationError("dexp series did not converge")


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def jacobi_residual(alg: LieAlgebra):
    worst = 0
    d = alg.dim
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                acc = [0] * d
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = alg.c_rows(b, c)
                    for l, v in inner.items():
                        for m, w in alg.c_rows(a, l).items():
                            acc[m] += w * v
                worst = max(worst, max((abs(x) for x in acc), default=0))
    return worst


def _trace_ad(alg: LieAlgebra, i: int):
    return sum(alg.c(j, i, j) for j in range(alg.dim))


def is_unimodular(alg: LieAlgebra) -> bool:
    """tr ad_x = 0 for every basis element x."""
    return all(_trace_ad(alg, i) == 0 for i in range(alg.dim))


def check_algebra(alg: LieAlgebra, split: Optional[SplitAlgebra] = None) -> dict:
    """Verify the algebra invariants; reports, never raises."""
    report = {
        "jacobi_residual": jacobi_residual(alg),
        "unimodular_ambient": is_unimodular(alg),
    }
    if split is not None:
        s, l = split.s_indices, split.l_indices
        report["unimodular_sub"] = all(
            sum(alg.c(j, i, j) for j in l) == 0 for i in l)
        # reductive: [l, s] in s
        red = all(all(k in s or v == 0 for k, v in alg.c_rows(i, a).items())
                  for i in l for a in s)
        # symmetric: [s, s] in l
        sym = all(all(k in l or v == 0 for k, v in alg.c_rows(a, b).items())
                  for a in s for b in s)
        central = all(not alg.c_rows(a, j) for a in s for j in range(alg.dim))
        report["reductive_ok"] = red
        report["symmetric_ok"] = sym
        report["central_ok"] = central
    return report


def killing_form(alg: LieAlgebra) -> List[List[Fraction]]:
    """B_ij = c^a_{bi} c^b_{aj}."""
    d = alg.dim
    B = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            acc = Fraction(0)
            for a in range(d):
                for b in range(d):
                    acc += alg.c(a, b, i) * alg.c(b, a, j)
            B[i][j] = acc
            B[j][i] = acc
    return B


def killing_pairing(B: List[List[Fraction]], k_diag: Sequence[Fraction]):
    """<B, k> = 1/2 B_ij k^ij for a diagonal metric k."""
    acc = 0
    for i, kv in enumerate(k_diag):
        acc += B[i][i] / kv
    return acc / 2


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def u1() -> LieAlgebra:
    return LieAlgebra("u1", ["t0"], {})


def su2() -> LieAlgebra:
    eps = {(0, 1): 2, (1, 2): 0, (2, 0): 1}
    table: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for (i, j), k in eps.items():
        table[(i, j)] = {k: Fraction(1)}
    return LieAlgebra("su2", ["t0", "t1", "t2"], table)


def _pair_labels(n: int) -> List[str]:
    return [f"[{a},{b}]" for a in range(n) for b in range(a + 1, n)]


def _pair_index(n: int, a: int, b: int) -> Tuple[int, int]:
    """Index of t_{ab} (a<b assumed) in the pair block, with its sign."""
    if a == b:
        raise ValueError("degenerate pair")
    sign = 1
    if a > b:
        a, b = b, a
        sign = -1
    idx = 0
    for x in range(n):
        for y in range(x + 1, n):
            if (x, y) == (a, b):
                return idx, sign
            idx += 1
    raise AssertionError


def so_algebra(h_diag: Sequence[Fraction], name: Optional[str] = None) -> LieAlgebra:
    """so(s, b) for a diagonal metric, in the pair basis t_{ab} (a<b)."""
    n = len(h_diag)
    labels = _pair_labels(n)
    table: Dict[Tuple[int, int], Dict[int, Fraction]] = {}

    def add(i, j, k, v):
        if v == 0 or i == j:
            return
        row = table.setdefault((i, j), {})
        row[k] = row.get(k, Fraction(0)) + v

    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    for i1, (a, b) in enumerate(pairs):
        for i2, (c, d) in enumerate(pairs):
            if i1 >= i2:
                continue
            # [t_ab, t_cd] = h_bc t_ad - h_bd t_ac - h_ac t_bd + h_ad t_bc
            for (x, y, w) in ((a, d, h_diag[b] if b == c else 0),
                              (a, c, -h_diag[b] if b == d else 0),
                              (b, d, -h_diag[a] if a == c else 0),
                              (b, c, h_diag[a] if a == d else 0)):
                if w == 0 or x == y:
                    continue
                k, sign = _pair_index(n, x, y)
                add(i1, i2, k, sign * w)
    return LieAlgebra(name or f"so({n})", labels, table)


def poincare_family(n: int, k_const: Fraction,
                    h_diag: Optional[Sequence[Fraction]] = None) -> SplitAlgebra:
    """p_k(n): translations t_a (first block) plus so(h) rotations t_{ab}.

    Brackets: [t_ab, t_cd] as in so(h); [t_ab, t_c] = h_bc t_a - h_ac t_b;
    [t_a, t_c] = -k t_ac.
    """
    if n < 2:
        raise ValueError("p_k(n) needs n >= 2")
    h = list(h_diag) if h_diag is not None else minkowski_diag(n)
    k_const = Fraction(k_const)
    labels = [f"t{a}" for a in range(n)] + _pair_labels(n)
    table: Dict[Tuple[int, int], Dict[int, Fraction]] = {}

    def add(i, j, k, v):
        if v == 0 or i == j:
            return
        row = table.setdefault((i, j), {})
        row[k] = row.get(k, Fraction(0)) + v

    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    off = n
    # so block
    so = so_algebra(h)
    for (i, j), row in so.table.items():
        if i < j:
            for k, v in row.items():
                add(off + i, off + j, off + k, v)
    # [t_ab, t_c]
    for ip, (a, b) in enumerate(pairs):
        for c in range(n):
            if b == c:
                add(off + ip, c, a, h[b])
            if a == c:
                add(off + ip, c, b, -h[a])
    # [t_a, t_c] = -k t_ac
    if k_const != 0:
        for a in range(n):
            for c in range(a + 1, n):
                kp, sign = _pair_index(n, a, c)
                add(a, c, off + kp, -k_const * sign)
    alg = LieAlgebra(f"p_{k_const}({n})", labels, table)
    split = SplitAlgebra(
        ambient=alg,
        s_indices=tuple(range(n)),
        l_indices=tuple(range(n, len(labels))),
        b_diag=h,
        k_diag=None,
        flags={"reductive": True, "symmetric": True, "s_central": k_const == 0 and n == 0},
    )
    split.flags = _verified_flags(alg, split)
    return split


def central_extension(g: LieAlgebra, n: int,
                      b_diag: Optional[Sequence[Fraction]] = None,
                      k_diag: Optional[Sequence[Fraction]] = None) -> SplitAlgebra:
    """u = s (+) g with s central; basis ordered s first, then g."""
    b = list(b_diag) if b_diag is not None else minkowski_diag(n)
    k = list(k_diag) if k_diag is not None else euclidean_diag(g.dim)
    labels = [f"s{a}" for a in range(n)] + [f"g:{lab}" for lab in g.labels]
    table: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for (i, j), row in g.table.items():
        if i < j:
            table[(n + i, n + j)] = {n + kk: v for kk, v in row.items()}
    alg = LieAlgebra(f"{g.name}+s{n}", labels, table)
    split = SplitAlgebra(
        ambient=alg,
        s_indices=tuple(range(n)),
        l_indices=tuple(range(n, n + g.dim)),
        b_diag=b,
        k_diag=k,
    )
    split.flags = _verified_flags(alg, split)
    return split


def _verified_flags(alg: LieAlgebra, split: SplitAlgebra) -> Dict[str, bool]:
    rep = check_algebra(alg, split)
    return {
        "reductive": rep["reductive_ok"],
        "symmetric": rep["symmetric_ok"],
        "s_central": rep["central_ok"],
    }


def build_algebra(spec: str, **params):
    """Catalog dispatcher; see the algebra-file loader for file-based specs.

    Accepted names: ``u1``, ``su2``, ``so(n)`` / ``so(1,n-1)``,
    ``p_<k>(<n>)`` with k rational, and ``central:<inner>`` with params
    n (base dimension) and optional metrics.
    """
    spec = spec.strip()
    if spec == "u1":
        return u1()
    if spec == "su2":
        return su2()
    if spec.startswith("so("):
        body = spec[3:-1]
        if "," in body:
            p, q = (int(x) for x in body.split(","))
        else:
            p, q = 0, int(body)
        if min(p, q) < 0 or p + q < 2:
            raise ValueError(f"{spec}: so(n) needs n >= 2, and so(p,q) needs "
                             f"p, q >= 0 with p + q >= 2")
        return so_algebra([Fraction(-1)] * p + [Fraction(1)] * q, name=spec)
    if spec.startswith("p_"):
        head, rest = spec[2:].split("(")
        n = int(rest.rstrip(")"))
        return poincare_family(n, Fraction(head), params.get("h_diag"))
    if spec.startswith("central:"):
        inner = build_algebra(spec.split(":", 1)[1])
        if isinstance(inner, SplitAlgebra):
            raise ValueError("central extension expects a plain inner algebra")
        return central_extension(inner, params["n"],
                                 params.get("b_diag"), params.get("k_diag"))
    raise ValueError(f"unknown algebra catalog name: {spec!r}")


def corrupt_algebra(alg: LieAlgebra, seed: int = 0) -> LieAlgebra:
    """Negative-control helper: flip one structure constant's sign and
    inject a spurious off-pattern entry so the Jacobi identity breaks.
    A 1-dimensional algebra has no bracket to break and raises."""
    if alg.dim < 2:
        raise ValueError(f"structure corruption of {alg.name}: a 1-dimensional "
                         f"algebra has no bracket to break")
    entries = list(alg.entries())
    if not entries:
        # abelian: inject a spurious bracket instead
        table = {(0, 1): {0: Fraction(1)}}
        return LieAlgebra(alg.name + "#corrupt", alg.labels, table)
    k, i, j, v = entries[seed % len(entries)]
    table: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for (a, b), row in alg.table.items():
        if a < b:
            table[(a, b)] = dict(row)
    table[(i, j)][k] = -v
    k2 = (k + 1) % alg.dim
    table[(i, j)][k2] = table[(i, j)].get(k2, Fraction(0)) + Fraction(1)
    return LieAlgebra(alg.name + "#corrupt", alg.labels, table)
