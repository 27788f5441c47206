"""Covariant exterior derivative, curvature/torsion, group maps and gauge
transformations for structure-constant representations."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import LieAlgebra
from .fields import (MatrixDexpField, MatrixExpField, MatrixField, f_add,
                     f_is_zero, f_mul, f_scale, f_zero)
from .forms import Form, Slot, SlotMismatchError, exterior_d

class Representation:
    """Sparse matrices rho(t_i) for each basis element of the acting algebra."""

    def __init__(self, name: str, mats: List[Dict[Tuple[int, int], object]], dim: int):
        self.name = name
        self.mats = mats  # per basis element: {(row, col): value}
        self.dim = dim

    @staticmethod
    def trivial(r: int, dim: int) -> "Representation":
        return Representation("trivial", [{} for _ in range(r)], dim)

    @staticmethod
    def adjoint(alg: LieAlgebra) -> "Representation":
        mats = []
        for i in range(alg.dim):
            m = {}
            for k in range(alg.dim):
                for j in range(alg.dim):
                    v = alg.c(k, i, j)
                    if v != 0:
                        m[(k, j)] = v
            mats.append(m)
        return Representation("adjoint", mats, alg.dim)

    @staticmethod
    def coadjoint(alg: LieAlgebra) -> "Representation":
        return Representation.adjoint(alg).dual()

    @staticmethod
    def matrix(mats, dim: int) -> "Representation":
        return Representation("matrix", mats, dim)

    def dual(self) -> "Representation":
        mats = [{(j, i): -v for (i, j), v in m.items()} for m in self.mats]
        return Representation(self.name + "*", mats, self.dim)

    def unimodular(self) -> bool:
        return all(sum(v for (i, j), v in m.items() if i == j) == 0 for m in self.mats)


def cov_d(omega: Form, alpha: Form, reps: Sequence[Optional[Representation]]) -> Form:
    """d^w alpha = d alpha + (rho w) ^ alpha, slotwise per the tensor rule."""
    if len(reps) != len(alpha.slots):
        raise SlotMismatchError("one representation entry per slot is required")
    out = exterior_d(alpha)
    for pos, rep in enumerate(reps):
        if rep is None or all(not m for m in rep.mats):
            continue
        if rep.dim != alpha.slots[pos].dim:
            raise SlotMismatchError("representation does not act on this slot")
        contrib = _rho_omega_wedge(omega, alpha, pos, rep)
        out = out + contrib
    return out


def _rho_omega_wedge(omega: Form, alpha: Form, pos: int, rep: Representation) -> Form:
    out = Form(alpha.n, alpha.degree + 1, alpha.slots)
    if out.degree > alpha.n:
        return out
    for (kw,), (i,), fw in omega.terms():
        mat = rep.mats[i]
        if not mat:
            continue
        for K, sk, fa in alpha.terms():
            if kw in K:
                continue
            for (row, col), v in mat.items():
                if sk[pos] != col:
                    continue
                nsk = sk[:pos] + (row,) + sk[pos + 1:]
                out.add_term((kw,) + K, nsk, f_scale(f_mul(fw, fa), v))
    return out._finalize()


def bracket_wedge(alg: LieAlgebra, a: Form, b: Form) -> Form:
    """[a ^ b]^K = c^K_IJ a^I ^ b^J for single-algebra-slot forms."""
    out = Form(a.n, a.degree + b.degree, a.slots)
    if out.degree > a.n:
        return out
    from .forms import merge_sign
    for I, (i,), fa in a.terms():
        for J, (j,), fb in b.terms():
            row = alg.c_rows(i, j)
            if not row:
                continue
            merged = merge_sign(I, J)
            if merged is None:
                continue
            K, sign = merged
            fld = f_mul(fa, fb)
            if sign < 0:
                fld = f_scale(fld, -1)
            for k, v in row.items():
                out.add_term(K, (k,), f_scale(fld, v))
    return out._finalize()


def curvature(omega: Form, alg: LieAlgebra) -> Form:
    """Omega = d w + 1/2 [w ^ w]."""
    return exterior_d(omega) + bracket_wedge(alg, omega, omega).scale(_halfc())


def torsion(omega: Form, e_s: Form, rep: Representation) -> Form:
    """Theta = d^w e for a soldering form e with the given slot action."""
    return cov_d(omega, e_s, (rep,))


# ---------------------------------------------------------------------------
# group maps g = exp(eta)
# ---------------------------------------------------------------------------

class GroupMap:
    """g = exp(eta) for an algebra-valued field tuple eta on the chart.

    Exact evaluation requires eta to vanish at the probe points (the jet
    series then terminate); the float backend converges regardless.
    """

    def __init__(self, alg: LieAlgebra, eta: Sequence, n_chart: int, exact: bool = True):
        self.alg = alg
        self.eta = list(eta)
        self.n = n_chart
        self.exact = exact
        self._ad_eta = self._build_ad_eta()
        self._Ad = MatrixExpField(self._ad_eta, exact=exact)
        self._Ad_inv = MatrixExpField(_mat_neg(self._ad_eta), exact=exact)
        self._dexp_pos = MatrixDexpField(self._ad_eta, exact=exact)
        self._dexp_neg = MatrixDexpField(_mat_neg(self._ad_eta), exact=exact)

    def _build_ad_eta(self):
        d = self.alg.dim
        rows = []
        for k in range(d):
            row = []
            for j in range(d):
                parts = []
                for i, comp in enumerate(self.eta):
                    v = self.alg.c(k, i, j)
                    if v != 0 and not f_is_zero(comp):
                        parts.append(f_scale(comp, v))
                row.append(f_add(*parts) if parts else f_zero(self.n))
            rows.append(row)
        return rows

    def ad_entry(self, i: int, j: int):
        return self._Ad.entry(i, j)

    def ad_inv_entry(self, i: int, j: int):
        return self._Ad_inv.entry(i, j)

    def ad_dual_entry(self, i: int, j: int):
        # Ad*_g = (Ad_g^{-1})^T
        return self._Ad_inv.entry(j, i)

    def ad_dual_inv_entry(self, i: int, j: int):
        return self._Ad.entry(j, i)

    def right_log_derivative(self) -> Form:
        """dg g^{-1} as an algebra-valued 1-form."""
        return self._transport_form(self._dexp_pos)

    def left_log_derivative(self) -> Form:
        """g^{-1} dg (the Maurer-Cartan form of g)."""
        return self._transport_form(self._dexp_neg)

    def _transport_form(self, dexp: MatrixField) -> Form:
        d = self.alg.dim
        slot = algebra_slot(self.alg)
        out = Form(self.n, 1, (slot,))
        for k in range(self.n):
            for i in range(d):
                parts = []
                for j in range(d):
                    dj = _partial_or_zero(self.eta[j], k)
                    if f_is_zero(dj):
                        continue
                    parts.append(f_mul(dexp.entry(i, j), dj))
                if parts:
                    out.add_term((k,), (i,), f_add(*parts))
        return out._finalize()


def _partial_or_zero(field, k: int):
    from .fields import f_partial

    if f_is_zero(field):
        return field
    return f_partial(field, k)


def _mat_neg(rows):
    return [[f_scale(x, -1) for x in row] for row in rows]


def algebra_slot(alg: LieAlgebra, dual: bool = False) -> Slot:
    return Slot(alg.name, alg.dim, dual)


def identity_group_map(alg: LieAlgebra, n_chart: int, exact: bool = True) -> GroupMap:
    return GroupMap(alg, [f_zero(n_chart)] * alg.dim, n_chart, exact)


def maurer_cartan_form(gm: GroupMap) -> Form:
    return gm.left_log_derivative()


def maurer_cartan_residual(theta: Form, alg: LieAlgebra, points: Sequence) -> object:
    res = curvature(theta, alg)
    return max(res.max_abs(p) for p in points)


def apply_matrix_to_slot(form: Form, pos: int, entry_fn, out_slot: Optional[Slot] = None) -> Form:
    """Multiply slot ``pos`` by a matrix of fields given through entry_fn(i, j)."""
    slots = list(form.slots)
    if out_slot is not None:
        slots[pos] = out_slot
    dim = slots[pos].dim
    out = Form(form.n, form.degree, tuple(slots))
    for K, sk, fld in form.terms():
        j = sk[pos]
        for i in range(dim):
            ent = entry_fn(i, j)
            if ent is None:
                continue
            out.add_term(K, sk[:pos] + (i,) + sk[pos + 1:], f_mul(ent, fld))
    return out._finalize()


def gauge_transform(gm: GroupMap, theta: Form, pi: Optional[Form] = None):
    """(theta, pi) -> (Ad_g theta - dg g^{-1}, Ad*_g pi)."""
    a = apply_matrix_to_slot(theta, 0, gm.ad_entry) - gm.right_log_derivative()
    if pi is None:
        return a
    p = apply_matrix_to_slot(pi, 0, gm.ad_dual_entry)
    return a, p


def adjoint_transport(gm: GroupMap, form: Form) -> Form:
    return apply_matrix_to_slot(form, 0, gm.ad_entry)


def coadjoint_transport(gm: GroupMap, form: Form) -> Form:
    return apply_matrix_to_slot(form, 0, gm.ad_dual_entry)


# ---------------------------------------------------------------------------
# Levi-Civita coefficients from torsion data
# ---------------------------------------------------------------------------

def levi_civita_coeffs(theta_coeffs, h_diag: Sequence):
    """gamma^a_bc from the coefficients of d(theta) in its own coframe.

    ``theta_coeffs[a][b][c]`` holds Theta^a_bc (antisymmetric in b, c) with
    d e^a = 1/2 Theta^a_bc e^b ^ e^c.  The returned gamma satisfies
    d e^a + gamma^a_b ^ e^b = 0 and gamma^{ab} = -gamma^{ba}.
    """
    n = len(h_diag)
    gamma = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                t1 = theta_coeffs[a][b][c]
                t2 = h_diag[b] * theta_coeffs[b][a][c] / h_diag[a]
                t3 = h_diag[c] * theta_coeffs[c][a][b] / h_diag[a]
                gamma[a][b][c] = (t1 - t2 - t3) / 2
    return gamma


def levi_civita_coeff_fields(theta_fields, h_diag: Sequence, n_chart: int):
    """Field-valued variant of :func:`levi_civita_coeffs`."""
    n = len(h_diag)
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        inv_a = 1 / h_diag[a]
        for b in range(n):
            for c in range(n):
                parts = [theta_fields[a][b][c],
                         f_scale(theta_fields[b][a][c], -inv_a * h_diag[b]),
                         f_scale(theta_fields[c][a][b], -inv_a * h_diag[c])]
                gamma[a][b][c] = f_scale(f_add(*parts), _halfc())
    return gamma


def _halfc():
    from fractions import Fraction

    return Fraction(1, 2)
