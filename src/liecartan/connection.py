"""Covariant exterior derivative, curvature/torsion, group maps and gauge
transformations for structure-constant representations."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import LieAlgebra
from .fields import (Taylor, TruncationError, f_add, f_is_zero, f_mul, f_partial,
                     f_scale, f_zero)
from .forms import Form, Slot, SlotMismatchError, exterior_d, merge_sign

HALF = Fraction(1, 2)


class Representation:
    """Sparse matrices rho(t_i) for each basis element of the acting algebra."""

    def __init__(self, name: str, mats: List[Dict[Tuple[int, int], object]], dim: int):
        self.name = name
        self.mats = mats  # per basis element: {(row, col): value}
        self.dim = dim

    @staticmethod
    def adjoint(alg: LieAlgebra) -> "Representation":
        mats = []
        for i in range(alg.dim):
            m = {}
            for k in range(alg.dim):
                for j in range(alg.dim):
                    v = alg.c(k, i, j)
                    if v:
                        m[(k, j)] = v
            mats.append(m)
        return Representation("adjoint", mats, alg.dim)

    @staticmethod
    def coadjoint(alg: LieAlgebra) -> "Representation":
        return Representation.adjoint(alg).dual()

    def dual(self) -> "Representation":
        mats = [{(j, i): -v for (i, j), v in m.items()} for m in self.mats]
        return Representation(self.name + "*", mats, self.dim)


def cov_d(omega: Form, alpha: Form, reps: Sequence[Optional[Representation]]) -> Form:
    """d^w alpha = d alpha + (rho w) ^ alpha, slotwise per the tensor rule."""
    if len(reps) != len(alpha.slots):
        raise SlotMismatchError("one representation entry per slot is required")
    out = exterior_d(alpha)
    w, a = beside_d(alpha, omega, alpha)
    for pos, rep in enumerate(reps):
        if rep is None or all(not m for m in rep.mats):
            continue
        if rep.dim != alpha.slots[pos].dim:
            raise SlotMismatchError("representation does not act on this slot")
        contrib = _rho_omega_wedge(w, a, pos, rep)
        out = out + contrib
    return out


def beside_d(alpha: Form, *forms: Form):
    """The factors of a product term added to d alpha: order-0 copies of
    ``forms`` when alpha has an order-1 ``Taylor`` coefficient, whose d is
    order 0 (a sum with an order-0 summand keeps no partials, so the
    product's partials would be dropped); else ``forms`` as they are."""
    for _, _, f in alpha.terms():
        if isinstance(f, Taylor) and f._d is not None:
            return [g.at(f._pt, 0) for g in forms]
    return forms


def _rho_omega_wedge(omega: Form, alpha: Form, pos: int, rep: Representation) -> Form:
    out = Form(alpha.n, alpha.degree + 1, alpha.slots)
    if out.degree > alpha.n:
        return out
    # each matrix's entries by column, in stored order within a column
    by_col = [{} for _ in rep.mats]
    for cols, mat in zip(by_col, rep.mats):
        for (row, col), v in mat.items():
            cols.setdefault(col, []).append((row, v))
    for (kw,), (i,), fw in omega.terms():
        cols = by_col[i]
        if not cols:
            continue
        for K, sk, fa in alpha.terms():
            rows = cols.get(sk[pos])
            if rows is None or kw in K:
                continue
            K2, sign = merge_sign((kw,), K)
            for row, v in rows:
                fld = f_mul(fw, fa, v if sign > 0 else -v)
                if not f_is_zero(fld):
                    out._append(K2, sk[:pos] + (row,) + sk[pos + 1:], fld)
    return out._finalize()


def bracket_wedge(alg: LieAlgebra, a: Form, b: Form) -> Form:
    """[a ^ b]^K = c^K_IJ a^I ^ b^J for single-algebra-slot forms."""
    out = Form(a.n, a.degree + b.degree, a.slots)
    if out.degree > a.n:
        return out
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
            for k, v in row.items():
                term = f_scale(fld, v if sign > 0 else -v)
                if not f_is_zero(term):
                    out._append(K, (k,), term)
    return out._finalize()


def curvature(omega: Form, alg: LieAlgebra) -> Form:
    """Omega = d w + 1/2 [w ^ w]."""
    w, = beside_d(omega, omega)
    return exterior_d(omega) + bracket_wedge(alg, w, w).scale(HALF)


# ---------------------------------------------------------------------------
# group maps g = exp(eta)
# ---------------------------------------------------------------------------

class GroupMap:
    """g = exp(eta) for an algebra-valued field tuple eta on the chart, read
    at ``probe``, where eta must vanish (else ``TruncationError``).

    There the exp and dexp series of ad(eta) stop after their first-order
    terms: Ad = I + ad(eta), Ad^-1 = I - ad(eta) and dexp+- = I +- 1/2
    ad(eta), each a matrix of order-1 ``Taylor`` numbers (``first_order``).
    """

    def __init__(self, alg: LieAlgebra, eta: Sequence, probe: Sequence):
        self.alg = alg
        self.eta = list(eta)
        self.n = self.eta[0].n
        self.probe = tuple(probe)
        d = range(alg.dim)
        ad = [[Taylor.of(self._ad_eta(k, j), self.probe) for j in d] for k in d]
        if any(m._v for row in ad for m in row):
            raise TruncationError("matrix series does not terminate unless the "
                                  "exponent vanishes at the point")
        self._ad, self._mats = ad, {}

    def _ad_eta(self, k: int, j: int):
        """ad(eta)^k_j = c^k_{ij} eta^i."""
        parts = [f_scale(e, self.alg.c(k, i, j)) for i, e in enumerate(self.eta)
                 if self.alg.c(k, i, j) and not f_is_zero(e)]
        return f_add(*parts) if parts else f_zero(self.n)

    def first_order(self, c1):
        """The matrix I + c1 ad(eta), built on its first read."""
        mat = self._mats.get(c1)
        if mat is None:
            mat = self._mats[c1] = [
                [f_add(Taylor(self.n, self.probe, Fraction(1) if i == j else 0, {}),
                       f_scale(m, c1)) for j, m in enumerate(row)]
                for i, row in enumerate(self._ad)]
        return mat

    def ad_entry(self, i: int, j: int):
        return self.first_order(1)[i][j]

    def ad_inv_entry(self, i: int, j: int):
        return self.first_order(-1)[i][j]

    def ad_dual_entry(self, i: int, j: int):
        # Ad*_g = (Ad_g^{-1})^T
        return self.first_order(-1)[j][i]

    def ad_dual_inv_entry(self, i: int, j: int):
        return self.first_order(1)[j][i]

    def right_transport(self) -> List[List]:
        """The components (dg g^{-1})^i_k = sum_j dexp+[i][j] d_k eta^j, by
        [i][k]; the zero polynomial where no term is live."""
        return self._transport(self.first_order(HALF))

    def right_log_derivative(self) -> Form:
        """dg g^{-1} as an algebra-valued 1-form."""
        return algebra_one_form(self.alg, self.right_transport())

    def left_log_derivative(self) -> Form:
        """g^{-1} dg (the Maurer-Cartan form of g)."""
        return algebra_one_form(self.alg, self._transport(self.first_order(-HALF)))

    def _transport(self, dexp) -> List[List]:
        deta = [[e if f_is_zero(e) else f_partial(e, k) for e in self.eta]
                for k in range(self.n)]
        out = [[f_zero(self.n)] * self.n for _ in dexp]
        for k in range(self.n):
            for i, row in enumerate(dexp):
                parts = [f_mul(row[j], dj) for j, dj in enumerate(deta[k])
                         if not f_is_zero(dj)]
                if parts:
                    out[i][k] = f_add(*parts)
        return out


def algebra_slot(alg: LieAlgebra, dual: bool = False) -> Slot:
    return Slot(alg.name, alg.dim, dual)


def algebra_one_form(alg: LieAlgebra, rows) -> Form:
    """sum_{i, k} rows[i][k] dx^k t_i, its terms added by k, then i."""
    n = len(rows[0])
    out = Form(n, 1, (algebra_slot(alg),))
    for k in range(n):
        for i, row in enumerate(rows):
            out.add_term((k,), (i,), row[k])
    return out._finalize()


def maurer_cartan_form(gm: GroupMap) -> Form:
    return gm.left_log_derivative()


def maurer_cartan_residual(theta: Form, alg: LieAlgebra, probe) -> object:
    return curvature(theta, alg).max_abs(probe)


def apply_matrix_to_slot(form: Form, pos: int, entry_fn) -> Form:
    """Multiply slot ``pos`` by a matrix of fields given through entry_fn(i, j)."""
    dim = form.slots[pos].dim
    out = Form(form.n, form.degree, form.slots)
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

def levi_civita_coeff_fields(theta_fields, h_diag: Sequence, n_chart: int):
    """gamma^a_bc fields from the coefficients of d(theta) in its own coframe.

    ``theta_fields[a][b][c]`` holds Theta^a_bc (antisymmetric in b, c) with
    d e^a = 1/2 Theta^a_bc e^b ^ e^c.  The returned gamma satisfies
    d e^a + gamma^a_b ^ e^b = 0 and gamma^{ab} = -gamma^{ba}.
    """
    n = len(h_diag)
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        inv_a = 1 / h_diag[a]
        for b in range(n):
            for c in range(n):
                parts = [theta_fields[a][b][c],
                         f_scale(theta_fields[b][a][c], -inv_a * h_diag[b]),
                         f_scale(theta_fields[c][a][b], -inv_a * h_diag[c])]
                gamma[a][b][c] = f_scale(f_add(*parts), HALF)
    return gamma
