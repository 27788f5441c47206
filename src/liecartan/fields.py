"""Lazy field algebra on top of jets.

Polynomials stay eager; anything built from matrix exponentials or
coframe inverses becomes a lazy node.  Every coefficient is "something
with a .jet(point, order), a .value(point) and a .dvalue(point, k)".

- ``value`` is the order-0 path: the scalar ``jet(point, 0).value``.
- ``dvalue`` is the order-1 path: the first partial along coordinate k,
  ``jet(point, 1).deriv((k,))``.  Sums, products and scalings combine the
  values and first partials of their children by the sum and product
  rules (forward-mode differentiation), in the operand order and with the
  zero-drop rule of ``Jet``, so that even float bits agree with the jets.
  ``FPartial``'s value is its child's ``dvalue``; ``FPartial`` and
  ``MatrixEntryField`` take their own first partials from order-1 jets.
- Jets are only built where a node asks for them: partials of partials
  and the matrix series.

Both paths give a zero as the int 0, like ``Jet.value`` and ``Jet.deriv``.
Results are memoised per point, keyed by the identity of the point
object: probe tuples are shared, and hashing tuples of Fractions would
cost more than the memo saves.  A node keeps the value and first partials
at the first point it sees in its own slots; a dict is created only when
the node is asked for a jet or evaluated at a further point.
"""

from __future__ import annotations

import math
from typing import Dict, List

from .scalars import Jet, Polynomial

SERIES_CAP = 64
FLOAT_SERIES_TOL = 1e-17

_UNSET = object()  # memo slot not yet computed


class TruncationError(ArithmeticError):
    """Series failed to converge within the hard term cap."""


def _as_tuple(point) -> tuple:
    return point if isinstance(point, tuple) else tuple(point)


def _zero_as_int(x):
    return 0 if x == 0 else x  # a zero is the int 0, as in Jet.value/deriv


class _Lazy:
    # _pt is the first point seen; _v and _d (a list indexed by k) are the
    # value and first partials there.  _memo holds jets under (id, order)
    # and, for every further point, a [point, value, partials] record
    # under its id.
    __slots__ = ("n", "_pt", "_v", "_d", "_memo")

    def __init__(self, n: int):
        self.n = n
        self._pt = None
        self._v = _UNSET
        self._d = None
        self._memo = None

    def jet(self, point, order) -> Jet:
        if self._memo is None:
            self._memo = {}
        key = (id(point), order)
        hit = self._memo.get(key)
        if hit is not None and hit[0] is point:
            return hit[1]
        out = self._eval(_as_tuple(point), order)
        self._memo[key] = (point, out)
        return out

    def _record(self, point) -> list:
        if self._memo is None:
            self._memo = {}
        rec = self._memo.get(id(point))
        if rec is None or rec[0] is not point:
            rec = self._memo[id(point)] = [point, _UNSET, [_UNSET] * self.n]
        return rec

    def value(self, point):
        """Scalar value at ``point``, equal to ``jet(point, 0).value``."""
        if point is not self._pt:
            if self._pt is not None:
                rec = self._record(point)
                if rec[1] is _UNSET:
                    rec[1] = _zero_as_int(self._value(_as_tuple(point)))
                return rec[1]
            self._pt = point
        v = self._v
        if v is _UNSET:
            v = self._v = _zero_as_int(self._value(_as_tuple(point)))
        return v

    def dvalue(self, point, k: int):
        """First partial along ``k`` at ``point``, equal to
        ``jet(point, 1).deriv((k,))``."""
        if point is self._pt:
            d = self._d
        elif self._pt is None:
            self._pt = point
            d = None
        else:
            d = self._record(point)[2]
        if d is None:
            d = self._d = [_UNSET] * self.n
        out = d[k]
        if out is _UNSET:
            out = d[k] = _zero_as_int(self._dvalue(_as_tuple(point), k))
        return out

    def _value(self, point):
        return self.jet(point, 0).value

    def _dvalue(self, point, k):
        return self.jet(point, 1).deriv((k,))

    def _eval(self, point, order) -> Jet:  # pragma: no cover - abstract
        raise NotImplementedError

    def __neg__(self):
        return FScale(self, -1)


class FSum(_Lazy):
    __slots__ = ("parts",)

    def __init__(self, parts):
        super().__init__(parts[0].n)
        self.parts = list(parts)

    def _eval(self, point, order):
        out = self.parts[0].jet(point, order)
        for f in self.parts[1:]:
            out = out + f.jet(point, order)
        return out

    def _value(self, point):
        out = self.parts[0].value(point)
        for f in self.parts[1:]:
            out = out + f.value(point)
        return out

    def _dvalue(self, point, k):
        out = self.parts[0].dvalue(point, k)
        for f in self.parts[1:]:
            out = out + f.dvalue(point, k)
        return out


class FProd(_Lazy):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        super().__init__(a.n)
        self.a = a
        self.b = b

    def _eval(self, point, order):
        return self.a.jet(point, order) * self.b.jet(point, order)

    def _value(self, point):
        # like Jet.__mul__: a zero factor drops the term (0 * inf is 0 here)
        va = self.a.value(point)
        vb = self.b.value(point)
        return va * vb if va != 0 and vb != 0 else 0

    def _dvalue(self, point, k):
        # product rule with Jet.__mul__'s terms: va * db, then + da * vb,
        # each dropped when a factor is zero
        a, b = self.a, self.b
        out = 0
        va = a.value(point)
        if va != 0:
            db = b.dvalue(point, k)
            if db != 0:
                out = va * db
        vb = b.value(point)
        if vb != 0:
            da = a.dvalue(point, k)
            if da != 0:
                out = out + da * vb
        return out


class FScale(_Lazy):
    __slots__ = ("a", "c")

    def __init__(self, a, c):
        super().__init__(a.n)
        self.a = a
        self.c = c

    def _eval(self, point, order):
        return self.a.jet(point, order).scale(self.c)

    def _value(self, point):
        v = self.a.value(point)
        return self.c * v if v != 0 and self.c != 0 else 0

    def _dvalue(self, point, k):
        d = self.a.dvalue(point, k)
        return self.c * d if d != 0 and self.c != 0 else 0


class FPartial(_Lazy):
    """Partial derivative; consumes one unit of the jet-order budget."""

    __slots__ = ("a", "k")

    def __init__(self, a, k: int):
        super().__init__(a.n)
        self.a = a
        self.k = k

    def _eval(self, point, order):
        return self.a.jet(point, order + 1).partial(self.k)

    def _value(self, point):
        return self.a.dvalue(point, self.k)


def f_add(*fields):
    live = [f for f in fields if not (isinstance(f, Polynomial) and f.is_zero())]
    if not live:
        if not fields:
            raise ValueError("empty sum needs an explicit dimension; use f_zero")
        return fields[0]
    if all(isinstance(f, Polynomial) for f in live):
        out = live[0]
        for f in live[1:]:
            out = out + f
        return out
    return FSum(live)


def f_zero(n: int) -> Polynomial:
    return Polynomial.constant(0, n)


EAGER_PRODUCT_CAP = 32


def f_mul(a, b):
    if isinstance(a, Polynomial) and a.is_zero():
        return a
    if isinstance(b, Polynomial) and b.is_zero():
        return b
    if isinstance(a, Polynomial) and isinstance(b, Polynomial):
        # large products stay lazy: only their jets are ever needed
        if len(a.terms) * len(b.terms) <= EAGER_PRODUCT_CAP:
            return a * b
    return FProd(a, b)


def f_scale(a, c):
    if c == 0:
        return f_zero(a.n)
    if isinstance(a, Polynomial):
        return a.scale(c)
    return FScale(a, c)


def f_partial(a, k: int):
    if isinstance(a, Polynomial):
        return a.partial_poly(k)
    return FPartial(a, k)


def f_is_zero(a) -> bool:
    return isinstance(a, Polynomial) and a.is_zero()


# ---------------------------------------------------------------------------
# jet-matrix helpers
# ---------------------------------------------------------------------------

def jet_mat_mul(A: List[List[Jet]], B: List[List[Jet]]) -> List[List[Jet]]:
    rows, inner, cols = len(A), len(B), len(B[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = None
            for k in range(inner):
                t = A[i][k] * B[k][j]
                acc = t if acc is None else acc + t
            row.append(acc)
        out.append(row)
    return out


def jet_mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def jet_mat_scale(A, c):
    return [[a.scale(c) for a in row] for row in A]


def jet_identity(dim: int, n: int, order: int, point) -> List[List[Jet]]:
    return [[Jet.constant(1 if i == j else 0, n, order, point)
             for j in range(dim)] for i in range(dim)]


def _value_part_is_zero(M) -> bool:
    return all(j.value == 0 for row in M for j in row)


def _max_norm(M) -> float:
    return max((j.max_abs() for row in M for j in row), default=0)


def jet_mat_series(M: List[List[Jet]], coeff, exact: bool) -> List[List[Jet]]:
    """sum_k coeff(k) M^k; terminates exactly when M has no value part."""
    dim = len(M)
    probe = M[0][0]
    out = jet_mat_scale(jet_identity(dim, probe.n, probe.order, probe.base), coeff(0))
    term = jet_identity(dim, probe.n, probe.order, probe.base)
    if _value_part_is_zero(M):
        # nilpotent in the truncated jet algebra: M^(order+1) == 0
        for k in range(1, probe.order + 1):
            term = jet_mat_mul(term, M)
            out = jet_mat_add(out, jet_mat_scale(term, coeff(k)))
        return out
    if exact:
        raise TruncationError(
            "matrix series does not terminate on the exact backend unless the "
            "exponent vanishes at the evaluation point")
    scale = max(1.0, _max_norm(M))
    for k in range(1, SERIES_CAP):
        term = jet_mat_mul(term, M)
        out = jet_mat_add(out, jet_mat_scale(term, coeff(k)))
        if _max_norm(term) * abs(coeff(k)) < FLOAT_SERIES_TOL * scale:
            return out
    raise TruncationError(f"series did not converge within {SERIES_CAP} terms")


def jet_mat_exp(M, exact: bool):
    return jet_mat_series(M, lambda k: _frac_coeff(1, math.factorial(k), exact), exact)


def jet_mat_dexp(M, exact: bool):
    """Transport factor sum_k M^k / (k+1)!."""
    return jet_mat_series(M, lambda k: _frac_coeff(1, math.factorial(k + 1), exact), exact)


def _frac_coeff(num, den, exact):
    if exact:
        from fractions import Fraction

        return Fraction(num, den)
    return num / den


def jet_mat_inverse(M: List[List[Jet]], exact: bool) -> List[List[Jet]]:
    """Inverse of a jet matrix via Neumann series around its value part."""
    from . import linalg

    dim = len(M)
    probe = M[0][0]
    V = [[j.value for j in row] for row in M]
    V_inv = linalg.mat_inverse(V, exact)
    V_inv_j = [[Jet.constant(V_inv[i][j], probe.n, probe.order, probe.base)
                for j in range(dim)] for i in range(dim)]
    # u = V^-1 M - 1 has no value part (up to float rounding, stripped here);
    # (1+u)^-1 = sum (-u)^k terminates in the truncated jet algebra
    U = jet_mat_mul(V_inv_j, M)
    for i in range(dim):
        for j in range(dim):
            target = 1 if i == j else 0
            v = U[i][j].value
            if v != target:
                U[i][j] = U[i][j] - Jet.constant(v - target, probe.n, probe.order,
                                                 probe.base)
        U[i][i] = U[i][i] - Jet.constant(1, probe.n, probe.order, probe.base)
    series = jet_mat_series(U, lambda k: (-1) ** k, exact=True)
    return jet_mat_mul(series, V_inv_j)


# ---------------------------------------------------------------------------
# shared lazy matrix nodes (exp of polynomial matrices, coframe inverses)
# ---------------------------------------------------------------------------

class MatrixField:
    """Matrix-valued function; computes the full matrix jet once per point."""

    def __init__(self, entries: List[List[object]], exact: bool = True):
        self.entries = entries
        self.dim_out = len(entries)
        self.dim_in = len(entries[0])
        self.n = entries[0][0].n
        self.exact = exact
        self._cache: Dict[tuple, List[List[Jet]]] = {}

    def _raw(self, point, order):
        return [[f.jet(point, order) for f in row] for row in self.entries]

    def jets(self, point, order) -> List[List[Jet]]:
        key = (id(point), order)
        hit = self._cache.get(key)
        if hit is not None and hit[0] is point:
            return hit[1]
        out = self._compute(_as_tuple(point), order)
        self._cache[key] = (point, out)
        return out

    def _compute(self, point, order):
        return self._raw(point, order)

    def entry(self, i: int, j: int) -> "MatrixEntryField":
        return MatrixEntryField(self, i, j)


class MatrixEntryField(_Lazy):
    __slots__ = ("mat", "i", "j")

    def __init__(self, mat: MatrixField, i: int, j: int):
        super().__init__(mat.n)
        self.mat = mat
        self.i = i
        self.j = j

    def _eval(self, point, order):
        return self.mat.jets(point, order)[self.i][self.j]


class MatrixExpField(MatrixField):
    """exp(M(x)) entrywise; exact when M vanishes at evaluation points."""

    def _compute(self, point, order):
        return jet_mat_exp(self._raw(point, order), self.exact)


class MatrixDexpField(MatrixField):
    """Right-transport factor sum_k ad^k/(k+1)! applied on the left."""

    def _compute(self, point, order):
        return jet_mat_dexp(self._raw(point, order), self.exact)


class MatrixInverseField(MatrixField):
    def _compute(self, point, order):
        return jet_mat_inverse(self._raw(point, order), self.exact)

