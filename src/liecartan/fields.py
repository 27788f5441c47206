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
A chart is read at one probe, so a node memoises its value, first
partials and jets at the last point object it was read at, in its own
slots, and drops them when a different object arrives.  Points are told
apart by identity: probe tuples are shared, and hashing tuples of
Fractions would cost more than the memo saves.

A ``Taylor`` number is a value and the nonzero first partials at one
point, computed eagerly (forward-mode by operator overloading).
``TrivializedChart.at`` turns a chart's non-polynomial coefficients into
Taylor numbers at a probe, and from there ``f_add``, ``f_mul``,
``f_scale`` and ``f_partial`` build a Taylor number wherever they would
build a lazy node, with that node's operand order, zero-drop rule and
int zero; polynomial arithmetic is unchanged.  So d^A p at a probe comes
out with the same numbers as through the graph, without the graph.  A
zero Taylor number counts as zero only on the exact backend, where
dropping it cannot change a result; on floats it is kept, because a sum
that lost it could become a polynomial whose products round differently.
Everything built before the probe is known (chart construction, the
matrix fields) or read at several points (``jet_at``,
``finite_difference_check``) stays on the lazy graph.

A Taylor coefficient of a form at index K keeps only its partials along
k not in K: ``exterior_d`` reads d_k alpha_K only for those k, so the
others would be computed for nothing (on a codegree-2 minor of a
10-chart, 8 of 10).  ``Form._append`` drops them and records them in the
number's ``drop`` bitmask; sums, products and scalings OR their
operands' masks and skip those partials, and reading a dropped partial
raises ``TaylorError`` rather than returning a wrong 0.  Kept partials
are computed by the same operations in the same order as before.
``gravity.certify_gravity_chart`` builds no lazy frame graph: it works on
the coframe matrix, its inverse and their first partials at the probe.
"""

from __future__ import annotations

import math
from typing import Dict, List

from .scalars import Jet, Polynomial, _add, _mul

SERIES_CAP = 64
FLOAT_SERIES_TOL = 1e-17

_UNSET = object()  # memo slot not yet computed


class TruncationError(ArithmeticError):
    """Series failed to converge within the hard term cap."""


def _as_tuple(point) -> tuple:
    return point if isinstance(point, tuple) else tuple(point)


def _zero_as_int(x):
    return x if x else 0  # a zero is the int 0, as in Jet.value/deriv


class _Lazy:
    # _pt is the last point object read; _v, _d (a list indexed by k) and
    # _jets (a dict by order) hold the value, first partials and jets
    # there, and are set by _move_to when another point object arrives
    __slots__ = ("n", "_pt", "_v", "_d", "_jets")

    def __init__(self, n: int):
        self.n = n
        self._pt = None

    def _move_to(self, point):
        self._pt = point
        self._v = _UNSET
        self._d = None
        self._jets = None

    def jet(self, point, order) -> Jet:
        if point is not self._pt:
            self._move_to(point)
        jets = self._jets
        if jets is None:
            jets = self._jets = {}
        out = jets.get(order)
        if out is None:
            out = jets[order] = self._eval(_as_tuple(point), order)
        return out

    def value(self, point):
        """Scalar value at ``point``, equal to ``jet(point, 0).value``."""
        if point is not self._pt:
            self._move_to(point)
        v = self._v
        if v is _UNSET:
            v = self._v = _zero_as_int(self._value(_as_tuple(point)))
        return v

    def dvalue(self, point, k: int):
        """First partial along ``k`` at ``point``, equal to
        ``jet(point, 1).deriv((k,))``."""
        if point is not self._pt:
            self._move_to(point)
        d = self._d
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
            out = _add(out, f.value(point))
        return out

    def _dvalue(self, point, k):
        out = self.parts[0].dvalue(point, k)
        for f in self.parts[1:]:
            out = _add(out, f.dvalue(point, k))
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
        return _mul(va, vb) if va != 0 and vb != 0 else 0

    def _dvalue(self, point, k):
        # product rule with Jet.__mul__'s terms: va * db, then + da * vb,
        # each dropped when a factor is zero
        a, b = self.a, self.b
        out = 0
        va = a.value(point)
        if va != 0:
            db = b.dvalue(point, k)
            if db != 0:
                out = _mul(va, db)
        vb = b.value(point)
        if vb != 0:
            da = a.dvalue(point, k)
            if da != 0:
                out = _add(out, _mul(da, vb))
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
        return _mul(self.c, v) if v != 0 and self.c != 0 else 0

    def _dvalue(self, point, k):
        d = self.a.dvalue(point, k)
        return _mul(self.c, d) if d != 0 and self.c != 0 else 0


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


class TaylorError(ArithmeticError):
    """A Taylor number was read at another point, or for a partial it does
    not hold (an order-0 number, or a partial it dropped)."""


class Taylor:
    """Order-1 Taylor number of a field at one point.

    ``v`` is the value and ``d`` maps a coordinate k to the first partial
    along it; only nonzero partials are stored, so a missing k is the int
    0.  ``d`` is None on an order-0 number, which a partial leaves behind:
    it holds no partials of its own.  ``exact`` is the chart's backend,
    which decides whether a zero counts as zero (see ``f_is_zero``).
    Bit k of ``drop`` marks a partial along k that was not kept (see
    ``without``); it is absent from ``d`` and cannot be read.
    """

    __slots__ = ("n", "pt", "exact", "v", "d", "drop")

    def __init__(self, n: int, pt: tuple, exact: bool, v, d, drop: int = 0):
        self.n = n
        self.pt = pt
        self.exact = exact
        self.v = v
        self.d = d
        self.drop = drop

    @staticmethod
    def of(field, pt: tuple, exact: bool) -> "Taylor":
        """The value and first partials of ``field`` at ``pt``."""
        return Taylor(field.n, pt, exact, field.value(pt), _partials(field, pt))

    def _check(self, point):
        if point is not self.pt and point != self.pt:
            raise TaylorError(f"Taylor number at {self.pt} read at {point}")

    def value(self, point):
        self._check(point)
        return self.v

    def dvalue(self, point, k: int):
        self._check(point)
        if self.d is None:
            raise TaylorError("an order-0 Taylor number holds no partials")
        if self.drop >> k & 1:
            raise TaylorError(f"the partial along {k} of this Taylor number "
                              f"was dropped")
        return self.d.get(k, 0)

    def without(self, mask: int) -> "Taylor":
        """This number with its partials along the bits of ``mask`` dropped
        (itself when they already are, or when it is order 0)."""
        if self.d is None or not mask & ~self.drop:
            return self
        return Taylor(self.n, self.pt, self.exact, self.v, _kept(self.d, mask),
                      self.drop | mask)


def _kept(d: dict, drop: int) -> dict:
    return {k: x for k, x in d.items() if not drop >> k & 1}


def _partials(field, pt, drop: int = 0) -> dict:
    """Nonzero first partials of a polynomial or lazy node at ``pt``,
    except along the bits of ``drop``."""
    out = {}
    for k in range(field.n):
        if drop >> k & 1:
            continue
        x = field.dvalue(pt, k)
        if x:
            out[k] = x
    return out


def _value_at(t: Taylor, f):
    """Value of an operand ``f`` at the point of ``t``."""
    if isinstance(f, Taylor):
        if f.pt is not t.pt:
            f._check(t.pt)
        return f.v
    return f.value(t.pt)


def _partials_at(t: Taylor, f, drop: int) -> dict:
    """Partials of an operand ``f`` at the point of ``t``, except along
    the bits of ``drop``."""
    if isinstance(f, Taylor):
        return _kept(f.d, drop) if drop & ~f.drop else f.d
    return _partials(f, t.pt, drop)


def _joined(fields):
    """The partials any operand dropped, as a bitmask, and whether every
    Taylor operand is order 1."""
    drop, order1 = 0, True
    for f in fields:
        if isinstance(f, Taylor):
            drop |= f.drop
            order1 = order1 and f.d is not None
    return drop, order1


def _nonzero(d: dict) -> dict:
    return {k: x for k, x in d.items() if x}


# Taylor arithmetic follows FSum, FProd, FScale and FPartial: operands in
# the same order, a zero factor dropped before it multiplies, and a zero
# result the int 0, so that float bits agree with the lazy graph.  A
# result is order 0 when an operand is.  A polynomial or lazy operand is
# read at the Taylor number's point, its partials only where they count.
# The result drops every partial that an operand dropped.

def _taylor_sum(t: Taylor, parts) -> Taylor:
    if len(parts) == 1:
        return t
    v = _value_at(t, parts[0])
    for f in parts[1:]:
        v = _add(v, _value_at(t, f))
    d = None
    drop, order1 = _joined(parts)
    if order1:
        d = {}
        for f in parts:
            for k, x in _partials_at(t, f, drop).items():
                d[k] = _add(d[k], x) if k in d else x
        d = _nonzero(d)
    return Taylor(t.n, t.pt, t.exact, _zero_as_int(v), d, drop)


def _taylor_prod(t: Taylor, a, b) -> Taylor:
    va = _value_at(t, a)
    vb = _value_at(t, b)
    v = _mul(va, vb) if va and vb else 0
    d = None
    drop, order1 = _joined((a, b))
    if order1:
        d = {}
        if va:
            for k, x in _partials_at(t, b, drop).items():
                d[k] = _mul(va, x)
        if vb:
            for k, x in _partials_at(t, a, drop).items():
                xb = _mul(x, vb)
                d[k] = _add(d[k], xb) if k in d else xb
        d = _nonzero(d)
    return Taylor(t.n, t.pt, t.exact, _zero_as_int(v), d, drop)


def _taylor_scale(a: Taylor, c) -> Taylor:
    v = _mul(c, a.v) if a.v != 0 else 0
    d = _nonzero({k: _mul(c, x) for k, x in a.d.items()}) if a.d else a.d
    return Taylor(a.n, a.pt, a.exact, _zero_as_int(v), d, a.drop)


def _taylor_partial(a: Taylor, k: int) -> Taylor:
    return Taylor(a.n, a.pt, a.exact, a.dvalue(a.pt, k), None)


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
    for f in live:
        if isinstance(f, Taylor):
            return _taylor_sum(f, live)
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
    if isinstance(a, Taylor):
        return _taylor_prod(a, a, b)
    if isinstance(b, Taylor):
        return _taylor_prod(b, a, b)
    return FProd(a, b)


def f_scale(a, c):
    if c == 0:
        return f_zero(a.n)
    if isinstance(a, Polynomial):
        return a.scale(c)
    if isinstance(a, Taylor):
        return _taylor_scale(a, c)
    return FScale(a, c)


def f_partial(a, k: int):
    if isinstance(a, Polynomial):
        return a.partial_poly(k)
    if isinstance(a, Taylor):
        return _taylor_partial(a, k)
    return FPartial(a, k)


def f_is_zero(a) -> bool:
    """True for the zero polynomial, and on the exact backend for a Taylor
    number whose value and partials are all zero.  A float zero is kept:
    dropping it could turn a mixed sum into a polynomial, whose products
    and values round differently from the lazy graph's."""
    if isinstance(a, Polynomial):
        return a.is_zero()
    return isinstance(a, Taylor) and a.exact and not a.v and not a.d


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
    term = M  # M^1; the identity times M would give the same jets
    if _value_part_is_zero(M):
        # nilpotent in the truncated jet algebra: M^(order+1) == 0
        for k in range(1, probe.order + 1):
            if k > 1:
                term = jet_mat_mul(term, M)
            out = jet_mat_add(out, jet_mat_scale(term, coeff(k)))
        return out
    if exact:
        raise TruncationError(
            "matrix series does not terminate on the exact backend unless the "
            "exponent vanishes at the evaluation point")
    scale = max(1.0, _max_norm(M))
    for k in range(1, SERIES_CAP):
        if k > 1:
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
    """Matrix-valued function; computes the full matrix jet once per order
    at the last point object it was read at."""

    def __init__(self, entries: List[List[object]], exact: bool = True):
        self.entries = entries
        self.dim_out = len(entries)
        self.dim_in = len(entries[0])
        self.n = entries[0][0].n
        self.exact = exact
        self._pt = None
        self._jets: Dict[int, List[List[Jet]]] = {}
        self._entries: Dict[tuple, "MatrixEntryField"] = {}

    def _raw(self, point, order):
        return [[f.jet(point, order) for f in row] for row in self.entries]

    def jets(self, point, order) -> List[List[Jet]]:
        if point is not self._pt:
            self._pt = point
            self._jets = {}
        out = self._jets.get(order)
        if out is None:
            out = self._jets[order] = self._compute(_as_tuple(point), order)
        return out

    def _compute(self, point, order):
        return self._raw(point, order)

    def entry(self, i: int, j: int) -> "MatrixEntryField":
        """The lazy node of entry (i, j); one node per entry, so that its
        memos are shared by every expression that reads it."""
        node = self._entries.get((i, j))
        if node is None:
            node = self._entries[(i, j)] = MatrixEntryField(self, i, j)
        return node


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

