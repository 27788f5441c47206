"""Lazy fields: a value and first partials at a probe.

Polynomials stay eager; anything built from matrix exponentials or
coframe inverses becomes a lazy node.  Every coefficient has a
``.value(point)`` and a ``.dvalue(point, k)``, the first partial along k.

- Sums, products and scalings combine their children's values and first
  partials by the sum and product rules (forward mode), in a fixed
  operand order and dropping a term with a zero factor, so that even
  float bits do not depend on the path a number took.  A zero is the int
  0.  ``FPartial``'s value is its child's ``dvalue``, and it builds its
  child's derivative graph once.  ``Taylor`` numbers stand in for lazy
  nodes once a chart is read at its probe.
- One node per term: a sum of one live operand is that operand, and
  ``f_scale`` of an unscaled product is a new product node that applies
  the scale last, as an ``FScale`` would; each such copy multiplies the
  product out again.  A folded sign keeps the bits (negation commutes
  with rounding).
- A ``MatrixField`` computes its value matrix from its entries' values
  and, when first asked, its partials from their values and partials.
  Its entry cache holds weak references: a live entry node is shared,
  and a matrix and its entries form no cycle, so refcounting frees them.
  An inverse takes V from ``linalg.mat_inverse`` and its partials as
  -V (dE) V.  exp and dexp sum c_k M^k: where M vanishes at the point, as
  every exact case needs, that is I c_0 with partials c_1 dM; otherwise
  (floats) the series runs to convergence, on the values and then on the
  values and partials together.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction
from typing import List

from . import linalg
from .scalars import Polynomial, _add, _mul

SERIES_CAP = 64
FLOAT_SERIES_TOL = 1e-17

_UNSET = object()  # memo slot not yet computed


class TruncationError(ArithmeticError):
    """Series failed to converge within the hard term cap."""


class TaylorError(ArithmeticError):
    """A Taylor number was read at another point, or for a partial it does
    not hold (an order-0 number, or a partial it dropped)."""


def _as_tuple(point) -> tuple:
    return point if isinstance(point, tuple) else tuple(point)


def _zero_as_int(x):
    return x if x else 0  # a zero is the int 0 on every path


class _Lazy:
    # _v and _d (a list indexed by k) hold the value and first partials,
    # computed by a subclass's _value and _dvalue, at the point object _pt;
    # points are told apart by identity, since a chart is read at one
    # shared probe tuple and hashing tuples of Fractions costs more
    __slots__ = ("n", "_pt", "_v", "_d")

    def __init__(self, n: int):
        self.n = n
        self._pt = None

    def _move_to(self, point):
        self._pt = point
        self._v = _UNSET
        self._d = None

    def value(self, point):
        """Scalar value at ``point``."""
        if point is not self._pt:
            self._move_to(point)
        v = self._v
        if v is _UNSET:
            v = self._v = _zero_as_int(self._value(_as_tuple(point)))
        return v

    def dvalue(self, point, k: int):
        """First partial along ``k`` at ``point``."""
        if point is not self._pt:
            self._move_to(point)
        d = self._d
        if d is None:
            d = self._d = [_UNSET] * self.n
        out = d[k]
        if out is _UNSET:
            out = d[k] = _zero_as_int(self._dvalue(_as_tuple(point), k))
        return out

    def __neg__(self):
        return f_scale(self, -1)


class FSum(_Lazy):
    __slots__ = ("parts",)

    def __init__(self, parts):
        super().__init__(parts[0].n)
        self.parts = list(parts)

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
    """a b, times the scale c last when c is not None."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c=None):
        super().__init__(a.n)
        self.a = a
        self.b = b
        self.c = c

    def _value(self, point):
        # a zero factor drops the term (0 * inf is 0 here)
        va = self.a.value(point)
        vb = self.b.value(point)
        if not (va and vb):
            return 0
        v, c = _mul(va, vb), self.c
        return _mul(c, v) if c is not None and v else v

    def _dvalue(self, point, k):
        # product rule: va * db, then + da * vb, each dropped when a factor
        # is zero
        a, b = self.a, self.b
        out = 0
        va = a.value(point)
        if va:
            db = b.dvalue(point, k)
            if db:
                out = _mul(va, db)
        vb = b.value(point)
        if vb:
            da = a.dvalue(point, k)
            if da:
                out = _add(out, _mul(da, vb))
        c = self.c
        return _mul(c, out) if c is not None and out else out


class FScale(_Lazy):
    __slots__ = ("a", "c")

    def __init__(self, a, c):
        super().__init__(a.n)
        self.a = a
        self.c = c

    def _value(self, point):
        v = self.a.value(point)
        return _mul(self.c, v) if v and self.c else 0

    def _dvalue(self, point, k):
        d = self.a.dvalue(point, k)
        return _mul(self.c, d) if d and self.c else 0


class FPartial(_Lazy):
    """Partial derivative along k.  Its value is the operand's first
    partial; its partials are those of the operand's derivative graph,
    built by ``_derivative`` on first use and kept."""

    __slots__ = ("a", "k", "_da")

    def __init__(self, a, k: int):
        super().__init__(a.n)
        self.a = a
        self.k = k
        self._da = None

    def operand_derivative(self):
        if self._da is None:
            self._da = _derivative(self.a, self.k, {})
        return self._da

    def _value(self, point):
        return self.a.dvalue(point, self.k)

    def _dvalue(self, point, k):
        return self.operand_derivative().dvalue(point, k)


def _derivative(f, k: int, memo: dict):
    """d_k f as a field, by the sum and product rules over the lazy nodes
    down to polynomials; ``memo`` maps the id of a node of f to its
    derivative.  A matrix entry has no second partials, so one in f
    raises ``TaylorError``."""
    out = memo.get(id(f))
    if out is None:
        if isinstance(f, Polynomial):
            out = f.partial_poly(k)
        elif isinstance(f, FSum):
            out = f_add(*[_derivative(p, k, memo) for p in f.parts])
        elif isinstance(f, FProd):
            out = f_add(f_mul(_derivative(f.a, k, memo), f.b),
                        f_mul(f.a, _derivative(f.b, k, memo)))
            if f.c is not None:
                out = f_scale(out, f.c)
        elif isinstance(f, FScale):
            out = f_scale(_derivative(f.a, k, memo), f.c)
        elif isinstance(f, FPartial):
            out = _derivative(f.operand_derivative(), k, memo)
        else:
            raise TaylorError("a matrix entry has no second partials")
        memo[id(f)] = out
    return out


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


# Taylor arithmetic follows FSum, FProd, FScale and FPartial (operand
# order, zero-drop rule, int zero), so float bits agree with the lazy
# graph.  A result is order 0 when an operand is, and drops every partial
# an operand dropped; a polynomial or lazy operand is read at its point.

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
    v = _mul(c, a.v) if a.v else 0
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
    if len(live) == 1:
        return live[0]
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
        # large products stay lazy: only their values and partials are read
        if len(a.terms) * len(b.terms) <= EAGER_PRODUCT_CAP:
            return a * b
    if isinstance(a, Taylor):
        return _taylor_prod(a, a, b)
    if isinstance(b, Taylor):
        return _taylor_prod(b, a, b)
    return FProd(a, b)


def f_scale(a, c):
    if not c:
        return f_zero(a.n)
    if isinstance(a, Polynomial):
        return a.scale(c)
    if isinstance(a, Taylor):
        return _taylor_scale(a, c)
    if type(a) is FProd and a.c is None:
        return FProd(a.a, a.b, c)
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
# shared lazy matrix nodes (exp of polynomial matrices, coframe inverses)
# ---------------------------------------------------------------------------

class MatrixField:
    """Matrix-valued function of the chart point.  ``value_at`` is its value
    matrix and ``partials_at`` gives each entry's nonzero first partials as
    a dict by coordinate; each is computed once at the last point object
    read, the partials only when first asked for."""

    def __init__(self, entries: List[List[object]], exact: bool = True):
        self.entries = entries
        self.n = entries[0][0].n
        self.exact = exact
        self._pt = None
        self._entries = weakref.WeakValueDictionary()

    def value_at(self, point) -> List[List]:
        if point is not self._pt:
            self._pt, self._V, self._D = point, None, None
        if self._V is None:
            self._V = self._values(point)
        return self._V

    def partials_at(self, point) -> List[List[dict]]:
        V = self.value_at(point)
        if self._D is None:
            self._D = self._partials(point, V)
        return self._D

    def entry(self, i: int, j: int) -> "MatrixEntryField":
        """The lazy node of entry (i, j); one live node per entry, so that
        its memos are shared by every expression that reads it."""
        node = self._entries.get((i, j))
        if node is None:
            node = self._entries[(i, j)] = MatrixEntryField(self, i, j)
        return node


class MatrixEntryField(_Lazy):
    __slots__ = ("mat", "i", "j", "__weakref__")

    def __init__(self, mat: MatrixField, i: int, j: int):
        super().__init__(mat.n)
        self.mat = mat
        self.i = i
        self.j = j

    def _value(self, point):
        return self.mat.value_at(point)[self.i][self.j]

    def _dvalue(self, point, k):
        return self.mat.partials_at(point)[self.i][self.j].get(k, 0)


class MatrixExpField(MatrixField):
    """exp(M(x)) = sum_k M^k / k!; exact when M vanishes at the point."""

    shift = 0

    def _coeff(self, k: int):
        f = math.factorial(k + self.shift)
        return Fraction(1, f) if self.exact else 1 / f

    def _values(self, pt):
        M = [[Taylor(self.n, pt, self.exact, f.value(pt), None) for f in row]
             for row in self.entries]
        return [[t.v for t in row] for row in _series(M, self._coeff, self.exact)]

    def _partials(self, pt, V):
        M = [[Taylor.of(f, pt, self.exact) for f in row] for row in self.entries]
        return [[t.d for t in row] for row in _series(M, self._coeff, self.exact)]


class MatrixDexpField(MatrixExpField):
    """Right-transport factor sum_k ad^k/(k+1)! applied on the left."""

    shift = 1


def _mat_prod(A, B):
    """A B over Taylor numbers, each entry summed in ascending inner index."""
    return [[_taylor_sum(t[0], t) for t in
             ([_taylor_prod(a, a, brow[j]) for a, brow in zip(row, B)]
              for j in range(len(B[0])))] for row in A]


def _norm(M):
    """Largest absolute value among the entries' values and partials."""
    return max((abs(x) for row in M for t in row
                for x in ([t.v] if t.d is None else [t.v, *t.d.values()])), default=0)


def _series(M, coeff, exact: bool):
    """sum_k coeff(k) M^k over Taylor numbers, all of order 0 or all of
    order 1.  Where M vanishes at the point the series stops after its
    first-order term, I c_0 + c_1 M; otherwise (floats only) it stops at
    the first term whose values and partials are all below the tolerance."""
    t, dim = M[0][0], len(M)
    out = [[Taylor(t.n, t.pt, exact, _mul(coeff(0), 1) if i == j else 0,
                   None if t.d is None else {}) for j in range(dim)] for i in range(dim)]
    vanishing = not any(t.v for row in M for t in row)
    if not vanishing and exact:
        raise TruncationError("matrix series does not terminate on the exact "
                              "backend unless the exponent vanishes there")
    scale = max(1.0, _norm(M))
    term = M  # M^1; the identity times M would give the same numbers
    for k in range(1, SERIES_CAP):
        if k > 1:
            term = _mat_prod(term, M)
        c = coeff(k)
        out = [[_taylor_sum(a, [a, _taylor_scale(b, c)]) for a, b in zip(ro, rt)]
               for ro, rt in zip(out, term)]
        if vanishing or _norm(term) * abs(c) < FLOAT_SERIES_TOL * scale:
            return out
    raise TruncationError(f"series did not converge within {SERIES_CAP} terms")


def _dot(pairs):
    """sum a b over the pairs with both factors nonzero, in order; a sum
    that cancels to zero restarts at the next term."""
    acc = 0
    for a, b in pairs:
        if a and b:
            x = _mul(a, b)
            acc = _add(acc, x) if acc else x
    return acc or 0


class MatrixInverseField(MatrixField):
    """E(x)^-1: V from ``linalg.mat_inverse``, and the partials of V as
    -V (dE) V, formed as (-(V dE)) V like the Neumann series
    (1 + V (E - E(p)))^-1 V."""

    def _values(self, pt):
        E = [[f.value(pt) for f in row] for row in self.entries]
        return linalg.mat_inverse(E, self.exact)

    def _partials(self, pt, V):
        dim = len(V)
        dE = [[_partials(f, pt) for f in row] for row in self.entries]
        out = [[{} for _ in range(dim)] for _ in range(dim)]
        for k in range(self.n):
            cols = [[d.get(k, 0) for d in row] for row in dE]
            U = [[_mul(-1, _dot(zip(V[i], (r[j] for r in cols)))) for j in range(dim)]
                 for i in range(dim)]
            for i in range(dim):
                for j in range(dim):
                    x = _dot(zip(U[i], (r[j] for r in V)))
                    if x:
                        out[i][j][k] = x
        return out
