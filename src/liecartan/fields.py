"""Lazy fields: a value and first partials at a probe.

Polynomials stay eager; anything built from matrix exponentials or
coframe inverses becomes a lazy node.  Every coefficient has a
``.value(point)`` and a ``.dvalue(point, k)``, the first partial along k;
polynomials and lazy nodes also give ``.partials(point)``, the dict of
their nonzero first partials by coordinate.

- A chart is read at one probe, so a lazy node is bound to the point of
  its first read: a later read there, or at an equal tuple, is served from
  its memo, and a read at any other point raises ``TaylorError``.  A
  ``Taylor`` number is a lazy node bound to its point when built, with its
  value and partials already set; a ``MatrixField`` is bound the same way,
  with a matrix as its value and a matrix of dicts as its partials.
  Polynomials keep a memo per point instead, and may be read anywhere.
- One rule set evaluates a field at a probe: the sum, product and scale
  rules of forward mode, each written once as a value rule and a partials
  rule over values and dicts of nonzero partials.  They keep a fixed
  operand order and drop a term with a zero factor, and a zero is the
  int 0.  The lazy nodes ``FSum``, ``FProd`` and ``FScale`` call them
  when first read, for every k at once; ``f_add``, ``f_mul`` and
  ``f_scale`` call them at once when an operand is a ``Taylor`` number.
  ``FPartial``'s value is its child's ``dvalue``, and it builds its
  child's derivative graph once.
- One node per term: a sum of one live operand is that operand, and a
  product carries its scale, ``f_mul(a, b, c)``, which gives exactly what
  ``f_scale(f_mul(a, b), c)`` gives on every path but builds one node.
  ``f_scale`` of an unscaled product node is still a product node that
  applies the scale last, so a lazy product shared by several scales is
  multiplied out once per scale; an eager polynomial product is shared
  outright.
- A ``MatrixField`` computes its value matrix from its entries' values
  and, when first asked, its partials from their values and partials.
  Its entry cache holds weak references: a live entry node is shared,
  and a matrix and its entries form no cycle, so refcounting frees them.
  An inverse takes V from ``linalg.mat_inverse`` and its partials as
  -V (dE) V.  exp and dexp sum c_k M^k over Taylor numbers at a point
  where M vanishes, as every chart's exponent does at its probe: that is
  I c_0 with partials c_1 dM.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction
from typing import List

from . import linalg
from .scalars import Polynomial, _add, _mul

_UNSET = object()  # memo slot not yet computed


class TruncationError(ArithmeticError):
    """A series that does not terminate: an exponent that does not vanish
    at the point, or a numeric series not below its tolerance in time."""


class TaylorError(ArithmeticError):
    """A lazy node was read at a point other than the one it is bound to,
    or for a partial it does not hold (an order-0 Taylor number's, a
    dropped one, or a matrix entry's second partials)."""


def _nonzero(d: dict) -> dict:
    return {k: x for k, x in d.items() if x}


# ---------------------------------------------------------------------------
# the sum, product and scale rules over values and dicts of nonzero partials
# ---------------------------------------------------------------------------

def _sum_value(values):
    out = values[0]
    for v in values[1:]:
        out = _add(out, v)
    return out or 0  # a zero is the int 0 on every path


def _sum_partials(partials) -> dict:
    out = {}
    for d in partials:
        for k, x in d.items():
            out[k] = _add(out[k], x) if k in out else x
    return _nonzero(out)


def _prod_value(va, vb, c=None):
    """a b, times c last when c is not None; a zero factor drops the term
    (0 * inf is 0 here)."""
    if not (va and vb):
        return 0
    v = _mul(va, vb)
    return (v or 0) if c is None else _scale_value(v, c)


def _prod_partials(va, vb, da, db, c=None) -> dict:
    """va db, then + da vb, times c last when c is not None; each term is
    dropped when its value factor is zero, so ``db`` is read only when va
    is nonzero and ``da`` only when vb is (None otherwise)."""
    out = {k: _mul(va, x) for k, x in db.items()} if va else {}
    if vb:
        for k, x in da.items():
            x = _mul(x, vb)
            out[k] = _add(out[k], x) if k in out else x
    out = _nonzero(out)
    return out if c is None else _scale_partials(out, c)


def _scale_value(v, c):
    return (_mul(c, v) or 0) if v and c else 0


def _scale_partials(d: dict, c) -> dict:
    return _nonzero({k: _mul(c, x) for k, x in d.items()}) if c else {}


# ---------------------------------------------------------------------------
# lazy nodes
# ---------------------------------------------------------------------------

class _Bound:
    # _v and _d: the value and partials at _pt, the point of the first read,
    # computed by a subclass's _value and _partials; a chart passes one shared
    # probe tuple, so a read at that object skips the equality check
    __slots__ = ("n", "_pt", "_v", "_d")

    def _bind(self, point):
        point = point if isinstance(point, tuple) else tuple(point)
        if self._pt is None:
            self._pt = point
        elif point != self._pt:
            raise TaylorError(f"a field bound to {self._pt} was read at {point}")

    def value(self, point):
        """Value at ``point``."""
        if point is not self._pt:
            self._bind(point)
        v = self._v
        if v is _UNSET:
            v = self._v = self._value(self._pt)
        return v

    def partials(self, point) -> dict:
        """Nonzero first partials at ``point``, computed for every k on
        first read.  They are shared: callers read them only."""
        if point is not self._pt:
            self._bind(point)
        d = self._d
        if d is None:
            d = self._d = self._partials(self._pt)
        return d


class _Lazy(_Bound):
    """A scalar lazy node: its partials are a dict by coordinate."""

    __slots__ = ()

    def __init__(self, n: int):
        self.n, self._pt, self._v, self._d = n, None, _UNSET, None

    def dvalue(self, point, k: int):
        """First partial along ``k`` at ``point``."""
        return self.partials(point).get(k, 0)

    def __neg__(self):
        return f_scale(self, -1)


class FSum(_Lazy):
    __slots__ = ("parts",)

    def __init__(self, parts):
        _Lazy.__init__(self, parts[0].n)
        self.parts = list(parts)

    def _value(self, point):
        return _sum_value([f.value(point) for f in self.parts])

    def _partials(self, point):
        return _sum_partials([f.partials(point) for f in self.parts])


class FProd(_Lazy):
    """a b, times the scale c last when c is not None."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c=None):
        _Lazy.__init__(self, a.n)
        self.a, self.b, self.c = a, b, c

    def _value(self, point):
        return _prod_value(self.a.value(point), self.b.value(point), self.c)

    def _partials(self, point):
        a, b = self.a, self.b
        va, vb = a.value(point), b.value(point)
        return _prod_partials(va, vb, a.partials(point) if vb else None,
                              b.partials(point) if va else None, self.c)


class FScale(_Lazy):
    __slots__ = ("a", "c")

    def __init__(self, a, c):
        _Lazy.__init__(self, a.n)
        self.a, self.c = a, c

    def _value(self, point):
        return _scale_value(self.a.value(point), self.c)

    def _partials(self, point):
        return _scale_partials(self.a.partials(point), self.c)


class FPartial(_Lazy):
    """Partial derivative along k.  Its value is the operand's first
    partial; its partials are those of the operand's derivative graph,
    built by ``_derivative`` on first use and kept."""

    __slots__ = ("a", "k", "_da")

    def __init__(self, a, k: int):
        _Lazy.__init__(self, a.n)
        self.a, self.k, self._da = a, k, None

    def operand_derivative(self):
        if self._da is None:
            self._da = _derivative(self.a, self.k, {})
        return self._da

    def _value(self, point):
        return self.a.dvalue(point, self.k)

    def _partials(self, point):
        return self.operand_derivative().partials(point)


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


# ---------------------------------------------------------------------------
# Taylor numbers: the same rules, applied at once
# ---------------------------------------------------------------------------

class Taylor(_Lazy):
    """Order-1 Taylor number of a field at one point: a lazy node bound to
    ``pt`` when built, with its value ``v`` and partials ``d`` set as its
    memo.

    ``d`` maps a coordinate k to the first partial along it; only nonzero
    partials are stored, so a missing k is the int 0.  ``d`` is None on an
    order-0 number, which a partial leaves behind: it holds no partials of
    its own, and reading them raises.  Bit k of ``drop`` marks a partial
    along k that was not kept (see ``without``); it is absent from ``d``
    and cannot be read.
    """

    __slots__ = ("drop",)

    def __init__(self, n: int, pt: tuple, v, d, drop: int = 0):
        self.n = n
        self._pt = pt
        self._v = v
        self._d = d
        self.drop = drop

    @staticmethod
    def of(field, pt: tuple) -> "Taylor":
        """The value and first partials of ``field`` at ``pt``."""
        return Taylor(field.n, pt, field.value(pt), field.partials(pt))

    def _partials(self, point):
        raise TaylorError("an order-0 Taylor number holds no partials")

    def dvalue(self, point, k: int):
        if self.drop >> k & 1:
            raise TaylorError(f"partial {k} of this Taylor number was dropped")
        return self.partials(point).get(k, 0)

    def without(self, mask: int) -> "Taylor":
        """This number with its partials along the bits of ``mask`` dropped
        (itself when they already are, or when it is order 0)."""
        if self._d is None or not mask & ~self.drop:
            return self
        return Taylor(self.n, self._pt, self._v, _kept(self._d, mask),
                      self.drop | mask)


def at_probe(f, pt: tuple, order: int = 1):
    """``f`` read at ``pt`` as a Taylor number of ``order`` 1 or 0 (value
    only), except a zero polynomial, which is returned as it is."""
    if isinstance(f, Polynomial) and f.is_zero():
        return f
    return Taylor.of(f, pt) if order else Taylor(f.n, pt, f.value(pt), None)


def _kept(d: dict, drop: int) -> dict:
    return {k: x for k, x in d.items() if not drop >> k & 1}


def _partials_at(f, pt, drop: int) -> dict:
    """Nonzero first partials of an operand at ``pt``, except along the
    bits of ``drop``; a polynomial computes only those."""
    if isinstance(f, Polynomial):
        return f.partials(pt, drop)
    d = f.partials(pt)
    if isinstance(f, Taylor):
        drop &= ~f.drop
    return _kept(d, drop) if drop else d


def _joined(fields):
    """The partials any operand dropped, as a bitmask, and whether every
    Taylor operand is order 1."""
    drop, order1 = 0, True
    for f in fields:
        if isinstance(f, Taylor):
            drop |= f.drop
            order1 = order1 and f._d is not None
    return drop, order1


# A result with a Taylor operand is a Taylor number at that operand's
# point: order 0 when an operand is, and dropping every partial an operand
# dropped.  Every operand is read at the point, which a lazy or Taylor
# operand checks against its own.

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
    for t in live:
        if isinstance(t, Taylor):
            break
    else:
        return FSum(live)
    pt = t._pt
    drop, order1 = _joined(live)
    v = _sum_value([f.value(pt) for f in live])
    d = _sum_partials([_partials_at(f, pt, drop) for f in live]) if order1 else None
    return Taylor(t.n, pt, v, d, drop)


def f_zero(n: int) -> Polynomial:
    return Polynomial.constant(0, n)


EAGER_PRODUCT_CAP = 32


def f_mul(a, b, c=None):
    """a b, times c last when c is not None: what ``f_scale(f_mul(a, b), c)``
    gives, built as one node."""
    if c is not None and not c:
        return f_zero(a.n)
    pa, pb = isinstance(a, Polynomial), isinstance(b, Polynomial)
    if pa and not a.terms:
        return a
    if pb and not b.terms:
        return b
    # large products stay lazy: only their values and partials are read
    if pa and pb and len(a.terms) * len(b.terms) <= EAGER_PRODUCT_CAP:
        return a * b if c is None else (a * b).scale(c)
    t = a if isinstance(a, Taylor) else b
    if not isinstance(t, Taylor):
        return FProd(a, b, c)
    pt = t._pt
    drop, order1 = _joined((a, b))
    va, vb = a.value(pt), b.value(pt)
    d = _prod_partials(va, vb, _partials_at(a, pt, drop) if vb else None,
                       _partials_at(b, pt, drop) if va else None, c) if order1 else None
    return Taylor(t.n, pt, _prod_value(va, vb, c), d, drop)


def f_scale(a, c):
    if not c:
        return f_zero(a.n)
    if isinstance(a, Polynomial):
        return a.scale(c)
    if isinstance(a, Taylor):
        d = None if a._d is None else _scale_partials(a._d, c)
        return Taylor(a.n, a._pt, _scale_value(a._v, c), d, a.drop)
    if type(a) is FProd and a.c is None:
        return FProd(a.a, a.b, c)
    return FScale(a, c)


def f_partial(a, k: int):
    if isinstance(a, Polynomial):
        return a.partial_poly(k)
    if isinstance(a, Taylor):
        return Taylor(a.n, a._pt, a.dvalue(a._pt, k), None)
    return FPartial(a, k)


def f_is_zero(a) -> bool:
    """True for the zero polynomial, and for a Taylor number whose value
    and partials are all zero."""
    if isinstance(a, Polynomial):
        return a.is_zero()
    return isinstance(a, Taylor) and not a._v and not a._d


# ---------------------------------------------------------------------------
# shared lazy matrix nodes (exp of polynomial matrices, coframe inverses)
# ---------------------------------------------------------------------------

class MatrixField(_Bound):
    """Matrix-valued function of the chart point, bound to its probe like
    a lazy node: its value is the value matrix, and its partials the
    matrix of each entry's nonzero first partials as a dict by coordinate,
    computed when first asked for."""

    def __init__(self, entries: List[List[object]]):
        self.n, self._pt, self._v, self._d = entries[0][0].n, None, _UNSET, None
        self.entries = entries
        self._entries = weakref.WeakValueDictionary()

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
        _Lazy.__init__(self, mat.n)
        self.mat, self.i, self.j = mat, i, j

    def _value(self, point):
        return self.mat.value(point)[self.i][self.j] or 0

    def _partials(self, point):
        return self.mat.partials(point)[self.i][self.j]


class MatrixExpField(MatrixField):
    """exp(M(x)) = sum_k M^k / k!, read where M vanishes."""

    shift = 0

    def _value(self, pt):
        M = [[Taylor(self.n, pt, f.value(pt), None) for f in row]
             for row in self.entries]
        return [[t._v for t in row] for row in _series(M, self.shift)]

    def _partials(self, pt):
        M = [[Taylor.of(f, pt) for f in row] for row in self.entries]
        return [[t._d for t in row] for row in _series(M, self.shift)]


class MatrixDexpField(MatrixExpField):
    """Right-transport factor sum_k ad^k/(k+1)! applied on the left."""

    shift = 1


def _series(M, shift: int):
    """sum_k c_k M^k with c_k = 1/(k + shift)! over Taylor numbers, all of
    order 0 or all of order 1, at a point where M vanishes: there the
    series stops after its first-order term, I c_0 + c_1 M."""
    if any(m._v for row in M for m in row):
        raise TruncationError("matrix series does not terminate unless the "
                              "exponent vanishes at the point")
    t = M[0][0]
    c0 = Fraction(1, math.factorial(shift))
    c1 = Fraction(1, math.factorial(shift + 1))

    def unit(i, j):
        return Taylor(t.n, t._pt, c0 if i == j else 0, None if t._d is None else {})

    return [[f_add(unit(i, j), f_scale(m, c1)) for j, m in enumerate(row)]
            for i, row in enumerate(M)]


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
    """E(x)^-1: V from ``linalg.mat_inverse`` at the point, and the
    partials of V as -V (dE) V, formed as (-(V dE)) V like the Neumann
    series (1 + V (E - E(p)))^-1 V."""

    def _value(self, pt):
        E = [[f.value(pt) for f in row] for row in self.entries]
        return linalg.mat_inverse(E)

    def _partials(self, pt):
        V = self.value(pt)
        dim = len(V)
        dE = [[f.partials(pt) for f in row] for row in self.entries]
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
