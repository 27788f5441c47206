"""Polynomial jets: an independent oracle for values and partials.

A jet is the truncated Taylor data of a polynomial at a base point, up to
order 3, as a sparse dict mapping exponent tuples to Taylor coefficients.
It is computed by the Taylor shift, prod_i (p_i + h_i)^{e_i} expanded and
truncated, which shares no code with ``Polynomial.value``/``dvalue`` or
the lazy nodes' rules, so the tests read those against it.  Its products
and sums go through the ``scalars`` helpers, in the shift's order, so
that results can be compared by ``repr``, types included.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

from liecartan.scalars import (Exponent, Polynomial, _add, _exp_add, _mul, _neg,
                               _zero_exp)

MAX_ORDER = 3


class JetOrderError(ValueError):
    """Requested jet order outside the supported [0, 3] range."""


class Jet:
    """Truncated Taylor expansion at a point: f(p+h) = sum_e terms[e] * h^e.

    ``terms`` maps exponent tuples (len n, total degree <= order) to Taylor
    coefficients.  Derivative values carry the factorial weights, see
    :meth:`deriv`.
    """

    __slots__ = ("n", "order", "base", "terms")

    def __init__(self, n: int, order: int, base: Sequence, terms: Dict[Exponent, object]):
        self.n = n
        self.order = order
        self.base = tuple(base)
        self.terms = {e: c for e, c in terms.items() if c}

    @staticmethod
    def constant(value, n: int, order: int, base: Sequence) -> "Jet":
        return Jet(n, order, base, {_zero_exp(n): value} if value != 0 else {})

    def _check(self, other: "Jet"):
        if self.n != other.n:
            raise ValueError("jet dimension mismatch")

    def __add__(self, other: "Jet") -> "Jet":
        self._check(other)
        order = min(self.order, other.order)
        terms = {e: c for e, c in self.terms.items() if sum(e) <= order}
        for e, c in other.terms.items():
            if sum(e) <= order:
                terms[e] = _add(terms[e], c) if e in terms else c
        return Jet(self.n, order, self.base, terms)

    def __neg__(self) -> "Jet":
        return Jet(self.n, self.order, self.base, {e: _neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "Jet") -> "Jet":
        return self + (-other)

    def scale(self, c) -> "Jet":
        if c == 0:
            return Jet(self.n, self.order, self.base, {})
        return Jet(self.n, self.order, self.base,
                   {e: _mul(c, v) for e, v in self.terms.items()})

    def __mul__(self, other: "Jet") -> "Jet":
        self._check(other)
        order = min(self.order, other.order)
        terms: Dict[Exponent, object] = {}
        for ea, ca in self.terms.items():
            da = sum(ea)
            if da > order:
                continue
            for eb, cb in other.terms.items():
                if da + sum(eb) > order:
                    continue
                e = _exp_add(ea, eb)
                p = _mul(ca, cb)
                terms[e] = _add(terms[e], p) if e in terms else p
        return Jet(self.n, order, self.base, terms)

    def partial(self, k: int) -> "Jet":
        """Jet of the k-th partial derivative (order drops by one)."""
        if self.order == 0:
            raise JetOrderError("jet order budget exhausted")
        terms: Dict[Exponent, object] = {}
        for e, c in self.terms.items():
            if e[k] == 0:
                continue
            de = list(e)
            de[k] -= 1
            terms[tuple(de)] = _mul(c, e[k])
        return Jet(self.n, self.order - 1, self.base, terms)

    @property
    def value(self):
        return self.terms.get(_zero_exp(self.n), 0)

    def deriv(self, idx: Sequence[int]):
        """Partial derivative value for derivative directions ``idx``."""
        e = [0] * self.n
        for i in idx:
            e[i] += 1
        w = 1
        for m in e:
            w *= math.factorial(m)
        return _mul(self.terms.get(tuple(e), 0), w)

    def grad(self) -> list:
        return [self.deriv((i,)) for i in range(self.n)]

    def hessian(self) -> list:
        return [[self.deriv((i, j)) for j in range(self.n)] for i in range(self.n)]

    def third(self) -> list:
        return [[[self.deriv((i, j, k)) for k in range(self.n)]
                 for j in range(self.n)] for i in range(self.n)]

    def max_abs(self):
        return max((abs(c) for c in self.terms.values()), default=0)

    def __repr__(self):
        return f"Jet(n={self.n}, order={self.order}, terms={self.terms})"


def poly_jet(f: Polynomial, point: Sequence, order: int) -> Jet:
    """Taylor data of ``f`` at ``point`` up to ``order`` (exact on
    rationals).  Order 0 is the polynomial's value; above that each
    monomial is expanded by the Taylor shift, and a term with a power of a
    zero coordinate is dropped."""
    if order < 0 or order > MAX_ORDER:
        raise JetOrderError(f"jet order {order} outside [0, {MAX_ORDER}]")
    n = f.n
    if order == 0:
        return Jet.constant(f.value(point), n, 0, point)
    terms: Dict[Exponent, object] = {}
    for e, c in f.terms.items():
        # expand prod_i (p_i + h_i)^{e_i}, truncated at total degree
        # `order`; each (pe, j) gives its own exponent
        partial = {(): c}
        for i, m in enumerate(e):
            p = point[i]
            top = m - 1 if p == 0 else -1  # j <= top has a factor p^(m-j)
            nxt: Dict[Exponent, object] = {}
            for pe, pc in partial.items():
                deg = sum(pe)
                for j in range(m + 1):
                    if deg + j > order:
                        break
                    if j <= top:
                        continue
                    w = _mul(pc, math.comb(m, j))
                    for _ in range(m - j):
                        w = _mul(w, p)
                    nxt[pe + (j,)] = w
            partial = nxt
        for pe, pc in partial.items():
            full = pe + (0,) * (n - len(pe))
            terms[full] = _add(terms[full], pc) if full in terms else pc
    return Jet(n, order, point, terms)


def jet_at(field: Polynomial, point: Sequence, order: int) -> Jet:
    """Taylor data of a polynomial at a point; orders above 3 are
    rejected."""
    return poly_jet(field, tuple(point), order)


def finite_difference_check(field: Polynomial, point: Sequence,
                            h: float = 1e-4) -> float:
    """Max relative deviation between a polynomial's jet partials and
    central differences.

    Only first and second derivatives are compared; the divided-difference
    noise floor at third order makes that comparison meaningless.
    """
    if h <= 0:
        raise ValueError("step must be positive")
    p = tuple(float(x) for x in point)
    n = len(p)
    jet = poly_jet(field, p, 2)

    def at(q):
        return float(field.value(tuple(q)))

    def rel(a, b):
        scale = max(abs(a), abs(b), 1.0)
        return abs(a - b) / scale

    worst = 0.0
    for i in range(n):
        up = list(p)
        dn = list(p)
        up[i] += h
        dn[i] -= h
        fd = (at(up) - at(dn)) / (2 * h)
        worst = max(worst, rel(fd, float(jet.deriv((i,)))))
    for i in range(n):
        for j in range(i, n):
            pp = list(p)
            pm = list(p)
            mp = list(p)
            mm = list(p)
            pp[i] += h; pp[j] += h
            pm[i] += h; pm[j] -= h
            mp[i] -= h; mp[j] += h
            mm[i] -= h; mm[j] -= h
            fd = (at(pp) - at(pm) - at(mp) + at(mm)) / (4 * h * h)
            worst = max(worst, rel(fd, float(jet.deriv((i, j)))))
    return worst
