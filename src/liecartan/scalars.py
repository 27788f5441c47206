"""Polynomial coefficient functions, their values and first partials,
and the exact-arithmetic helpers.

A polynomial is read at a probe the way a lazy field is (see
``fields``): by its value, its first partial along one coordinate, or
the dict of its nonzero first partials.  All arithmetic is exact: the
coefficients are ints and Fractions.

Coefficient arithmetic goes through four helpers, ``_add``, ``_sub``,
``_mul`` and ``_neg`` (used here, in ``fields``, ``linalg`` and the
models).  Two exact operands, an int and a Fraction or two Fractions, are
computed on their numerators and denominators with the gcd steps of
CPython's ``Fraction._add`` and ``_mul``, and the result is built with
``object.__new__(Fraction)`` and its ``_numerator``/``_denominator``
slots.  That skips the operator dispatch, the ``numerator``/
``denominator`` properties and ``Fraction.__new__``, which cost most of
the time of a Fraction operation on the small operands here.  Two ints,
and anything else (a float, say), go through the plain operator.

Most coefficient operations have an operand that is 0 or +-1, so the
helpers also skip an operation whose result is already known:

- ``x + 0`` is ``x``;
- ``x * 1`` is ``x``, ``x * (-1)`` is ``-x`` and an exact ``x * 0`` is a
  zero;
- a sum starts from its first term instead of the int 0;
- ``eval`` and ``_partial_at`` drop a monomial as soon as it has a
  power of a zero coordinate.  Such a term is a zero product that the
  sum would only add, so a value with no monomial left is the int 0
  (``value`` and ``dvalue`` give every zero as the int 0 anyway).

The results are bit-identical to the plain operators:

- a kernel result is a real Fraction in lowest terms with a positive
  denominator, the one form a Fraction value has, so its ``repr``,
  ``hash`` and ``==`` are those of the operator's result;
- a float operand is never given to a kernel;
- a skip returns an operand, its negation or a Fraction zero only where
  the operation gives that type.  ``_add`` skips the int 0 beside a
  Fraction and a Fraction 0 beside a Fraction.  ``_mul`` skips an int
  +-1 or a Fraction +-1 beside a Fraction, and an int or Fraction 0
  beside a Fraction.  A Fraction 1 times an int is still multiplied.

The kernels rely on Fraction keeping its value in the ``_numerator`` and
``_denominator`` slots, as CPython's ``fractions`` does;
``tests/test_scalars.py::test_kernels_match_the_operators`` compares them
with the operators on ints, Fractions and floats and fails if that
layout changes.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Dict, Iterable, Sequence, Tuple

Exponent = Tuple[int, ...]


class MalformedFieldError(ValueError):
    """Invalid polynomial data (negative exponents, bad dimension)."""


def _zero_exp(n: int) -> Exponent:
    return (0,) * n


def _exp_add(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(operator.add, a, b))


_FRACTION_ZERO = Fraction(0)
_new = object.__new__  # a bare Fraction, whose slots the kernels set
_gcd = math.gcd


def _neg(a):
    """``-a``; a Fraction is negated on its numerator."""
    if a.__class__ is Fraction:
        r = _new(Fraction)
        r._numerator = -a._numerator
        r._denominator = a._denominator
        return r
    return -a


def _add(a, b):
    """``a + b``; two exact operands are added on their numerators and
    denominators, and an exact zero is skipped where the sum has the
    other operand's type."""
    ca, cb = a.__class__, b.__class__
    if ca is Fraction:
        na, da = a._numerator, a._denominator
        if cb is Fraction:
            nb, db = b._numerator, b._denominator
            if not na:
                return b
        elif cb is int:
            nb, db = b, 1
        else:
            return a + b
        if not nb:
            return a
    elif ca is int and cb is Fraction:
        if not a:
            return b
        na, da, nb, db = a, 1, b._numerator, b._denominator
    else:
        return a + b
    # Fraction._add's steps; the result is in lowest terms
    if da == 1:
        n, d = na * db + nb, db
    elif db == 1:
        n, d = na + nb * da, da
    else:
        g = _gcd(da, db)
        if g == 1:
            n, d = na * db + da * nb, da * db
        else:
            s = da // g
            t = na * (db // g) + nb * s
            g2 = _gcd(t, g)
            if g2 == 1:
                n, d = t, s * db
            else:
                n, d = t // g2, s * (db // g2)
    r = _new(Fraction)
    r._numerator = n
    r._denominator = d
    return r


def _sub(a, b):
    """``a - b``; two exact operands as ``_add(a, -b)``, which gives the
    same value and type (a float is subtracted: ``-0.0 + -0`` would be
    ``0.0``)."""
    ca, cb = a.__class__, b.__class__
    if (ca is Fraction or ca is int) and (cb is Fraction or cb is int):
        return _add(a, _neg(b))
    return a - b


def _mul(a, b):
    """``a * b``; two exact operands are multiplied on their numerators
    and denominators, and a 0 or +-1 operand is applied without the
    operation where the product's type is known."""
    ca, cb = a.__class__, b.__class__
    if ca is Fraction:
        na, da = a._numerator, a._denominator
        if cb is Fraction:
            nb, db = b._numerator, b._denominator
        elif cb is int:
            nb, db = b, 1
        else:
            return a * b
    elif cb is Fraction:
        nb, db = b._numerator, b._denominator
        if ca is not int:
            return a * b
        na, da = a, 1
    else:
        return a * b
    if not na or not nb:
        return _FRACTION_ZERO
    # a +-1 gives the other operand unless that is an int beside a Fraction
    if da == 1 and (na == 1 or na == -1) and (cb is Fraction or ca is int):
        return b if na == 1 else _neg(b)
    if db == 1 and (nb == 1 or nb == -1) and (ca is Fraction or cb is int):
        return a if nb == 1 else _neg(a)
    # Fraction._mul's steps; the result is in lowest terms
    if db != 1:
        g = _gcd(na, db)
        if g > 1:
            na //= g
            db //= g
    if da != 1:
        g = _gcd(nb, da)
        if g > 1:
            nb //= g
            da //= g
    r = _new(Fraction)
    r._numerator = na * nb
    r._denominator = da * db
    return r


class Polynomial:
    """Exact multivariate polynomial; the default ScalarField backend.

    ``terms`` maps exponent tuples to coefficients.  Arithmetic is eager
    (results stay polynomials).  :meth:`value`, :meth:`dvalue` and
    :meth:`partials` give the value, a first partial and the nonzero first
    partials at a point.  Unlike a lazy node, which is bound to one point,
    a polynomial may be read at any point: it memoises its value (``_v``)
    and first partials (``_d``, per coordinate, so that a caller computes
    only the partials it reads) at the last point object it was read at
    (``_pt``), and drops them when a different object arrives.
    """

    __slots__ = ("n", "terms", "_pt", "_v", "_d")

    def __init__(self, n: int, terms: Dict[Exponent, object]):
        if n < 1:
            raise MalformedFieldError("dimension must be >= 1")
        clean: Dict[Exponent, object] = {}
        for e, c in terms.items():
            e = tuple(int(x) for x in e)
            if len(e) != n:
                raise MalformedFieldError("exponent length does not match dimension")
            if any(x < 0 for x in e):
                raise MalformedFieldError("negative exponent")
            if c:
                clean[e] = _add(clean[e], c) if e in clean else c
        self.n = n
        self.terms = {e: c for e, c in clean.items() if c}
        self._pt = None

    @staticmethod
    def _make(n: int, terms: Dict[Exponent, object]) -> "Polynomial":
        """Result of internal arithmetic: exponents are already valid."""
        out = object.__new__(Polynomial)
        out.n = n
        out.terms = {e: c for e, c in terms.items() if c}
        out._pt = None
        return out

    @staticmethod
    def constant(value, n: int) -> "Polynomial":
        return Polynomial(n, {_zero_exp(n): value})

    @staticmethod
    def coordinate(k: int, n: int) -> "Polynomial":
        e = [0] * n
        e[k] = 1
        return Polynomial(n, {tuple(e): 1})

    def __add__(self, other):
        if isinstance(other, Polynomial):
            terms = dict(self.terms)
            for e, c in other.terms.items():
                terms[e] = _add(terms[e], c) if e in terms else c
            return Polynomial._make(self.n, terms)
        return NotImplemented

    def __neg__(self):
        return Polynomial._make(self.n, {e: _neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, Polynomial):
            return self + (-other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            terms: Dict[Exponent, object] = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    e = _exp_add(ea, eb)
                    p = _mul(ca, cb)
                    terms[e] = _add(terms[e], p) if e in terms else p
            return Polynomial._make(self.n, terms)
        return NotImplemented

    def scale(self, c) -> "Polynomial":
        return Polynomial._make(self.n, {e: _mul(c, v) for e, v in self.terms.items()})

    def partial_poly(self, k: int) -> "Polynomial":
        terms: Dict[Exponent, object] = {}
        for e, c in self.terms.items():
            if e[k] == 0:
                continue
            de = list(e)
            de[k] -= 1
            terms[tuple(de)] = _mul(c, e[k])
        return Polynomial._make(self.n, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def eval(self, point: Sequence):
        """Value at ``point``.  A monomial with a zero coordinate is a zero
        product and is dropped, so the value is the int 0 when no monomial
        is left."""
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, m in zip(point, e):
                if m:
                    if not x:
                        break
                    for _ in range(m):
                        v = _mul(v, x)
            else:
                total = _add(total, v)
        return total

    def _move_to(self, point):
        self._pt = point
        self._v = None
        self._d = None

    def value(self, point: Sequence):
        """Value at ``point``; memoised at the last point object read."""
        if point is not self._pt:
            self._move_to(point)
        v = self._v
        if v is None:
            v = self.eval(point)
            if not v:
                v = 0  # a zero value is the int 0
            self._v = v
        return v

    def dvalue(self, point: Sequence, k: int):
        """First partial along ``k`` at ``point``; memoised per ``k`` at the
        last point object read."""
        if point is not self._pt:
            self._move_to(point)
        partials = self._d
        if partials is None:
            partials = self._d = [None] * self.n
        d = partials[k]
        if d is None:
            d = partials[k] = self._partial_at(point, k)
        return d

    def _partial_at(self, point: Sequence, k: int):
        # the h_k coefficient of the order-1 Taylor shift, with its
        # products in the shift's order: c, the binomial factor e[k] at
        # coordinate k (the factor 1 elsewhere), then the powers of each
        # coordinate; terms are summed in ``terms`` order
        total = 0
        for e, c in self.terms.items():
            if e[k] == 0:
                continue
            w = c
            for i, m in enumerate(e):
                if i == k:
                    w = _mul(w, m)
                    m -= 1
                if m:
                    p = point[i]
                    if not p:
                        break
                    for _ in range(m):
                        w = _mul(w, p)
            else:
                total = _add(total, w)
        return total if total else 0  # a zero is the int 0

    def partials(self, point: Sequence, drop: int = 0) -> dict:
        """Nonzero first partials at ``point`` by coordinate, in ascending
        k, except along the bits of ``drop``; each is read through
        :meth:`dvalue`."""
        out = {}
        for k in range(self.n):
            if not drop >> k & 1:
                d = self.dvalue(point, k)
                if d:
                    out[k] = d
        return out

    def substitute(self, replacements: Dict[int, "Polynomial"]) -> "Polynomial":
        """Composition: substitute coordinate k by a polynomial (same arity)."""
        out = Polynomial.constant(0, self.n)
        for e, c in self.terms.items():
            term = Polynomial.constant(c, self.n)
            for i, m in enumerate(e):
                base = replacements.get(i, Polynomial.coordinate(i, self.n))
                for _ in range(m):
                    term = term * base
            out = out + term
        return out

    def __repr__(self):
        return f"Polynomial(n={self.n}, terms={self.terms})"


def poly_field(dim: int, monomials: Iterable[Tuple[Sequence[int], object]]) -> Polynomial:
    """Exact polynomial field from (exponent, coefficient) pairs.

    Duplicate monomials are summed; negative exponents are rejected.
    """
    terms: Dict[Exponent, object] = {}
    for exp, coeff in monomials:
        e = tuple(int(x) for x in exp)
        if len(e) != dim:
            raise MalformedFieldError("exponent length does not match dimension")
        if any(x < 0 for x in e):
            raise MalformedFieldError("negative exponent")
        terms[e] = _add(terms[e], coeff) if e in terms else coeff
    return Polynomial(dim, terms)
