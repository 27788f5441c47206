"""Fixtures shared by the test modules."""

import sys
from fractions import Fraction

import pytest

from liecartan import scalars
from liecartan.scalars import poly_field


class FractionOps(list):
    """(kind, a, b) for every exact add, subtract or multiply made, kind
    "add", "sub" or "mul"."""

    def with_known_result(self):
        """The operations with a zero operand, or a factor of +-1."""
        return [(kind, a, b) for kind, a, b in self
                if a == 0 or b == 0
                or (kind == "mul" and (a in (1, -1) or b in (1, -1)))]


@pytest.fixture
def fraction_ops(monkeypatch):
    """Record the exact adds, subtracts and multiplies made while the test
    runs: those the ``scalars`` kernels compute, and those that reach
    Fraction's operators (arithmetic outside the helpers, or a float beside
    a Fraction).  The kernels build each result with ``scalars._new``;
    the recorder takes the operands from the kernel's frame.  ``_sub``
    computes through ``_add`` with ``-b``, so a kernel subtraction is
    recorded as that add.  monkeypatch restores everything afterwards."""
    ops = FractionOps()
    kernels = {"_add": "add", "_mul": "mul"}

    def new(cls, _orig=scalars._new):
        frame = sys._getframe(1)
        kind = kernels.get(frame.f_code.co_name)
        if kind is not None:
            ops.append((kind, frame.f_locals["a"], frame.f_locals["b"]))
        return _orig(cls)

    monkeypatch.setattr(scalars, "_new", new)
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        kind = name.strip("_")[-3:]

        def wrapped(a, b, _orig=getattr(Fraction, name), _kind=kind):
            ops.append((_kind, a, b))
            return _orig(a, b)

        monkeypatch.setattr(Fraction, name, wrapped)
    return ops


@pytest.fixture
def skip_polys():
    """``build()``: two polynomials with unit coefficients, and a point
    with a zero and a unit coordinate."""
    def build():
        p = poly_field(3, [((0, 0, 0), Fraction("2/3")), ((1, 0, 0), Fraction(1)),
                           ((0, 1, 0), Fraction(-1)), ((1, 1, 0), Fraction("5/4")),
                           ((0, 1, 1), Fraction(1)), ((0, 0, 2), Fraction("-7/3"))])
        q = poly_field(3, [((0, 0, 1), Fraction(-1)), ((0, 1, 0), Fraction(3)),
                           ((0, 0, 0), Fraction(1)), ((1, 0, 1), Fraction("1/2"))])
        return p, q, (Fraction(0), Fraction(1), Fraction("-3/2"))
    return build
