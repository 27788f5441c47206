"""Polynomials and the exact kernels, and the jet oracle they are read
against: exactness, Leibniz, and finite differences."""

import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from jet_oracle import JetOrderError, finite_difference_check, jet_at, poly_jet
from liecartan.scalars import (MalformedFieldError, Polynomial, _add, _mul, _neg,
                               _sub, poly_field)

# the number backend these tests run on, as ``--backend`` names it; the id
# of each test that takes it ends in that name
RATIONAL = pytest.mark.parametrize("backend", ["rational"])


def test_product_rule_on_xy():
    f = poly_field(2, [((1, 1), F(1))])
    j = jet_at(f, (F(1), F(2)), 1)
    assert j.value == 2
    assert j.grad() == [2, 1]


def test_zero_polynomial_everywhere():
    f = poly_field(3, [])
    j = jet_at(f, (F(5), F(-7), F(13)), 3)
    assert j.value == 0
    assert j.terms == {}


def test_square_derivatives():
    f = poly_field(1, [((2,), F(1))])
    j = jet_at(f, (F(3),), 2)
    assert (j.value, j.deriv((0,)), j.deriv((0, 0))) == (9, 6, 2)


def test_cube_derivatives():
    f = poly_field(1, [((3,), F(1))])
    j = jet_at(f, (F(2),), 3)
    assert (j.value, j.deriv((0,)), j.deriv((0, 0)), j.deriv((0, 0, 0))) \
        == (8, 12, 12, 6)


def test_xy_hessian_off_diagonal():
    f = poly_field(2, [((1, 1), F(1))])
    j = jet_at(f, (F(0), F(0)), 2)
    assert j.value == 0
    assert j.grad() == [0, 0]
    assert j.hessian() == [[0, 1], [1, 0]]


def test_constant_field_all_orders():
    f = poly_field(2, [((0, 0), F(5))])
    j = jet_at(f, (F(9), F(-4)), 3)
    assert j.value == 5
    assert all(v == 0 for e, v in j.terms.items() if sum(e) > 0)


def test_duplicate_monomials_are_summed():
    f = poly_field(1, [((1,), F(2)), ((1,), F(3))])
    assert f.terms == {(1,): F(5)}


def test_negative_exponent_rejected():
    with pytest.raises(MalformedFieldError):
        poly_field(2, [((1, -1), F(1))])


def test_order_above_three_rejected():
    f = poly_field(1, [((1,), F(1))])
    with pytest.raises(JetOrderError):
        jet_at(f, (F(0),), 4)


def _random_poly(rng, n, deg=3, terms=5):
    out = {}
    for _ in range(terms):
        e = [0] * n
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(n)] += 1
        out[tuple(e)] = out.get(tuple(e), 0) + F(rng.randint(-3, 3))
    return Polynomial(n, out)


def test_leibniz_exact_on_random_pairs():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(1, 5)
        f = _random_poly(rng, n)
        g = _random_poly(rng, n)
        pt = tuple(F(rng.randint(-2, 2), rng.choice([1, 2, 3])) for _ in range(n))
        direct = jet_at(f * g, pt, 3)
        via_product = jet_at(f, pt, 3) * jet_at(g, pt, 3)
        assert direct.terms == via_product.terms


def test_partial_arrays_symmetric():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(2, 4)
        f = _random_poly(rng, n)
        j = jet_at(f, tuple(F(rng.randint(-2, 2)) for _ in range(n)), 3)
        h = j.hessian()
        t = j.third()
        for i in range(n):
            for k in range(n):
                assert h[i][k] == h[k][i]
                for m in range(n):
                    assert t[i][k][m] == t[k][i][m] == t[i][m][k]


def test_finite_difference_oracle_square():
    f = poly_field(1, [((2,), F(1))])
    assert finite_difference_check(f, (1.0,), 1e-4) <= 1e-6


def test_finite_difference_oracle_xy():
    f = poly_field(2, [((1, 1), F(1))])
    assert finite_difference_check(f, (1.0, 1.0), 1e-4) <= 1e-6


def test_finite_difference_constant_is_noise_free():
    f = poly_field(1, [((0,), F(7))])
    assert finite_difference_check(f, (0.3,), 1e-4) <= 1e-12


def test_jet_evaluation_is_deterministic():
    f = poly_field(2, [((2, 1), F(3, 7)), ((0, 1), F(-2))])
    pt = (F(1, 3), F(5, 2))
    assert jet_at(f, pt, 3).terms == jet_at(f, pt, 3).terms


def test_substitute_composes_polynomials():
    f = poly_field(2, [((2, 0), F(1))])          # x^2
    g = poly_field(2, [((0, 1), F(1)), ((0, 0), F(1))])   # y + 1
    comp = f.substitute({0: g})                  # (y+1)^2
    assert comp.eval((F(9), F(2))) == 9


# -- the exact kernels equal the operators -----------------------------------

_INTS = st.one_of(st.sampled_from([0, 1, -1, 2, -6, 2**64 + 1, -3 * 2**70]),
                  st.integers(-12, 12), st.integers(-2**100, 2**100))
# denominators with shared factors, and above 2**64
_DENOMINATORS = st.one_of(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 36, 2**65,
                                           3 * 2**64]),
                          st.integers(1, 2**80))
_FRACTIONS = st.builds(F, _INTS, _DENOMINATORS)
_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                    st.floats(allow_nan=False, allow_infinity=False))
_SCALARS = st.one_of(_INTS, _FRACTIONS, _FLOATS)


def _same(got, want):
    return (type(got) is type(want) and repr(got) == repr(want)
            and hash(got) == hash(want) and got == want)


@settings(max_examples=600, database=None, derandomize=True)
@given(_SCALARS, _SCALARS)
@example(0, -0.0)
@example(-1, 0.0)
@example(F(1), 7)
def test_kernels_match_the_operators(a, b):
    """The helpers give the operators' results by type, repr, hash and ==,
    in both operand orders.  A kernel reads and builds the ``_numerator``
    and ``_denominator`` slots of Fraction, so a change in that layout
    fails here."""
    for x, y in ((a, b), (b, a)):
        for helper, op in ((_add, operator.add), (_sub, operator.sub),
                           (_mul, operator.mul)):
            assert _same(helper(x, y), op(x, y)), (helper.__name__, x, y)
        assert _same(_neg(x), -x), x


# -- operations with a known result are skipped ------------------------------

# (a, b, skipped): whether _mul(a, b) and _mul(b, a) compute no product,
# neither in the kernel nor by a Fraction operator
MUL_CASES = [
    (1, F(2, 3), True), (-1, F(2, 3), True), (F(1), F(2, 3), True),
    (F(-1), F(2, 3), True), (F(1), F(1), True), (F(-1), F(-1), True),
    (F(1), 2.5, False), (F(-1), 2.5, False), (F(-1), 0.0, False),
    (0, F(2, 3), True), (F(0), F(2, 3), True), (F(0), 7, True),
    (1.0, F(2, 3), False), (-1.0, F(2, 3), False), (1.0, F(1), False),
    (F(1), 7, False), (F(-1), 7, False), (F(0), 2.5, False),
    (0.0, F(2, 3), False), (F(2, 3), F(-5, 7), False), (F(2), F(3), False),
]


@pytest.mark.parametrize("a,b,skipped", MUL_CASES)
def test_mul_keeps_the_product_type(a, b, skipped, fraction_ops):
    for x, y in ((a, b), (b, a)):
        want = x * y
        fraction_ops.clear()
        got = _mul(x, y)
        assert type(got) is type(want) and repr(got) == repr(want), (x, y)
        assert (not fraction_ops) == skipped, (x, y)


@pytest.mark.parametrize("a,b", [(1, 2.5), (-1, 2.5), (-1, 0.0), (-1, -0.0),
                                 (0, -2.5), (1, 7), (-1, 7), (0, 7), (1.0, 2.5),
                                 (-1.0, 0.0)])
def test_mul_of_ints_and_floats_is_the_product(a, b):
    for x, y in ((a, b), (b, a)):
        got = _mul(x, y)
        assert type(got) is type(x * y) and repr(got) == repr(x * y), (x, y)


# (a, b, skipped) as for MUL_CASES; a float is always added, so 0 + -0.0
# still gives 0.0
ADD_CASES = [
    (0, F(2, 3), True), (F(0), F(2, 3), True), (0, F(0), True),
    (F(0), 5, False), (F(0), -0.0, False), (0.0, F(2, 3), False),
    (F(1, 3), F(-1, 3), False),
]


@pytest.mark.parametrize("a,b,skipped", ADD_CASES)
def test_add_keeps_the_sum_type(a, b, skipped, fraction_ops):
    for x, y in ((a, b), (b, a)):
        want = x + y
        fraction_ops.clear()
        got = _add(x, y)
        assert type(got) is type(want) and repr(got) == repr(want), (x, y)
        assert (not fraction_ops) == skipped, (x, y)


@pytest.mark.parametrize("a,b", [(0, -0.0), (0.0, -0.0), (-0.0, -0.0),
                                 (0, 0.0), (-0.0, 2.5), (0, 7)])
def test_add_keeps_the_sign_of_a_float_zero(a, b):
    for x, y in ((a, b), (b, a)):
        assert repr(_add(x, y)) == repr(x + y), (x, y)


# the results of the same operations computed without skips
POLY_REPRS = {
    "add": "Polynomial(n=3, terms={(0, 0, 0): Fraction(5, 3), (1, 0, 0): "
           "Fraction(1, 1), (0, 1, 0): Fraction(2, 1), (1, 1, 0): Fraction(5, 4), "
           "(0, 1, 1): Fraction(1, 1), (0, 0, 2): Fraction(-7, 3), (0, 0, 1): "
           "Fraction(-1, 1), (1, 0, 1): Fraction(1, 2)})",
    "mul": "Polynomial(n=3, terms={(0, 0, 1): Fraction(-2, 3), (0, 1, 0): "
           "Fraction(1, 1), (0, 0, 0): Fraction(2, 3), (1, 0, 1): Fraction(-2, 3), "
           "(1, 1, 0): Fraction(17, 4), (1, 0, 0): Fraction(1, 1), (2, 0, 1): "
           "Fraction(1, 2), (0, 1, 1): Fraction(2, 1), (0, 2, 0): Fraction(-3, 1), "
           "(1, 1, 1): Fraction(-7, 4), (1, 2, 0): Fraction(15, 4), (2, 1, 1): "
           "Fraction(5, 8), (0, 1, 2): Fraction(-8, 1), (0, 2, 1): Fraction(3, 1), "
           "(1, 1, 2): Fraction(1, 2), (0, 0, 3): Fraction(7, 3), (0, 0, 2): "
           "Fraction(-7, 3), (1, 0, 3): Fraction(-7, 6)})",
    "neg": "Polynomial(n=3, terms={(0, 0, 0): Fraction(-2, 3), (1, 0, 0): "
           "Fraction(-1, 1), (0, 1, 0): Fraction(1, 1), (1, 1, 0): Fraction(-5, 4), "
           "(0, 1, 1): Fraction(-1, 1), (0, 0, 2): Fraction(7, 3)})",
    "eval": "Fraction(-85, 12)",
    "jet": "Jet(n=3, order=1, terms={(0, 0, 0): Fraction(-85, 12), (1, 0, 0): "
           "Fraction(9, 4), (0, 1, 0): Fraction(-5, 2), (0, 0, 1): Fraction(8, 1)})",
}


@RATIONAL
def test_polynomial_arithmetic_skips_zero_and_unit_operands(backend, skip_polys,
                                                           fraction_ops):
    p, q, pt = skip_polys()
    got = {"add": p + q, "mul": p * q, "neg": p.scale(-1), "eval": p.eval(pt),
           "jet": poly_jet(p, pt, 1)}
    assert fraction_ops  # the exact operations are seen
    assert fraction_ops.with_known_result() == []
    assert {k: repr(v) for k, v in got.items()} == POLY_REPRS


@RATIONAL
def test_eval_drops_monomials_at_a_zero_coordinate(backend, fraction_ops):
    zero, two = F(0), F(2)
    f = poly_field(2, [((1, 0), two), ((1, 1), two)])
    assert repr(f.eval((zero, two))) == "0"  # no monomial left
    assert f.value((zero, two)) == 0 and f.dvalue((zero, two), 1) == 0
    assert fraction_ops == []
