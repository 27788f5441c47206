"""Order-0 and order-1 evaluation against the jets.

``value(point)`` must give ``jet(point, 0).value`` and ``dvalue(point, k)``
must give ``jet(point, 1).deriv((k,))`` exactly (same number, same type)
on both backends: every residual goes through these fast paths.
"""

from fractions import Fraction as F

import pytest

from liecartan.charts import antisym
from liecartan.fields import (FPartial, FProd, FScale, FSum, MatrixExpField,
                              MatrixInverseField, f_scale)
from liecartan.scalars import Polynomial, poly_field

N = 3


def _num(x, exact):
    return F(x) if exact else float(F(x))


def _graph(exact):
    """One node of every kind over fresh polynomials; exponents vanish at
    the probe so the matrix series terminate on both backends."""
    probe = tuple(_num(x, exact) for x in ("1/3", "-2/5", "3/7"))
    x = [Polynomial.coordinate(k, N) for k in range(N)]
    # shift[k] vanishes at the probe
    shift = [x[k] - Polynomial.constant(probe[k], N) for k in range(N)]
    P = poly_field(N, [((2, 1, 0), _num("3/2", exact)),
                       ((0, 0, 1), _num(-1, exact)),
                       ((0, 0, 0), _num("1/4", exact))])
    Q = poly_field(N, [((1, 0, 2), _num("-5/3", exact)),
                       ((0, 1, 0), _num(2, exact))])
    gen = [[shift[0] * P, shift[1].scale(_num("2/3", exact))],
           [shift[2] * Q, shift[0] * shift[1]]]
    E = MatrixExpField(gen, exact=exact)
    one = Polynomial.constant(_num(1, exact), N)
    two = Polynomial.constant(_num(2, exact), N)
    inv = MatrixInverseField([[two + shift[0] * Q, P],
                              [shift[1], one + shift[2] * P]], exact=exact)
    nodes = {
        "poly": P,
        "poly-zero-at-probe": shift[1] * Q,
        "sum": FSum([P, E.entry(0, 1), Q]),
        "sum-cancelling": FSum([P, P.scale(-1)]),
        "sum-cancelling-then-lazy": FSum([P, P.scale(-1), inv.entry(0, 0)]),
        "prod": FProd(P, E.entry(1, 0)),
        "prod-zero-factor": FProd(E.entry(0, 1), Q),
        "scale": FScale(FSum([Q, inv.entry(1, 0)]), _num("-2/7", exact)),
        "partial": FPartial(FProd(P, inv.entry(0, 1)), 1),
        "exp-entry": E.entry(0, 0),
        "exp-entry-off-diagonal": E.entry(0, 1),
        "inverse-entry": inv.entry(1, 1),
        "nested": FProd(FSum([FScale(E.entry(0, 0), _num(3, exact)),
                              FPartial(inv.entry(1, 0), 0)]),
                        FSum([Q, inv.entry(0, 0)])),
    }
    return probe, nodes


@pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
def test_value_equals_order0_jet_value(exact):
    probe, by_value = _graph(exact)
    _, by_jet = _graph(exact)
    assert set(by_value) == set(by_jet)
    for name in by_value:
        v = by_value[name].value(probe)
        j = by_jet[name].jet(probe, 0).value
        assert v == j, name
        assert type(v) is type(j), name


@pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
def test_value_is_memoised_and_agrees_with_cached_jets(exact):
    probe, nodes = _graph(exact)
    for name, fld in nodes.items():
        jet_first = fld.jet(probe, 1).value
        v = fld.value(probe)
        assert v == jet_first, name
        assert fld.value(probe) is v, name
        # an equal point that is a different object is evaluated afresh
        assert fld.value(tuple(list(probe))) == v, name


def test_value_type_of_zero_matches_jet():
    probe, nodes = _graph(True)
    assert nodes["poly-zero-at-probe"].value(probe) == 0
    assert type(nodes["poly-zero-at-probe"].value(probe)) is int
    assert type(nodes["prod-zero-factor"].value(probe)) is int


def test_zero_factor_drops_non_finite_value():
    # the jet product drops a term with a zero factor, so 0 * inf is 0 there
    probe, nodes = _graph(False)
    inf = Polynomial.constant(float("inf"), N)
    for fld in (FProd(nodes["poly-zero-at-probe"], inf),
                FProd(inf, nodes["prod-zero-factor"]),
                FScale(inf, 0)):
        assert fld.value(probe) == 0
        assert fld.value(probe) == fld.jet(probe, 0).value


def _same(a, b):
    return type(a) is type(b) and (a == b or (a != a and b != b))


@pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
def test_dvalue_equals_order1_jet_partial(exact):
    probe, by_dvalue = _graph(exact)
    _, by_jet = _graph(exact)
    for name in by_dvalue:
        for k in range(N):
            d = by_dvalue[name].dvalue(probe, k)
            j = by_jet[name].jet(probe, 1).deriv((k,))
            assert _same(d, j), (name, k, d, j)


@pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
def test_dvalue_zero_is_int(exact):
    probe, nodes = _graph(exact)
    for k in range(N):
        d = nodes["sum-cancelling"].dvalue(probe, k)
        assert d == 0 and type(d) is int
    c = Polynomial.constant(_num(5, exact), N)
    d = FProd(nodes["exp-entry"], c).dvalue(probe, 2)
    assert _same(d, FProd(nodes["exp-entry"], c).jet(probe, 1).deriv((2,)))


def test_dvalue_zero_factor_drops_non_finite_partial():
    # va * db and da * vb are dropped when a factor is zero, as in the jets
    probe, nodes = _graph(False)
    inf = Polynomial.constant(float("inf"), N)
    inf_slope = poly_field(N, [((1, 0, 0), float("inf"))])
    built = [lambda: FProd(nodes["poly-zero-at-probe"], inf),
             lambda: FProd(inf, nodes["prod-zero-factor"]),
             lambda: FProd(inf, nodes["poly"]),
             lambda: FScale(inf, 0),
             lambda: FScale(inf_slope, 0),
             lambda: FScale(Polynomial.constant(2.0, N), float("inf")),
             lambda: FScale(nodes["poly"], float("inf"))]
    for make in built:
        for k in range(N):
            d = make().dvalue(probe, k)
            assert _same(d, make().jet(probe, 1).deriv((k,))), (k, d)


@pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
def test_two_points_alternately(exact):
    """Equal-coordinate probes that are different objects each keep their
    own memo entry, whichever the node saw first.  (A polynomial's partial
    is read off its memoised jet, so only lazy nodes return the very same
    object again.)"""
    probe, nodes = _graph(exact)
    _, by_jet = _graph(exact)
    twin = tuple(list(probe))
    assert twin == probe and twin is not probe
    for i, (name, fld) in enumerate(nodes.items()):
        ref = by_jet[name]
        pair = (probe, twin) if i % 2 == 0 else (twin, probe)
        seen = {}
        for pt in pair + pair:
            for k in range(N):
                d = fld.dvalue(pt, k)
                assert _same(d, ref.jet(probe, 1).deriv((k,))), (name, k)
                first = seen.setdefault((id(pt), k), d)
                if not isinstance(fld, Polynomial):
                    assert d is first, (name, k)
            v = fld.value(pt)
            assert _same(v, ref.jet(probe, 0).value), name
            assert v is seen.setdefault(id(pt), v), name


@pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
def test_two_distinct_points_alternately(exact):
    """A further point gets its own memo, not the first point's slots."""
    def build():
        P = poly_field(N, [((2, 1, 0), _num("3/2", exact)),
                           ((0, 0, 1), _num(-1, exact))])
        Q = poly_field(N, [((1, 0, 2), _num("-5/3", exact)),
                           ((0, 1, 0), _num(2, exact))])
        return [FSum([P, Q]), FProd(P, Q), FScale(FProd(Q, Q), _num(3, exact)),
                FPartial(FProd(P, Q), 0)]
    points = [tuple(_num(x, exact) for x in ("1/3", "-2/5", "3/7")),
              tuple(_num(x, exact) for x in ("2/3", "1/5", -1))]
    nodes, refs = build(), build()
    for pt in points + points:
        for fld, ref in zip(nodes, refs):
            assert _same(fld.value(pt), ref.jet(pt, 0).value)
            for k in range(N):
                assert _same(fld.dvalue(pt, k), ref.jet(pt, 1).deriv((k,)))


@pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
def test_negation_matches_scale_by_minus_one(exact):
    # antisym mirrors coefficients with unary minus; on every node kind it
    # must give what f_scale(f, -1) gives, values and partials alike
    probe, nodes = _graph(exact)
    _, scaled = _graph(exact)
    for name, fld in nodes.items():
        neg, ref = -fld, f_scale(scaled[name], -1)
        assert repr(neg.value(probe)) == repr(ref.value(probe)), name
        for k in range(N):
            assert repr(neg.dvalue(probe, k)) == repr(ref.dvalue(probe, k)), name


def test_antisym_follows_each_key_with_its_mirror():
    table = {(0, 1, 2): F(5), (1, 0, 3): F(-2, 3)}
    assert list(antisym(table).items()) == [
        ((0, 1, 2), F(5)), ((0, 2, 1), F(-5)),
        ((1, 0, 3), F(-2, 3)), ((1, 3, 0), F(2, 3))]
