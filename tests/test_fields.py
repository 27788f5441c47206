"""Order-0 and order-1 evaluation against the jets.

``value(point)`` must give ``jet(point, 0).value`` and ``dvalue(point, k)``
must give ``jet(point, 1).deriv((k,))`` exactly (same number, same type)
on both backends: every residual goes through these fast paths.  Taylor
numbers must give the value and partials of the lazy node they replace.
"""

from fractions import Fraction as F

import pytest

from liecartan.charts import antisym
from liecartan.fields import (FPartial, FProd, FScale, FSum, MatrixExpField,
                              MatrixInverseField, Taylor, TaylorError, f_add,
                              f_is_zero, f_mul, f_partial, f_scale)
from liecartan.forms import Form, exterior_d, wedge
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
    """Equal-coordinate probes that are different objects each give the
    point's values, whichever the node saw first."""
    probe, nodes = _graph(exact)
    _, by_jet = _graph(exact)
    twin = tuple(list(probe))
    assert twin == probe and twin is not probe
    for i, (name, fld) in enumerate(nodes.items()):
        ref = by_jet[name]
        pair = (probe, twin) if i % 2 == 0 else (twin, probe)
        for pt in pair + pair:
            for k in range(N):
                d = fld.dvalue(pt, k)
                assert _same(d, ref.jet(probe, 1).deriv((k,))), (name, k)
            v = fld.value(pt)
            assert _same(v, ref.jet(probe, 0).value), name


@pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
def test_two_distinct_points_alternately(exact):
    """Read in turn at two points, a node, a polynomial, a matrix entry and
    a coframe inverse each give that point's values, not the other's."""
    from liecartan import linalg
    from liecartan.forms import Coframe

    points = [tuple(_num(x, exact) for x in ("1/3", "-2/5", "3/7")),
              tuple(_num(x, exact) for x in ("2/3", "1/5", -1))]

    def build():
        P = poly_field(N, [((2, 1, 0), _num("3/2", exact)),
                           ((0, 0, 1), _num(-1, exact))])
        Q = poly_field(N, [((1, 0, 2), _num("-5/3", exact)),
                           ((0, 1, 0), _num(2, exact))])
        # vanishes at both points, so the exp series terminate there
        x0 = Polynomial.coordinate(0, N)
        both = ((x0 - Polynomial.constant(points[0][0], N))
                * (x0 - Polynomial.constant(points[1][0], N)))
        E = MatrixExpField([[both * P, both], [both * Q, both * P]], exact=exact)
        return [P, E.entry(0, 1), FSum([P, Q]), FProd(P, Q),
                FScale(FProd(Q, Q), _num(3, exact)), FPartial(FProd(P, Q), 0)]

    one = Polynomial.constant(_num(1, exact), N)
    x = [Polynomial.coordinate(k, N) for k in range(N)]
    frame = [[one + x[0] * x[1], x[2], x[0]],
             [x[1], one, x[2] * x[2]],
             [x[0] * x[2], x[1], one + x[1]]]
    cf = Coframe(frame, exact=exact)
    nodes, refs = build(), build()
    for pt in points + points:
        for fld, ref in zip(nodes, refs):
            assert _same(fld.value(pt), ref.jet(pt, 0).value)
            for k in range(N):
                assert _same(fld.dvalue(pt, k), ref.jet(pt, 1).deriv((k,)))
        want = linalg.mat_inverse([[f.eval(pt) for f in row] for row in frame],
                                  exact)
        assert cf.inverse_at(pt) == want


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


@pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
def test_polynomial_dvalue_equals_order1_jet_partial(exact):
    """Polynomial.dvalue computes the partial without the Taylor shift; it
    must still give the shift's number and type, for every k."""
    probe = tuple(_num(x, exact) for x in ("1/3", "-2/5", "3/7", "5/4"))
    n = len(probe)
    polys = [
        # coordinate 3 occurs in no monomial
        poly_field(n, [((2, 1, 0, 0), _num("3/2", exact)),
                       ((0, 3, 1, 0), _num(-7, exact)),
                       ((1, 0, 2, 0), _num("2/9", exact)),
                       ((0, 0, 0, 0), _num("1/4", exact))]),
        # cubes: the factor 3 comes before the powers, as in the shift
        poly_field(n, [((3, 0, 1, 0), _num("7/10", exact)),
                       ((0, 3, 0, 0), _num("13/10", exact)),
                       ((1, 0, 3, 0), _num("-29/10", exact)),
                       ((0, 1, 0, 3), _num("11/3", exact))]),
        # int coefficients: the partials stay ints where the shift's do
        Polynomial.coordinate(2, n),
        poly_field(n, [((1, 1, 0, 0), 3), ((0, 0, 0, 2), -1)]),
        Polynomial.constant(_num(5, exact), n),
        Polynomial.constant(0, n),
    ]
    for P in polys:
        twin = Polynomial(n, P.terms)
        for k in range(n):
            d = P.dvalue(probe, k)
            assert repr(d) == repr(twin.jet(probe, 1).deriv((k,))), (P, k)
            assert P.dvalue(probe, k) is d


@pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
def test_polynomial_dvalue_cancelling_to_zero_is_int(exact):
    # d/dx0 of x0/2 - x0 x1 at x1 = 1/2 cancels exactly on both backends
    probe = (_num(3, exact), _num("1/2", exact))
    P = poly_field(2, [((1, 0), _num("1/2", exact)), ((1, 1), _num(-1, exact))])
    d = P.dvalue(probe, 0)
    assert d == 0 and type(d) is int
    assert repr(d) == repr(Polynomial(2, P.terms).jet(probe, 1).deriv((0,)))
    assert repr(P.dvalue(probe, 1)) == repr(
        Polynomial(2, P.terms).jet(probe, 1).deriv((1,)))


def test_matrix_entry_nodes_are_shared():
    probe, _ = _graph(True)
    x = [Polynomial.coordinate(k, N) for k in range(N)]
    E = MatrixExpField([[x[0] - Polynomial.constant(probe[0], N), x[1]],
                        [x[2], x[0]]], exact=True)
    assert E.entry(0, 1) is E.entry(0, 1)
    assert E.entry(0, 1) is not E.entry(1, 0)


def _same_by_repr(taylor, node, probe, order1=True):
    assert repr(taylor.value(probe)) == repr(node.value(probe))
    if order1:
        for k in range(N):
            assert repr(taylor.dvalue(probe, k)) == repr(node.dvalue(probe, k)), k


# operand names from _graph: polynomials, matrix entries and lazy nodes,
# with zeros at the probe among them
_PAIRS = [("poly", "exp-entry"), ("exp-entry", "poly"), ("inverse-entry", "nested"),
          ("poly-zero-at-probe", "exp-entry-off-diagonal"), ("prod-zero-factor", "poly"),
          ("sum-cancelling", "scale"), ("partial", "sum"), ("exp-entry", "exp-entry")]
_SUMS = [("poly", "exp-entry", "Q"), ("sum-cancelling", "poly", "inverse-entry"),
         ("exp-entry", "sum-cancelling-then-lazy", "prod-zero-factor"),
         ("poly-zero-at-probe", "scale"), ("partial", "nested", "sum", "prod"),
         ("poly", "-poly"), ("exp-entry", "poly", "-poly")]


@pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
def test_taylor_arithmetic_matches_lazy_nodes(exact):
    """f_add, f_mul, f_scale and f_partial with a Taylor operand give the
    value and partials of FSum, FProd, FScale and FPartial, by repr."""
    probe, nodes = _graph(exact)
    _, ref = _graph(exact)
    nodes["Q"] = ref["Q"] = poly_field(N, [((1, 0, 2), _num("-5/3", exact)),
                                           ((0, 1, 0), _num(2, exact))])
    nodes["-poly"] = ref["-poly"] = nodes["poly"].scale(-1)

    def tay(name):
        return Taylor.of(nodes[name], probe, exact)

    for a, b in _PAIRS:
        for ta, tb in ((tay(a), nodes[b]), (nodes[a], tay(b)), (tay(a), tay(b))):
            _same_by_repr(f_mul(ta, tb), FProd(ref[a], ref[b]), probe)
    for names in _SUMS:
        for i in range(len(names)):
            parts = [tay(x) if j == i else nodes[x] for j, x in enumerate(names)]
            _same_by_repr(f_add(*parts), FSum([ref[x] for x in names]), probe)
        _same_by_repr(f_add(*map(tay, names)), FSum([ref[x] for x in names]), probe)
    for name in nodes:
        for c in (-1, _num("-2/7", exact), _num(3, exact)):
            _same_by_repr(f_scale(tay(name), c), FScale(ref[name], c), probe)
        for k in range(N):
            d = f_partial(tay(name), k)
            _same_by_repr(d, FPartial(ref[name], k), probe, order1=False)
            # a term with an order-0 operand is order 0 as well
            prod = f_mul(d, tay("exp-entry"))
            _same_by_repr(prod, FProd(FPartial(ref[name], k), ref["exp-entry"]),
                          probe, order1=False)
            assert prod.d is None


def test_taylor_zero_factor_drops_non_finite_values():
    probe, nodes = _graph(False)
    inf = Polynomial.constant(float("inf"), N)
    inf_slope = poly_field(N, [((1, 0, 0), float("inf"))])
    zero_at_probe = Taylor.of(nodes["poly-zero-at-probe"], probe, False)
    for t, ref in ((f_mul(zero_at_probe, inf), FProd(nodes["poly-zero-at-probe"], inf)),
                   (f_mul(inf, Taylor.of(nodes["prod-zero-factor"], probe, False)),
                    FProd(inf, nodes["prod-zero-factor"])),
                   (f_mul(inf_slope, Taylor.of(nodes["sum-cancelling"], probe, False)),
                    FProd(inf_slope, nodes["sum-cancelling"]))):
        assert t.value(probe) == 0 and type(t.value(probe)) is int
        _same_by_repr(t, ref, probe)


@pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
def test_zero_taylor_is_dropped_only_on_exact_backend(exact):
    probe, nodes = _graph(exact)
    zero = Taylor.of(nodes["sum-cancelling"], probe, exact)
    live = Taylor.of(nodes["exp-entry"], probe, exact)
    assert zero.v == 0 and type(zero.v) is int and not zero.d
    assert f_is_zero(zero) is exact and not f_is_zero(live)
    a = Form(N, 1)
    a.comps = {(0,): {(): zero}}
    b = Form(N, 1)
    b.comps = {(1,): {(): live}}
    assert ((0, 1) in wedge(a, b).comps) is not exact
    summed = Form(N, 1)
    summed._append((2,), (), zero)
    assert ((2,) in summed._finalize().comps) is not exact
    assert ((0,) in Form(N, 1).add_term((0,), (), zero).comps) is not exact


def test_taylor_reads_only_its_own_point_and_order():
    probe, nodes = _graph(True)
    other = (F(1), F(2), F(3))
    t = Taylor.of(nodes["nested"], probe, True)
    assert t.value(tuple(list(probe))) == t.value(probe)
    for read in (lambda: t.value(other), lambda: t.dvalue(other, 0),
                 lambda: f_mul(t, Taylor.of(nodes["poly"], other, True))):
        with pytest.raises(TaylorError):
            read()
    d = f_partial(t, 0)
    with pytest.raises(TaylorError):
        f_partial(d, 1)
    with pytest.raises(TaylorError):
        d.dvalue(probe, 1)


def _form_of(terms, wrap):
    out = Form(N, 1)
    for k, fld in terms:
        out.add_term((k,), (), wrap(fld))
    return out._finalize()


def _index_bits(K):
    return sum(1 << k for k in K)


@pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
def test_form_coefficients_keep_only_partials_off_their_index(exact):
    """A Taylor coefficient stored at K holds the lazy node's value and its
    partials along k not in K, by repr; those along K raise."""
    probe, nodes = _graph(exact)
    a_terms = [(0, nodes["exp-entry"]), (1, nodes["nested"])]
    b_terms = [(1, nodes["inverse-entry"]), (2, nodes["sum"])]

    def tay(f):
        return Taylor.of(f, probe, exact)

    taylor = wedge(_form_of(a_terms, tay), _form_of(b_terms, tay))
    lazy = wedge(_form_of(a_terms, lambda f: f), _form_of(b_terms, lambda f: f))
    added = Form(N, 2).add_term((2, 0), (), tay(nodes["scale"]))._finalize()
    added_lazy = Form(N, 2).add_term((2, 0), (), nodes["scale"])._finalize()
    for out, ref in ((taylor, lazy), (added, added_lazy)):
        assert sorted(out.comps) == sorted(ref.comps)
        for K, sk, fld in out.terms():
            node = ref.comps[K][sk]
            assert fld.drop == _index_bits(K)
            assert repr(fld.value(probe)) == repr(node.value(probe))
            for k in range(N):
                if k in K:
                    with pytest.raises(TaylorError):
                        fld.dvalue(probe, k)
                    with pytest.raises(TaylorError):
                        f_partial(fld, k)
                else:
                    assert repr(fld.dvalue(probe, k)) == repr(node.dvalue(probe, k))
        d, d_lazy = exterior_d(out), exterior_d(ref)
        assert sorted(d.comps) == sorted(d_lazy.comps)
        for K, sk, fld in d.terms():
            assert repr(fld.value(probe)) == repr(d_lazy.comps[K][sk].value(probe))


def test_taylor_arithmetic_joins_dropped_partials():
    probe, nodes = _graph(True)
    a = Taylor.of(nodes["nested"], probe, True).without(0b001)
    b = Taylor.of(nodes["exp-entry-off-diagonal"], probe, True).without(0b100)
    assert a.without(0b001) is a and 0 not in a.d
    assert f_mul(a, b).drop == f_add(a, b).drop == 0b101
    assert f_scale(a, 3).drop == f_mul(nodes["poly"], a).drop == 0b001
    assert set(f_mul(a, b).d) | set(f_add(a, b).d) <= {1}


# the value and partials of an FSum and an FProd over the skip_polys,
# computed without skips
LAZY_REPRS = {
    True: {"sum": "(Fraction(-973, 24), [Fraction(307, 16), Fraction(-69, 2), "
                  "Fraction(697, 12)])",
           "prod": "(Fraction(-935, 24), [Fraction(283, 16), Fraction(-35, 1), "
                   "Fraction(613, 12)])"},
    False: {"sum": "(-40.54166666666667, [19.1875, -34.5, 58.083333333333336])",
            "prod": "(-38.958333333333336, [17.6875, -35.0, 51.083333333333336])"},
}


@pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
def test_lazy_sum_and_product_skip_zero_and_unit_operands(exact, skip_polys,
                                                          fraction_ops):
    p, q, pt = skip_polys(exact)
    got = {}
    for name, node in (("sum", FSum([p, q, FProd(p, q)])), ("prod", FProd(q, p))):
        got[name] = repr((node.value(pt), [node.dvalue(pt, k) for k in range(3)]))
    assert fraction_ops or not exact  # the exact operations are seen
    assert fraction_ops.with_known_result() == []
    assert got == LAZY_REPRS[exact]


@pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
def test_matrix_series_starts_its_term_at_m(exact, monkeypatch):
    from liecartan import fields

    products = []
    mat_mul = fields.jet_mat_mul
    monkeypatch.setattr(fields, "jet_mat_mul",
                        lambda A, B: products.append(1) or mat_mul(A, B))
    probe, nodes = _graph(exact)
    z = nodes["poly-zero-at-probe"].jet(probe, 2)  # no value part
    M = [[z, z.scale(_num(2, exact))], [z.scale(_num(-1, exact)), z]]
    out = fields.jet_mat_exp(M, exact)
    assert len(products) == 1  # M^2 only: the series never forms I * M
    half = _num("1/2", exact)
    for i in range(2):
        for j in range(2):
            want = M[i][j] + mat_mul(M, M)[i][j].scale(half)
            if i == j:
                want = want + fields.Jet.constant(_num(1, exact), N, 2, probe)
            assert repr(sorted(out[i][j].terms.items())) == \
                repr(sorted(want.terms.items()))
