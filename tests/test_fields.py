"""Order-0 and order-1 evaluation of the lazy nodes.

``value(point)`` and ``dvalue(point, k)`` are checked against independent
closed forms: eager polynomial arithmetic read through the jet oracle's
``poly_jet``, the sum and product rules on Fractions, and for the matrix
nodes I c_0 and c_1 dM (an exponent that vanishes at the probe) and
-V (dE) V (an inverse).  A zero is the int 0.  Taylor numbers must give
the value and partials of the lazy node they replace.
"""

from fractions import Fraction as F

import pytest

from jet_oracle import poly_jet
from liecartan import linalg
from liecartan.charts import antisym
from liecartan.fields import (FPartial, FProd, FScale, FSum, MatrixDexpField,
                              MatrixEntryField, MatrixExpField, MatrixInverseField,
                              Taylor, TaylorError, TruncationError, f_add, f_is_zero,
                              f_mul, f_partial, f_scale)
from liecartan.forms import Form, exterior_d, wedge
from liecartan.scalars import Polynomial, poly_field

# the number backend these tests run on, as ``--backend`` names it; the id
# of each test that takes it ends in that name
RATIONAL = pytest.mark.parametrize("backend", ["rational"])

N = 3

# partials of a matrix entry's partial: nodes that need them are read by
# value only
ORDER0 = {"partial", "nested-partial"}


def _graph():
    """One node of every kind over fresh polynomials.  The exponents of the
    matrix nodes vanish at the probe, so their series terminate there."""
    probe = tuple(F(x) for x in ("1/3", "-2/5", "3/7"))
    x = [Polynomial.coordinate(k, N) for k in range(N)]
    # shift[k] vanishes at the probe
    shift = [x[k] - Polynomial.constant(probe[k], N) for k in range(N)]
    P = poly_field(N, [((2, 1, 0), F("3/2")),
                       ((0, 0, 1), F(-1)),
                       ((0, 0, 0), F("1/4"))])
    Q = poly_field(N, [((1, 0, 2), F("-5/3")),
                       ((0, 1, 0), F(2))])
    gen = [[shift[0] * P, shift[1].scale(F("2/3"))],
           [shift[2] * Q, shift[0] * shift[1]]]
    E = MatrixExpField(gen)
    D = MatrixDexpField(gen)
    one = Polynomial.constant(F(1), N)
    two = Polynomial.constant(F(2), N)
    inv = MatrixInverseField([[two + shift[0] * Q, P],
                              [shift[1], one + shift[2] * P]])
    nodes = {
        "poly": P,
        "poly-zero-at-probe": shift[1] * Q,
        "sum": FSum([P, E.entry(0, 1), Q]),
        "sum-cancelling": FSum([P, P.scale(-1)]),
        "sum-cancelling-then-lazy": FSum([P, P.scale(-1), inv.entry(0, 0)]),
        "prod": FProd(P, E.entry(1, 0)),
        "prod-zero-factor": FProd(E.entry(0, 1), Q),
        "scale": FScale(FSum([Q, inv.entry(1, 0)]), F("-2/7")),
        "partial": FPartial(FProd(P, inv.entry(0, 1)), 1),
        "exp-entry": E.entry(0, 0),
        "exp-entry-off-diagonal": E.entry(0, 1),
        "dexp-entry": D.entry(1, 0),
        "inverse-entry": inv.entry(1, 1),
        "nested": FProd(FSum([FScale(E.entry(0, 0), F(3)),
                              inv.entry(1, 0)]),
                        FSum([Q, inv.entry(0, 0)])),
        "nested-partial": FProd(FSum([FScale(E.entry(0, 0), F(3)),
                                      FPartial(inv.entry(0, 1), 0)]),
                                FSum([Q, inv.entry(0, 0)])),
    }
    return probe, nodes


def _read(name, fld, point):
    """(value, partials) of a node, its partials None for an FPartial."""
    if name in ORDER0:
        return fld.value(point), None
    return fld.value(point), [fld.dvalue(point, k) for k in range(N)]


def _matrix_closed_form(node: MatrixEntryField, probe):
    """Entry (i, j) of a matrix node over polynomial entries: I c_0 + c_1 dM
    for exp and dexp of an M that vanishes at the probe, V and -V (dE) V for
    an inverse."""
    entries, i, j = node.mat.entries, node.i, node.j
    if isinstance(node.mat, MatrixInverseField):
        E = [[f.value(probe) for f in row] for row in entries]
        V = linalg.mat_inverse(E)
        dim = len(V)
        partials = []
        for k in range(N):
            dE = [[f.dvalue(probe, k) for f in row] for row in entries]
            partials.append(-sum(V[i][a] * dE[a][b] * V[b][j]
                                 for a in range(dim) for b in range(dim)))
        return V[i][j], partials
    assert all(f.value(probe) == 0 for row in entries for f in row)
    c1 = F(1, 2) if isinstance(node.mat, MatrixDexpField) else F(1)
    return (1 if i == j else 0), [c1 * entries[i][j].dvalue(probe, k)
                                  for k in range(N)]


def _closed_form(fld, probe):
    """(value, partials) of a node by the sum and product rules on
    Fractions; partials None for an FPartial."""
    if isinstance(fld, Polynomial):
        j = poly_jet(fld, probe, 1)
        return j.value, [j.deriv((k,)) for k in range(N)]
    if isinstance(fld, MatrixEntryField):
        return _matrix_closed_form(fld, probe)
    if isinstance(fld, FPartial):
        return _closed_form(fld.a, probe)[1][fld.k], None
    if isinstance(fld, FScale):
        v, d = _closed_form(fld.a, probe)
        return fld.c * v, d and [fld.c * x for x in d]
    parts = ([fld.a, fld.b] if isinstance(fld, FProd) else fld.parts)
    vals = [_closed_form(f, probe) for f in parts]
    order1 = all(d is not None for _, d in vals)
    if isinstance(fld, FProd):
        (va, da), (vb, db) = vals
        v = va * vb
        d = [va * db[k] + da[k] * vb for k in range(N)] if order1 else None
    else:
        v = sum(v for v, _ in vals)
        d = [sum(d[k] for _, d in vals) for k in range(N)] if order1 else None
    return v, d


def _check(name, got, want):
    """``got`` is (value, partials) read from a node; ``want`` is its
    closed form.  A zero is the int 0."""
    assert got[0] == want[0], name
    for x in [got[0]] + (got[1] or []):
        assert x or type(x) is int, (name, got)
    if got[1] is not None:
        assert got[1] == want[1], name


# FSum, FProd and FScale over polynomials against eager polynomial
# arithmetic, read through poly_jet
def _polynomial_pairs():
    _, nodes = _graph()
    P, Q, Z = nodes["poly"], nodes["poly-zero-at-probe"], nodes["sum-cancelling"]
    c = F(-2, 7)
    return [(FSum([P, Q, P]), P + Q + P), (FProd(P, Q), P * Q),
            (FProd(Q, FSum([P, Q])), Q * (P + Q)), (FScale(Q, c), Q.scale(c)),
            (FSum([P, P.scale(-1)]), P + P.scale(-1)),
            (FProd(Z, FScale(P, c)), (P + P.scale(-1)) * P.scale(c))]


@RATIONAL
def test_value_equals_order0_jet_value(backend):
    probe, nodes = _graph()
    for name, fld in nodes.items():
        want = _closed_form(fld, probe)
        v = fld.value(probe)
        assert v == want[0] and (v or type(v) is int), name
    for node, poly in _polynomial_pairs():
        assert node.value(probe) == poly_jet(poly, probe, 0).value


@RATIONAL
def test_value_is_memoised_and_agrees_with_cached_jets(backend):
    """The value is the same whether partials or the value are read first,
    is memoised at the point object, and an equal point that is a
    different object gives the same value."""
    probe, nodes = _graph()
    for name, fld in nodes.items():
        if name not in ORDER0:
            fld.dvalue(probe, 0)
        v = fld.value(probe)
        assert fld.value(probe) is v, name
        assert fld.value(tuple(list(probe))) == v, name
        _, fresh = _graph()
        assert repr(v) == repr(fresh[name].value(probe)), name


def test_value_type_of_zero_matches_jet():
    probe, nodes = _graph()
    assert nodes["poly-zero-at-probe"].value(probe) == 0
    assert type(nodes["poly-zero-at-probe"].value(probe)) is int
    assert type(nodes["prod-zero-factor"].value(probe)) is int


def test_zero_factor_drops_non_finite_value():
    # a term with a zero factor is dropped, so 0 * inf is the int 0 here
    probe, nodes = _graph()
    inf = Polynomial.constant(float("inf"), N)
    for fld in (FProd(nodes["poly-zero-at-probe"], inf),
                FProd(inf, nodes["prod-zero-factor"]),
                FScale(inf, 0)):
        assert fld.value(probe) == 0
        assert type(fld.value(probe)) is int


@RATIONAL
def test_dvalue_equals_order1_jet_partial(backend):
    probe, nodes = _graph()
    for name, fld in nodes.items():
        want = _closed_form(fld, probe)
        _check(name, _read(name, fld, probe), want)
    for node, poly in _polynomial_pairs():
        j = poly_jet(poly, probe, 1)
        for k in range(N):
            d = node.dvalue(probe, k)
            assert d == j.deriv((k,)) and (d or type(d) is int)


@RATIONAL
def test_partials_dict_holds_the_nonzero_dvalues_and_is_computed_once(backend,
                                                                      monkeypatch):
    """``partials(point)`` maps each k with a nonzero first partial to it, as
    ``dvalue`` reads them one k at a time, by repr.  A lazy node computes
    that dict once, however many k are read and in whichever way; the
    partials of a matrix entry's partial raise."""
    computed = []
    for cls in (FSum, FProd, FScale, FPartial, MatrixEntryField):
        def counted(self, point, _orig=cls._partials):
            computed.append(id(self))
            return _orig(self, point)
        monkeypatch.setattr(cls, "_partials", counted)
    probe, nodes = _graph()
    for name, fld in nodes.items():
        if name in ORDER0:
            with pytest.raises(TaylorError):
                fld.partials(probe)
            continue
        reads = [fld.dvalue(probe, k) for k in range(N)]
        d = fld.partials(probe)
        assert repr(dict(sorted(d.items()))) == repr(
            {k: x for k, x in enumerate(reads) if x}), name
        assert [fld.dvalue(probe, k) for k in range(N)] == reads
        assert fld.partials(probe) is d or isinstance(fld, Polynomial), name
        assert computed.count(id(fld)) == (0 if isinstance(fld, Polynomial) else 1), name


def test_partial_node_partials_are_second_partials_of_its_operand():
    """An FPartial's value is its operand's first partial.  Its partials
    are those of the operand differentiated by the sum and product rules:
    over polynomials they are the second (and third) partials of the eager
    product; a matrix entry has none, and reading one raises."""
    probe, nodes = _graph()
    P, Q = nodes["poly"], nodes["poly-zero-at-probe"]
    lazy = FSum([FProd(P, FScale(Q, F(3))), FProd(Q, Q)])
    eager = P * Q.scale(F(3)) + Q * Q
    two, three = poly_jet(eager, probe, 2), poly_jet(eager, probe, 3)
    for k in range(N):
        assert FPartial(lazy, k).value(probe) == two.deriv((k,))
        for l in range(N):
            d = FPartial(lazy, k).dvalue(probe, l)
            assert d == two.deriv((k, l)) and (d or type(d) is int)
            for m in range(N):
                assert FPartial(FPartial(lazy, k), l).dvalue(probe, m) == \
                    three.deriv((k, l, m))
    for fld in (nodes["partial"], nodes["nested-partial"],
                FPartial(nodes["inverse-entry"], 0),
                FPartial(FPartial(nodes["exp-entry"], 0), 1)):
        with pytest.raises(TaylorError):
            fld.dvalue(probe, 0)


@RATIONAL
def test_dvalue_zero_is_int(backend):
    probe, nodes = _graph()
    for k in range(N):
        d = nodes["sum-cancelling"].dvalue(probe, k)
        assert d == 0 and type(d) is int
    c = Polynomial.constant(F(5), N)
    # exp-entry has no partial along 2 and c none at all
    d = FProd(nodes["exp-entry"], c).dvalue(probe, 2)
    assert d == 0 and type(d) is int


# the partials of the products and scalings of
# test_dvalue_zero_factor_drops_non_finite_partial
NON_FINITE_REPRS = ["[0, -inf, 0]", "[0, -inf, 0]", "[-inf, inf, -inf]", "[0, 0, 0]",
                    "[0, 0, 0]", "[0, 0, 0]", "[-inf, inf, -inf]"]


def test_dvalue_zero_factor_drops_non_finite_partial():
    # va * db and da * vb are dropped when a factor is zero
    probe, nodes = _graph()
    inf = Polynomial.constant(float("inf"), N)
    inf_slope = poly_field(N, [((1, 0, 0), float("inf"))])
    built = [lambda: FProd(nodes["poly-zero-at-probe"], inf),
             lambda: FProd(inf, nodes["prod-zero-factor"]),
             lambda: FProd(inf, nodes["poly"]),
             lambda: FScale(inf, 0),
             lambda: FScale(inf_slope, 0),
             lambda: FScale(Polynomial.constant(2.0, N), float("inf")),
             lambda: FScale(nodes["poly"], float("inf"))]
    for make, want in zip(built, NON_FINITE_REPRS):
        assert repr([make().dvalue(probe, k) for k in range(N)]) == want


@RATIONAL
def test_two_points_alternately(backend):
    """Equal-coordinate probes that are different objects each give the
    point's values, whichever the node saw first."""
    probe, nodes = _graph()
    twin = tuple(list(probe))
    assert twin == probe and twin is not probe
    for i, (name, fld) in enumerate(nodes.items()):
        want = _closed_form(fld, probe)
        pair = (probe, twin) if i % 2 == 0 else (twin, probe)
        for pt in pair + pair:
            _check(name, _read(name, fld, pt), want)


@RATIONAL
def test_two_distinct_points_alternately(backend):
    """Read in turn at two points, a polynomial gives each point's values,
    not the other's.  A lazy node, a matrix entry and a coframe inverse are
    bound to one point, so each point has a graph and a coframe of its own,
    built once; read in turn, each gives the values of a graph built afresh
    and read at its point only."""
    from liecartan.forms import Coframe

    points = [tuple(F(x) for x in ("1/3", "-2/5", "3/7")),
              tuple(F(x) for x in ("2/3", "1/5", -1))]

    def build():
        P = poly_field(N, [((2, 1, 0), F("3/2")),
                           ((0, 0, 1), F(-1))])
        Q = poly_field(N, [((1, 0, 2), F("-5/3")),
                           ((0, 1, 0), F(2))])
        # vanishes at both points, so the exp series terminate there
        x0 = Polynomial.coordinate(0, N)
        both = ((x0 - Polynomial.constant(points[0][0], N))
                * (x0 - Polynomial.constant(points[1][0], N)))
        E = MatrixExpField([[both * P, both], [both * Q, both * P]])
        return [("poly", P), ("exp", E.entry(0, 1)), ("sum", FSum([P, Q])),
                ("prod", FProd(P, Q)), ("scale", FScale(FProd(Q, Q), F(3))),
                ("partial", FPartial(FProd(P, Q), 0))]

    one = Polynomial.constant(F(1), N)
    x = [Polynomial.coordinate(k, N) for k in range(N)]
    frame = [[one + x[0] * x[1], x[2], x[0]],
             [x[1], one, x[2] * x[2]],
             [x[0] * x[2], x[1], one + x[1]]]
    graphs = {pt: build() for pt in points}
    coframes = {pt: Coframe(frame, pt) for pt in points}
    shared = graphs[points[0]][0][1]  # one polynomial, read at both points
    for pt in points + points:
        refs = build()
        for (name, fld), (_, ref) in zip(graphs[pt] + [("poly", shared)],
                                         refs + [refs[0]]):
            assert repr(_read(name, fld, pt)) == repr(_read(name, ref, pt)), name
        want = linalg.mat_inverse([[f.eval(pt) for f in row] for row in frame])
        assert coframes[pt].inverse() == want


@RATIONAL
def test_negation_matches_scale_by_minus_one(backend):
    # antisym mirrors coefficients with unary minus; on every node kind it
    # must give what f_scale(f, -1) gives, values and partials alike
    probe, nodes = _graph()
    _, scaled = _graph()
    for name, fld in nodes.items():
        neg, ref = -fld, f_scale(scaled[name], -1)
        assert repr(_read(name, neg, probe)) == repr(_read(name, ref, probe)), name


def test_antisym_follows_each_key_with_its_mirror():
    table = {(0, 1, 2): F(5), (1, 0, 3): F(-2, 3)}
    assert list(antisym(table).items()) == [
        ((0, 1, 2), F(5)), ((0, 2, 1), F(-5)),
        ((1, 0, 3), F(-2, 3)), ((1, 3, 0), F(2, 3))]


@RATIONAL
def test_polynomial_dvalue_equals_order1_jet_partial(backend):
    """Polynomial.dvalue computes the partial without the Taylor shift; it
    must still give the shift's number and type, for every k."""
    probe = tuple(F(x) for x in ("1/3", "-2/5", "3/7", "5/4"))
    n = len(probe)
    polys = [
        # coordinate 3 occurs in no monomial
        poly_field(n, [((2, 1, 0, 0), F("3/2")),
                       ((0, 3, 1, 0), F(-7)),
                       ((1, 0, 2, 0), F("2/9")),
                       ((0, 0, 0, 0), F("1/4"))]),
        # cubes: the factor 3 comes before the powers, as in the shift
        poly_field(n, [((3, 0, 1, 0), F("7/10")),
                       ((0, 3, 0, 0), F("13/10")),
                       ((1, 0, 3, 0), F("-29/10")),
                       ((0, 1, 0, 3), F("11/3"))]),
        # int coefficients: the partials stay ints where the shift's do
        Polynomial.coordinate(2, n),
        poly_field(n, [((1, 1, 0, 0), 3), ((0, 0, 0, 2), -1)]),
        Polynomial.constant(F(5), n),
        Polynomial.constant(0, n),
    ]
    for P in polys:
        twin = Polynomial(n, P.terms)
        for k in range(n):
            d = P.dvalue(probe, k)
            assert repr(d) == repr(poly_jet(twin, probe, 1).deriv((k,))), (P, k)
            assert P.dvalue(probe, k) is d


@RATIONAL
def test_polynomial_dvalue_cancelling_to_zero_is_int(backend):
    # d/dx0 of x0/2 - x0 x1 at x1 = 1/2 cancels exactly
    probe = (F(3), F("1/2"))
    P = poly_field(2, [((1, 0), F("1/2")), ((1, 1), F(-1))])
    d = P.dvalue(probe, 0)
    assert d == 0 and type(d) is int
    assert repr(d) == repr(poly_jet(Polynomial(2, P.terms), probe, 1).deriv((0,)))
    assert repr(P.dvalue(probe, 1)) == repr(
        poly_jet(Polynomial(2, P.terms), probe, 1).deriv((1,)))


def test_matrix_entry_nodes_are_shared():
    probe, _ = _graph()
    x = [Polynomial.coordinate(k, N) for k in range(N)]
    E = MatrixExpField([[x[0] - Polynomial.constant(probe[0], N), x[1]],
                        [x[2], x[0]]])
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
          ("sum-cancelling", "scale"), ("partial", "sum"), ("exp-entry", "exp-entry"),
          ("dexp-entry", "nested-partial")]
_SUMS = [("poly", "exp-entry", "Q"), ("sum-cancelling", "poly", "inverse-entry"),
         ("exp-entry", "sum-cancelling-then-lazy", "prod-zero-factor"),
         ("poly-zero-at-probe", "scale"), ("partial", "nested", "sum", "prod"),
         ("poly", "-poly"), ("exp-entry", "poly", "-poly")]


@RATIONAL
def test_taylor_arithmetic_matches_lazy_nodes(backend):
    """f_add, f_mul, f_scale and f_partial with a Taylor operand give the
    value and partials of FSum, FProd, FScale and FPartial, by repr.  An
    FPartial's Taylor number is order 0, and so is every result it takes
    part in; a lazy FPartial operand appears only beside order-0 Taylor
    numbers, since its partials would be second partials."""
    probe, nodes = _graph()
    _, ref = _graph()
    nodes["Q"] = ref["Q"] = poly_field(N, [((1, 0, 2), F("-5/3")),
                                           ((0, 1, 0), F(2))])
    nodes["-poly"] = ref["-poly"] = nodes["poly"].scale(-1)

    def tay(name):
        if name in ORDER0:
            return Taylor(N, probe, nodes[name].value(probe), None)
        return Taylor.of(nodes[name], probe)

    def check(operands, taylor, node):
        """``operands`` are (name, as a Taylor number) pairs."""
        order0 = [name in ORDER0 for name, _ in operands]
        lazy0 = [o for (_, t), o in zip(operands, order0) if not t and o]
        if lazy0 and not any(o for (_, t), o in zip(operands, order0) if t):
            return  # an order-1 result would read a lazy FPartial's partials
        _same_by_repr(taylor(), node, probe, order1=not any(order0))

    for a, b in _PAIRS:
        for wa, wb in ((True, False), (False, True), (True, True)):
            check([(a, wa), (b, wb)],
                  lambda: f_mul(tay(a) if wa else nodes[a], tay(b) if wb else nodes[b]),
                  FProd(ref[a], ref[b]))
    for names in _SUMS:
        for i in range(len(names)):
            check([(x, j == i) for j, x in enumerate(names)],
                  lambda: f_add(*[tay(x) if j == i else nodes[x]
                                  for j, x in enumerate(names)]),
                  FSum([ref[x] for x in names]))
        _same_by_repr(f_add(*map(tay, names)), FSum([ref[x] for x in names]), probe,
                      order1=not ORDER0 & set(names))
    for name in nodes:
        for c in (-1, F("-2/7"), F(3)):
            _same_by_repr(f_scale(tay(name), c), FScale(ref[name], c), probe,
                          order1=name not in ORDER0)
        if name in ORDER0:
            continue
        for k in range(N):
            d = f_partial(tay(name), k)
            _same_by_repr(d, FPartial(ref[name], k), probe, order1=False)
            # a term with an order-0 operand is order 0 as well
            prod = f_mul(d, tay("exp-entry"))
            _same_by_repr(prod, FProd(FPartial(ref[name], k), ref["exp-entry"]),
                          probe, order1=False)
            with pytest.raises(TaylorError):
                prod.partials(probe)


def test_taylor_zero_factor_drops_non_finite_values():
    probe, nodes = _graph()
    inf = Polynomial.constant(float("inf"), N)
    inf_slope = poly_field(N, [((1, 0, 0), float("inf"))])
    zero_at_probe = Taylor.of(nodes["poly-zero-at-probe"], probe)
    for t, ref in ((f_mul(zero_at_probe, inf), FProd(nodes["poly-zero-at-probe"], inf)),
                   (f_mul(inf, Taylor.of(nodes["prod-zero-factor"], probe)),
                    FProd(inf, nodes["prod-zero-factor"])),
                   (f_mul(inf_slope, Taylor.of(nodes["sum-cancelling"], probe)),
                    FProd(inf_slope, nodes["sum-cancelling"]))):
        assert t.value(probe) == 0 and type(t.value(probe)) is int
        _same_by_repr(t, ref, probe)


@RATIONAL
def test_zero_taylor_is_dropped_only_on_exact_backend(backend):
    probe, nodes = _graph()
    zero = Taylor.of(nodes["sum-cancelling"], probe)
    live = Taylor.of(nodes["exp-entry"], probe)
    assert zero.value(probe) == 0 and type(zero.value(probe)) is int
    assert not zero.partials(probe)
    assert f_is_zero(zero) and not f_is_zero(live)
    a = Form(N, 1)
    a.comps = {(0,): {(): zero}}
    b = Form(N, 1)
    b.comps = {(1,): {(): live}}
    assert (0, 1) not in wedge(a, b).comps
    summed = Form(N, 1)
    summed._append((2,), (), zero)
    assert (2,) not in summed._finalize().comps
    assert (0,) not in Form(N, 1).add_term((0,), (), zero).comps


def test_taylor_reads_only_its_own_point_and_order():
    probe, nodes = _graph()
    other = (F(1), F(2), F(3))
    t = Taylor.of(nodes["nested"], probe)
    assert t.value(tuple(list(probe))) == t.value(probe)
    for read in (lambda: t.value(other), lambda: t.dvalue(other, 0),
                 lambda: f_mul(t, Taylor.of(nodes["poly"], other))):
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


@RATIONAL
def test_form_coefficients_keep_only_partials_off_their_index(backend):
    """A Taylor coefficient stored at K holds the lazy node's value and its
    partials along k not in K, by repr; those along K raise."""
    probe, nodes = _graph()
    a_terms = [(0, nodes["exp-entry"]), (1, nodes["nested"])]
    b_terms = [(1, nodes["inverse-entry"]), (2, nodes["sum"])]

    def tay(f):
        return Taylor.of(f, probe)

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
    probe, nodes = _graph()
    a = Taylor.of(nodes["nested"], probe).without(0b001)
    b = Taylor.of(nodes["exp-entry-off-diagonal"], probe).without(0b100)
    assert a.without(0b001) is a and 0 not in a.partials(probe)
    assert f_mul(a, b).drop == f_add(a, b).drop == 0b101
    assert f_scale(a, 3).drop == f_mul(nodes["poly"], a).drop == 0b001
    assert set(f_mul(a, b).partials(probe)) | set(f_add(a, b).partials(probe)) <= {1}


# the value and partials of an FSum and an FProd over the skip_polys,
# computed without skips
LAZY_REPRS = {"sum": "(Fraction(-973, 24), [Fraction(307, 16), Fraction(-69, 2), "
                     "Fraction(697, 12)])",
              "prod": "(Fraction(-935, 24), [Fraction(283, 16), Fraction(-35, 1), "
                      "Fraction(613, 12)])"}


@RATIONAL
def test_lazy_sum_and_product_skip_zero_and_unit_operands(backend, skip_polys,
                                                          fraction_ops):
    p, q, pt = skip_polys()
    got = {}
    for name, node in (("sum", FSum([p, q, FProd(p, q)])), ("prod", FProd(q, p))):
        got[name] = repr((node.value(pt), [node.dvalue(pt, k) for k in range(3)]))
    assert fraction_ops  # the exact operations are seen
    assert fraction_ops.with_known_result() == []
    assert got == LAZY_REPRS


@RATIONAL
def test_matrix_series_starts_its_term_at_m(backend):
    """An exponent that vanishes at the probe gives exp and dexp in closed
    form, I c_0 + c_1 M, with no term past the one at M; one that does not
    vanish there raises."""
    probe, nodes = _graph()
    live = [[nodes["poly"], nodes["poly-zero-at-probe"]],
            [nodes["poly-zero-at-probe"], nodes["poly"]]]
    for cls in (MatrixExpField, MatrixDexpField):
        with pytest.raises(TruncationError):
            cls(live).entry(0, 0).value(probe)


@RATIONAL
def test_scaled_product_matches_scale_of_product(backend):
    """f_scale of a lazy product folds c into the product, which applies it
    last, as an FScale over the product does: the same value and partials
    by repr."""
    probe, nodes = _graph()
    _, ref = _graph()
    scales = [-1, F(3), F("-2/7")]
    for a, b in _PAIRS:
        name = a if a in ORDER0 else b  # read by value only if either is
        for c in scales:
            got = f_scale(f_mul(nodes[a], nodes[b]), c)
            assert type(got) is FProd and got.c == c, (a, b, c)
            want = FScale(f_mul(ref[a], ref[b]), c)
            assert (repr(_read(name, got, probe))
                    == repr(_read(name, want, probe))), (a, b, c)


@RATIONAL
def test_partials_of_a_scaled_product_apply_its_scale(backend):
    """The derivative graph of a scaled product scales the product rule's
    sum by c, as that of an FScale over the product does."""
    probe, nodes = _graph()
    P, Q = nodes["poly"], nodes["poly-zero-at-probe"]
    c = F("-2/7")

    def build(scaled):
        a, b = FSum([P, Q]), FProd(Q, FScale(P, F(3)))
        return FProd(a, b, c) if scaled else FScale(FProd(a, b), c)

    for j in range(N):
        got, want = FPartial(build(True), j), FPartial(build(False), j)
        assert (repr([got.dvalue(probe, k) for k in range(N)])
                == repr([want.dvalue(probe, k) for k in range(N)])), j


def test_sum_of_one_lazy_operand_is_that_operand():
    _, nodes = _graph()
    zero = nodes["poly"].scale(0)
    for name in ("sum", "prod", "scale", "partial", "exp-entry"):
        assert f_add(nodes[name]) is nodes[name]
        assert f_add(zero, nodes[name], zero) is nodes[name]


def test_scale_of_a_product_is_a_scaled_product():
    _, nodes = _graph()
    prod = FProd(nodes["poly"], nodes["exp-entry"])
    scaled = f_scale(prod, F(-2, 7))
    assert type(scaled) is FProd and scaled.c == F(-2, 7)
    assert (scaled.a, scaled.b) == (prod.a, prod.b)
    # a scaled product is scaled once more by a node of its own
    assert type(f_scale(scaled, 3)) is FScale


def _bits(f, probe):
    """What decides a field's numbers, by repr: a polynomial's terms; a
    Taylor number's point, value, partials and dropped bits; a lazy
    node's operands and scale, value and partials at the probe."""
    if isinstance(f, Polynomial):
        return "poly", f.n, repr(sorted(f.terms.items()))
    if isinstance(f, Taylor):
        d = None if f._d is None else sorted(f._d.items())
        return "taylor", f._pt, repr(f._v), repr(d), f.drop
    return (type(f).__name__, f.a, f.b, f.c, repr(f.value(probe)),
            repr(sorted(f.partials(probe).items())))


@RATIONAL
def test_product_with_scale_is_scale_of_product(backend):
    """f_mul(a, b, c) gives what f_scale(f_mul(a, b), c) gives, bit for
    bit, on each path: polynomials at and past EAGER_PRODUCT_CAP terms,
    lazy nodes, order-0 and order-1 Taylor numbers with dropped partials,
    and a zero polynomial."""
    from liecartan.fields import EAGER_PRODUCT_CAP

    probe, nodes = _graph()
    P = nodes["poly"]
    # 4 x 8 monomials sit on the eager cap; 6 x 6 are past it
    six = poly_field(N, [((k, 1, 0), F(k + 1)) for k in range(6)])
    four = poly_field(N, [((0, k, 1), F(f"-1/{k + 2}")) for k in range(4)])
    eight = poly_field(N, [((0, 0, k), F(k - 9)) for k in range(1, 9)])
    assert len(four.terms) * len(eight.terms) == EAGER_PRODUCT_CAP
    assert len(six.terms) ** 2 > EAGER_PRODUCT_CAP
    t1 = Taylor.of(nodes["nested"], probe).without(0b001)
    t0 = Taylor(N, probe, nodes["prod"].value(probe), None)
    pairs = {"eager": (P, nodes["poly-zero-at-probe"]), "at-cap": (four, eight),
             "past-cap": (six, six), "lazy": (nodes["nested"], nodes["exp-entry"]),
             "poly-lazy": (P, nodes["sum"]), "order1": (t1, P),
             "order1-pair": (Taylor.of(nodes["exp-entry"], probe).without(0b100), t1),
             "order0": (nodes["exp-entry"], t0), "zero": (P.scale(0), nodes["sum"]),
             "zero-right": (t1, P.scale(0))}
    kinds = {"eager": Polynomial, "at-cap": Polynomial, "past-cap": FProd,
             "lazy": FProd, "poly-lazy": FProd, "order1": Taylor,
             "order1-pair": Taylor, "order0": Taylor, "zero": Polynomial,
             "zero-right": Polynomial}
    for name, (a, b) in pairs.items():
        for c in (None, 0, -1, F("-2/7"), F(3, 5)):
            got = f_mul(a, b, c)
            want = f_mul(a, b) if c is None else f_scale(f_mul(a, b), c)
            assert isinstance(got, Polynomial if c == 0 else kinds[name]), (name, c)
            assert _bits(got, probe) == _bits(want, probe), (name, c)


def test_partial_node_builds_its_operand_derivative_once(monkeypatch):
    """An FPartial keeps the derivative graph of its operand: reading its
    partials along every k, at the probe twice, builds it once."""
    from liecartan import fields

    probe, nodes = _graph()
    P, Q = nodes["poly"], nodes["poly-zero-at-probe"]

    def build():
        return FPartial(FProd(P, FSum([Q, FScale(P, F(3))])), 1)

    want = [fields._derivative(build().a, 1, {}).dvalue(probe, k) for k in range(N)]
    node = build()
    calls = []
    derivative = fields._derivative
    monkeypatch.setattr(fields, "_derivative",
                        lambda f, k, memo: calls.append(f) or derivative(f, k, memo))
    for pt in (probe, tuple(list(probe))):
        assert [node.dvalue(pt, k) for k in range(N)] == want
    assert calls.count(node.a) == 1


@RATIONAL
def test_a_field_is_bound_to_the_point_of_its_first_read(backend):
    """A lazy node, a matrix entry, a matrix field, a Taylor number and a
    coframe's inverse are bound to one point: that of their first read, a
    Taylor number's own, a coframe's probe.  A read at an equal tuple (or
    list) is served from the memo; a read at any other point raises, and
    leaves the memo as it was."""
    from liecartan.forms import Coframe

    probe, nodes = _graph()
    twins = (tuple(list(probe)), list(probe))
    other = tuple(x + 1 for x in probe)
    entry = nodes["inverse-entry"]
    cf = Coframe(entry.mat.entries, probe)
    for read, fld in ((lambda f, pt: f.value(pt), nodes["nested"]),
                      (lambda f, pt: f.partials(pt), nodes["scale"]),
                      (lambda f, pt: f.value(pt), entry),
                      (lambda f, pt: f.partials(pt), nodes["exp-entry"]),
                      (lambda f, pt: f.value(pt), entry.mat),
                      (lambda f, pt: f.partials(pt), nodes["exp-entry"].mat),
                      (lambda f, pt: f.value(pt), Taylor.of(nodes["sum"], probe)),
                      (lambda f, pt: f.partials(pt), Taylor.of(nodes["sum"], probe)),
                      (lambda f, pt: f.value(pt), cf.inverse_field())):
        got = read(fld, probe)
        for twin in twins:
            assert read(fld, twin) is got
        with pytest.raises(TaylorError):
            read(fld, other)
        assert read(fld, probe) is got
    assert cf.inverse_field().value(probe) is cf.inverse()
    with pytest.raises(TaylorError):
        cf.inverse_field().entry(0, 0).value(other)
