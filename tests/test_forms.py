"""Forms engine: wedge algebra, minors, the five contraction identities,
minor derivatives, and coefficient decompositions."""

import random
from fractions import Fraction as F

import pytest

from liecartan.forms import (Coframe, Form, Slot, SlotMismatchError,
                             UnsupportedDegreeError, cominor_rows,
                             contracted_wedge, decompose, exterior_d,
                             interior, one_form, wedge)
from liecartan.scalars import Polynomial


def rng_poly(rng, n, deg=2, terms=3):
    out = {}
    for _ in range(terms):
        e = [0] * n
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(n)] += 1
        out[tuple(e)] = out.get(tuple(e), 0) + F(rng.randint(-3, 3))
    return Polynomial(n, out)


def vanishing_poly(rng, n, probe):
    lin = Polynomial(n, {tuple(1 if i == j else 0 for i in range(n)):
                         F(rng.randint(-3, 3)) for j in range(n)})
    lin = lin + Polynomial.constant(F(0) - lin.eval(probe), n)
    return lin * rng_poly(rng, n, 1, 2)


def seeded_coframe(seed, N):
    rng = random.Random(seed)
    probe = tuple(F(rng.randint(-2, 2), rng.choice([1, 2, 3])) for _ in range(N))
    entries = [[Polynomial.constant(F(1 if A == k else 0), N)
                + vanishing_poly(rng, N, probe) for k in range(N)]
               for A in range(N)]
    return Coframe(entries, probes=[probe]), probe


def dx(N):
    return [one_form(N, [1 if k == j else 0 for k in range(N)]) for j in range(N)]


def test_wedge_basics():
    d = dx(3)
    pt = (F(0),) * 3
    assert not wedge(d[0], d[0]).comps
    assert wedge(d[0], d[1]).get((0, 1)).jet(pt, 0).value == 1
    assert wedge(d[1], d[0]).get((0, 1)).jet(pt, 0).value == -1


def test_wedge_coefficient_product():
    x = Polynomial.coordinate(0, 2)
    y = Polynomial.coordinate(1, 2)
    a = one_form(2, [x, Polynomial.constant(0, 2)])
    b = one_form(2, [Polynomial.constant(0, 2), y])
    assert wedge(a, b).get((0, 1)).jet((F(2), F(3)), 0).value == 6


def test_wedge_degree_overflow_is_zero():
    d = dx(2)
    out = wedge(wedge(d[0], d[1]), d[0])
    assert out.degree == 3 and not out.comps


def test_graded_slot_swap():
    rng = random.Random(2)
    n = 3
    sl = Slot("v", 3)
    a = Form(n, 1, (sl,))
    b = Form(n, 1, (sl.dual_slot(),))
    for k in range(n):
        for i in range(3):
            a.add_term((k,), (i,), rng_poly(rng, n))
            b.add_term((k,), (i,), rng_poly(rng, n))
    a._finalize()
    b._finalize()
    pt = (F(1), F(0), F(-1))
    w1 = wedge(a, b)
    w2 = wedge(b, a)
    # alpha ^ beta = (-1)^{pq} slot-swapped beta ^ alpha with p = q = 1
    for K, sk, fld in w1.terms():
        mirrored = w2.get(K, (sk[1], sk[0]))
        assert fld.jet(pt, 0).value == -mirrored.jet(pt, 0).value


def test_contracted_wedge_duality_sum():
    n = 2
    sl = Slot("v", 2)
    ell = Form(n, 0, (sl.dual_slot(),))
    ell.add_term((), (0,), Polynomial.constant(F(1), n))
    ell.add_term((), (1,), Polynomial.constant(F(2), n))
    x = Form(n, 0, (sl,))
    x.add_term((), (0,), Polynomial.constant(F(3), n))
    x.add_term((), (1,), Polynomial.constant(F(4), n))
    ell._finalize(); x._finalize()
    paired = contracted_wedge(ell, x, [(0, 0)])
    assert paired.get((), ()).jet((F(0), F(0)), 0).value == 11
    unpaired = contracted_wedge(ell, x, [])
    assert unpaired.slots == (sl.dual_slot(), sl)
    assert unpaired.get((), (0, 1)).jet((F(0), F(0)), 0).value == 4


def test_contracted_wedge_surviving_slots_shape():
    # S^V_{WW} paired with T_V^{WW} on the V pair leaves (W*, W*, W, W)
    n = 2
    V = Slot("v", 2)
    W = Slot("w", 2)
    S = Form(n, 0, (V, W.dual_slot(), W.dual_slot()))
    T = Form(n, 0, (V.dual_slot(), W, W))
    S.add_term((), (0, 0, 1), Polynomial.constant(F(1), n))
    T.add_term((), (0, 1, 0), Polynomial.constant(F(1), n))
    S._finalize(); T._finalize()
    out = contracted_wedge(S, T, [(0, 0)])
    assert out.slots == (W.dual_slot(), W.dual_slot(), W, W)


def test_contracted_wedge_rejects_bad_pairing():
    n = 2
    V = Slot("v", 2)
    a = Form(n, 0, (V,))
    b = Form(n, 0, (V,))
    with pytest.raises(SlotMismatchError):
        contracted_wedge(a, b, [(0, 0)])


def test_interior_product():
    d = dx(3)
    pt = (F(0),) * 3
    assert interior(0, d[0]).get(()).jet(pt, 0).value == 1
    assert interior(1, d[0]).get(()).jet(pt, 0).value == 0
    w = wedge(d[0], d[1])
    assert interior(0, w).get((1,)).jet(pt, 0).value == 1
    # X _| X _| alpha = 0
    cf, probe = seeded_coframe(4, 4)
    top = cf.minors().top
    vec = [F(1), F(2), F(0), F(-1)]
    assert interior(vec, interior(vec, top)).max_abs(probe) == 0


def test_exterior_d_symbolic_oracle():
    # d(x_1^2 dx_0) = 2 x_1 dx_1 ^ dx_0 = -2 x_1 dx_0 ^ dx_1
    n = 2
    f = Polynomial(n, {(0, 2): F(1)})
    alpha = one_form(n, [f, Polynomial.constant(0, n)])
    d = exterior_d(alpha)
    got = d.get((0, 1))
    # symbolic differentiation oracle
    oracle = f.partial_poly(1).scale(-1)
    for pt in [(F(0), F(0)), (F(1), F(2)), (F(-1, 3), F(5, 7))]:
        assert got.jet(pt, 0).value == oracle.jet(pt, 0).value


def test_d_squared_zero():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(2, 4)
        f = rng_poly(rng, n, 3, 5)
        zero_form = Form(n, 0)
        zero_form.add_term((), (), f)
        zero_form._finalize()
        dd = exterior_d(exterior_d(zero_form))
        assert not dd.comps or all(
            fld.is_zero() for _, _, fld in dd.terms())


def test_d_of_constant_form_is_zero():
    d = dx(3)
    assert not exterior_d(d[0]).comps


def test_minor_examples():
    cf, probe = seeded_coframe(1, 3)
    mins = cf.minors()
    # e^{(2)}_0 = e^1 ^ e^2 (0-based); epsilon_{012} = 1
    direct = wedge(cf.one_form(1), cf.one_form(2))
    assert (mins.minor((0,)) - direct).max_abs(probe) == 0
    # fifi (b) instance: e^1 ^ e^{(1)}_{01} = e^{(2)}_0
    lhs = wedge(cf.one_form(1), mins.minor((0, 1)))
    assert (lhs - mins.minor((0,))).max_abs(probe) == 0


def test_fifi_d_instance_dim4():
    cf, probe = seeded_coframe(9, 4)
    mins = cf.minors()
    lhs = wedge(wedge(cf.one_form(0), cf.one_form(1)), mins.minor((0, 1)))
    assert (lhs - mins.top).max_abs(probe) == 0


@pytest.mark.parametrize("N", [3, 4, 5])
def test_fifi_family_exact(N):
    cf, probe = seeded_coframe(100 + N, N)
    mins = cf.minors()
    for A in range(N):
        for Ap in range(N):
            lhs = wedge(cf.one_form(A), mins.minor((Ap,)))
            rhs = mins.top.scale(1 if A == Ap else 0)
            assert (lhs - rhs).max_abs(probe) == 0
        for Ap in range(N):
            for Bp in range(Ap + 1, N):
                lhs = wedge(cf.one_form(A), mins.minor((Ap, Bp)))
                rhs = Form(N, N - 1)
                if A == Bp:
                    rhs = rhs + mins.minor((Ap,))
                if A == Ap:
                    rhs = rhs - mins.minor((Bp,))
                assert (lhs - rhs).max_abs(probe) == 0
                for Cp in range(Bp + 1, N):
                    lhs = wedge(cf.one_form(A), mins.minor((Ap, Bp, Cp)))
                    rhs = Form(N, N - 2)
                    if A == Cp:
                        rhs = rhs + mins.minor((Ap, Bp))
                    if A == Bp:
                        rhs = rhs + mins.minor((Cp, Ap))
                    if A == Ap:
                        rhs = rhs + mins.minor((Bp, Cp))
                    assert (lhs - rhs).max_abs(probe) == 0


@pytest.mark.parametrize("N", [3, 4])
def test_minor_derivative_rows(N):
    cf, probe = seeded_coframe(200 + N, N)
    mins = cf.minors()
    for A in range(N):
        lhs = exterior_d(mins.minor((A,)))
        rhs = Form(N, N)
        for B in range(N):
            if B != A:
                rhs = rhs + wedge(exterior_d(cf.one_form(B)), mins.minor((A, B)))
        assert (lhs - rhs).max_abs(probe) == 0
        for B in range(A + 1, N):
            lhs = exterior_d(mins.minor((A, B)))
            rhs = Form(N, N - 1)
            for C in range(N):
                if C not in (A, B):
                    rhs = rhs + wedge(exterior_d(cf.one_form(C)),
                                      mins.minor((A, B, C)))
            assert (lhs - rhs).max_abs(probe) == 0


def test_decompose_examples():
    cf, probe = seeded_coframe(31, 4)
    mins = cf.minors()
    assert decompose(cf.one_form(0), cf, "by-coframe", probe) == [1, 0, 0, 0]
    beta = wedge(cf.one_form(0), cf.one_form(1)).scale(F(3)) \
        + wedge(cf.one_form(0), cf.one_form(2)).scale(F(5))
    mat = decompose(beta, cf, "by-coframe", probe)
    assert mat[0][1] == 3 and mat[0][2] == 5 and mat[1][0] == -3
    co = decompose(mins.minor((1,)), cf, "by-cominors", probe)
    assert co[(1,)] == 1 and all(v == 0 for k, v in co.items() if k != (1,))
    two = mins.minor((0, 1)).scale(F(2)) + mins.minor((2, 3)).scale(F(-7))
    co2 = decompose(two, cf, "by-cominors", probe)
    assert co2[(0, 1)] == 2 and co2[(2, 3)] == -7
    # codegree-1 rows in a two-component slot, rebuilt from their coefficients
    slot = Slot("v", 2)
    rows = Form(4, 3, (slot,))
    for i, U, c in ((0, 1, F(2)), (1, 3, F(-7)), (1, 0, F(1, 3))):
        for K, _, fld in mins.minor((U,)).scale(c).terms():
            rows.add_term(K, (i,), fld)
    rows._finalize()
    co1 = decompose(rows, cf, "by-cominors", probe)
    assert co1[(1,)][(3,)] == -7 and co1[(0,)][(2,)] == 0
    rebuilt = cominor_rows(mins, {(sk[0], U): c for sk, row in co1.items()
                                  for (U,), c in row.items()}, slot)
    assert (rebuilt - rows).max_abs(probe) == 0
    assert sum(1 for _ in rebuilt.terms()) == sum(1 for _ in rows.terms())
    three = mins.minor((0, 1, 3)).scale(F(5))
    co3 = decompose(three, cf, "by-cominors", probe)
    assert co3[(0, 1, 3)] == 5


def test_component_keeps_increasing_index_order():
    slot = Slot("v", 3)
    x0, x1 = Polynomial.coordinate(0, 3), Polynomial.coordinate(1, 3)
    form = Form(3, 1, (slot,))
    form.add_term((2,), (0,), x0)
    form.add_term((1,), (1,), x1)
    form.add_term((0,), (0,), x1)
    form._finalize()
    row = form.component(0)
    assert row.slots == () and list(row.comps) == [(0,), (2,)]
    assert row.get((0,)) is x1 and row.get((2,)) is x0
    assert list(form.component(2).terms()) == []


def test_decompose_rejects_unsupported_degree():
    cf, probe = seeded_coframe(31, 4)
    top = cf.minors().top
    with pytest.raises(UnsupportedDegreeError):
        decompose(top, cf, "by-coframe", probe)


def test_interior_chain_matches_minors():
    from liecartan import linalg

    cf, probe = seeded_coframe(55, 4)
    mins = cf.minors()
    V = linalg.mat_inverse(cf.matrix_at(probe), True)
    for A in range(4):
        xa = [V[k][A] for k in range(4)]
        assert (interior(xa, mins.top) - mins.minor((A,))).max_abs(probe) == 0
        for B in range(4):
            if B == A:
                continue
            xb = [V[k][B] for k in range(4)]
            assert (interior(xb, mins.minor((A,)))
                    - mins.minor((A, B))).max_abs(probe) == 0


def test_snapshot_is_json_able():
    import json

    cf, probe = seeded_coframe(77, 3)
    snap = cf.minors().top.snapshot(probe)
    text = json.dumps(snap)
    assert "components" in snap and snap["degree"] == 3
    assert json.loads(text) == snap
