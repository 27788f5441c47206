"""Forms engine: wedge algebra, minors, the five contraction identities,
minor derivatives, and coefficient decompositions."""

import itertools
import random
from fractions import Fraction as F

import pytest

from liecartan import forms
from liecartan.fields import FProd, FScale, Taylor, TaylorError, f_mul, f_scale
from liecartan.forms import (Coframe, CoframeMinors, Form, Slot, SlotMismatchError,
                             UnsupportedDegreeError, cominor_rows,
                             contracted_wedge, decompose, exterior_d,
                             interior, merge_sign, one_form, perm_parity,
                             sort_index, wedge)
from liecartan.scalars import Polynomial

# the number backend these tests run on, as ``--backend`` names it; the id
# of each test that takes it ends in that name
RATIONAL = pytest.mark.parametrize("backend", ["rational"])


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
    return Coframe(entries, probe), probe


def matrix_at(cf, point):
    return [[f.value(point) for f in row] for row in cf.entries]


def dx(N):
    return [one_form(N, [1 if k == j else 0 for k in range(N)]) for j in range(N)]


def test_wedge_basics():
    d = dx(3)
    pt = (F(0),) * 3
    assert not wedge(d[0], d[0]).comps
    assert wedge(d[0], d[1]).get((0, 1)).value(pt) == 1
    assert wedge(d[1], d[0]).get((0, 1)).value(pt) == -1


def test_wedge_coefficient_product():
    x = Polynomial.coordinate(0, 2)
    y = Polynomial.coordinate(1, 2)
    a = one_form(2, [x, Polynomial.constant(0, 2)])
    b = one_form(2, [Polynomial.constant(0, 2), y])
    assert wedge(a, b).get((0, 1)).value((F(2), F(3))) == 6


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
        assert fld.value(pt) == -mirrored.value(pt)


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
    assert paired.get((), ()).value((F(0), F(0))) == 11
    unpaired = contracted_wedge(ell, x, [])
    assert unpaired.slots == (sl.dual_slot(), sl)
    assert unpaired.get((), (0, 1)).value((F(0), F(0))) == 4


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


def reference_contracted_wedge(a, b, plan):
    """The plain nested loop over every term pair through ``add_term``;
    with an empty plan it is the plain wedge."""
    keep_a = [i for i in range(len(a.slots)) if i not in {i for i, _ in plan}]
    keep_b = [j for j in range(len(b.slots)) if j not in {j for _, j in plan}]
    out = Form(a.n, a.degree + b.degree,
               tuple(a.slots[i] for i in keep_a) + tuple(b.slots[j] for j in keep_b))
    if out.degree > a.n:
        return out
    for I, ka, fa in a.terms():
        for J, kb, fb in b.terms():
            if any(ka[i] != kb[j] for i, j in plan):
                continue
            merged = merge_sign(I, J)
            if merged is None:
                continue
            K, sign = merged
            sk = tuple(ka[i] for i in keep_a) + tuple(kb[j] for j in keep_b)
            fld = f_mul(fa, fb)
            out.add_term(K, sk, fld if sign > 0 else f_scale(fld, -1))
    return out._finalize()


def random_slotted_form(rng, n, degree, slots, terms=10):
    """Random terms, repeated (index, slot key) pairs included; some
    coefficients are lazy and some polynomials large, so that products
    stay lazy."""
    out = Form(n, degree, slots)
    for _ in range(terms):
        idx = rng.sample(range(n), degree)
        sk = tuple(rng.randrange(s.dim) for s in slots)
        coeffs = {}
        for _ in range(rng.choice([1, 2, 7])):
            e = [0] * n
            for _ in range(rng.randint(0, 2)):
                e[rng.randrange(n)] += 1
            c = F(rng.randint(-9, 9), rng.randint(1, 7))
            coeffs[tuple(e)] = c
        fld = Polynomial(n, coeffs)
        if rng.random() < 0.3:
            fld = FScale(fld, F(-3, 7))
        out.add_term(idx, sk, fld)
    return out._finalize()


def _layout(form, pt):
    """Key order, bucket order, and each field's value and partials."""
    return [(K, [(sk, repr(fld.value(pt)),
                  repr([fld.dvalue(pt, k) for k in range(form.n)]))
                 for sk, fld in bucket.items()])
            for K, bucket in form.comps.items()]


@RATIONAL
@pytest.mark.parametrize("seed", range(4))
def test_wedge_matches_nested_loop_reference(backend, seed):
    rng = random.Random(seed)
    n = 6
    V, W = Slot("v", 3), Slot("w", 2)
    pt = tuple(F(rng.randint(-5, 5), 4) for _ in range(n))
    cases = [((1, (V,)), (2, (W,)), None),
             ((2, (V, W)), (2, (V,)), None),
             ((1, ()), (3, ()), None),
             ((4, (W,)), (3, ()), None),   # beyond the top degree
             ((1, (V, W)), (2, (V.dual_slot(),)), [(0, 0)]),
             ((2, (W, V)), (1, (V.dual_slot(), W.dual_slot())), [(1, 0), (0, 1)]),
             ((0, (V,)), (2, (W, V.dual_slot())), [(0, 1)])]
    for (pa, sa), (pb, sb), plan in cases:
        a = random_slotted_form(rng, n, pa, sa)
        b = random_slotted_form(rng, n, pb, sb)
        got = wedge(a, b) if plan is None else contracted_wedge(a, b, plan)
        want = reference_contracted_wedge(a, b, plan or [])
        assert got.slots == want.slots and got.degree == want.degree
        assert _layout(got, pt) == _layout(want, pt), (pa, pb, plan)


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
    assert interior(0, d[0]).get(()).value(pt) == 1
    assert interior(1, d[0]).get(()).value(pt) == 0
    w = wedge(d[0], d[1])
    assert interior(0, w).get((1,)).value(pt) == 1
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
        assert got.value(pt) == oracle.value(pt)


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
    assert decompose(cf.one_form(0), cf, "by-coframe") == [1, 0, 0, 0]
    beta = wedge(cf.one_form(0), cf.one_form(1)).scale(F(3)) \
        + wedge(cf.one_form(0), cf.one_form(2)).scale(F(5))
    mat = decompose(beta, cf, "by-coframe")
    assert mat[0][1] == 3 and mat[0][2] == 5 and mat[1][0] == -3
    co = decompose(mins.minor((1,)), cf, "by-cominors")
    assert co[(1,)] == 1 and all(v == 0 for k, v in co.items() if k != (1,))
    two = mins.minor((0, 1)).scale(F(2)) + mins.minor((2, 3)).scale(F(-7))
    co2 = decompose(two, cf, "by-cominors")
    assert co2[(0, 1)] == 2 and co2[(2, 3)] == -7
    # codegree-1 rows in a two-component slot, rebuilt from their coefficients
    slot = Slot("v", 2)
    rows = Form(4, 3, (slot,))
    for i, U, c in ((0, 1, F(2)), (1, 3, F(-7)), (1, 0, F(1, 3))):
        for K, _, fld in mins.minor((U,)).scale(c).terms():
            rows.add_term(K, (i,), fld)
    rows._finalize()
    co1 = decompose(rows, cf, "by-cominors")
    assert co1[(1,)][(3,)] == -7 and co1[(0,)][(2,)] == 0
    rebuilt = cominor_rows(mins, {(sk[0], U): c for sk, row in co1.items()
                                  for (U,), c in row.items()}, slot)
    assert (rebuilt - rows).max_abs(probe) == 0
    assert sum(1 for _ in rebuilt.terms()) == sum(1 for _ in rows.terms())
    three = mins.minor((0, 1, 3)).scale(F(5))
    co3 = decompose(three, cf, "by-cominors")
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


def test_coframe_inverts_once_per_probe(monkeypatch):
    from liecartan import linalg

    calls = []
    inverse = linalg.mat_inverse
    monkeypatch.setattr(linalg, "mat_inverse",
                        lambda A: calls.append(1) or inverse(A))
    cf, probe = seeded_coframe(31, 4)  # inverted at its probe when built
    V = cf.inverse()
    assert V == inverse(matrix_at(cf, probe)) and cf.inverse() is V
    beta = wedge(cf.one_form(0), cf.one_form(1))
    decompose(cf.one_form(2), cf, "by-coframe")
    decompose(beta, cf, "by-coframe")
    assert len(calls) == 1  # building the coframe inverted it
    # another point needs a coframe of its own, inverted once there
    other = tuple(probe)[:3] + (probe[3] + 1,)
    cf_other = Coframe(cf.entries, other)
    assert cf_other.inverse() == inverse(matrix_at(cf, other))
    assert len(calls) == 2


def test_exact_solve_rejects_float_entries():
    """Exact pivoting on floats would return badly rounded values: the
    first nonzero pivot 1e-20 gives E V = [[1, 0], [1, 1]]."""
    from liecartan import linalg

    for A in ([[1e-20, 1.0], [1.0, 1.0]], [[1, 0], [0, 1j]]):
        with pytest.raises(ValueError, match="exact solve"):
            linalg.mat_inverse(A)
    with pytest.raises(ValueError, match="exact solve"):
        linalg.solve([[1, 0], [0, 1]], [[0.5, 1]])
    assert linalg.mat_inverse([[F(1, 2), 1], [0, 1]]) == [[2, -2], [0, 1]]


@pytest.mark.parametrize("mode", ["by-coframe", "by-cominors"])
def test_decompose_needs_a_probe(mode):
    cf = Coframe([[1, 0], [0, 1]])
    form = cf.one_form(0) if mode == "by-coframe" else cf.minors().minor((0,))
    with pytest.raises(ValueError, match="needs a coframe built with a probe"):
        decompose(form, cf, mode)


def test_inverse_needs_a_probe():
    cf = Coframe([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="^inverse needs a coframe built with a probe$"):
        cf.inverse()


def _sort_index_unmemoised(idx):
    idx = tuple(idx)
    if len(set(idx)) != len(idx):
        return None
    key = tuple(sorted(idx))
    if key == idx:
        return key, 1
    order = sorted(range(len(idx)), key=idx.__getitem__)
    return key, perm_parity(order)


def _merge_sign_unmemoised(I, J):
    inv = 0
    for i in I:
        for j in J:
            if i > j:
                inv += 1
            elif i == j:
                return None
    return tuple(sorted((*I, *J))), -1 if inv % 2 else 1


def test_memoised_index_algebra_matches_its_definition(monkeypatch):
    """sort_index and merge_sign, from empty memo tables, on a first and a
    memoised read of every index tuple of length <= 4 over range(6), as
    tuples and as lists; a repeated index gives None."""
    from liecartan import forms

    monkeypatch.setattr(forms, "_SORTED", {})
    monkeypatch.setattr(forms, "_MERGED", {})
    tuples = [t for k in range(5) for t in itertools.product(range(6), repeat=k)]
    for idx in tuples:
        want = _sort_index_unmemoised(idx)
        assert (want is None) == (len(set(idx)) < len(idx))
        for arg in (idx, list(idx), idx):
            assert sort_index(arg) == want, idx
    increasing = [t for t in tuples if list(t) == sorted(set(t))]
    for I in increasing:
        for J in increasing:
            want = _merge_sign_unmemoised(I, J)
            assert (want is None) == bool(set(I) & set(J))
            for args in ((I, J), (list(I), list(J)), (I, J)):
                assert merge_sign(*args) == want, (I, J)
    assert len(forms._SORTED) == len(tuples)


def test_decompose_rejects_unsupported_degree():
    cf, probe = seeded_coframe(31, 4)
    top = cf.minors().top
    with pytest.raises(UnsupportedDegreeError):
        decompose(top, cf, "by-coframe")


def test_interior_chain_matches_minors():
    from liecartan import linalg

    cf, probe = seeded_coframe(55, 4)
    mins = cf.minors()
    V = linalg.mat_inverse(matrix_at(cf, probe))
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


def test_sign_flipped_wedge_term_is_one_scaled_product():
    """A wedge term whose indices swap is the product with the sign as its
    scale: one node, and no FScale above it."""
    cf, probe = seeded_coframe(4, 3)
    e = [cf.inverse_field().entry(i, 0) for i in range(3)]
    a = one_form(3, [0, e[0], 0])
    b = one_form(3, [e[1], 0, 0])
    fld = wedge(a, b).get((0, 1))
    assert type(fld) is FProd and fld.c == -1
    assert (fld.a, fld.b) == (e[0], e[1])
    assert fld.value(probe) == -(e[0].value(probe) * e[1].value(probe))
    unflipped = wedge(b, a).get((0, 1))
    assert type(unflipped) is FProd and unflipped.c is None


def test_signed_minor_is_the_sorted_minor_and_its_sign():
    cf, probe = seeded_coframe(2, 4)
    mins = cf.minors()
    neg, pos = mins.minor((1, 0)), mins.minor((0, 1))
    assert mins.minor((0, 1)) is pos
    assert mins.signed_minor((1, 0)) == (pos, -1)
    assert mins.signed_minor((0, 1)) == (pos, 1)
    assert cf.one_form(2) is cf.one_form(2)
    assert list(neg.comps) == list(pos.comps) and neg.comps
    for (K, sk, f), (K2, sk2, g) in zip(neg.terms(), pos.terms()):
        assert (K, sk) == (K2, sk2)
        assert f.value(probe) == -g.value(probe)
        # a minor term keeps only the partials off its key, all ``d`` reads
        kept = [k for k in range(4) if k not in K]
        assert [f.dvalue(probe, k) for k in kept] == [
            -g.dvalue(probe, k) for k in kept]
        for k in K:
            with pytest.raises(TaylorError, match="dropped"):
                f.dvalue(probe, k)


def generic_coframe(seed, N):
    """Near-identity polynomial entries that do not vanish at the probe, so
    that no product is zero there to first order, and one zero polynomial
    entry, e^0_{N-1}."""
    rng = random.Random(seed)
    probe = tuple(F(rng.randint(-4, 4), 4) for _ in range(N))
    entries = []
    for A in range(N):
        row = []
        for k in range(N):
            p = rng_poly(rng, N, 2, 3)
            p = Polynomial(N, {e: c / 8 for e, c in p.terms.items()})
            p = p + Polynomial.constant(F(2 if A == k else 0) + F(rng.choice(
                [-3, -1, 1, 3]), 16) - p.eval(probe), N)
            row.append(p)
        entries.append(row)
    entries[0][N - 1] = Polynomial.constant(0, N)
    return entries, probe


@RATIONAL
@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_probed_coframe_builds_the_forms_of_its_entries(backend, N):
    """Each one-form and minor of codegree 0..3 that a coframe builds at its
    probe has the keys, in order, and the value and kept partials there of
    the form built from the symbolic entries.  The family of its order-0
    one-forms has the same keys less the exact-zero terms, not always in
    that order, the same values, and no partials."""
    entries, probe = generic_coframe(300 + N, N)
    probed, symbolic = Coframe(entries, probe), Coframe(entries)
    order0 = CoframeMinors([probed.one_form(A).at(probe, 0) for A in range(N)])
    elsewhere = tuple(x + 1 for x in probe)

    def check(got, want):
        assert [(K, sk) for K, sk, _ in got.terms()] == [
            (K, sk) for K, sk, _ in want.terms()]
        for (K, _, f), (_, _, g) in zip(got.terms(), want.terms()):
            assert f.value(probe) == g.value(probe)
            for k in range(N):
                if k not in K:
                    assert f.dvalue(probe, k) == g.dvalue(probe, k)

    for A in range(N):
        check(probed.one_form(A), symbolic.one_form(A))
        for _, _, f in probed.one_form(A).terms():
            assert isinstance(f, Taylor)
            with pytest.raises(TaylorError):
                f.value(elsewhere)
    assert (N - 1,) not in probed.one_form(0).comps
    assert len(probed.one_form(0).comps) == N - 1
    for k in range(4):
        for idx in itertools.combinations(range(N), k):
            got = probed.minors().minor(idx)
            check(got, symbolic.minors().minor(idx))
            values = order0.minor(idx)
            # a zero term dropped early may move a later key's first append
            assert {(K, sk): f.value(probe) for K, sk, f in values.terms()} == {
                (K, sk): f.value(probe) for K, sk, f in got.terms() if f.value(probe)}
            if k == N:
                continue  # the minor of every index is the constant 1
            for _, _, f in values.terms():
                for j in range(N):
                    with pytest.raises(TaylorError):
                        f.dvalue(probe, j)
    assert all(isinstance(c, Polynomial) for row in probed.entries for c in row)


def test_d_of_a_values_only_copy_raises():
    # an order-0 copy holds no partials, so d of it fails loudly
    cf, probe = seeded_coframe(4, 4)
    m = cf.minors().minor((1,))
    assert (m.at(probe, 0) - m).max_abs(probe) == 0
    with pytest.raises(TaylorError):
        exterior_d(m.at(probe, 0))


def test_a_codegree_1_minor_builds_only_its_ranges(monkeypatch):
    # e^(N-1)_A wedges the ranges before and after A, built one one-form at
    # a time: N - 2 wedges in all, and none for the other ranges
    N = 6
    entries, probe = generic_coframe(306, N)
    cf = Coframe(entries, probe)
    ones = [cf.one_form(A) for A in range(N)]
    calls = []
    build = forms.wedge
    monkeypatch.setattr(forms, "wedge", lambda a, b: calls.append(1) or build(a, b))
    for A in range(N):
        del calls[:]
        mins = CoframeMinors(ones)
        mins.minor((A,))
        assert len(calls) == N - 2
        mins.minor((A,))  # a second read is served from the family's caches
        assert len(calls) == N - 2
