"""Lie algebra catalog, adjoint machinery, kappa tensors and the constants."""

import random
from fractions import Fraction as F

import pytest

from liecartan.algebra import (LieAlgebra, SplitAlgebra, bracket, build_algebra,
                               check_algebra, coadjoint, corrupt_algebra,
                               dexp_right, euclidean_diag, exp_adjoint,
                               killing_form, killing_pairing, minkowski_diag)
from liecartan.kappa import (KappaTensor, build_kappa, epsilon_double_contraction,
                             holst_kernel_factor, kappa_ad_residual,
                             kappa_invariance_residual, kappa_kernel_rank,
                             lambda_constant)


def basis(i, d):
    v = [F(0)] * d
    v[i] = F(1)
    return v


def test_catalog_invariants():
    for name in ("u1", "su2", "p_0(3)", "p_0(4)", "p_1(4)", "p_-1(4)"):
        alg = build_algebra(name)
        split = alg if isinstance(alg, SplitAlgebra) else None
        ambient = split.ambient if split else alg
        rep = check_algebra(ambient, split)
        assert rep["jacobi_residual"] == 0
        assert rep["unimodular_ambient"]
        if split:
            assert rep["unimodular_sub"]
            assert rep["reductive_ok"]
            assert rep["symmetric_ok"]


def test_poincare_bracket_table():
    sp = build_algebra("p_1(4)")
    alg = sp.ambient
    d = alg.dim
    # [t_a, t_c] = -k t_{ac}
    out = bracket(alg, basis(0, d), basis(1, d))
    assert out[4] == -1 and all(v == 0 for i, v in enumerate(out) if i != 4)
    # [t_{ab}, t_c] = h_bc t_a - h_ac t_b, with h = diag(-1,1,1,1)
    out = bracket(alg, basis(4, d), basis(1, d))   # [t_{01}, t_1] = t_0
    assert out[0] == 1 and sum(map(abs, out)) == 1
    out = bracket(alg, basis(4, d), basis(0, d))   # [t_{01}, t_0] = t_1
    assert out[1] == 1 and sum(map(abs, out)) == 1
    # spot entry c^0_{[01]1} = h_11 = 1
    assert alg.c(0, 4, 1) == 1


def test_p0_has_no_translation_curvature():
    sp = build_algebra("p_0(4)")
    alg = sp.ambient
    assert all(alg.c(K, a, c) == 0
               for a in range(4) for c in range(4) for K in range(4, 10))


def test_u1_abelian():
    alg = build_algebra("u1")
    assert bracket(alg, [F(3)], [F(5)]) == [0]
    assert coadjoint(alg, [F(3)], [F(5)]) == [0]


def test_coadjoint_table_lookup():
    alg = build_algebra("su2")
    # ad*_{t_0} t^2 = -c^2_{0k} t^k; su2 has c^2_{01} = 1
    out = coadjoint(alg, basis(0, 3), basis(2, 3))
    expected = [0] * 3
    for k in range(3):
        expected[k] = -alg.c(2, 0, k)
    assert out == expected


def test_coadjoint_pairing_identity_exact():
    rng = random.Random(3)
    alg = build_algebra("su2")
    for _ in range(100):
        xi = [F(rng.randint(-3, 3)) for _ in range(3)]
        al = [F(rng.randint(-3, 3)) for _ in range(3)]
        ze = [F(rng.randint(-3, 3)) for _ in range(3)]
        lhs = sum(a * z for a, z in zip(coadjoint(alg, xi, al), ze))
        rhs = sum(a * z for a, z in zip(al, bracket(alg, xi, ze)))
        assert lhs + rhs == 0


def test_exp_adjoint_identities():
    alg = build_algebra("su2")
    ad, ad_dual = exp_adjoint(alg, [0.0, 0.0, 0.0])
    assert all(abs(ad[i][j] - (1 if i == j else 0)) < 1e-15
               for i in range(3) for j in range(3))
    rng = random.Random(8)
    for _ in range(50):
        xi = [rng.uniform(-1, 1) for _ in range(3)]
        ad, ad_dual = exp_adjoint(alg, xi)
        a = [rng.uniform(-1, 1) for _ in range(3)]
        z = [rng.uniform(-1, 1) for _ in range(3)]
        lhs = sum(x * y for x, y in zip(
            [sum(ad_dual[i][j] * a[j] for j in range(3)) for i in range(3)],
            [sum(ad[i][j] * z[j] for j in range(3)) for i in range(3)]))
        assert abs(lhs - sum(x * y for x, y in zip(a, z))) <= 1e-12
        # inverse composition
        ad_neg, _ = exp_adjoint(alg, [-v for v in xi])
        comp = [[sum(ad[i][k] * ad_neg[k][j] for k in range(3))
                 for j in range(3)] for i in range(3)]
        assert all(abs(comp[i][j] - (1 if i == j else 0)) < 1e-12
                   for i in range(3) for j in range(3))


def test_dexp_right_abelian_and_zero():
    alg = build_algebra("u1")
    assert dexp_right(alg, [0.5], [2.0]) == [2.0]
    su2 = build_algebra("su2")
    out = dexp_right(su2, [0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
    assert out == [1.0, 2.0, 3.0]


def test_check_algebra_detects_corruption():
    alg = corrupt_algebra(build_algebra("su2"))
    assert check_algebra(alg)["jacobi_residual"] != 0


def test_corrupt_algebra_needs_a_bracket():
    # u1 has no bracket to break; an abelian R^2 gets a spurious one
    with pytest.raises(ValueError, match="1-dimensional"):
        corrupt_algebra(build_algebra("u1"))
    r2 = corrupt_algebra(LieAlgebra("r2", ["a", "b"], {}))
    assert r2.c(0, 0, 1) == 1


def test_killing_form_values():
    B = killing_form(build_algebra("su2"))
    assert B == [[-2, 0, 0], [0, -2, 0], [0, 0, -2]]
    assert killing_pairing(B, [F(1)] * 3) == -3
    Bu = killing_form(build_algebra("u1"))
    assert Bu == [[0]]
    sp = build_algebra("p_0(4)")
    Bp = killing_form(sp.ambient)
    assert all(Bp[a][j] == 0 for a in range(4) for j in range(10))


# -- kappa ---------------------------------------------------------------

def test_standard_kappa_entries():
    sp = build_algebra("p_1(4)")
    kap = build_kappa("standard", sp)
    pair12 = 4 + [(a, b) for a in range(4) for b in range(a + 1, 4)].index((1, 2))
    assert kap.get(pair12, 1, 2) == 1
    assert kap.get(pair12, 2, 1) == -1
    assert all(kap.get(a, b, c) == 0
               for a in sp.s_indices for b in range(4) for c in range(4))


def test_holst_limit_is_standard():
    sp = build_algebra("p_1(4)")
    std = build_kappa("standard", sp)
    near = build_kappa("holst", sp, gamma=F(10 ** 9))
    for (I, a, b), v in std.entries.items():
        assert abs(near.get(I, a, b) - v) <= F(2, 10 ** 9)


def test_holst_epsilon_component():
    sp = build_algebra("p_1(4)")
    kap = build_kappa("holst", sp, gamma=F(1))
    pair34 = 4 + [(a, b) for a in range(4) for b in range(a + 1, 4)].index((2, 3))
    # kappa_{[34]}^{12} = -eps^{12}_{34} = +1 in (-,+,+,+)
    assert kap.get(pair34, 0, 1) == 1


def test_holst_requires_dimension_four():
    sp = build_algebra("p_0(3)")
    with pytest.raises(ValueError):
        build_kappa("holst", sp, gamma=F(2))


def test_epsilon_double_contraction():
    T = epsilon_double_contraction(minkowski_diag(4))
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    dd = (1 if (a, b) == (c, d) else 0) - (1 if (a, b) == (d, c) else 0)
                    assert T[(a, b, c, d)] == -2 * dd
    TE = epsilon_double_contraction(euclidean_diag(4))
    assert TE[(0, 1, 0, 1)] == 2


def test_holst_kernel_factor_values():
    assert holst_kernel_factor(F(1), minkowski_diag(4)) == 2
    assert holst_kernel_factor(1j, [-1.0, 1.0, 1.0, 1.0]) == 0
    assert holst_kernel_factor(F(1), euclidean_diag(4)) == 0
    with pytest.raises(ValueError):
        holst_kernel_factor(0, minkowski_diag(4))


def test_kappa_kernel_ranks():
    sp = build_algebra("p_1(4)")
    assert kappa_kernel_rank(build_kappa("standard", sp)) == 6
    assert kappa_kernel_rank(build_kappa("holst", sp, gamma=F(2))) == 6
    assert kappa_kernel_rank(build_kappa("holst", sp, gamma=1j)) < 6


def test_kappa_invariance():
    sp = build_algebra("p_1(4)")
    assert kappa_invariance_residual(sp, build_kappa("standard", sp),
                                     samples=25, seed=1) <= 1e-9
    assert kappa_invariance_residual(sp, build_kappa("holst", sp, gamma=F(2)),
                                     samples=25, seed=2) <= 1e-9


@pytest.mark.parametrize("name", ["p_0(3)", "p_0(4)", "p_1(4)", "p_-1(4)"])
def test_kappa_ad_residual_is_exact(name):
    """The infinitesimal invariance check is exactly 0 for the standard and
    Holst kappa, and sees what the float group-level check sees."""
    sp = build_algebra(name)
    gammas = [F(2), F(-3, 7)] if sp.n == 4 else []
    for kap in [build_kappa("standard", sp)] + [build_kappa("holst", sp, gamma=g)
                                                for g in gammas]:
        assert kappa_ad_residual(sp, kap) == 0
    rng = random.Random(3)
    generic = KappaTensor(sp, {(I, a, b): F(rng.randint(-3, 3))
                               for I in range(sp.ambient.dim)
                               for a in range(sp.n) for b in range(a + 1, sp.n)},
                          "standard")
    assert kappa_ad_residual(sp, generic) > 0
    assert kappa_invariance_residual(sp, generic, samples=3, seed=1) > 1e-3


def test_lambda_constants():
    assert lambda_constant("gravity", n=4, k=F(1)) == 6
    assert lambda_constant("gravity", n=3, k=F(2)) == 6
    assert lambda_constant("gravity", n=5, k=F(0)) == 0
    assert lambda_constant("holst", k=F(1)) == 6
    su2 = build_algebra("su2")
    assert lambda_constant("kk", lambda0=F(1), algebra=su2,
                           k_diag=[F(1)] * 3) == F(1, 4)
