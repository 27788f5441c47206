"""Small dense linear algebra over Fractions, and numeric helpers.

Everything here operates on lists of lists; sizes stay below ~120 so no
external dependency is warranted.  ``solve`` and ``mat_inverse`` run exact
Gaussian elimination; ``rank`` and ``mat_exp`` are numeric, with a 1e-12
pivot floor and a series tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from .scalars import _add, _mul

PIVOT_TOL = 1e-12


class SingularMatrixError(ArithmeticError):
    pass


def mat_mul(A, B):
    """A B.  Zero entries of A are skipped; each entry sums its terms in
    ascending k from the int 0, by ``_add`` and ``_mul``."""
    out = [[0] * len(B[0]) for _ in A]
    for row, orow in zip(A, out):
        for k, a in enumerate(row):
            if a:
                for j, b in enumerate(B[k]):
                    orow[j] = _add(orow[j], _mul(a, b))
    return out


def mat_vec(A, v):
    return [sum(A[i][k] * v[k] for k in range(len(v))) for i in range(len(A))]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, c):
    return [[c * a for a in row] for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


def identity(n, one=1):
    return [[one if i == j else 0 * one for j in range(n)] for i in range(n)]


def max_norm(A) -> float:
    return max((abs(x) for row in A for x in row), default=0)


def solve(A, rhs_cols: List[List]) -> List[List]:
    """Solve A X = B where B is given as a list of columns; returns columns.

    Pivots on the first nonzero entry and divides in ``Fraction``; float
    and complex entries, which would need partial pivoting, are rejected."""
    n = len(A)
    m = len(rhs_cols)
    aug = [list(A[i]) + [rhs_cols[j][i] for j in range(m)] for i in range(n)]
    if any(isinstance(x, (float, complex)) for row in aug for x in row):
        raise ValueError("an exact solve needs int or Fraction entries, not floats")
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise SingularMatrixError("singular system")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r == col:
                continue
            f = aug[r][col]
            if f != 0:
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [[aug[i][n + j] for i in range(n)] for j in range(m)]


def mat_inverse(A):
    n = len(A)
    cols = solve(A, [[1 if i == j else 0 for i in range(n)] for j in range(n)])
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def rank(A, tol: float = PIVOT_TOL) -> int:
    """Numeric rank via Gaussian elimination; complex entries allowed."""
    M = [list(row) for row in A]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    r = 0
    for col in range(cols):
        piv = None
        best = tol
        for i in range(r, rows):
            if abs(M[i][col]) > best:
                best = abs(M[i][col])
                piv = i
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1.0 / M[r][col] if not isinstance(M[r][col], complex) else 1 / M[r][col]
        M[r] = [x * inv for x in M[r]]
        for i in range(rows):
            if i != r and M[i][col] != 0:
                f = M[i][col]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        r += 1
        if r == rows:
            break
    return r


def mat_exp(A, tol: float = 1e-15, cap: int = 64):
    """Numeric matrix exponential by series.  Raises if a term does not get
    below ``tol`` within ``cap`` terms."""
    from .fields import TruncationError

    n = len(A)
    out = identity(n, 1.0)
    term = identity(n, 1.0)
    for k in range(1, cap + 1):
        term = mat_scale(mat_mul(term, A), 1.0 / k)
        out = mat_add(out, term)
        if max_norm(term) < tol:
            return out
    raise TruncationError(
        f"matrix exponential series not below {tol} after {cap} terms "
        f"(term norm {max_norm(term):.3e})")
