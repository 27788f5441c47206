"""Graded algebra of vector-valued differential forms on a chart.

A Form of degree p on an N-dimensional chart stores sparse coefficients
indexed by strictly increasing chart multi-indices; each coefficient is a
sparse slot-tensor of scalar fields.  Wedge, contracted wedge, interior
product and exterior derivative operate on this representation; minors of
a coframe and coefficient decompositions live here too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .fields import (MatrixField, MatrixInverseField, f_add, f_is_zero, f_mul,
                     f_partial, f_scale, f_zero)
from .scalars import Polynomial


@dataclass(frozen=True)
class Slot:
    """A value-space slot: named space, dimension, and duality flag."""

    space: str
    dim: int
    dual: bool = False

    def dual_slot(self) -> "Slot":
        return Slot(self.space, self.dim, not self.dual)

    def pairs_with(self, other: "Slot") -> bool:
        return (self.space == other.space and self.dim == other.dim
                and self.dual != other.dual)


class SlotMismatchError(TypeError):
    pass


def sort_index(idx: Sequence[int]) -> Optional[Tuple[Tuple[int, ...], int]]:
    """Sorted index tuple and permutation sign; None when an index repeats."""
    idx = tuple(idx)
    if len(set(idx)) != len(idx):
        return None
    key = tuple(sorted(idx))
    if key == idx:
        return key, 1
    order = sorted(range(len(idx)), key=idx.__getitem__)
    return key, perm_parity(order)


def perm_parity(perm: Sequence[int]) -> int:
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


def merge_sign(I: Sequence[int], J: Sequence[int]) -> Optional[Tuple[Tuple[int, ...], int]]:
    """Sign of sorting the concatenation of two increasing index tuples.

    Within each tuple the order is already sorted, so the sign counts only
    the pairs (i in I, j in J) with i > j.  None when the tuples meet.
    """
    inv = 0
    for i in I:
        for j in J:
            if i > j:
                inv += 1
            elif i == j:
                return None
    return tuple(sorted((*I, *J))), -1 if inv % 2 else 1


class Form:
    def __init__(self, n: int, degree: int, slots: Sequence[Slot] = ()):
        self.n = n
        self.degree = degree
        self.slots = tuple(slots)
        self.comps: Dict[Tuple[int, ...], Dict[Tuple[int, ...], object]] = {}

    # -- construction ---------------------------------------------------
    @staticmethod
    def zero(n: int, degree: int, slots: Sequence[Slot] = ()) -> "Form":
        return Form(n, degree, slots)

    def add_term(self, idx: Sequence[int], slotkey: Sequence[int], field) -> "Form":
        if f_is_zero(field):
            return self
        canon = sort_index(idx)
        if canon is None:
            return self
        key, sign = canon
        if len(key) != self.degree:
            raise ValueError("index arity does not match form degree")
        if len(slotkey) != len(self.slots):
            raise SlotMismatchError("slot key arity does not match slot list")
        if sign < 0:
            field = f_scale(field, -1)
        bucket = self.comps.setdefault(key, {})
        sk = tuple(slotkey)
        cur = bucket.get(sk)
        if cur is None:
            bucket[sk] = [field]
        elif isinstance(cur, list):
            cur.append(field)
        else:
            bucket[sk] = [cur, field]
        return self

    def _finalize(self) -> "Form":
        """Collapse accumulated term lists into single fields."""
        for key, bucket in list(self.comps.items()):
            for sk, val in list(bucket.items()):
                if isinstance(val, list):
                    s = f_add(*val)
                    if f_is_zero(s):
                        del bucket[sk]
                    else:
                        bucket[sk] = s
            if not bucket:
                del self.comps[key]
        return self

    def get(self, idx: Sequence[int], slotkey: Sequence[int] = ()):
        canon = sort_index(idx)
        if canon is None:
            return f_zero(self.n)
        key, sign = canon
        field = self.comps.get(key, {}).get(tuple(slotkey))
        if field is None:
            return f_zero(self.n)
        return field if sign > 0 else f_scale(field, -1)

    def terms(self):
        for key, bucket in self.comps.items():
            for sk, field in bucket.items():
                yield key, sk, field

    def component(self, idx: int) -> "Form":
        """Slot-less form of the value component ``idx`` of a one-slot form,
        with its terms in increasing chart-index order."""
        out = Form(self.n, self.degree)
        for K in sorted(self.comps):
            fld = self.comps[K].get((idx,))
            if fld is not None:
                out.add_term(K, (), fld)
        return out._finalize()

    # -- linear structure -------------------------------------------------
    def __add__(self, other: "Form") -> "Form":
        if (self.n, self.degree, self.slots) != (other.n, other.degree, other.slots):
            raise SlotMismatchError("form shape mismatch in addition")
        out = Form(self.n, self.degree, self.slots)
        for key, sk, fld in self.terms():
            out.add_term(key, sk, fld)
        for key, sk, fld in other.terms():
            out.add_term(key, sk, fld)
        return out._finalize()

    def __sub__(self, other: "Form") -> "Form":
        return self + other.scale(-1)

    def scale(self, c) -> "Form":
        out = Form(self.n, self.degree, self.slots)
        for key, sk, fld in self.terms():
            out.add_term(key, sk, f_scale(fld, c))
        return out._finalize()

    # -- evaluation -------------------------------------------------------
    def evaluate(self, point, order: int = 0):
        return {(key, sk): fld.jet(tuple(point), order)
                for key, sk, fld in self.terms()}

    def max_abs(self, point) -> object:
        point = tuple(point)
        worst = 0
        for _, _, fld in self.terms():
            v = abs(fld.value(point))
            if v > worst:
                worst = v
        return worst

    def snapshot(self, point) -> dict:
        """JSON-able view of the form at a point, for failure diagnostics."""
        comps = {}
        pt = tuple(point)
        for key, sk, fld in self.terms():
            v = fld.value(pt)
            if v != 0:
                comps[f"{list(key)}|{list(sk)}"] = str(v)
        return {
            "chart_dim": self.n,
            "degree": self.degree,
            "slots": [s.space + ("*" if s.dual else "") for s in self.slots],
            "point": [str(x) for x in point],
            "components": comps,
        }

    def __repr__(self):
        return (f"Form(n={self.n}, degree={self.degree}, "
                f"slots={[s.space + ('*' if s.dual else '') for s in self.slots]}, "
                f"terms={sum(1 for _ in self.terms())})")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def wedge(a: Form, b: Form) -> Form:
    if a.n != b.n:
        raise ValueError("chart dimension mismatch")
    out = Form(a.n, a.degree + b.degree, a.slots + b.slots)
    if out.degree > a.n:
        return out  # identically zero beyond top degree
    for I, ka, fa in a.terms():
        for J, kb, fb in b.terms():
            merged = merge_sign(I, J)
            if merged is None:
                continue
            K, sign = merged
            fld = f_mul(fa, fb)
            out.add_term(K, ka + kb, fld if sign > 0 else f_scale(fld, -1))
    return out._finalize()


def contracted_wedge(a: Form, b: Form, plan: Sequence[Tuple[int, int]]) -> Form:
    """C_{sigma,tau}(a ^ b): pair dual slots by the plan, wedge form parts."""
    sa = [a.slots[i] for i, _ in plan]
    sb = [b.slots[j] for _, j in plan]
    if len({i for i, _ in plan}) != len(plan) or len({j for _, j in plan}) != len(plan):
        raise SlotMismatchError("pairing plan must be injective on both sides")
    for x, y in zip(sa, sb):
        if not x.pairs_with(y):
            raise SlotMismatchError(f"slots {x} and {y} are not in duality")
    keep_a = [i for i in range(len(a.slots)) if i not in {i for i, _ in plan}]
    keep_b = [j for j in range(len(b.slots)) if j not in {j for _, j in plan}]
    out_slots = tuple(a.slots[i] for i in keep_a) + tuple(b.slots[j] for j in keep_b)
    out = Form(a.n, a.degree + b.degree, out_slots)
    if out.degree > a.n:
        return out
    pa = [i for i, _ in plan]
    pb = [j for _, j in plan]
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


def interior(direction, a: Form) -> Form:
    """Interior product; ``direction`` is a chart index or a vector."""
    out = Form(a.n, max(a.degree - 1, 0), a.slots)
    if a.degree == 0:
        return out
    if isinstance(direction, int):
        vec = [0] * a.n
        vec[direction] = 1
    else:
        vec = list(direction)
    for K, sk, fld in a.terms():
        for t, k in enumerate(K):
            if vec[k] == 0:
                continue
            J = K[:t] + K[t + 1:]
            c = vec[k] if t % 2 == 0 else -vec[k]
            out.add_term(J, sk, f_scale(fld, c))
    return out._finalize()


def exterior_d(a: Form) -> Form:
    out = Form(a.n, a.degree + 1, a.slots)
    if out.degree > a.n:
        return out
    for K, sk, fld in a.terms():
        for j in range(a.n):
            if j in K:
                continue
            out.add_term((j,) + K, sk, f_partial(fld, j))
    return out._finalize()


def one_form(n: int, coeffs: Sequence) -> Form:
    out = Form(n, 1)
    for k, c in enumerate(coeffs):
        if not f_is_zero(_as_field(c, n)):
            out.add_term((k,), (), _as_field(c, n))
    return out._finalize()


def _as_field(c, n: int):
    if hasattr(c, "jet"):
        return c
    return Polynomial.constant(c, n)


# ---------------------------------------------------------------------------
# coframes and minors
# ---------------------------------------------------------------------------

class SingularCoframeError(ArithmeticError):
    pass


class Coframe:
    """N independent 1-forms e^A = sum_k E[A][k] dx^k on an N-chart."""

    def __init__(self, entries: List[List[object]], probes: Sequence[Tuple] = (),
                 exact: bool = True):
        self.N = len(entries)
        self.entries = [[_as_field(c, self.N) for c in row] for row in entries]
        self.exact = exact
        self.probes = [tuple(p) for p in probes]
        self._inv: Optional[MatrixField] = None
        self._minors: Optional["CoframeMinors"] = None
        for p in self.probes:
            self.certify(p)

    def one_form(self, A: int) -> Form:
        return one_form(self.N, self.entries[A])

    def matrix_at(self, point) -> List[List]:
        point = tuple(point)
        return [[f.value(point) for f in row] for row in self.entries]

    def certify(self, point):
        try:
            linalg.mat_inverse(self.matrix_at(point), self.exact)
        except linalg.SingularMatrixError as exc:
            raise SingularCoframeError(f"coframe singular at {point}") from exc

    def inverse_field(self) -> MatrixField:
        """Fields V with sum_k E[A][k] V[k][B] = delta, i.e. V = E^-1."""
        if self._inv is None:
            self._inv = MatrixInverseField(self.entries, exact=self.exact)
        return self._inv

    def minors(self) -> "CoframeMinors":
        if self._minors is None:
            self._minors = CoframeMinors(self)
        return self._minors


class CoframeMinors:
    """Codegree-0/1/2/3 minor family of a coframe, built via the eps symbol."""

    def __init__(self, coframe: Coframe):
        self.coframe = coframe
        N = coframe.N
        self.N = N
        ones = [coframe.one_form(A) for A in range(N)]
        # contiguous wedge ranges for cheap complements
        self._ranges: Dict[Tuple[int, int], Form] = {}
        self._complements: Dict[Tuple[int, ...], Form] = {}
        for i in range(N):
            acc = ones[i]
            self._ranges[(i, i)] = acc
            for j in range(i + 1, N):
                acc = wedge(acc, ones[j])
                self._ranges[(i, j)] = acc
        self.top = self._ranges[(0, N - 1)]

    def _complement_wedge(self, skip: Tuple[int, ...]) -> Form:
        cached = self._complements.get(skip)
        if cached is not None:
            return cached
        segments = []
        prev = 0
        for s in skip:
            if prev <= s - 1:
                segments.append((prev, s - 1))
            prev = s + 1
        if prev <= self.N - 1:
            segments.append((prev, self.N - 1))
        if not segments:
            acc = Form(self.N, 0)
            acc.add_term((), (), Polynomial.constant(1, self.N))
            acc._finalize()
        else:
            acc = self._ranges[segments[0]]
            for seg in segments[1:]:
                acc = wedge(acc, self._ranges[seg])
        self._complements[skip] = acc
        return acc

    def minor(self, idx: Sequence[int]) -> Form:
        """e^{(N-k)}_{idx}; antisymmetric in idx, idx need not be sorted."""
        canon = sort_index(idx)
        if canon is None:
            return Form(self.N, self.N - len(idx))
        key, sign = canon
        if len(key) > 3:
            raise ValueError("minors are provided down to codegree 3")
        comp = self._complement_wedge(key)
        parity = perm_parity_for_front(key, self.N)
        total = sign * parity
        return comp if total > 0 else comp.scale(-1)

    def minor_form(self, k: int, slot: Slot) -> Form:
        """Slotted family e^{(N-k)}_{V..V} as one Form with k dual slots."""
        slots = tuple(slot.dual_slot() for _ in range(k))
        out = Form(self.N, self.N - k, slots)
        for idx in itertools.permutations(range(self.N), k):
            m = self.minor(idx)
            for K, _, fld in m.terms():
                out.add_term(K, idx, fld)
        return out._finalize()


def perm_parity_for_front(front: Sequence[int], N: int) -> int:
    """Parity of the permutation (front..., complement...) of 0..N-1."""
    rest = [x for x in range(N) if x not in front]
    return perm_parity(list(front) + rest)


# ---------------------------------------------------------------------------
# decompositions at probe points
# ---------------------------------------------------------------------------

class UnsupportedDegreeError(ValueError):
    pass


def decompose(form: Form, coframe: Coframe, mode: str, point, exact: bool = True):
    """Coefficients of ``form`` in the coframe basis at one probe point.

    ``by-coframe`` handles degrees 1 and 2 and returns alpha_A / alpha_AB;
    ``by-cominors`` handles codegrees 1..3 and returns alpha^A etc.  Raises
    for other degrees.
    """
    N = coframe.N
    point = tuple(point)
    comp_vals: Dict[Tuple[int, ...], Dict[Tuple[int, ...], object]] = {}
    for key, sk, fld in form.terms():
        comp_vals.setdefault(key, {})[sk] = fld.value(point)

    slot_keys = _slot_keyspace(form)

    if mode == "by-coframe":
        E = coframe.matrix_at(point)
        V = linalg.mat_inverse(E, exact)
        if form.degree == 1:
            out = {}
            for sk in slot_keys:
                chart = [comp_vals.get((k,), {}).get(sk, 0) for k in range(N)]
                out[sk] = [sum(chart[k] * V[k][A] for k in range(N)) for A in range(N)]
            return _unwrap(out, form)
        if form.degree == 2:
            # zero chart entries are skipped; the start value keeps an
            # all-zero coefficient in the backend's number type
            zero = Fraction(0) if exact else 0.0
            out = {}
            for sk in slot_keys:
                chart = [[0] * N for _ in range(N)]
                for key, bucket in comp_vals.items():
                    if sk in bucket:
                        k, l = key
                        chart[k][l] = bucket[sk]
                        chart[l][k] = -bucket[sk]
                frame = [[sum((chart[k][l] * V[k][A] * V[l][B]
                               for k in range(N) for l in range(N)
                               if chart[k][l] != 0), zero)
                          for B in range(N)] for A in range(N)]
                out[sk] = frame
            return _unwrap(out, form)
        raise UnsupportedDegreeError("by-coframe supports degrees 1 and 2")

    if mode == "by-cominors":
        codeg = N - form.degree
        if codeg not in (1, 2, 3):
            raise UnsupportedDegreeError("by-cominors supports codegrees 1..3")
        minors = coframe.minors()
        basis = list(itertools.combinations(range(N), codeg))
        rows = list(itertools.combinations(range(N), form.degree))
        mat_cols = []
        for b in basis:
            m = {key: fld.value(point) for key, _, fld in minors.minor(b).terms()}
            mat_cols.append([m.get(row, 0) for row in rows])
        A = [[mat_cols[c][r] for c in range(len(basis))] for r in range(len(rows))]
        out = {}
        for sk in slot_keys:
            rhs = [comp_vals.get(row, {}).get(sk, 0) for row in rows]
            sol = linalg.solve(A, [rhs], exact)[0]
            out[sk] = dict(zip(basis, sol))
        return _unwrap(out, form)

    raise ValueError(f"unknown decomposition mode {mode!r}")


def _slot_keyspace(form: Form):
    if not form.slots:
        return [()]
    ranges = [range(s.dim) for s in form.slots]
    return [tuple(k) for k in itertools.product(*ranges)]


def _unwrap(out, form: Form):
    return out[()] if not form.slots else out


def cominor_rows(minors: CoframeMinors, rows: Dict[Tuple[int, int], object],
                 slot: Slot) -> Form:
    """sum c e^{(N-1)}_U in slot component i, over ``rows`` {(i, U): c}.

    Zero coefficients are skipped; terms are added in the order given.
    """
    out = Form(minors.N, minors.N - 1, (slot,))
    for (i, U), c in rows.items():
        if c == 0:
            continue
        for K, _, mf in minors.minor((U,)).terms():
            out.add_term(K, (i,), f_scale(mf, c))
    return out._finalize()
