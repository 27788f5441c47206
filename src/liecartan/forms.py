"""Graded algebra of vector-valued differential forms on a chart.

A Form of degree p on an N-dimensional chart stores sparse coefficients
indexed by strictly increasing chart multi-indices; each coefficient is a
sparse slot-tensor of scalar fields.  Wedge, contracted wedge, interior
product and exterior derivative operate on this representation; minors of
a coframe and coefficient decompositions live here too.

A one-term bucket keeps its term; sums, scalings and wedges append on
canonical keys without ``sort_index``, and a wedge term's sign rides on
its product node.  ``sort_index``, ``merge_sign`` and the index masks
are pure functions of small index tuples, memoised in module-level dicts
that start empty.  A coframe builds each one-form once, at its probe
when it has one, so that its minors are ``Taylor`` arithmetic there;
``signed_minor`` gives the sorted minor and the sign to fold in.  A form
read only for its values is read at order 0 (``Form.at(probe, 0)``), so
its wedges skip the partials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .fields import (MatrixInverseField, Taylor, at_probe,
                     f_add, f_is_zero, f_mul, f_partial, f_scale, f_zero)
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


# memo tables of the index algebra; _MISS marks a miss, as None is a value
_SORTED, _MERGED, _MASKS, _MISS = {}, {}, {}, object()


def sort_index(idx: Sequence[int]) -> Optional[Tuple[Tuple[int, ...], int]]:
    """Sorted index tuple and permutation sign; None when an index repeats."""
    idx = tuple(idx)
    out = _SORTED.get(idx, _MISS)
    if out is _MISS:
        order = sorted(range(len(idx)), key=idx.__getitem__)
        out = _SORTED[idx] = None if len(set(idx)) != len(idx) else (
            tuple(sorted(idx)), perm_parity(order))
    return out


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
    I, J = tuple(I), tuple(J)
    out = _MERGED.get((I, J), _MISS)
    if out is _MISS:
        inv = sum(1 for i in I for j in J if i > j)
        out = _MERGED[I, J] = None if set(I) & set(J) else (
            tuple(sorted((*I, *J))), -1 if inv % 2 else 1)
    return out


class Form:
    def __init__(self, n: int, degree: int, slots: Sequence[Slot] = ()):
        self.n = n
        self.degree = degree
        self.slots = tuple(slots)
        self.comps: Dict[Tuple[int, ...], Dict[Tuple[int, ...], object]] = {}

    # -- construction ---------------------------------------------------
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
        self._append(key, tuple(slotkey), field)
        return self

    def _append(self, key: Tuple[int, ...], sk: Tuple[int, ...], field) -> None:
        """Accumulate ``field`` under a canonical index ``key``.

        A Taylor coefficient loses its partials along ``key``: ``d`` never
        reads them, and the dropped ones raise if read.
        """
        if isinstance(field, Taylor):
            field = field.without(_index_mask(key))
        bucket = self.comps.get(key) or self.comps.setdefault(key, {})
        cur = bucket.get(sk)
        if cur is None:
            bucket[sk] = field
        elif isinstance(cur, list):
            cur.append(field)
        else:
            bucket[sk] = [cur, field]

    def _finalize(self) -> "Form":
        """Collapse term lists into single fields; drop zero terms."""
        for key, bucket in list(self.comps.items()):
            for sk, val in list(bucket.items()):
                s = f_add(*val) if isinstance(val, list) else val
                if f_is_zero(s):
                    del bucket[sk]
                elif s is not val:
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
        return self._combine(other, False)

    def __sub__(self, other: "Form") -> "Form":
        return self._combine(other, True)

    def _combine(self, other: "Form", negate: bool) -> "Form":
        """self + other, or self - other, in one pass over their terms."""
        if (self.n, self.degree, self.slots) != (other.n, other.degree, other.slots):
            raise SlotMismatchError("form shape mismatch in addition")
        out = Form(self.n, self.degree, self.slots)
        for key, sk, fld in self.terms():
            out._append(key, sk, fld)
        for key, sk, fld in other.terms():
            out._append(key, sk, f_scale(fld, -1) if negate else fld)
        return out._finalize()

    def scale(self, c) -> "Form":
        out = Form(self.n, self.degree, self.slots)
        for key, sk, fld in self.terms():
            out._append(key, sk, f_scale(fld, c))
        return out._finalize()

    # -- evaluation -------------------------------------------------------
    def at(self, probe: tuple, order: int = 1) -> "Form":
        """A copy whose coefficients are read at ``probe`` to ``order``
        (``at_probe``): 0 when only its values are read."""
        out = Form(self.n, self.degree, self.slots)
        out.comps = {K: {sk: at_probe(f, probe, order) for sk, f in bucket.items()}
                     for K, bucket in self.comps.items()}
        return out

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

def _index_mask(idx: Tuple[int, ...]) -> int:
    mask = _MASKS.get(idx)
    if mask is None:
        mask = _MASKS[idx] = sum(1 << i for i in set(idx))
    return mask


# wedge and contracted_wedge visit the term pairs in nested-loop order (the
# terms of a, then those of b in stored order).  A pair whose index masks
# meet is skipped without calling merge_sign, which would reject it; the K
# merge_sign returns is canonical, so products skip add_term's checks.

def wedge(a: Form, b: Form) -> Form:
    if a.n != b.n:
        raise ValueError("chart dimension mismatch")
    out = Form(a.n, a.degree + b.degree, a.slots + b.slots)
    if out.degree > a.n:
        return out  # identically zero beyond top degree
    b_terms = [(_index_mask(J), J, kb, fb) for J, kb, fb in b.terms()]
    for I, ka, fa in a.terms():
        mask = _index_mask(I)
        for mb, J, kb, fb in b_terms:
            if mask & mb:
                continue
            K, sign = merge_sign(I, J)
            fld = f_mul(fa, fb, None if sign > 0 else -1)
            if not f_is_zero(fld):
                out._append(K, ka + kb, fld)
    return out._finalize()


def contracted_wedge(a: Form, b: Form, plan: Sequence[Tuple[int, int]]) -> Form:
    """C_{sigma,tau}(a ^ b): pair dual slots by the plan, wedge form parts."""
    pa, pb = [i for i, _ in plan], [j for _, j in plan]
    if len(set(pa)) != len(plan) or len(set(pb)) != len(plan):
        raise SlotMismatchError("pairing plan must be injective on both sides")
    for x, y in zip([a.slots[i] for i in pa], [b.slots[j] for j in pb]):
        if not x.pairs_with(y):
            raise SlotMismatchError(f"slots {x} and {y} are not in duality")
    keep_a = [i for i in range(len(a.slots)) if i not in pa]
    keep_b = [j for j in range(len(b.slots)) if j not in pb]
    out_slots = tuple(a.slots[i] for i in keep_a) + tuple(b.slots[j] for j in keep_b)
    out = Form(a.n, a.degree + b.degree, out_slots)
    if out.degree > a.n:
        return out
    # the terms of b by their paired slot keys, each group in stored order
    groups: Dict[Tuple[int, ...], list] = {}
    for J, kb, fb in b.terms():
        groups.setdefault(tuple(kb[j] for j in pb), []).append(
            (_index_mask(J), J, tuple(kb[j] for j in keep_b), fb))
    for I, ka, fa in a.terms():
        group = groups.get(tuple(ka[i] for i in pa))
        if group is None:
            continue
        mask = _index_mask(I)
        head = tuple(ka[i] for i in keep_a)
        for mb, J, tail, fb in group:
            if mask & mb:
                continue
            K, sign = merge_sign(I, J)
            fld = f_mul(fa, fb, None if sign > 0 else -1)
            if not f_is_zero(fld):
                out._append(K, head + tail, fld)
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
        out.add_term((k,), (), _as_field(c, n))
    return out._finalize()


def _as_field(c, n: int):
    if hasattr(c, "value"):
        return c
    return Polynomial.constant(c, n)


# ---------------------------------------------------------------------------
# coframes and minors
# ---------------------------------------------------------------------------

class SingularCoframeError(ArithmeticError):
    pass


class Coframe:
    """N independent 1-forms e^A = sum_k E[A][k] dx^k on an N-chart, read
    at the one point ``probe``.

    A coframe with a probe is inverted there when built, which certifies
    that it is not singular there, and builds its forms and minors from
    ``Taylor`` numbers there; ``entries`` are kept as given, and the
    inverse is a lazy node.
    One without gives symbolic forms and minors, but no inverse and no
    decomposition.
    """

    def __init__(self, entries: List[List[object]], probe: Optional[Tuple] = None):
        self.N = len(entries)
        self.entries = [[_as_field(c, self.N) for c in row] for row in entries]
        self.probe = None if probe is None else tuple(probe)
        self._inv: Optional[MatrixInverseField] = None
        self._minors: Optional["CoframeMinors"] = None
        self._ones: Dict[int, Form] = {}
        if probe is not None:
            self.inverse()

    def one_form(self, A: int) -> Form:
        """e^A, built once; callers must not mutate it.  With a probe, its
        coefficients are the entries read there (``at_probe``)."""
        if A not in self._ones:
            pt, row = self.probe, self.entries[A]
            self._ones[A] = one_form(self.N, row if pt is None else
                                     [at_probe(c, pt) for c in row])
        return self._ones[A]

    def inverse(self) -> List[List]:
        """The inverse of the coframe matrix at the probe: the inverse
        field's memoised value matrix; callers must not mutate it."""
        if self.probe is None:
            raise ValueError("inverse needs a coframe built with a probe")
        try:
            return self.inverse_field().value(self.probe)
        except linalg.SingularMatrixError as exc:
            raise SingularCoframeError(f"coframe singular at {self.probe}") from exc

    def inverse_field(self) -> MatrixInverseField:
        """Fields V with sum_k E[A][k] V[k][B] = delta, i.e. V = E^-1."""
        if self._inv is None:
            self._inv = MatrixInverseField(self.entries)
        return self._inv

    def minors(self) -> "CoframeMinors":
        if self._minors is None:
            self._minors = CoframeMinors([self.one_form(A) for A in range(self.N)])
        return self._minors


class CoframeMinors:
    """Codegree-0/1/2/3 minor family of the one-forms e^0..e^(N-1) of a
    coframe, built via the eps symbol; each contiguous wedge range
    e^i ^ .. ^ e^j is built the first time a minor reads it."""

    def __init__(self, ones: Sequence[Form]):
        self.N = len(ones)
        self._ones = list(ones)
        self._ranges: Dict[Tuple[int, int], Form] = {}
        self._complements: Dict[Tuple[int, ...], Form] = {}

    def _range(self, i: int, j: int) -> Form:
        """e^i ^ e^(i+1) ^ .. ^ e^j, built once."""
        if i == j:
            return self._ones[i]
        out = self._ranges.get((i, j))
        if out is None:
            out = self._ranges[(i, j)] = wedge(self._range(i, j - 1), self._ones[j])
        return out

    @property
    def top(self) -> Form:
        """e^(N) = e^0 ^ .. ^ e^(N-1)."""
        return self._range(0, self.N - 1)

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
            acc = Form(self.N, 0).add_term((), (), Polynomial.constant(1, self.N))
        else:
            acc = self._range(*segments[0])
            for seg in segments[1:]:
                acc = wedge(acc, self._range(*seg))
        self._complements[skip] = acc
        return acc

    def signed_minor(self, idx: Sequence[int]) -> Tuple[Form, int]:
        """(m, s) with e^{(N-k)}_{idx} = s m, m the minor of sorted idx."""
        canon = sort_index(idx)
        if canon is None:
            return Form(self.N, self.N - len(idx)), 1
        key, sign = canon
        if len(key) > 3:
            raise ValueError("minors are provided down to codegree 3")
        return self._complement_wedge(key), sign * perm_parity_for_front(key, self.N)

    def minor(self, idx: Sequence[int]) -> Form:
        """e^{(N-k)}_{idx}; antisymmetric in idx, idx need not be sorted."""
        comp, sign = self.signed_minor(idx)
        return comp if sign > 0 else comp.scale(-1)

    def minor_form(self, k: int, slot: Slot) -> Form:
        """Slotted family e^{(N-k)}_{V..V} as one Form with k dual slots."""
        return cominor_rows(self, {idx + idx: 1 for idx in
                                   itertools.permutations(range(self.N), k)},
                            (slot.dual_slot(),) * k, k)


def perm_parity_for_front(front: Sequence[int], N: int) -> int:
    """Parity of the permutation (front..., complement...) of 0..N-1."""
    rest = [x for x in range(N) if x not in front]
    return perm_parity(list(front) + rest)


# ---------------------------------------------------------------------------
# decompositions at the coframe's probe
# ---------------------------------------------------------------------------

class UnsupportedDegreeError(ValueError):
    pass


def decompose(form: Form, coframe: Coframe, mode: str):
    """Coefficients of ``form`` in the coframe basis at the coframe's probe.

    ``by-coframe`` handles degrees 1 and 2 and returns alpha_A / alpha_AB,
    from the coframe's memoised inverse; ``by-cominors`` handles codegrees
    1..3 and returns alpha^A etc.  Raises for other degrees.
    """
    if coframe.probe is None:
        raise ValueError("decompose needs a coframe built with a probe")
    N = coframe.N
    point = coframe.probe
    comp_vals: Dict[Tuple[int, ...], Dict[Tuple[int, ...], object]] = {}
    for key, sk, fld in form.terms():
        comp_vals.setdefault(key, {})[sk] = fld.value(point)

    slot_keys = _slot_keyspace(form)

    if mode == "by-coframe":
        V = coframe.inverse()
        if form.degree == 1:
            out = {}
            for sk in slot_keys:
                chart = [comp_vals.get((k,), {}).get(sk, 0) for k in range(N)]
                out[sk] = [sum(chart[k] * V[k][A] for k in range(N)) for A in range(N)]
            return _unwrap(out, form)
        if form.degree == 2:
            # zero chart and V entries are skipped, keeping the term order;
            # the start value keeps an all-zero coefficient a Fraction
            zero = Fraction(0)
            out = {}
            for sk in slot_keys:
                chart = [[0] * N for _ in range(N)]
                for key, bucket in comp_vals.items():
                    if sk in bucket:
                        k, l = key
                        chart[k][l] = bucket[sk]
                        chart[l][k] = -bucket[sk]
                nz = [(k, l, c) for k in range(N) for l, c in enumerate(chart[k])
                      if c]
                frame = [[sum((c * V[k][A] * V[l][B] for k, l, c in nz
                               if V[k][A] and V[l][B]), zero)
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
            sol = linalg.solve(A, [rhs])[0]
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


def cominor_rows(minors: CoframeMinors, rows: Dict[Tuple[int, ...], object],
                 slots: Sequence[Slot], k: int) -> Form:
    """sum c e^{(N-k)}_{idx} in slot component sk, over ``rows`` {sk + idx: c}.

    A value c scales the minor, a unit one sharing its terms; a field c
    multiplies it.  Zero coefficients are skipped; rows are added in the
    order given.
    """
    out = Form(minors.N, minors.N - k, slots)
    s = len(slots)
    for key, c in rows.items():
        field = hasattr(c, "value")
        if f_is_zero(c) if field else not c:
            continue
        m, sign = minors.signed_minor(key[s:])
        if not field and sign < 0:
            c = -c
        for K, _, mf in m.terms():
            fld = (f_mul(c, mf, None if sign > 0 else -1) if field
                   else mf if c == 1 else f_scale(mf, c))
            out.add_term(K, key[:s], fld)
    return out._finalize()
