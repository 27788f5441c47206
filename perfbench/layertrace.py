"""Per-layer tracing of liecartan from outside the package.

Each layer is one module of the package.  ``LayerTracer.install`` replaces
the layer's entry points (public functions, the public methods and
arithmetic dunders of the classes it defines, and ``Form._finalize``,
which other layers call) by wrappers, and rebinds every module namespace
that imported one of them by name.  ``uninstall`` puts every original
object back.

A wrapped call that crosses from one layer into another opens a span
(name, layer, start, end, parent span, op id); a call that stays inside
its caller's layer only adds to the counters.  A layer's self time is the
time of its spans minus the time of their child spans, so ``fractions``
arithmetic is counted in the layer that calls it.  Spans are kept in
memory in flat arrays and written out by ``write_spans``.
"""

from __future__ import annotations

import array
import functools
import gzip
import inspect
import time
from typing import Dict, List, Tuple

LAYERS = ("suites", "gravity", "kk", "ym", "charts", "kappa", "connection",
          "algebra", "forms", "linalg", "fields", "scalars")

ROOT = -1                 # layer index of the calling benchmark
DUNDERS = {"__init__", "__call__", "__add__", "__radd__", "__sub__",
           "__rsub__", "__mul__", "__rmul__", "__neg__", "__truediv__"}
CROSS_LAYER_PRIVATE = {"Form._finalize"}

# Self time of spans entered through these forms entry points is split
# into forms.build_s and forms.eval_s.
FORMS_EVAL = {"Form.max_abs", "Form.evaluate", "decompose"}
FORMS_BUILD = {"wedge", "contracted_wedge", "exterior_d", "interior",
               "Form.__init__", "Form.zero", "Form.add_term", "Form._finalize",
               "Form.__add__", "Form.__sub__", "Form.scale", "one_form",
               "Coframe.one_form", "Coframe.minors", "CoframeMinors.__init__",
               "CoframeMinors.minor", "CoframeMinors.minor_form"}
FORMS_BUILT_OUTPUT = {"wedge", "contracted_wedge", "exterior_d", "interior"}
CAT_NONE, CAT_BUILD, CAT_EVAL = 0, 1, 2


def _selected_method(cls_name: str, name: str) -> bool:
    if name in DUNDERS:
        return True
    if f"{cls_name}.{name}" in CROSS_LAYER_PRIVATE:
        return True
    return not name.startswith("_")


def entry_points(package):
    """Yield (layer index, owner, attribute, value, qualified name) for every
    object the tracer wraps.  ``value`` is the attribute as stored on its
    owner (a function, or a static or class method)."""
    for li, layer in enumerate(LAYERS):
        mod = getattr(package, layer)
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                yield li, mod, name, obj, name
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for attr, val in list(vars(obj).items()):
                    func = getattr(val, "__func__", val)
                    if not inspect.isfunction(func):
                        continue
                    if _selected_method(obj.__name__, attr) or (
                            attr == "_eval" and layer == "fields"):
                        yield li, obj, attr, val, f"{name}.{attr}"


def discover(package) -> Dict[str, List[str]]:
    """Entry points the tracer wraps, per layer, as qualified names."""
    out = {layer: [] for layer in LAYERS}
    for li, _, _, _, qual in entry_points(package):
        out[LAYERS[li]].append(qual)
    return {layer: sorted(names) for layer, names in out.items()}


class LayerTracer:
    def __init__(self, package):
        self.package = package
        self.modules = [m for name, m in _package_modules(package)]
        self.keys: List[Tuple[int, str]] = []     # key -> (layer, name)
        self.calls = None
        self.self_ns = [0] * len(LAYERS)
        self.cat_ns = [0, 0, 0]
        self.jets_by_order = [0, 0, 0]
        self.poly_jet_misses = 0
        self.terms_out = 0
        self.matrix_ns = 0
        self.matrix_depth = 0
        self.op = 0
        self.frames = [[ROOT, 0, -1]]             # [layer, child ns, span id]
        self.span_key = array.array("i")
        self.span_parent = array.array("q")
        self.span_op = array.array("i")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self._restore: List[Tuple[object, str, object]] = []
        self.installed = False

    # -- counters ---------------------------------------------------------
    def calls_of(self, layer: str) -> int:
        li = LAYERS.index(layer)
        return sum(c for k, c in enumerate(self.calls) if self.keys[k][0] == li)

    def count(self, layer: str, name: str) -> int:
        li = LAYERS.index(layer)
        return sum(c for k, c in enumerate(self.calls)
                   if self.keys[k] == (li, name))

    def counters(self) -> dict:
        """Every count the tracer keeps; two runs of the same op repeat it."""
        out = {f"{LAYERS[l]}.{n}": c
               for (l, n), c in zip(self.keys, self.calls) if c}
        out.update({"jets_by_order": list(self.jets_by_order),
                    "poly_jet_misses": self.poly_jet_misses,
                    "terms_out": self.terms_out,
                    "spans": len(self.span_key)})
        return out

    def reset(self):
        self.calls = array.array("q", bytes(8 * len(self.keys)))
        self.self_ns = [0] * len(LAYERS)
        self.cat_ns = [0, 0, 0]
        self.jets_by_order = [0, 0, 0]
        self.poly_jet_misses = 0
        self.terms_out = self.matrix_ns = self.matrix_depth = 0
        for arr in (self.span_key, self.span_parent, self.span_op,
                    self.span_start, self.span_end):
            del arr[:]

    # -- installation -----------------------------------------------------
    def install(self):
        if self.installed:
            raise RuntimeError("tracer already installed")
        replaced: Dict[int, object] = {}
        for li, owner, attr, val, qual in entry_points(self.package):
            w = self._wrap(getattr(val, "__func__", val), li, qual)
            if isinstance(val, staticmethod):
                w = staticmethod(w)
            elif isinstance(val, classmethod):
                w = classmethod(w)
            self._set(owner, attr, val, w)
            if owner is getattr(self.package, LAYERS[li]):
                replaced[id(val)] = (val, w)
        # rebind names imported with ``from .x import y`` in any module
        for mod in self.modules:
            for name, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(mod, name, val, hit[1])
        self.reset()
        self.installed = True

    def uninstall(self):
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()
        self.installed = False

    def leftovers(self) -> List[str]:
        """Names in any package namespace still bound to a wrapper."""
        bad = []
        for mod in self.modules:
            for name, val in vars(mod).items():
                if getattr(val, "_layertrace", False):
                    bad.append(f"{mod.__name__}.{name}")
                elif inspect.isclass(val):
                    for attr, m in vars(val).items():
                        m = getattr(m, "__func__", m)
                        if getattr(m, "_layertrace", False):
                            bad.append(f"{mod.__name__}.{name}.{attr}")
        return sorted(set(bad))

    def _set(self, owner, name, orig, new):
        self._restore.append((owner, name, orig))
        setattr(owner, name, new)

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, fn, li, qual):
        key = len(self.keys)
        self.keys.append((li, qual))
        layer = LAYERS[li]
        hook = {("scalars", "Jet.__init__"): "jet_init",
                ("scalars", "Polynomial.jet"): "poly_jet",
                ("fields", "MatrixField.jets"): "matrix_jets"}.get((layer, qual))
        if layer == "forms" and qual in FORMS_BUILT_OUTPUT:
            hook = "terms_out"
        cat = CAT_NONE
        if layer == "forms":
            cat = CAT_EVAL if qual in FORMS_EVAL else (
                CAT_BUILD if qual in FORMS_BUILD else CAT_NONE)
        tr = self
        frames = self.frames
        clock = time.perf_counter_ns

        if inspect.isgeneratorfunction(fn):
            # the body runs lazily in the consumer's frame: count only
            def gen_wrapper(*a, **kw):
                tr.calls[key] += 1
                return fn(*a, **kw)
            return _mark(functools.wraps(fn)(gen_wrapper))

        def call(a, kw):
            top = frames[-1]
            if top[0] == li:
                return fn(*a, **kw)
            sid = len(tr.span_key)
            tr.span_key.append(key)
            tr.span_parent.append(top[2])
            tr.span_op.append(tr.op)
            tr.span_end.append(0)
            frame = [li, 0, sid]
            frames.append(frame)
            t0 = clock()
            tr.span_start.append(t0)
            try:
                return fn(*a, **kw)
            finally:
                t1 = clock()
                frames.pop()
                tr.span_end[sid] = t1
                dur = t1 - t0
                own = dur - frame[1]
                tr.self_ns[li] += own
                if cat:
                    tr.cat_ns[cat] += own
                frames[-1][1] += dur

        if hook is None:
            def wrapper(*a, **kw):
                tr.calls[key] += 1
                return call(a, kw)
        elif hook == "jet_init":
            def wrapper(*a, **kw):
                tr.calls[key] += 1
                order = a[2] if len(a) > 2 else kw["order"]
                tr.jets_by_order[order if order < 2 else 2] += 1
                return call(a, kw)
        elif hook == "poly_jet":
            def wrapper(*a, **kw):
                tr.calls[key] += 1
                before = sum(tr.jets_by_order)
                out = call(a, kw)
                if sum(tr.jets_by_order) != before:
                    tr.poly_jet_misses += 1
                return out
        elif hook == "matrix_jets":
            def wrapper(*a, **kw):
                tr.calls[key] += 1
                tr.matrix_depth += 1
                t0 = clock()
                try:
                    return call(a, kw)
                finally:
                    tr.matrix_depth -= 1
                    if tr.matrix_depth == 0:
                        tr.matrix_ns += clock() - t0
        elif hook == "terms_out":
            def wrapper(*a, **kw):
                tr.calls[key] += 1
                out = call(a, kw)
                tr.terms_out += sum(len(b) for b in out.comps.values())
                return out
        else:
            raise ValueError(f"unknown hook {hook!r}")
        return _mark(functools.wraps(fn)(wrapper))

    # -- results ----------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        m: Dict[str, float] = {}
        for li, layer in enumerate(LAYERS):
            m[f"{layer}.self_s"] = self.self_ns[li] / 1e9
            m[f"{layer}.calls"] = self.calls_of(layer)
        o0, o1, o2 = self.jets_by_order
        m["scalars.jets_o0"] = o0
        m["scalars.jets_o1"] = o1
        m["scalars.jets_o2plus"] = o2
        pj = self.count("scalars", "Polynomial.jet")
        m["scalars.poly_jet_calls"] = pj
        m["scalars.poly_jet_hit_ratio"] = _ratio(pj - self.poly_jet_misses, pj)
        lj = self.count("fields", "_Lazy.jet")
        # every memo miss of a lazy node runs its class's _eval
        misses = sum(c for (li, name), c in zip(self.keys, self.calls)
                     if LAYERS[li] == "fields" and name.endswith("._eval"))
        m["fields.lazy_nodes"] = self.count("fields", "_Lazy.__init__")
        m["fields.lazy_jet_calls"] = lj
        m["fields.lazy_hit_ratio"] = _ratio(lj - misses, lj)
        m["fields.matrix_jets_calls"] = self.count("fields", "MatrixField.jets")
        m["fields.matrix_s"] = self.matrix_ns / 1e9
        m["forms.build_s"] = self.cat_ns[CAT_BUILD] / 1e9
        m["forms.eval_s"] = self.cat_ns[CAT_EVAL] / 1e9
        m["forms.wedge_calls"] = self.count("forms", "wedge")
        m["forms.terms_out"] = self.terms_out
        m["linalg.solve_calls"] = self.count("linalg", "solve")
        m["algebra.c_calls"] = self.count("algebra", "LieAlgebra.c")
        return m

    def write_spans(self, path: str):
        """Gzipped tab-separated spans: id, parent span (-1 for the
        benchmark), op, layer, name, start and end in ns from the first."""
        t_base = self.span_start[0] if self.span_start else 0
        names = [f"{LAYERS[li]}\t{name}" for li, name in self.keys]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\top\tlayer\tname\tstart_ns\tend_ns\n")
            fh.writelines(
                f"{sid}\t{parent}\t{op}\t{names[key]}\t{t0 - t_base}\t{t1 - t_base}\n"
                for sid, (key, parent, op, t0, t1) in enumerate(zip(
                    self.span_key, self.span_parent, self.span_op,
                    self.span_start, self.span_end)))


def _mark(fn):
    fn._layertrace = True
    return fn


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _package_modules(package):
    import sys

    prefix = package.__name__ + "."
    return [(name, m) for name, m in sorted(sys.modules.items())
            if m is not None and (name == package.__name__ or name.startswith(prefix))]


if __name__ == "__main__":
    # print the entry points of the package under ./src, as recorded in
    # perfbench/entry_points.json
    import json
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    import liecartan

    for _layer in LAYERS:
        __import__(f"liecartan.{_layer}")
    print(json.dumps(discover(liecartan), indent=1))
