"""Spans and counts around crystalmelt's public functions, added from outside.

``Tracer.install`` wraps every public function defined in a ``crystalmelt.*``
module, plus ``TruncatedSeries.__mul__``, ``__rmul__`` and ``invert``. Modules
import each other's functions by name (``from .series import
det_division_free``), so every module attribute bound to a wrapped function is
rebound to its wrapper; ``uninstall`` puts the originals back. Nothing under
``src/`` is edited.

A span is ``[name, start, end, parent, job]``: the wrapped function's name as
``module.function``, ``perf_counter`` readings, the index of the enclosing span
(-1 at the top) and the label of the benchmark job that caused it. Spans stay
in memory until the caller writes them out. Enumeration entry points append
the chamber to the name (``enumeration.enumerate_z@theta2``).

A span's self time is its duration minus its direct children's durations.
Each span belongs to one layer (``LAYERS``, else the module name); enumeration
spans also count towards ``enumeration.<chamber>``.
"""

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "series.__mul__": "series.mul",
    "series.__rmul__": "series.mul",
    "series.invert": "series.invert",
    "series.det_division_free": "series.det",
    "series.toeplitz_det": "series.det",
    "series.binomial_factor": "products",
    "series.product_over_k": "products",
    "matrixmodel.c3_symbol": "matrixmodel.symbol",
    "matrixmodel.conifold_symbol": "matrixmodel.symbol",
    "matrixmodel.stabilized_toeplitz": "matrixmodel.toeplitz",
    "matrixmodel.prefactor_cn": "matrixmodel.prefactor",
    "lgv.walker_graph": "lgv.graph",
    "lgv.path_matrix": "lgv.path_matrix",
    "lgv.nonintersecting_bruteforce": "lgv.bruteforce",
    "lgv.profile_bijection_check": "lgv.bijection",
}

_ENUMERATION_ENTRIES = (
    "enumeration.enumerate_z",
    "enumeration.enumerate_z_transposed",
    "enumeration.enumerate_z_rows",
)
_WRAPPED_METHODS = ("__mul__", "__rmul__", "invert")


def layer_of(span_name):
    base = span_name.partition("@")[0]
    return LAYERS.get(base, base.split(".", 1)[0])


class Tracer:
    """Collects spans and counts for one traced pass at a time."""

    def __init__(self):
        self.job = None
        self._patched = []
        self._chamber_label = None
        self.reset()

    def reset(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    # -- installing ------------------------------------------------------

    def install(self, package):
        """Wrap the package's public functions and the three series methods."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        prefix = package.__name__ + "."
        modules = [package] + [m for n, m in sorted(sys.modules.items()) if n.startswith(prefix)]
        chambers = sys.modules[prefix + "chambers"]
        c3, conifold_index = chambers.c3_chamber(), chambers.conifold_index

        def chamber_label(spec):
            if spec == c3:
                return "c3"
            n = conifold_index(spec)
            return "other" if n is None else f"theta{n}"

        self._chamber_label = chamber_label
        wrappers = {}  # id of each original (all alive in their modules) -> wrapper
        for mod in modules[1:]:
            short = mod.__name__[len(prefix):]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(obj, f"{short}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        cls = sys.modules[prefix + "series"].TruncatedSeries
        for attr in _WRAPPED_METHODS:
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, f"series.{attr}"))

    def uninstall(self):
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched = []

    def _wrap(self, fn, name):
        before = _BEFORE.get(name)
        after = _AFTER.get(name, _count_products if name.startswith("products.") else None)
        tagged = name in _ENUMERATION_ENTRIES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            spans, stack = self.spans, self._stack
            span_name = f"{name}@{self._chamber_label(args[0])}" if tagged else name
            index = len(spans)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    # -- reading ---------------------------------------------------------

    def layer_times(self):
        """Self time per layer over the spans recorded since the last reset."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _job in spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _parent, _job), inner in zip(spans, covered):
            own = end - start - inner
            out[layer_of(name)] += own
            chamber = name.partition("@")[2]
            if chamber:
                out[f"enumeration.{chamber}"] += own
        return dict(out)


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name\tstart\tend\tparent\tjob\n")
        for name, start, end, parent, job in spans:
            fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{job}\n")


# -- counts taken at the span boundaries ------------------------------------


def _count_mul(counts, args, result):
    if result is NotImplemented:
        return
    a, b = args
    counts["series.mul.calls"] += 1
    counts["series.mul.pairs"] += len(a.terms) * (len(b.terms) if isinstance(b, type(a)) else 1)


def _count_det(counts, args, result):
    counts["series.det.calls"] += 1
    counts["series.det.order_sum"] += len(args[0])


def _count_invert(counts, args, result):
    counts["series.invert.calls"] += 1


def _count_toeplitz(counts, args, result):
    counts["matrixmodel.toeplitz.calls"] += 1
    counts["matrixmodel.toeplitz.sizes_tried"] += len(result.history)


def _count_graph(counts, args, result):
    counts["lgv.graph.edges"] += sum(len(heads) for heads in result.adjacency.values())


def _count_enumeration(counts, args, result):
    counts["enumeration.calls"] += 1
    counts["enumeration.terms_out"] += len(result.terms)


def _count_products(counts, args, result):
    counts["products.calls"] += 1


def _count_factors(tracer, args):
    """Wrap product_over_k's factor callable so each evaluation is counted."""
    factor = args[0]
    counts = tracer.counts

    def counted(k):
        counts["products.factors"] += 1
        return factor(k)

    return (counted,) + tuple(args[1:])


_BEFORE = {"series.product_over_k": _count_factors}
_AFTER = {
    "series.__mul__": _count_mul,
    "series.__rmul__": _count_mul,
    "series.invert": _count_invert,
    "series.det_division_free": _count_det,
    "matrixmodel.stabilized_toeplitz": _count_toeplitz,
    "lgv.walker_graph": _count_graph,
    **{name: _count_enumeration for name in _ENUMERATION_ENTRIES},
}
