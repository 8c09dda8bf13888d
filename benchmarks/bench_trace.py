"""Per-layer spans around the public functions of the covertree modules.

``Tracer.installed()`` replaces module attributes with timing wrappers and puts
the originals back on exit; the library's source is not touched.  Because the
modules call each other (and themselves) through module globals, the wrappers
also see calls made inside the library.  Spans are kept in memory and written
out by ``Tracer.write``; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import statistics
from contextlib import contextmanager
from time import perf_counter

from covertree import analysis, cli, cover, graph_core, spectral

MODULES = {"graph_core": graph_core, "spectral": spectral, "cover": cover,
           "analysis": analysis, "cli": cli}

WRAPPED = {
    "graph_core": ("classify", "line_graph", "load_graph"),
    "spectral": ("vertex_laplacian", "edge_laplacian", "theorem_laplacian", "eig_sym",
                 "fourier_coefficients", "rate_prediction", "radial_series"),
    "cover": ("arc_vertex_sums", "arc_edge_sums", "arc_vertex_count", "arc_edge_count",
              "arc_average_transfer", "arc_vertex_layers", "arc_edge_layers", "arc_vertices",
              "arc_edges", "sphere_vertices", "sphere_edges", "tube_vertices", "tube_edges",
              "horocycle_subset", "set_average"),
    "analysis": ("deviation_series", "envelope_series", "envelope_check", "bound_check",
                 "fit_rate", "check_doob_condition", "check_lemma_gap",
                 "check_sphere_decomposition"),
    "cli": ("main", "generic_field"),
}

TRANSFER = {"cover.arc_vertex_sums", "cover.arc_edge_sums"}
COUNT = {"cover.arc_vertex_count", "cover.arc_edge_count"}
ENUMERATION = {"cover.arc_vertex_layers", "cover.arc_edge_layers", "cover.arc_vertices",
               "cover.arc_edges", "cover.sphere_vertices", "cover.sphere_edges",
               "cover.tube_vertices", "cover.tube_edges", "cover.horocycle_subset"}
LAPLACIAN = {"spectral.vertex_laplacian", "spectral.edge_laplacian"}
CHECKS = {"analysis.envelope_check", "analysis.bound_check", "analysis.fit_rate"}


def _digest(matrix):
    return hashlib.blake2b(matrix.tobytes(), digest_size=16).hexdigest()


def _transfer_info(args, kwargs, result):
    g = args[0]
    steps = args[3] if len(args) > 3 else kwargs["max_radius"]
    return {"steps": steps, "halfedge_steps": steps * g.half_edge_count}


def _elements(args, kwargs, result):
    return {"elements": len(result)}


OBSERVERS = {name: _transfer_info for name in TRANSFER}
OBSERVERS.update({name: _elements for name in ENUMERATION})
OBSERVERS.update({name: (lambda a, k, res: {"key": _digest(res.matrix)}) for name in LAPLACIAN})
OBSERVERS["spectral.eig_sym"] = lambda a, k, res: {"key": _digest(a[0].matrix),
                                                   "order": a[0].size}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run_id", "info")

    def __init__(self, id, name, start, end, parent, run_id, info=None):
        self.id, self.name, self.start, self.end = id, name, start, end
        self.parent, self.run_id, self.info = parent, run_id, info or {}

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans; ``run_id`` tags the spans of one operation."""

    def __init__(self):
        self.spans = []
        self.run_id = None
        self._stack = []
        self._ids = itertools.count()

    def _open(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(next(self._ids), name, 0.0, 0.0, parent, self.run_id)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span):
        span.end = perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def _observe(self, span, args, kwargs, result):
        observer = OBSERVERS.get(span.name)
        if observer is not None:
            span.info = observer(args, kwargs, result)

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)   # a generator runs nothing until consumed
                while True:
                    span = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    self._observe(span, args, kwargs, item)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            self._observe(span, args, kwargs, result)
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every function in WRAPPED for the duration of the block."""
        originals = []
        try:
            for mod_name, names in WRAPPED.items():
                module = MODULES[mod_name]
                for fn_name in names:
                    fn = getattr(module, fn_name)
                    originals.append((module, fn_name, fn))
                    setattr(module, fn_name, self._wrap(f"{mod_name}.{fn_name}", fn))
            yield self
        finally:
            for module, fn_name, fn in originals:
                setattr(module, fn_name, fn)

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.run_id]) + "\n")


# --- span arithmetic ---

def self_times(spans):
    """Span id -> duration minus the summed durations of its direct children."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child.get(s.id, 0.0) for s in spans}


def outermost(spans, names):
    """Spans named in ``names`` that have no ancestor named in ``names``."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and by_id[p].name not in names:
            p = by_id[p].parent
        if p is None:
            out.append(s)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, setup_spans, passes, wall, checks_recorded, overhead):
    """Per-layer metrics per traced pass.

    ``spans`` are those of ``passes`` traced passes whose operation times sum to
    ``wall``; ``setup_spans`` come from the traced set-up.  Ratios with an empty
    base read 0.
    """
    selfs = self_times(spans)

    def named(names):
        return [s for s in spans if s.name in names]

    def calls(names):
        return len(outermost(spans, names)) / passes

    def total(names):
        return sum(s.duration for s in outermost(spans, names)) / passes

    def self_s(names):
        return sum(selfs[s.id] for s in named(names)) / passes

    def info_sum(names, key):
        return sum(s.info.get(key, 0) for s in outermost(spans, names)) / passes

    def useful(names):
        hits = named(names)
        return _ratio(len({(s.run_id, s.info.get("key", s.id)) for s in hits}), len(hits))

    eig = {"spectral.eig_sym"}
    load = {"graph_core.load_graph"}
    transfer_s, count_s = total(TRANSFER), total(COUNT)
    halfedge_steps = info_sum(TRANSFER, "halfedge_steps")
    enum_s, elements = total(ENUMERATION), info_sum(ENUMERATION, "elements")
    top = sum(s.duration for s in spans if s.parent is None)
    m = {
        "graph_core.classify_calls": (calls({"graph_core.classify"}), "count"),
        "graph_core.classify_s": (total({"graph_core.classify"}), "s"),
        "graph_core.line_graph_calls": (calls({"graph_core.line_graph"}), "count"),
        "graph_core.line_graph_s": (total({"graph_core.line_graph"}), "s"),
        "graph_core.load_s": (sum(s.duration for s in setup_spans if s.name in load)
                              + total(load), "s"),
        "spectral.eig_calls": (calls(eig), "count"),
        "spectral.eig_s": (total(eig), "s"),
        "spectral.eig_max_order": (max((s.info.get("order", 0) for s in named(eig)), default=0), "count"),
        "spectral.eig_useful_frac": (useful(eig), "frac"),
        "spectral.laplacian_calls": (calls(LAPLACIAN), "count"),
        "spectral.laplacian_s": (total(LAPLACIAN), "s"),
        "spectral.laplacian_useful_frac": (useful(LAPLACIAN), "frac"),
        "spectral.rate_prediction_s": (total({"spectral.rate_prediction"}), "s"),
        "spectral.fourier_s": (total({"spectral.fourier_coefficients"}), "s"),
        "spectral.radial_series_s": (total({"spectral.radial_series"}), "s"),
        "cover.transfer_calls": (calls(TRANSFER), "count"),
        "cover.transfer_s": (transfer_s, "s"),
        "cover.transfer_steps": (info_sum(TRANSFER, "steps"), "count"),
        "cover.transfer_halfedge_steps": (halfedge_steps, "count"),
        "cover.transfer_ns_per_halfedge_step": (_ratio(transfer_s * 1e9, halfedge_steps), "ns"),
        "cover.count_calls": (calls(COUNT), "count"),
        "cover.count_s": (count_s, "s"),
        "cover.count_share": (_ratio(count_s, count_s + transfer_s), "frac"),
        "cover.average_transfer_calls": (calls({"cover.arc_average_transfer"}), "count"),
        "cover.average_transfer_s": (total({"cover.arc_average_transfer"}), "s"),
        "cover.enum_s": (enum_s, "s"),
        "cover.enum_elements": (elements, "count"),
        "cover.enum_ns_per_element": (_ratio(enum_s * 1e9, elements), "ns"),
        "cover.set_average_calls": (calls({"cover.set_average"}), "count"),
        "cover.set_average_s": (total({"cover.set_average"}), "s"),
        "analysis.deviation_series_calls": (calls({"analysis.deviation_series"}), "count"),
        "analysis.deviation_series_self_s": (self_s({"analysis.deviation_series"}), "s"),
        "analysis.envelope_calls": (calls({"analysis.envelope_series"}), "count"),
        "analysis.envelope_self_s": (self_s({"analysis.envelope_series"}), "s"),
        "analysis.doob_s": (total({"analysis.check_doob_condition"}), "s"),
        "analysis.doob_self_s": (self_s({"analysis.check_doob_condition"}), "s"),
        "analysis.lemma_gap_s": (total({"analysis.check_lemma_gap"}), "s"),
        "analysis.checks_s": (total(CHECKS), "s"),
        "cli.verify_self_s": (self_s({"cli.main"}), "s"),
        "cli.generic_field_s": (total({"cli.generic_field"}), "s"),
        "cli.checks_recorded": (checks_recorded / passes, "count"),
        "trace.overhead_frac": (overhead, "frac"),
        "trace.coverage_frac": (_ratio(top, wall), "frac"),
    }
    return m


def overhead_frac(pairs):
    """Median over (untraced, traced) passes on the same inputs of traced/untraced - 1."""
    return statistics.median(traced / plain - 1.0 for plain, traced in pairs)
