"""Span recording around the public functions of each metamap layer.

A wrapper is installed on the attribute a caller looks the function up
through (``metamap.metastability.invariant_density`` is the name
``run_sweep_row`` calls), so nothing under ``src/`` changes.  Each call
records a span (name, layer, start, end, parent, info); ``summarize`` turns
the spans of a run into per-layer self and inclusive time and call counts.
"""

from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

LAYERS = ("cli", "scenarios", "map_model", "transfer_operator",
          "metastability", "spectral", "bv_analysis", "runner", "svgplot")


def _info_build_ulam(args, kwargs, result):
    """nnz and the computed bytes one CSR step P^T x moves: values, column
    indices and row pointers once, the input and output vectors once each
    (no cache effects).  Grids below 512 cells are stored dense."""
    m, n = result.matrix, result.n
    if not hasattr(m, "nnz"):
        return {"nnz": int((m != 0).sum()), "bytes": m.nbytes + 2 * 8 * n}
    return {"nnz": int(m.nnz),
            "bytes": m.data.nbytes + m.indices.nbytes + m.indptr.nbytes + 2 * 8 * n}


def _info_invariant_density(args, kwargs, result):
    return {"iterations": int(result.iterations)}


# (caller module, attribute, defining layer, info hook).  The span is named
# "<layer>.<function>" after the module that defines the function.
PATCHES = (
    ("metamap.cli", "main", "cli", None),
    ("metamap.cli", "load_scenario", "scenarios", None),
    ("metamap.cli", "run_scenario", "runner", None),
    ("metamap.scenarios", "load_scenario", "scenarios", None),
    ("metamap.runner", "validate_hypotheses", "map_model", None),
    ("metamap.runner", "prepare_sweep", "metastability", None),
    ("metamap.runner", "run_sweep_row", "metastability", None),
    ("metamap.runner", "markov_stationary", "metastability", None),
    ("metamap.runner", "lasota_yorke_constants", "transfer_operator", None),
    ("metamap.runner", "postcritical_hierarchy", "bv_analysis", None),
    ("metamap.runner", "saltus_decompose", "bv_analysis", None),
    ("metamap.runner", "jump_decay_profile", "bv_analysis", None),
    ("metamap.runner", "write_density_csv", "runner", None),
    ("metamap.runner", "write_sweep_csv", "runner", None),
    ("metamap.runner", "_write_sweep_json", "runner", None),
    ("metamap.runner", "write_line_plot", "svgplot", None),
    ("metamap.bv_analysis", "SaltusDecomposition.write_csv", "bv_analysis", None),
    ("metamap.metastability", "prepare_sweep", "metastability", None),
    ("metamap.metastability", "run_sweep_row", "metastability", None),
    ("metamap.metastability", "compute_holes", "metastability", None),
    ("metamap.metastability", "hole_measures", "metastability", None),
    ("metamap.metastability", "build_ulam", "transfer_operator", _info_build_ulam),
    ("metamap.metastability", "invariant_density", "spectral", _info_invariant_density),
    ("metamap.metastability", "second_eigenpair", "spectral", None),
    ("metamap.metastability", "escape_rate", "spectral", None),
)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    info: dict = field(default_factory=dict)


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, layer: str, fn: Callable,
             info_hook: Optional[Callable] = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            sp = Span(name=name, layer=layer, start=time.perf_counter(), parent=parent)
            tracer.spans.append(sp)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = time.perf_counter()
                tracer._stack.pop()
            if info_hook is not None:
                sp.info = info_hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for mod_name, attr, layer, hook in PATCHES:
            owner = importlib.import_module(mod_name)
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, last)
            fn_name = getattr(original, "__qualname__", last)
            self._undo.append((owner, last, original))
            setattr(owner, last, self.span(f"{layer}.{fn_name}", layer, original, hook))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def summarize(spans: list[Span]) -> dict:
    """Per-layer self/inclusive seconds and call counts; per span name the
    total, self seconds and calls.

    Self time is a span's duration minus the time its direct children cover;
    a layer's inclusive time counts only its outermost spans, so a layer that
    calls itself is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child_time[sp.parent] += sp.end - sp.start
    layers = {name: {"self_s": 0.0, "incl_s": 0.0, "calls": 0} for name in LAYERS}
    names: dict[str, dict] = {}
    for i, sp in enumerate(spans):
        dur = sp.end - sp.start
        lay = layers[sp.layer]
        lay["self_s"] += dur - child_time[i]
        lay["calls"] += 1
        outer = True
        p = sp.parent
        while p is not None:
            if spans[p].layer == sp.layer:
                outer = False
                break
            p = spans[p].parent
        if outer:
            lay["incl_s"] += dur
        tot = names.setdefault(sp.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        tot["s"] += dur
        tot["self_s"] += dur - child_time[i]
        tot["calls"] += 1
    return {"layers": layers, "names": names}


def mean_over_passes(passes: list[dict]) -> dict:
    """Average per-pass metrics; counts (ints) repeat exactly and stay ints."""
    out = {}
    for key in passes[0]:
        vals = [p[key] for p in passes]
        if all(isinstance(v, int) for v in vals):
            out[key] = statistics.median_low(vals)
        else:
            out[key] = statistics.fmean(vals)
    return out
