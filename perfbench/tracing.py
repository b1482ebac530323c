"""In-process tracing of the program's layers, from outside the program.

`Tracer.install` replaces each module's public functions with timing wrappers
wherever callers look them up: as module attributes (``linalg.eigenvalues``)
and under the names other modules imported (``experiments.build_autocov``,
``fixed_point.singular_values``, ...). Each call becomes a span with a parent
link, kept in memory and written out at the end. Nothing in the program's
source changes; `uninstall` puts the originals back.

A span's self time is its duration minus its children's durations and the
tracer's own bookkeeping around them, so layer self times add up to the
root span's duration.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import time
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

# Layers in call order, outermost last. `geometry` is not listed: no CLI
# subcommand reaches it.
LAYERS = ("linalg", "ensembles", "limit_law", "fixed_point", "experiments", "cli")

# Public methods of classes, wrapped on the class. The inner kernels of
# radial_cdf (g_inverse, g) stay unwrapped: brentq calls g tens of times per
# point, and wrapping it would measure the tracer rather than the layer.
CLASS_METHODS = {
    "limit_law": {"Gamma0Law": ("radial_cdf", "radial_quantile", "cdf_table", "sample")},
}


@dataclass
class Span:
    id: int
    parent: int
    layer: str
    name: str
    start: float
    end: float = 0.0
    cpu: float = 0.0
    overhead: float = 0.0
    key: str | None = None
    work: float = 0.0
    points: int = 0


def matrix_key(M) -> str:
    a = np.ascontiguousarray(M)
    h = hashlib.blake2b(a.view(np.uint8), digest_size=16)
    h.update(repr((a.shape, a.dtype.str)).encode())
    return h.hexdigest()


def _matrix_work(M) -> float:
    """dim^3 for a square matrix; m n min(m, n) for an m x n one."""
    m, n = np.shape(M)
    return float(m) * n * min(m, n)


def _sample_key(spec, trial) -> str:
    index = trial if isinstance(trial, int) else trial.trial_index
    return repr((spec.N, spec.n, spec.law.kind, spec.master_seed, index))


def _matrix_probe(M, *args, **kwargs):
    return matrix_key(M), _matrix_work(M), 0


# Per-function probes: (distinct-input key, computed work, points) from the
# call's arguments, evaluated outside the span's timed interval.
PROBES: dict[str, Callable] = {
    "linalg.eigenvalues": _matrix_probe,
    "linalg.singular_values": _matrix_probe,
    "ensembles.sample_entry_matrix":
        lambda spec, trial, *a, **k: (_sample_key(spec, trial), 0.0, 0),
    "limit_law.radial_cdf": lambda self, r, *a, **k: (None, 0.0, int(np.size(r))),
}


def _public_functions(module) -> dict[str, Callable]:
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


class Tracer:
    """Records spans for calls into the program's layers while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, qualname: str, fn: Callable) -> Callable:
        probe = PROBES.get(qualname)
        spans, stack = self.spans, self._stack
        clock, cpu_clock = time.perf_counter, time.process_time

        def traced(*args, **kwargs):
            entered = clock()
            key, work, points = probe(*args, **kwargs) if probe else (None, 0.0, 0)
            span = Span(len(spans), stack[-1] if stack else -1, layer, qualname,
                        0.0, key=key, work=work, points=points)
            spans.append(span)
            stack.append(span.id)
            cpu0 = cpu_clock()
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                span.cpu = cpu_clock() - cpu0
                stack.pop()
                span.overhead = (span.start - entered) + (clock() - span.end)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"autocov_spectra.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, fn in _public_functions(module).items():
                wrappers[fn] = self._wrap(layer, f"{layer}.{name}", fn)
            for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    self._patch(cls, method, self._wrap(layer, f"{layer}.{method}",
                                                        vars(cls)[method]))
        # Rebind every name that refers to an original, in every layer's
        # namespace, so imported names are traced as well as module attributes.
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, name, wrappers[obj])

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration less its children's durations and bookkeeping."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= (s.end - s.start) + s.overhead
    return out


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-layer and per-function totals from a list of spans.

    For every traced function ``f``: ``f.calls``, ``f.self_s``, ``f.cpu_s``
    (process CPU over the span, so BLAS worker threads count),
    ``f.work_n3``, ``f.points`` and ``f.distinct_ratio`` (distinct input keys
    over calls, for functions with a key probe). For every layer:
    ``layer.self_s``. Also ``trace.bookkeeping_s``, the tracer's own time.
    """
    self_s = self_times(spans)
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    keys: dict[str, set] = {}
    for span, own in zip(spans, self_s):
        f = span.name
        out[f"{span.layer}.self_s"] += own
        out[f"{f}.calls"] = out.get(f"{f}.calls", 0) + 1
        out[f"{f}.self_s"] = out.get(f"{f}.self_s", 0.0) + own
        out[f"{f}.cpu_s"] = out.get(f"{f}.cpu_s", 0.0) + span.cpu
        out[f"{f}.work_n3"] = out.get(f"{f}.work_n3", 0.0) + span.work
        out[f"{f}.points"] = out.get(f"{f}.points", 0) + span.points
        if span.key is not None:
            keys.setdefault(f, set()).add(span.key)
    for f, distinct in keys.items():
        out[f"{f}.distinct_ratio"] = len(distinct) / out[f"{f}.calls"]
    out["trace.bookkeeping_s"] = sum(s.overhead for s in spans)
    return out
