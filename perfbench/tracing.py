"""Outside-in per-layer timing for the traced run.

Nothing under ``src/`` knows about this module.  For the traced phase only,
:class:`Recorder` rebinds public functions and methods of each layer to
timing shims, records one span per call (per thread, with its parent), and
restores every binding afterwards.  A span's *self* time is its duration
minus the wrapped spans nested directly inside it on the same thread;
request wall time not covered by any wrapped span is reported as
``query.unattributed_ms`` rather than hidden.

Lazy results are timed while they drain: a shim marked ``lazy`` wraps a
returned iterator so every ``next()`` is a span of the same layer.  This is
how the ``compiled`` engine's deferred kernel work is counted.
"""

from __future__ import annotations

import collections.abc
import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_clock = time.perf_counter


@dataclass
class LayerTotals:
    """Accumulated spans of one layer for one request kind and thread role."""

    inclusive: float = 0.0
    self_time: float = 0.0
    calls: int = 0


@dataclass
class RequestTotals:
    count: int = 0
    wall: float = 0.0
    attributed: float = 0.0
    by_label: Dict[str, int] = field(default_factory=lambda: defaultdict(int))


class Recorder:
    """Span bookkeeping plus the rebinding of layer entry points."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._undo: List[Tuple[Any, str, Any]] = []
        #: (request kind, layer, on main thread) -> totals
        self.layers: Dict[Tuple[str, str, bool], LayerTotals] = defaultdict(
            LayerTotals
        )
        #: (request label, layer) -> inclusive seconds on any thread
        self.by_label: Dict[Tuple[str, str], float] = defaultdict(float)
        self.requests: Dict[str, RequestTotals] = defaultdict(RequestTotals)
        #: free-form counters fed by result hooks (cache hits, morsels)
        self.counters: Dict[Tuple[str, str], float] = defaultdict(float)
        self._kind: Optional[str] = None
        self._label = ""
        self._attributed = 0.0

    # -- request scope --------------------------------------------------------

    def begin(self, kind: str, label: str) -> None:
        self._kind, self._label, self._attributed = kind, label, 0.0

    def end(self, wall: float) -> None:
        totals = self.requests[self._kind]
        totals.count += 1
        totals.wall += wall
        totals.attributed += self._attributed
        totals.by_label[self._label] += 1
        self._kind = None

    def count(self, name: str, amount: float = 1.0) -> None:
        if self._kind is not None:
            with self._lock:
                self.counters[(self._kind, name)] += amount

    # -- spans ------------------------------------------------------------------

    def _frames(self) -> List[List[Any]]:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def _enter(self, layer: str) -> List[Any]:
        frames = self._frames()
        outer = any(f[1] == layer for f in frames)
        frame = [0.0, layer, outer]
        frames.append(frame)
        return frame

    def _exit(self, frame: List[Any], started: float, counted: bool) -> None:
        duration = _clock() - started
        frames = self._frames()
        frames.pop()
        if frames:
            frames[-1][0] += duration
        kind = self._kind
        if kind is None:
            return
        child, layer, nested = frame
        on_main = threading.get_ident() == self._main
        with self._lock:
            totals = self.layers[(kind, layer, on_main)]
            totals.self_time += duration - child
            if not nested:
                totals.inclusive += duration
                self.by_label[(self._label, layer)] += duration
                if counted:
                    totals.calls += 1
            if on_main and not frames:
                self._attributed += duration
            if on_main and layer in RUNTIME and not any(f[1] in RUNTIME for f in frames):
                self.counters[(kind, "runtime.main")] += duration

    def shim(
        self,
        fn: Callable[..., Any],
        layer: str,
        lazy: bool = False,
        on_result: Optional[Callable[["Recorder", Any], None]] = None,
    ) -> Callable[..., Any]:
        recorder = self

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            frame = recorder._enter(layer)
            started = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._exit(frame, started, counted=True)
            if on_result is not None:
                on_result(recorder, result)
            if lazy and isinstance(result, collections.abc.Iterator):
                return recorder._drain(result, layer)
            return result

        return timed

    def _drain(self, iterator: Iterator[Any], layer: str) -> Iterator[Any]:
        step = iterator.__next__
        while True:
            frame = self._enter(layer)
            started = _clock()
            try:
                row = step()
            except StopIteration:
                return
            finally:
                self._exit(frame, started, counted=False)
            yield row

    # -- rebinding -------------------------------------------------------------

    def patch_function(self, module: str, name: str, layer: str, **kw: Any) -> None:
        """Rebind *name* in every ``repro`` module that imported it."""
        original = getattr(importlib.import_module(module), name)
        timed = self.shim(original, layer, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            if mod.__dict__.get(name) is original:
                self._undo.append((mod, name, original))
                setattr(mod, name, timed)

    def patch_method(
        self, module: str, cls_name: str, name: str, layer: str, **kw: Any
    ) -> None:
        cls = getattr(importlib.import_module(module), cls_name)
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, self.shim(original, layer, **kw))

    def install(self) -> None:
        for target in LAYER_TARGETS:
            kind, module, name, layer = target[:4]
            kw = target[4] if len(target) > 4 else {}
            if kind == "function":
                self.patch_function(module, name, layer, **kw)
            else:
                cls_name, attr = name.split(".")
                self.patch_method(module, cls_name, attr, layer, **kw)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- read-out ---------------------------------------------------------------

    def inclusive(self, kinds: Tuple[str, ...], layer: str, main: Optional[bool] = None) -> float:
        return sum(
            t.inclusive
            for (k, l, m), t in self.layers.items()
            if k in kinds and l == layer and (main is None or m == main)
        )

    def self_time(self, kinds: Tuple[str, ...], layer: str) -> float:
        return sum(
            t.self_time
            for (k, l, m), t in self.layers.items()
            if k in kinds and l == layer and m
        )

    def calls(self, kinds: Tuple[str, ...], layer: str, main: Optional[bool] = None) -> int:
        return sum(
            t.calls
            for (k, l, m), t in self.layers.items()
            if k in kinds and l == layer and (main is None or m == main)
        )


def _cache_result(recorder: Recorder, result: Any) -> None:
    recorder.count("cache.lookups")
    if result is not None:
        recorder.count("cache.hits")


def _morsel_result(recorder: Recorder, result: Any) -> None:
    recorder.count("morsels", len(result))


#: (function|method, module, name, layer[, shim options]) — the public entry
#: points of every layer on the query path, named after their modules
LAYER_TARGETS: Tuple[tuple, ...] = (
    # front end
    ("function", "repro.expressions.canonical", "canonicalize", "expressions.canonicalize"),
    ("function", "repro.expressions.canonical", "cache_key", "expressions.cache_key"),
    ("method", "repro.query.cache", "QueryCache.find", "query.cache.find", {"on_result": _cache_result}),
    ("function", "repro.query.provider", "pin_sources", "storage.pin"),
    ("method", "repro.query.provider", "QueryProvider.execute", "query.provider"),
    ("method", "repro.query.provider", "QueryProvider.execute_scalar", "query.provider"),
    # compile pipeline
    ("function", "repro.expressions.typing", "analyze_query", "expressions.typing"),
    ("function", "repro.plans.translate", "translate", "plans.optimize"),
    ("function", "repro.plans.optimizer", "optimize", "plans.optimize"),
    ("function", "repro.plans.validate", "validate_plan", "plans.validate"),
    ("function", "repro.plans.validate", "capability_report", "plans.validate"),
    ("function", "repro.codegen.lower", "lower_plan", "codegen.lower"),
    ("function", "repro.analysis", "analyze_ir", "analysis.dataflow"),
    ("function", "repro.codegen.verifier", "check_ir", "codegen.verifier"),
    ("function", "repro.codegen.verifier", "check_facts", "codegen.verifier"),
    ("function", "repro.codegen.verifier", "check_generated", "codegen.verifier"),
    ("method", "repro.codegen.python_backend", "PythonBackend.compile", "codegen.backend_compile"),
    ("method", "repro.codegen.native_backend", "NativeBackend.compile", "codegen.backend_compile"),
    ("method", "repro.codegen.hybrid_backend", "HybridBackend.compile", "codegen.backend_compile"),
    # kernels and morsels
    ("method", "repro.codegen.compiler", "CompiledQuery.execute", "runtime.kernel", {"lazy": True}),
    ("method", "repro.runtime.parallel", "ParallelQuery.execute", "runtime.parallel.execute"),
    ("method", "repro.runtime.parallel", "ParallelQuery.merge_scalar_slots", "runtime.parallel.merge"),
    ("method", "repro.runtime.parallel", "ParallelQuery.finalize_scalar", "runtime.parallel.merge"),
    ("method", "repro.runtime.parallel", "ParallelQuery.merge_group_table", "runtime.parallel.merge"),
    ("method", "repro.runtime.parallel", "ParallelQuery.finalize_group_table", "runtime.parallel.merge"),
    ("method", "repro.runtime.parallel", "ParallelQuery.apply_post_ops", "runtime.parallel.merge"),
    ("function", "repro.runtime.parallel", "morsel_bounds", "runtime.parallel.bounds", {"on_result": _morsel_result}),
    # storage, serving and recycling
    ("method", "repro.storage.struct_array", "StructArray.append_rows", "storage.append"),
    ("method", "repro.storage.struct_array", "StructArray.append_objects", "storage.append"),
    ("method", "repro.storage.struct_array", "StructArray.snapshot", "storage.snapshot"),
    ("method", "repro.service.admission", "AdmissionController.acquire", "service.queue_wait"),
    ("method", "repro.service.executor", "QueryExecutor.run", "service.executor"),
    ("method", "repro.service.session", "QuerySession.execute", "service.session"),
    ("method", "repro.service.session", "QuerySession.ingest", "service.session"),
    ("method", "repro.query.recycler", "RecyclingProvider.execute", "query.recycler"),
    ("method", "repro.query.recycler", "RecyclingProvider.execute_scalar", "query.recycler"),
)

#: layers whose self time counts as front end on a warm request
FRONT_END = (
    "expressions.canonicalize",
    "expressions.cache_key",
    "query.cache.find",
    "storage.pin",
    "query.provider",
)

#: layers whose main-thread time counts as runtime (outermost span only)
RUNTIME = ("runtime.kernel", "runtime.parallel.execute")

KERNEL_LABELS = ("q1", "q2", "q3", "q4", "q13", "q16", "q21", "q22")


def layer_metrics(
    recorder: Recorder, workers: int, delta: Tuple[int, int]
) -> Dict[str, Tuple[float, str]]:
    """Per-layer figures from one traced phase.

    Warm-path layers are averaged per warm request, compile-pipeline
    layers per novel-shape request, ingest layers per append.
    """
    warm, novel, append = ("warm",), ("novel",), ("append",)
    reads = warm + novel
    n_warm = max(1, recorder.requests["warm"].count)
    n_novel = max(1, recorder.requests["novel"].count)
    n_append = max(1, recorder.requests["append"].count)
    wall_warm = recorder.requests["warm"].wall

    def per_warm(layer: str) -> float:
        return recorder.inclusive(warm, layer, main=True) * 1e3 / n_warm

    def per_novel(layer: str) -> float:
        return recorder.inclusive(novel, layer) * 1e3 / n_novel

    out: Dict[str, Tuple[float, str]] = {}
    out["expressions.canonicalize_ms"] = (per_warm("expressions.canonicalize"), "ms")
    out["expressions.cache_key_ms"] = (per_warm("expressions.cache_key"), "ms")
    out["expressions.cache_key_calls"] = (
        recorder.calls(warm, "expressions.cache_key") / n_warm,
        "count",
    )
    out["query.cache.find_ms"] = (per_warm("query.cache.find"), "ms")
    lookups = recorder.counters[("warm", "cache.lookups")]
    hits = recorder.counters[("warm", "cache.hits")]
    out["query.cache.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    out["storage.pin_ms"] = (per_warm("storage.pin"), "ms")
    out["query.provider.self_ms"] = (
        recorder.self_time(warm, "query.provider") * 1e3 / n_warm,
        "ms",
    )
    warm_totals = recorder.requests["warm"]
    unattributed = warm_totals.wall - warm_totals.attributed
    out["query.unattributed_ms"] = (unattributed * 1e3 / n_warm, "ms")
    out["query.unattributed_share"] = (
        unattributed / wall_warm if wall_warm else 0.0,
        "ratio",
    )
    front = sum(recorder.self_time(warm, layer) for layer in FRONT_END)
    out["front_end.share"] = (front / wall_warm if wall_warm else 0.0, "ratio")
    runtime = recorder.counters[("warm", "runtime.main")]
    out["runtime.share"] = (runtime / wall_warm if wall_warm else 0.0, "ratio")

    out["expressions.typing_ms"] = (per_novel("expressions.typing"), "ms")
    out["plans.optimize_ms"] = (per_novel("plans.optimize"), "ms")
    out["plans.validate_ms"] = (per_novel("plans.validate"), "ms")
    out["codegen.lower_ms"] = (per_novel("codegen.lower"), "ms")
    out["analysis.dataflow_ms"] = (per_novel("analysis.dataflow"), "ms")
    out["codegen.verifier_ms"] = (per_novel("codegen.verifier"), "ms")
    out["codegen.backend_compile_ms"] = (per_novel("codegen.backend_compile"), "ms")
    out["codegen.compiles_per_request"] = (
        recorder.calls(novel, "codegen.backend_compile") / n_novel,
        "count",
    )
    out["codegen.compiles_per_warm_request"] = (
        recorder.calls(warm, "codegen.backend_compile") / n_warm,
        "count",
    )

    by_label = recorder.requests["warm"].by_label
    for label in KERNEL_LABELS:
        n = by_label.get(label, 0)
        seconds = recorder.by_label.get((label, "runtime.kernel"), 0.0)
        out[f"runtime.kernel_ms.{label}"] = (seconds * 1e3 / n if n else 0.0, "ms")
    execute = recorder.inclusive(warm, "runtime.parallel.execute", main=True)
    busy = recorder.inclusive(warm, "runtime.kernel", main=False)
    out["runtime.parallel.execute_ms"] = (execute * 1e3 / n_warm, "ms")
    out["runtime.parallel.kernel_busy_ms"] = (busy * 1e3 / n_warm, "ms")
    out["runtime.parallel.merge_ms"] = (per_warm("runtime.parallel.merge"), "ms")
    out["runtime.parallel.busy_ratio"] = (
        busy / (execute * workers) if execute else 0.0,
        "ratio",
    )
    out["runtime.parallel.morsels"] = (
        recorder.counters[("warm", "morsels")] / n_warm,
        "count",
    )

    out["storage.append_ms"] = (
        recorder.inclusive(append, "storage.append") * 1e3 / n_append,
        "ms",
    )
    out["storage.snapshot_ms"] = (
        recorder.inclusive(reads, "storage.snapshot") * 1e3
        / max(1, recorder.requests["warm"].count + recorder.requests["novel"].count),
        "ms",
    )
    service = warm + append
    n_service = n_warm + recorder.requests["append"].count
    out["service.queue_wait_ms"] = (
        recorder.inclusive(service, "service.queue_wait") * 1e3 / n_service,
        "ms",
    )
    out["service.executor.self_ms"] = (
        recorder.self_time(warm, "service.executor") * 1e3 / n_warm,
        "ms",
    )
    out["service.session.self_ms"] = (
        recorder.self_time(service, "service.session") * 1e3 / n_service,
        "ms",
    )
    out["query.recycler.self_ms"] = (
        recorder.self_time(warm, "query.recycler") * 1e3 / n_warm,
        "ms",
    )
    hits, reruns = delta
    out["query.recycler.delta_ratio"] = (
        hits / (hits + reruns) if hits + reruns else 0.0,
        "ratio",
    )
    return out
