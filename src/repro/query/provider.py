"""The query provider: canonicalize → cache → translate → compile → execute.

This is the paper's Figure 3 pipeline.  When a query's result is first
consumed, the provider

1. reduces the expression tree to canonical form (constants folded, the
   survivors lifted to parameters — ``ConstantEvaluator``);
2. consults the :class:`~repro.query.cache.QueryCache` keyed by the
   canonical tree + engine + optimizer options;
3. on a miss, translates to a logical plan, optimizes it, and hands it to
   the engine's code generator (``ExpressionTreeTranslator`` →
   ``CodeTreeTranslator`` → ``StringCompiler``);
4. executes the compiled artifact against the actual sources with the
   merged parameter bindings.

The ``linq`` engine short-circuits all of this: LINQ-to-objects neither
optimizes nor compiles, and the baseline must not either.
"""

from __future__ import annotations

import copy
import hashlib
import os
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Optional

from ..adaptive.chooser import Decision, static_fallback
from ..adaptive.controller import AdaptiveController
from ..adaptive.controller import default_controller as _default_adaptive
from ..adaptive.cost import RowEstimate, estimate_plan_rows
from ..analysis import analyze_ir, elision_enabled
from ..codegen.compiler import CompiledQuery
from ..codegen.ir import QueryIR
from ..codegen.lower import lower_plan
from ..codegen.verifier import check_facts, check_ir, verification_enabled
from ..errors import ExecutionError, UnsupportedQueryError
from ..expressions.canonical import CanonicalQuery, cache_key, canonicalize
from ..expressions.nodes import Expr
from ..expressions.typing import QueryAnalysis, analyze_query
from ..observability.metrics import METRICS
from ..observability.tracer import TRACER, traced_rows
from ..plans.logical import plan_to_text
from ..plans.optimizer import OptimizeOptions, optimize
from ..plans.translate import TranslateOptions, translate
from ..plans.validate import capability_report, distributed_split, validate_plan
from ..storage.struct_array import StructArray
from ..runtime.parallel import (
    DEFAULT_MORSEL_ROWS,
    ParallelQuery,
    build_parallel_query,
    source_length,
)
from .cache import QueryCache
from .enumerable import enumerate_query, scalar_query

__all__ = ["QueryProvider", "default_provider", "pin_sources", "ENGINES"]

#: all execution strategies, in the order the paper presents them
ENGINES = (
    "linq",
    "compiled",
    "native",
    "hybrid",
    "hybrid_buffered",
    "hybrid_min",
    "hybrid_min_buffered",
)

#: engines whose backends emit morsel-parameterized kernels; linq stays the
#: interpreted yardstick and the Min hybrids retain whole-source object
#: identity, so both always run sequentially
PARALLEL_ENGINES = ("compiled", "native", "hybrid", "hybrid_buffered")

#: engines whose artifacts can broadcast to worker processes — the same
#: set: a shard task is one morsel-parameterized kernel invocation
DISTRIBUTED_ENGINES = PARALLEL_ENGINES

#: cached marker: "this plan/engine pair falls back to sequential"
_SEQUENTIAL = object()

#: bound on the per-binding-set dataflow-facts memo; evicted LRU
_MAX_FACTS_ENTRIES = 1024


class QueryProvider:
    """Compiles and executes queries for every non-baseline engine."""

    def __init__(
        self,
        cache: Optional[QueryCache] = None,
        translate_options: Optional[TranslateOptions] = None,
        optimize_options: Optional[OptimizeOptions] = None,
    ):
        # explicit None test: an empty QueryCache is falsy (len() == 0)
        self.cache = cache if cache is not None else QueryCache()
        self.translate_options = translate_options or TranslateOptions()
        self.optimize_options = optimize_options or OptimizeOptions()
        self._lock = threading.Lock()
        #: one lock per *in-flight* cache key, so concurrent misses on the
        #: same query compile once while distinct queries compile
        #: concurrently.  Entries are reference-counted and pruned as the
        #: last holder releases, so the table is bounded by the number of
        #: concurrent compilations — a long-lived provider serving many
        #: distinct queries no longer grows it forever
        self._key_locks: Dict[Any, _KeyLockEntry] = {}
        #: morsel-kernel artifacts (or the sequential-fallback marker),
        #: keyed like compiled entries plus the worker count; kept apart
        #: from the QueryCache so parallel lookups don't perturb the
        #: compiled-code hit/miss statistics the benchmarks report
        self._parallel_entries: Dict[Any, Any] = {}
        #: broadcast artifacts for multi-process execution (or the
        #: sequential-fallback marker); keyed like parallel entries but
        #: *without* the worker count — the shard fan-out is a runtime
        #: grant, the compiled artifact is shape-only
        self._distributed_entries: Dict[Any, Any] = {}
        #: schema token → TableStats (§9 extension); versioned for caching
        self._statistics: Dict[str, Any] = {}
        self._statistics_version = 0
        #: pipeline IR per canonical query (engine-independent), cached
        #: alongside analysis so every backend lowers the same IR once
        self._ir_cache: Dict[Any, QueryIR] = {}
        #: dataflow facts per (query, binding set) — facts look *through*
        #: auto-lifted parameter values (divisor proofs, contradictions),
        #: so unlike the IR they cannot be shared across bindings
        self._facts_cache: "OrderedDict[Any, Any]" = OrderedDict()
        #: eviction coherence: compiled-entry key → (analysis key, IR key)
        #: plus refcounts on the shared keys — several engines' compiled
        #: entries reference one analysis/IR, which must survive until the
        #: *last* referencing compiled entry leaves the cache
        self._associations: Dict[Any, tuple] = {}
        self._shared_refs: Dict[Any, int] = {}
        self.cache.add_eviction_listener(self._on_compiled_eviction)

    def register_statistics(self, token: str, statistics: Any) -> None:
        """Attach :class:`~repro.plans.statistics.TableStats` to a schema
        token; subsequent compilations order predicates by selectivity."""
        with self._lock:
            self._statistics[token] = statistics
            self._statistics_version += 1

    # -- public API --------------------------------------------------------------

    def execute(
        self,
        expr: Expr,
        sources: List[Any],
        engine: str,
        params: Dict[str, Any],
        parallelism: Optional[int] = None,
        morsel_size: Optional[int] = None,
        adaptive: Any = None,
        distributed: Optional[int] = None,
    ) -> Iterator[Any]:
        """Run *expr* and return a lazy iterator over its results."""
        sources = pin_sources(sources)
        if engine == "linq":
            # the interpreted baseline skips codegen but not analysis: an
            # ill-typed query fails the same way on every engine (its
            # parallelism knob is a no-op: interpretation stays sequential)
            with TRACER.span("query.canonicalize", engine="linq"):
                canonical = canonicalize(expr)
            self._analysis_for(canonical, sources)
            started = time.perf_counter()
            iterator = enumerate_query(expr, sources, params)
            if TRACER.active:
                return traced_rows(TRACER, iterator, started, engine="linq")
            return iterator
        run = self._start(
            expr, sources, engine, adaptive, parallelism, morsel_size, distributed
        )
        if run.compiled.scalar:
            raise ExecutionError(
                "this query is a scalar aggregate; use the terminal method"
            )
        params = {**run.resolved.canonical.bindings, **params}
        dist = self._distributed_plan(run, sources, scalar=False, params=params)
        if dist is not None:
            dist_workers, dist_artifact = dist
            started = time.perf_counter()
            rows = dist_artifact.execute(sources, params, dist_workers)
            TRACER.record(
                "query.execute",
                started,
                time.perf_counter(),
                rows=len(rows),
                engine=run.engine,
                distributed=True,
            )
            run.observe(started, dist_workers, 0, len(rows), dist_workers)
            return iter(rows)
        parallel = self._parallel_plan(
            run.resolved, sources, run.engine, run.parallelism, scalar=False
        )
        if parallel is not None:
            workers, morsel_rows, artifact = parallel
            morsel = run.morsel or morsel_rows
            redecide = None
            if run.controller is not None:
                redecide = run.controller.redecider(
                    run.estimate, source_length(sources[artifact.morsel_ordinal])
                )
            started = time.perf_counter()
            rows = artifact.execute(
                sources, params, workers, morsel, redecide=redecide
            )
            TRACER.record(
                "query.execute",
                started,
                time.perf_counter(),
                rows=len(rows),
                engine=run.engine,
                parallel=True,
            )
            run.observe(started, workers, morsel, len(rows))
            return iter(rows)
        # the span starts before the kernel call: eager engines (native,
        # hybrid) do all their work inside it, lazy ones while drained
        started = time.perf_counter()
        iterator = iter(run.compiled.execute(sources, params))
        if TRACER.active:
            iterator = traced_rows(TRACER, iterator, started, engine=run.engine)
        if run.controller is not None:
            # wall time and cardinality land in the profile when the
            # caller exhausts (or abandons) the lazy result
            iterator = _observe_rows(iterator, run, started)
        return iterator

    def execute_scalar(
        self,
        expr: Expr,
        sources: List[Any],
        engine: str,
        params: Dict[str, Any],
        parallelism: Optional[int] = None,
        morsel_size: Optional[int] = None,
        adaptive: Any = None,
        distributed: Optional[int] = None,
    ) -> Any:
        """Run a terminal aggregate and return its single value."""
        sources = pin_sources(sources)
        if engine == "linq":
            with TRACER.span("query.canonicalize", engine="linq"):
                canonical = canonicalize(expr)
            self._analysis_for(canonical, sources)
            with TRACER.span("query.execute", engine="linq", scalar=True):
                return scalar_query(expr, sources, params)
        run = self._start(
            expr, sources, engine, adaptive, parallelism, morsel_size, distributed
        )
        if not run.compiled.scalar:
            raise ExecutionError("not a scalar query")
        params = {**run.resolved.canonical.bindings, **params}
        dist = self._distributed_plan(run, sources, scalar=True, params=params)
        if dist is not None:
            dist_workers, dist_artifact = dist
            started = time.perf_counter()
            with TRACER.span(
                "query.execute", engine=run.engine, scalar=True, distributed=True
            ):
                value = dist_artifact.execute(sources, params, dist_workers)
            run.observe(started, dist_workers, 0, None, dist_workers)
            return value
        parallel = self._parallel_plan(
            run.resolved, sources, run.engine, run.parallelism, scalar=True
        )
        if parallel is not None:
            workers, morsel_rows, artifact = parallel
            morsel = run.morsel or morsel_rows
            started = time.perf_counter()
            with TRACER.span(
                "query.execute", engine=run.engine, scalar=True, parallel=True
            ):
                value = artifact.execute(sources, params, workers, morsel)
            run.observe(started, workers, morsel, None)
            return value
        started = time.perf_counter()
        with TRACER.span("query.execute", engine=run.engine, scalar=True):
            value = run.compiled.execute(sources, params)
        run.observe(started, 1, 0, None)
        return value

    def _start(
        self,
        expr: Expr,
        sources: List[Any],
        engine: str,
        adaptive: Any,
        parallelism: Optional[int],
        morsel_size: Optional[int],
        distributed: Optional[int],
    ) -> "_Run":
        """Resolve the keys once, decide (adaptive), and fetch the artifact.

        The sequential artifact compiles first even under parallelism: it
        is the fallback, and it guarantees exact error parity (a query the
        engine rejects is rejected with or without workers).
        """
        resolved = self._resolve(expr, sources, engine)
        run = _Run(
            resolved,
            self._adaptive_controller(adaptive, engine),
            engine,
            parallelism,
            morsel_size,
            distributed,
        )
        if run.controller is None:
            run.compiled = self._compiled_for(resolved, sources, engine)
            return run
        run.adaptive_key, run.estimate, run.decision = self._adaptive_decide(
            resolved, sources, engine, run.controller
        )
        run.compiled, run.engine = self._compiled_adaptive(
            resolved, sources, engine, run.decision
        )
        # caller-explicit knobs always beat the adaptive decision
        if parallelism is None:
            run.parallelism = run.decision.workers
        if morsel_size is None:
            run.morsel = run.decision.morsel
        if distributed is None:
            run.distributed = getattr(run.decision, "distributed", None)
        return run

    def _resolve(self, expr: Expr, sources: List[Any], engine: str) -> "_Resolution":
        """Canonicalize *expr* and derive every cache-key component once."""
        with TRACER.span("query.canonicalize", engine=engine):
            canonical = canonicalize(expr)
        options = self._options_token()
        signature = _source_signature(sources)
        facts = self._facts_component(canonical, sources, engine, options + signature)
        return _Resolution(canonical, options, signature, facts, engine)

    def explain(self, expr: Expr, engine: str) -> str:
        """The optimized logical plan, as indented text."""
        if engine == "linq":
            return "(linq engine: interpreted operator chain, no plan)"
        canonical = canonicalize(expr)
        plan = optimize(
            translate(canonical.tree, self.translate_options),
            self.optimize_options,
            statistics=self._statistics,
            param_values=canonical.bindings,
        )
        return plan_to_text(plan)

    def compile_info(
        self, expr: Expr, sources: List[Any], engine: str
    ) -> CompiledQuery:
        """Compile (or fetch) the artifact without executing — bench hook."""
        return self._compiled_for(self._resolve(expr, sources, engine), sources, engine)

    # -- adaptive execution (profile-driven engine/parallelism choice) -----------

    def _adaptive_controller(
        self, adaptive: Any, engine: str
    ) -> Optional[AdaptiveController]:
        """Resolve the controller for one execution (or None = static).

        ``adaptive`` is the per-query override: an
        :class:`~repro.adaptive.AdaptiveController` instance, True
        (use/create the process-wide controller), False (force static),
        or None (defer to ``REPRO_ADAPTIVE``).  The interpreted baseline
        never adapts.
        """
        if engine == "linq" or adaptive is False:
            return None
        if isinstance(adaptive, AdaptiveController):
            return adaptive
        try:
            return _default_adaptive(force=adaptive is True)
        except Exception:  # noqa: BLE001 - fail-open by contract
            METRICS.counter("adaptive.errors").add()
            return None

    def _adaptive_decide(
        self,
        resolved: "_Resolution",
        sources: List[Any],
        engine: str,
        controller: AdaptiveController,
        explore: bool = True,
    ) -> tuple:
        """(profile key, row estimate, decision) under a ``query.decide``
        span; any failure lands on the static fallback, never an error."""
        canonical = resolved.canonical
        with TRACER.span("query.decide", engine=engine) as span:
            try:
                raw = cache_key(canonical, "::adaptive", resolved.signature)
                key = controller.profile_key(raw)

                def derive():
                    plan = optimize(
                        translate(canonical.tree, self.translate_options),
                        self.optimize_options,
                        statistics=self._statistics,
                        param_values=canonical.bindings,
                    )
                    return estimate_plan_rows(plan, sources, self._statistics)

                estimate = controller.estimated_rows(key, derive)
                candidates = self._candidate_engines(engine, sources)
                if explore:
                    decision = controller.decide(
                        key, engine, candidates, estimate, DEFAULT_MORSEL_ROWS
                    )
                else:
                    decision = controller.peek(
                        key, engine, candidates, estimate, DEFAULT_MORSEL_ROWS
                    )
            except Exception:  # noqa: BLE001 - fail-open by contract
                METRICS.counter("adaptive.errors").add()
                key, estimate = "", None
                decision = static_fallback(engine, "decision error")
            span.set(
                source=decision.source,
                chosen_engine=decision.engine,
                workers=decision.workers,
                morsel=decision.morsel,
                decision=decision.describe(),
            )
        return key, estimate, decision

    def _candidate_engines(
        self, engine: str, sources: List[Any]
    ) -> tuple:
        """Engines the chooser may pick for these sources.

        The requested engine always leads; the other morsel-capable
        engines follow (native only when every source is a StructArray —
        its scans read native buffers directly).
        """
        candidates = [engine]
        native_ok = all(isinstance(s, StructArray) for s in sources)
        for alternative in PARALLEL_ENGINES:
            if alternative == engine:
                continue
            if alternative == "native" and not native_ok:
                continue
            candidates.append(alternative)
        return tuple(candidates)

    def _compiled_adaptive(
        self,
        resolved: "_Resolution",
        sources: List[Any],
        engine: str,
        decision: Decision,
    ) -> tuple:
        """Compile for the decided engine, falling back to the requested
        one when the decided engine rejects the query shape.

        The *requested* engine always compiles first (a cache hit after
        the first run): error parity demands that a query the requested
        engine rejects is rejected identically with adaptivity on —
        profile-driven switching may make supported queries faster, but
        it never widens engine capability.
        """
        compiled = self._compiled_for(resolved, sources, engine)
        chosen = decision.engine
        if chosen != engine:
            try:
                return self._compiled_for(resolved, sources, chosen), chosen
            except UnsupportedQueryError:
                METRICS.counter("adaptive.fallbacks").add()
        return compiled, engine

    # -- internals --------------------------------------------------------------

    def _acquire_key_lock(self, key: Any) -> "_KeyLockEntry":
        """Reference-count and lock the per-key compile entry.

        Contended acquisitions (another thread already compiling this
        key) are counted in ``provider.compile_lock.contended``.
        """
        with self._lock:
            entry = self._key_locks.get(key)
            if entry is None:
                entry = self._key_locks[key] = _KeyLockEntry()
            entry.refs += 1
        if not entry.lock.acquire(blocking=False):
            METRICS.counter("provider.compile_lock.contended").add()
            entry.lock.acquire()
        return entry

    def _release_key_lock(self, key: Any, entry: "_KeyLockEntry") -> None:
        """Unlock, and prune the table entry once the last holder leaves.

        Pruning bounds the lock table to the number of *concurrent*
        compilations; a later request for the same key simply creates a
        fresh lock and finds the artifact already cached.
        """
        entry.lock.release()
        with self._lock:
            entry.refs -= 1
            if entry.refs == 0 and self._key_locks.get(key) is entry:
                del self._key_locks[key]
                METRICS.counter("provider.compile_lock.pruned").add()

    def _compiled_for(
        self, resolved: "_Resolution", sources: List[Any], engine: str
    ) -> CompiledQuery:
        if engine == resolved.engine:
            key = resolved.compiled_key
        else:  # an adaptive switch to another engine
            key = resolved.key(engine)
        # per-key locking: concurrent requests for the same query block
        # until its single compilation finishes (no duplicated work, and
        # exactly one cache miss per compilation); unrelated queries
        # compile in parallel
        entry = self._acquire_key_lock(key)
        try:
            with TRACER.span("query.cache_lookup", engine=engine) as span:
                compiled = self.cache.find(key)
                span.set(hit=compiled is not None)
            if compiled is None:
                compiled = self._compile(resolved.canonical, sources, engine)
                # register before store: store() may evict other entries
                # (whose associations are already registered), and a
                # concurrent store could evict *this* key right away
                self._register_association(key, resolved)
                self.cache.store(key, compiled)
        finally:
            self._release_key_lock(key, entry)
        return compiled

    # -- cache-eviction coherence ------------------------------------------------

    def _register_association(self, key: Any, resolved: "_Resolution") -> None:
        """Record which analysis/IR entries *key*'s compiled entry uses."""
        canonical, signature = resolved.canonical, resolved.signature
        analysis_key = cache_key(canonical, "::analysis", signature)
        ir_key = cache_key(canonical, "::ir", resolved.options + signature)
        with self._lock:
            if key in self._associations:
                return  # re-store of a live entry: refcounts already held
            self._associations[key] = (analysis_key, ir_key)
            for shared in (analysis_key, ir_key):
                self._shared_refs[shared] = self._shared_refs.get(shared, 0) + 1

    def _on_compiled_eviction(self, key: Any) -> None:
        """QueryCache evicted a compiled entry: drop orphaned side state.

        When the last compiled entry referencing an analysis or IR key is
        evicted, the cached analysis and the ``_ir_cache`` entry go too —
        otherwise a bounded compiled cache would anchor unbounded
        engine-independent state for queries that can no longer hit.
        """
        doomed_analysis = None
        with self._lock:
            assoc = self._associations.pop(key, None)
            if assoc is None:
                return
            analysis_key, ir_key = assoc
            for shared in assoc:
                refs = self._shared_refs.get(shared, 0) - 1
                if refs > 0:
                    self._shared_refs[shared] = refs
                    continue
                self._shared_refs.pop(shared, None)
                if shared == ir_key:
                    self._ir_cache.pop(ir_key, None)
                if shared == analysis_key:
                    doomed_analysis = analysis_key
        # outside self._lock: discard_analysis takes the cache's lock
        if doomed_analysis is not None:
            self.cache.discard_analysis(doomed_analysis)

    # -- parallel execution (morsel-driven; departure from the paper) ------------

    def _resolve_parallelism(self, parallelism: Optional[int]) -> int:
        if parallelism is not None:
            return max(1, int(parallelism))
        env = os.environ.get("REPRO_PARALLELISM", "").strip()
        if env:
            try:
                return max(1, int(env))
            except ValueError:
                return 1
        return 1

    def _parallel_plan(
        self,
        resolved: "_Resolution",
        sources: List[Any],
        engine: str,
        parallelism: Optional[int],
        scalar: bool,
    ) -> Optional[tuple]:
        """(workers, default morsel size, ParallelQuery) — or None to run
        the already-compiled sequential artifact."""
        workers = self._resolve_parallelism(parallelism)
        if workers < 2 or engine not in PARALLEL_ENGINES:
            return None
        artifact = self._parallel_for(resolved, sources, engine, workers)
        if artifact is None or artifact.scalar != scalar:
            return None
        if source_length(sources[artifact.morsel_ordinal]) is None:
            return None  # unsized source: cannot partition
        return workers, DEFAULT_MORSEL_ROWS, artifact

    def _parallel_for(
        self, resolved: "_Resolution", sources: List[Any], engine: str, workers: int
    ) -> Optional[ParallelQuery]:
        key = resolved.key(f"{engine}::parallel", (workers,))
        lock_entry = self._acquire_key_lock(key)
        try:
            entry = self._parallel_entries.get(key)
            if entry is None:
                entry = self._build_parallel(resolved.canonical, sources, engine)
                if entry is None:
                    entry = _SEQUENTIAL
                with self._lock:
                    self._parallel_entries[key] = entry
        finally:
            self._release_key_lock(key, lock_entry)
        return None if entry is _SEQUENTIAL else entry

    def _build_parallel(
        self, canonical: CanonicalQuery, sources: List[Any], engine: str
    ) -> Optional[ParallelQuery]:
        """Build morsel kernels for a plan, or None for sequential fallback.

        Runs after the sequential artifact compiled successfully, so the
        plan is already analyzed, validated, and inside the engine's
        fragment; anything the *partial* plans still trip over (or a shape
        :func:`parallel_split` rejects) downgrades to sequential execution
        rather than erroring.
        """
        self._analysis_for(canonical, sources)
        plan = optimize(
            translate(canonical.tree, self.translate_options),
            self.optimize_options,
            statistics=self._statistics,
            param_values=canonical.bindings,
        )
        split = self._ir_for(canonical, sources, plan, engine).split
        if not split.parallel:
            return None
        backend = _make_backend(engine)

        def compile_kernel(partial):
            # partial plans differ from the cached sequential IR, so each
            # lowers its own — with the same statistics, so conjunct order
            # (and therefore kernel code) matches the sequential artifact
            partial_ir = lower_plan(
                partial,
                morsel_ordinal=split.morsel_ordinal,
                statistics=self._statistics,
                param_values=canonical.bindings,
            )
            partial_ir.facts = analyze_ir(
                partial_ir,
                param_values=canonical.bindings,
                statistics=self._statistics,
            )
            return backend.compile(
                partial,
                sources,
                morsel_ordinal=split.morsel_ordinal,
                ir=partial_ir,
            )

        try:
            return build_parallel_query(split, compile_kernel)
        except UnsupportedQueryError:
            return None

    # -- distributed execution (sharded multi-process; DESIGN.md §16) ------------

    def _resolve_distributed(self, distributed: Optional[int]) -> int:
        """Worker-process count: explicit request beats the environment.

        ``REPRO_DISTRIBUTED=1`` (or ``true``) enables distribution with
        ``REPRO_DIST_WORKERS`` workers (default 2); a numeric value > 1
        is itself the worker count; 0 is the explicit off switch.
        """
        if distributed is not None:
            return max(0, int(distributed))
        env = os.environ.get("REPRO_DISTRIBUTED", "").strip().lower()
        if not env or env in ("0", "false", "off", "no"):
            return 0
        if env in ("1", "true", "on", "yes"):
            workers_env = os.environ.get("REPRO_DIST_WORKERS", "").strip()
            try:
                return max(2, int(workers_env)) if workers_env else 2
            except ValueError:
                return 2
        try:
            return max(0, int(env))
        except ValueError:
            return 0

    def _distributed_plan(
        self, run: "_Run", sources: List[Any], scalar: bool, params: Dict[str, Any]
    ) -> Optional[tuple]:
        """(workers, DistributedQuery) — or None to fall through to the
        thread tier / sequential artifact.

        Shards own column buffers, so every source must be a StructArray;
        parameters must survive the process boundary.  Both checks fall
        back (counted in ``dist.fallbacks``) rather than erroring: asking
        for distribution never makes a supported query fail.
        """
        workers = self._resolve_distributed(run.distributed)
        if workers < 2 or run.engine not in DISTRIBUTED_ENGINES:
            return None
        if not sources or not all(isinstance(s, StructArray) for s in sources):
            return None
        artifact = self._distributed_for(run.resolved, sources, run.engine)
        if artifact is None or artifact.scalar != scalar:
            return None
        from ..distributed import wire

        try:
            wire.encode_params(params)
        except Exception:  # noqa: BLE001 - unshippable params: thread tier
            METRICS.counter("dist.fallbacks").add()
            return None
        return workers, artifact

    def _distributed_for(
        self, resolved: "_Resolution", sources: List[Any], engine: str
    ) -> Optional[Any]:
        # no worker count in the key: the broadcast artifact is
        # shape-only, and one compilation serves any shard fan-out
        key = resolved.key(f"{engine}::distributed")
        lock_entry = self._acquire_key_lock(key)
        try:
            entry = self._distributed_entries.get(key)
            if entry is None:
                entry = self._build_distributed(
                    resolved.canonical, sources, engine, key
                )
                if entry is None:
                    entry = _SEQUENTIAL
                with self._lock:
                    self._distributed_entries[key] = entry
        finally:
            self._release_key_lock(key, lock_entry)
        return None if entry is _SEQUENTIAL else entry

    def _build_distributed(
        self,
        canonical: CanonicalQuery,
        sources: List[Any],
        engine: str,
        key: Any,
    ) -> Optional[Any]:
        """Compile the broadcast artifact, or None for thread/sequential.

        Mirrors :meth:`_build_parallel` but splits with
        :func:`~repro.plans.validate.distributed_split` (inner joins
        distribute via broadcast builds instead of blocking) and wraps
        the kernels with their namespace wire recipes.  A namespace that
        cannot cross processes downgrades, never errors.
        """
        from ..distributed.coordinator import build_distributed_query
        from ..distributed.wire import UnshippableError

        self._analysis_for(canonical, sources)
        plan = optimize(
            translate(canonical.tree, self.translate_options),
            self.optimize_options,
            statistics=self._statistics,
            param_values=canonical.bindings,
        )
        split = distributed_split(plan)
        if not split.parallel:
            return None
        backend = _make_backend(engine)

        def compile_kernel(partial):
            partial_ir = lower_plan(
                partial,
                morsel_ordinal=split.morsel_ordinal,
                statistics=self._statistics,
                param_values=canonical.bindings,
            )
            partial_ir.facts = analyze_ir(
                partial_ir,
                param_values=canonical.bindings,
                statistics=self._statistics,
            )
            return backend.compile(
                partial,
                sources,
                morsel_ordinal=split.morsel_ordinal,
                ir=partial_ir,
            )

        artifact_key = hashlib.sha256(repr(key).encode()).hexdigest()[:16]
        try:
            return build_distributed_query(split, compile_kernel, artifact_key)
        except (UnsupportedQueryError, UnshippableError):
            METRICS.counter("dist.fallbacks").add()
            return None

    def _options_token(self) -> tuple:
        topts = self.translate_options
        return (
            topts.fuse_aggregates,
            topts.share_aggregates,
            self._statistics_version,
        ) + self.optimize_options.token

    def _facts_for(
        self,
        canonical: CanonicalQuery,
        sources: List[Any],
        plan: Any = None,
        engine: str = "",
        parts: Optional[tuple] = None,
    ) -> Any:
        """Derive (or recall) the dataflow facts for one query + bindings.

        Facts look through auto-lifted parameter values, so they are
        memoized per binding set; the expensive path (plan + lowering)
        only runs once per distinct binding set, and re-executions hit
        the dictionary.  *parts* is the options token plus the source
        signature when the caller already derived them.
        """
        if parts is None:
            parts = self._options_token() + _source_signature(sources)
        base = cache_key(canonical, "::facts", parts)
        frozen = canonical.frozen_bindings
        key = None if frozen is None else (base, frozen)
        if key is not None:
            with self._lock:
                facts = self._facts_cache.get(key)
            if facts is not None:
                return facts
        if plan is None:
            plan = optimize(
                translate(canonical.tree, self.translate_options),
                self.optimize_options,
                statistics=self._statistics,
                param_values=canonical.bindings,
            )
        ir = self._ir_for(canonical, sources, plan, engine)
        with TRACER.span("query.analyze_dataflow", engine=engine):
            facts = analyze_ir(
                ir,
                param_values=canonical.bindings,
                statistics=self._statistics,
            )
            if verification_enabled():
                check_facts(
                    ir, canonical.bindings, self._statistics, facts=facts
                )
        self._record_facts_metrics(facts)
        if key is not None:
            with self._lock:
                self._facts_cache[key] = facts
                self._facts_cache.move_to_end(key)
                while len(self._facts_cache) > _MAX_FACTS_ENTRIES:
                    self._facts_cache.popitem(last=False)
        return facts

    def _facts_component(
        self,
        canonical: CanonicalQuery,
        sources: List[Any],
        engine: str,
        parts: tuple,
    ) -> tuple:
        """Cache-key component for binding-dependent emission decisions.

        Keys carry the facts' :meth:`~repro.analysis.DataflowFacts.cache_token`
        — not the raw bindings — so parameterized queries keep sharing
        compiled code unless a proof outcome actually changed.  The
        elision flag itself joins the key so flipping
        ``REPRO_GUARD_ELISION`` mid-process never reuses elided code.
        """
        try:
            facts = self._facts_for(canonical, sources, engine=engine, parts=parts)
        except Exception:  # noqa: BLE001 - deferred, not swallowed
            # the query does not plan/lower (ill-typed, unsupported, …):
            # _compile re-runs the same stages and reports the real error
            # with its proper type
            return ("nofacts",)
        return (elision_enabled(),) + facts.cache_token()

    def _analysis_for(
        self, canonical: CanonicalQuery, sources: List[Any]
    ) -> QueryAnalysis:
        """Type-check the canonical tree, caching alongside compiled code.

        Raises :class:`~repro.errors.QueryAnalysisError` for ill-typed
        queries — the same error on every engine, before any codegen.
        """
        key = cache_key(canonical, "::analysis", _source_signature(sources))
        with TRACER.span("query.analyze") as span:
            analysis = self.cache.find_analysis(key)
            if analysis is None:
                analysis = analyze_query(
                    canonical.tree, sources, params=canonical.bindings
                )
                self.cache.store_analysis(key, analysis)
                span.set(cached=False)
            else:
                span.set(cached=True)
        return analysis

    def _ir_for(
        self,
        canonical: CanonicalQuery,
        sources: List[Any],
        plan: Any,
        engine: str,
    ) -> QueryIR:
        """Lower *plan* to the pipeline IR, caching per canonical query.

        The IR is engine-independent (morsel parameterization happens on
        the partial plans), so one lowering serves every backend.
        """
        key = cache_key(
            canonical, "::ir", self._options_token() + _source_signature(sources)
        )
        with self._lock:
            ir = self._ir_cache.get(key)
        if ir is not None:
            return ir
        with TRACER.span("query.lower", engine=engine):
            ir = lower_plan(
                plan,
                statistics=self._statistics,
                param_values=canonical.bindings,
            )
            if verification_enabled():
                check_ir(ir)
        with self._lock:
            self._ir_cache[key] = ir
        return ir

    @staticmethod
    def _record_facts_metrics(facts: Any) -> None:
        METRICS.counter("analysis.facts_derived").add()
        if elision_enabled():
            elidable = facts.guards_elidable()
            if elidable:
                METRICS.counter("analysis.guards_elided").add(elidable)
            if facts.dead_pipelines:
                METRICS.counter("analysis.pipelines_killed").add(
                    len(facts.dead_pipelines)
                )
        if facts.effects.impure:
            METRICS.counter("analysis.impure_downgrades").add()

    def _compile(
        self, canonical: CanonicalQuery, sources: List[Any], engine: str
    ) -> CompiledQuery:
        # layer 1: expression-tree type inference (QueryAnalysisError on
        # ill-typed queries, before any plan or source exists)
        analysis = self._analysis_for(canonical, sources)
        with TRACER.span("query.optimize", engine=engine):
            plan = optimize(
                translate(canonical.tree, self.translate_options),
                self.optimize_options,
                statistics=self._statistics,
                param_values=canonical.bindings,
            )
        backend = _make_backend(engine)  # raises for unknown engines
        # layer 2: operator preconditions + one capability report per
        # engine (replaces scattered in-backend fragment checks)
        with TRACER.span("query.validate", engine=engine):
            plan_types = validate_plan(
                plan, analysis.source_types, params=canonical.bindings
            )
            report = capability_report(plan, engine, sources, plan_types)
        if not report.supported:
            raise UnsupportedQueryError(report.describe())
        ir = self._ir_for(canonical, sources, plan, engine)
        facts = self._facts_for(canonical, sources, plan=plan, engine=engine)
        # the cached IR is shared across binding sets whose facts differ,
        # so the facts ride on a per-compilation shallow copy
        ir = copy.copy(ir)
        ir.facts = facts
        with TRACER.span("query.compile", engine=engine) as span:
            compiled = backend.compile(plan, sources, ir=ir)
            span.set(
                codegen_seconds=compiled.codegen_seconds,
                compile_seconds=compiled.compile_seconds,
            )
        METRICS.counter(f"compile.{engine}.count").add()
        METRICS.histogram(f"compile.{engine}.codegen_seconds").observe(
            compiled.codegen_seconds
        )
        METRICS.histogram(f"compile.{engine}.compile_seconds").observe(
            compiled.compile_seconds
        )
        compiled.plan_text = plan_to_text(plan)
        compiled.engine = engine
        compiled.analysis = analysis
        compiled.capability = report
        # layer 3 ran inside compile_source; recover the verifier report
        if compiled.verifier_report is None and compiled.fn is not None:
            compiled.verifier_report = getattr(
                compiled.fn, "__globals__", {}
            ).get("__verifier_report__")
        return compiled


class _Resolution:
    """One execution's canonical form and cache-key components.

    Derived once at the top of :meth:`QueryProvider.execute` (and
    ``execute_scalar``); the compiled, morsel and distributed keys are all
    built from these parts, so a warm call derives each of them once.
    """

    __slots__ = ("canonical", "options", "signature", "facts", "engine", "compiled_key")

    def __init__(
        self,
        canonical: CanonicalQuery,
        options: tuple,
        signature: tuple,
        facts: tuple,
        engine: str,
    ) -> None:
        self.canonical = canonical
        self.options = options
        self.signature = signature
        #: binding-dependent emission decisions (see _facts_component)
        self.facts = facts
        self.engine = engine
        self.compiled_key = self.key(engine)

    def key(self, tier: str, extra: tuple = ()) -> Any:
        """Cache key of one artifact tier: an engine name for compiled
        code, ``<engine>::parallel`` / ``<engine>::distributed`` for the
        morsel and broadcast artifacts."""
        return cache_key(
            self.canonical, tier, extra + self.options + self.facts + self.signature
        )


class _Run:
    """Per-execution dispatch state: the resolved keys, the artifact, and
    the adaptive decision (all None when execution is static)."""

    __slots__ = (
        "resolved",
        "controller",
        "compiled",
        "engine",
        "parallelism",
        "morsel",
        "distributed",
        "decision",
        "adaptive_key",
        "estimate",
    )

    def __init__(
        self,
        resolved: _Resolution,
        controller: Optional[AdaptiveController],
        engine: str,
        parallelism: Optional[int],
        morsel: Optional[int],
        distributed: Optional[int],
    ) -> None:
        self.resolved = resolved
        self.controller = controller
        self.compiled: Optional[CompiledQuery] = None
        #: the engine that runs — the adaptive choice may differ
        self.engine = engine
        self.parallelism = parallelism
        self.morsel = morsel
        self.distributed = distributed
        self.decision: Optional[Decision] = None
        self.adaptive_key = ""
        self.estimate: Optional[RowEstimate] = None

    def observe(
        self,
        started: float,
        workers: int,
        morsel: int,
        rows: Optional[int],
        distributed: int = 0,
    ) -> None:
        """Feed the finished execution to the adaptive profile, if any."""
        if self.controller is None:
            return
        self.controller.observe(
            self.adaptive_key,
            self.decision,
            self.engine,
            workers,
            morsel,
            (time.perf_counter() - started) * 1e3,
            rows,
            self.estimate,
            distributed=distributed,
        )


def _observe_rows(iterator: Iterator[Any], run: _Run, started: float) -> Iterator[Any]:
    """Yield through *iterator*, feeding the profile once it finishes.

    The observation covers kernel invocation plus consumption (the lazy
    sequential path does its work while being drained); an abandoned
    iterator still records whatever it produced.
    """
    count = 0
    try:
        for row in iterator:
            count += 1
            yield row
    finally:
        run.observe(started, 1, 0, count)


class _KeyLockEntry:
    """A per-key compile lock plus the count of threads holding/awaiting it."""

    __slots__ = ("lock", "refs")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.refs = 0


def _source_signature(sources: List[Any]) -> tuple:
    """Physical-design fingerprint of the sources (indexes, clustering).

    Compiled code can depend on which indexes exist, so the cache key must
    too — creating an index after a query was compiled must trigger a
    recompilation, not reuse of the scan-based code.  Clustering is read
    through the version-aware ``clustering`` property: an array whose
    clustering went stale (appends since ``cluster_by``) must not reuse
    binary-search code compiled for the sorted prefix.
    """
    signature = []
    for source in sources:
        index_fields = getattr(source, "index_fields", None)
        if callable(index_fields):
            names = index_fields()
        else:
            indexes = getattr(source, "_index_store", None)
            names = tuple(sorted(indexes)) if indexes else ()
        clustering = getattr(source, "clustering", None)
        if clustering is None:
            clustering = getattr(source, "clustered_by", None)
        signature.append((names, clustering))
    return tuple(signature)


def pin_sources(sources: List[Any]) -> List[Any]:
    """Replace live versioned arrays with O(1) snapshots for one execution.

    Pinning a watermark up front makes every scan of the same ordinal see
    one consistent prefix even while writers append concurrently — the
    generated code is byte-identical, only the length it observes is
    frozen.  Non-versioned sources (plain collections, already-pinned
    snapshots) pass through untouched.
    """
    pinned = None
    for i, source in enumerate(sources):
        if isinstance(source, StructArray) and not source.frozen:
            if pinned is None:
                pinned = list(sources)
            pinned[i] = source.snapshot()
    return pinned if pinned is not None else sources


def _make_backend(engine: str):
    if engine == "compiled":
        from ..codegen.python_backend import PythonBackend

        return PythonBackend()
    if engine == "native":
        from ..codegen.native_backend import NativeBackend

        return NativeBackend()
    if engine.startswith("hybrid"):
        from ..codegen.hybrid_backend import HybridBackend

        return HybridBackend(
            buffered="buffered" in engine,
            minimal="min" in engine.split("_"),
        )
    raise UnsupportedQueryError(
        f"unknown engine {engine!r}; available: {', '.join(ENGINES)}"
    )


_DEFAULT_PROVIDER: Optional[QueryProvider] = None
_DEFAULT_LOCK = threading.Lock()


def default_provider() -> QueryProvider:
    """The process-wide provider (shared cache), created on first use."""
    global _DEFAULT_PROVIDER
    if _DEFAULT_PROVIDER is None:
        with _DEFAULT_LOCK:
            if _DEFAULT_PROVIDER is None:
                _DEFAULT_PROVIDER = QueryProvider()
    return _DEFAULT_PROVIDER
