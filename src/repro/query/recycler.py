"""Query result recycling — a §9 future-work extension, now delta-aware.

The paper's conclusion lists "query result caching [15]" (Nagel, Boncz,
Viglas: *Recycling in pipelined query evaluation*) as a further
optimization beyond compiled-code caching.  The code cache amortizes
*compilation*; the recycler amortizes *evaluation*: a repeated query with
identical parameters over unchanged sources returns the materialized
result without running at all.

With versioned storage the recycler goes one step further than the
wholesale invalidation of its first incarnation.  Entries over versioned
:class:`~repro.storage.struct_array.StructArray` sources are keyed by
source *identity* and carry the ``(version, length)`` watermarks they
were computed at.  On re-execution of a cached query whose driver source
only **grew** (sanctioned appends bump the version monotonically), the
plan's morsel-merge classification decides what happens:

* **delta** — the plan splits into morsel kernels (``parallel_ok``) whose
  partials merge associatively (rows-concat, scalar folds with the
  avg→sum+count decomposition, partial group tables through
  :class:`~repro.runtime.streaming.StreamingGroupAggregator`), so the
  already-compiled kernels run over only the ``[old_watermark,
  new_watermark)`` morsel range and fold into the cached partial state.
  Sort/top-n/limit/distinct tails re-apply managed-side on the merged
  core rows, exactly as under morsel parallelism.
* **full** — non-mergeable shapes (left/set-op builds, impure lambdas,
  unsupported aggregates, …) re-execute from scratch; the reason is
  surfaced on the ``query.recycle`` span and in ``explain_analyze()``.

Plain Python collections keep the original contract: entries are keyed
by object identity + length, so replaced collections and length changes
miss (and re-run) automatically.  **Out-of-band mutation remains
invisible for both kinds of source**: writing elements of a list in
place, or poking a StructArray's buffer directly (``arr.data[i] = ...``),
changes neither the length nor the version, so cached results go stale
silently — call :meth:`RecyclingProvider.invalidate` after any mutation
that bypasses the sanctioned ``append_rows`` / ``append_objects`` API,
exactly the contract the paper's recycler has with its update stream.

``REPRO_DELTA_RECYCLE=0`` disables the delta path (stale entries then
always re-execute fully) without touching plain recycling.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..analysis import expression_effects
from ..errors import ExecutionError
from ..expressions.canonical import CanonicalQuery, canonicalize, freeze_binding
from ..expressions.nodes import Expr
from ..observability.metrics import METRICS
from ..observability.tracer import TRACER
from ..plans.optimizer import optimize
from ..plans.translate import translate
from ..plans.validate import parallel_split
from ..runtime.cancellation import CANCEL_PARAM
from ..runtime.parallel import (
    DEFAULT_MORSEL_ROWS,
    MORSEL_START,
    MORSEL_STOP,
    ParallelQuery,
)
from ..storage.struct_array import StructArray
from .provider import PARALLEL_ENGINES, QueryProvider, pin_sources

__all__ = ["RecyclingProvider", "RecyclerStats", "delta_recycling_enabled"]

#: runtime-plumbing parameters (cancellation token, morsel bounds) never
#: affect *what* a query computes, so they must not key the result cache —
#: a fresh per-request token would otherwise defeat recycling entirely
_EPHEMERAL_PARAMS = frozenset((CANCEL_PARAM, MORSEL_START, MORSEL_STOP))


def delta_recycling_enabled() -> bool:
    """The ``REPRO_DELTA_RECYCLE`` escape hatch (default: enabled)."""
    return os.environ.get("REPRO_DELTA_RECYCLE", "").strip() != "0"


@dataclass
class RecyclerStats:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    #: stale entries refreshed by running kernels over only the delta
    #: morsel range and merging with the cached partial state
    delta_hits: int = 0
    #: stale entries that had to re-execute from scratch (non-mergeable
    #: shape, non-growth change, or REPRO_DELTA_RECYCLE=0)
    full_reruns: int = 0
    #: superseded entries evicted when a newer entry for the same
    #: (engine, query, params, source identities) landed — e.g. a plain
    #: collection that grew, whose old-length entry can never hit again
    compactions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class _DeltaState:
    """The pre-finalization partial state of one delta-mergeable entry."""

    artifact: ParallelQuery
    bindings: Dict[str, Any]
    #: mode-dependent: core rows (rows), merged slot list (scalar), or
    #: the flat merged group table (group) — each itself a valid partial
    state: Any


@dataclass
class _Entry:
    """One cached result: the materialized rows plus enough provenance
    (per-source watermarks, partial state) to refresh incrementally."""

    rows: List[Any]
    marks: Tuple[Any, ...]
    delta: Optional[_DeltaState] = None
    #: why this entry cannot refresh incrementally (shown on fallback)
    delta_reason: str = ""


def _versioned(source: Any) -> bool:
    return isinstance(source, StructArray)


def _source_static(source: Any) -> tuple:
    """The per-source key component.

    Versioned arrays key by identity alone — their watermarks live on the
    entry, so growth maps to the *same* key and can refresh it in place.
    Plain collections keep identity + length: any length change is a new
    key (wholesale miss), the original recycler contract.
    """
    if _versioned(source):
        return ("v", id(source))
    try:
        length = len(source)
    except TypeError:
        length = -1
    return ("p", id(source), length)


def _source_mark(source: Any) -> Any:
    """The per-source watermark stored on the entry (None = unversioned,
    already pinned by the key)."""
    return source.watermark if _versioned(source) else None


class RecyclingProvider(QueryProvider):
    """A provider whose fully-evaluated results are themselves cached,
    and — over versioned sources — refreshed incrementally on growth."""

    def __init__(self, *args: Any, max_results: int = 128, **kwargs: Any):
        super().__init__(*args, **kwargs)
        if max_results <= 0:
            raise ValueError("result cache size must be positive")
        self._max_results = max_results
        self._results: "OrderedDict[Any, _Entry]" = OrderedDict()
        self.recycler_stats = RecyclerStats()

    # -- key construction --------------------------------------------------------

    def _result_key(
        self, expr: Expr, sources: List[Any], engine: str, params: Dict[str, Any]
    ) -> Optional[Any]:
        effects = expression_effects(expr)
        if effects.nondeterministic:
            # a lambda that reads the clock/RNG can return a different
            # value per run; replaying a cached result would be a lie
            METRICS.counter("recycler.nondeterministic_skips").add()
            return None
        canonical = canonicalize(expr)
        merged = {
            k: v
            for k, v in {**canonical.bindings, **params}.items()
            if k not in _EPHEMERAL_PARAMS
        }
        try:
            frozen_params = tuple(
                sorted((k, freeze_binding(v)) for k, v in merged.items())
            )
        except TypeError:
            return None  # unhashable parameter: not recyclable
        statics = tuple(_source_static(s) for s in sources)
        key = (engine, canonical.key, frozen_params, statics)
        try:
            hash(key)
        except TypeError:
            return None  # unhashable parameter value: not recyclable
        return key

    # -- provider surface ------------------------------------------------------------

    def execute(
        self,
        expr: Expr,
        sources: List[Any],
        engine: str,
        params: Dict[str, Any],
        parallelism: Optional[int] = None,
        morsel_size: Optional[int] = None,
        adaptive: Any = None,
    ) -> Iterator[Any]:
        # parallelism is deliberately absent from the result key: parallel
        # results are bit-identical to sequential ones, so recycling
        # across worker counts is sound
        key = self._result_key(expr, sources, engine, params)
        if key is None:
            return super().execute(
                expr, sources, engine, params, parallelism, morsel_size,
                **({} if adaptive is None else {"adaptive": adaptive}),
            )
        rows = self._recycled(
            key, expr, sources, engine, params,
            parallelism, morsel_size, adaptive, scalar=False,
        )
        return iter(rows)

    def execute_scalar(
        self,
        expr: Expr,
        sources: List[Any],
        engine: str,
        params: Dict[str, Any],
        parallelism: Optional[int] = None,
        morsel_size: Optional[int] = None,
        adaptive: Any = None,
    ) -> Any:
        key = self._result_key(expr, sources, engine, params)
        if key is None:
            return super().execute_scalar(
                expr, sources, engine, params, parallelism, morsel_size,
                **({} if adaptive is None else {"adaptive": adaptive}),
            )
        rows = self._recycled(
            key, expr, sources, engine, params,
            parallelism, morsel_size, adaptive, scalar=True,
        )
        return rows[0]

    # -- the recycled execution body --------------------------------------------

    def _recycled(
        self,
        key: Any,
        expr: Expr,
        sources: List[Any],
        engine: str,
        params: Dict[str, Any],
        parallelism: Optional[int],
        morsel_size: Optional[int],
        adaptive: Any,
        scalar: bool,
    ) -> List[Any]:
        # pin every live versioned array *before* reading watermarks: the
        # watermarks stored on the entry then describe exactly the prefix
        # the kernels saw, even with writers appending concurrently
        pinned = pin_sources(sources)
        marks = tuple(_source_mark(s) for s in pinned)
        entry = self._results.get(key)
        if entry is not None and entry.marks == marks:
            self._results.move_to_end(key)
            self.recycler_stats.hits += 1
            METRICS.counter("recycler.hits").add()
            with TRACER.span("query.recycle", mode="hit", reason=""):
                pass
            return entry.rows
        if entry is not None:
            refreshed = self._refresh(
                key, entry, pinned, marks, params,
                parallelism, morsel_size, scalar,
            )
            if refreshed is not None:
                return refreshed
            # fall through: full re-execution replaces the stale entry
            return self._materialize(
                key, expr, pinned, engine, params,
                parallelism, morsel_size, adaptive, scalar, marks,
                mode="full",
                reason=self._fallback_reason(entry, pinned, marks),
            )
        self.recycler_stats.misses += 1
        METRICS.counter("recycler.misses").add()
        return self._materialize(
            key, expr, pinned, engine, params,
            parallelism, morsel_size, adaptive, scalar, marks,
            mode="miss", reason="",
        )

    def _refresh(
        self,
        key: Any,
        entry: _Entry,
        pinned: List[Any],
        marks: Tuple[Any, ...],
        params: Dict[str, Any],
        parallelism: Optional[int],
        morsel_size: Optional[int],
        scalar: bool,
    ) -> Optional[List[Any]]:
        """Refresh a stale entry from its partial state, or None if only a
        full re-execution is sound."""
        delta = entry.delta
        if delta is None or not delta_recycling_enabled():
            return None
        window = self._growth_window(entry, delta.artifact, pinned, marks)
        if window is None:
            return None
        old_len, new_len = window
        artifact = delta.artifact
        workers = self._resolve_parallelism(parallelism)
        morsel = morsel_size or DEFAULT_MORSEL_ROWS
        merged = {**delta.bindings, **params}
        with TRACER.span(
            "query.recycle", mode="delta", reason="",
            window_start=old_len, window_stop=new_len,
        ):
            with TRACER.span("query.execute", parallel=True):
                partials = artifact.run_window(
                    pinned, merged, workers, morsel, start=old_len, stop=new_len
                )
                with TRACER.span("parallel.merge", mode=artifact.mode):
                    if artifact.mode == "scalar":
                        state = artifact.merge_scalar_slots(
                            [delta.state] + partials
                        )
                        rows = [artifact.finalize_scalar(state, merged)]
                    elif artifact.mode == "group":
                        state = artifact.merge_group_table(
                            [delta.state] + partials
                        )
                        rows = artifact.apply_post_ops(
                            artifact.finalize_group_table(state, merged), merged
                        )
                    else:
                        state = delta.state + [
                            row for part in partials for row in part
                        ]
                        rows = artifact.apply_post_ops(list(state), merged)
        entry.rows = rows
        entry.marks = marks
        entry.delta = _DeltaState(artifact, delta.bindings, state)
        self._results.move_to_end(key)
        self.recycler_stats.delta_hits += 1
        METRICS.counter("recycler.delta_hits").add()
        return rows

    def _growth_window(
        self,
        entry: _Entry,
        artifact: ParallelQuery,
        pinned: List[Any],
        marks: Tuple[Any, ...],
    ) -> Optional[Tuple[int, int]]:
        """``[old_watermark, new_watermark)`` of the driver, or None when
        the change was not growth-only."""
        driver = artifact.morsel_ordinal
        for i, (old, now) in enumerate(zip(entry.marks, marks)):
            if i == driver:
                continue
            if old != now:
                return None  # a non-driver source changed: not a pure delta
        old, now = entry.marks[driver], marks[driver]
        if old is None or now is None:
            return None
        old_version, old_len = old
        new_version, new_len = now
        if new_version <= old_version or new_len < old_len:
            return None  # replaced/rewound, not grown
        return old_len, new_len

    def _fallback_reason(
        self, entry: _Entry, pinned: List[Any], marks: Tuple[Any, ...]
    ) -> str:
        if entry.delta is None:
            return entry.delta_reason or "plan is not delta-mergeable"
        if not delta_recycling_enabled():
            return "delta recycling disabled (REPRO_DELTA_RECYCLE=0)"
        if self._growth_window(entry, entry.delta.artifact, pinned, marks) is None:
            return "source change was not growth-only"
        return "delta path unavailable"

    def _materialize(
        self,
        key: Any,
        expr: Expr,
        pinned: List[Any],
        engine: str,
        params: Dict[str, Any],
        parallelism: Optional[int],
        morsel_size: Optional[int],
        adaptive: Any,
        scalar: bool,
        marks: Tuple[Any, ...],
        mode: str,
        reason: str,
    ) -> List[Any]:
        """Cold execution that also captures partial state when the plan
        is delta-mergeable, so the *next* growth refreshes incrementally."""
        if mode == "full":
            self.recycler_stats.full_reruns += 1
            METRICS.counter("recycler.full_reruns").add()
        artifact, bindings, delta_reason = self._delta_artifact(
            expr, pinned, engine, scalar
        )
        with TRACER.span("query.recycle", mode=mode, reason=reason):
            if artifact is None:
                if scalar:
                    rows = [
                        super().execute_scalar(
                            expr, pinned, engine, params,
                            parallelism, morsel_size,
                            **({} if adaptive is None else {"adaptive": adaptive}),
                        )
                    ]
                else:
                    rows = list(
                        super().execute(
                            expr, pinned, engine, params,
                            parallelism, morsel_size,
                            **({} if adaptive is None else {"adaptive": adaptive}),
                        )
                    )
                entry = _Entry(rows, marks, None, delta_reason)
            else:
                workers = self._resolve_parallelism(parallelism)
                morsel = morsel_size or DEFAULT_MORSEL_ROWS
                merged = {**bindings, **params}
                with TRACER.span("query.execute", parallel=True):
                    partials = artifact.run_window(pinned, merged, workers, morsel)
                    with TRACER.span("parallel.merge", mode=artifact.mode):
                        if artifact.mode == "scalar":
                            state = artifact.merge_scalar_slots(partials)
                            rows = [artifact.finalize_scalar(state, merged)]
                        elif artifact.mode == "group":
                            state = artifact.merge_group_table(partials)
                            rows = artifact.apply_post_ops(
                                artifact.finalize_group_table(state, merged),
                                merged,
                            )
                        else:
                            state = [row for part in partials for row in part]
                            rows = artifact.apply_post_ops(list(state), merged)
                entry = _Entry(rows, marks, _DeltaState(artifact, bindings, state))
        self._store(key, entry)
        return rows

    def _delta_artifact(
        self,
        expr: Expr,
        pinned: List[Any],
        engine: str,
        scalar: bool,
    ) -> Tuple[Optional[ParallelQuery], Dict[str, Any], str]:
        """The morsel artifact powering incremental refresh, or (None,
        bindings, reason) when this query must recycle wholesale.

        The sequential artifact always compiles first — exact error
        parity with the plain provider (a query the engine rejects is
        rejected identically whether or not it recycles).
        """
        if engine == "linq":
            # the interpreted baseline never compiles; recycle wholesale
            return None, {}, "engine 'linq' emits no morsel kernels"
        resolved = self._resolve(expr, pinned, engine)
        compiled = self._compiled_for(resolved, pinned, engine)
        bindings = resolved.canonical.bindings
        if compiled.scalar != scalar:
            # match the plain provider's misuse errors exactly
            if scalar:
                raise ExecutionError("not a scalar query")
            raise ExecutionError(
                "this query is a scalar aggregate; use the terminal method"
            )
        if not delta_recycling_enabled():
            return None, bindings, "delta recycling disabled (REPRO_DELTA_RECYCLE=0)"
        if engine not in PARALLEL_ENGINES:
            return (
                None,
                bindings,
                f"engine {engine!r} emits no morsel kernels",
            )
        if not any(_versioned(s) for s in pinned):
            # plain collections recycle wholesale (length-keyed); don't
            # pay morsel-kernel compilation for sources that cannot grow
            # in a version-observable way
            return None, bindings, "no versioned StructArray sources"
        artifact = self._parallel_for(resolved, pinned, engine, 2)
        if artifact is None or artifact.scalar != scalar:
            return None, bindings, self._split_reason(resolved.canonical)
        driver = pinned[artifact.morsel_ordinal]
        if not _versioned(driver):
            return None, bindings, "driver source is not a versioned StructArray"
        return artifact, bindings, ""

    def _split_reason(self, canonical: CanonicalQuery) -> str:
        """Why parallel_split refused morsel kernels (= why no delta)."""
        try:
            plan = optimize(
                translate(canonical.tree, self.translate_options),
                self.optimize_options,
                statistics=self._statistics,
                param_values=canonical.bindings,
            )
            split = parallel_split(plan)
            if split.reasons:
                return split.reasons[0]
        except Exception:  # noqa: BLE001 - the reason is advisory
            pass
        return "plan has no morsel-mergeable split"

    # -- maintenance -----------------------------------------------------------------

    def _store(self, key: Any, entry: _Entry) -> None:
        self._compact(key)
        self._results[key] = entry
        self._results.move_to_end(key)
        while len(self._results) > self._max_results:
            self._results.popitem(last=False)

    def _compact(self, key: Any) -> None:
        """Evict entries this one supersedes.

        A plain collection keys by (identity, length), so growth lands on
        a *new* key while the old-length entry — rows and partial state —
        lingers until LRU pressure.  Versioned arrays refresh in place
        (identity-only key), so only the plain-source statics can differ:
        any cached entry for the same engine, canonical query, params,
        and source identities with different statics can never hit again
        and is dropped now, not ``max_results`` queries later.
        """
        engine, canonical_key, frozen_params, statics = key
        idents = tuple(static[1] for static in statics)
        superseded = [
            k
            for k in self._results
            if k != key
            and k[0] == engine
            and k[1] == canonical_key
            and k[2] == frozen_params
            and tuple(static[1] for static in k[3]) == idents
        ]
        for k in superseded:
            del self._results[k]
        if superseded:
            self.recycler_stats.compactions += len(superseded)
            METRICS.counter("recycler.compactions").add(len(superseded))

    def invalidate(self, source: Any = None) -> int:
        """Drop cached results (for *source*, or everything).

        Call after mutating elements out of band — in-place list element
        writes or direct buffer pokes bypass both the length fingerprint
        and the version counter, so no automatic path can observe them.
        """
        if source is None:
            dropped = len(self._results)
            self._results.clear()
        else:
            marker = id(source)
            doomed = [
                key
                for key in self._results
                if any(static[1] == marker for static in key[3])
            ]
            for key in doomed:
                del self._results[key]
            dropped = len(doomed)
        self.recycler_stats.invalidations += dropped
        METRICS.counter("recycler.invalidations").add(dropped)
        return dropped

    @property
    def cached_results(self) -> int:
        return len(self._results)
