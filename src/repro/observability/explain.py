"""EXPLAIN and EXPLAIN ANALYZE for the query lifecycle.

``Query.explain()`` answers *what would run*: the optimized logical plan,
the chosen engine, its capability verdict (with the fallback reasons from
:mod:`repro.plans.validate`), and the morsel-parallelism decision.

``Query.explain_analyze()`` answers *what actually ran*: the same tree
annotated with measured per-phase wall times (captured through
:mod:`repro.observability.tracer`), the result row count, the
compiled-code cache status, and — under parallel execution — the morsel
dispatch/merge accounting.  The query **is executed** to produce it,
exactly like SQL's ``EXPLAIN ANALYZE``.

The first line of both outputs is the plan root, preserving the
pre-observability ``explain()`` contract (callers that slice
``splitlines()[0]`` keep seeing the plan).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..codegen.lower import hybrid_placements
from ..errors import UnsupportedQueryError
from ..expressions.canonical import canonicalize
from ..plans.logical import plan_to_text
from ..plans.optimizer import optimize
from ..plans.translate import translate
from ..plans.validate import (
    capability_report,
    distributed_split,
    parallel_split,
    validate_plan,
)
from .tracer import TRACER, SpanRecord

__all__ = [
    "PhaseStat",
    "ExplainReport",
    "ExplainAnalysis",
    "explain_report",
    "explain_analyze",
]

_LINQ_PLAN = "(linq engine: interpreted operator chain, no plan)"

#: canonical lifecycle ordering for the phase table; unknown span names
#: sort after these, by first appearance
_PHASE_ORDER = (
    "service.queue_wait",
    "query.decide",
    "query.canonicalize",
    "query.recycle",
    "query.cache_lookup",
    "query.analyze",
    "query.optimize",
    "query.validate",
    "query.lower",
    "query.analyze_dataflow",
    "codegen.generate",
    "codegen.compile_source",
    "query.compile",
    "query.execute",
    "parallel.execute",
    "parallel.dispatch",
    "parallel.morsel",
    "parallel.merge",
    "dist.execute",
    "dist.scatter",
    "dist.worker",
    "dist.gather",
    "dist.merge",
    "service.execute",
)


@dataclass
class PhaseStat:
    """Aggregated spans of one name: call count and total wall time."""

    name: str
    calls: int = 0
    seconds: float = 0.0

    def add(self, record: SpanRecord) -> None:
        self.calls += 1
        self.seconds += record.duration


def _plan_for(provider: Any, expr: Any) -> Any:
    canonical = canonicalize(expr)
    plan = optimize(
        translate(canonical.tree, provider.translate_options),
        provider.optimize_options,
        statistics=provider._statistics,
        param_values=canonical.bindings,
    )
    return canonical, plan


def _parallel_verdict(
    provider: Any, plan: Any, engine: str, parallelism: Optional[int]
) -> str:
    from ..query.provider import PARALLEL_ENGINES

    workers = provider._resolve_parallelism(parallelism)
    if workers < 2:
        return (
            "sequential (workers=1; request workers with in_parallel(n), "
            "using(parallelism=n) or REPRO_PARALLELISM)"
        )
    if engine not in PARALLEL_ENGINES:
        return f"sequential (engine {engine!r} emits no morsel kernels)"
    split = parallel_split(plan)
    if split.parallel:
        return (
            f"eligible (mode={split.mode}, driver=source "
            f"{split.morsel_ordinal}, workers={workers})"
        )
    reason = split.reasons[0] if split.reasons else "outside the parallel fragment"
    return f"sequential — {reason}"


def _distributed_verdict(
    provider: Any,
    plan: Any,
    engine: str,
    sources: List[Any],
    distributed: Optional[int],
) -> str:
    """The multi-process decision — empty (line omitted) when nobody
    asked for distribution, so pre-distribution reports stay byte-exact."""
    from ..query.provider import DISTRIBUTED_ENGINES
    from ..storage.struct_array import StructArray

    resolve = getattr(provider, "_resolve_distributed", None)
    if resolve is None:
        return ""
    workers = resolve(distributed)
    if workers < 2:
        return ""
    if engine not in DISTRIBUTED_ENGINES:
        return f"in-process (engine {engine!r} emits no broadcastable kernels)"
    if not sources or not all(isinstance(s, StructArray) for s in sources):
        return (
            "in-process (sources are not all StructArrays; "
            "shards own column buffers)"
        )
    split = distributed_split(plan)
    if split.parallel:
        return (
            f"eligible (mode={split.mode}, driver=source "
            f"{split.morsel_ordinal}, workers={workers})"
        )
    reason = (
        split.reasons[0] if split.reasons else "outside the distributable fragment"
    )
    return f"in-process — {reason}"


def _pipeline_section(
    provider: Any,
    canonical: Any,
    sources: List[Any],
    plan: Any,
    engine: str,
) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Render the pipeline schedule of the shared IR, one line per
    pipeline (id, driver, fused operators, sink breaker), plus the
    dataflow-fact lines; the hybrid engines additionally show each
    pipeline's managed/native placement."""
    from ..analysis import elision_enabled

    try:
        ir = provider._ir_for(canonical, sources, plan, engine)
    except UnsupportedQueryError:
        return (), ()
    placements: Dict[int, str] = (
        hybrid_placements(ir)
        if engine in ("hybrid", "hybrid_buffered")
        else {}
    )
    lines = []
    for pipeline in ir.pipelines:
        text = f"p{pipeline.pid}: {pipeline.describe()}"
        placement = placements.get(pipeline.pid)
        if placement is not None:
            text += f" [{placement}]"
        lines.append(text)
    facts_lines: Tuple[str, ...] = ()
    try:
        facts = provider._facts_for(canonical, sources, plan=plan, engine=engine)
    except UnsupportedQueryError:
        facts = None
    if facts is not None:
        facts_lines = tuple(facts.render_lines(elision_enabled()))
    return tuple(lines), facts_lines


@dataclass
class ExplainReport:
    """What *would* run: plan, engine, capability, parallel decision."""

    engine: str
    plan_text: str
    supported: bool
    capability_reasons: Tuple[str, ...] = ()
    pipelines: Tuple[str, ...] = ()
    facts: Tuple[str, ...] = ()
    parallel: str = ""
    adaptive: str = ""
    #: multi-process decision; empty = nobody requested distribution
    distributed: str = ""

    def render(self) -> str:
        lines = [self.plan_text.rstrip("\n")]
        lines.append(f"engine: {self.engine}")
        if self.supported:
            lines.append("capability: supported")
        else:
            lines.append("capability: unsupported")
            for reason in self.capability_reasons:
                lines.append(f"  - {reason}")
        if self.pipelines:
            lines.append("pipelines:")
            for line in self.pipelines:
                lines.append(f"  {line}")
        if self.facts:
            lines.append("facts:")
            for line in self.facts:
                lines.append(f"  {line}")
        if self.parallel:
            lines.append(f"parallel: {self.parallel}")
        if self.distributed:
            lines.append(f"distributed: {self.distributed}")
        if self.adaptive:
            lines.append(f"adaptive: {self.adaptive}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _adaptive_verdict(
    provider: Any, expr: Any, sources: List[Any], engine: str, adaptive: Any
) -> str:
    """The decision the chooser would make right now (EXPLAIN is a dry
    run: no exploration, no observation, no profile mutation)."""
    resolve = getattr(provider, "_adaptive_controller", None)
    if resolve is None:
        return ""
    try:
        controller = resolve(adaptive, engine)
        if controller is None:
            return ""
        resolved = provider._resolve(expr, sources, engine)
        _, _, decision = provider._adaptive_decide(
            resolved, sources, engine, controller, explore=False
        )
        return decision.describe()
    except Exception:  # noqa: BLE001 - explain must never fail on adaptivity
        return ""


def explain_report(
    provider: Any,
    expr: Any,
    sources: List[Any],
    engine: str,
    parallelism: Optional[int] = None,
    adaptive: Any = None,
    distributed: Optional[int] = None,
) -> ExplainReport:
    """Build the static EXPLAIN report for one query/engine pairing."""
    if engine == "linq":
        return ExplainReport(
            engine="linq",
            plan_text=_LINQ_PLAN,
            supported=True,
            parallel="sequential (the interpreted baseline never parallelizes)",
        )
    canonical, plan = _plan_for(provider, expr)
    analysis = provider._analysis_for(canonical, sources)
    plan_types = validate_plan(plan, analysis.source_types, params=canonical.bindings)
    report = capability_report(plan, engine, sources, plan_types)
    pipelines, facts = _pipeline_section(provider, canonical, sources, plan, engine)
    return ExplainReport(
        engine=engine,
        plan_text=plan_to_text(plan),
        supported=report.supported,
        capability_reasons=tuple(report.reasons),
        pipelines=pipelines,
        facts=facts,
        parallel=_parallel_verdict(provider, plan, engine, parallelism),
        adaptive=_adaptive_verdict(provider, expr, sources, engine, adaptive),
        distributed=_distributed_verdict(
            provider, plan, engine, sources, distributed
        ),
    )


@dataclass
class ExplainAnalysis:
    """What actually ran: the plan annotated with measured spans."""

    engine: str
    plan_text: str
    rows: int
    cache: str
    #: result-recycler verdict (``hit|delta|full|miss`` + fallback
    #: reason), empty when the provider does not recycle
    recycle: str = ""
    phases: Dict[str, PhaseStat] = field(default_factory=dict)
    parallel: str = ""
    adaptive: str = ""
    #: multi-process accounting; empty = the run was in-process
    distributed: str = ""
    morsels: int = 0
    spans: List[SpanRecord] = field(default_factory=list)

    def phase_seconds(self, name: str) -> float:
        stat = self.phases.get(name)
        return stat.seconds if stat else 0.0

    def render(self) -> str:
        lines = [self.plan_text.rstrip("\n")]
        lines.append(f"engine: {self.engine}")
        lines.append(f"rows: {self.rows}")
        lines.append(f"cache: {self.cache}")
        if self.recycle:
            lines.append(f"recycle: {self.recycle}")
        if self.parallel:
            lines.append(f"parallel: {self.parallel}")
        if self.distributed:
            lines.append(f"distributed: {self.distributed}")
        if self.adaptive:
            lines.append(f"adaptive: {self.adaptive}")
        lines.append("phases (wall ms):")
        for stat in self.phases.values():
            lines.append(
                f"  {stat.name:<24s} {stat.seconds * 1e3:>10.3f}  x{stat.calls}"
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _fold_phases(spans: List[SpanRecord]) -> Dict[str, PhaseStat]:
    order = {name: i for i, name in enumerate(_PHASE_ORDER)}
    stats: Dict[str, PhaseStat] = {}
    for record in spans:
        stat = stats.get(record.name)
        if stat is None:
            stat = stats[record.name] = PhaseStat(record.name)
        stat.add(record)
    ranked = sorted(stats.values(), key=lambda s: order.get(s.name, len(order)))
    return {stat.name: stat for stat in ranked}


def explain_analyze(
    provider: Any,
    expr: Any,
    sources: List[Any],
    engine: str,
    params: Dict[str, Any],
    parallelism: Optional[int] = None,
    morsel_size: Optional[int] = None,
    adaptive: Any = None,
    distributed: Optional[int] = None,
    runner: Optional[Any] = None,
) -> ExplainAnalysis:
    """Execute the query under a span capture and fold the evidence.

    Works for every engine including ``linq`` (whose phases are analysis
    and interpreted execution).  Spans from worker threads — morsel
    kernels — land in the same capture, so parallel runs report their
    dispatch/merge accounting too.

    *runner*, when given, replaces the direct ``provider.execute`` call
    with an arbitrary zero-argument callable returning the materialized
    rows — ``QuerySession.explain_analyze`` passes its serving path
    here, so the phase table gains the ``service.queue_wait`` /
    ``service.execute`` rows.
    """
    with TRACER.capture() as spans:
        if runner is not None:
            rows = len(runner())
        else:
            iterator = provider.execute(
                expr,
                sources,
                engine,
                params,
                parallelism=parallelism,
                morsel_size=morsel_size,
                # omit when unset: providers predating these layers
                **({} if adaptive is None else {"adaptive": adaptive}),
                **(
                    {}
                    if distributed is None
                    else {"distributed": distributed}
                ),
            )
            rows = 0
            for _ in iterator:
                rows += 1
    phases = _fold_phases(spans)

    cache = "n/a (linq never compiles)" if engine == "linq" else "miss"
    adaptive_line = ""
    recycle = ""
    for record in spans:
        if record.name == "query.cache_lookup":
            cache = "hit" if record.attrs.get("hit") else "miss"
        elif record.name == "query.decide":
            adaptive_line = record.attrs.get("decision", "")
        elif record.name == "query.recycle":
            mode = record.attrs.get("mode", "")
            reason = record.attrs.get("reason", "")
            recycle = f"{mode} — {reason}" if reason else mode
    morsels = sum(1 for r in spans if r.name == "parallel.morsel")

    if engine == "linq":
        plan_text = _LINQ_PLAN
        parallel = ""
        distributed_line = ""
    else:
        _, plan = _plan_for(provider, expr)
        plan_text = plan_to_text(plan)
        parallel = ""
        distributed_line = ""
        for record in spans:
            if record.name == "parallel.execute":
                parallel = (
                    f"{record.attrs.get('workers', '?')} workers x "
                    f"{record.attrs.get('morsels', '?')} morsels "
                    f"(mode={record.attrs.get('mode', '?')})"
                )
            elif record.name == "dist.execute":
                distributed_line = (
                    f"{record.attrs.get('workers', '?')} worker processes x "
                    f"{record.attrs.get('grant', '?')} shards "
                    f"(mode={record.attrs.get('mode', '?')})"
                )
        if not parallel:
            parallel = _parallel_verdict(provider, plan, engine, parallelism)
        if not distributed_line:
            distributed_line = _distributed_verdict(
                provider, plan, engine, sources, distributed
            )

    return ExplainAnalysis(
        engine=engine,
        plan_text=plan_text,
        rows=rows,
        cache=cache,
        recycle=recycle,
        phases=phases,
        parallel=parallel,
        adaptive=adaptive_line,
        distributed=distributed_line,
        morsels=morsels,
        spans=list(spans),
    )
