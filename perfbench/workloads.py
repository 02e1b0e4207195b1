"""The benchmark's workloads: seeded request streams for one closed-loop client.

Every workload follows one protocol:

* ``setup()`` generates the data from the seed, builds the query templates
  and warms every cache the timed phase will hit; it is what ``setup_s``
  times.
* ``requests()`` yields an endless, seed-determined stream of requests.
  Warm requests cycle through every request class in a seeded order, so
  each class is equally represented whatever the run length; novel-shape
  requests are interleaved at a fixed share.
* ``prepare()`` turns a request into a zero-argument callable outside the
  timed region (query building is the client's work, not the library's).
* ``check()`` compares the recorded results against the oracles, after
  the timed phase.

Request kinds: ``warm`` (shape compiled during set-up, parameters redrawn),
``novel`` (a grammar shape never issued before in the run) and ``append``.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import P
from repro.query import QueryProvider, RecyclingProvider
from repro.service import QueryService
from repro.tpch import TPCHData, queries
from repro.tpch.datagen import PRIORITIES, REGIONS, SEGMENTS, TYPE_SYLL3

from . import grammar
from .grammar import MirrorTable
from .oracle import ReferenceOracle, Verdicts, decode_rows

QUERIES = ("q1", "q2", "q3", "q4", "q13", "q16", "q21", "q22")
OBJECT_AND_ARRAY_ENGINES = ("compiled", "native", "hybrid", "hybrid_buffered")


@dataclass
class Request:
    kind: str  # "warm" | "novel" | "append"
    label: str  # TPC-H query name, "grammar" or "ingest"
    engine: str = "native"
    params: Dict[str, Any] = field(default_factory=dict)
    instance: Optional[grammar.Instance] = None
    batch: int = 0  # ingest batch number


@dataclass
class Outcome:
    request: Request
    seconds: float
    result: Any = None
    error: Optional[str] = None
    #: the table state a versioned read ran against (ingest only)
    snapshot: Any = None
    #: start time within the loop, for the host-speed factor
    at: float = 0.0


def draw_params(query: str, rng: np.random.Generator) -> Dict[str, Any]:
    """Substitution parameters from the TPC-H ranges (stand-ins where the
    repo's queries replace a text pattern with a value predicate)."""
    if query == "q1":
        delta = int(rng.integers(60, 121))
        return {"cutoff": datetime.date(1998, 12, 1) - datetime.timedelta(days=delta)}
    if query == "q2":
        return {
            "size": int(rng.integers(1, 51)),
            "type_suffix": str(rng.choice(TYPE_SYLL3)),
            "region": str(rng.choice(REGIONS)),
        }
    if query == "q3":
        day = int(rng.integers(0, 31))
        return {
            "segment": str(rng.choice(SEGMENTS)),
            "date": datetime.date(1995, 3, 1) + datetime.timedelta(days=day),
        }
    if query == "q4":
        month = int(rng.integers(0, 58))
        lo = datetime.date(1993 + month // 12, 1 + month % 12, 1)
        end = month + 3
        hi = datetime.date(1993 + end // 12, 1 + end % 12, 1)
        return {"date_lo": lo, "date_hi": hi}
    if query == "q13":
        return {"exclude": str(rng.choice(PRIORITIES))}
    if query == "q16":
        brand = f"Brand#{int(rng.integers(1, 6))}{int(rng.integers(1, 6))}"
        return {"brand": brand, "max_size": int(rng.integers(10, 51)), "min_bal": 0.0}
    if query == "q21":
        return {"status": str(rng.choice(["F", "O"]))}
    if query == "q22":
        # wide enough that the scalar sub-query's average always exists,
        # even over the 15 customers of the smallest scale
        return {"nations": int(rng.integers(18, 26))}
    raise ValueError(f"unknown query {query!r}")


def _acctbal(c: Any) -> Any:
    return c.c_acctbal


class World:
    """Everything one set-up built: data, provider, templates."""

    def __init__(self, data: TPCHData, provider: Any):
        self.data = data
        self.provider = provider
        self.templates: Dict[Tuple[str, str], Any] = {}
        self.q22_avg: Dict[str, Any] = {}
        self.lineitem: Dict[str, Any] = {}

    def add_templates(self, engine: str, parallelism: int = 1) -> None:
        for name in QUERIES:
            query = getattr(queries, name)(self.data, engine, self.provider)
            self.templates[(name, engine)] = query.in_parallel(parallelism)
        # Q22's scalar sub-query, rebuilt per request with its own bindings
        customer = queries.relation_query(self.data, "customer", engine, self.provider)
        self.q22_avg[engine] = customer.where(
            lambda c: (c.c_acctbal > 0.0) & (c.c_nationkey < P("nations"))
        ).in_parallel(parallelism)
        self.lineitem[engine] = queries.relation_query(
            self.data, "lineitem", engine, self.provider
        ).in_parallel(parallelism)

    def tpch_call(self, request: Request) -> Callable[[], Any]:
        template = self.templates[(request.label, request.engine)]
        params = request.params
        if request.label != "q22":
            bound = template.with_params(**params)
            return bound.to_list
        inner = self.q22_avg[request.engine].with_params(**params)

        def run() -> List[Any]:
            avg_bal = inner.average(_acctbal)
            return template.with_params(avg_bal=avg_bal, **params).to_list()

        return run

    def grammar_call(self, request: Request) -> Callable[[], Any]:
        return request.instance.build(self.lineitem[request.engine]).to_list


class Workload:
    """Base class: seeded streams and the shared warm-cycle scheduler."""

    name = ""
    #: morsel workers per query (1 = sequential)
    workers = 1
    #: the calibration kernel that tracks this workload's host speed
    host_kernel = "interpreter"
    #: one novel-shape request after every this many warm requests
    warm_per_novel = 9

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.data_seed = 1_000 + seed
        self.shapes = grammar.ShapeStream(seed)
        #: shapes consumed while warming up; never replayed as novel
        self.warmup_shapes = [self.shapes.next() for _ in range(2)]

    def setup(self) -> Any:
        raise NotImplementedError

    def requests(self) -> Iterator[Request]:
        raise NotImplementedError

    def prepare(self, world: Any, request: Request) -> Callable[[], Any]:
        raise NotImplementedError

    def check(self, world: Any, outcomes: Sequence[Outcome], verdicts: Verdicts) -> None:
        raise NotImplementedError

    def delta_counts(self, world: Any) -> Tuple[int, int]:
        return (0, 0)

    def pin(self, world: Any, request: Request) -> Any:
        """The table state *request* will read, kept for the oracle."""
        return None

    def _warm_cycles(
        self,
        classes: List[Tuple[str, str]],
        draw: Callable[[str, np.random.Generator], Dict[str, Any]],
        novel_engines: Sequence[str],
    ) -> Iterator[Request]:
        rng = np.random.default_rng([self.seed, 0xC1A55])
        warm = 0
        novel = 0
        while True:
            for index in rng.permutation(len(classes)).tolist():
                query, engine = classes[index]
                yield Request("warm", query, engine, draw(query, rng))
                warm += 1
                if warm % self.warm_per_novel == 0:
                    engine = novel_engines[novel % len(novel_engines)]
                    novel += 1
                    yield Request("novel", "grammar", engine, instance=self.shapes.next())


class InteractiveSmall(Workload):
    """Tiny data, so the front end and the compile pipeline do most of the
    work and kernels do little."""

    name = "interactive_small"
    scale = 0.0001
    warm_per_novel = 19

    def setup(self) -> World:
        data = TPCHData(scale=self.scale, seed=self.data_seed)
        world = World(data, QueryProvider())
        for engine in OBJECT_AND_ARRAY_ENGINES:
            world.add_templates(engine)
        rng = np.random.default_rng([self.seed, 0x5E7])
        for (name, engine) in world.templates:
            world.tpch_call(Request("warm", name, engine, draw_params(name, rng)))()
        for engine in OBJECT_AND_ARRAY_ENGINES:
            for instance in self.warmup_shapes:
                instance.build(world.lineitem[engine]).to_list()
        return world

    def requests(self) -> Iterator[Request]:
        classes = [(q, e) for q in QUERIES for e in OBJECT_AND_ARRAY_ENGINES]
        return self._warm_cycles(classes, draw_params, OBJECT_AND_ARRAY_ENGINES)

    def prepare(self, world: World, request: Request) -> Callable[[], Any]:
        if request.kind == "novel":
            return world.grammar_call(request)
        return world.tpch_call(request)

    def check(self, world: World, outcomes: Sequence[Outcome], verdicts: Verdicts) -> None:
        reference = ReferenceOracle(world.data.arrays)
        # the interpreted engine over the managed rows every engine's
        # source decodes to (StructArray rows read the same values)
        rows = queries.relation_query(world.data, "lineitem", "linq", QueryProvider())
        for outcome in outcomes:
            request = outcome.request
            if outcome.error is not None:
                continue
            if request.kind == "warm":
                want = reference.expected(request.label, request.params)
                verdicts.check(f"{request.label}/{request.engine}", outcome.result, want)
            else:
                want = request.instance.build(rows).to_list()
                verdicts.check(
                    f"grammar/{request.engine} {request.instance.shape.describe()}",
                    outcome.result,
                    want,
                    ordered=False,
                )


class AnalyticNative(Workload):
    """Large StructArrays on the native engine with 2 morsel workers:
    kernels, dispatch and merge do nearly all the work."""

    name = "analytic_native"
    scale = 0.1
    workers = 2
    # two threads of NumPy kernels slow down about half as much as the
    # interpreter when the host is busy, so they get a kernel like them
    host_kernel = "threaded_numpy"
    warm_per_novel = 2
    #: parameter sets per query (the analyst's small set of report settings)
    param_sets = 2

    def __init__(self, seed: int, quick: bool = False):
        super().__init__(seed, quick)
        if quick:
            self.scale = 0.002
        # fixed report settings, the same for every seed: Q16's cost alone
        # triples across its size range, which would swamp the comparison
        rng = np.random.default_rng(0xA7A1)
        self.params = {
            q: [draw_params(q, rng) for _ in range(self.param_sets)] for q in QUERIES
        }

    def _draw(self, query: str, rng: np.random.Generator) -> Dict[str, Any]:
        return self.params[query][int(rng.integers(0, self.param_sets))]

    def setup(self) -> World:
        data = TPCHData(scale=self.scale, seed=self.data_seed)
        world = World(data, QueryProvider())
        world.add_templates("native", self.workers)
        for name in QUERIES:
            for params in self.params[name]:
                world.tpch_call(Request("warm", name, "native", params))()
        for instance in self.warmup_shapes:
            instance.build(world.lineitem["native"]).to_list()
        return world

    def requests(self) -> Iterator[Request]:
        return self._warm_cycles([(q, "native") for q in QUERIES], self._draw, ("native",))

    def prepare(self, world: World, request: Request) -> Callable[[], Any]:
        if request.kind == "novel":
            return world.grammar_call(request)
        return world.tpch_call(request)

    def check(self, world: World, outcomes: Sequence[Outcome], verdicts: Verdicts) -> None:
        reference = ReferenceOracle(world.data.arrays)
        mirror = MirrorTable(world.data.arrays("lineitem"))
        for outcome in outcomes:
            request = outcome.request
            if outcome.error is not None:
                continue
            if request.kind == "warm":
                want = reference.expected(request.label, request.params)
                verdicts.check(request.label, outcome.result, want)
            else:
                verdicts.check(
                    f"grammar {request.instance.shape.describe()}",
                    outcome.result,
                    request.instance.expected(mirror),
                    ordered=False,
                )


class _Pinned:
    """A TPCHData stand-in whose lineitem is one pinned snapshot."""

    def __init__(self, data: TPCHData, lineitem: Any):
        self._data = data
        self._lineitem = lineitem

    def arrays(self, name: str) -> Any:
        return self._lineitem if name == "lineitem" else self._data.arrays(name)


class IngestWorld(World):
    def __init__(self, data: TPCHData, provider: Any, source_rows: List[tuple]):
        super().__init__(data, provider)
        self.service = QueryService(provider=provider)
        self.session = self.service.session()
        self.table = data.arrays("lineitem")
        self.source_rows = source_rows
        self.reads: Dict[str, Any] = {}


class IngestRefresh(Workload):
    """Appends interleaved with reads on one session over a recycling
    provider: storage append and snapshot, delta and full-rerun paths."""

    name = "ingest_refresh"
    scale = 0.01
    batch_rows = 32
    #: one novel-shape read after every this many rounds
    rounds_per_novel = 2
    #: the fixed read mix after each append; "q1c" is Q1 on the compiled
    #: engine over the same StructArray
    READS = ("q1", "q1c", "q3", "q4", "q21")
    #: TPC-H reads are re-checked on every this many table versions and on
    #: the last one (a wrong delta merge stays wrong in every later version);
    #: novel-shape reads are all checked
    check_stride = 4

    def __init__(self, seed: int, quick: bool = False):
        super().__init__(seed, quick)
        if quick:
            self.scale = 0.001

    def setup(self) -> IngestWorld:
        data = TPCHData(scale=self.scale, seed=self.data_seed)
        # appended rows come from a second dataset with its own seed
        source = TPCHData(scale=self.scale, seed=self.data_seed + 7_919)
        world = IngestWorld(data, RecyclingProvider(), decode_rows(source.arrays("lineitem")))
        for name in ("q1", "q3", "q4", "q21"):
            world.reads[name] = getattr(queries, name)(data, "native", world.provider)
        world.reads["q1c"] = world.reads["q1"].using("compiled")
        world.lineitem["native"] = queries.relation_query(data, "lineitem", "native", world.provider)
        for name in self.READS:
            world.session.execute(world.reads[name])
        world.session.ingest(world.table, world.source_rows[: self.batch_rows])
        for name in self.READS:
            world.session.execute(world.reads[name])
        for instance in self.warmup_shapes:
            world.session.execute(instance.build(world.lineitem["native"]))
        return world

    def requests(self) -> Iterator[Request]:
        batch = 1  # batch 0 went in during warm-up
        while True:
            yield Request("append", "ingest", batch=batch)
            for name in self.READS:
                yield Request("warm", name)
            if batch % self.rounds_per_novel == 0:
                yield Request("novel", "grammar", instance=self.shapes.next())
            batch += 1

    def pin(self, world: IngestWorld, request: Request) -> Any:
        return None if request.kind == "append" else world.table.snapshot()

    def prepare(self, world: IngestWorld, request: Request) -> Callable[[], Any]:
        session = world.session
        if request.kind == "append":
            # the source is cycled if a run outlasts it
            batches = len(world.source_rows) // self.batch_rows
            lo = (request.batch % batches) * self.batch_rows
            rows = world.source_rows[lo : lo + self.batch_rows]
            return lambda: session.ingest(world.table, rows)
        if request.kind == "novel":
            query = request.instance.build(world.lineitem["native"])
        else:
            query = world.reads[request.label]
        return lambda: session.execute(query)

    def check(self, world: IngestWorld, outcomes: Sequence[Outcome], verdicts: Verdicts) -> None:
        oracle = QueryProvider()
        expected: Dict[Tuple[str, int], Any] = {}
        reads = [o for o in outcomes if o.request.kind != "append" and o.error is None]
        last = reads[-1].snapshot.version if reads else -1
        for outcome in reads:
            request, snap = outcome.request, outcome.snapshot
            if request.kind == "novel":
                verdicts.check(
                    f"grammar {request.instance.shape.describe()}",
                    outcome.result,
                    request.instance.expected(MirrorTable(snap)),
                    ordered=False,
                )
                continue
            if snap.version % self.check_stride and snap.version != last:
                continue
            name = "q1" if request.label == "q1c" else request.label
            key = (name, snap.version)
            if key not in expected:
                pinned = _Pinned(world.data, snap)
                expected[key] = getattr(queries, name)(pinned, "native", oracle).to_list()
            verdicts.check(f"{request.label}@v{snap.version}", outcome.result, expected[key])

    def delta_counts(self, world: IngestWorld) -> Tuple[int, int]:
        stats = world.provider.recycler_stats
        return stats.delta_hits, stats.full_reruns


WORKLOADS = {w.name: w for w in (InteractiveSmall, IngestRefresh, AnalyticNative)}
