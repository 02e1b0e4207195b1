"""The warm path: canonical forms memoized on the immutable query tree.

A query re-executed with fresh parameter values reuses the canonical form
stored on its root node, so it never folds, parameterizes, or walks the
tree for a structural key again.  These tests count that work (counts,
not timings) on every engine and serving path, and pin the memo's
soundness conditions: trees embedding mutable constants are never
memoized, the memo does not keep a dropped tree alive, concurrent
canonicalization agrees, and reports read the same with or without it.

Also pins the span-coverage invariant: the top-level phases of
``explain_analyze`` cover the measured wall time of a sequential run on
every compiled engine, eager ones included.
"""

import gc
import threading
import time
import weakref

import pytest

from repro import P
from repro.expressions import canonical as canonical_mod
from repro.expressions.canonical import canonicalize
from repro.expressions.nodes import (
    Binary,
    Call,
    Constant,
    Lambda,
    Member,
    QueryOp,
    SourceExpr,
    Var,
)
from repro.observability.explain import explain_analyze
from repro.query import QueryProvider, RecyclingProvider, from_struct_array
from repro.query.queryable import Query
from repro.service import QuerySession
from repro.storage import Field, Schema, StructArray
from repro.tpch import TPCHData, queries

SCHEMA = Schema([Field("g", "int"), Field("v", "float")], name="Warm")
ROWS = [(i % 7, float(i)) for i in range(64)]

#: engines that accept this flat StructArray query shape; the Min hybrids
#: take only a sort/top-N or join natively, so they run the same count
#: through a join-free shape of their own below
ENGINES = ("linq", "compiled", "native", "hybrid", "hybrid_buffered")

N = 6


def _array():
    return StructArray.from_rows(SCHEMA, ROWS)


def _template(engine, provider):
    return (
        from_struct_array(_array())
        .using(engine, provider)
        .where(lambda r: (r.g < P("limit")) & (r.v > 2.5 * 2))
        .select(lambda r: r.v + 1.0)
    )


def _expected(limit):
    return [v + 1.0 for g, v in ROWS if g < limit and v > 5.0]


class _Counts:
    """Counts folding passes, parameterizing passes and root-key walks."""

    def __init__(self, monkeypatch):
        self.folds = self.params = self.keys = 0
        counts = self
        folder = canonical_mod._ConstantFolder
        parameterize = canonical_mod.parameterize
        structural_key = canonical_mod.structural_key

        class CountingFolder(folder):
            def __init__(self):
                counts.folds += 1
                super().__init__()

        def counting_parameterize(expr):
            counts.params += 1
            return parameterize(expr)

        def counting_key(expr):
            counts.keys += 1
            return structural_key(expr)

        monkeypatch.setattr(canonical_mod, "_ConstantFolder", CountingFolder)
        monkeypatch.setattr(canonical_mod, "parameterize", counting_parameterize)
        monkeypatch.setattr(canonical_mod, "structural_key", counting_key)

    def snapshot(self):
        return (self.folds, self.params, self.keys)


def _assert_warm(counts, run):
    """First call canonicalizes once; the next N calls do no such work."""
    run(0)
    assert counts.snapshot() == (1, 1, counts.keys)
    assert counts.keys <= 1  # once per shape (linq never needs the key)
    first = counts.snapshot()
    for i in range(1, N + 1):
        run(i)
    assert counts.snapshot() == first


@pytest.mark.parametrize("engine", ENGINES)
def test_with_params_warm_path_does_no_canonical_work(engine, monkeypatch):
    provider = QueryProvider()
    template = _template(engine, provider)
    counts = _Counts(monkeypatch)

    def run(i):
        limit = 1 + i % 6
        assert template.with_params(limit=limit).to_list() == _expected(limit)

    _assert_warm(counts, run)


@pytest.mark.parametrize("engine", ("hybrid_min", "hybrid_min_buffered"))
def test_min_hybrid_warm_path_does_no_canonical_work(engine, monkeypatch):
    provider = QueryProvider()
    template = (
        from_struct_array(_array())
        .using(engine, provider)
        .order_by(lambda r: r.v)
        .take(3 * 2)
    )
    counts = _Counts(monkeypatch)

    def run(i):
        assert len(template.with_params(unused=i).to_list()) == 6

    _assert_warm(counts, run)


def test_prepared_statement_warm_path(monkeypatch):
    with QuerySession(provider=QueryProvider(), engine="compiled") as session:
        counts = _Counts(monkeypatch)
        statement = session.prepare(
            session.query(_array()).where(lambda r: r.g < P("limit"))
        )
        prepared = counts.snapshot()
        assert prepared[:2] == (1, 1)
        for i in range(N):
            limit = 1 + i % 6
            assert len(statement.execute(limit=limit)) == sum(
                1 for g, _ in ROWS if g < limit
            )
        assert counts.snapshot() == prepared


def test_recycling_provider_warm_path(monkeypatch):
    provider = RecyclingProvider()
    template = _template("compiled", provider)
    counts = _Counts(monkeypatch)

    def run(i):
        # fresh values miss the result cache; repeats hit it
        limit = 1 + i % 3
        assert template.with_params(limit=limit).to_list() == _expected(limit)

    _assert_warm(counts, run)
    assert provider.recycler_stats.hits > 0


def test_warm_execution_derives_each_key_once(monkeypatch):
    # one compiled key and one facts lookup per warm sequential execution
    provider = QueryProvider()
    template = _template("native", provider).in_parallel(1)
    template.with_params(limit=3).to_list()
    calls = []
    cache_key = canonical_mod.cache_key

    def counting(canonical, engine, options=()):
        calls.append(engine)
        return cache_key(canonical, engine, options)

    monkeypatch.setattr("repro.query.provider.cache_key", counting)
    template.with_params(limit=4).to_list()
    assert sorted(calls) == ["::facts", "native"]


# ---------------------------------------------------------------------------
# soundness of the memo
# ---------------------------------------------------------------------------


def _len_of_list_query(limits, engine):
    """``where(r.g < len(limits))`` built from nodes, so the captured list
    itself (not its length at trace time) sits in the tree."""
    predicate = Lambda(
        ("r",),
        Binary("lt", Member(Var("r"), "g"), Call("len", (Constant(limits),))),
    )
    array = _array()
    expr = QueryOp("where", SourceExpr(0, array.schema.token), (predicate,))
    return Query(expr, (array,), engine=engine)


@pytest.mark.parametrize("engine", ("compiled", "native"))
def test_mutable_captured_list_is_never_memoized(engine):
    limits = [0, 0]
    query = _len_of_list_query(limits, engine)
    baseline = Query(query.expr, query.sources, engine="linq")
    assert query.to_list() == baseline.to_list()
    limits.extend([0, 0, 0])  # folding len(limits) now yields 5, not 2
    after = query.to_list()
    assert after == baseline.to_list()
    assert len(after) == sum(1 for g, _ in ROWS if g < 5)
    assert canonicalize(query.expr) is not canonicalize(query.expr)


def test_immutable_tree_is_memoized():
    query = _template("compiled", QueryProvider())
    assert canonicalize(query.expr) is canonicalize(query.expr)


def test_dropped_one_off_query_is_collected():
    provider = QueryProvider()
    # no constants: nothing folds or lifts, so canonical.tree is the root
    # itself and the memo forms a reference cycle
    query = (
        from_struct_array(_array())
        .using("compiled", provider)
        .where(lambda r: r.g < P("limit"))
    )
    assert canonicalize(query.expr).tree is query.expr
    assert len(query.with_params(limit=3).to_list()) == sum(
        1 for g, _ in ROWS if g < 3
    )
    root = weakref.ref(query.expr)
    del query
    gc.collect()
    assert root() is None


def test_concurrent_canonicalization_agrees():
    for _ in range(20):
        query = _template("compiled", QueryProvider())
        barrier = threading.Barrier(2)
        results = [None, None]

        def work(slot):
            barrier.wait()
            results[slot] = canonicalize(query.expr)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        first, second = results
        assert first.key == second.key
        assert first.bindings == second.bindings
        assert first.tree == second.tree
    rows = [query.with_params(limit=4).to_list() for _ in range(2)]
    assert rows[0] == rows[1] == _expected(4)


def test_explain_unchanged_by_the_memo():
    provider = QueryProvider()
    fresh = _template("native", provider).explain()
    query = _template("native", provider)
    for limit in (2, 3, 4):
        query.with_params(limit=limit).to_list()
    assert canonicalize(query.expr) is canonicalize(query.expr)
    assert query.explain() == fresh


# ---------------------------------------------------------------------------
# span coverage: eager engines report their kernel time
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tpch_data():
    return TPCHData(scale=0.01)


@pytest.mark.parametrize("engine", ("compiled", "native", "hybrid", "hybrid_buffered"))
def test_sequential_phases_cover_wall_time(engine, tpch_data):
    provider = QueryProvider()
    query = queries.q1(tpch_data, engine, provider).in_parallel(1)
    query.to_list()  # compile outside the measurement
    walls = []

    def runner():
        started = time.perf_counter()
        rows = list(
            provider.execute(
                query.expr, list(query.sources), engine, query.params, parallelism=1
            )
        )
        walls.append(time.perf_counter() - started)
        return rows

    analysis = explain_analyze(
        provider, query.expr, list(query.sources), engine, query.params, runner=runner
    )
    top_level = sum(r.duration for r in analysis.spans if r.parent_id is None)
    assert analysis.rows == 4
    assert top_level >= 0.9 * walls[0], (engine, top_level, walls[0])
