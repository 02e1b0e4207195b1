"""Lambda effect analysis: names count by how they are loaded.

A nondeterminism or I/O name counts only when the lambda loads it as a
global or closure variable, or as an attribute chained off one.  Record
fields that share a name with the clock, the RNG or a file method
(``r.id``, ``r.time``, ``r.write``) are pure: a wrong "impure" verdict
silently forces sequential execution and bypasses the recycler.
"""

import random
import random as rnd
import time

from repro import new
from repro.analysis.effects import analyze_callable
from repro.query import RecyclingProvider, from_iterable
from repro.storage import Field, Schema, StructArray

SCHEMA = Schema(
    [Field("id", "int"), Field("time", "float"), Field("write", "int")],
    name="Fx",
)
OBJECTS = StructArray.from_rows(
    SCHEMA, [(i, i * 0.5, i % 3) for i in range(12)]
).to_objects()


def test_record_fields_named_like_effects_are_pure():
    for fn in (
        lambda r: r.id,
        lambda r: r.time > 3,
        lambda r: r.write,
        lambda r: r.sample.choice,
        lambda r: new(i=r.id, t=r.time, w=r.write),
    ):
        assert analyze_callable(fn).pure, fn


def test_clock_and_rng_stay_nondeterministic():
    generator = random.Random(7)
    for fn, name in (
        (lambda r: r.time + time.time(), "time"),
        (lambda r: rnd.random(), "random"),
        (lambda r: generator.random() + r.id, "random"),
        (lambda r: id(r), "id"),
    ):
        report = analyze_callable(fn)
        assert report.nondeterministic and not report.impure, fn
        assert report.reasons == (f"references nondeterministic name {name!r}",)


def test_print_stays_io():
    report = analyze_callable(lambda r: print(r.write))
    assert report.io
    assert report.reasons == ("performs I/O via 'print'",)


def test_mutator_detection_unchanged():
    seen = []
    report = analyze_callable(lambda r: seen.append(r.id))
    assert report.mutates
    assert "captures mutable list 'seen'" in report.reasons[0]


def test_field_named_id_recycles():
    provider = RecyclingProvider()
    query = (
        from_iterable(OBJECTS, schema=SCHEMA)
        .using("compiled", provider)
        .where(lambda r: r.time > 2.0)
        .select(lambda r: new(i=r.id, w=r.write))
    )
    assert "effects: pure" in query.explain()
    first, second = query.to_list(), query.to_list()
    assert first == second
    assert [row.i for row in first] == list(range(5, 12))
    assert provider.recycler_stats.hits == 1
