"""A seeded grammar of lineitem query shapes the provider has never seen.

A *shape* is the structure of a query: which filter conjuncts it has, which
fields it groups by, which aggregates it computes and whether it sorts.
Constants inside a shape are redrawn per request, but the provider lifts
constants into parameters, so two requests of one shape share compiled
code.  Novel-shape traffic therefore varies structure, never only
constants, and :class:`ShapeStream` hands out every shape at most once.
"""

from __future__ import annotations

import datetime
import itertools
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro import new

_EPOCH = datetime.date(1970, 1, 1)
_SHIP_MODES = ("REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB")


def _date(rng: np.random.Generator) -> datetime.date:
    return datetime.date(1992, 1, 1) + datetime.timedelta(
        days=int(rng.integers(400, 2400))
    )


@dataclass(frozen=True)
class Conjunct:
    """One filter conjunct: traced predicate, value draw and NumPy mirror."""

    name: str
    predicate: Callable[[Any, Any], Any]
    draw: Callable[[np.random.Generator], Any]
    mask: Callable[[Dict[str, np.ndarray], Any], np.ndarray]


def _days(value: datetime.date) -> int:
    return (value - _EPOCH).days


CONJUNCTS: Tuple[Conjunct, ...] = (
    Conjunct(
        "qty_lt",
        lambda l, c: l.l_quantity < c,
        lambda r: float(r.integers(5, 51)),
        lambda cols, c: cols["l_quantity"] < c,
    ),
    Conjunct(
        "disc_ge",
        lambda l, c: l.l_discount >= c,
        lambda r: round(int(r.integers(0, 9)) / 100.0, 2),
        lambda cols, c: cols["l_discount"] >= c,
    ),
    Conjunct(
        "ship_le",
        lambda l, c: l.l_shipdate <= c,
        _date,
        lambda cols, c: cols["l_shipdate"] <= _days(c),
    ),
    Conjunct(
        "flag_eq",
        lambda l, c: l.l_returnflag == c,
        lambda r: str(r.choice(["A", "N", "R"])),
        lambda cols, c: cols["l_returnflag"] == c.encode(),
    ),
    Conjunct(
        "mode_ne",
        lambda l, c: l.l_shipmode != c,
        lambda r: str(r.choice(_SHIP_MODES)),
        lambda cols, c: cols["l_shipmode"] != c.encode(),
    ),
    Conjunct(
        "price_gt",
        lambda l, c: l.l_extendedprice > c,
        lambda r: float(r.integers(1_000, 40_000)),
        lambda cols, c: cols["l_extendedprice"] > c,
    ),
    Conjunct(
        "late",
        lambda l, c: l.l_commitdate < l.l_receiptdate,
        lambda r: None,
        lambda cols, c: cols["l_commitdate"] < cols["l_receiptdate"],
    ),
    Conjunct(
        "tax_le",
        lambda l, c: l.l_tax <= c,
        lambda r: round(int(r.integers(2, 9)) / 100.0, 2),
        lambda cols, c: cols["l_tax"] <= c,
    ),
)

#: low-cardinality group-key fields
KEYS: Tuple[str, ...] = ("l_returnflag", "l_linestatus", "l_shipmode", "l_linenumber")

#: (name, kind, field) — field None for count
AGGREGATES: Tuple[Tuple[str, str, Optional[str]], ...] = (
    ("sum_qty", "sum", "l_quantity"),
    ("sum_price", "sum", "l_extendedprice"),
    ("sum_disc_price", "sum_disc_price", None),
    ("avg_disc", "avg", "l_discount"),
    ("cnt", "count", None),
    ("min_price", "min", "l_extendedprice"),
    ("max_qty", "max", "l_quantity"),
)


@dataclass(frozen=True)
class Shape:
    """Structure of one grammar query; hashable, so it de-duplicates."""

    conjuncts: Tuple[int, ...]
    keys: Tuple[int, ...]
    aggregates: Tuple[int, ...]
    ordered: bool

    def describe(self) -> str:
        conj = "&".join(CONJUNCTS[i].name for i in self.conjuncts) or "all"
        keys = ",".join(KEYS[i] for i in self.keys)
        aggs = ",".join(AGGREGATES[i][0] for i in self.aggregates)
        return f"where {conj} group {keys} agg {aggs}{' sorted' if self.ordered else ''}"


@dataclass(frozen=True)
class Instance:
    """A shape with its drawn constants: one concrete request."""

    shape: Shape
    values: Tuple[Any, ...]

    def build(self, lineitem: Any) -> Any:
        """The traced query over *lineitem* (a Query on any engine)."""
        shape = self.shape
        query = lineitem
        if shape.conjuncts:
            parts = [
                (CONJUNCTS[i].predicate, v)
                for i, v in zip(shape.conjuncts, self.values)
            ]
            query = query.where(
                lambda l: reduce(operator.and_, [p(l, v) for p, v in parts])
            )
        key_names = [KEYS[i] for i in shape.keys]
        query = query.group_by(
            lambda l: new(**{f"k{j}": getattr(l, n) for j, n in enumerate(key_names)}),
            lambda g: new(
                **{f"k{j}": getattr(g.key, f"k{j}") for j in range(len(key_names))},
                **{AGGREGATES[i][0]: _aggregate(g, i) for i in shape.aggregates},
            ),
        )
        if shape.ordered:
            query = query.order_by(lambda r: r.k0)
            for j in range(1, len(key_names)):
                query = query.then_by(_field_of(f"k{j}"))
        return query

    def expected(self, table: "MirrorTable") -> List[tuple]:
        """The result computed directly with NumPy over raw columns.

        Independent of the engines: group keys are coded once per table
        and aggregated by direct addressing with ``np.bincount``.
        """
        shape = self.shape
        columns = table.columns
        mask = np.ones(table.rows, dtype=bool)
        for i, v in zip(shape.conjuncts, self.values):
            mask &= CONJUNCTS[i].mask(columns, v)
        code = np.zeros(int(mask.sum()), dtype=np.int64)
        space = 1
        for i in shape.keys:
            values, inverse = table.codes(KEYS[i])
            code = code * len(values) + inverse[mask]
            space *= len(values)
        counts = np.bincount(code, minlength=space)
        present = np.flatnonzero(counts)
        out_cols: List[List[Any]] = []
        rest = present
        key_values: List[np.ndarray] = []
        for i in reversed(shape.keys):
            values, _ = table.codes(KEYS[i])
            key_values.append(values[rest % len(values)])
            rest = rest // len(values)
        for values in reversed(key_values):
            out_cols.append([_decode(v) for v in values])
        counts = counts[present]
        for i in shape.aggregates:
            _, kind, field = AGGREGATES[i]
            if kind == "count":
                out_cols.append(counts.tolist())
                continue
            if kind == "sum_disc_price":
                col = table.disc_price()[mask]
            else:
                col = columns[field][mask]
            if kind in ("sum", "sum_disc_price"):
                out_cols.append(np.bincount(code, col, minlength=space)[present].tolist())
            elif kind == "avg":
                sums = np.bincount(code, col, minlength=space)[present]
                out_cols.append((sums / counts).tolist())
            else:
                acc = np.full(space, np.inf if kind == "min" else -np.inf)
                (np.minimum if kind == "min" else np.maximum).at(acc, code, col)
                out_cols.append(acc[present].tolist())
        return list(zip(*out_cols))


class MirrorTable:
    """Raw lineitem columns plus the per-key coding the mirror reuses."""

    def __init__(self, array: Any):
        self.columns = {name: array.column(name) for name in array.schema.field_names}
        self.rows = len(array)
        self._codes: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._disc_price: Optional[np.ndarray] = None

    def codes(self, field: str) -> Tuple[np.ndarray, np.ndarray]:
        if field not in self._codes:
            values, inverse = np.unique(self.columns[field], return_inverse=True)
            self._codes[field] = (values, inverse.reshape(-1))
        return self._codes[field]

    def disc_price(self) -> np.ndarray:
        if self._disc_price is None:
            cols = self.columns
            self._disc_price = cols["l_extendedprice"] * (1 - cols["l_discount"])
        return self._disc_price


def _aggregate(g: Any, index: int) -> Any:
    _, kind, field = AGGREGATES[index]
    if kind == "count":
        return g.count()
    if kind == "sum_disc_price":
        return g.sum(lambda l: l.l_extendedprice * (1 - l.l_discount))
    return getattr(g, kind)(_field_of(field))


def _field_of(name: str) -> Callable[[Any], Any]:
    return lambda l: getattr(l, name)


def _decode(value: Any) -> Any:
    if isinstance(value, bytes):
        return value.rstrip(b"\x00").decode("utf-8")
    if isinstance(value, np.generic):
        return value.item()
    return value


def all_shapes() -> List[Shape]:
    """Every shape of the grammar, in a fixed order."""
    conj = [
        c
        for size in range(0, 4)
        for c in itertools.combinations(range(len(CONJUNCTS)), size)
    ]
    keys = [
        k for size in (1, 2) for k in itertools.combinations(range(len(KEYS)), size)
    ]
    aggs = [
        a
        for size in (1, 2, 3)
        for a in itertools.combinations(range(len(AGGREGATES)), size)
    ]
    return [
        Shape(c, k, a, o)
        for c in conj
        for k in keys
        for a in aggs
        for o in (False, True)
    ]


class ShapeStream:
    """Hands out grammar shapes in a seeded order, each at most once.

    One stream serves a whole run — warm-up and timed phases alike — so a
    shape consumed while warming up is never replayed as "novel" later.
    Shapes are drawn in rounds that take one shape from each stratum of
    (conjunct count, group-key count), the strongest drivers of a shape's
    cost, so every run sees the same mix whatever its seed and length.
    The smallest stratum holds 504 shapes, more than any run draws from it.
    """

    _STRATA: Optional[List[List[Shape]]] = None

    def __init__(self, seed: int):
        if ShapeStream._STRATA is None:
            strata: Dict[Tuple[int, int], List[Shape]] = {}
            for shape in all_shapes():
                key = (len(shape.conjuncts), len(shape.keys))
                strata.setdefault(key, []).append(shape)
            ShapeStream._STRATA = [strata[k] for k in sorted(strata)]
        self._rng = np.random.default_rng([seed, 0x5A9E])
        self._orders = [
            iter(self._rng.permutation(len(stratum)).tolist())
            for stratum in ShapeStream._STRATA
        ]
        self._round: List[int] = []
        self.issued: Set[Shape] = set()

    def next(self) -> Instance:
        if not self._round:
            self._round = self._rng.permutation(len(self._orders)).tolist()
        stratum = self._round.pop()
        shape = ShapeStream._STRATA[stratum][next(self._orders[stratum])]
        if shape in self.issued:
            raise RuntimeError(f"shape issued twice: {shape.describe()}")
        self.issued.add(shape)
        values = tuple(CONJUNCTS[i].draw(self._rng) for i in shape.conjuncts)
        return Instance(shape, values)
