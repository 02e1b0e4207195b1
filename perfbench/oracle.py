"""Correctness oracles, all independent of the engine under test.

* TPC-H requests are checked against ``repro.tpch.reference`` (plain
  Python loops) with the request's parameters.  The reference reads
  record objects; :class:`ReferenceData` decodes them straight from the
  generated columns with NumPy, without the storage layer's row decoder.
* Grammar shapes are checked against the interpreted ``linq`` engine where
  the data is small, and against :meth:`grammar.Instance.expected` (NumPy
  over raw columns) where interpretation would take minutes.
* Versioned reads are checked against a full re-run on a separate,
  non-recycling provider over the same pinned snapshot.

Floats compare within a relative tolerance: engines sum in different
orders, so the last digits may differ.
"""

from __future__ import annotations

import collections
import datetime
import math
from typing import Any, Callable, Dict, List, Sequence, Tuple

REL_TOL = 1e-9
ABS_TOL = 1e-6

_EPOCH = datetime.date(1970, 1, 1)


def values_match(got: Any, want: Any) -> bool:
    if isinstance(got, float) or isinstance(want, float):
        try:
            return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        except TypeError:
            return False
    return got == want


def rows_match(got: Sequence[Sequence[Any]], want: Sequence[Sequence[Any]]) -> bool:
    """Row lists equal position by position, floats within tolerance."""
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        g, w = tuple(g), tuple(w)
        if len(g) != len(w):
            return False
        if not all(values_match(a, b) for a, b in zip(g, w)):
            return False
    return True


def describe_mismatch(got: Sequence[Any], want: Sequence[Any]) -> str:
    for i, (g, w) in enumerate(zip(got, want)):
        if not rows_match([g], [w]):
            return f"row {i}: got {tuple(g)!r}, want {tuple(w)!r}"
    return f"{len(got)} rows, want {len(want)}"


def decode_columns(array: Any) -> Dict[str, List[Any]]:
    """Managed values per field, decoded from a StructArray's buffer."""
    data = array.data
    columns: Dict[str, List[Any]] = {}
    dates: Dict[int, datetime.date] = {}
    for field in array.schema.fields:
        raw = data[field.name]
        if field.kind == "str":
            columns[field.name] = [b.decode("utf-8") for b in raw.tolist()]
        elif field.kind == "date":
            out = []
            for d in raw.tolist():
                value = dates.get(d)
                if value is None:
                    value = dates[d] = _EPOCH + datetime.timedelta(days=d)
                out.append(value)
            columns[field.name] = out
        elif field.kind == "bool":
            columns[field.name] = [bool(v) for v in raw.tolist()]
        else:
            columns[field.name] = raw.tolist()
    return columns


def decode_rows(array: Any) -> List[tuple]:
    """Positional managed-value tuples, one per row of *array*."""
    columns = decode_columns(array)
    return list(zip(*(columns[f.name] for f in array.schema.fields)))


class ReferenceData:
    """The ``objects(name)`` view ``repro.tpch.reference`` reads."""

    def __init__(self, arrays: Callable[[str], Any]):
        self._arrays = arrays
        self._objects: Dict[str, List[Any]] = {}

    def objects(self, name: str) -> List[Any]:
        if name not in self._objects:
            array = self._arrays(name)
            record = collections.namedtuple(
                f"Ref_{name}", [f.name for f in array.schema.fields]
            )
            self._objects[name] = [record._make(r) for r in decode_rows(array)]
        return self._objects[name]


class ReferenceOracle:
    """Memoized TPC-H reference results keyed by (query, parameters)."""

    def __init__(self, arrays: Callable[[str], Any]):
        from repro.tpch import reference

        self._reference = reference
        self._data = ReferenceData(arrays)
        self._memo: Dict[Tuple[str, tuple], List[tuple]] = {}

    def expected(self, query: str, params: Dict[str, Any]) -> List[tuple]:
        key = (query, tuple(sorted(params.items())))
        rows = self._memo.get(key)
        if rows is None:
            fn = getattr(self._reference, f"reference_{query}")
            rows = self._memo[key] = fn(self._data, **params)
        return rows


class Verdicts:
    """Tally of oracle checks; keeps the first few mismatches for the log."""

    def __init__(self, keep: int = 5):
        self.checked = 0
        self.wrong = 0
        self.messages: List[str] = []
        self._keep = keep

    def check(self, label: str, got: Any, want: Any, ordered: bool = True) -> bool:
        self.checked += 1
        if not ordered:
            got, want = _canonical(got), _canonical(want)
        if rows_match(got, want):
            return True
        self.wrong += 1
        if len(self.messages) < self._keep:
            self.messages.append(f"{label}: {describe_mismatch(got, want)}")
        return False


def _canonical(rows: Sequence[Any]) -> List[tuple]:
    return sorted(
        (tuple(r) for r in rows),
        key=lambda row: tuple((type(v).__name__, v) for v in row),
    )
