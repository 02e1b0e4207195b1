"""Canonical query form: constant evaluation and auto-parameterization.

The paper's query provider (Figure 3) first runs a ``ConstantEvaluator``
that collapses data-independent subtrees, then consults the query cache.
Two queries that differ only in embedded constant values (e.g. a selection
threshold driven by a GUI) must share one compiled artifact, so after
folding we *lift* every remaining constant into a named parameter.  The
parameterized tree is the cache key; the lifted values are bound at
execution time.

A query tree is immutable (``Query.with_params`` reuses it), so
:func:`canonicalize` memoizes its result on the root node: re-executing a
query with fresh parameter values pays for canonicalization once.  Folding
runs :func:`~repro.expressions.evaluator.interpret`, which may read a
mutable constant (``len(some_list)``), so the memo is kept only when every
constant the tree embeds and every lifted binding is an immutable value.
"""

from __future__ import annotations

import datetime
import decimal
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .evaluator import interpret
from .nodes import (
    Binary,
    Call,
    Conditional,
    Constant,
    Expr,
    Member,
    Method,
    Param,
    QueryOp,
    Unary,
    structural_key,
)
from .analysis import is_constant
from .visitor import Transformer

__all__ = [
    "CanonicalQuery",
    "ShapeKey",
    "freeze_binding",
    "fold_constants",
    "parameterize",
    "canonicalize",
    "cache_key",
]

#: prefix for auto-generated parameter names; user parameters never collide
#: because ``P('__cN')`` is reserved.
_AUTO_PREFIX = "__c"

#: attribute of the root node holding its memoized :class:`CanonicalQuery`;
#: not a dataclass field, so node equality and hashing ignore it
_MEMO = "_canonical"

_IMMUTABLE_SCALARS = (
    int,
    float,
    complex,
    str,
    bytes,
    type(None),
    datetime.date,
    datetime.time,
    datetime.timedelta,
    decimal.Decimal,
    np.number,
    np.bool_,
    np.datetime64,
    np.timedelta64,
)


def _immutable(value: Any) -> bool:
    """True when *value* can never change after the tree was built."""
    if isinstance(value, _IMMUTABLE_SCALARS):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(_immutable(v) for v in value)
    return False


class ShapeKey(tuple):
    """A :func:`structural_key` that hashes once.

    Equal to (and hashing like) the plain nested tuple, but the hash is
    kept: a warm execution probes several tables with the same memoized
    key, and hashing the nested tuple walks the whole tree every time.
    """

    def __hash__(self) -> int:
        cached = self.__dict__.get("hash")
        if cached is None:
            cached = self.__dict__["hash"] = tuple.__hash__(self)
        return cached

    def __reduce__(self) -> Any:
        # string hashes are per-process: never ship the cached one
        return ShapeKey, (tuple(self),)


def freeze_binding(value: Any) -> Any:
    """A binding value in hashable, order-stable form (containers become
    tuples / frozensets; unhashable leaves make ``hash()`` fail)."""
    if isinstance(value, (list, tuple)):
        return tuple(freeze_binding(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, freeze_binding(v)) for k, v in value.items()))
    if isinstance(value, set):
        return frozenset(value)
    return value


@dataclass(frozen=True)
class CanonicalQuery:
    """A query reduced to its canonical, cache-keyable form.

    ``key`` and ``frozen_bindings`` are derived on first use and kept, so
    a memoized canonical form pays for each once.
    """

    tree: Expr
    #: values for auto-lifted parameters, keyed by generated name
    bindings: Dict[str, Any]

    @property
    def key(self) -> ShapeKey:
        """The tree's :func:`structural_key`."""
        key = self.__dict__.get("_key")
        if key is None:
            key = ShapeKey(structural_key(self.tree))
            object.__setattr__(self, "_key", key)
        return key

    @property
    def frozen_bindings(self) -> Optional[tuple]:
        """The bindings as a sorted, hashable tuple; None if a value is
        unhashable."""
        if "_frozen" not in self.__dict__:
            try:
                frozen = tuple(
                    sorted((k, freeze_binding(v)) for k, v in self.bindings.items())
                )
                hash(frozen)
            except TypeError:
                frozen = None
            object.__setattr__(self, "_frozen", frozen)
        return self.__dict__["_frozen"]


class _ConstantFolder(Transformer):
    """Bottom-up partial evaluation of data-independent subtrees.

    ``immutable`` turns False once the tree embeds a constant of a
    mutable type: its folded values may go stale, so its canonical form
    must not be memoized.
    """

    _FOLDABLE = (Binary, Unary, Call, Method, Conditional, Member)

    def __init__(self) -> None:
        self.immutable = True

    def visit(self, expr: Expr) -> Expr:
        if isinstance(expr, Constant):
            if self.immutable and not _immutable(expr.value):
                self.immutable = False
            return expr
        rebuilt = self.generic_visit(expr)
        if isinstance(rebuilt, self._FOLDABLE) and is_constant(rebuilt):
            try:
                return Constant(interpret(rebuilt))
            except Exception:
                # leave unfoldable expressions intact; they will be
                # evaluated (and fail, if they must) at execution time
                return rebuilt
        return rebuilt


def fold_constants(expr: Expr) -> Expr:
    """Evaluate and collapse every data-independent subtree of *expr*."""
    return _ConstantFolder().visit(expr)


class _Parameterizer(Transformer):
    """Replaces constants with auto-named parameters, collecting values.

    Traversal order is deterministic (the transformer visits children in
    node-definition order), so structurally identical queries always produce
    the same parameter names — a requirement for cache hits.
    """

    def __init__(self) -> None:
        self.bindings: Dict[str, Any] = {}

    def visit_Constant(self, expr: Constant) -> Expr:
        name = f"{_AUTO_PREFIX}{len(self.bindings)}"
        self.bindings[name] = expr.value
        return Param(name)

    def visit_QueryOp(self, expr: QueryOp) -> Expr:
        # operator arguments that are raw constants (e.g. take counts)
        # are parameterized too: `take(10)` and `take(20)` share code
        return self.generic_visit(expr)


def parameterize(expr: Expr) -> Tuple[Expr, Dict[str, Any]]:
    """Lift all constants in *expr* to parameters.

    Returns the rewritten tree and the name → value bindings.
    """
    rewriter = _Parameterizer()
    tree = rewriter.visit(expr)
    return tree, rewriter.bindings


def canonicalize(expr: Expr) -> CanonicalQuery:
    """Fold constants, then lift the survivors into parameters.

    The result is memoized on *expr* when every embedded constant and
    every lifted binding is immutable; a repeat call is then O(1).
    """
    canonical = expr.__dict__.get(_MEMO)
    if canonical is not None:
        return canonical
    folder = _ConstantFolder()
    tree, bindings = parameterize(folder.visit(expr))
    canonical = CanonicalQuery(tree=tree, bindings=bindings)
    if folder.immutable and all(_immutable(v) for v in bindings.values()):
        # racing threads store equal values; the last write wins
        object.__setattr__(expr, _MEMO, canonical)
    return canonical


def cache_key(canonical: CanonicalQuery, engine: str, options: Tuple = ()) -> Any:
    """Cache key: engine identity + options + canonical tree structure."""
    return (engine, options, canonical.key)
