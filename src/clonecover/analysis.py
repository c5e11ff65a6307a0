"""Widths and per-tuple fiber bounds of finite fragments.

The paper-facing notions "unbounded" and "ideal membership" have no finite
witnesses; everything here is parameterized by a threshold theta for the
thrifty/wasteful cut.  Widths and bounds are plain ints; callers compare
them against their own bounds.  `index_columns` transposes dom(g) into
one column per index; `tuple_bounds` reads the bound of every tuple at
one S, 1 + its least y outside S, off those columns in one pass and
builds no fiber key.  A value is wasteful in its fiber when its largest
bound there is above theta: `wasteful_pairs` makes that cut, the one
the decomposition, its verifier and the K-tables read, and keys only
the tuples above theta.  A fiber's K on a value line (`fiber_k`) is
also a maximum of these bounds.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .core import (
    IndexMismatchError,
    IndexSet,
    MTuple,
    PartialFn,
    Point,
)


@dataclass
class Checklist:
    """Named pass/fail checks in the order they were made: the one verdict
    type of the program.  A check's detail says why it fails, so a passing
    check keeps none."""

    checks: list = field(default_factory=list)  # {"name", "passed", "detail"}

    def add(self, name: str, ok, detail: str = "") -> None:
        self.checks.append({"name": name, "passed": bool(ok),
                            "detail": "" if ok else str(detail)})

    @property
    def failing(self) -> list:
        """The failing checks, in the order they were made."""
        return [c for c in self.checks if not c["passed"]]

    @property
    def passed(self) -> bool:
        return not self.failing

    @property
    def detail(self) -> str:
        """The failing checks as ``name: detail``, joined by "; "."""
        return "; ".join(c["name"] + ": " + c["detail"] for c in self.failing)


def width(points: Iterable[Point]) -> int:
    """Maximal per-line point count of a finite point set (0 when empty)."""
    counts: dict = {}
    for _, y in set(map(tuple, points)):
        counts[y] = counts.get(y, 0) + 1
    return max(counts.values(), default=0)


def index_columns(g: PartialFn) -> dict:
    """dom(g)'s positional columns, ``zip(*g.graph)``, as a map from each
    index to its column of ``(index, point)`` entries in graph order; an
    empty g gives ``()`` columns.  This relies on `PartialFn`'s contract
    that every tuple lists exactly the arity, sorted by index."""
    return dict(zip(sorted(g.arity),
                    zip(*g.graph) if g.graph else [()] * len(g.arity)))


def tuple_bounds(g: PartialFn, s: IndexSet) -> list:
    """The bound of every tuple of dom(g) at S, in graph order, read off
    the columns outside S; no fiber key is built.

    A tuple's bound is the least k such that it has a component below line
    k outside S: 1 + its least y over the non-S components, and 0 when S is
    the whole arity, whose fibers are 0-ary.  A value's least preimage
    bound in a fiber is the largest bound of its tuples there.
    """
    s = frozenset(s)
    if not s <= g.arity:
        raise IndexMismatchError(
            f"S={sorted(s)} is not a subset of the arity {sorted(g.arity)}"
        )
    lows = [[p.y + 1 for _, p in column]
            for i, column in index_columns(g).items() if i not in s]
    if len(lows) > 1:
        return list(map(min, *lows))
    return lows[0] if lows else [0] * len(g.graph)


def wasteful_pairs(g: PartialFn, s: IndexSet, theta: int) -> dict:
    """The wasteful cut of g at S: ``{(fiber key, value): largest bound}``
    for each pair whose value is wasteful in its fiber, its least preimage
    bound there above theta.  One `tuple_bounds` read; only the tuples
    with a bound above theta get a fiber key, their S-part, since a
    value's largest bound in its fiber is above theta exactly when one of
    its tuples' bounds is."""
    s, wasted = frozenset(s), {}
    for (u, v), k in zip(g.graph.items(), tuple_bounds(g, s)):
        if k > theta:
            pair = u.restrict(s), v
            wasted[pair] = max(wasted.get(pair, 0), k)
    return wasted


def fiber_k(fiber: Iterable[MTuple], s: IndexSet) -> Optional[int]:
    """The K of one fiber at S on one value line: the largest bound at S,
    as `tuple_bounds` reads it, among ``fiber``, the fiber's tuples whose
    value lies on that line; None when there are none."""
    lows = [min([p.y for i, p in u if i not in s], default=-1) for u in fiber]
    return max(lows) + 1 if lows else None


class NotThriftyError(ValueError):
    """Raised when an operation requires a thrifty function but got none."""

    def __init__(self, value, bound: int, theta: int):
        self.value = value
        self.bound = bound
        self.theta = theta
        super().__init__(
            f"function is not thrifty at theta={theta}: value {value!r} has "
            f"preimage bound {bound}"
        )


def all_subsets(members: Sequence[int]) -> list:
    """All subsets, by increasing cardinality then lexicographic."""
    subs = [[]]
    for x in members:
        subs += [s + [x] for s in subs]
    subs.sort(key=lambda s: (len(s), s))
    return [frozenset(s) for s in subs]

