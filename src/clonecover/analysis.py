"""Widths, fiber bounds and K-tables of finite fragments.

The paper-facing notions "unbounded" and "ideal membership" have no finite
witnesses; everything here is parameterized by a threshold theta for the
thrifty/wasteful cut.  Widths and bounds are plain ints; callers compare
them against their own bounds.  `fiber_columns` restricts all of dom(g)
to one S in a single pass over g's positional columns: the fiber key of
every tuple, in graph order, and the columns outside S.  `fiber_bounds`
reads the least bound of every value in every fiber at S off those
columns, and `line_bounds` turns one fiber's bounds into its K-table; the
decomposition, its verifier, the K-tables and the helpers read them and
compare the bounds with theta themselves.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

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
    list that admissibility, decomposition and pipeline reports carry."""

    checks: list = field(default_factory=list)  # {"name", "passed", "detail"}

    def add(self, name: str, ok, detail: str = "") -> None:
        self.checks.append(
            {"name": name, "passed": bool(ok), "detail": str(detail)})

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    @property
    def detail(self) -> str:
        """The failing checks as ``name: detail``, joined by "; "."""
        return "; ".join(c["name"] + ": " + c["detail"]
                         for c in self.checks if not c["passed"])


def width(points: Iterable[Point]) -> int:
    """Maximal per-line point count of a finite point set (0 when empty)."""
    counts: dict = {}
    for _, y in set(map(tuple, points)):
        counts[y] = counts.get(y, 0) + 1
    return max(counts.values(), default=0)


def tuple_set_width(tuples: Iterable[MTuple]) -> int:
    """Max width over the component projections of a set of M-tuples."""
    tuples = list(tuples)
    if not tuples:
        return 0
    arity = tuples[0].indices
    for u in tuples:
        if u.indices != arity:
            raise IndexMismatchError("mixed index sets in tuple set")
    return max(width({u[i] for u in tuples}) for i in sorted(arity))


def fiber_columns(g: PartialFn, s: IndexSet) -> tuple:
    """dom(g) restricted to S in one pass, in graph order: ``(keys,
    outside)``, where ``keys`` lists the S-part of every tuple (its fiber
    key) and ``outside`` maps each index outside S to the column of the
    tuples' ``(index, point)`` entries there.

    The columns are positional, ``zip(*g.graph)``: this relies on
    `PartialFn`'s contract that every tuple lists exactly the function's
    arity, sorted by index.  An empty g gives empty columns, and S = {}
    the empty key for every tuple.
    """
    s = frozenset(s)
    if not s <= g.arity:
        raise IndexMismatchError(
            f"S={sorted(s)} is not a subset of the arity {sorted(g.arity)}"
        )
    inside, outside = [], {}
    columns = list(zip(*g.graph)) or [()] * len(g.arity)
    for i, column in zip(sorted(g.arity), columns):
        if i in s:
            inside.append(column)
        else:
            outside[i] = column
    if not inside:
        return [MTuple.empty()] * len(g.graph), outside
    return list(map(MTuple, zip(*inside))), outside


def fiber_bounds(g: PartialFn, s: IndexSet) -> dict:
    """Least preimage bound of every value in every fiber of g at S.

    One pass over `fiber_columns` gives ``{c: {value: k}}``: the keys c
    are the S-projections occurring in dom(g), in canonical order, and
    each fiber's values in order of first occurrence.  A value's k is the
    least bound of its preimage in the fiber, the least k such that each
    of its tuples has a component below line k: the largest 1 + least y
    over the non-S components of a tuple mapped to it, and 0 when S is the
    whole arity, whose fibers are 0-ary.  No fiber function is built.
    """
    keys, outside = fiber_columns(g, s)
    lows = [[p.y + 1 for _, p in column] for column in outside.values()]
    bound_of = (map(min, *lows) if len(lows) > 1
                else lows[0] if lows else [0] * len(keys))
    bounds: dict = {}
    for c, v, k in zip(keys, g.graph.values(), bound_of):
        per_value = bounds.setdefault(c, {})
        if per_value.get(v, -1) < k:
            per_value[v] = k
    return {c: bounds[c] for c in sorted(bounds)}


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


def line_bounds(value_bounds: Mapping, theta: int) -> dict:
    """The K-table of one fiber from its per-value bounds (one entry of
    `fiber_bounds`): for each line met by the values, in line order, the
    largest bound of a value on it, which is the least bound of the line's
    preimage.

    Requires every value thrifty at theta; otherwise NotThriftyError names
    the least wasteful value.
    """
    if theta < 1:
        raise ValueError("theta must be at least 1")
    wasteful = [v for v, k in value_bounds.items() if k > theta]
    if wasteful:
        v = min(wasteful)
        raise NotThriftyError(v, value_bounds[v], theta)
    by_line: dict = {}
    for v, k in value_bounds.items():
        if by_line.get(v.y, -1) < k:
            by_line[v.y] = k
    return dict(sorted(by_line.items()))


def all_subsets(members: Sequence[int]) -> list:
    """All subsets, by increasing cardinality then lexicographic."""
    subs = [[]]
    for x in members:
        subs += [s + [x] for s in subs]
    subs.sort(key=lambda s: (len(s), s))
    return [frozenset(s) for s in subs]

