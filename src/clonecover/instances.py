"""Deterministic instance generation, admissible by construction.

An instance packages a target function g, a witness f, and the horizon /
threshold parameters; `generate_instance` names the planted structure that
makes each admissibility clause hold.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .analysis import Checklist
from .core import MTuple, PartialFn, Point, full_index
from .decompose import AdmissibilityError, check_admissible
from .synth import normalize_f, oplus, reduce_to_unary

PROFILES = ("mixed", "all-thrifty", "mary-witness")

CANDIDATE_SURPLUS = 2  # fresh low tuples planted per wasteful value


@dataclass
class Instance:
    """A full problem: graphs, parameters, and planted-structure metadata."""

    m: int
    horizon: int
    theta: int
    seed: int
    profile: str
    g: PartialFn
    f: PartialFn
    candidates: tuple  # unary helpers for the arity reduction; may be empty
    metadata: dict

    @property
    def ceiling(self) -> int:
        """horizon² + horizon: every coordinate lies below it."""
        return self.horizon * self.horizon + self.horizon


class ProfileError(ValueError):
    """The requested profile cannot be satisfied with these parameters."""


def default_theta(horizon: int) -> int:
    return (horizon + 1) // 2


def generate_instance(m: int, horizon: int, theta: int, seed: int,
                      profile: str = "mixed") -> Instance:
    """Build a deterministic instance that is admissible by construction.

    Each clause of `check_admissibility` holds by one construction step
    (theta, validated up front, needs no clause):
    - coordinates below ceiling: every draw is from ``range(ceiling)``;
    - witness recoverable: `_build_witness` plants a scrambled normalized
      witness, with sorted rows and its preimages on x = 0;
    - decomposition admissible: each wasteful value gets CANDIDATE_SURPLUS
      private blocks of fresh lows, and every bulk tuple lies below theta.

    A collision while drawing g redraws the instance from the same rng.
    Raises ProfileError when the parameters cannot support the profile
    (e.g. too few low y-coordinates for the planted wasteful features): that
    budget, not a list of arities, decides which m >= 1 work.
    """
    if m < 1:
        raise ProfileError(f"arity must be at least 1, got {m}")
    if horizon < 3:
        raise ProfileError("horizon must be at least 3")
    if not 1 <= theta <= horizon - 1:
        raise ProfileError("theta must lie in [1, horizon - 1]")
    if profile not in PROFILES:
        raise ProfileError(f"unknown profile {profile!r}")

    rng = random.Random(seed)
    ceiling = horizon * horizon + horizon
    last_error = None
    for _ in range(20):
        try:
            return _build(m, horizon, theta, seed, ceiling, profile, rng)
        except _RetryGeneration as exc:
            last_error = exc
    raise ProfileError(f"generation failed to converge: {last_error}")


class _RetryGeneration(Exception):
    pass


def _build(m, horizon, theta, seed, ceiling, profile, rng) -> Instance:
    f, candidates, witness_meta = _build_witness(m, horizon, ceiling, profile, rng)
    g, feature_meta = _build_target(m, horizon, theta, ceiling, profile, rng)
    metadata = {
        "witness": witness_meta,
        "features": feature_meta,
        "candidate_surplus": CANDIDATE_SURPLUS,
    }
    return Instance(
        m=m, horizon=horizon, theta=theta, seed=seed, profile=profile,
        g=g, f=f, candidates=candidates, metadata=metadata,
    )


def _build_witness(m, horizon, ceiling, profile, rng):
    """The witness f, its candidates and metadata, each graph built whole:
    entry t maps (0 | labels[t]) to (rows[k] | lines[n - 1]) for the t-th
    pair (n, k), k < n < horizon, in (n, k) order, which is the ascending
    order of the codes oplus(n, k) = n² + k < (n + 1)²."""
    n_lines = horizon - 1
    lines = rng.sample(range(ceiling), n_lines)
    rows = sorted(rng.sample(range(ceiling), n_lines))
    codes = [oplus(n, k) for n in range(1, horizon) for k in range(n)]
    labels = rng.sample(range(ceiling), len(codes))
    domain = [Point(0, label) for label in labels]
    values = [Point(row, line)
              for n, line in enumerate(lines, 1) for row in rows[:n]]
    meta = {
        "lines": [[n, line] for n, line in enumerate(lines, 1)],
        "rows": rows,
        "domain_labels": [[c, label] for c, label in zip(codes, labels)],
        "arity": 1,
    }
    if profile != "mary-witness":
        return _witness_graph(1, [((1, d),) for d in domain], values), (), meta

    # Plant a binary witness recoverable through (identity, constant-anchor).
    support = sorted(domain)
    anchor, keys = support[0], [((1, p),) for p in support]
    meta.update(arity=2, anchor=[anchor.x, anchor.y])
    binary = _witness_graph(2, [((1, d), (2, anchor)) for d in domain], values)
    return binary, (_witness_graph(1, keys, support),
                    _witness_graph(1, keys, [anchor] * len(support))), meta


def _witness_graph(m: int, entries: list, values: list) -> PartialFn:
    """Trusted: the builder makes every entry and point over {1..m} itself."""
    return PartialFn._trusted(full_index(m),
                              dict(zip(map(MTuple, entries), values)))


def _feature_plan(m: int, theta: int, profile: str) -> list:
    """Subsets S to plant wasteful features for, within the low-y budget.

    Each feature consumes CANDIDATE_SURPLUS * |T| low y-coordinates; features
    are added in sweep order while the budget of theta lows lasts.
    """
    if profile == "all-thrifty":
        return []
    budget = theta
    plan = []
    # S = M would give 0-ary fibers, which cannot be wasteful; skip it.
    options = [frozenset()] + ([frozenset({i}) for i in range(1, m + 1)]
                               if m > 1 else [])
    for s in options:
        cost = CANDIDATE_SURPLUS * (m - len(s))
        if cost <= budget:
            plan.append(s)
            budget -= cost
    if not plan:
        raise ProfileError(
            f"theta={theta} leaves no room for wasteful features at m={m}; "
            f"the least theta that does is "
            f"{min(CANDIDATE_SURPLUS * (m - len(s)) for s in options)}")
    return plan


def _build_target(m, horizon, theta, ceiling, profile, rng):
    arity = full_index(m)
    used_values: set = set()
    graph: dict = {}

    def fresh_value() -> Point:
        for _ in range(50):
            v = Point(rng.randrange(ceiling), rng.randrange(ceiling))
            if v not in used_values:
                used_values.add(v)
                return v
        raise _RetryGeneration("value space exhausted")

    def add_entry(u: MTuple, v: Point):
        if u in graph:
            raise _RetryGeneration("duplicate domain tuple")
        graph[u] = v

    plan = _feature_plan(m, theta, profile)
    low_pool = list(range(theta))
    rng.shuffle(low_pool)
    feature_meta = []
    for s in plan:
        t = sorted(arity - s)
        value = fresh_value()
        # fixed low block shared by the whole feature (the fiber key part)
        c_part = {i: Point(rng.randrange(ceiling), rng.randrange(theta))
                  for i in sorted(s)}
        # wasters: remaining components all high, so the fiber preimage's
        # bound exceeds theta and the value gets re-routed at this stage
        wasters = []
        for _ in range(rng.randint(1, 2)):
            entries = dict(c_part)
            for i in t:
                entries[i] = Point(rng.randrange(ceiling),
                                   rng.randrange(theta, ceiling))
            wasters.append(MTuple.of(entries))
        # candidates: remaining components from a private block of fresh lows
        cands = []
        for _ in range(CANDIDATE_SURPLUS):
            if len(low_pool) < len(t):
                raise ProfileError("low-coordinate budget exhausted")
            block = [low_pool.pop() for _ in t]
            entries = dict(c_part)
            for i, y in zip(t, block):
                entries[i] = Point(rng.randrange(ceiling), y)
            cands.append(MTuple.of(entries))
        for u in wasters + cands:
            add_entry(u, value)
        feature_meta.append({
            "subset": sorted(s),
            "value": [value.x, value.y],
            "wasters": [_tuple_json(u) for u in wasters],
            "candidates": [_tuple_json(u) for u in cands],
        })

    n_bulk = rng.randint(4 * m, 12 * m)
    bulk_values: list = []
    for _ in range(n_bulk):
        for _ in range(50):
            u = MTuple.of({
                i: Point(rng.randrange(ceiling), rng.randrange(theta))
                for i in sorted(arity)
            })
            if u not in graph:
                break
        else:
            raise _RetryGeneration("bulk tuple space exhausted")
        if bulk_values and rng.random() < 0.3:
            # reuse a thrifty value to get multi-tuple preimages
            v = rng.choice(bulk_values)
        else:
            v = fresh_value()
            bulk_values.append(v)
        add_entry(u, v)

    return PartialFn(arity, graph), feature_meta


def _tuple_json(u: MTuple) -> list:
    return [[i, [p.x, p.y]] for i, p in u]


def check_admissibility(inst: Instance) -> dict:
    """Run the pipeline's choice steps once and report whether each succeeds.

    A structural check on coordinates, over every distinct point of g, f
    and the candidates, against the derived ``inst.ceiling``; then the
    witness recovery and the hereditary decomposition (the two stages with
    choice steps), each run independently.  Besides the verdict,
    ``passed``, ``checks`` and ``detail``, the dict holds the ``trace``
    (None where the decomposition failed), from which and the horizon
    `complete_synthesis` finishes the term; the witness recovery only
    judges the witness, so nothing of it is kept."""
    checks = Checklist()
    fns = (inst.g, inst.f, *inst.candidates)
    points = {p for fn in fns for u in fn.graph for _, p in u}
    points.update(v for fn in fns for v in fn.graph.values())
    ceiling = inst.ceiling
    coords_ok = all(0 <= x < ceiling and 0 <= y < ceiling for x, y in points)
    checks.add("coordinates below ceiling", coords_ok)

    recovered, detail = True, ""
    try:
        normalize_f(reduce_to_unary(inst.f, inst.candidates), inst.horizon)
    except (AdmissibilityError, ValueError) as exc:
        recovered, detail = False, str(exc)
    checks.add("witness recoverable", recovered, detail)
    trace = check_admissible(inst.g, inst.theta, checks)

    return {"passed": checks.passed, "checks": checks.checks,
            "detail": checks.detail, "trace": trace}
