"""Enumeration and exact counting of strict and balanced numberings.

Two engines answer the same queries by different routes:

* ``enumerate_numberings`` and ``count`` run a depth-first backtracking
  search with one variable per edge.  For strict numberings the
  variable is the slot-0 branch value (1..p-1, slot 1 carrying p - x);
  for balanced numberings it is the edge value, with domain 0..p-2
  since p-1 would already break the vertex sum bound.  Edges are
  branched in declaration order with values ascending, and whenever a
  vertex determines its last free edge that value is propagated before
  further branching, so the stream is deterministic and lexicographic
  in the declared edge order.

* ``count_by_contraction`` never materializes solutions.  Each vertex
  becomes a 0/1 table over its incident edge variables that stores only
  its nonzero rows, and variables are summed out one at a time in
  greedy minimum-degree order; a join matches stored rows on shared
  variables and never walks a full domain.  What is left after all
  eliminations is the count.  For a by-exponent census the leg
  variables are retained and the final joined table is read off cell
  by cell.

Constraints (an exponent vector for strict queries, a radii vector for
balanced ones) pin the leg variables before either engine starts.
"""

from __future__ import annotations

import itertools
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterator, Mapping

from .numbering import (
    BranchNumbering,
    EdgeNumbering,
    ExponentVector,
    balanced_triple,
    check_prime,
)
from .semigraph import MarkedSemiGraph, require_valid

KINDS = ("strict", "balanced")


@dataclass(frozen=True)
class EnumerationQuery:
    p: int
    kind: str
    constraint: ExponentVector | None = None
    limit: int | None = None

    def __post_init__(self):
        check_prime(self.p)
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.constraint is not None:
            object.__setattr__(
                self, "constraint", tuple(int(c) % self.p for c in self.constraint)
            )
        if self.limit is not None and self.limit < 0:
            raise ValueError("limit must be nonnegative")


@dataclass(frozen=True)
class CensusReport:
    total: int
    method: str
    by_exponent: Mapping[ExponentVector, int] | None = None

    def to_json_obj(self) -> dict:
        obj: dict = {"total": self.total, "method": self.method}
        if self.by_exponent is not None:
            obj["by_exponent"] = {
                ",".join(str(x) for x in key): n
                for key, n in sorted(self.by_exponent.items())
            }
        return obj


class _Problem:
    """Shared setup: indexed edges, vertex incidences, domains, seeds."""

    def __init__(self, m: MarkedSemiGraph, query: EnumerationQuery):
        require_valid(m)
        self.m = m
        self.query = query
        self.p = query.p
        self.strict = query.kind == "strict"
        g = m.graph
        self.edges = list(g.edges)
        self.index = {e.id: i for i, e in enumerate(self.edges)}
        self.vertices = list(g.vertices)
        self.vertex_branches = {
            v: tuple((self.index[eid], slot) for eid, slot in g.branches_at[v])
            for v in g.vertices
        }
        self.edge_vertices = [
            tuple(dict.fromkeys(end for end in e.ends if end is not None))
            for e in self.edges
        ]
        if self.strict:
            self.domain = range(1, self.p)
        else:
            self.domain = range(self.p - 1)

        # Leg bookkeeping in marking order: (edge index, open slot).
        self.legs = [
            (self.index[eid], g.edge(eid).open_slot()) for eid in m.marking
        ]

        self.feasible = True
        self.seeds: dict[int, int] = {}
        if query.constraint is not None:
            if len(query.constraint) != len(self.legs):
                raise ValueError(
                    f"constraint has {len(query.constraint)} entries, "
                    f"graph has {len(self.legs)} legs"
                )
            for (ei, s_open), eps in zip(self.legs, query.constraint):
                if self.strict:
                    if eps == 0:
                        self.feasible = False
                        break
                    x = eps if s_open == 0 else self.p - eps
                else:
                    if eps > self.p - 2:
                        self.feasible = False
                        break
                    x = eps
                self.seeds[ei] = x

    def branch_value(self, x: int, slot: int) -> int:
        if self.strict and slot == 1:
            return self.p - x
        return x

    def exponent(self, values) -> ExponentVector:
        return tuple(self.branch_value(values[ei], s) for ei, s in self.legs)

    # -- vertex reasoning ---------------------------------------------------

    def vertex_status(self, v: str, values) -> tuple[bool, list[tuple[int, int]]]:
        """(still feasible, forced assignments) for a partially assigned vertex."""
        if self.strict:
            return self._strict_status(v, values)
        return self._balanced_status(v, values)

    def _strict_status(self, v, values):
        p = self.p
        total = 0
        free: dict[int, list[int]] = {}
        for ei, slot in self.vertex_branches[v]:
            x = values[ei]
            if x is None:
                free.setdefault(ei, []).append(slot)
            else:
                total += self.branch_value(x, slot)
        # An unassigned self-loop contributes x + (p - x) = p whatever x is.
        loops = sum(1 for slots in free.values() if len(slots) == 2)
        singles = [(ei, slots[0]) for ei, slots in free.items() if len(slots) == 1]
        need = p + 1 - total - p * loops
        if not singles:
            return (need == 0, [])
        k = len(singles)
        if not k <= need <= k * (p - 1):
            return (False, [])
        if k == 1:
            ei, slot = singles[0]
            return (True, [(ei, need if slot == 0 else p - need)])
        return (True, [])

    def _balanced_status(self, v, values):
        p = self.p
        known = []
        free: dict[int, int] = {}
        for ei, _slot in self.vertex_branches[v]:
            x = values[ei]
            if x is None:
                free[ei] = free.get(ei, 0) + 1
            else:
                known.append(x)
        missing = sum(free.values())
        if missing == 0:
            return (balanced_triple(p, *known), [])
        if missing == 1:
            a, b = known
            (ei,) = free
            lo = abs(a - b)
            hi = min(a + b, p - 2 - a - b)
        elif missing == 2 and len(free) == 1:
            # The free edge is a self-loop here: its value x enters twice.
            (a,) = known
            (ei,) = free
            lo = (a + 1) // 2
            hi = (p - 2 - a) // 2
        elif missing == 2:
            (a,) = known
            return (2 * a <= p - 2, [])
        else:
            return (True, [])
        if lo > hi:
            return (False, [])
        if lo == hi:
            return (True, [(ei, lo)])
        return (True, [])

    # -- depth-first search -------------------------------------------------

    def solutions(self) -> Iterator[tuple[int, ...]]:
        """Complete assignments as value tuples in edge declaration order."""
        if not self.feasible:
            return
        n = len(self.edges)
        values: list[int | None] = [None] * n
        trail: list[int] = []

        def undo(mark: int):
            while len(trail) > mark:
                values[trail.pop()] = None

        def try_assign(ei: int, x: int) -> int:
            """Assign and propagate; trail mark on success, -1 on contradiction."""
            mark = len(trail)
            queue = [(ei, x)]
            while queue:
                e0, x0 = queue.pop()
                if values[e0] is not None:
                    if values[e0] != x0:
                        undo(mark)
                        return -1
                    continue
                values[e0] = x0
                trail.append(e0)
                for v in self.edge_vertices[e0]:
                    ok, forced = self.vertex_status(v, values)
                    if not ok:
                        undo(mark)
                        return -1
                    queue.extend(forced)
            return mark

        for ei, x in self.seeds.items():
            if try_assign(ei, x) < 0:
                return

        def search() -> Iterator[tuple[int, ...]]:
            ei = next((i for i in range(n) if values[i] is None), None)
            if ei is None:
                yield tuple(values)
                return
            for x in self.domain:
                mark = try_assign(ei, x)
                if mark >= 0:
                    yield from search()
                    undo(mark)

        yield from search()

    def to_numbering(self, sol) -> BranchNumbering | EdgeNumbering:
        if self.strict:
            vals = {}
            for e, x in zip(self.edges, sol):
                vals[(e.id, 0)] = x
                vals[(e.id, 1)] = self.p - x
            return BranchNumbering(self.p, vals)
        return EdgeNumbering(self.p, {e.id: x for e, x in zip(self.edges, sol)})


def enumerate_numberings(
    m: MarkedSemiGraph, query: EnumerationQuery
) -> Iterator[BranchNumbering | EdgeNumbering]:
    """Stream the numberings matching the query, in deterministic order.

    Numberings come out lexicographically by edge values in declaration
    order (for strict queries, by the slot-0 values).  ``query.limit``
    truncates the stream after that many results.
    """
    problem = _Problem(m, query)
    emitted = 0
    for sol in problem.solutions():
        if query.limit is not None and emitted >= query.limit:
            return
        yield problem.to_numbering(sol)
        emitted += 1


def count(m: MarkedSemiGraph, query: EnumerationQuery, by_exponent: bool = False) -> CensusReport:
    """Exact count by exhausting the backtracking engine (limit ignored)."""
    problem = _Problem(m, query)
    total = 0
    cells: Counter = Counter()
    for sol in problem.solutions():
        total += 1
        if by_exponent:
            cells[problem.exponent(sol)] += 1
    return CensusReport(total, "backtracking", dict(cells) if by_exponent else None)


# ---------------------------------------------------------------------------
# contraction

def _join(factors, drop=None):
    """Multiply ``factors`` into one factor, summing out ``drop`` if given.

    A factor is (scope tuple, {assignment tuple: weight}) and stores only
    its nonzero rows.  Factors are joined one at a time: each factor's
    rows are indexed on the variables it shares with the rows built so
    far, and every built row is extended by the rows that match it.  The
    result's scope is the union of the input scopes in order of first
    appearance, without ``drop``.
    """
    scope, table = (), {(): 1}
    for f_scope, f_rows in factors:
        at = {u: i for i, u in enumerate(scope)}
        shared = [i for i, u in enumerate(f_scope) if u in at]
        fresh = [i for i, u in enumerate(f_scope) if u not in at]
        index = defaultdict(list)
        for row, weight in f_rows.items():
            index[tuple(row[i] for i in shared)].append((tuple(row[i] for i in fresh), weight))
        probe = [at[f_scope[i]] for i in shared]
        scope += tuple(f_scope[i] for i in fresh)
        table = {
            row + ext: weight * f_weight
            for row, weight in table.items()
            for ext, f_weight in index.get(tuple(row[i] for i in probe), ())
        }
    if drop is not None:
        d = scope.index(drop)
        scope = scope[:d] + scope[d + 1:]
        summed: Counter = Counter()
        for row, weight in table.items():
            summed[row[:d] + row[d + 1:]] += weight
        table = summed
    return scope, table


def _join_and_sum(factors, keep, max_table_width):
    """Sum out every variable not in ``keep``; returns the remaining factors."""
    factors = list(factors)
    alive = set()
    for scope, _ in factors:
        alive.update(scope)
    alive -= keep

    def degree(var):
        neighbors = set()
        for scope, _ in factors:
            if var in scope:
                neighbors.update(scope)
        neighbors.discard(var)
        return len(neighbors)

    while alive:
        var = min(alive, key=lambda u: (degree(u), u))
        alive.remove(var)
        touching = [f for f in factors if var in f[0]]
        rest = [f for f in factors if var not in f[0]]
        width = len(set().union(*(scope for scope, _ in touching)))
        if width > max_table_width:
            warnings.warn(
                f"contraction table spans {width} variables "
                f"(bound {max_table_width})",
                stacklevel=3,
            )
        factors = rest + [_join(touching, drop=var)]
    return factors


def _vertex_factor(problem: _Problem, v):
    """The 0/1 table of vertex ``v`` over its distinct incident edges."""
    incident = problem.vertex_branches[v]
    scope = tuple(sorted({ei for ei, _ in incident}))
    positions = {ei: i for i, ei in enumerate(scope)}
    domains = [
        (problem.seeds[ei],) if ei in problem.seeds else problem.domain for ei in scope
    ]
    rows = {}
    for combo in itertools.product(*domains):
        ms = [problem.branch_value(combo[positions[ei]], slot) for ei, slot in incident]
        if problem.strict:
            ok = sum(ms) == problem.p + 1
        else:
            ok = balanced_triple(problem.p, *ms)
        if ok:
            rows[combo] = 1
    return scope, rows


def count_by_contraction(
    m: MarkedSemiGraph,
    query: EnumerationQuery,
    by_exponent: bool = False,
    max_table_width: int = 8,
) -> CensusReport:
    """Exact count by variable elimination; independent of the backtracker."""
    problem = _Problem(m, query)
    if not problem.feasible:
        return CensusReport(0, "contraction", {} if by_exponent else None)

    factors = [_vertex_factor(problem, v) for v in problem.vertices]
    keep = {ei for ei, _ in problem.legs} if by_exponent else set()
    # Join what is left (over the retained leg variables, or nothing) and
    # read the cells off its rows.
    scope, table = _join(_join_and_sum(factors, keep, max_table_width))
    total = sum(table.values())
    if not by_exponent:
        return CensusReport(total, "contraction")
    cells: Counter = Counter()
    for row, weight in table.items():
        cells[problem.exponent(dict(zip(scope, row)))] += weight
    return CensusReport(total, "contraction", dict(cells))
