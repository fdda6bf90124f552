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
  in the declared edge order.  Open branch points live on an explicit
  stack of (edge, next domain position, trail mark) frames, so the
  number of edges is not bounded by Python's recursion limit.

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
        # The backtracker's compiled form: vertices by index, each with its
        # terms and whether it carries a self-loop.  A strict term is an
        # (edge index, slot) pair and leaves the self-loop out, since x and
        # p - x always add up to p; a balanced term is an edge index, the
        # self-loop listed twice.
        at = {v: i for i, v in enumerate(self.vertices)}
        self.edge_vertices = [
            tuple(dict.fromkeys(at[end] for end in e.ends if end is not None))
            for e in self.edges
        ]
        self.vertex_loop = []
        self.vertex_terms = []
        for incident in self.vertex_branches.values():
            loops = {ei for ei, _ in incident if self.edges[ei].is_loop}
            self.vertex_loop.append(bool(loops))
            if self.strict:
                terms = tuple((ei, slot) for ei, slot in incident if ei not in loops)
            else:
                terms = tuple(ei for ei, _ in incident)
            self.vertex_terms.append(terms)
        self.edge_ids = [e.id for e in self.edges]
        self.branch_keys = [((eid, 0), (eid, 1)) for eid in self.edge_ids]
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

    def vertex_status(self, v: int, values) -> tuple[bool, tuple[tuple[int, int], ...]]:
        """(still feasible, forced assignments) for a partially assigned vertex.

        ``v`` is a vertex index and ``values`` holds an edge value or None
        per edge index.
        """
        p = self.p
        terms = self.vertex_terms[v]
        if self.strict:
            # A self-loop contributes x + (p - x) = p whatever x is.
            need = 1 if self.vertex_loop[v] else p + 1
            k = 0
            for ei, slot in terms:
                x = values[ei]
                if x is None:
                    k += 1
                    free, free_slot = ei, slot
                else:
                    need -= p - x if slot else x
            if not k:
                return (need == 0, ())
            if not k <= need <= k * (p - 1):
                return (False, ())
            if k == 1:
                return (True, ((free, p - need if free_slot else need),))
            return (True, ())
        # Balanced: with the known values' sum s and maximum mx, the
        # triangle condition on a full triple is 2 * mx <= s, and the one
        # free value of a vertex with two known values a, b lies between
        # |a - b| = 2 * mx - s and min(a + b, p - 2 - a - b).
        s = mx = missing = 0
        for ei in terms:
            x = values[ei]
            if x is None:
                missing += 1
                free = ei
            else:
                s += x
                if x > mx:
                    mx = x
        if not missing:
            return (2 * mx <= s <= p - 2, ())
        if missing == 1:
            lo = 2 * mx - s
            hi = min(s, p - 2 - s)
        elif missing == 2 and self.vertex_loop[v]:
            # The free edge is the self-loop: its value x enters twice.
            lo = (s + 1) // 2
            hi = (p - 2 - s) // 2
        elif missing == 2:
            return (2 * s <= p - 2, ())
        else:
            return (True, ())
        if lo > hi:
            return (False, ())
        if lo == hi:
            return (True, ((free, lo),))
        return (True, ())

    # -- depth-first search -------------------------------------------------

    def solutions(self) -> Iterator[tuple[int, ...]]:
        """Complete assignments as value tuples in edge declaration order."""
        if not self.feasible:
            return
        n = len(self.edges)
        values: list[int | None] = [None] * n
        trail: list[int] = []
        edge_vertices = self.edge_vertices
        status = self.vertex_status

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
                for v in edge_vertices[e0]:
                    ok, forced = status(v, values)
                    if not ok:
                        undo(mark)
                        return -1
                    queue.extend(forced)
            return mark

        for ei, x in self.seeds.items():
            if try_assign(ei, x) < 0:
                return

        def next_free(ei: int) -> int:
            while ei < n and values[ei] is not None:
                ei += 1
            return ei

        # Branch on the first free edge.  Every edge before it is assigned
        # and stays so until its frame is popped, so the next free edge is
        # searched from the one just branched on.  A frame is (edge, next
        # domain position, trail mark of the value being explored).
        domain = self.domain
        size = len(domain)
        ei = next_free(0)
        if ei == n:
            yield tuple(values)
            return
        pos = 0
        stack: list[tuple[int, int, int]] = []
        while True:
            while pos < size:
                mark = try_assign(ei, domain[pos])
                pos += 1
                if mark < 0:
                    continue
                nxt = next_free(ei + 1)
                if nxt == n:
                    yield tuple(values)
                    undo(mark)
                else:
                    stack.append((ei, pos, mark))
                    ei, pos = nxt, 0
            if not stack:
                return
            ei, pos, mark = stack.pop()
            undo(mark)

    def to_numbering(self, sol) -> BranchNumbering | EdgeNumbering:
        if self.strict:
            p = self.p
            vals = {}
            for (k0, k1), x in zip(self.branch_keys, sol):
                vals[k0] = x
                vals[k1] = p - x
            return BranchNumbering(p, vals)
        return EdgeNumbering(self.p, dict(zip(self.edge_ids, sol)))


def enumerate_numberings(
    m: MarkedSemiGraph, query: EnumerationQuery
) -> Iterator[BranchNumbering | EdgeNumbering]:
    """Stream the numberings matching the query, in deterministic order.

    Numberings come out lexicographically by edge values in declaration
    order (for strict queries, by the slot-0 values).  ``query.limit``
    stops the search as soon as that many results are out.
    """
    problem = _Problem(m, query)
    if query.limit == 0:
        return
    for emitted, sol in enumerate(problem.solutions(), 1):
        yield problem.to_numbering(sol)
        if emitted == query.limit:
            return


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
