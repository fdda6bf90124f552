"""Enumeration and exact counting of strict and balanced numberings.

Both engines read one compiled problem: each vertex as its (edge index,
slot) branches, and one domain per edge variable.  For strict numberings
the variable is the slot-0 branch value (1..p-1, slot 1 carrying p - x);
for balanced numberings it is the edge value, with domain 0..(p-3)/2:
every edge meets a vertex, where 2 * max <= sum <= p - 2.

* ``enumerate_numberings`` and ``count`` run a depth-first backtracking
  search.  Edges are branched in declaration order with values
  ascending, and whenever a vertex determines its last free edge that
  value is propagated before further branching, so the stream is
  deterministic and lexicographic in the declared edge order.  Open
  branch points live on an explicit stack of (edge, next domain
  position, trail mark) frames, so the number of edges is not bounded
  by Python's recursion limit.

* ``count_by_contraction`` never materializes solutions.  It lists the
  query's tripod table, the branch-value triples the vertex condition
  allows, once; each vertex's 0/1 table is that table read through the
  vertex's branches and stores only its nonzero rows.  Variables are
  summed out one at a time in greedy minimum-degree order, which is kept
  up to date join by join; a join matches stored rows on shared
  variables and never walks a full domain.  What is left after all
  eliminations is the count.  For a by-exponent census the leg
  variables are retained and the final joined table is read off cell
  by cell.

Constraints (an exponent vector for strict queries, a radii vector for
balanced ones) pin the leg variables before either engine starts.
"""

from __future__ import annotations

import heapq
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
        self.p = query.p
        self.strict = query.kind == "strict"
        g = m.graph
        self.edges = list(g.edges)
        index = {e.id: i for i, e in enumerate(self.edges)}
        at = {v: i for i, v in enumerate(g.vertices)}
        self.vertex_branches = [
            tuple((index[eid], slot) for eid, slot in g.branches_at[v]) for v in g.vertices
        ]
        self.edge_vertices = [
            tuple(dict.fromkeys(at[end] for end in e.ends if end is not None))
            for e in self.edges
        ]
        # The backtracker's terms: strict ones are branches and leave the
        # self-loop out, since x and p - x always add up to p; balanced
        # ones are edge indices, the self-loop listed twice.
        loop = [e.is_loop for e in self.edges]
        self.vertex_loop = [any(loop[ei] for ei, _ in bs) for bs in self.vertex_branches]
        self.vertex_terms = [
            tuple(b for b in bs if not loop[b[0]]) if self.strict else tuple(ei for ei, _ in bs)
            for bs in self.vertex_branches
        ]
        self.edge_ids = [e.id for e in self.edges]
        self.branch_keys = [((eid, 0), (eid, 1)) for eid in self.edge_ids]
        self.domain = range(1, self.p) if self.strict else range((self.p - 1) // 2)

        # Leg bookkeeping in marking order: (edge index, open slot).
        self.legs = [(index[eid], g.edge(eid).open_slot()) for eid in m.marking]

        self.feasible = True
        self.seeds: dict[int, int] = {}
        if query.constraint is not None:
            if len(query.constraint) != len(self.legs):
                raise ValueError(
                    f"constraint has {len(query.constraint)} entries, "
                    f"graph has {len(self.legs)} legs"
                )
            for (ei, s_open), eps in zip(self.legs, query.constraint):
                x = self.p - eps if self.strict and s_open else eps
                if x not in self.domain:
                    self.feasible = False
                    break
                self.seeds[ei] = x

    def exponent(self, values) -> ExponentVector:
        p, strict = self.p, self.strict
        return tuple(p - values[ei] if strict and s else values[ei] for ei, s in self.legs)

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
    """Sum out every variable not in ``keep``; returns the remaining factors.

    Variables go in minimum-degree order, ties to the smallest.  Each
    variable keeps the ids of the factors holding it, and a join pushes
    fresh degrees for its scope onto a heap; stale entries are skipped.
    """
    factors = dict(enumerate(factors))
    holders = defaultdict(set)
    for fid, (scope, _) in factors.items():
        for u in scope:
            holders[u].add(fid)
    alive = set(holders) - keep

    def degree(u):
        return len(set().union(*(factors[fid][0] for fid in holders[u]))) - 1

    heap = [(degree(u), u) for u in alive]
    heapq.heapify(heap)
    new_ids = itertools.count(len(factors))
    while alive:
        d, var = heapq.heappop(heap)
        if var not in alive or d != degree(var):
            continue
        alive.remove(var)
        touched = holders.pop(var)
        scope, rows = _join([factors.pop(fid) for fid in sorted(touched)], drop=var)
        width = len(scope) + 1
        if width > max_table_width:
            warnings.warn(
                f"contraction table spans {width} variables "
                f"(bound {max_table_width})",
                stacklevel=3,
            )
        fid = next(new_ids)
        factors[fid] = scope, rows
        for u in scope:
            holders[u] = holders[u] - touched | {fid}
            if u in alive:
                heapq.heappush(heap, (degree(u), u))
    return list(factors.values())


def _tripod_table(problem: _Problem):
    """The branch-value triples (m1, m2, m3) the vertex condition allows."""
    p, domain = problem.p, problem.domain
    if problem.strict:
        return [(a, b, p + 1 - a - b) for a in domain for b in domain if p + 1 - a - b in domain]
    return [t for t in itertools.product(domain, repeat=3) if balanced_triple(p, *t)]


def _vertex_factor(problem: _Problem, incident, triples):
    """The 0/1 table of a vertex over its distinct incident edges: the
    tripod table ``triples`` read through its branches ``incident``.  A
    slot-1 strict value m is the edge value p - m, a self-loop's two
    branches must give one edge value, a seeded edge must carry its seed."""
    scope = tuple(sorted({ei for ei, _ in incident}))
    p, seeds = problem.p, problem.seeds
    flips = [problem.strict and slot == 1 for _, slot in incident]
    rows = {}
    for ms in triples:
        values = {}
        for (ei, _), flip, m in zip(incident, flips, ms):
            x = p - m if flip else m
            if values.setdefault(ei, x) != x or seeds.get(ei, x) != x:
                break
        else:
            rows[tuple(values[ei] for ei in scope)] = 1
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

    triples = _tripod_table(problem)
    factors = [_vertex_factor(problem, bs, triples) for bs in problem.vertex_branches]
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
