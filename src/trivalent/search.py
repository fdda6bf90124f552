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
  branch points live on an explicit stack of (edge, next value, top
  value, trail mark) frames, so the number of edges is not bounded by
  Python's recursion limit.  A vertex is tested only after one of its
  edges is assigned, but not again for the value it forced, and every
  value, forced ones included, lies in the domain.  So a balanced vertex
  with a free edge always leaves that edge some value: it can fail only
  once it is full, and before that it forces the one free edge that has
  a single value left.

  An edge is branched only over the values both its ends admit: the
  intersection of one interval per end, clipped to the domain.  At a
  strict end with k free terms, the edge's included, and remainder
  ``need``, a slot-0 value lies in [need - (k-1)(p-1), need - (k-1)],
  and a slot-1 value in that range under x -> p - x; a self-loop puts
  no bound on x.  At a balanced end, the last free edge beside values
  a and b lies in [|a - b|, min(a + b, p - 2 - a - b)], and a self-loop
  beside a known s in [(s+1)//2, (p-2-s)//2].  Summing the strict
  condition over all vertices, each internal edge adds x + (p - x) = p
  and each leg its inner value, so the inner leg values add up to
  r - (p-2)(g-1), each at least 1.  So a strict search at genus >= 2
  returns before assigning anything, and at genus 1 it pins every inner
  leg value to 1 after the seeds.  Both prunings drop only values the
  first vertex test would reject, so the stream is unchanged.
  ``count_by_contraction`` and the test oracles use neither, so they
  still check the genus statements independently.

* ``count_by_contraction`` never materializes solutions.  It lists the
  query's tripod table, the branch-value triples the vertex condition
  allows, once.  A vertex's shape says, branch by branch, where the
  branch's edge sits in the vertex's sorted scope, whether the value is
  flipped (a strict slot 1), which seed the edge must carry and whether
  it is a leg being summed out.  Each distinct shape is read off the
  tripod table once into a table of nonzero weighted rows, which every
  vertex of that shape shares.  A leg meets one vertex, so a leg the
  answer does not keep is summed out inside its vertex table.  Every
  other variable is an edge, held by the tables of at most its two ends,
  and a join replaces the tables it reads, so that holds at every step.
  Variables are summed out in greedy minimum-degree order, kept up to
  date join by join: each step joins the two tables at an edge's ends,
  or sums out of its one table an edge that closes a cycle.  A join
  matches stored rows on shared variables and never walks a full
  domain.  The graph is connected, so one table is left: its weights add
  up to the count, and for a by-exponent census each row is a cell.

Constraints (an exponent vector for strict queries, a radii vector for
balanced ones) pin the leg variables before either engine starts.
"""

from __future__ import annotations

import heapq
import itertools
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Mapping

from .numbering import (
    BranchNumbering,
    EdgeNumbering,
    ExponentVector,
    _built,
    check_prime,
)
from .semigraph import MarkedSemiGraph, StructureError, require_valid

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
            constraint = tuple(self.constraint)
            if any(isinstance(c, bool) or not isinstance(c, int) for c in constraint):
                raise ValueError(f"constraint entries must be integers, got {constraint!r}")
            object.__setattr__(self, "constraint", tuple(c % self.p for c in constraint))
        if self.limit is not None:
            if isinstance(self.limit, bool) or not isinstance(self.limit, int):
                raise ValueError(f"limit must be an integer, got {self.limit!r}")
            if self.limit < 0:
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


def _getter(positions):
    """A function projecting a row tuple onto ``positions``, always as a
    tuple: a one- or zero-length slice when there are fewer than two."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (i,) = positions
        return itemgetter(slice(i, i + 1))
    return itemgetter(slice(0))


class _Problem:
    """Shared setup: indexed edges, vertex incidences, domains, seeds."""

    def __init__(self, m: MarkedSemiGraph, query: EnumerationQuery):
        self.genus = require_valid(m).graph_type.g
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

        # Legs in marking order: (edge index, open slot).
        self.legs = [(index[eid], g.edge(eid).open_slot()) for eid in m.marking]

        self.feasible = True
        self.seeds: dict[int, int] = {}
        if query.constraint is not None:
            if len(query.constraint) != len(self.legs):
                raise StructureError(
                    f"constraint has {len(query.constraint)} entries, "
                    f"graph has {len(self.legs)} legs"
                )
            for (ei, _), x in zip(self.legs, self.read_legs(query.constraint)):
                if x not in self.domain:
                    self.feasible = False
                    break
                self.seeds[ei] = x

    def read_legs(self, values: tuple[int, ...]) -> ExponentVector:
        """The exponent (strict) or radii (balanced) of leg values given in
        marking order.  A strict leg open at slot 1 shows p - x there.  The
        map is its own inverse, so it also turns a constraint into the leg
        values it pins."""
        if not self.strict:
            return values
        p = self.p
        return tuple(p - x if s else x for x, (_, s) in zip(values, self.legs))

    # -- vertex reasoning ---------------------------------------------------

    def vertex_status(self, v: int, values) -> tuple[tuple[int, int], ...] | None:
        """The assignments a partially assigned vertex forces, or None when
        it is violated.

        ``v`` is a vertex index and ``values`` holds an edge value or None
        per edge index; at least one edge of ``v`` is assigned.
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
                return () if need == 0 else None
            if not k <= need <= k * (p - 1):
                return None
            if k == 1:
                return ((free, p - need if free_slot else need),)
            return ()
        # Balanced: with the known values' sum s and maximum mx, the
        # triangle condition on a full triple is 2 * mx <= s.  Every value
        # is at most (p - 3) / 2, so two known values a, b always leave the
        # free one a nonempty range, |a - b| = 2 * mx - s up to
        # min(a + b, p - 2 - a - b), and one known value never rules out
        # its two free ones.
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
            return () if 2 * mx <= s <= p - 2 else None
        if missing == 1:
            lo, hi = 2 * mx - s, min(s, p - 2 - s)
        elif self.vertex_loop[v]:
            # The free edge is the self-loop: its value x enters twice.
            lo, hi = (s + 1) // 2, (p - 2 - s) // 2
        else:
            return ()
        return ((free, lo),) if lo == hi else ()

    def edge_ends(self) -> list[tuple]:
        """Per edge, the ends that can bound its value, each with the terms
        there besides the edge.  Strict: (slot, total, other terms) at each
        end where the edge is no self-loop, the total being what the terms
        add up to.  Balanced: the other edge indices, one at the vertex
        whose self-loop the edge is, two elsewhere."""
        ends: list[list] = [[] for _ in self.edges]
        for v, terms in enumerate(self.vertex_terms):
            for i, term in enumerate(terms):
                others = terms[:i] + terms[i + 1:]
                if self.strict:
                    ei, slot = term
                    ends[ei].append((slot, 1 if self.vertex_loop[v] else self.p + 1, others))
                elif term not in terms[:i]:
                    ends[term].append(tuple(e2 for e2 in others if e2 != term))
        return [tuple(e) for e in ends]

    # -- depth-first search -------------------------------------------------

    def solutions(self) -> Iterator[tuple[int, ...]]:
        """Complete assignments as value tuples in edge declaration order."""
        # Summed over all vertices, the strict condition gives inner leg
        # values adding up to r - (p - 2)(g - 1), each at least 1: none
        # exist at genus >= 2, and at genus 1 every one is 1, which is
        # pinned after the seeds (a seed that disagrees ends the search).
        if not self.feasible or (self.strict and self.genus >= 2):
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
            queue = [(ei, x, -1)]
            while queue:
                e0, x0, source = queue.pop()
                if values[e0] is not None:
                    if values[e0] != x0:
                        undo(mark)
                        return -1
                    continue
                values[e0] = x0
                trail.append(e0)
                for v in edge_vertices[e0]:
                    # A forced value meets the vertex that forced it.
                    if v == source:
                        continue
                    forced = status(v, values)
                    if forced is None:
                        undo(mark)
                        return -1
                    for e1, x1 in forced:
                        queue.append((e1, x1, v))
            return mark

        for ei, x in self.seeds.items():
            if try_assign(ei, x) < 0:
                return
        if self.strict and self.genus == 1:
            pinned = self.read_legs((self.p - 1,) * len(self.legs))
            for (ei, _), x in zip(self.legs, pinned):
                if try_assign(ei, x) < 0:
                    return

        def next_free(ei: int) -> int:
            while ei < n and values[ei] is not None:
                ei += 1
            return ei

        # The values of a free edge that pass the vertex test at each of
        # its ends, as an interval clipped to the domain.  A value outside
        # it is exactly one that test rejects; propagation past the ends
        # may still fail.
        p = self.p
        first, last = self.domain[0], self.domain[-1]
        ends = self.edge_ends()
        if self.strict:

            def admitted(ei: int) -> tuple[int, int]:
                lo, hi = first, last
                for slot, need, others in ends[ei]:
                    # k other free terms, each in 1..p-1, make up need - x.
                    k = 0
                    for e2, s2 in others:
                        y = values[e2]
                        if y is None:
                            k += 1
                        else:
                            need -= p - y if s2 else y
                    a, b = need - k * (p - 1), need - k
                    if slot:
                        a, b = p - b, p - a
                    lo, hi = max(lo, a), min(hi, b)
                return lo, hi

        else:

            def admitted(ei: int) -> tuple[int, int]:
                # Only a full triple can fail, so an end bounds the edge
                # once the other values there are known.
                lo, hi = first, last
                for others in ends[ei]:
                    if len(others) == 1:  # ei is the self-loop: (x, x, s)
                        s = values[others[0]]
                        if s is None:
                            continue
                        a, b = (s + 1) // 2, (p - 2 - s) // 2
                    else:
                        c, d = values[others[0]], values[others[1]]
                        if c is None or d is None:
                            continue
                        a, b = abs(c - d), min(c + d, p - 2 - c - d)
                    lo, hi = max(lo, a), min(hi, b)
                return lo, hi

        # Branch on the first free edge, over the values its ends admit.
        # Every edge before it is assigned and stays so until its frame is
        # popped, so the next free edge is searched from the one just
        # branched on.  A frame is (edge, next value, top value, trail mark
        # of the value being explored); undoing to the mark restores the
        # state the interval [next value, top] was read from.
        ei = next_free(0)
        if ei == n:
            yield tuple(values)
            return
        x, top = admitted(ei)
        stack: list[tuple[int, int, int, int]] = []
        while True:
            while x <= top:
                mark = try_assign(ei, x)
                x += 1
                if mark < 0:
                    continue
                nxt = next_free(ei + 1)
                if nxt == n:
                    yield tuple(values)
                    undo(mark)
                else:
                    stack.append((ei, x, top, mark))
                    ei = nxt
                    x, top = admitted(ei)
            if not stack:
                return
            ei, x, top, mark = stack.pop()
            undo(mark)

    def to_numbering(self, sol) -> BranchNumbering | EdgeNumbering:
        if self.strict:
            p = self.p
            vals = {}
            for (k0, k1), x in zip(self.branch_keys, sol):
                vals[k0] = x
                vals[k1] = p - x
            return _built(BranchNumbering, p, vals)
        return _built(EdgeNumbering, self.p, dict(zip(self.edge_ids, sol)))


def enumerate_numberings(
    m: MarkedSemiGraph, query: EnumerationQuery
) -> Iterator[BranchNumbering | EdgeNumbering]:
    """Stream the numberings matching the query, in deterministic order.

    Numberings come out lexicographically by edge values in declaration
    order (for strict queries, by the slot-0 values).  ``query.limit``
    stops the search as soon as that many results are out.
    """
    problem = _Problem(m, query)
    for sol in itertools.islice(problem.solutions(), query.limit):
        yield problem.to_numbering(sol)


def count(m: MarkedSemiGraph, query: EnumerationQuery, by_exponent: bool = False) -> CensusReport:
    """Exact count by exhausting the backtracking engine (limit ignored)."""
    problem = _Problem(m, query)
    if not by_exponent:
        return CensusReport(sum(1 for _ in problem.solutions()), "backtracking")
    leg_values = _getter([ei for ei, _ in problem.legs])
    cells = Counter(problem.read_legs(leg_values(sol)) for sol in problem.solutions())
    return CensusReport(sum(cells.values()), "backtracking", dict(cells))


# ---------------------------------------------------------------------------
# contraction

_UNIT = ((), {(): 1})

# A table spanning more variables than this draws a warning.
MAX_TABLE_WIDTH = 8


def _join(f, g, var):
    """The product of factors ``f`` and ``g`` with ``var`` summed out.

    A factor is (scope tuple, {assignment tuple: weight}) and stores only
    its nonzero rows.  Vertices of one shape share a rows dict, so no
    factor's rows are ever mutated.  ``g``'s rows are indexed on the
    variables it shares with ``f``, and each row of ``f`` meets the rows
    that match it with ``var`` summed out at once, so the full product is
    never stored.  ``var`` is in ``f``'s scope; the result's scope is
    ``f``'s without it, then ``g``'s other variables.
    """
    scope, table = f
    g_scope, g_rows = g
    at = {u: i for i, u in enumerate(scope)}
    shared = [i for i, u in enumerate(g_scope) if u in at]
    fresh = [i for i, u in enumerate(g_scope) if u not in at]
    key, ext = _getter(shared), _getter(fresh)
    index = defaultdict(list)
    for row, weight in g_rows.items():
        index[key(row)].append((ext(row), weight))
    probe = _getter([at[g_scope[i]] for i in shared])
    kept = [i for i, u in enumerate(scope) if u != var]
    head = _getter(kept)
    summed = defaultdict(int)
    for row, weight in table.items():
        matches = index.get(probe(row))
        if matches:
            h = head(row)
            for e, g_weight in matches:
                summed[h + e] += weight * g_weight
    return tuple(scope[i] for i in kept) + tuple(g_scope[i] for i in fresh), summed


def _eliminate(factors, keep):
    """Sum out every variable not in ``keep``; returns the one factor left.

    An edge has at most two holders, so a third one, or a second factor
    left over, fails an unpacking.  Variables go in minimum-degree order,
    ties to the smallest.  Each variable keeps the ids of the factors
    holding it, and a join pushes fresh degrees for its scope onto a
    heap; stale entries are skipped.
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
        f, g = [factors.pop(fid) for fid in sorted(touched)] + [_UNIT] * (2 - len(touched))
        scope, rows = _join(f, g, var)
        width = len(scope) + 1
        if width > MAX_TABLE_WIDTH:
            warnings.warn(
                f"contraction table spans {width} variables (bound {MAX_TABLE_WIDTH})",
                stacklevel=3,
            )
        fid = next(new_ids)
        factors[fid] = scope, rows
        for u in scope:
            holders[u] = holders[u] - touched | {fid}
            if u in alive:
                heapq.heappush(heap, (degree(u), u))
    (factor,) = factors.values()
    return factor


def _tripod_table(problem: _Problem):
    """The branch-value triples (m1, m2, m3) the vertex condition allows,
    in lexicographic order.  A balanced m3 lies between |m1 - m2| and
    min(m1 + m2, p - 2 - m1 - m2), which keeps it in the domain."""
    p, domain = problem.p, problem.domain
    if problem.strict:
        return [(a, b, p + 1 - a - b) for a in domain for b in domain if p + 1 - a - b in domain]
    return [
        (a, b, c)
        for a in domain
        for b in domain
        for c in range(abs(a - b), min(a + b, p - 2 - a - b) + 1)
    ]


def _shape_rows(shape, triples, p):
    """The rows of one vertex shape, read off the tripod table ``triples``.

    A shape has one (position, flip, seed, folded) entry per branch:
    the position of the branch's edge in the vertex's sorted scope,
    whether its value m is the edge value p - m (a strict slot 1), the
    seed its edge must carry or None, and whether its edge is a leg
    summed out here.  Branches at one position (a self-loop) must agree.
    Rows are keyed by the unfolded positions in order and weigh the
    number of triples behind them.
    """
    first = {}
    for b, (pos, _, _, _) in enumerate(shape):
        first.setdefault(pos, b)
    key = _getter([first[pos] for pos in sorted(first) if not shape[first[pos]][3]])
    f1, f2, f3 = (flip for _, flip, _, _ in shape)
    if f1 or f2 or f3:
        triples = [
            (p - m1 if f1 else m1, p - m2 if f2 else m2, p - m3 if f3 else m3)
            for m1, m2, m3 in triples
        ]
    for b, (pos, _, seed, _) in enumerate(shape):
        if seed is not None:
            triples = [xs for xs in triples if xs[b] == seed]
        if first[pos] != b:
            c = first[pos]
            triples = [xs for xs in triples if xs[b] == xs[c]]
    rows = defaultdict(int)
    for xs in triples:
        rows[key(xs)] += 1
    return rows


def _vertex_factors(problem: _Problem, triples, folded):
    """Each vertex's factor: its scope without the ``folded`` legs, and the
    rows of its shape (see ``_shape_rows``).  Every distinct shape is read
    off ``triples`` once and its rows are shared by the vertices with it."""
    strict, seeds = problem.strict, problem.seeds
    tables = {}
    factors = []
    for incident in problem.vertex_branches:
        scope = sorted({ei for ei, _ in incident})
        shape = tuple(
            (scope.index(ei), strict and slot == 1, seeds.get(ei), ei in folded)
            for ei, slot in incident
        )
        rows = tables.get(shape)
        if rows is None:
            rows = tables[shape] = _shape_rows(shape, triples, problem.p)
        factors.append((tuple(ei for ei in scope if ei not in folded), rows))
    return factors


def count_by_contraction(
    m: MarkedSemiGraph, query: EnumerationQuery, by_exponent: bool = False
) -> CensusReport:
    """Exact count by variable elimination; independent of the backtracker."""
    problem = _Problem(m, query)
    if not problem.feasible:
        return CensusReport(0, "contraction", {} if by_exponent else None)

    # A leg meets one vertex, so a leg the read-off does not keep is summed
    # out in its vertex's table rather than by a join, and is in no scope.
    legs = {ei for ei, _ in problem.legs}
    factors = _vertex_factors(problem, _tripod_table(problem), set() if by_exponent else legs)
    scope, table = _eliminate(factors, legs)
    total = sum(table.values())
    if not by_exponent:
        return CensusReport(total, "contraction")
    # The scope is the kept legs: each row is one cell.
    leg_values = _getter([scope.index(ei) for ei, _ in problem.legs])
    cells = {problem.read_legs(leg_values(row)): n for row, n in table.items()}
    return CensusReport(total, "contraction", cells)
