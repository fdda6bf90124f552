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
  Python's recursion limit.

  The search reads each kind's vertex condition in one place, its
  window (``_Problem.strict_window``, ``_Problem.balanced_window``): at
  an end of an edge, the interval of values the end's vertex admits on
  that edge, given the values known so far.  A strict self-loop adds p
  whatever its value, so it has no end.  The window does three jobs.
  An edge is branched over the intersection of its ends' windows,
  clipped to the domain.  A seeded, pinned or forced value is checked
  against the window at each end but the one that forced it; a
  branched value lies in every window of its edge already.  And a
  vertex left with one free edge forces that edge's window when it is
  a single value, and fails when it is empty.

  Summing the strict condition over all vertices, each internal edge
  adds x + (p - x) = p and each leg its inner value, so the inner leg
  values add up to r - (p-2)(g-1), each at least 1.  So a strict search
  at genus >= 2 returns before assigning anything, and at genus 1 it
  pins every inner leg value to 1 after the seeds.  Neither the windows
  nor the pin drop a numbering, so the stream is the full one.
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
        self.vertex_branches = [
            tuple((index[eid], slot) for eid, slot in g.branches_at[v]) for v in g.vertices
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

    # -- vertex windows -----------------------------------------------------

    def strict_window(self, rule, values, lo: int, hi: int) -> tuple[int, int]:
        """The part of lo..hi a strict vertex admits on an end's edge, given
        ``values`` (an edge value or None per edge index).

        ``rule`` is (slot, total, others): the edge's slot, what the terms
        add up to and the other terms (edge index, slot).  With k free
        others, each in 1..p-1, the edge's term lies in
        [need - k(p-1), need - k], ``need`` being the total less the known
        terms; a slot-1 term is p - x.
        """
        p = self.p
        slot, need, others = rule
        k = 0
        for ej, s in others:
            y = values[ej]
            if y is None:
                k += 1
            else:
                need -= p - y if s else y
        a, b = need - k * (p - 1), need - k
        if slot:
            a, b = p - b, p - a
        return (a if a > lo else lo), (b if b < hi else hi)

    def balanced_window(self, rule, values, lo: int, hi: int) -> tuple[int, int]:
        """The part of lo..hi a balanced vertex admits on an end's edge, given
        ``values`` (an edge value or None per edge index).

        ``rule`` holds the other values of the vertex's triple: one edge
        when the edge is a self-loop, two otherwise.  Only a full triple
        can fail: beside a and b the edge lies in
        [|a - b|, min(a + b, p - 2 - a - b)], and as a self-loop beside s
        in [(s+1)//2, (p-2-s)//2].  Every value is at most (p - 3) / 2, so
        neither interval is ever empty.
        """
        p = self.p
        if len(rule) == 1:
            s = values[rule[0]]
            if s is None:
                return lo, hi
            a, b = (s + 1) // 2, (p - 2 - s) // 2
        else:
            c, d = values[rule[0]], values[rule[1]]
            if c is None or d is None:
                return lo, hi
            a, b = abs(c - d), min(c + d, p - 2 - c - d)
        return (a if a > lo else lo), (b if b < hi else hi)

    # -- depth-first search -------------------------------------------------

    def solutions(self) -> Iterator[tuple[int, ...]]:
        """Complete assignments as value tuples in edge declaration order."""
        # Summed over all vertices, the strict condition gives inner leg
        # values adding up to r - (p - 2)(g - 1), each at least 1: none
        # exist at genus >= 2, and at genus 1 every one is 1, which is
        # pinned after the seeds (a seed that disagrees ends the search).
        if not self.feasible or (self.strict and self.genus >= 2):
            return
        # The backtracker's graph form: per edge, one end per vertex whose
        # condition reads it, as (vertex, rule, the (edge, rule) pairs of
        # the vertex's other edges).  A rule is what the kind's window
        # reads; ``rules`` holds a vertex's (edge, rule) pairs.
        ends: list[list[tuple]] = [[] for _ in self.edges]
        for v, branches in enumerate(self.vertex_branches):
            if self.strict:
                # A self-loop's branches add up to p whatever its value, so
                # it has no end and the vertex's one other branch reads 1.
                terms = [b for b in branches if not self.edges[b[0]].is_loop]
                total = self.p + 1 if len(terms) == 3 else 1
                rules = [
                    (ei, (slot, total, tuple(terms[:i] + terms[i + 1:])))
                    for i, (ei, slot) in enumerate(terms)
                ]
            else:
                # The other values of the triple, a self-loop's twice.
                triple = [ei for ei, _ in branches]
                rules = [
                    (ei, tuple([e for e in triple if e != ei])) for ei in dict.fromkeys(triple)
                ]
            for i, (ei, rule) in enumerate(rules):
                ends[ei].append((v, rule, tuple(rules[:i] + rules[i + 1:])))
        n = len(self.edges)
        values: list[int | None] = [None] * n
        trail: list[int] = []
        window = self.strict_window if self.strict else self.balanced_window
        first, last = self.domain[0], self.domain[-1]

        def undo(mark: int):
            while len(trail) > mark:
                values[trail.pop()] = None

        def try_assign(ei: int, x: int, check: bool = True) -> int:
            """Assign and propagate; trail mark on success, -1 on contradiction.

            ``check=False`` says ``x`` lies in every window of ``ei``, as a
            branched value does."""
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
                for v, rule, others in ends[e0]:
                    # A forced value lies in the window of the vertex that
                    # forced it, and that vertex has no free edge left.
                    if v == source:
                        continue
                    # The vertex's one free other edge; () when two are.
                    free = None
                    for end in others:
                        if values[end[0]] is None:
                            free = end if free is None else ()
                    if free:
                        # The vertex admits x0 exactly when it leaves its
                        # last free edge some value, so this window also
                        # checks x0.
                        e1, rule1 = free
                        lo, hi = window(rule1, values, first, last)
                        if lo == hi:
                            queue.append((e1, lo, v))
                    elif check:
                        lo, hi = window(rule, values, x0, x0)
                    else:
                        continue
                    if lo > hi:
                        undo(mark)
                        return -1
                check = True  # every later value is forced
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

        def admitted(ei: int) -> tuple[int, int]:
            """The interval every end of ``ei`` admits, within the domain."""
            lo, hi = first, last
            for _, rule, _ in ends[ei]:
                lo, hi = window(rule, values, lo, hi)
            return lo, hi

        # Branch on the first free edge, over the values every end of it
        # admits.  Every edge before it is assigned and stays so until its
        # frame is popped, so the next free edge is searched from the one
        # just branched on.  A frame is (edge, next value, top value, trail
        # mark of the value being explored); undoing to the mark restores
        # the state the interval [next value, top] was read from.
        ei = next_free(0)
        if ei == n:
            yield tuple(values)
            return
        x, top = admitted(ei)
        stack: list[tuple[int, int, int, int]] = []
        while True:
            while x <= top:
                mark = try_assign(ei, x, False)
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
