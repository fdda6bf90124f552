"""Enumeration and exact counting of strict and balanced numberings.

Both engines read one compiled problem: each vertex as its (edge index,
slot) branches, and one domain per edge variable.  For strict numberings
the search's variable is the slot-0 branch value (1..p-1, slot 1
carrying p - x; contraction reads a leg by its exponent instead, below);
for balanced numberings it is the edge value, with domain 0..(p-3)/2:
every edge meets a vertex, where 2 * max <= sum <= p - 2.  A solution
holds its values in label order, the order of the numbering's JSON keys
(``_Problem.keys``): a balanced edge value per edge, or for strict
numberings the value of branch (edge i, slot s) at 2i + s, x then p - x
per edge.

* ``enumerate_numberings``, ``enumerate_lines`` (the JSON lines of the
  same stream, for the CLI) and ``count`` run a depth-first backtracking
  search.  Edges are branched in declaration order with values
  ascending, so the stream is deterministic and lexicographic in the
  declared edge order.

  The search reads each kind's vertex condition in one place, its
  window (``_Problem.strict_window``, ``_Problem.balanced_window``): at
  an end of an edge, the interval of values the end's vertex admits on
  that edge, given the values of some of its other edges.  A strict
  self-loop adds p whatever its value, so it has no end.

  Which edges are known at each depth does not depend on the values, so
  ``_Problem.plan`` compiles the search once per query into levels, with
  each window rule listing only the known terms, by label position.  A
  level or step sets one edge's value at its label position, and a
  strict one writes p - x beside its x, so a window reads every known
  term as it is stored, whatever its slot.  The seeded and pinned legs
  come first, each over the domain narrowed to its fixed values: one
  value, or none when a seed lies outside the domain or disagrees with
  the pin, which ends the search at that level.  Then comes one level
  per other edge that no vertex forces, over the whole domain.  A
  level's edge takes the values of its range that lie in every one of
  its ends' windows, so it needs no check.  A strict vertex left with
  one free edge forces it, and a vertex that a forced value fills is
  checked; those steps follow the value that sets them off, and a
  forced edge gets no level.  Whether a balanced window is one value
  depends on the values, so a balanced edge keeps its level; once all
  its ends are full, a step works out its interval, and an interval of
  one value passes the level over.  ``_Problem.solutions`` walks the
  levels with a stack of those that have values left to try.  A level's
  value is read only at that level and below, so going back needs no
  undo, and the number of edges is not bounded by Python's recursion
  limit.

  Summing the strict condition over all vertices, each internal edge
  adds x + (p - x) = p and each leg its inner value, so the inner leg
  values add up to r - (p-2)(g-1), each at least 1.  So a strict search
  at genus >= 2 returns before assigning anything, and at genus 1 it
  pins every inner leg value to 1, in the legs' levels.  Neither the windows
  nor the pin drop a numbering, so the stream is the full one.
  ``count_by_contraction`` and the test oracles use neither, so they
  still check the genus statements independently.

* ``count_by_contraction`` never materializes solutions.  Its variable
  for an edge is the balanced edge value, the strict slot-0 value, or,
  on a strict leg, the exponent: the value of its open branch, so its
  inner branch carries p minus it.  It lists the query's tripod table,
  the branch-value triples the vertex condition allows, once.  A
  vertex's shape says, branch by branch, where the branch's edge sits in
  the vertex's sorted scope, whether the variable is p minus the branch
  value (a strict slot 1 or a strict leg's inner branch), which seed the
  edge must carry and whether it is a leg being summed out.  Each
  distinct shape is read off the tripod table once into a table of
  nonzero weighted rows, which every vertex of that shape shares.  A leg
  meets one vertex, so a leg the answer does not keep is summed out
  inside its vertex table.  Every other variable is an edge, held by the
  tables of at most its two ends, and a join replaces the tables it
  reads, so that holds at every step.  Variables are summed out in
  greedy minimum-degree order, kept up to date join by join: each step
  joins the two tables at an edge's ends, or sums out of its one table
  an edge that closes a cycle.  A join matches stored rows on shared
  variables and never walks a full domain.  The graph is connected, so
  one table is left: its weights add up to the count, and for a
  by-exponent census each row, the kept legs' exponents or radii, is a
  cell.

A constraint (an exponent vector for strict queries, a radii vector for
balanced ones) is kept as given in ``_Problem.seeds``, and each engine
reads it its own way.  The backtracker turns a seed, like the genus-1
pin's exponent p - 1, into its leg's slot-0 value (p - e on a strict leg
open at slot 1); contraction's leg variables are the seeds themselves.
Each engine turns away a seed outside the domain on its own: the
backtracker's seeded level has no value to try, and no row of
contraction's tripod table carries it.
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
    _compile_line,
    check_prime,
)
from .semigraph import MarkedSemiGraph, StructureError, require_valid

KINDS = ("strict", "balanced")


@dataclass(frozen=True)
class EnumerationQuery:
    """What a search or count is asked: the prime ``p``, the ``kind``
    ("strict" or "balanced"), an optional ``constraint`` and ``limit``.

    ``constraint`` fixes one value per leg, in marking order: the
    exponent vector for strict queries, the radii vector for balanced
    ones.  Its entries are stored reduced mod p.  ``limit`` caps the
    number of numberings a stream yields; counts ignore it."""

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
    """One engine's count.  ``method`` names the engine; ``count --method
    both`` and ``verify_p048`` key each engine's figures by it."""

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
        # The key of each value of a solution, in label order.
        self.keys = list(g.branches()) if self.strict else self.edge_ids
        self.domain = range(1, self.p) if self.strict else range((self.p - 1) // 2)

        # Legs in marking order: (edge index, open slot).
        self.legs = [(index[eid], g.edge(eid).open_slot()) for eid in m.marking]
        # Where each leg's exponent (strict) or radius (balanced) sits in a
        # solution.
        self.open_positions = [2 * ei + slot if self.strict else ei for ei, slot in self.legs]

        # The exponent (strict) or radius (balanced) a constraint asks of
        # each leg, by edge index, as given: in or out of the domain.
        constraint = query.constraint
        if constraint is not None and len(constraint) != len(self.legs):
            raise StructureError(
                f"constraint has {len(constraint)} entries, graph has {len(self.legs)} legs"
            )
        self.seeds = dict(zip([ei for ei, _ in self.legs], constraint or ()))

    # -- vertex windows -----------------------------------------------------

    def strict_window(self, rule, values, lo: int, hi: int) -> tuple[int, int]:
        """The part of lo..hi a strict vertex admits on an end's edge.

        ``rule`` is (slot, total, known, k): the edge's slot, what the
        vertex's terms add up to, the label positions of the other terms
        whose values are known and the number k of free ones.  With
        ``need`` the total less the known terms, and each free term in
        1..p-1, the edge's term lies in [need - k(p-1), need - k]; the
        edge's value x is that term at slot 0, and p - x at slot 1.
        """
        p = self.p
        slot, need, known, k = rule
        for j in known:
            need -= values[j]
        a, b = need - k * (p - 1), need - k
        if slot:
            a, b = p - b, p - a
        return (a if a > lo else lo), (b if b < hi else hi)

    def balanced_window(self, rule, values, lo: int, hi: int) -> tuple[int, int]:
        """The part of lo..hi a balanced vertex admits on an end's edge.

        ``rule`` holds the other values of the vertex's triple, all known:
        one edge when the edge is a self-loop, two otherwise.  Only a full
        triple can fail: beside a and b the edge lies in
        [|a - b|, min(a + b, p - 2 - a - b)], and as a self-loop beside s
        in [(s+1)//2, (p-2-s)//2].  Every value is at most (p - 3) / 2, so
        neither interval is ever empty.
        """
        p = self.p
        if len(rule) == 1:
            s = values[rule[0]]
            a, b = (s + 1) // 2, (p - 2 - s) // 2
        else:
            c, d = values[rule[0]], values[rule[1]]
            a, b = abs(c - d), min(c + d, p - 2 - c - d)
        return (a if a > lo else lo), (b if b < hi else hi)

    # -- search plan --------------------------------------------------------

    def plan(self) -> list:
        """The search compiled once per query: its levels, each
        (position, lo, hi, windows, steps).  A level or step sets one
        edge's value, at its label position in a solution: 2i for edge i
        when strict (the slot-0 value x, with p - x at 2i + 1), i when
        balanced.  The seeded and pinned legs come first, in edge order,
        each over the domain narrowed to its fixed values: one value, or
        none when a seed lies outside the domain or disagrees with the
        pin.  Then every other edge no step forces, in declaration order,
        over the whole domain.  A level's values are drawn from lo..hi and
        its window rules; its value sets off its steps.  Which edges are
        known at each depth does not depend on the values, so each rule
        lists only the known terms, by label position.

        A step is (position, check, windows, settle).  It reads the
        interval the windows leave of the domain, or of the edge's own
        value when ``check`` is set; an empty one fails the branch.
        Otherwise the edge takes the low end: the value a strict vertex
        forces, or the first value of a balanced edge whose ends are all
        full.  With ``settle``, an interval of one value passes the edge's
        level over.
        """
        at = 2 if self.strict else 1
        # Each fixed leg's seed and strict genus-1 pin (exponent p - 1), as
        # slot-0 values: a strict leg open at slot 1 holds p - e there.
        pin = [self.p - 1] if self.strict and self.genus == 1 else []
        fixed = {}
        for ei, slot in self.legs:
            es = [self.seeds[ei], *pin] if ei in self.seeds else pin
            if es:
                fixed[ei] = [self.p - e if self.strict and slot else e for e in es]
        # Per edge, one end per vertex whose condition reads it, as (vertex,
        # rule, the (edge, rule) pairs of the vertex's other edges): strict,
        # a rule is (slot, total, other terms), balanced the other values
        # of the triple.
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

        known = [False] * len(self.edges)
        full = [False] * len(self.vertex_branches)

        def window(rule):
            """An end's rule as its window reads it, given what is known;
            None when the window is the whole domain, as a balanced one is
            while a value of the triple is free, and a strict one with both
            other terms free."""
            if not self.strict:
                return rule if all(known[ej] for ej in rule) else None
            slot, total, terms = rule
            k = sum(not known[ej] for ej, _ in terms)
            known_at = tuple(2 * ej + s for ej, s in terms if known[ej])
            return (slot, total, known_at, k) if k < 2 else None

        def learn(ei: int) -> list:
            """Mark ``ei`` known and return the steps that follow.

            A vertex is full once it has at most one free edge: a strict
            vertex forces that edge, and a balanced edge is settled once
            all its ends are full.  A fixed edge still to come keeps its
            level, so it is never forced or settled.  A forced value is
            checked at each vertex it fills but the one that forced it; the
            level's own value lies in every window of its edge already."""
            known[ei] = True
            queue, steps = [ei], []
            while queue:
                e0 = queue.pop()
                for v, rule, others in ends[e0]:
                    free = [(e1, rule1) for e1, rule1 in others if not known[e1]]
                    if full[v] or len(free) > 1 or (free and free[0][0] in fixed):
                        continue
                    full[v] = True
                    if not free:
                        if e0 != ei:
                            steps.append((at * e0, True, (window(rule),), False))
                        continue
                    ((e1, rule1),) = free
                    if self.strict:
                        known[e1] = True
                        steps.append((at * e1, False, (window(rule1),), False))
                        queue.append(e1)
                    elif all(full[w] for w, _, _ in ends[e1]):
                        steps.append((e1, False, tuple(window(r) for _, r, _ in ends[e1]), True))
            return steps

        first, last = self.domain[0], self.domain[-1]
        levels = []
        for ei in sorted(fixed) + [ei for ei in range(len(self.edges)) if ei not in fixed]:
            if known[ei]:
                continue
            xs = fixed.get(ei, ())
            windows = tuple(filter(None, [window(r) for _, r, _ in ends[ei]]))
            levels.append((at * ei, max([first, *xs]), min([last, *xs]), windows, learn(ei)))
        return levels

    def solutions(self) -> Iterator[tuple[int, ...]]:
        """Complete assignments as value tuples in label order: a
        balanced edge value per edge, or for strict numberings the value
        of branch (edge i, slot s) at 2i + s, x then p - x per edge."""
        # Summed over all vertices, the strict condition gives inner leg
        # values adding up to r - (p - 2)(g - 1), each at least 1: none
        # exist at genus >= 2, and at genus 1 every one is 1.
        if self.strict and self.genus >= 2:
            return
        levels = self.plan()
        p, strict = self.p, self.strict
        window = self.strict_window if strict else self.balanced_window
        first, last = self.domain[0], self.domain[-1]
        values = [first] * len(self.keys)
        # Per level, whether a step settled its edge to one value, so that
        # the level is passed over.  The last entry stands for the end.
        passed = [False] * (len(levels) + 1)
        level_of = {level[0]: d for d, level in enumerate(levels)}
        # Values are tried in ascending order at each level, so the stream
        # is lexicographic in declaration order.  A level's value is read
        # only at that level and below, so going back needs no undo: the
        # stack holds the levels with values left to try, as (depth, next
        # value, top value).  The search starts above the first level, at
        # depth -1 with no values to try and no steps.
        d, x, top, steps = -1, 0, -1, ()
        stack: list[tuple[int, int, int]] = []
        while True:
            for j, check, windows, settle in steps:
                lo, hi = (values[j], values[j]) if check else (first, last)
                for rule in windows:
                    lo, hi = window(rule, values, lo, hi)
                if lo > hi:
                    break
                values[j] = lo
                if strict:
                    values[j + 1] = p - lo
                if settle:
                    passed[level_of[j]] = lo == hi
            else:
                nxt = d + 1
                while passed[nxt]:
                    nxt += 1
                if nxt == len(levels):
                    yield tuple(values)
                else:
                    if x <= top:
                        stack.append((d, x, top))
                    d = nxt
                    _, x, top, windows, _ = levels[d]
                    for rule in windows:
                        x, top = window(rule, values, x, top)
            while x > top:
                if not stack:
                    return
                d, x, top = stack.pop()
            i, _, _, _, steps = levels[d]
            values[i] = x
            if strict:
                values[i + 1] = p - x
            x += 1

    def to_numbering(self, sol) -> BranchNumbering | EdgeNumbering:
        values = dict(zip(self.keys, sol))
        return _built(BranchNumbering if self.strict else EdgeNumbering, self.p, values)


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


def enumerate_lines(m: MarkedSemiGraph, query: EnumerationQuery) -> Iterator[str]:
    """The ``dumps_numbering`` line of each numbering
    ``enumerate_numberings(m, query)`` yields, in the same order, filled
    into the graph's compiled template straight from the search's value
    tuples.  The template reads p, then the values in label order, the
    order ``_Problem.solutions`` yields them in."""
    problem = _Problem(m, query)
    p, strict = problem.p, problem.strict
    template, _ = m.graph.numbering_lines.get(strict) or _compile_line(m.graph, strict)
    for sol in itertools.islice(problem.solutions(), query.limit):
        yield template % ((p,) + sol)


def count(m: MarkedSemiGraph, query: EnumerationQuery, by_exponent: bool = False) -> CensusReport:
    """Exact count by exhausting the backtracking engine (limit ignored)."""
    problem = _Problem(m, query)
    if not by_exponent:
        return CensusReport(sum(1 for _ in problem.solutions()), "backtracking")
    cells = Counter(map(_getter(problem.open_positions), problem.solutions()))
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
    whether its value m gives the edge's variable p - m (a strict slot 1,
    or a strict leg's inner branch, since a leg's variable is its
    exponent), the seed its edge must carry or None, and whether its edge
    is a leg summed out here.  Branches at one position (a self-loop)
    must agree.  Rows are keyed by the unfolded positions in order and
    weigh the number of triples behind them.
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
    rows of its shape (see ``_shape_rows``).  A strict branch is flipped
    at slot 1 and on a leg, whose variable is its exponent, so a seed (a
    constraint's exponent or radius) matches rows as given.  Every
    distinct shape is read off ``triples`` once and its rows are shared by
    the vertices with it."""
    strict, seeds = problem.strict, problem.seeds
    legs = {ei for ei, _ in problem.legs}
    tables = {}
    factors = []
    for incident in problem.vertex_branches:
        scope = sorted({ei for ei, _ in incident})
        shape = tuple(
            (scope.index(ei), strict and (slot == 1 or ei in legs), seeds.get(ei), ei in folded)
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
    # A leg meets one vertex, so a leg the read-off does not keep is summed
    # out in its vertex's table rather than by a join, and is in no scope.
    legs = {ei for ei, _ in problem.legs}
    factors = _vertex_factors(problem, _tripod_table(problem), set() if by_exponent else legs)
    scope, table = _eliminate(factors, legs)
    total = sum(table.values())
    if not by_exponent:
        return CensusReport(total, "contraction")
    # The scope is the kept legs, each read as its exponent or radius, so
    # each row is one cell as it stands.
    leg_values = _getter([scope.index(ei) for ei, _ in problem.legs])
    cells = {leg_values(row): n for row, n in table.items()}
    return CensusReport(total, "contraction", cells)
