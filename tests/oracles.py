"""Brute-force reference engines for the test suite.

The engines' oracles scan the raw assignment space directly off the
graph structure, bypassing the predicates and both search engines, so
that agreement is meaningful.  Only usable at desk scale.  The graphs
they run on are named in ``corpus.py``.  ``miura_loop`` is the Miura
verifier's report built one numbering at a time through the public
predicates, and ``ReferenceProblem`` a backtracker that derives the
search plan's work node by node.
"""

import itertools
from operator import itemgetter
from typing import Iterator

from trivalent.miura import miura_transform, mu_value
from trivalent.numbering import (
    EdgeNumbering,
    exponent_of,
    is_balanced,
    numbering_to_json_obj,
    radii_of,
)
from trivalent.search import EnumerationQuery, _Problem
from trivalent.verify import TheoremReport, _inputs


def is_prime(n):
    """Trial division by every d up to the square root of n."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def star(p, m1, m2, m3):
    return abs(m2 - m3) <= m1 <= m2 + m3 and m1 + m2 + m3 <= p - 2


def naive_balanced(m, p):
    """All edge-value maps passing the triangle-and-bound test at each vertex."""
    g = m.graph
    ids = [e.id for e in g.edges]
    at = {eid: i for i, eid in enumerate(ids)}
    allowed = {t for t in itertools.product(range(p), repeat=3) if star(p, *t)}
    # Each vertex reads its three edge values off a combo.
    vertices = [itemgetter(*[at[eid] for eid, _slot in g.branches_at[v]]) for v in g.vertices]
    solutions = []
    for combo in itertools.product(range(p), repeat=len(ids)):
        if all(vertex(combo) in allowed for vertex in vertices):
            solutions.append(dict(zip(ids, combo)))
    return solutions


def naive_strict(m, p):
    """All involution-paired branch maps, nonzero, vertex sums p + 1.

    Solutions come back as branch-value dicts keyed by (edge id, slot),
    scanning slot-0 values 1..p-1 per edge in declaration order; the
    slot-1 values p - x are then nonzero too.
    """
    g = m.graph
    ids = [e.id for e in g.edges]
    at = {eid: i for i, eid in enumerate(ids)}
    n = len(ids)
    # Each vertex reads its three branch values off the combo followed by
    # the slot-1 values p - x.
    vertices = [
        itemgetter(*[at[eid] + slot * n for eid, slot in g.branches_at[v]]) for v in g.vertices
    ]
    solutions = []
    for combo in itertools.product(range(1, p), repeat=n):
        branch_values = combo + tuple([p - x for x in combo])
        if all(sum(vertex(branch_values)) == p + 1 for vertex in vertices):
            values = {}
            for eid, x in zip(ids, combo):
                values[(eid, 0)] = x
                values[(eid, 1)] = p - x
            solutions.append(values)
    return solutions


def naive_tripod_census(p):
    """Positive triples summing to p + 1, by direct triple scan."""
    triples = []
    for m1 in range(1, p):
        for m2 in range(1, p):
            for m3 in range(1, p):
                if m1 + m2 + m3 == p + 1:
                    triples.append((m1, m2, m3))
    return triples


def naive_tripod_strict_set(p):
    """Every triple in {0..p-1}^3 with sum 1 mod p, in lexicographic order,
    flagged when its entries are nonzero and sum to exactly p + 1."""
    out = []
    for triple in itertools.product(range(p), repeat=3):
        if sum(triple) % p == 1:
            out.append((triple, 0 not in triple and sum(triple) == p + 1))
    return out


def open_values_strict(m, branch_values):
    """Exponent vector read straight off the marking."""
    out = []
    for eid in m.marking:
        e = m.graph.edge(eid)
        out.append(branch_values[(eid, e.ends.index(None))])
    return tuple(out)


def open_values_balanced(m, edge_values):
    return tuple(edge_values[eid] for eid in m.marking)


def numbering_document(m, a):
    """The JSON document of numbering ``a`` on ``m``, built as a dict by
    walking the graph: strict labels "<edge id>.<slot>" from
    ``g.branches()``, balanced labels from ``g.edges``, each value read
    from ``a.values`` by key.  Values for branches or edges the graph
    lacks are left out; a missing value raises ``KeyError``."""
    g = m.graph
    if isinstance(a, EdgeNumbering):
        return {"p": a.p, "kind": "balanced", "edge_values": {e.id: a.values[e.id] for e in g.edges}}
    values = {f"{eid}.{slot}": a.values[(eid, slot)] for eid, slot in g.branches()}
    return {"p": a.p, "kind": "strict", "branch_values": values}


def recursive_reduced_loop(m, base):
    """Reference for ``reduced_loop``, written recursively: a search over
    simple paths from each candidate base vertex back to itself, branches
    in declaration order.  Empty when no vertex lies on a cycle."""
    g = m.graph

    def extend(v0, cur, used, visited, path):
        for b in g.branches_at[cur]:
            if b[0] in used:
                continue
            w = g.incidence(g.partner(b))
            if w is None:
                continue
            if w == v0:
                return path + [b]
            if w in visited:
                continue
            found = extend(v0, w, used | {b[0]}, visited | {w}, path + [b])
            if found:
                return found
        return None

    for v0 in (base, *(v for v in g.vertices if v != base)):
        cycle = extend(v0, v0, frozenset(), frozenset({v0}), [])
        if cycle:
            return cycle
    return []


def product_vertex_table(m, p, kind, v, constraint=None, fold_legs=False):
    """Reference for a contraction vertex table: vertex ``v``'s table over
    its distinct incident edges (sorted edge indices), by a scan of the
    product of their domains.  The balanced scan runs over 0..p-2, so a
    row the engine's narrower domain loses would show up here.
    A strict internal edge is keyed by its slot-0 value and a leg by its
    exponent, the value of its open branch, so its inner branch reads
    p minus it; a balanced edge by its value.  ``constraint`` seeds the
    legs as exponents (strict) or radii (balanced), reduced mod p.  With
    ``fold_legs`` the legs leave the scope and each row weighs the number
    of leg values behind it; otherwise every row weighs 1."""
    g = m.graph
    strict = kind == "strict"
    index = {e.id: i for i, e in enumerate(g.edges)}
    seeds = {index[eid]: eps % p for eid, eps in zip(m.marking, constraint or ())}
    incident = [(index[eid], slot) for eid, slot in g.branches_at[v]]
    scope = tuple(sorted({ei for ei, _ in incident}))
    positions = {ei: i for i, ei in enumerate(scope)}
    marked = {index[eid] for eid in m.marking}
    legs = marked if fold_legs else set()
    kept = [i for i, ei in enumerate(scope) if ei not in legs]
    domain = range(1, p) if strict else range(p - 1)
    domains = [(seeds[ei],) if ei in seeds else domain for ei in scope]
    rows = {}
    for combo in itertools.product(*domains):
        ms = [
            p - combo[positions[ei]]
            if strict and (slot == 1 or ei in marked)
            else combo[positions[ei]]
            for ei, slot in incident
        ]
        if (sum(ms) == p + 1) if strict else star(p, *ms):
            row = tuple(combo[i] for i in kept)
            rows[row] = rows.get(row, 0) + 1
    return tuple(scope[i] for i in kept), rows


def miura_loop(m, p):
    """Reference for ``verify_miura``: each strict numbering is built from
    its search solution and put through ``miura_transform``,
    ``is_balanced``, then ``radii_of`` against the ``mu_value`` of
    ``exponent_of``; a failure's witness is the numbering's JSON and the
    first error."""
    inputs = _inputs(m, p)
    problem = _Problem(m, EnumerationQuery(p, "strict"))
    failures = []
    checked = 0
    for sol in problem.solutions():
        checked += 1
        numbering = problem.to_numbering(sol)
        try:
            image = miura_transform(m, numbering)
        except (ValueError, RuntimeError) as exc:
            error = str(exc)
        else:
            if is_balanced(m, image):
                expected = tuple(mu_value(p, e) for e in exponent_of(m, numbering))
                got = radii_of(m, image)
                if got == expected:
                    continue
                error = f"radii {list(got)} != transformed exponent {list(expected)}"
            else:
                error = "image is not balanced"
        failures.append({"numbering": numbering_to_json_obj(m, numbering), "error": error})
    return TheoremReport(
        "miura",
        inputs,
        claim="every strict numbering maps to a balanced numbering, radii componentwise",
        observed=f"{checked} numberings checked, {len(failures)} failures",
        passed=not failures,
        witness=tuple(failures),
    )


class ReferenceProblem(_Problem):
    """Reference for the search plan: a backtracker with a trail and a
    queue, which works out at every node which edges are forced and which
    windows to read, where ``_Problem.plan`` does so once per query.  It
    must yield the same tuples in the same order.  Its windows take rules
    that scan a vertex's other edges for unassigned (None) values."""

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

    def solutions(self) -> Iterator[tuple[int, ...]]:
        """Complete assignments as value tuples in label order: the edge
        values in declaration order, each strict x followed by p - x."""
        # Summed over all vertices, the strict condition gives inner leg
        # values adding up to r - (p - 2)(g - 1), each at least 1: none
        # exist at genus >= 2, and at genus 1 every one is 1, which is
        # pinned after the seeds (a seed that disagrees ends the search).
        # A seed outside the domain is worked out here, not read off the
        # engine under test: a strict exponent lies in 1..p-1 exactly when
        # its slot-0 value does.
        if self.strict and self.genus >= 2:
            return
        if any(x not in self.domain for x in self.seeds.values()):
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

        # Seeds are exponents or radii; a strict leg open at slot 1 holds
        # p - e at slot 0, where the value is assigned.  The genus-1 pin
        # reads exponent p - 1 on every leg.
        slots = dict(self.legs)
        for ei, x in self.seeds.items():
            if try_assign(ei, self.p - x if self.strict and slots[ei] else x) < 0:
                return
        if self.strict and self.genus == 1:
            for ei, slot in self.legs:
                if try_assign(ei, 1 if slot else self.p - 1) < 0:
                    return

        def laid_out() -> tuple[int, ...]:
            if not self.strict:
                return tuple(values)
            return tuple(y for x in values for y in (x, self.p - x))

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
            yield laid_out()
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
                    yield laid_out()
                    undo(mark)
                else:
                    stack.append((ei, x, top, mark))
                    ei = nxt
                    x, top = admitted(ei)
            if not stack:
                return
            ei, x, top, mark = stack.pop()
            undo(mark)
