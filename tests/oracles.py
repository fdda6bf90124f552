"""Brute-force reference engines for the test suite.

Everything here scans the raw assignment space directly off the graph
structure, bypassing the predicates and both search engines, so that
agreement is meaningful.  Only usable at desk scale.
"""

import itertools


def star(p, m1, m2, m3):
    return abs(m2 - m3) <= m1 <= m2 + m3 and m1 + m2 + m3 <= p - 2


def naive_balanced(m, p):
    """All edge-value maps passing the triangle-and-bound test at each vertex."""
    g = m.graph
    ids = [e.id for e in g.edges]
    solutions = []
    for combo in itertools.product(range(p), repeat=len(ids)):
        values = dict(zip(ids, combo))
        ok = True
        for v in g.vertices:
            ms = [values[eid] for eid, _slot in g.branches_at[v]]
            if not star(p, *ms):
                ok = False
                break
        if ok:
            solutions.append(values)
    return solutions


def naive_strict(m, p):
    """All involution-paired branch maps, nonzero, vertex sums p + 1.

    Solutions come back as branch-value dicts keyed by (edge id, slot),
    scanning slot-0 values 0..p-1 per edge in declaration order.
    """
    g = m.graph
    ids = [e.id for e in g.edges]
    solutions = []
    for combo in itertools.product(range(p), repeat=len(ids)):
        if 0 in combo:
            continue
        values = {}
        for eid, x in zip(ids, combo):
            values[(eid, 0)] = x
            values[(eid, 1)] = p - x
        ok = all(
            sum(values[b] for b in g.branches_at[v]) == p + 1 for v in g.vertices
        )
        if ok:
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
