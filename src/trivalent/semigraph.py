"""Finite marked semi-graphs: multigraphs with half-edge structure and legs.

An edge consists of two addressable *branches* (slots 0 and 1).  Each
branch is incident either to a vertex or to a single distinguished open
point; an edge with exactly one open branch is a *leg*.  Self-loops
(both branches at the same vertex) and parallel edges are allowed.  A
branch is addressed as the pair ``(edge id, slot)``.

A *marking* orders the legs: it lists leg edge ids, and position in the
list is the label of that leg's open branch.

Structural well-formedness (unique ids, no dangling incidences, no edge
with both branches open) is enforced at construction and raises
``StructureError``.  Semantic conditions (3-regularity, connectivity,
marking completeness, stability) are soft checks reported by
``validate``; graphs failing them can still be built, inspected and
serialized, but are rejected by enumeration entry points.  Those entry
points read one report per marked graph, made on first use and kept on
the object, so a graph serving many engine calls is checked once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

# Incidence target of a leg's outer branch.
OPEN = None

# A branch is (edge id, slot).
Branch = tuple[str, int]


class StructureError(ValueError):
    """Malformed graph data: duplicate ids, dangling references, bad schema."""


class InvalidGraphError(ValueError):
    """Structurally sound graph rejected by a semantic precondition."""


@dataclass(frozen=True)
class Edge:
    """An edge with two branch slots; ``ends[s]`` is the incidence of slot s."""

    id: str
    ends: tuple[str | None, str | None]

    def __post_init__(self):
        object.__setattr__(self, "ends", tuple(self.ends))
        if not isinstance(self.id, str) or not self.id:
            raise StructureError(f"edge id must be a nonempty string, got {self.id!r}")
        if len(self.ends) != 2:
            raise StructureError(f"edge {self.id!r} must have exactly two ends")
        if self.ends[0] is OPEN and self.ends[1] is OPEN:
            raise StructureError(f"edge {self.id!r} has both branches open")

    @property
    def is_leg(self) -> bool:
        return OPEN in self.ends

    @property
    def is_loop(self) -> bool:
        return self.ends[0] == self.ends[1]

    def open_slot(self) -> int:
        """Slot of the open branch.  Only meaningful for legs."""
        if not self.is_leg:
            raise ValueError(f"edge {self.id!r} is not a leg")
        return self.ends.index(OPEN)

    def inner_slot(self) -> int:
        return 1 - self.open_slot()


@dataclass(frozen=True)
class SemiGraph:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))
        seen = set()
        for v in self.vertices:
            if not isinstance(v, str) or not v:
                raise StructureError(f"vertex id must be a nonempty string, got {v!r}")
            if v in seen:
                raise StructureError(f"duplicate vertex id {v!r}")
            seen.add(v)
        ids = set()
        for e in self.edges:
            if e.id in ids:
                raise StructureError(f"duplicate edge id {e.id!r}")
            ids.add(e.id)
            for end in e.ends:
                if end is not OPEN and end not in seen:
                    raise StructureError(
                        f"edge {e.id!r} is incident to unknown vertex {end!r}"
                    )

    @cached_property
    def _edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise StructureError(f"unknown edge id {edge_id!r}") from None

    def branches(self) -> Iterator[Branch]:
        """All branches in declaration order, slot 0 before slot 1."""
        for e in self.edges:
            yield (e.id, 0)
            yield (e.id, 1)

    @cached_property
    def branch_labels(self) -> tuple[tuple[str, Branch], ...]:
        """("<edge id>.<slot>", branch) for every branch, in ``branches()`` order."""
        return tuple((f"{b[0]}.{b[1]}", b) for b in self.branches())

    @cached_property
    def numbering_lines(self):
        """The compiled JSON line of a strict and of a balanced numbering.

        Built once per graph for ``numbering.dumps_numbering``.
        """
        from .numbering import compile_numbering_lines  # numbering imports this module

        return compile_numbering_lines(self)

    @staticmethod
    def partner(b: Branch) -> Branch:
        return (b[0], 1 - b[1])

    def incidence(self, b: Branch) -> str | None:
        return self.edge(b[0]).ends[b[1]]

    @cached_property
    def branches_at(self) -> dict[str, tuple[Branch, ...]]:
        """Vertex -> incident branches, in edge declaration order."""
        table: dict[str, list[Branch]] = {v: [] for v in self.vertices}
        for e in self.edges:
            for slot, end in enumerate(e.ends):
                if end is not OPEN:
                    table[end].append((e.id, slot))
        return {v: tuple(bs) for v, bs in table.items()}

    def degree(self, v: str) -> int:
        return len(self.branches_at[v])

    def internal_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if not e.is_leg)

    def leg_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.is_leg)

    def is_connected(self) -> bool:
        if len(self.vertices) <= 1:
            return True
        adjacency: dict[str, list[str]] = {v: [] for v in self.vertices}
        for e in self.internal_edges():
            u, w = e.ends
            adjacency[u].append(w)
            adjacency[w].append(u)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)


@dataclass(frozen=True)
class MarkedSemiGraph:
    """A semi-graph together with an ordering of its legs.

    ``marking[i]`` is the id of the leg whose open branch carries label
    i + 1.  Entries must name existing legs; completeness (every leg
    listed exactly once) is a soft check, so partially marked graphs can
    round-trip through serialization.
    """

    graph: SemiGraph
    marking: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "marking", tuple(self.marking))
        for edge_id in self.marking:
            e = self.graph.edge(edge_id)
            if not e.is_leg:
                raise StructureError(f"marking entry {edge_id!r} is not a leg")

    def marked_branches(self) -> tuple[Branch, ...]:
        """Open branches in marking order."""
        return self._marked_branches

    @cached_property
    def _marked_branches(self) -> tuple[Branch, ...]:
        return tuple(
            (edge_id, self.graph.edge(edge_id).open_slot()) for edge_id in self.marking
        )

    @cached_property
    def _validation(self) -> ValidationReport:
        """``validate(self)``, run once: the graph and marking are frozen
        tuples, so the report cannot change."""
        return validate(self)


@dataclass(frozen=True)
class GraphType:
    g: int
    r: int

    @property
    def is_stable(self) -> bool:
        return 2 * self.g - 2 + self.r > 0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]
    graph_type: GraphType | None

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_obj(self) -> dict:
        obj: dict = {"valid": self.valid}
        if self.graph_type is not None:
            obj["type"] = {"g": self.graph_type.g, "r": self.graph_type.r}
        obj["checks"] = [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in self.checks
        ]
        return obj


def _type_of(m: MarkedSemiGraph) -> GraphType:
    g = m.graph
    r = len(g.leg_edges())
    return GraphType(1 - len(g.vertices) + len(g.edges) - r, r)


def validate(m: MarkedSemiGraph) -> ValidationReport:
    """Run the semantic checks and report each outcome.

    Checks, in order: well-formed incidence (a constructed graph always
    passes; listed so file-level reports are complete), 3-regularity,
    connectivity, marking completeness, stability of the (g, r) type.
    """
    g = m.graph
    checks = [CheckResult("well_formed", True)]

    bad = [v for v in g.vertices if g.degree(v) != 3]
    checks.append(
        CheckResult(
            "three_regular",
            not bad,
            "" if not bad else "vertices of degree != 3: " + ", ".join(bad),
        )
    )

    connected = g.is_connected()
    checks.append(
        CheckResult("connected", connected, "" if connected else "graph is disconnected")
    )

    legs = sorted(e.id for e in g.leg_edges())
    marked = sorted(m.marking)
    complete = legs == marked
    checks.append(
        CheckResult(
            "marking_complete",
            complete,
            ""
            if complete
            else f"marking lists {marked}, legs are {legs}",
        )
    )

    t = _type_of(m)
    checks.append(
        CheckResult(
            "stable",
            t.is_stable,
            "" if t.is_stable else f"type (g, r) = ({t.g}, {t.r}) is not stable",
        )
    )

    return ValidationReport(tuple(checks), t if all(c.passed for c in checks) else None)


def require_valid(m: MarkedSemiGraph) -> ValidationReport:
    report = m._validation
    if not report.valid:
        failed = ", ".join(c.name for c in report.checks if not c.passed)
        raise InvalidGraphError(f"graph fails checks: {failed}")
    return report


def graph_type(m: MarkedSemiGraph) -> GraphType:
    """The pair (g, r); g is 1 - #vertices + #edges - #legs."""
    return require_valid(m).graph_type


def betti(m: MarkedSemiGraph) -> int:
    """First Betti number of the internal graph (legs ignored)."""
    g = m.graph
    if not g.is_connected():
        raise InvalidGraphError("betti requires a connected graph")
    return len(g.internal_edges()) - len(g.vertices) + 1


def _simple_cycle_at(g: SemiGraph, v0: str) -> list[Branch] | None:
    # An ordinary depth-first search from v0 for a branch leading back to
    # v0; branches are tried in declaration order so the result is
    # deterministic.  Each vertex is entered at most once, so a base costs
    # O(V + E).  The path grows and shrinks in place, with one branch
    # iterator per vertex on it, so long cycles need no recursion.  Every
    # path edge but the first leads back to an entered vertex, so the one
    # edge the walk must not reverse is the first.
    path: list[Branch] = []
    entered = {v0}
    frames = [iter(g.branches_at[v0])]
    while frames:
        for b in frames[-1]:
            w = g.incidence(g.partner(b))
            if w == v0:
                if path and b == g.partner(path[0]):
                    continue
                return path + [b]
            if w is OPEN or w in entered:
                continue
            path.append(b)
            entered.add(w)
            frames.append(iter(g.branches_at[w]))
            break
        else:
            frames.pop()
            if path:
                path.pop()
    return None


def reduced_loop(m: MarkedSemiGraph, base: str) -> list[Branch]:
    """A closed non-backtracking branch walk, empty when the graph is a tree.

    The walk (b_1, ..., b_l) starts and ends at its base vertex, each
    b_{j+1} leaves the vertex that b_j arrives at, and no branch is
    immediately reversed, cyclically: b_j != partner(b_{j-1}) with b_0
    read as b_l.  A self-loop gives a walk of length 1.  If ``base``
    lies on no such walk the loop is based at the first vertex (in
    declaration order) that carries one; callers can detect this by
    comparing the first branch's incidence with the base they asked for.

    Each candidate base is searched depth first, entering every vertex
    at most once, so a base costs O(V + E).  The walk is the first
    simple cycle through the base in branch declaration order, the one a
    search over all simple paths returns: a vertex the search backs out
    of can reach the base only through vertices still on the path, so no
    later visit could close a loop there.
    """
    genus = require_valid(m).graph_type.g
    g = m.graph
    if base not in g.branches_at:
        raise ValueError(f"unknown vertex {base!r}")
    if genus == 0:
        return []
    for v0 in (base, *(v for v in g.vertices if v != base)):
        cycle = _simple_cycle_at(g, v0)
        if cycle:
            return cycle
    raise AssertionError("positive betti number but no cycle found")


# ---------------------------------------------------------------------------
# builders

def _marked(vertices, edges, marking) -> MarkedSemiGraph:
    return MarkedSemiGraph(SemiGraph(tuple(vertices), tuple(edges)), tuple(marking))


def tripod() -> MarkedSemiGraph:
    """One vertex with three legs; type (0, 3)."""
    edges = [Edge(f"l{i}", ("v1", OPEN)) for i in (1, 2, 3)]
    return _marked(["v1"], edges, ["l1", "l2", "l3"])


def theta() -> MarkedSemiGraph:
    """Two vertices joined by three parallel edges; type (2, 0)."""
    edges = [Edge(f"e{i}", ("v1", "v2")) for i in (1, 2, 3)]
    return _marked(["v1", "v2"], edges, [])


def dumbbell() -> MarkedSemiGraph:
    """Two self-loops joined by a bridge; type (2, 0)."""
    edges = [
        Edge("loop1", ("v1", "v1")),
        Edge("bridge", ("v1", "v2")),
        Edge("loop2", ("v2", "v2")),
    ]
    return _marked(["v1", "v2"], edges, [])


def loop_with_leg() -> MarkedSemiGraph:
    """One vertex with a self-loop and a leg; type (1, 1)."""
    edges = [Edge("loop", ("v1", "v1")), Edge("leg", ("v1", OPEN))]
    return _marked(["v1"], edges, ["leg"])


def cycle_with_legs(n: int) -> MarkedSemiGraph:
    """A cycle on n vertices with one leg per vertex; type (1, n).

    n = 1 is the single vertex whose cycle edge is a self-loop.
    """
    if n < 1:
        raise ValueError("cycle_with_legs requires n >= 1")
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges = []
    for i in range(1, n + 1):
        edges.append(Edge(f"c{i}", (f"v{i}", f"v{i % n + 1}")))
    for i in range(1, n + 1):
        edges.append(Edge(f"l{i}", (f"v{i}", OPEN)))
    return _marked(vertices, edges, [f"l{i}" for i in range(1, n + 1)])


# ---------------------------------------------------------------------------
# serialization
#
# {"vertices": [...],
#  "edges": [{"id": "e1", "ends": ["v1", "v2"]}, ...],
#  "marking": ["l1", ...]}
#
# null stands for the open point.  Keys are written in the order shown
# and lists in input order, so a canonical file re-serializes
# byte-identically after a parse.

def graph_to_json_obj(m: MarkedSemiGraph) -> dict:
    return {
        "vertices": list(m.graph.vertices),
        "edges": [{"id": e.id, "ends": [e.ends[0], e.ends[1]]} for e in m.graph.edges],
        "marking": list(m.marking),
    }


def graph_from_json_obj(obj) -> MarkedSemiGraph:
    if not isinstance(obj, dict):
        raise StructureError("graph document must be a JSON object")
    for key in ("vertices", "edges", "marking"):
        if key not in obj:
            raise StructureError(f"graph document is missing {key!r}")
    vertices = obj["vertices"]
    if not isinstance(vertices, list):
        raise StructureError("vertices must be a list")
    raw_edges = obj["edges"]
    if not isinstance(raw_edges, list):
        raise StructureError("edges must be a list")
    edges = []
    for entry in raw_edges:
        if not isinstance(entry, dict) or set(entry) != {"id", "ends"}:
            raise StructureError(f"bad edge entry {entry!r}")
        ends = entry["ends"]
        if not isinstance(ends, list) or len(ends) != 2:
            raise StructureError(f"edge {entry.get('id')!r} needs exactly two ends")
        for end in ends:
            if end is not OPEN and not isinstance(end, str):
                raise StructureError(f"bad incidence {end!r} on edge {entry['id']!r}")
        edges.append(Edge(entry["id"], (ends[0], ends[1])))
    marking = obj["marking"]
    if not isinstance(marking, list) or not all(isinstance(x, str) for x in marking):
        raise StructureError("marking must be a list of edge ids")
    return MarkedSemiGraph(SemiGraph(tuple(vertices), tuple(edges)), tuple(marking))


def dumps_graph(m: MarkedSemiGraph) -> str:
    return json.dumps(graph_to_json_obj(m), indent=2) + "\n"


def parse_json(text: str):
    """``json.loads``, with a document nested past the recursion limit
    reported as malformed."""
    try:
        return json.loads(text)
    except RecursionError:
        raise StructureError("JSON document is nested too deeply") from None


def loads_graph(text: str) -> MarkedSemiGraph:
    return graph_from_json_obj(parse_json(text))
