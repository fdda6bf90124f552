import json
import random

import pytest

import trivalent as tv
from trivalent.semigraph import OPEN, Edge, MarkedSemiGraph, SemiGraph, StructureError

from oracles import random_graph, recursive_reduced_loop


BUILDERS = [
    ("tripod", tv.tripod, (0, 3)),
    ("theta", tv.theta, (2, 0)),
    ("dumbbell", tv.dumbbell, (2, 0)),
    ("loop_with_leg", tv.loop_with_leg, (1, 1)),
    ("cycle1", lambda: tv.cycle_with_legs(1), (1, 1)),
    ("cycle2", lambda: tv.cycle_with_legs(2), (1, 2)),
    ("cycle3", lambda: tv.cycle_with_legs(3), (1, 3)),
    ("pendant_ladder3", lambda: pendant_ladder(3), (4, 2)),
    ("bridged_ladder4", lambda: bridged_ladder(4), (6, 0)),
    ("caterpillar4", lambda: caterpillar(4), (1, 4)),
    ("barbell3", lambda: barbell(3), (2, 3)),
]


@pytest.mark.parametrize("name,build,expected", BUILDERS)
def test_builder_types(name, build, expected):
    t = tv.graph_type(build())
    assert (t.g, t.r) == expected


@pytest.mark.parametrize("name,build,expected", BUILDERS)
def test_genus_equals_betti(name, build, expected):
    m = build()
    assert tv.betti(m) == tv.graph_type(m).g


def test_partner_is_involution():
    g = tv.theta().graph
    for b in g.branches():
        assert g.partner(g.partner(b)) == b
        assert g.partner(b) != b


def test_branch_incidence():
    m = tv.loop_with_leg()
    g = m.graph
    assert g.incidence(("loop", 0)) == "v1"
    assert g.incidence(("loop", 1)) == "v1"
    assert g.incidence(("leg", 0)) == "v1"
    assert g.incidence(("leg", 1)) is OPEN


def test_genus_equals_betti_random():
    for seed in range(40):
        m = random_graph(random.Random(seed))
        assert tv.betti(m) == tv.graph_type(m).g


def test_validate_degree_failure_names_vertex():
    m = MarkedSemiGraph(
        SemiGraph(("a", "b"), (Edge("e", ("a", "b")), Edge("l", ("a", OPEN)))),
        ("l",),
    )
    report = tv.validate(m)
    assert not report.valid
    failed = {c.name: c for c in report.checks if not c.passed}
    assert "three_regular" in failed
    assert "a" in failed["three_regular"].detail and "b" in failed["three_regular"].detail
    with pytest.raises(tv.InvalidGraphError):
        tv.graph_type(m)


def test_validate_disconnected():
    m = MarkedSemiGraph(
        SemiGraph(
            ("a", "b"),
            (Edge("la", ("a", "a")), Edge("x", ("a", OPEN)),
             Edge("lb", ("b", "b")), Edge("y", ("b", OPEN))),
        ),
        ("x", "y"),
    )
    report = tv.validate(m)
    assert not report.valid
    assert any(c.name == "connected" and not c.passed for c in report.checks)


def test_betti_rejects_disconnected():
    m = MarkedSemiGraph(
        SemiGraph(("a", "b"), (Edge("la", ("a", "a")), Edge("lb", ("b", "b")))), ()
    )
    with pytest.raises(tv.InvalidGraphError, match="connected"):
        tv.betti(m)


def test_cycle_with_legs_needs_a_vertex():
    with pytest.raises(ValueError, match="n >= 1"):
        tv.cycle_with_legs(0)


def test_validate_marking_incomplete():
    g = tv.tripod().graph
    report = tv.validate(MarkedSemiGraph(g, ("l1", "l2")))
    assert any(c.name == "marking_complete" and not c.passed for c in report.checks)
    report = tv.validate(MarkedSemiGraph(g, ("l1", "l2", "l2")))
    assert not report.valid


def test_validate_empty_graph_unstable():
    report = tv.validate(MarkedSemiGraph(SemiGraph((), ()), ()))
    names = {c.name: c.passed for c in report.checks}
    assert names["three_regular"] and not names["stable"]


def test_structure_errors():
    with pytest.raises(StructureError):
        SemiGraph(("v", "v"), ())
    with pytest.raises(StructureError):
        SemiGraph(("v",), (Edge("e", ("v", "w")),))
    with pytest.raises(StructureError):
        SemiGraph(("v",), (Edge("e", ("v", "v")), Edge("e", ("v", OPEN))))
    with pytest.raises(StructureError):
        Edge("e", (OPEN, OPEN))
    with pytest.raises(StructureError, match="exactly two ends"):
        Edge("e", ("v",))
    with pytest.raises(StructureError):
        MarkedSemiGraph(SemiGraph(("v",), (Edge("e", ("v", "v")), Edge("l", ("v", OPEN)))), ("e",))
    with pytest.raises(StructureError):
        MarkedSemiGraph(tv.tripod().graph, ("nope",))


def walk_is_reduced(g, walk):
    assert walk
    base = g.incidence(walk[0])
    assert g.incidence(g.partner(walk[-1])) == base
    for i, b in enumerate(walk):
        prev = walk[i - 1]  # cyclic: i == 0 wraps to the last branch
        assert g.incidence(b) == g.incidence(g.partner(prev))
        assert b != g.partner(prev)


@pytest.mark.parametrize(
    "build,length",
    [(tv.theta, 2), (tv.dumbbell, 1), (tv.loop_with_leg, 1),
     (lambda: tv.cycle_with_legs(3), 3)],
)
def test_reduced_loop_shapes(build, length):
    m = build()
    walk = tv.reduced_loop(m, m.graph.vertices[0])
    assert len(walk) == length
    walk_is_reduced(m.graph, walk)


def test_reduced_loop_tree_is_empty():
    assert tv.reduced_loop(tv.tripod(), "v1") == []


def test_reduced_loop_rebased_when_base_off_cycle():
    # v0 carries a self-loop, v1 hangs off it with two legs; the only
    # cycle misses v1, so asking at v1 returns a loop based at v0.
    m = MarkedSemiGraph(
        SemiGraph(
            ("v0", "v1"),
            (Edge("loop", ("v0", "v0")), Edge("mid", ("v0", "v1")),
             Edge("x", ("v1", OPEN)), Edge("y", ("v1", OPEN))),
        ),
        ("x", "y"),
    )
    assert tv.graph_type(m) == tv.GraphType(1, 2)
    walk = tv.reduced_loop(m, "v1")
    assert m.graph.incidence(walk[0]) == "v0"
    walk_is_reduced(m.graph, walk)


def off_cycle_graph():
    # v0 carries a self-loop, v1 hangs off it with two legs.
    return MarkedSemiGraph(
        SemiGraph(
            ("v0", "v1"),
            (Edge("loop", ("v0", "v0")), Edge("mid", ("v0", "v1")),
             Edge("x", ("v1", OPEN)), Edge("y", ("v1", OPEN))),
        ),
        ("x", "y"),
    )


def complete_graph_k4():
    names = ("a", "b", "c", "d")
    edges = [Edge(f"{u}{w}", (u, w)) for i, u in enumerate(names) for w in names[i + 1:]]
    return MarkedSemiGraph(SemiGraph(names, tuple(edges)), ())


def _ladder(k):
    """A Mobius ladder on c0..c(2k-1): cycle edges c_i--c_(i+1 mod 2k) and
    chords c_i--c_(i+k), with the edge c0--c1 subdivided by a vertex u."""
    n = 2 * k
    edges = [Edge("s0", ("c0", "u")), Edge("s1", ("u", "c1"))]
    edges += [Edge(f"r{i}", (f"c{i}", f"c{(i + 1) % n}")) for i in range(1, n)]
    edges += [Edge(f"h{i}", (f"c{i}", f"c{i + k}")) for i in range(k)]
    return ("v0", "u") + tuple(f"c{i}" for i in range(n)), edges


def pendant_ladder(k):
    """The ladder with v0 joined to u and carrying two legs; type (k+1, 2).
    v0 lies on no cycle, and every simple path from it runs into the
    ladder."""
    vertices, ladder = _ladder(k)
    edges = [Edge("b", ("v0", "u")), Edge("x", ("v0", OPEN)), Edge("y", ("v0", OPEN))]
    return MarkedSemiGraph(SemiGraph(vertices, tuple(edges + ladder)), ("x", "y"))


def bridged_ladder(k):
    """The ladder with v0 joined to u and carrying a self-loop declared
    after the bridge; type (k+2, 0)."""
    vertices, ladder = _ladder(k)
    edges = [Edge("b", ("v0", "u")), Edge("loop", ("v0", "v0"))]
    return MarkedSemiGraph(SemiGraph(vertices, tuple(edges + ladder)), ())


def caterpillar(n):
    """A path t0..t(n-1) with two legs on t0, one on each inner vertex and
    a self-loop on t(n-1); type (1, n).  Only the far end lies on a cycle."""
    vertices = tuple(f"t{i}" for i in range(n))
    edges = [Edge(f"p{i}", (f"t{i}", f"t{i + 1}")) for i in range(n - 1)]
    edges += [Edge("x", ("t0", OPEN)), Edge("y", ("t0", OPEN))]
    edges += [Edge(f"l{i}", (f"t{i}", OPEN)) for i in range(1, n - 1)]
    edges.append(Edge("loop", (f"t{n - 1}", f"t{n - 1}")))
    legs = ["x", "y"] + [f"l{i}" for i in range(1, n - 1)]
    return MarkedSemiGraph(SemiGraph(vertices, tuple(edges)), tuple(legs))


def barbell(n):
    """A path m1..mn with one leg each, declared first, whose ends are
    joined to the vertices a and b, each carrying a self-loop; type (2, n).
    No vertex of the path lies on a cycle, and none is a leaf, so
    peeling leaves does not find the cycles."""
    vertices = tuple(f"m{i}" for i in range(1, n + 1)) + ("a", "b")
    edges = [Edge(f"p{i}", (f"m{i}", f"m{i + 1}")) for i in range(1, n)]
    edges += [Edge(f"l{i}", (f"m{i}", OPEN)) for i in range(1, n + 1)]
    edges += [Edge("ja", ("m1", "a")), Edge("jb", (f"m{n}", "b"))]
    edges += [Edge("loopa", ("a", "a")), Edge("loopb", ("b", "b"))]
    legs = [f"l{i}" for i in range(1, n + 1)]
    return MarkedSemiGraph(SemiGraph(vertices, tuple(edges)), tuple(legs))


@pytest.mark.parametrize(
    "build",
    [tv.tripod, tv.theta, tv.dumbbell, tv.loop_with_leg, tv.figure_tree, off_cycle_graph,
     complete_graph_k4]
    + [pytest.param(lambda n=n: tv.cycle_with_legs(n), id=f"cycle{n}") for n in range(1, 9)]
    + [
        pytest.param(lambda k=k, b=b: b(k), id=f"{b.__name__}{k}")
        for b in (pendant_ladder, bridged_ladder)
        for k in range(3, 7)
    ]
    + [
        pytest.param(lambda n=n, b=b: b(n), id=f"{b.__name__}{n}")
        for b in (caterpillar, barbell)
        for n in range(3, 7)
    ]
    + [
        pytest.param(lambda s=s: random_graph(random.Random(s), max_vertices=8), id=f"random{s}")
        for s in range(200)
    ],
)
def test_reduced_loop_matches_recursive_reference(build):
    m = build()
    for base in m.graph.vertices:
        assert tv.reduced_loop(m, base) == recursive_reduced_loop(m, base)


@pytest.mark.parametrize(
    "build,size,base",
    [
        pytest.param(pendant_ladder, 40, "v0", id="pendant_ladder"),
        pytest.param(bridged_ladder, 40, "v0", id="bridged_ladder"),
        pytest.param(caterpillar, 2000, "t0", id="caterpillar"),
        pytest.param(barbell, 2000, "m1", id="barbell"),
    ],
)
def test_reduced_loop_enters_each_vertex_once(monkeypatch, build, size, base):
    # From v0 the ladder is reached across a bridge; a search over simple
    # paths walks every one of them, about 2^k, before it moves on.  On the
    # caterpillar and the barbell the base and every vertex declared before
    # a cycle lie on none, and a search from each in turn costs O(V) apiece.
    # Each vertex entered once reads each incidence a bounded number of times.
    m = build(size)
    limit_incidence_reads(monkeypatch, 4 * 2 * len(m.graph.edges))
    walk = tv.reduced_loop(m, base)
    walk_is_reduced(m.graph, walk)


@pytest.mark.parametrize(
    "build,base",
    [
        pytest.param(lambda: tv.cycle_with_legs(2000), "v1", id="cycle2000"),
        pytest.param(lambda: bridged_ladder(40), "u", id="bridged_ladder"),
        pytest.param(tv.theta, "v1", id="theta"),
    ],
)
def test_reduced_loop_on_cycle_base_is_one_pass(monkeypatch, build, base):
    # A base on a cycle needs no pass that marks the cycle vertices first:
    # the walk closes in the one pass, which reads each branch's far end
    # at most once.
    m = build()
    limit_incidence_reads(monkeypatch, 2 * len(m.graph.edges))
    walk = tv.reduced_loop(m, base)
    monkeypatch.undo()
    assert m.graph.incidence(walk[0]) == base
    walk_is_reduced(m.graph, walk)


def limit_incidence_reads(monkeypatch, budget):
    """Make ``SemiGraph.incidence`` fail after ``budget`` reads."""
    calls = []
    incidence = SemiGraph.incidence

    def counted(self, b):
        calls.append(b)
        if len(calls) > budget:
            raise AssertionError(f"more than {budget} incidence reads")
        return incidence(self, b)

    monkeypatch.setattr(SemiGraph, "incidence", counted)


def test_reduced_loop_on_long_cycle():
    m = tv.cycle_with_legs(1500)
    walk = tv.reduced_loop(m, "v1")
    assert len(walk) == 1500
    walk_is_reduced(m.graph, walk)


def test_reduced_loop_unknown_base():
    with pytest.raises(ValueError):
        tv.reduced_loop(tv.theta(), "nope")


@pytest.mark.parametrize("name,build,expected", BUILDERS)
def test_graph_roundtrip(name, build, expected):
    m = build()
    text = tv.dumps_graph(m)
    again = tv.loads_graph(text)
    assert again == m
    assert tv.dumps_graph(again) == text


def test_graph_file_shape():
    obj = tv.graph_to_json_obj(tv.loop_with_leg())
    assert list(obj) == ["vertices", "edges", "marking"]
    assert obj["edges"][1] == {"id": "leg", "ends": ["v1", None]}
    assert obj["marking"] == ["leg"]


def test_graph_from_json_errors():
    with pytest.raises(StructureError):
        tv.loads_graph('{"vertices": []}')
    with pytest.raises(StructureError):
        tv.graph_from_json_obj(
            {"vertices": ["v"], "edges": [{"id": "e", "ends": [None, None]}], "marking": []}
        )
    with pytest.raises(StructureError):
        tv.graph_from_json_obj(
            {"vertices": ["v"], "edges": [{"id": "e", "ends": ["v", "w"]}], "marking": []}
        )
    with pytest.raises(StructureError):
        tv.graph_from_json_obj({"vertices": ["v"], "edges": [{"id": "e"}], "marking": []})
    with pytest.raises(json.JSONDecodeError):
        tv.loads_graph("{")


def test_deeply_nested_json_is_malformed():
    deep = "[" * 100_000 + "]" * 100_000
    for loads in (tv.loads_graph, tv.loads_numbering):
        with pytest.raises(StructureError, match="nested too deeply"):
            loads(deep)


def test_open_slot_both_layouts():
    e1 = Edge("a", ("v", OPEN))
    e2 = Edge("b", (OPEN, "v"))
    assert e1.open_slot() == 1 and e1.inner_slot() == 0
    assert e2.open_slot() == 0 and e2.inner_slot() == 1
    with pytest.raises(ValueError):
        Edge("c", ("v", "v")).open_slot()
