import json

import pytest

import trivalent as tv
from trivalent.semigraph import OPEN, Edge, MarkedSemiGraph, SemiGraph, StructureError

import corpus
from oracles import recursive_reduced_loop


def entries(*names):
    """(name, builder, type) for each named corpus entry."""
    return [(name, *corpus.GRAPHS[name]) for name in names]


TYPED = (*corpus.SMALL, "pendant_ladder3", "bridged_ladder4", "caterpillar4", "barbell3")
BUILDERS = entries(*TYPED)
DRAWS = [name for name in corpus.GRAPHS if name.startswith("random")]
NAMED = [name for name in corpus.GRAPHS if name not in DRAWS]


def check_entry(build, expected):
    """A corpus entry builds a new graph on every call, with nothing
    compiled into it, of the type it records."""
    m = build()
    assert build().graph is not m.graph
    assert m.graph.numbering_lines == {}
    t = tv.graph_type(m)
    assert (t.g, t.r) == expected
    return m


# Every corpus entry but the random draws, which the test of their genus
# checks; those of BUILDERS come first, which keeps their ids.
@pytest.mark.parametrize("name,build,expected", entries(*dict.fromkeys([*TYPED, *NAMED])))
def test_builder_types(name, build, expected):
    check_entry(build, expected)


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
    for name in DRAWS:
        m = check_entry(*corpus.GRAPHS[name])
        assert tv.betti(m) == tv.graph_type(m).g


def test_validate_degree_failure_names_vertex():
    m = corpus.degree_two()
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
    [(corpus.GRAPHS[name].build, length)
     for name, length in (("theta", 2), ("dumbbell", 1), ("loop_with_leg", 1), ("cycle3", 3))],
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
    m = corpus.build("lollipop")
    assert tv.graph_type(m) == tv.GraphType(1, 2)
    walk = tv.reduced_loop(m, "v1")
    assert m.graph.incidence(walk[0]) == "v0"
    walk_is_reduced(m.graph, walk)


# The ids of this sweep, and the corpus names of the ids that differ.
RENAMED = {
    "off_cycle_graph": "lollipop",
    "complete_graph_k4": "k4",
    **{f"random{s}": f"random{s}_8" for s in range(200)},
}


@pytest.mark.parametrize(
    "name",
    ["tripod", "theta", "dumbbell", "loop_with_leg", "figure_tree", "off_cycle_graph",
     "complete_graph_k4"]
    + [f"cycle{n}" for n in range(1, 9)]
    + [f"{shape}{n}" for shape in ("pendant_ladder", "bridged_ladder", "caterpillar", "barbell")
       for n in range(3, 7)]
    + [f"random{s}" for s in range(200)],
)
def test_reduced_loop_matches_recursive_reference(name):
    m = corpus.build(RENAMED.get(name, name))
    for base in m.graph.vertices:
        assert tv.reduced_loop(m, base) == recursive_reduced_loop(m, base)


@pytest.mark.parametrize(
    "name,base",
    [
        pytest.param("pendant_ladder40", "v0", id="pendant_ladder"),
        pytest.param("bridged_ladder40", "v0", id="bridged_ladder"),
        pytest.param("caterpillar2000", "t0", id="caterpillar"),
        pytest.param("barbell2000", "m1", id="barbell"),
    ],
)
def test_reduced_loop_enters_each_vertex_once(monkeypatch, name, base):
    # From v0 the ladder is reached across a bridge; a search over simple
    # paths walks every one of them, about 2^k, before it moves on.  On the
    # caterpillar and the barbell the base and every vertex declared before
    # a cycle lie on none, and a search from each in turn costs O(V) apiece.
    # Each vertex entered once reads each incidence a bounded number of times.
    m = corpus.build(name)
    limit_incidence_reads(monkeypatch, 4 * 2 * len(m.graph.edges))
    walk = tv.reduced_loop(m, base)
    walk_is_reduced(m.graph, walk)


@pytest.mark.parametrize(
    "name,base",
    [
        pytest.param("cycle2000", "v1", id="cycle2000"),
        pytest.param("bridged_ladder40", "u", id="bridged_ladder"),
        pytest.param("theta", "v1", id="theta"),
    ],
)
def test_reduced_loop_on_cycle_base_is_one_pass(monkeypatch, name, base):
    # A base on a cycle needs no pass that marks the cycle vertices first:
    # the walk closes in the one pass, which reads each branch's far end
    # at most once.
    m = corpus.build(name)
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
