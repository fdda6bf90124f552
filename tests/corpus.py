"""Every graph the test suite runs on, named once, with its (g, r) type.

``GRAPHS`` maps a name to a ``Graph``: a builder that returns a new graph
on every call, so nothing a test compiles into one graph (such as
``SemiGraph.numbering_lines``) reaches another test, and the type
``graph_type`` gives the graph.  A test selects graphs by name and calls
``build(name)``; a statement about every graph of a type reaches each of
them by iterating ``GRAPHS``.  The names:

- the builtins ``tripod``, ``theta``, ``dumbbell``, ``loop_with_leg`` and
  ``figure_tree``;
- ``cycle{n}``, ``cycle_with_legs(n)``, and ``shuffled{n}``, the same with
  its edges declared in a fixed shuffled order, so that branching does not
  walk the cycle from one end;
- ``relabelled_cycle`` and ``escaping_tripod``, whose edge ids test the
  JSON writers' escaping;
- the closed graphs ``k4``, ``k33``, ``prism``, ``cube`` and the Moebius
  ladder ``mobius_ladder7``, of genus 3 to 8;
- ``lollipop``, ``pendant_ladder{k}``, ``bridged_ladder{k}``,
  ``caterpillar{n}`` and ``barbell{n}``, graphs with vertices off every
  cycle, for the reduced-loop search;
- seeded ``random_graph`` draws: ``random{s}`` has 1-5 vertices for
  s < 60 and 6-8 vertices for 1000 <= s < 1300; ``random{s}_8`` has 1-8
  vertices, s < 200.

``SMALL``, ``GENUS_ONE`` and ``GENUS_TWO`` are selections that several
test files share.  ``degree_two`` builds the one invalid graph that
several tests share.  This module imports only the standard library and
``trivalent``.
"""

import itertools
import random
from typing import Callable, NamedTuple

import trivalent as tv
from trivalent.semigraph import OPEN, Edge, MarkedSemiGraph, SemiGraph


class Graph(NamedTuple):
    build: Callable[[], MarkedSemiGraph]
    type: tuple[int, int]


def random_graph(rng, max_vertices=5, min_vertices=1):
    """A connected, stable 3-regular semi-graph on min_vertices..max_vertices
    vertices.

    Half-edges are paired at random, so self-loops and parallel edges
    occur; the legs' open slots, the edge declaration order and the
    marking are random too.  A draw that fails ``validate`` (disconnected
    or unstable) is rejected and drawn again.  ``rng`` is a
    ``random.Random``, so a seed fixes the graph.
    """
    n = rng.randint(min_vertices, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    while True:
        stubs = [v for v in vertices for _ in range(3)]
        rng.shuffle(stubs)
        # 3n - r half-edges pair up, so the leg count r has the parity of n.
        legs = rng.randrange(n % 2, 3 * n + 1, 2)
        edges = []
        for i in range(legs):
            v = stubs.pop()
            edges.append(Edge(f"l{i}", rng.choice([(v, OPEN), (OPEN, v)])))
        while stubs:
            edges.append(Edge(f"e{len(edges)}", (stubs.pop(), stubs.pop())))
        rng.shuffle(edges)
        marking = [e.id for e in edges if e.is_leg]
        rng.shuffle(marking)
        m = MarkedSemiGraph(SemiGraph(tuple(vertices), tuple(edges)), tuple(marking))
        if tv.validate(m).valid:
            return m


def shuffled_cycle(n):
    """``cycle_with_legs(n)`` with its edges in the order ``random.Random(0)``
    shuffles them to."""
    m = tv.cycle_with_legs(n)
    edges = list(m.graph.edges)
    random.Random(0).shuffle(edges)
    return MarkedSemiGraph(SemiGraph(m.graph.vertices, tuple(edges)), m.marking)


# Edge ids holding "%", a quote, a backslash, a non-ASCII letter, ".", a
# lone surrogate and a newline, in place of cycle_with_legs(4)'s c1..c4, l1..l4.
RELABELLED_IDS = ("c%1", 'c"2', "c\\3", "c\u00e94", "l.1", "l\ud8002", "l\n3", "%%d.l4")


def relabelled_cycle():
    """``cycle_with_legs(4)`` with its edges renamed to ``RELABELLED_IDS``."""
    m = tv.cycle_with_legs(4)
    rename = dict(zip([e.id for e in m.graph.edges], RELABELLED_IDS))
    edges = tuple(Edge(rename[e.id], e.ends) for e in m.graph.edges)
    return MarkedSemiGraph(SemiGraph(m.graph.vertices, edges), [rename[i] for i in m.marking])


def escaping_tripod():
    """A tripod whose leg ids hold "%d", a quote, non-ASCII letters, a
    backslash and a "."."""
    ids = ('a%d"b', "\u00e9\u2713", "c\\d.e")
    return MarkedSemiGraph(SemiGraph(("v",), tuple(Edge(i, ("v", OPEN)) for i in ids)), ids)


def lollipop():
    """A self-loop at v0, a stem to v1 and two legs at v1, which lies on no
    cycle."""
    return MarkedSemiGraph(
        SemiGraph(
            ("v0", "v1"),
            (Edge("loop", ("v0", "v0")), Edge("mid", ("v0", "v1")),
             Edge("x", ("v1", OPEN)), Edge("y", ("v1", OPEN))),
        ),
        ("x", "y"),
    )


def degree_two():
    """Not a corpus entry, since it fails validation: a has degree 2 and b
    degree 1."""
    return MarkedSemiGraph(
        SemiGraph(("a", "b"), (Edge("e", ("a", "b")), Edge("l", ("a", OPEN)))), ("l",)
    )


def closed(pairs):
    """A closed 3-regular graph with one edge per vertex pair in ``pairs``."""
    vertices = tuple(dict.fromkeys(v for pair in pairs for v in pair))
    edges = tuple(Edge(f"{a}-{b}", (a, b)) for a, b in pairs)
    return MarkedSemiGraph(SemiGraph(vertices, edges), ())


def ladder_pairs(k):
    """The Moebius ladder on c0..c(2k-1): the cycle edges c_i--c_(i+1 mod 2k),
    then the chords c_i--c_(i+k)."""
    n = 2 * k
    cycle = [(f"c{i}", f"c{(i + 1) % n}") for i in range(n)]
    return cycle + [(f"c{i}", f"c{i + k}") for i in range(k)]


def _split_ladder(k):
    """The Moebius ladder with the edge c0--c1 subdivided by a vertex u,
    as a vertex tuple led by v0 and u, and an edge list."""
    pairs = ladder_pairs(k)
    edges = [Edge("s0", ("c0", "u")), Edge("s1", ("u", "c1"))]
    edges += [Edge(f"r{i}", pair) for i, pair in enumerate(pairs[1:2 * k], 1)]
    edges += [Edge(f"h{i}", pair) for i, pair in enumerate(pairs[2 * k:])]
    return ("v0", "u") + tuple(f"c{i}" for i in range(2 * k)), edges


def pendant_ladder(k):
    """The split ladder with v0 joined to u and carrying two legs; type
    (k+1, 2).  v0 lies on no cycle, and every simple path from it runs
    into the ladder."""
    vertices, ladder = _split_ladder(k)
    edges = [Edge("b", ("v0", "u")), Edge("x", ("v0", OPEN)), Edge("y", ("v0", OPEN))]
    return MarkedSemiGraph(SemiGraph(vertices, tuple(edges + ladder)), ("x", "y"))


def bridged_ladder(k):
    """The split ladder with v0 joined to u and carrying a self-loop
    declared after the bridge; type (k+2, 0)."""
    vertices, ladder = _split_ladder(k)
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


# The types of the random draws in seed order, frozen from graph_type, per
# (name pattern, seeds, (max_vertices, min_vertices)).
RANDOM_DRAWS = {
    ("random{}", range(60), (5, 1)): (
        "2,2 0,4 0,3 2,0 2,0 3,1 3,1 2,1 2,0 3,0 2,3 1,4 3,0 1,3 0,3 2,0 0,5 2,3 1,2 1,1 2,0 2,0 "
        "0,4 1,3 1,4 3,0 1,2 1,4 1,1 1,5 2,3 0,3 0,3 1,5 2,3 2,3 1,3 3,1 0,6 0,4 2,2 1,4 1,1 0,3 "
        "3,0 2,1 1,1 0,5 2,3 1,1 2,2 0,4 1,3 1,5 2,0 0,3 3,1 1,1 3,1 2,0"
    ),
    ("random{}", range(1000, 1300), (8, 6)): (
        "4,1 2,4 4,2 4,1 2,5 3,3 0,9 1,6 4,2 2,4 3,4 2,5 1,7 3,3 5,0 0,8 4,1 3,3 3,3 0,8 2,4 3,4 "
        "2,4 3,3 2,4 3,2 4,0 2,4 2,5 2,6 4,0 5,0 0,9 4,2 1,6 3,4 4,1 4,0 3,2 4,2 4,1 3,3 2,4 3,4 "
        "1,6 4,2 4,1 3,2 3,3 5,0 4,1 4,0 4,0 4,1 3,2 2,4 4,0 1,8 2,5 3,2 4,0 4,2 3,2 3,2 4,0 4,2 "
        "4,1 4,0 4,1 0,9 4,1 3,2 2,5 4,1 1,8 0,9 2,5 5,0 3,2 4,2 4,1 4,1 1,6 2,4 4,2 3,4 2,6 2,4 "
        "0,10 3,3 2,5 3,3 3,4 0,9 3,4 3,2 4,2 4,2 4,0 4,1 3,2 1,7 2,6 1,7 1,7 0,8 1,7 5,0 4,0 3,3 "
        "3,3 3,2 0,9 3,2 5,0 2,5 4,2 4,1 1,6 4,0 5,0 3,4 4,1 4,1 0,8 1,6 2,5 3,3 4,0 4,2 2,6 2,4 "
        "5,0 1,7 4,0 1,8 4,0 2,5 3,3 0,8 3,3 3,3 1,6 4,2 4,2 4,0 4,2 2,4 1,7 3,4 4,0 4,0 5,0 4,0 "
        "4,2 2,4 1,8 4,2 1,7 1,6 1,7 3,4 4,1 4,0 2,4 3,2 5,0 3,4 3,4 3,2 3,2 4,2 4,2 1,7 0,8 3,3 "
        "3,4 4,1 3,4 3,4 2,5 3,3 1,8 1,7 3,4 0,9 4,1 5,0 2,6 2,6 4,1 3,3 5,0 2,5 2,6 1,7 4,0 5,0 "
        "3,3 4,2 4,1 2,4 1,7 3,2 2,5 0,10 3,3 4,2 4,0 5,0 2,4 2,5 4,1 4,2 2,5 3,3 1,8 4,0 1,8 4,2 "
        "3,3 2,4 5,0 3,4 3,2 3,3 4,1 3,4 1,6 3,2 1,8 3,3 4,2 3,3 4,1 3,4 5,0 4,0 4,0 4,0 4,2 5,0 "
        "3,2 3,4 3,3 2,6 4,0 2,4 5,0 3,4 0,8 3,4 3,3 4,2 2,5 2,5 3,4 1,8 4,0 2,5 4,0 1,6 4,0 3,2 "
        "2,4 1,6 3,4 3,2 4,0 4,2 5,0 4,1 1,6 3,4 4,0 4,2 2,4 2,4 2,4 4,2 3,4 2,4 4,0 4,1 3,3 4,1 "
        "3,3 1,7 4,2 4,2 4,1 3,4 4,1 1,7 3,3 4,0 3,3 4,1 4,0 4,1"
    ),
    ("random{}_8", range(200), (8, 1)): (
        "2,5 2,1 0,3 0,6 3,0 3,1 2,0 3,2 3,0 4,2 1,1 5,0 0,10 3,1 1,2 1,4 3,2 2,5 1,3 1,1 2,1 1,3 "
        "2,1 3,1 0,9 2,5 3,0 2,6 1,2 0,4 0,7 0,3 2,0 1,3 3,2 3,2 2,4 1,2 2,5 3,0 4,2 3,3 2,0 0,3 "
        "1,7 3,1 2,0 3,2 4,0 2,0 5,0 0,6 1,5 3,0 1,3 1,2 0,3 1,1 2,2 2,2 3,1 2,6 1,3 2,6 4,2 4,1 "
        "0,4 1,2 4,2 1,1 2,0 4,0 0,4 3,1 0,4 3,4 0,8 3,1 0,6 1,3 3,1 0,10 0,5 0,10 1,5 0,6 1,1 "
        "0,5 2,5 1,2 3,0 1,2 3,3 3,4 2,1 1,3 3,2 1,4 0,8 2,5 2,1 2,2 1,3 3,4 0,3 4,0 4,2 2,2 1,3 "
        "3,1 2,5 1,4 5,0 1,1 1,4 1,5 3,1 1,4 2,1 2,3 1,4 1,2 3,0 0,3 2,3 2,2 1,1 1,1 3,0 0,7 2,5 "
        "1,6 1,7 5,0 4,2 2,4 2,5 0,4 2,2 1,1 1,2 1,1 3,4 1,3 5,0 4,1 0,5 2,1 4,1 2,0 2,4 2,5 0,9 "
        "1,8 2,2 1,5 5,0 3,4 3,0 2,5 0,4 1,4 1,1 3,4 2,0 1,1 1,3 0,6 1,2 2,3 4,0 4,1 4,0 1,6 0,3 "
        "5,0 1,1 3,0 2,0 3,0 1,3 0,4 3,4 2,0 1,5 2,0 4,0 4,0 2,2 5,0 1,2 1,3 2,4 4,2 1,2 1,7 0,3 "
        "1,1 1,1 4,0"
    ),
}


def _random_draws():
    for (pattern, seeds, bounds), types in RANDOM_DRAWS.items():
        for seed, t in zip(seeds, types.split(), strict=True):
            g, r = map(int, t.split(","))
            draw = Graph(lambda s=seed, b=bounds: random_graph(random.Random(s), *b), (g, r))
            yield pattern.format(seed), draw


GRAPHS: dict[str, Graph] = {
    "tripod": Graph(tv.tripod, (0, 3)),
    "theta": Graph(tv.theta, (2, 0)),
    "dumbbell": Graph(tv.dumbbell, (2, 0)),
    "loop_with_leg": Graph(tv.loop_with_leg, (1, 1)),
    "figure_tree": Graph(tv.figure_tree, (0, 5)),
    **{f"cycle{n}": Graph(lambda n=n: tv.cycle_with_legs(n), (1, n)) for n in (*range(1, 9), 2000)},
    **{f"shuffled{n}": Graph(lambda n=n: shuffled_cycle(n), (1, n)) for n in (8, 12, 16, 1200)},
    "relabelled_cycle": Graph(relabelled_cycle, (1, 4)),
    "escaping_tripod": Graph(escaping_tripod, (0, 3)),
    "k4": Graph(lambda: closed(list(itertools.combinations("abcd", 2))), (3, 0)),
    "k33": Graph(lambda: closed([(a, b) for a in "abc" for b in "xyz"]), (4, 0)),
    "prism": Graph(
        lambda: closed([*zip("abc", "bca"), *zip("xyz", "yzx"), *zip("abc", "xyz")]), (4, 0)
    ),
    "cube": Graph(
        lambda: closed([(str(v), str(v | b)) for v in range(8) for b in (1, 2, 4) if not v & b]),
        (5, 0),
    ),
    "mobius_ladder7": Graph(lambda: closed(ladder_pairs(7)), (8, 0)),
    "lollipop": Graph(lollipop, (1, 2)),
    **{f"pendant_ladder{k}": Graph(lambda k=k: pendant_ladder(k), (k + 1, 2))
       for k in (3, 4, 5, 6, 40)},
    **{f"bridged_ladder{k}": Graph(lambda k=k: bridged_ladder(k), (k + 2, 0))
       for k in (3, 4, 5, 6, 40)},
    **{f"caterpillar{n}": Graph(lambda n=n: caterpillar(n), (1, n)) for n in (3, 4, 5, 6, 2000)},
    **{f"barbell{n}": Graph(lambda n=n: barbell(n), (2, n)) for n in (3, 4, 5, 6, 2000)},
    **dict(_random_draws()),
}

SMALL = ("tripod", "theta", "dumbbell", "loop_with_leg", "cycle1", "cycle2", "cycle3")
GENUS_ONE = ("loop_with_leg", "cycle1", "cycle2", "cycle3")
GENUS_TWO = ("theta", "dumbbell")


def build(name):
    """A new graph of the corpus entry ``name``."""
    return GRAPHS[name].build()
