import itertools
import math
import random
from collections import Counter

import pytest

import trivalent as tv
from trivalent.numbering import balanced_triple
from trivalent.search import (
    EnumerationQuery,
    _Problem,
    _tripod_table,
    _vertex_factors,
    count,
    count_by_contraction,
    enumerate_lines,
    enumerate_numberings,
)
from trivalent.semigraph import MarkedSemiGraph

from corpus import GRAPHS, SMALL, build, degree_two
from oracles import (
    ReferenceProblem,
    naive_balanced,
    naive_strict,
    open_values_balanced,
    open_values_strict,
    product_vertex_table,
)

# Expected totals, frozen from the naive assignment scans in oracles.py.
STRICT_TOTALS = {
    "tripod": {5: 10, 7: 21, 11: 55, 13: 78},
    "theta": {5: 0, 7: 0, 11: 0, 13: 0},
    "dumbbell": {5: 0, 7: 0, 11: 0, 13: 0},
    "loop_with_leg": {5: 4, 7: 6, 11: 10, 13: 12},
    "cycle1": {5: 4, 7: 6, 11: 10, 13: 12},
    "cycle2": {5: 4, 7: 6, 11: 10, 13: 12},
    "cycle3": {5: 4},
}
BALANCED_TOTALS = {
    "tripod": {5: 5, 7: 14, 11: 55, 13: 91},
    "theta": {5: 5, 7: 14, 11: 55, 13: 91},
    "dumbbell": {5: 5, 7: 14, 11: 55, 13: 91},
    "loop_with_leg": {5: 3, 7: 6, 11: 15, 13: 21},
    "cycle1": {5: 3, 7: 6, 11: 15, 13: 21},
    "cycle2": {5: 7, 7: 26, 11: 155, 13: 301},
    "cycle3": {5: 18},
}


def cases(table):
    return [(name, p, total) for name, row in table.items() for p, total in row.items()]


@pytest.mark.parametrize("name,p,total", cases(STRICT_TOTALS))
def test_strict_totals_both_engines(name, p, total):
    m = build(name)
    q = EnumerationQuery(p, "strict")
    assert count(m, q).total == total
    assert count_by_contraction(m, q).total == total


@pytest.mark.parametrize("name,p,total", cases(BALANCED_TOTALS))
def test_balanced_totals_both_engines(name, p, total):
    m = build(name)
    q = EnumerationQuery(p, "balanced")
    assert count(m, q).total == total
    assert count_by_contraction(m, q).total == total


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("p", (5, 7))
def test_enumerate_matches_naive_scan_strict(name, p):
    m = build(name)
    ids = [e.id for e in m.graph.edges]
    got = [
        tuple(a.values[(eid, 0)] for eid in ids)
        for a in enumerate_numberings(m, EnumerationQuery(p, "strict"))
    ]
    expected = sorted(tuple(sol[(eid, 0)] for eid in ids) for sol in naive_strict(m, p))
    assert got == expected


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("p", (5, 7))
def test_enumerate_matches_naive_scan_balanced(name, p):
    m = build(name)
    ids = [e.id for e in m.graph.edges]
    got = [
        tuple(a.values[eid] for eid in ids)
        for a in enumerate_numberings(m, EnumerationQuery(p, "balanced"))
    ]
    expected = sorted(tuple(sol[eid] for eid in ids) for sol in naive_balanced(m, p))
    assert got == expected


def test_enumeration_is_deterministic():
    m = tv.cycle_with_legs(2)
    q = EnumerationQuery(7, "balanced")
    first = [tv.dumps_numbering(m, a) for a in enumerate_numberings(m, q)]
    second = [tv.dumps_numbering(m, a) for a in enumerate_numberings(m, q)]
    assert first == second


def test_limit_yields_a_prefix():
    m = tv.tripod()
    q = EnumerationQuery(7, "strict")
    full = [tv.dumps_numbering(m, a) for a in enumerate_numberings(m, q)]
    for k in range(len(full) + 2):
        q_k = EnumerationQuery(7, "strict", limit=k)
        assert [tv.dumps_numbering(m, a) for a in enumerate_numberings(m, q_k)] == full[:k]


@pytest.fixture
def pulled(monkeypatch):
    """The tuples drawn from ``_Problem.solutions``, in the order drawn."""
    out = []
    solutions = _Problem.solutions

    def counted(self):
        for sol in solutions(self):
            out.append(sol)
            yield sol

    monkeypatch.setattr(_Problem, "solutions", counted)
    return out


@pytest.mark.parametrize("k", (0, 1, 3))
def test_limit_pulls_no_solution_past_the_last(pulled, k):
    out = list(enumerate_numberings(tv.tripod(), EnumerationQuery(7, "strict", limit=k)))
    assert len(out) == k
    assert len(pulled) == k


@pytest.mark.parametrize("k", (0, 1, 3))
def test_lines_limit_pulls_no_solution_past_the_last(pulled, k):
    out = list(enumerate_lines(tv.tripod(), EnumerationQuery(7, "strict", limit=k)))
    assert len(out) == k
    assert len(pulled) == k


LINE_GRAPHS = (
    *SMALL, "cycle4", "cycle5", "cycle6", "figure_tree", "relabelled_cycle", "escaping_tripod",
)
# Streams longer than this are compared on their first MAX_LINES lines.
MAX_LINES = 3_000


@pytest.mark.parametrize("p", (3, 5, 7, 11))
@pytest.mark.parametrize("kind", ("strict", "balanced"))
@pytest.mark.parametrize("name", LINE_GRAPHS)
def test_enumerate_lines_are_the_dumped_numberings(name, kind, p):
    m = build(name)

    def lines(**options):
        query = EnumerationQuery(p, kind, **options)
        got = list(enumerate_lines(m, query))
        assert got == [tv.dumps_numbering(m, a) for a in enumerate_numberings(m, query)]
        return got

    limit = MAX_LINES if count_by_contraction(m, EnumerationQuery(p, kind)).total > MAX_LINES else None
    full = lines(limit=limit)
    for k in (0, 1, 7):
        assert lines(limit=k) == full[:k]
    if not m.marking:
        assert lines(constraint=(), limit=limit) == full
        return
    if full:
        # The legs of the first numbering pin a cell that holds it.
        first = next(enumerate_numberings(m, EnumerationQuery(p, kind)))
        read = tv.exponent_of if kind == "strict" else tv.radii_of
        assert lines(constraint=read(m, first), limit=limit)[0] == full[0]
    # A strict exponent 0 and a balanced radius (p - 1) / 2 are out of domain.
    outside = (0 if kind == "strict" else (p - 1) // 2,) * len(m.marking)
    assert lines(constraint=outside) == []
    if kind == "strict" and tv.graph_type(m).g == 1:
        # Every leg of a genus-1 strict numbering reads p - 1.
        assert lines(constraint=(p - 2,) * len(m.marking)) == []


def test_strict_slot_convention():
    m = tv.loop_with_leg()
    for a in enumerate_numberings(m, EnumerationQuery(7, "strict")):
        for e in m.graph.edges:
            x = a.values[(e.id, 0)]
            assert 1 <= x <= 6
            assert a.values[(e.id, 1)] == 7 - x


def test_balanced_never_uses_top_value():
    # 2 * max <= sum <= p - 2 at every vertex, so no edge value exceeds (p - 3) / 2.
    for name in SMALL:
        m = build(name)
        for p in (7, 11):
            for a in enumerate_numberings(m, EnumerationQuery(p, "balanced")):
                assert max(a.values.values()) <= (p - 3) // 2


def test_strict_constraint_examples():
    m = tv.loop_with_leg()
    assert count(m, EnumerationQuery(7, "strict", constraint=(2,))).total == 0
    assert count(m, EnumerationQuery(7, "strict", constraint=(6,))).total == 6
    assert count_by_contraction(m, EnumerationQuery(7, "strict", constraint=(6,))).total == 6
    # negative entries reduce mod p
    assert EnumerationQuery(7, "strict", constraint=(-1,)).constraint == (6,)
    assert count(m, EnumerationQuery(7, "strict", constraint=(-1,))).total == 6


def test_balanced_constraint_is_radii():
    m = tv.loop_with_leg()
    by_radius = count(m, EnumerationQuery(5, "balanced"), by_exponent=True).by_exponent
    assert by_radius == {(0,): 2, (1,): 1}
    for radius, expected in by_radius.items():
        q = EnumerationQuery(5, "balanced", constraint=radius)
        assert count(m, q).total == expected
        assert count_by_contraction(m, q).total == expected
    assert count(m, EnumerationQuery(5, "balanced", constraint=(4,))).total == 0
    # Every radius 0..p-1 per leg, against the naive scan; a radius above
    # (p - 3) / 2 leaves its seeded level an empty range.
    p = 7
    for m in (tv.loop_with_leg(), tv.cycle_with_legs(2)):
        expected = Counter(
            tuple(sol[eid] for eid in m.marking) for sol in naive_balanced(m, p)
        )
        for radii in itertools.product(range(p), repeat=len(m.marking)):
            q = EnumerationQuery(p, "balanced", constraint=radii)
            assert count(m, q).total == expected.get(radii, 0)
            assert count_by_contraction(m, q).total == expected.get(radii, 0)
            problem = _Problem(m, q)
            ranges = {ei: (lo, hi) for ei, lo, hi, _, _ in problem.plan()}
            for ei, x in problem.seeds.items():
                assert (ranges[ei][0] > ranges[ei][1]) == (x > (p - 3) // 2)


def test_constraint_arity_mismatch():
    with pytest.raises(ValueError):
        count(tv.tripod(), EnumerationQuery(5, "strict", constraint=(1,)))
    for limit in (None, 0):
        q = EnumerationQuery(5, "balanced", constraint=(1,), limit=limit)
        with pytest.raises(ValueError):
            list(enumerate_numberings(tv.theta(), q))


def test_zero_exponent_is_unreachable_for_strict():
    m = tv.tripod()
    assert count(m, EnumerationQuery(5, "strict", constraint=(0, 1, 1))).total == 0
    assert count_by_contraction(m, EnumerationQuery(5, "strict", constraint=(0, 1, 1))).total == 0


def test_invalid_graphs_are_rejected():
    for limit in (None, 0):
        with pytest.raises(tv.InvalidGraphError):
            list(enumerate_numberings(degree_two(), EnumerationQuery(5, "strict", limit=limit)))
    unmarked = MarkedSemiGraph(tv.tripod().graph, ())
    with pytest.raises(tv.InvalidGraphError):
        count_by_contraction(unmarked, EnumerationQuery(5, "balanced"))


def test_query_validation():
    with pytest.raises(ValueError):
        EnumerationQuery(6, "strict")
    with pytest.raises(ValueError):
        EnumerationQuery(5, "loose")
    with pytest.raises(ValueError):
        EnumerationQuery(5, "strict", limit=-1)


@pytest.mark.parametrize("value", (4.9, 4.0, True, False, "4", None))
def test_query_rejects_non_integer_constraint_entries(value):
    with pytest.raises(ValueError, match="constraint"):
        EnumerationQuery(5, "strict", constraint=(value,))
    with pytest.raises(ValueError, match="constraint"):
        EnumerationQuery(5, "balanced", constraint=(1, value, 1))


@pytest.mark.parametrize("value", (2.5, 2.0, True, False, "2"))
def test_query_rejects_non_integer_limit(value):
    with pytest.raises(ValueError, match="limit"):
        EnumerationQuery(7, "strict", limit=value)


def test_count_ignores_limit():
    m = tv.tripod()
    assert count(m, EnumerationQuery(5, "strict", limit=1)).total == 10


@pytest.mark.parametrize("name", ("cycle2", "cycle4", "figure_tree"))
@pytest.mark.parametrize("kind", ("strict", "balanced"))
def test_by_exponent_partitions_total(kind, name):
    m = build(name)
    q = EnumerationQuery(7, kind)
    back = count(m, q, by_exponent=True)
    cont = count_by_contraction(m, q, by_exponent=True)
    assert back.total == cont.total
    assert back.by_exponent == cont.by_exponent
    assert sum(back.by_exponent.values()) == back.total
    tallied = Counter(
        open_values_strict(m, a.values) if kind == "strict"
        else tuple(a.values[eid] for eid in m.marking)
        for a in enumerate_numberings(m, q)
    )
    assert back.by_exponent == dict(tallied)


def test_by_exponent_with_no_legs_is_single_cell():
    report = count_by_contraction(tv.theta(), EnumerationQuery(5, "balanced"), by_exponent=True)
    assert report.by_exponent == {(): 5}
    assert report.to_json_obj()["by_exponent"] == {"": 5}


def test_contraction_width_warning():
    # The Moebius ladder of genus 8: a 14-cycle with chords ci-c(i+7).
    ladder = build("mobius_ladder7")
    with pytest.warns(UserWarning, match="contraction table spans 9 variables") as record:
        report = count_by_contraction(ladder, EnumerationQuery(5, "balanced"))
    assert report.total == _sine_sum(8, 5) == 8125
    # The warning names the caller of count_by_contraction.
    assert record[0].filename == __file__


def test_contraction_long_strict_cycle():
    # Each elimination step touches only the joined scope, so a long chain
    # of small tables stays fast.
    assert count_by_contraction(tv.cycle_with_legs(300), EnumerationQuery(5, "strict")).total == 4


@pytest.mark.parametrize("p", (5, 7, 11))
@pytest.mark.parametrize("kind", ("strict", "balanced"))
@pytest.mark.parametrize("name", (*SMALL, "cycle4", "figure_tree"))
def test_vertex_tables_match_product_scan(name, kind, p):
    # Every vertex's factor, its shape's shared rows under its own scope,
    # is the product scan with the folded legs summed out, whether the
    # legs are folded (a plain count) or kept (a by-exponent read-off).
    m = build(name)
    constraints = [None]
    if m.marking:
        # Cells that hold a numbering, so the seeded tables are not empty:
        # the first cell and the one with the most distinct leg values.
        cells = sorted(count(m, EnumerationQuery(p, kind), by_exponent=True).by_exponent)
        constraints += [cells[0], max(cells, key=lambda c: len(set(c)))]
    for constraint in constraints:
        problem = _Problem(m, EnumerationQuery(p, kind, constraint=constraint))
        triples = _tripod_table(problem)
        legs = {ei for ei, _ in problem.legs}
        for folded in (set(), legs):
            factors = _vertex_factors(problem, triples, folded)
            for v, factor in zip(m.graph.vertices, factors):
                table = product_vertex_table(m, p, kind, v, constraint, fold_legs=bool(folded))
                assert factor == table


@pytest.mark.parametrize("p", [p for p in range(3, 62, 2) if all(p % d for d in range(3, p, 2))])
def test_balanced_tripod_table_is_the_filtered_product(p):
    problem = _Problem(tv.tripod(), EnumerationQuery(p, "balanced"))
    domain = problem.domain
    expected = [t for t in itertools.product(domain, repeat=3) if balanced_triple(p, *t)]
    assert _tripod_table(problem) == expected


def test_balanced_genus_two_closed_form():
    # Genus 2 with no legs: (p^3 - p) / 24 balanced numberings.
    p = 101
    assert count_by_contraction(tv.theta(), EnumerationQuery(p, "balanced")).total == (p**3 - p) // 24


def _sine_sum(g, p):
    """p^(g-1) / 2^(2g-1) * sum over 0 < t < p of sin(pi t / p)^(2-2g),
    the balanced count of a closed genus-g graph: the generic number of
    dormant opers (Wakabayashi, Publ. RIMS 50, 2014), rounded."""
    terms = sum(math.sin(math.pi * t / p) ** (2 - 2 * g) for t in range(1, p))
    return round(p ** (g - 1) / 2 ** (2 * g - 1) * terms)


# Closed graphs of genus 3 to 5, whose intermediate contraction tables
# carry open edges around several cycles.  A balanced count depends only
# on the type, so K3,3 and the prism, both (4, 0), meet one closed form.
@pytest.mark.parametrize("name", ("k4", "k33", "prism", "cube"))
def test_closed_higher_genus_counts(name):
    m = build(name)
    genus = GRAPHS[name].type[0]
    assert tv.graph_type(m) == tv.GraphType(genus, 0)
    for p in (5, 7, 11):
        strict = EnumerationQuery(p, "strict")
        assert count(m, strict).total == count_by_contraction(m, strict).total == 0
        balanced = EnumerationQuery(p, "balanced")
        total = count_by_contraction(m, balanced).total
        assert total == _sine_sum(genus, p)
        if p < 11:
            assert count(m, balanced).total == total


def test_census_report_json_shape():
    report = count(tv.cycle_with_legs(3), EnumerationQuery(5, "strict"), by_exponent=True)
    obj = report.to_json_obj()
    assert obj == {"total": 4, "method": "backtracking", "by_exponent": {"4,4,4": 4}}


def test_strict_exponents_seen_across_partition():
    # every strict numbering lands in the cell the partition says it should
    m = tv.cycle_with_legs(2)
    cells = count(m, EnumerationQuery(5, "strict"), by_exponent=True).by_exponent
    for exponent, expected in cells.items():
        q = EnumerationQuery(5, "strict", constraint=exponent)
        sols = list(enumerate_numberings(m, q))
        assert len(sols) == expected
        assert all(tv.exponent_of(m, a) == exponent for a in sols)


def test_figure_tree_strict_count_agreement():
    m = tv.figure_tree()
    for p in (5, 7, 11):
        q = EnumerationQuery(p, "strict")
        assert count(m, q).total == count_by_contraction(m, q).total


def test_exhaustive_exponent_scan_matches_oracle():
    m = tv.cycle_with_legs(2)
    p = 5
    cells = count(m, EnumerationQuery(p, "strict"), by_exponent=True).by_exponent
    expected = Counter(open_values_strict(m, sol) for sol in naive_strict(m, p))
    assert cells == dict(expected)
    for combo in itertools.product(range(p), repeat=2):
        q = EnumerationQuery(p, "strict", constraint=combo)
        assert count(m, q).total == expected.get(combo, 0)
        assert count_by_contraction(m, q).total == expected.get(combo, 0)


def _window_reads(monkeypatch):
    """A list that gets one entry per vertex window the search reads, True
    when the window is empty: a checked value it rejects, a forced or
    settled edge it leaves no value, or a branched edge left with no
    value."""
    results = []
    for name in ("strict_window", "balanced_window"):

        def counted(self, rule, values, lo, hi, window=getattr(_Problem, name)):
            lo, hi = window(self, rule, values, lo, hi)
            results.append(lo > hi)
            return lo, hi

        monkeypatch.setattr(_Problem, name, counted)
    return results


DEAD_END_CASES = (
    [("strict", name, p) for name in ("tripod", "figure_tree") for p in (5, 7, 11, 13)]
    + [("balanced", "cycle3", 7), ("balanced", "cycle3", 11), ("balanced", "cycle5", 7)]
    + [("strict", f"cycle{n}", 7) for n in range(1, 9)]
    + [("strict", f"shuffled{n}", p) for n in (8, 12, 16) for p in (5, 7)]
)


@pytest.mark.parametrize("kind,name,p", DEAD_END_CASES)
def test_search_hits_no_dead_ends(monkeypatch, kind, name, p):
    # Each edge is branched only over values its ends admit, and a strict
    # genus-1 search pins its legs, so no vertex window is ever empty.
    m = build(name)
    results = _window_reads(monkeypatch)
    query = EnumerationQuery(p, kind)
    n = sum(1 for _ in enumerate_numberings(m, query))
    assert n == count_by_contraction(m, query).total > 0
    assert results and not any(results)
    # Nor do forced values clash: every assignment is a pin or lies on the
    # way to a numbering, E at most per numbering.  A forced or settled
    # value reads at most one window at each of its two ends, and a branch
    # point one per end of its edge.  Strict cycle:4 at p=7 reads 26
    # windows; unpinned it reads 228 (bound 112).  The shuffled cycle:16
    # at p=7 reads 98; without forcing it branches on its cycle edges in
    # shuffled order, sees a clash only once a stretch of the cycle is
    # full, and reads 231,722 (bound 448).
    edges = len(m.graph.edges)
    assert len(results) <= 2 * edges * (n + 1)


@pytest.mark.parametrize(
    "name,p", [(name, p) for kind, name, p in DEAD_END_CASES if kind == "strict"]
)
def test_seeded_search_hits_no_dead_ends(monkeypatch, name, p):
    # Seeds enter the plan as one-value levels: under each of the first 20
    # cells of the census, a strict search still meets no empty window and
    # stays within the same bound.  Balanced cycles do hit empty windows
    # under radii constraints, so they are left out.
    m = build(name)
    results = _window_reads(monkeypatch)
    cells = count(m, EnumerationQuery(p, "strict"), by_exponent=True).by_exponent
    edges = len(m.graph.edges)
    for cell in sorted(cells)[:20]:
        results.clear()
        n = sum(1 for _ in enumerate_numberings(m, EnumerationQuery(p, "strict", constraint=cell)))
        assert n == cells[cell]
        assert results and not any(results)
        assert len(results) <= 2 * edges * (n + 1)


# Whole unconstrained streams, and the window reads they took when this
# test was added: a change that makes the search read more must say why.
WINDOW_READS = (
    ("strict", "figure_tree", 17, 5_796),
    ("strict", "tripod", 79, 3_159),
    ("balanced", "cycle5", 7, 2_957),
    ("strict", "random1088", 7, 270_505),
)


@pytest.mark.parametrize("kind,name,p,reads", WINDOW_READS)
def test_window_reads_do_not_grow(monkeypatch, kind, name, p, reads):
    m = build(name)
    results = _window_reads(monkeypatch)
    assert count(m, EnumerationQuery(p, kind)).total > 0
    assert len(results) <= reads


# Streams longer than this are compared with the reference on their
# first MAX_STREAM tuples.
MAX_STREAM = 5_000
PLAN_GRAPHS = (
    *LINE_GRAPHS, "cycle7", "cycle8", "shuffled8", "shuffled12", "shuffled16",
    # Genus 0, 17 edges declared in shuffled order: most branches fail.
    "random1088",
)


def _in_label_order(m, problem, stream):
    """Each tuple holds a value per label of the numbering's JSON line, in
    its order: 2E strict branch values, x then p - x per edge, or E
    balanced edge values."""
    g, strict = m.graph, problem.strict
    keys = list(g.branches()) if strict else [e.id for e in g.edges]
    for sol in stream:
        assert len(sol) == (2 if strict else 1) * len(g.edges)
        if strict:
            assert all(sol[i] + sol[i + 1] == problem.p for i in range(0, len(sol), 2))
        assert problem.to_numbering(sol).values == dict(zip(keys, sol))


def _same_streams(m, kind, p, rng):
    """The plan's value tuples against the reference search's, in order:
    unconstrained, then under one drawn constraint, the legs of a drawn
    solution or, when there is none, leg values drawn from 0..p-1.  The
    unconstrained tuples are also checked to be in label order."""
    query = EnumerationQuery(p, kind)
    problem = _Problem(m, query)
    expected = list(itertools.islice(ReferenceProblem(m, query).solutions(), MAX_STREAM))
    stream = list(itertools.islice(problem.solutions(), MAX_STREAM))
    assert stream == expected
    _in_label_order(m, problem, stream)
    if not m.marking:
        return

    def cell(sol):
        return tuple(sol[i] for i in problem.open_positions)

    if expected:
        constraint = cell(rng.choice(expected))
    else:
        constraint = tuple(rng.randrange(p) for _ in m.marking)
    pinned = EnumerationQuery(p, kind, constraint=constraint)
    expected = list(itertools.islice(ReferenceProblem(m, pinned).solutions(), MAX_STREAM))
    assert list(itertools.islice(_Problem(m, pinned).solutions(), MAX_STREAM)) == expected
    assert all(cell(sol) == constraint for sol in expected)


PLAN_CASES = [
    (name, kind, p) for name in PLAN_GRAPHS for kind in ("strict", "balanced") for p in (3, 5, 7)
    if name != "random1088" or (kind, p) == ("strict", 5)
]


@pytest.mark.parametrize("name,kind,p", PLAN_CASES)
def test_plan_streams_match_the_reference(name, kind, p):
    _same_streams(build(name), kind, p, random.Random(f"{name}:{kind}:{p}"))


@pytest.mark.parametrize("p", (5, 7))
@pytest.mark.parametrize("kind", ("strict", "balanced"))
@pytest.mark.parametrize("seed", range(60))
def test_plan_streams_match_the_reference_on_random_graphs(seed, kind, p):
    _same_streams(build(f"random{seed}"), kind, p, random.Random(seed))


def test_balanced_forcing_passes_over_settled_levels(monkeypatch):
    # Balanced cycle:1200 at p=5: a leg is settled once its two cycle
    # edges are known, and when its window is one value its level is
    # passed over.  The first 1,000 numberings read 2,641 windows.
    # Without settling, each descent would read the window of every leg
    # level it crosses: 270,164 reads.
    m = tv.cycle_with_legs(1200)
    results = _window_reads(monkeypatch)
    lines = list(enumerate_lines(m, EnumerationQuery(5, "balanced", limit=1000)))
    assert len(lines) == 1000
    assert len(results) <= 2 * (len(m.graph.edges) + 1000)


@pytest.mark.parametrize("name", ("theta", "dumbbell", "k4", "cube"))
def test_strict_search_at_genus_two_assigns_nothing(monkeypatch, name):
    m = build(name)
    assert tv.graph_type(m).g >= 2
    results = _window_reads(monkeypatch)
    planned = []
    monkeypatch.setattr(_Problem, "plan", lambda self: planned.append(self))
    for p in (5, 7, 11):
        assert list(enumerate_numberings(m, EnumerationQuery(p, "strict"))) == []
    assert results == [] and planned == []


@pytest.mark.parametrize("p", (5, 7, 11))
def test_genus_one_constraint_against_the_pin(p):
    # Every genus-1 strict numbering reads p - 1 on each leg; a constraint
    # asking for p - 2 contradicts the pinned legs.
    m = tv.cycle_with_legs(3)
    query = EnumerationQuery(p, "strict", constraint=(p - 2,) * 3)
    assert count(m, query).total == count_by_contraction(m, query).total == 0
    mixed = EnumerationQuery(p, "strict", constraint=(p - 1, p - 2, p - 1))
    assert count(m, mixed).total == count_by_contraction(m, mixed).total == 0
    pinned = EnumerationQuery(p, "strict", constraint=(p - 1,) * 3)
    assert count(m, pinned).total == count_by_contraction(m, pinned).total == p - 1


INFEASIBLE_GRAPHS = (
    "tripod", "loop_with_leg", "figure_tree", *(f"cycle{n}" for n in range(1, 9)),
    *(f"random{s}" for s in (*range(60), *range(1000, 1100)) if GRAPHS[f"random{s}"].type[1]),
)


@pytest.mark.parametrize("name", (*INFEASIBLE_GRAPHS, "cycle_with_legs(1200)"))
def test_infeasible_constraints_end_at_the_first_level(monkeypatch, name):
    # A leg value outside the domain (a strict exponent 0, a balanced radius
    # (p - 1) / 2), or at genus 1 a strict exponent other than the pinned
    # p - 1, leaves the first level, a leg's, no value.  A leg has one end,
    # so the search reads at most one window; contraction finds no row.
    m = tv.cycle_with_legs(1200) if name == "cycle_with_legs(1200)" else build(name)
    r = len(m.marking)
    results = _window_reads(monkeypatch)
    for p in (5, 7):
        constraints = [("strict", (0,) * r), ("balanced", ((p - 1) // 2,) * r)]
        if tv.graph_type(m).g == 1:
            constraints.append(("strict", (3,) * r))
        for kind, constraint in constraints:
            query = EnumerationQuery(p, kind, constraint=constraint)
            results.clear()
            assert list(enumerate_lines(m, query)) == []
            assert len(results) <= 1
            assert count(m, query).total == count_by_contraction(m, query).total == 0


@pytest.mark.parametrize("kind", ("strict", "balanced"))
@pytest.mark.parametrize("name", ("tripod", "escaping_tripod", "figure_tree", "cycle2"))
def test_every_constraint_matches_the_scan(name, kind):
    # A seeded leg that a vertex's other values would force keeps its own
    # level, so its seed is still read: every constraint's stream matches
    # the reference's and both counts match the naive scan.
    m = build(name)
    p = 5
    if kind == "strict":
        expected = Counter(open_values_strict(m, sol) for sol in naive_strict(m, p))
    else:
        expected = Counter(open_values_balanced(m, sol) for sol in naive_balanced(m, p))
    for constraint in itertools.product(range(p), repeat=len(m.marking)):
        query = EnumerationQuery(p, kind, constraint=constraint)
        stream = list(_Problem(m, query).solutions())
        assert stream == list(ReferenceProblem(m, query).solutions())
        assert len(stream) == count_by_contraction(m, query).total == expected[constraint]


def test_long_strict_cycle_backtracking():
    # The leg-sum identity pins all 1200 legs, so only the loop constant
    # is branched on.
    m = tv.cycle_with_legs(1200)
    assert count(m, EnumerationQuery(5, "strict")).total == 4
    for verify in (tv.verify_p048, tv.verify_p048_structure, tv.verify_miura):
        report = verify(m, 5)
        assert report.applicable and report.passed
