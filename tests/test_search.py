import itertools
from collections import Counter

import pytest

import trivalent as tv
from trivalent.search import (
    EnumerationQuery,
    _Problem,
    _tripod_table,
    _vertex_factor,
    count,
    count_by_contraction,
    enumerate_numberings,
)
from trivalent.semigraph import OPEN, Edge, MarkedSemiGraph, SemiGraph

from oracles import naive_balanced, naive_strict, open_values_strict, product_vertex_table

BUILDERS = {
    "tripod": tv.tripod,
    "theta": tv.theta,
    "dumbbell": tv.dumbbell,
    "loop_with_leg": tv.loop_with_leg,
    "cycle1": lambda: tv.cycle_with_legs(1),
    "cycle2": lambda: tv.cycle_with_legs(2),
    "cycle3": lambda: tv.cycle_with_legs(3),
}

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
    m = BUILDERS[name]()
    q = EnumerationQuery(p, "strict")
    assert count(m, q).total == total
    assert count_by_contraction(m, q).total == total


@pytest.mark.parametrize("name,p,total", cases(BALANCED_TOTALS))
def test_balanced_totals_both_engines(name, p, total):
    m = BUILDERS[name]()
    q = EnumerationQuery(p, "balanced")
    assert count(m, q).total == total
    assert count_by_contraction(m, q).total == total


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("p", (5, 7))
def test_enumerate_matches_naive_scan_strict(name, p):
    m = BUILDERS[name]()
    ids = [e.id for e in m.graph.edges]
    got = [
        tuple(a.values[(eid, 0)] for eid in ids)
        for a in enumerate_numberings(m, EnumerationQuery(p, "strict"))
    ]
    expected = sorted(tuple(sol[(eid, 0)] for eid in ids) for sol in naive_strict(m, p))
    assert got == expected


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("p", (5, 7))
def test_enumerate_matches_naive_scan_balanced(name, p):
    m = BUILDERS[name]()
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


@pytest.mark.parametrize("k", (0, 1, 3))
def test_limit_pulls_no_solution_past_the_last(monkeypatch, k):
    pulled = []
    solutions = _Problem.solutions

    def counted(self):
        for sol in solutions(self):
            pulled.append(sol)
            yield sol

    monkeypatch.setattr(_Problem, "solutions", counted)
    out = list(enumerate_numberings(tv.tripod(), EnumerationQuery(7, "strict", limit=k)))
    assert len(out) == k
    assert len(pulled) == k


def test_strict_slot_convention():
    m = tv.loop_with_leg()
    for a in enumerate_numberings(m, EnumerationQuery(7, "strict")):
        for e in m.graph.edges:
            x = a.values[(e.id, 0)]
            assert 1 <= x <= 6
            assert a.values[(e.id, 1)] == 7 - x


def test_balanced_never_uses_top_value():
    # 2 * max <= sum <= p - 2 at every vertex, so no edge value exceeds (p - 3) / 2.
    for builder in BUILDERS.values():
        m = builder()
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
    # Every radius 0..p-1 per leg, against the naive scan; radii above
    # (p - 3) / 2 are turned away at setup.
    p = 7
    for m in (tv.loop_with_leg(), tv.cycle_with_legs(2)):
        expected = Counter(
            tuple(sol[eid] for eid in m.marking) for sol in naive_balanced(m, p)
        )
        for radii in itertools.product(range(p), repeat=len(m.marking)):
            q = EnumerationQuery(p, "balanced", constraint=radii)
            assert count(m, q).total == expected.get(radii, 0)
            assert count_by_contraction(m, q).total == expected.get(radii, 0)
            assert _Problem(m, q).feasible == (max(radii) <= (p - 3) // 2)


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
    degree_two = MarkedSemiGraph(
        SemiGraph(("a", "b"), (Edge("e", ("a", "b")), Edge("l", ("a", OPEN)))),
        ("l",),
    )
    for limit in (None, 0):
        with pytest.raises(tv.InvalidGraphError):
            list(enumerate_numberings(degree_two, EnumerationQuery(5, "strict", limit=limit)))
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


def test_count_ignores_limit():
    m = tv.tripod()
    assert count(m, EnumerationQuery(5, "strict", limit=1)).total == 10


@pytest.mark.parametrize(
    "builder",
    (lambda: tv.cycle_with_legs(2), lambda: tv.cycle_with_legs(4), tv.figure_tree),
    ids=("cycle2", "cycle4", "figure_tree"),
)
@pytest.mark.parametrize("kind", ("strict", "balanced"))
def test_by_exponent_partitions_total(kind, builder):
    m = builder()
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


def test_by_exponent_over_all_cells_matches_unconstrained():
    m = tv.loop_with_leg()
    for kind in ("strict", "balanced"):
        total = count(m, EnumerationQuery(7, kind)).total
        sliced = sum(
            count(m, EnumerationQuery(7, kind, constraint=(c,))).total for c in range(7)
        )
        assert sliced == total


def test_by_exponent_with_no_legs_is_single_cell():
    report = count_by_contraction(tv.theta(), EnumerationQuery(5, "balanced"), by_exponent=True)
    assert report.by_exponent == {(): 5}
    assert report.to_json_obj()["by_exponent"] == {"": 5}


def test_contraction_width_warning():
    with pytest.warns(UserWarning, match="contraction table"):
        count_by_contraction(tv.theta(), EnumerationQuery(5, "balanced"), max_table_width=1)


def test_contraction_long_strict_cycle():
    # Each elimination step touches only the joined scope, so a long chain
    # of small tables stays fast.
    assert count_by_contraction(tv.cycle_with_legs(300), EnumerationQuery(5, "strict")).total == 4


TABLE_BUILDERS = {**BUILDERS, "cycle4": lambda: tv.cycle_with_legs(4), "figure_tree": tv.figure_tree}


@pytest.mark.parametrize("p", (5, 7, 11))
@pytest.mark.parametrize("kind", ("strict", "balanced"))
@pytest.mark.parametrize("name", TABLE_BUILDERS)
def test_vertex_tables_match_product_scan(name, kind, p):
    m = TABLE_BUILDERS[name]()
    constraints = [None]
    if m.marking:
        # A cell that holds a numbering, so the seeded tables are not empty.
        first = next(enumerate_numberings(m, EnumerationQuery(p, kind)))
        constraints.append(tv.exponent_of(m, first) if kind == "strict" else tv.radii_of(m, first))
    for constraint in constraints:
        problem = _Problem(m, EnumerationQuery(p, kind, constraint=constraint))
        triples = _tripod_table(problem)
        for v, incident in zip(m.graph.vertices, problem.vertex_branches):
            table = product_vertex_table(m, p, kind, v, constraint)
            assert _vertex_factor(problem, incident, triples) == table


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
