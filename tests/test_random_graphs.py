"""Both engines and the Miura map against the naive oracles on random graphs,
and the two engines against each other on graphs too large for the oracles."""

import json
from collections import Counter

import pytest

import trivalent as tv
from trivalent.search import (
    EnumerationQuery,
    _Problem,
    count,
    count_by_contraction,
    enumerate_lines,
)

from corpus import build
from oracles import (
    naive_balanced,
    naive_strict,
    numbering_document,
    open_values_balanced,
    open_values_strict,
)

# The oracles scan all p^E assignments; larger spaces are skipped.
MAX_SPACE = 300_000
PRIMES = (3, 5, 7)
SEEDS = range(30)
# The corpus draws random1000..random1299, of 6-8 vertices: backtracking
# against contraction, at most MAX_ENUMERATED numberings per query, cells
# too on at most MAX_CELL_LEGS legs, and the first PINNED_CELLS cells
# counted under their own constraint.
LARGE_SEEDS = range(1000, 1300)
LARGE_PRIMES = (5, 7, 11)
MAX_ENUMERATED = 5_000
MAX_CELL_LEGS = 4
PINNED_CELLS = 2


def _agree(m, p, kind, solutions, read_open):
    """Engines against the oracle's solutions: totals, leg cells, each
    cell's census under its own constraint, and the stream in order."""
    cells = Counter(read_open(m, sol) for sol in solutions)
    query = EnumerationQuery(p, kind)
    for engine in (count, count_by_contraction):
        assert engine(m, query).total == len(solutions)
        assert engine(m, query, by_exponent=True).by_exponent == cells
    for cell, n in sorted(cells.items())[:4]:
        pinned = EnumerationQuery(p, kind, constraint=cell)
        _pinned_census(m, pinned, n)
        lines = [tv.dumps_numbering(m, a) for a in tv.enumerate_numberings(m, pinned)]
        assert list(enumerate_lines(m, pinned)) == lines and len(lines) == n
    numberings = list(tv.enumerate_numberings(m, query))
    # The engine builds its numberings without the constructor's checks;
    # each must pass them unchanged.
    for a in numberings:
        if kind == "strict":
            assert tv.BranchNumbering(a.p, a.values) == a
            assert tv.is_branch_numbering(m, p, a.values)
        else:
            assert tv.EdgeNumbering(a.p, a.values) == a
    assert [a.values for a in numberings] == solutions
    # Each stream line reads back as its numbering, and both encoders write
    # the reference document, key order included.
    for a in numberings:
        _writes_reference(m, a)
    assert list(enumerate_lines(m, query)) == [tv.dumps_numbering(m, a) for a in numberings]
    if m.marking:
        # A leg value outside the domain leaves its seeded level an empty
        # range: a strict exponent 0, a balanced radius (p - 1) / 2.
        outside = (0 if kind == "strict" else (p - 1) // 2,) * len(m.marking)
        pinned = EnumerationQuery(p, kind, constraint=outside)
        problem = _Problem(m, pinned)
        # Levels name the label position they set: 2i for strict edge i.
        at = 2 if kind == "strict" else 1
        ranges = {i: (lo, hi) for i, lo, hi, _, _ in problem.plan()}
        assert all(ranges[at * ei][0] > ranges[at * ei][1] for ei in problem.seeds)
        _pinned_census(m, pinned, 0)
        assert list(enumerate_lines(m, pinned)) == []
    return numberings


def _pinned_census(m, pinned, n):
    """Both engines' by-exponent census under a constraint: n numberings,
    all in the constraint's own cell, or no cell when n is 0."""
    cells = {pinned.constraint: n} if n else {}
    for engine in (count, count_by_contraction):
        report = engine(m, pinned, by_exponent=True)
        assert (report.total, report.by_exponent) == (n, cells)


def _writes_reference(m, a):
    expected = numbering_document(m, a)
    line = tv.dumps_numbering(m, a)
    assert line == json.dumps(expected)
    assert tv.loads_numbering(line) == a
    obj = tv.numbering_to_json_obj(m, a)
    assert obj == expected and json.dumps(obj) == line


@pytest.mark.parametrize("seed", SEEDS)
def test_random_graph_agreement(seed):
    m = build(f"random{seed}")
    assert tv.loads_graph(tv.dumps_graph(m)) == m
    t = tv.graph_type(m)
    checked = 0
    for p in PRIMES:
        if p ** len(m.graph.edges) > MAX_SPACE:
            continue
        checked += 1
        balanced = naive_balanced(m, p)
        _agree(m, p, "balanced", balanced, open_values_balanced)
        strict = _agree(m, p, "strict", naive_strict(m, p), open_values_strict)
        images = {tuple(sol.values()) for sol in balanced}
        inner = [(eid, m.graph.edge(eid).inner_slot()) for eid in m.marking]
        for a in strict:
            # The vertex sums add up to the leg-sum identity.
            assert sum(a.values[b] for b in inner) == t.r - (p - 2) * (t.g - 1)
            image = tv.miura_transform(m, a)
            assert tv.EdgeNumbering(p, image.values) == image
            _writes_reference(m, image)
            assert tuple(image.values.values()) in images
            assert tv.radii_of(m, image) == tuple(tv.mu_value(p, e) for e in tv.exponent_of(m, a))
    assert checked


@pytest.mark.parametrize("seed", LARGE_SEEDS)
def test_random_large_graph_engines_agree(seed):
    # The naive scan of p^E assignments is out of reach here, so the
    # backtracker is checked against contraction, an independent engine.
    m = build(f"random{seed}")
    by_exponent = len(m.marking) <= MAX_CELL_LEGS
    for p in LARGE_PRIMES:
        for kind in ("strict", "balanced"):
            query = EnumerationQuery(p, kind)
            expected = count_by_contraction(m, query, by_exponent=by_exponent)
            if expected.total > MAX_ENUMERATED:
                continue
            report = count(m, query, by_exponent=by_exponent)
            assert (report.total, report.by_exponent) == (expected.total, expected.by_exponent)
            if by_exponent:
                for cell, n in sorted(expected.by_exponent.items())[:PINNED_CELLS]:
                    _pinned_census(m, EnumerationQuery(p, kind, constraint=cell), n)
