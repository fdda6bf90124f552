"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import time

import trivalent as tv
from trivalent.search import EnumerationQuery, count, count_by_contraction, enumerate_numberings

from corpus import GENUS_ONE, SMALL, build
from oracles import naive_tripod_census


def report(number, slug, ok):
    print(f"criterion {number} ({slug}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({slug})"


def test_criterion_1_pp004_census():
    start = time.monotonic()
    ok = True
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        result = tv.check_pp004(p)
        ok = ok and result.holds and result.counterexamples == ()
    elapsed = time.monotonic() - start
    report(1, f"pp004 on all odd primes <= 31 in {elapsed:.2f}s", ok and elapsed < 5.0)


def test_criterion_2_no_strict_at_genus_two():
    ok = True
    for name in ("theta", "dumbbell"):
        for p in (5, 7, 11, 13):
            m = build(name)
            q = EnumerationQuery(p, "strict")
            ok = ok and count(m, q).total == 0
            ok = ok and count_by_contraction(m, q).total == 0
    report(2, "strict census empty on theta and dumbbell", ok)


def test_criterion_3_genus_one_counts_and_exponents():
    ok = True
    for name in GENUS_ONE:
        for p in (5, 7, 11):
            m = build(name)
            q = EnumerationQuery(p, "strict")
            solutions = list(enumerate_numberings(m, q))
            target = (p - 1,) * len(m.marking)
            ok = ok and len(solutions) == p - 1
            ok = ok and all(tv.exponent_of(m, a) == target for a in solutions)
            constrained = EnumerationQuery(p, "strict", constraint=target)
            ok = ok and count(m, constrained).total == p - 1
            ok = ok and count_by_contraction(m, constrained).total == p - 1
    report(3, "genus-1 strict census is p-1 at exponent (p-1, ..., p-1)", ok)


def test_criterion_4_genus_one_structure():
    ok = True
    for name in GENUS_ONE:
        for p in (5, 7, 11):
            result = tv.verify_p048_structure(build(name), p)
            ok = ok and result.applicable and result.passed
    report(4, "loop constant, partner values, off-loop [1,1,p-1], bijection", ok)


def test_criterion_5_miura_well_defined_on_corpus():
    ok = True
    for name in SMALL:
        for p in (5, 7, 11, 13):
            result = tv.verify_miura(build(name), p)
            ok = ok and result.passed
    report(5, "miura transform well-defined with componentwise radii", ok)


def test_criterion_6_tripod_census_against_naive_scan():
    ok = True
    for p in (3, 5, 7, 11, 13):
        strict = sorted(t for t, flag in tv.tripod_strict_set(p) if flag)
        oracle = sorted(naive_tripod_census(p))
        ok = ok and strict == oracle
        ok = ok and len(strict) == p * (p - 1) // 2
    report(6, "tripod strict census p(p-1)/2 vs naive triple scan", ok)


def test_criterion_7_figure_vector():
    result = tv.verify_figure_vector()
    m = tv.figure_tree()
    a = tv.figure_numbering()
    image = tv.miura_transform(m, a)
    ok = (
        result.passed
        and tv.is_strict(m, a)
        and all(
            sum(a.values[b] for b in m.graph.branches_at[v]) == 12
            for v in m.graph.vertices
        )
        and tuple(image.values[e.id] for e in m.graph.edges) == (0, 4, 4, 1, 3, 2, 1)
        and tv.is_balanced(m, image)
    )
    report(7, "embedded p=11 tree transforms to (0,4,4,1,3,2,1)", ok)


def test_criterion_8_engine_agreement_across_cells():
    cells = 0
    ok = True
    for name in SMALL:
        for p in (5, 7, 11, 13):
            for kind in ("strict", "balanced"):
                m = build(name)
                q = EnumerationQuery(p, kind)
                ok = ok and count(m, q).total == count_by_contraction(m, q).total
                cells += 1
    for name in GENUS_ONE:
        for p in (5, 7, 11):
            m = build(name)
            q = EnumerationQuery(p, "strict", constraint=(p - 1,) * len(m.marking))
            ok = ok and count(m, q).total == count_by_contraction(m, q).total
            cells += 1
    report(8, f"backtracking and contraction agree on {cells} corpus cells", ok and cells >= 60)


def test_criterion_9_exponent_partition():
    ok = True
    for name in ("theta", "dumbbell", "loop_with_leg", "cycle1", "cycle2"):
        m = build(name)
        r = len(m.marking)
        for p in (5, 7):
            for kind in ("strict", "balanced"):
                total = count(m, EnumerationQuery(p, kind)).total
                sliced = sum(
                    count(m, EnumerationQuery(p, kind, constraint=combo)).total
                    for combo in itertools.product(range(p), repeat=r)
                )
                ok = ok and sliced == total
                by_cells = count_by_contraction(
                    m, EnumerationQuery(p, kind), by_exponent=True
                ).by_exponent
                ok = ok and sum(by_cells.values()) == total
    report(9, "constrained counts over all exponent tuples partition the census", ok)
