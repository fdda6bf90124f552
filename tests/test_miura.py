import pytest

import trivalent as tv
import trivalent.miura as miura_mod
from trivalent.numbering import BranchNumbering, _built

from corpus import build
from oracles import naive_tripod_census, naive_tripod_strict_set, star

PRIMES = (3, 5, 7, 11, 13)
ODD_PRIMES_TO_31 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def test_mu_value_examples():
    assert tv.mu_value(11, 1) == 0 and tv.mu_value(11, 10) == 0
    assert tv.mu_value(11, 2) == 4 and tv.mu_value(11, 9) == 4
    assert tv.mu_value(7, 2) == 2 and tv.mu_value(7, 5) == 2
    assert tv.mu_value(11, 0) == 5


@pytest.mark.parametrize("p", PRIMES)
def test_mu_value_range_and_edge_consistency(p):
    for m in range(p):
        image = tv.mu_value(p, m)
        assert 0 <= image <= (p - 1) // 2
        assert 2 * image == (p - m - 1 if m % 2 == 0 else m - 1)
    for m in range(1, p):
        assert tv.mu_value(p, m) == tv.mu_value(p, p - m)


def test_mu_value_range_error():
    with pytest.raises(ValueError):
        tv.mu_value(7, 7)


def test_miura_transform_tripod():
    m = tv.tripod()
    values = {}
    for eid, x in zip(("l1", "l2", "l3"), (1, 2, 9)):
        values[(eid, 0)] = x
        values[(eid, 1)] = 11 - x
    image = tv.miura_transform(m, BranchNumbering(11, values))
    assert [image.values[e] for e in ("l1", "l2", "l3")] == [0, 4, 4]


def test_miura_transform_loop_with_leg():
    m = tv.loop_with_leg()
    a = BranchNumbering(7, {("loop", 0): 2, ("loop", 1): 5, ("leg", 0): 1, ("leg", 1): 6})
    image = tv.miura_transform(m, a)
    assert image.values == {"loop": 2, "leg": 0}
    assert tv.radii_of(m, image) == (tv.mu_value(7, 6),)


def test_miura_transform_rejects_non_strict():
    m = tv.tripod()
    values = {}
    for eid, x in zip(("l1", "l2", "l3"), (0, 2, 4)):
        values[(eid, 0)] = x
        values[(eid, 1)] = tv.inv(7, x)
    with pytest.raises(ValueError):
        tv.miura_transform(m, BranchNumbering(7, values))


def test_miura_transform_rejects_foreign_branch():
    m = tv.loop_with_leg()
    a = BranchNumbering(7, {("loop", 0): 2, ("loop", 1): 5, ("leg", 0): 1, ("leg", 1): 6,
                            ("zzz", 0): 1, ("zzz", 1): 6})
    with pytest.raises(ValueError, match=r"branch \('zzz', 0\), which the graph lacks"):
        tv.miura_transform(m, a)


def test_miura_transform_checks_edge_agreement():
    # Built unchecked, so slot 1 of l1 is 3 where the involution gives 6;
    # the vertex side is still strict: 1 + 2 + 5 = p + 1.
    values = {("l1", 0): 1, ("l1", 1): 3, ("l2", 0): 2, ("l2", 1): 5, ("l3", 0): 5, ("l3", 1): 2}
    a = _built(BranchNumbering, 7, values)
    assert tv.is_strict(tv.tripod(), a)
    with pytest.raises(RuntimeError, match=r"edge 'l1': branch images disagree \(0 vs 1\)"):
        tv.miura_transform(tv.tripod(), a)


def test_figure_fixture_values():
    m = tv.figure_tree()
    a = tv.figure_numbering()
    assert tv.graph_type(m) == tv.GraphType(0, 5)
    assert tv.is_strict(m, a)
    assert tv.exponent_of(m, a) == (10, 9, 8, 6, 8)
    image = tv.miura_transform(m, a)
    assert tuple(image.values[e.id] for e in m.graph.edges) == (0, 4, 4, 1, 3, 2, 1)
    assert tv.is_balanced(m, image)
    assert tv.radii_of(m, image) == (0, 4, 1, 2, 1)


@pytest.mark.parametrize("p", (5, 7, 11))
def test_image_is_balanced_with_compatible_radii(p):
    for name in ("tripod", "loop_with_leg", "cycle2", "figure_tree"):
        m = build(name)
        for a in tv.enumerate_numberings(m, tv.EnumerationQuery(p, "strict")):
            image = tv.miura_transform(m, a)
            assert tv.is_balanced(m, image)
            expected = tuple(tv.mu_value(p, e) for e in tv.exponent_of(m, a))
            assert tv.radii_of(m, image) == expected


@pytest.mark.parametrize("p", PRIMES)
def test_tripod_strict_set_membership_and_census(p):
    entries = tv.tripod_strict_set(p)
    assert all(sum(t) % p == 1 for t, _flag in entries)
    strict = sorted(t for t, flag in entries if flag)
    assert strict == sorted(naive_tripod_census(p))
    assert len(strict) == p * (p - 1) // 2


@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_tripod_strict_set_matches_full_scan(p):
    assert tv.tripod_strict_set(p) == naive_tripod_strict_set(p)


@pytest.mark.parametrize("p", PRIMES)
def test_strict_flag_matches_definition(p):
    for t, flag in tv.tripod_strict_set(p):
        assert flag == (all(x > 0 for x in t) and sum(t) == p + 1)


@pytest.mark.parametrize("p", ODD_PRIMES_TO_31)
def test_check_pp004(p):
    result = tv.check_pp004(p)
    assert result.holds
    assert result.counterexamples == ()


def test_check_pp004_lists_counterexamples(monkeypatch):
    monkeypatch.setattr(miura_mod, "mu_value", lambda p, m: 0)
    result = tv.check_pp004(5)
    assert not result.holds
    # The image (0, 0, 0) is balanced, so exactly the non-strict triples fail.
    strict = sum(flag for _, flag in tv.tripod_strict_set(5))
    assert len(result.counterexamples) == 25 - strict
    assert result.counterexamples[0] == {"triple": (0, 0, 1), "image": (0, 0, 0), "strict": False}


@pytest.mark.parametrize("p", (5, 7, 11))
def test_pp004_statement_by_hand(p):
    # the equivalence restated with the oracle's star test
    for t, flag in tv.tripod_strict_set(p):
        image = tuple(tv.mu_value(p, x) for x in t)
        assert flag == star(p, *image)


@pytest.mark.parametrize("value", [7, -1, True, "3", 3.0])
def test_mu_value_rejects_non_residues(value):
    with pytest.raises(ValueError) as info:
        tv.mu_value(7, value)
    assert str(info.value) == f"value {value!r} is not a residue in 0..6"
