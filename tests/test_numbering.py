import itertools
import json

import pytest

import trivalent as tv
from corpus import SMALL, build
from oracles import is_prime, numbering_document
from trivalent.numbering import BranchNumbering, EdgeNumbering, balanced_triple

PRIMES = (3, 5, 7, 11, 13)


def test_inv_examples():
    assert tv.inv(5, 0) == 0
    assert tv.inv(5, 2) == 3
    assert tv.inv(11, 10) == 1


@pytest.mark.parametrize("p", PRIMES)
def test_inv_is_negation_mod_p(p):
    for m in range(p):
        assert (m + tv.inv(p, m)) % p == 0
        assert tv.inv(p, tv.inv(p, m)) == m


def test_inv_range_error():
    with pytest.raises(ValueError):
        tv.inv(5, 5)
    with pytest.raises(ValueError):
        tv.inv(5, -1)


def test_check_prime():
    for p in PRIMES + (31,):
        assert tv.check_prime(p) == p
    for bad in (2, 1, 0, -7, 4, 9, 15, True, "7", 7.0):
        with pytest.raises(ValueError):
            tv.check_prime(bad)
    carmichael = (561, 1105, 1729, 41041, 825265)
    strong_pseudoprimes = (2047, 1373653, 25326001, 3215031751, 3825123056546413051)
    for n in carmichael + strong_pseudoprimes:
        raises_exactly(f"p must be a prime greater than 2, got {n}", tv.check_prime, n)
    for p in (2**31 - 1, 10**14 + 31, 2**61 - 1, 2**64 - 59):
        assert tv.check_prime(p) == p
    # The first number the Miller-Rabin bases pass wrongly, and a prime.
    for n in (318665857834031151167461, 2**89 - 1):
        raises_exactly(f"p must be below 2**64, got {n}", tv.check_prime, n)


def test_check_prime_agrees_with_trial_division():
    for n in range(10**5):
        try:
            tv.check_prime(n)
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted == (n > 2 and is_prime(n)), n


def tripod_branch_map(p, inner):
    values = {}
    for eid, m in zip(("l1", "l2", "l3"), inner):
        values[(eid, 0)] = m
        values[(eid, 1)] = tv.inv(p, m)
    return values


def test_is_branch_numbering_examples():
    m = tv.tripod()
    good = tripod_branch_map(11, (1, 2, 9))
    assert good[("l1", 1)] == 10 and good[("l2", 1)] == 9 and good[("l3", 1)] == 2
    assert tv.is_branch_numbering(m, 11, good)
    assert tv.is_branch_numbering(m, 11, {b: 0 for b in m.graph.branches()})
    bad = tripod_branch_map(5, (2, 2, 2))
    bad[("l1", 0)] = bad[("l1", 1)] = 1
    assert not tv.is_branch_numbering(m, 5, bad)
    assert not tv.is_branch_numbering(m, 5, {b: 7 for b in m.graph.branches()})
    with pytest.raises(ValueError):
        tv.is_branch_numbering(m, 11, {("l1", 0): 1})


def test_branch_numbering_constructor():
    BranchNumbering(11, tripod_branch_map(11, (1, 2, 9)))
    with pytest.raises(ValueError):
        BranchNumbering(11, {("e", 0): 1, ("e", 1): 1})
    with pytest.raises(ValueError):
        BranchNumbering(11, {("e", 0): 1})
    with pytest.raises(ValueError):
        BranchNumbering(11, {("e", 0): 11, ("e", 1): 0})
    with pytest.raises(ValueError):
        BranchNumbering(4, {})


def test_is_strict_examples():
    m = tv.tripod()
    assert tv.is_strict(m, BranchNumbering(11, tripod_branch_map(11, (1, 2, 9))))
    assert not tv.is_strict(m, BranchNumbering(7, tripod_branch_map(7, (0, 2, 4))))
    lwl = tv.loop_with_leg()
    for a in range(1, 7):
        values = {("loop", 0): a, ("loop", 1): 7 - a, ("leg", 0): 1, ("leg", 1): 6}
        assert tv.is_strict(lwl, BranchNumbering(7, values))
    values = {("loop", 0): 2, ("loop", 1): 5, ("leg", 0): 2, ("leg", 1): 5}
    assert not tv.is_strict(lwl, BranchNumbering(7, values))


def test_is_balanced_examples():
    m = tv.tripod()
    assert tv.is_balanced(m, EdgeNumbering(5, {"l1": 1, "l2": 1, "l3": 1}))
    assert not tv.is_balanced(m, EdgeNumbering(5, {"l1": 1, "l2": 1, "l3": 2}))
    assert tv.is_balanced(m, EdgeNumbering(5, {"l1": 0, "l2": 0, "l3": 0}))
    with pytest.raises(ValueError):
        tv.is_balanced(m, EdgeNumbering(5, {"l1": 0}))


@pytest.mark.parametrize("p", (5, 7))
def test_balanced_triple_is_symmetric(p):
    for triple in itertools.product(range(p), repeat=3):
        results = {balanced_triple(p, *perm) for perm in itertools.permutations(triple)}
        assert len(results) == 1


def test_balanced_self_loop_counts_twice():
    lwl = tv.loop_with_leg()
    assert tv.is_balanced(lwl, EdgeNumbering(5, {"loop": 1, "leg": 1}))
    # (2, 2, 1) sums to 5 > p - 2
    assert not tv.is_balanced(lwl, EdgeNumbering(5, {"loop": 2, "leg": 1}))


@pytest.mark.parametrize("p", (5, 7, 11))
def test_strict_vertex_has_at_most_one_large_value(p):
    for name in ("tripod", "loop_with_leg", "cycle2"):
        m = build(name)
        for a in tv.enumerate_numberings(m, tv.EnumerationQuery(p, "strict")):
            for v in m.graph.vertices:
                big = [b for b in m.graph.branches_at[v] if a.values[b] >= (p + 1) // 2]
                assert len(big) <= 1


def test_exponent_and_radii():
    lwl = tv.loop_with_leg()
    a = BranchNumbering(7, {("loop", 0): 2, ("loop", 1): 5, ("leg", 0): 1, ("leg", 1): 6})
    assert tv.exponent_of(lwl, a) == (6,)
    assert tv.radii_of(lwl, EdgeNumbering(7, {"loop": 2, "leg": 0})) == (0,)
    assert tv.exponent_of(tv.theta(), BranchNumbering(5, {})) == ()
    with pytest.raises(ValueError):
        tv.exponent_of(lwl, BranchNumbering(7, {}))
    with pytest.raises(ValueError):
        tv.radii_of(lwl, EdgeNumbering(7, {"loop": 2}))


def test_numbering_roundtrip_is_byte_identical():
    m = tv.loop_with_leg()
    a = BranchNumbering(7, {("loop", 0): 2, ("loop", 1): 5, ("leg", 0): 1, ("leg", 1): 6})
    text = tv.dumps_numbering(m, a)
    assert text == (
        '{"p": 7, "kind": "strict", '
        '"branch_values": {"loop.0": 2, "loop.1": 5, "leg.0": 1, "leg.1": 6}}'
    )
    again = tv.loads_numbering(text)
    assert again == a
    assert tv.dumps_numbering(m, again) == text

    b = EdgeNumbering(7, {"loop": 2, "leg": 0})
    text = tv.dumps_numbering(m, b)
    assert text == '{"p": 7, "kind": "balanced", "edge_values": {"loop": 2, "leg": 0}}'
    assert tv.dumps_numbering(m, tv.loads_numbering(text)) == text


def test_numbering_from_json_errors():
    from trivalent.semigraph import StructureError

    with pytest.raises(StructureError):
        tv.loads_numbering('{"p": 7, "kind": "tropical"}')
    with pytest.raises(StructureError):
        tv.loads_numbering('{"kind": "balanced", "edge_values": {}}')
    with pytest.raises(StructureError):
        tv.loads_numbering('{"p": 7, "kind": "strict", "branch_values": {"e": 1}}')
    with pytest.raises(StructureError):
        tv.loads_numbering('{"p": 7, "kind": "strict", "branch_values": {"e.2": 1}}')
    with pytest.raises(ValueError):
        # well-formed file, but the slot values break the involution
        tv.loads_numbering('{"p": 7, "kind": "strict", "branch_values": {"e.0": 1, "e.1": 2}}')


def test_dotted_edge_ids_survive_roundtrip():
    from trivalent.semigraph import OPEN, Edge, MarkedSemiGraph, SemiGraph

    g = MarkedSemiGraph(
        SemiGraph(("v",), (Edge("a.b", ("v", "v")), Edge("c.d", ("v", OPEN)))),
        ("c.d",),
    )
    a = BranchNumbering(5, {("a.b", 0): 2, ("a.b", 1): 3, ("c.d", 0): 1, ("c.d", 1): 4})
    text = tv.dumps_numbering(g, a)
    assert tv.loads_numbering(text) == a


# -- both encoders write what a dict built by walking the graph writes --

DUMPS_GRAPHS = (*SMALL, "cycle4", "figure_tree", "escaping_tripod", "relabelled_cycle")


def assert_dumps_matches_dict(m, numberings):
    """Both encoders against ``oracles.numbering_document``, key order
    included.  Returns the lines ``dumps_numbering`` wrote, in order."""
    lines = []
    for a in numberings:
        expected = numbering_document(m, a)
        line = tv.dumps_numbering(m, a)
        obj = tv.numbering_to_json_obj(m, a)
        assert line == json.dumps(expected)
        assert obj == expected and json.dumps(obj) == line
        lines.append(line)
    return lines


@pytest.mark.parametrize("p", (5, 7, 11))
@pytest.mark.parametrize("kind", ("strict", "balanced"))
@pytest.mark.parametrize("name", DUMPS_GRAPHS)
def test_dumps_matches_json_dumps_of_dict(name, kind, p):
    m = build(name)
    numberings = list(tv.enumerate_numberings(m, tv.EnumerationQuery(p, kind)))
    lines = assert_dumps_matches_dict(m, numberings)
    for a, line in zip(numberings, lines, strict=True):
        assert tv.loads_numbering(line) == a


def test_dumps_escapes_labels():
    m = build("escaping_tripod")
    strict = next(tv.enumerate_numberings(m, tv.EnumerationQuery(5, "strict")))
    line = tv.dumps_numbering(m, strict)
    assert '"a%d\\"b.0": ' in line and '"\\u00e9\\u2713.0": ' in line
    assert '"c\\\\d.e.1": ' in line
    assert tv.loads_numbering(line) == strict


def test_dumps_interleaves_kinds_on_one_graph():
    for p in (5, 7):
        m = tv.cycle_with_legs(3)  # fresh graph: nothing compiled yet
        strict = tv.enumerate_numberings(m, tv.EnumerationQuery(p, "strict"))
        balanced = tv.enumerate_numberings(m, tv.EnumerationQuery(p, "balanced"))
        lines = [a for pair in zip(balanced, strict) for a in pair]
        assert len(lines) > 2
        assert_dumps_matches_dict(m, lines)


def test_one_kind_compiles_only_its_layout():
    m = tv.figure_tree()  # fresh graph: nothing compiled yet
    image = tv.miura_transform(m, tv.figure_numbering())
    assert tv.numbering_to_json_obj(m, image) == numbering_document(m, image)
    assert list(m.graph.numbering_lines) == [False]
    balanced = m.graph.numbering_lines[False]
    tv.dumps_numbering(m, tv.figure_numbering())
    assert list(m.graph.numbering_lines) == [False, True]
    # Each layout is compiled once and read by every later line.
    tv.dumps_numbering(m, image)
    assert m.graph.numbering_lines[False] is balanced


def test_dumps_with_one_edge_and_with_none():
    from trivalent.semigraph import OPEN, Edge, MarkedSemiGraph, SemiGraph

    one = MarkedSemiGraph(SemiGraph(("v",), (Edge("x", ("v", OPEN)),)), ("x",))
    none = MarkedSemiGraph(SemiGraph((), ()), ())
    assert_dumps_matches_dict(
        one, (EdgeNumbering(5, {"x": 3}), BranchNumbering(5, {("x", 0): 1, ("x", 1): 4}))
    )
    assert_dumps_matches_dict(none, (EdgeNumbering(5, {}), BranchNumbering(5, {})))
    assert tv.dumps_numbering(one, EdgeNumbering(5, {"x": 3})) == (
        '{"p": 5, "kind": "balanced", "edge_values": {"x": 3}}'
    )
    assert tv.dumps_numbering(none, BranchNumbering(5, {})) == (
        '{"p": 5, "kind": "strict", "branch_values": {}}'
    )
    raises_exactly("numbering has no value for edge 'x'", tv.dumps_numbering, one, EdgeNumbering(5, {}))


def test_encoders_skip_values_the_graph_lacks():
    m = tv.tripod()
    branches = tripod_branch_map(5, (1, 1, 4))
    strict = BranchNumbering(5, branches)
    balanced = EdgeNumbering(5, {"l1": 0, "l2": 0, "l3": 0})
    cases = [
        (strict, BranchNumbering(5, {**branches, ("zz", 0): 2, ("zz", 1): 3})),
        (balanced, EdgeNumbering(5, {**balanced.values, "zz": 1})),
    ]
    for plain, foreign in cases:
        line = tv.dumps_numbering(m, plain)
        assert tv.dumps_numbering(m, foreign) == line
        assert_dumps_matches_dict(m, (plain, foreign))
    assert tv.dumps_numbering(m, strict) == (
        '{"p": 5, "kind": "strict", "branch_values": '
        '{"l1.0": 1, "l1.1": 4, "l2.0": 1, "l2.1": 4, "l3.0": 4, "l3.1": 1}}'
    )
    assert tv.dumps_numbering(m, balanced) == (
        '{"p": 5, "kind": "balanced", "edge_values": {"l1": 0, "l2": 0, "l3": 0}}'
    )


# -- validation pinned exactly: accepted inputs, rejected inputs, messages --

def raises_exactly(message, build, *args):
    with pytest.raises(ValueError) as info:
        build(*args)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "key", [("e",), ("e", 0, 1), "e0", (1, 0), ("e", 2), ("e", -1), ("e", None), ("e", "0")]
)
def test_branch_numbering_rejects_bad_key(key):
    raises_exactly(f"bad branch key {key!r}", BranchNumbering, 11, {key: 1})
    # The key is checked before its value, and before any involution.
    raises_exactly(
        f"bad branch key {key!r}", BranchNumbering, 11, {("f", 0): 2, ("f", 1): 3, key: 11}
    )


@pytest.mark.parametrize("value", ["1", 1.0, None, True, False, 11, -1])
def test_branch_numbering_rejects_bad_value(value):
    message = f"value {value!r} is not a residue in 0..10"
    raises_exactly(message, BranchNumbering, 11, {("e", 0): value, ("e", 1): 1})
    raises_exactly(message, BranchNumbering, 11, {("e", 0): 1, ("e", 1): value})
    # A bad value anywhere wins over a broken involution listed before it.
    raises_exactly(
        message, BranchNumbering, 11, {("f", 0): 2, ("f", 1): 3, ("e", 0): value, ("e", 1): 1}
    )


def test_branch_numbering_missing_slot():
    for key in (("e", 0), ("e", 1)):
        raises_exactly("edge 'e' is missing a branch slot", BranchNumbering, 11, {key: 1})
    raises_exactly(
        "edge 'f' is missing a branch slot",
        BranchNumbering, 11, {("f", 1): 1, ("e", 0): 2, ("e", 1): 3},
    )


def test_branch_numbering_broken_involution_message():
    message = "edge 'e' breaks the involution: 2 paired with 3"
    raises_exactly(message, BranchNumbering, 11, {("e", 0): 2, ("e", 1): 3})
    raises_exactly(message, BranchNumbering, 11, {("e", 1): 3, ("e", 0): 2})
    raises_exactly(
        "edge 'e' breaks the involution: 0 paired with 5",
        BranchNumbering, 11, {("e", 0): 0, ("e", 1): 5},
    )
    # Edges are reported in order of first appearance, whichever slot comes first.
    raises_exactly(
        "edge 'f' breaks the involution: 4 paired with 5",
        BranchNumbering, 11, {("f", 1): 5, ("e", 0): 2, ("e", 1): 3, ("f", 0): 4},
    )
    raises_exactly(
        message, BranchNumbering, 11, {("e", 0): 2, ("e", 1): 3, ("f", 0): 1},
    )


def test_branch_numbering_accepts():
    a = BranchNumbering(11, {("e", 1): 9, ("e", 0): 2, ("z", 0): 0, ("z", 1): 0})
    assert a.values == {("e", 1): 9, ("e", 0): 2, ("z", 0): 0, ("z", 1): 0}
    # Slot keys compare as ints, so True stands for slot 1.
    BranchNumbering(11, {("e", 0): 2, ("e", True): 9})

    class Residue(int):
        pass

    BranchNumbering(11, {("e", 0): Residue(2), ("e", 1): Residue(9)})
    assert BranchNumbering(3, {}).values == {}


def test_composite_p_rejected_every_time():
    for _ in range(2):
        raises_exactly("p must be a prime greater than 2, got 9", BranchNumbering, 9, {})
        raises_exactly("p must be a prime greater than 2, got 9", EdgeNumbering, 9, {})
        raises_exactly("p must be a prime greater than 2, got 25", tv.check_prime, 25)


def test_edge_numbering_validation():
    raises_exactly("bad edge key 1", EdgeNumbering, 5, {"a": 1, 1: 1})
    raises_exactly("bad edge key ('a', 0)", EdgeNumbering, 5, {("a", 0): 1})
    for value in (5, -1, True, "1", 1.0):
        raises_exactly(
            f"value {value!r} is not a residue in 0..4", EdgeNumbering, 5, {"a": value}
        )
    assert EdgeNumbering(5, {"a": 0, "b": 4}).values == {"a": 0, "b": 4}


def test_missing_branch_raises_in_predicates():
    lwl = tv.loop_with_leg()
    partial = BranchNumbering(7, {("loop", 0): 1, ("loop", 1): 6})
    message = "numbering has no value for branch ('leg', 0)"
    raises_exactly(message, tv.numbering_to_json_obj, lwl, partial)
    raises_exactly(message, tv.is_strict, lwl, partial)
    raises_exactly(message, tv.dumps_numbering, lwl, partial)
    # A zero branch ahead of the gap settles is_strict before the gap is seen.
    assert not tv.is_strict(lwl, BranchNumbering(7, {("loop", 0): 0, ("loop", 1): 0}))
    raises_exactly(
        "numbering has no value for edge 'leg'",
        tv.numbering_to_json_obj, lwl, EdgeNumbering(7, {"loop": 1}),
    )
    raises_exactly(
        "numbering has no value for edge 'leg'",
        tv.dumps_numbering, lwl, EdgeNumbering(7, {"loop": 1}),
    )
