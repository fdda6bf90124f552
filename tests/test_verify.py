import json
import time

import pytest

import oracles
import trivalent as tv
import trivalent.miura as miura_mod
import trivalent.numbering as numbering_mod
import trivalent.semigraph as semigraph_mod
import trivalent.verify as verify_mod
from corpus import GENUS_ONE, GENUS_TWO, GRAPHS, SMALL, build
from oracles import miura_loop
from trivalent.cli import main
from trivalent.numbering import BranchNumbering, numbering_from_json_obj
from trivalent.search import CensusReport, _Problem


@pytest.mark.parametrize("p", (5, 7, 11))
@pytest.mark.parametrize("name,builder", [(n, GRAPHS[n].build) for n in GENUS_ONE + GENUS_TWO])
def test_p048_passes_on_corpus(name, builder, p):
    report = tv.verify_p048(builder(), p)
    assert report.applicable and report.passed
    assert report.witness == ()


@pytest.mark.parametrize("p", (5, 7, 11))
@pytest.mark.parametrize("name,builder", [(n, GRAPHS[n].build) for n in GENUS_ONE])
def test_p048_structure_passes_on_genus_one(name, builder, p):
    report = tv.verify_p048_structure(builder(), p)
    assert report.applicable and report.passed


def test_p048_not_applicable_at_genus_zero(capsys):
    report = tv.verify_p048(tv.tripod(), 7)
    assert not report.applicable and report.passed
    for name in (*GENUS_TWO, "tripod"):
        structure = tv.verify_p048_structure(build(name), 7)
        assert not structure.applicable
    # The reports in full, from the library and from the command line (exit 3).
    tripod = {"p": 7, "type": {"g": 0, "r": 3}, "vertices": 1, "edges": 3}
    theta = {"p": 7, "type": {"g": 2, "r": 0}, "vertices": 2, "edges": 3}
    cases = [
        (tv.verify_p048, "p048", "tripod", tripod,
         "statement concerns genus >= 1", "genus 0, nothing to check"),
        (tv.verify_p048_structure, "p048_structure", "tripod", tripod,
         "statement concerns genus 1", "genus 0, nothing to check"),
        (tv.verify_p048_structure, "p048_structure", "theta", theta,
         "statement concerns genus 1", "genus 2, nothing to check"),
    ]
    for verifier, theorem, graph, inputs, claim, observed in cases:
        expected = {
            "theorem": theorem,
            "inputs": inputs,
            "claim": claim,
            "observed": observed,
            "passed": True,
            "applicable": False,
            "witness": [],
        }
        assert verifier(build(graph), 7).to_json_obj() == expected
        assert main(["verify", theorem, "--p", "7", "--builtin", graph]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (json.dumps(expected) + "\n", "")


@pytest.mark.parametrize("p", (5, 7, 11, 13))
@pytest.mark.parametrize(
    "builder",
    [GRAPHS[name].build
     for name in ("tripod", "theta", "dumbbell", "loop_with_leg", "cycle2", "figure_tree")],
)
def test_miura_verifier_passes(builder, p):
    report = tv.verify_miura(builder(), p)
    assert report.passed
    assert report.theorem == "miura"


def test_figure_vector():
    report = tv.verify_figure_vector()
    assert report.passed and report.applicable
    assert "0, 4, 4, 1, 3, 2, 1" in report.observed


def test_report_json_shape():
    obj = tv.verify_p048(tv.loop_with_leg(), 5).to_json_obj()
    assert obj["theorem"] == "p048"
    assert obj["inputs"]["type"] == {"g": 1, "r": 1}
    assert obj["passed"] is True
    assert obj["witness"] == []


def test_each_graph_is_validated_once(monkeypatch):
    # Parsed from its file form, the graph has not been validated yet.
    m = tv.loads_graph(tv.dumps_graph(tv.cycle_with_legs(3)))
    calls = []
    validate = semigraph_mod.validate

    def counted(graph):
        calls.append(graph)
        return validate(graph)

    monkeypatch.setattr(semigraph_mod, "validate", counted)
    assert tv.verify_p048(m, 5).passed
    assert calls == [m]
    # Later verifiers on the same graph read the same report.
    assert tv.verify_p048_structure(m, 5).passed
    assert tv.verify_miura(m, 5).passed
    assert calls == [m]


def test_failure_carries_witness(monkeypatch):
    # force a count disagreement to exercise the reporting path
    monkeypatch.setattr(
        verify_mod, "count", lambda m, q: CensusReport(99, "backtracking")
    )
    report = tv.verify_p048(tv.theta(), 5)
    assert not report.passed
    assert report.witness


def test_miura_failure_carries_witness(monkeypatch):
    # mu_value is the verifier's one reader of the map; break it on odd values
    monkeypatch.setattr(verify_mod, "mu_value", odd_mu)
    report = tv.verify_miura(tv.loop_with_leg(), 5)
    assert not report.passed
    assert report.witness and "branch images disagree" in report.witness[0]["error"]
    # the witness numbering replays through the public predicates
    replayed = numbering_from_json_obj(report.witness[0]["numbering"])
    assert tv.is_strict(tv.loop_with_leg(), replayed)


MIURA_GRAPHS = (*SMALL, "cycle4", "cycle5", "cycle6", "figure_tree", "relabelled_cycle",
                *(f"random{seed}" for seed in range(30)))


@pytest.mark.parametrize("p", (5, 7, 11, 13))
@pytest.mark.parametrize("name", MIURA_GRAPHS)
def test_miura_matches_per_numbering_loop(name, p):
    m = build(name)
    report = tv.verify_miura(m, p)
    assert report.passed
    assert report.to_json_obj() == miura_loop(m, p).to_json_obj()


def test_miura_at_large_p_reads_no_residue_table(capsys):
    # Genus 2 has no strict numbering, so only an O(p) table of mu could
    # make this slow.
    start = time.perf_counter()
    code = main(["verify", "miura", "--builtin", "theta", "--p", str(2**61 - 1)])
    elapsed = time.perf_counter() - start
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["observed"] == "0 numberings checked, 0 failures"
    assert elapsed < 1


def test_structure_check_details():
    # spell the structural claims out on one known case
    p = 7
    m = tv.cycle_with_legs(2)
    loop = tv.reduced_loop(m, "v1")
    loop_edges = {b[0] for b in loop}
    assert loop_edges == {"c1", "c2"}
    constants = []
    for a in tv.enumerate_numberings(m, tv.EnumerationQuery(p, "strict")):
        c = a.values[loop[0]]
        constants.append(c)
        for b in loop:
            assert a.values[b] == c
            assert a.values[m.graph.partner(b)] == p - c
        assert tv.exponent_of(m, a) == (p - 1, p - 1)
    assert sorted(constants) == list(range(1, p))


def test_off_loop_multiset():
    m = build("lollipop")
    p = 11
    report = tv.verify_p048_structure(m, p)
    assert report.applicable and report.passed
    for a in tv.enumerate_numberings(m, tv.EnumerationQuery(p, "strict")):
        ms = sorted(a.values[b] for b in m.graph.branches_at["v1"])
        assert ms == [1, 1, p - 1]
    assert tv.verify_p048(m, p).passed


# One case per way a check can fail.  Each replaces names in
# trivalent.verify so that one check fails, runs the statement through
# the command line, and checks the witness it reports.

real_enumerate = verify_mod.enumerate_numberings
real_mu_value = verify_mod.mu_value
real_exponent_reader = verify_mod._exponent_reader


def shifted(edge_id):
    """enumerate_numberings with each slot-0 value x of ``edge_id`` moved
    to x mod (p - 1) + 1, its partner following."""

    def enumerate_numberings(m, query):
        p = query.p
        for a in real_enumerate(m, query):
            vals = dict(a.values)
            x = vals[(edge_id, 0)] % (p - 1) + 1
            vals[(edge_id, 0)], vals[(edge_id, 1)] = x, p - x
            yield BranchNumbering(p, vals)

    return enumerate_numberings


def twice(m, query):
    for a in real_enumerate(m, query):
        yield a
        yield a


THETA_NUMBERING = BranchNumbering(5, {(f"e{i}", s): 4 if s else 1 for i in (1, 2, 3) for s in (0, 1)})


def figure_error(start):
    def shape(w):
        assert list(w[0]) == ["numbering"]
        (rest,) = w[1:]
        assert list(rest) == ["error"] and rest["error"].startswith(start)

    return shape


def all_entries(keys, check):
    def shape(w):
        assert w and all(list(entry) == keys and check(entry) for entry in w)

    return shape


class NonStrictProblem(_Problem):
    """The search with each solution's last edge value x moved to
    x' = x mod (p - 1) + 1, its slots reading x' and p - x', which breaks
    the vertex sums at that edge's ends unless it is a self-loop."""

    def solutions(self):
        p = self.p
        for sol in super().solutions():
            x = sol[-2] % (p - 1) + 1
            yield sol[:-2] + (x, p - x)


class ZeroFirstProblem(_Problem):
    """The search with each solution's first edge value set to 0, so its
    slot values are 0 and p; a self-loop's still add up to p."""

    def solutions(self):
        p = self.p
        for sol in super().solutions():
            yield (0, p) + sol[2:]


def odd_mu(p, m):
    """mu_value, one more on odd values: an edge's two slot values, x and
    p - x, then have images one apart."""
    return real_mu_value(p, m) + m % 2


def never(p, m1, m2, m3):
    return False


def lowered_exponent_reader(problem):
    """The verifier's exponent reader with each entry one less."""
    read = real_exponent_reader(problem)
    return lambda branch: tuple(e - 1 for e in read(branch))


# One mutation per Miura check, two for strictness (vertex sums, then a
# zero, which on loop_with_leg only the nonzero test sees): the names it
# replaces in trivalent.verify, then the (module, name, value) patches
# that make the per-numbering reference loop (oracles.miura_loop) fail
# the same way.
MIURA_MUTATIONS = {
    "miura-strict": (
        {"_Problem": NonStrictProblem},
        [(oracles, "_Problem", NonStrictProblem)],
    ),
    "miura-zero": (
        {"_Problem": ZeroFirstProblem},
        [(oracles, "_Problem", ZeroFirstProblem)],
    ),
    "miura-edge": (
        {"mu_value": odd_mu},
        [(miura_mod, "mu_value", odd_mu), (oracles, "mu_value", odd_mu)],
    ),
    "miura-unbalanced": (
        {"balanced_triple": never},
        [(numbering_mod, "balanced_triple", never)],
    ),
    "miura-radii": (
        {"_exponent_reader": lowered_exponent_reader},
        [(oracles, "exponent_of", lambda m, a: tuple(e - 1 for e in tv.exponent_of(m, a)))],
    ),
}


@pytest.mark.parametrize("p", (5, 7))
@pytest.mark.parametrize("mutation", MIURA_MUTATIONS)
def test_miura_failures_match_per_numbering_loop(mutation, p, monkeypatch):
    verify_patches, loop_patches = MIURA_MUTATIONS[mutation]
    for name, value in verify_patches.items():
        monkeypatch.setattr(verify_mod, name, value)
    for module, name, value in loop_patches:
        monkeypatch.setattr(module, name, value)
    failed = 0
    for name in MIURA_GRAPHS:
        m = build(name)
        report = tv.verify_miura(m, p)
        assert report.to_json_obj() == miura_loop(m, p).to_json_obj()
        failed += not report.passed
    assert failed


def miura_witness(error, strict=True):
    """Every entry holds a loop_with_leg numbering and an error passing
    ``error``; the numbering replays through numbering_from_json_obj,
    strict unless the search's tuple was not."""

    def entry(e):
        replayed = numbering_from_json_obj(e["numbering"])
        return error(e["error"]) and tv.is_strict(tv.loop_with_leg(), replayed) == strict

    return all_entries(["numbering", "error"], entry)


FAILURES = {
    "p048-genus2-numbering": (
        {
            "count_by_contraction": lambda m, q: CensusReport(1, "contraction"),
            "enumerate_numberings": lambda m, q: iter([THETA_NUMBERING]),
        },
        ["p048", "--builtin", "theta", "--p", "5"],
        lambda w: w == [tv.numbering_to_json_obj(tv.theta(), THETA_NUMBERING)],
    ),
    "p048-genus1-counts": (
        {"count_by_contraction": lambda m, q: CensusReport(99, "contraction")},
        ["p048", "--builtin", "loop_with_leg", "--p", "5"],
        lambda w: w == [{"counts": {
            "backtracking": 4, "contraction": 99, "constrained_backtracking": 4,
            "constrained_contraction": 99, "expected": 4,
        }}],
    ),
    "p048-exponent": (
        {"exponent_of": lambda m, a: (0,)},
        ["p048", "--builtin", "loop_with_leg", "--p", "5"],
        all_entries(["exponent", "numbering"], lambda e: e["exponent"] == [0]),
    ),
    "structure-loop-constant": (
        {"enumerate_numberings": shifted("c2")},
        ["p048_structure", "--builtin", "cycle:2", "--p", "5"],
        all_entries(
            ["problems", "numbering"],
            lambda e: e["problems"][0].startswith("loop branch ('c2', "),
        ),
    ),
    "structure-off-loop": (
        {"enumerate_numberings": shifted("mid")},
        ["p048_structure", "LOLLIPOP", "--p", "5"],
        all_entries(
            ["problems", "numbering"], lambda e: e["problems"] == ["vertex v1 carries [1, 1, 3]"]
        ),
    ),
    "structure-bijection": (
        {"enumerate_numberings": twice},
        ["p048_structure", "--builtin", "cycle:2", "--p", "5"],
        lambda w: list(w[0]) == ["loop_constants"]
        and sorted(w[0]["loop_constants"]) == [1, 1, 2, 2, 3, 3, 4, 4]
        and len(w) == 1,
    ),
    "miura-strict": (
        MIURA_MUTATIONS["miura-strict"][0],
        ["miura", "--builtin", "loop_with_leg", "--p", "5"],
        miura_witness(
            lambda error: error == "miura_transform requires a strict branch numbering",
            strict=False,
        ),
    ),
    "miura-edge": (
        MIURA_MUTATIONS["miura-edge"][0],
        ["miura", "--builtin", "loop_with_leg", "--p", "5"],
        miura_witness(lambda error: error.startswith("edge 'loop': branch images disagree (")),
    ),
    "miura-unbalanced": (
        MIURA_MUTATIONS["miura-unbalanced"][0],
        ["miura", "--builtin", "loop_with_leg", "--p", "5"],
        miura_witness(lambda error: error == "image is not balanced"),
    ),
    "miura-radii": (
        MIURA_MUTATIONS["miura-radii"][0],
        ["miura", "--builtin", "loop_with_leg", "--p", "5"],
        miura_witness(lambda error: error == "radii [0] != transformed exponent [1]"),
    ),
    "figure-involution": (
        {"is_branch_numbering": lambda m, p, values: False},
        ["figure"],
        figure_error("involution fails"),
    ),
    "figure-strict": (
        {"is_strict": lambda m, a: False},
        ["figure"],
        figure_error("numbering is not strict"),
    ),
    "figure-sums": (
        {"sum": lambda values: 0},
        ["figure"],
        figure_error("vertex sums {'v1': 0, 'v2': 0, 'v3': 0}"),
    ),
    "figure-image": (
        {"FIGURE_IMAGE": (0,) * 7},
        ["figure"],
        figure_error("image [0, 4, 4, 1, 3, 2, 1] != [0, 0, 0, 0, 0, 0, 0]"),
    ),
    "figure-balanced": (
        {"is_balanced": lambda m, a: False},
        ["figure"],
        figure_error("image is not balanced"),
    ),
    "figure-radii": (
        {"radii_of": lambda m, a: ()},
        ["figure"],
        figure_error("radii do not transform componentwise"),
    ),
}


@pytest.mark.parametrize("case", FAILURES)
def test_failed_check_reports_witness(case, monkeypatch, capsys, tmp_path):
    patches, argv, shape = FAILURES[case]
    for name, value in patches.items():
        # ``sum`` is a builtin; it is shadowed in the module for one case.
        monkeypatch.setattr(verify_mod, name, value, raising=name != "sum")
    graph = tmp_path / "lollipop.json"
    graph.write_text(tv.dumps_graph(build("lollipop")))
    argv = [str(graph) if arg == "LOLLIPOP" else arg for arg in argv]
    assert main(["verify", *argv]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False and report["applicable"] is True
    shape(report["witness"])
