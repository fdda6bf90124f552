import argparse
import hashlib
import json
import subprocess
import sys

import pytest

import trivalent as tv
import trivalent.cli as cli_mod
import trivalent.semigraph as semigraph_mod
from trivalent.cli import main

from corpus import degree_two


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_builtin(capsys):
    code, out, _ = run(capsys, "validate", "--builtin", "tripod")
    assert code == 0
    report = json.loads(out)
    assert report["valid"] and report["type"] == {"g": 0, "r": 3}


def test_validate_builtin_validates_once(monkeypatch, capsys):
    calls = []
    validate = semigraph_mod.validate

    def counted(graph):
        calls.append(graph)
        return validate(graph)

    monkeypatch.setattr(semigraph_mod, "validate", counted)
    monkeypatch.setattr(cli_mod, "validate", counted)
    code, out, _ = run(capsys, "validate", "--builtin", "cycle:3")
    assert code == 0 and json.loads(out)["type"] == {"g": 1, "r": 3}
    assert len(calls) == 1


def test_validate_failure_names_vertex(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(tv.dumps_graph(degree_two()))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    report = json.loads(out)
    check = next(c for c in report["checks"] if c["name"] == "three_regular")
    assert not check["passed"] and "b" in check["detail"]


def test_malformed_inputs_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(capsys, "validate", str(path))[0] == 2
    assert run(capsys, "validate", str(tmp_path / "missing.json"))[0] == 2
    assert run(capsys, "validate", "--builtin", "octopus")[0] == 2
    assert run(capsys, "validate", "--builtin", "cycle:x")[0] == 2
    # int() would read each of these as a cycle length.
    for name in ("cycle:1_0", "cycle: 3", "cycle:+3", "cycle:٣"):
        code, out, err = run(capsys, "validate", "--builtin", name)
        assert (code, out, err) == (2, "", f"error: bad builtin {name!r}\n")
    assert run(capsys, "validate")[0] == 2
    path.write_text(tv.dumps_graph(tv.tripod()))
    assert run(capsys, "validate", str(path), "--builtin", "tripod")[0] == 2
    assert run(capsys, "enumerate", "--p", "5", "--kind", "strict", "--limit", "-1",
               "--builtin", "tripod")[0] == 2
    assert run(capsys, "enumerate", "--p", "5", "--kind", "strict", "--constraint", "a,b",
               "--builtin", "tripod")[0] == 2
    assert run(capsys, "count", "--p", "5", "--kind", "strict", "--builtin", "cycle:0")[0] == 2
    assert run(capsys, "verify", "figure", "--p", "7")[0] == 2
    assert run(capsys, "verify", "pp004", "--p", "5", "--builtin", "theta")[0] == 2
    # A file that is not UTF-8, and JSON nested past the recursion limit,
    # as a graph file and as the numbering file of miura.
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b'{"vertices": ["\xe9"]}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for bad in (undecodable, deep):
        code, out, err = run(capsys, "validate", str(bad))
        assert (code, out) == (2, "") and err.startswith("error: ")
        code, out, err = run(capsys, "miura", str(bad), "--builtin", "tripod")
        assert (code, out) == (2, "") and err.startswith("error: ")
    # Integer arguments are ASCII digits, after one '-' at most; int()
    # would take these, and ran them with exit 0.
    for option, value in (("--p", "1_3"), ("--p", "٣"), ("--limit", "0_1"), ("--limit", " 1")):
        argv = ["enumerate", "--p", "5", "--kind", "strict", "--builtin", "tripod"]
        with pytest.raises(SystemExit) as info:
            main(argv + [option, value])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument {option}: invalid int value: {value!r}\n")
    for raw in ("٣,+3, 3", "3,3,3_0", "3,--3,3", "3,3,"):
        code, out, err = run(capsys, "enumerate", "--p", "5", "--kind", "strict",
                             "--builtin", "tripod", "--constraint", raw)
        assert (code, out) == (2, "")
        assert err == f"error: --constraint must be comma-separated integers, got {raw!r}\n"
    code, out, err = run(capsys, "enumerate", "--p", "5", "--kind", "strict",
                         "--builtin", "tripod", "--limit", "-1")
    assert (code, out, err) == (2, "", "error: --limit must be nonnegative, got -1\n")
    with pytest.raises(SystemExit) as info:
        main(["count", "--p", "abc", "--kind", "strict", "--builtin", "tripod"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --p: invalid int value: 'abc'\n")


@pytest.fixture
def digit_limit():
    """int()'s limit on the digits of a string, set to 4300 for the test.
    With the limit off, cycle:<digits> would build a graph that long."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def test_integers_past_the_digit_limit_exit_2(tmp_path, capsys, digit_limit):
    digits = "1" * (digit_limit + 1)
    graph, numbering = tmp_path / "graph.json", tmp_path / "numbering.json"
    graph.write_text(f'{{"vertices": [{digits}], "edges": [], "marking": []}}')
    numbering.write_text(f'{{"p": {digits}, "kind": "strict", "branch_values": {{}}}}')
    tripod = ["--p", "5", "--kind", "strict", "--builtin", "tripod"]
    for argv in (["validate", str(graph)], ["miura", str(numbering), "--builtin", "tripod"],
                 ["enumerate", *tripod, "--constraint", digits],
                 ["count", "--p", "5", "--kind", "strict", "--builtin", f"cycle:{digits}"]):
        message = f"error: integer longer than {digit_limit} digits\n"
        assert run(capsys, *argv) == (2, "", message)
    # argparse reads --p and --limit: the message names the option, not the
    # type function, and does not echo the digits.
    for option, argv in (("--p", ["count", "--p", digits, "--kind", "strict",
                                  "--builtin", "tripod"]),
                         ("--limit", ["enumerate", *tripod, "--limit", digits]),
                         ("--p", ["verify", "miura", "--p", digits, "--builtin", "tripod"])):
        with pytest.raises(SystemExit) as info:
            main(argv)
        captured = capsys.readouterr()
        assert info.value.code == 2 and captured.out == ""
        assert captured.err.endswith(
            f"error: argument {option}: integer longer than {digit_limit} digits\n"
        )
        assert "_integer_arg" not in captured.err and digits not in captured.err


TRIPOD = {"vertices": ["v"], "marking": ["a", "b", "c"],
          "edges": [{"id": leg, "ends": ["v", None]} for leg in "abc"]}


@pytest.mark.parametrize(
    "command,doc,message",
    [
        ("validate", [], "graph document must be a JSON object"),
        ("validate", {"vertices": [], "edges": []}, "graph document is missing 'marking'"),
        ("validate", {**TRIPOD, "vertices": "v"}, "vertices must be a list"),
        ("validate", {**TRIPOD, "edges": {}}, "edges must be a list"),
        ("validate", {**TRIPOD, "edges": [{"id": "a"}]}, "bad edge entry {'id': 'a'}"),
        ("validate", {**TRIPOD, "edges": [{"id": "a", "ends": ["v"]}]},
         "edge 'a' needs exactly two ends"),
        ("validate", {**TRIPOD, "edges": [{"id": "a", "ends": ["v", 1]}]},
         "bad incidence 1 on edge 'a'"),
        ("validate", {**TRIPOD, "marking": "abc"}, "marking must be a list of edge ids"),
        ("miura", [], "numbering document must be a JSON object"),
        ("miura", {"kind": "strict", "branch_values": {}}, "numbering document needs an integer p"),
        ("miura", {"p": "7", "kind": "strict", "branch_values": {}},
         "numbering document needs an integer p"),
        ("miura", {"p": 7.0, "kind": "strict", "branch_values": {}},
         "numbering document needs an integer p"),
        ("miura", {"p": True, "kind": "strict", "branch_values": {}},
         "numbering document needs an integer p"),
        ("miura", {"p": 7, "kind": "balanced", "edge_values": []},
         "balanced numbering needs an edge_values object"),
        ("miura", {"p": 7, "kind": "strict"}, "strict numbering needs a branch_values object"),
        ("miura", {"p": 7, "kind": "strict", "branch_values": {"a.2": 1}}, "bad branch key 'a.2'"),
        ("miura", {"p": 7, "kind": "dormant"}, "unknown numbering kind 'dormant'"),
    ]
    # A numbering value must be a JSON integer, for either kind.
    + [
        ("miura", {"p": 7, "kind": "strict", "branch_values": {"a.0": 1, "a.1": value}},
         f"value of 'a.1' must be an integer, got {value!r}")
        for value in (True, 1.0, "1", None)
    ]
    + [
        ("miura", {"p": 7, "kind": "balanced", "edge_values": {"a": 1, "b": value}},
         f"value of 'b' must be an integer, got {value!r}")
        for value in (True, 1.0, "1", None)
    ]
    # Vertex and edge ids are checked by the graph constructors.
    + [
        ("validate", {**TRIPOD, "vertices": [""]}, "vertex id must be a nonempty string, got ''"),
        ("validate", {**TRIPOD, "vertices": [5]}, "vertex id must be a nonempty string, got 5"),
        ("validate", {**TRIPOD, "edges": [{"id": "", "ends": ["v", None]}]},
         "edge id must be a nonempty string, got ''"),
        ("validate", {**TRIPOD, "edges": [{"id": 7, "ends": ["v", None]}]},
         "edge id must be a nonempty string, got 7"),
    ],
)
def test_malformed_documents_exit_2(tmp_path, capsys, command, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)] + (["--builtin", "tripod"] if command == "miura" else [])
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("value", (9, -1))
def test_numbering_value_out_of_range_exits_1(tmp_path, capsys, value):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"p": 7, "kind": "strict", "branch_values": {"a.0": value}}))
    code, out, err = run(capsys, "miura", str(path), "--builtin", "tripod")
    assert (code, out, err) == (1, "", f"error: value {value} is not a residue in 0..6\n")


@pytest.mark.parametrize("bad", ("numbering", "graph"))
def test_decode_error_names_the_file(tmp_path, capsys, bad):
    # miura reads two files; the error says which one is not UTF-8.
    m = tv.figure_tree()
    files = {"numbering": tmp_path / "numbering.json", "graph": tmp_path / "graph.json"}
    files["numbering"].write_text(tv.dumps_numbering(m, tv.figure_numbering()))
    files["graph"].write_text(tv.dumps_graph(m))
    files[bad].write_bytes(b'{"vertices": ["\xe9"]}')
    code, out, err = run(capsys, "miura", str(files["numbering"]), str(files["graph"]))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {files[bad]}: 'utf-8' codec can't decode byte 0xe9")
    assert err.count(str(tmp_path)) == 1


def test_enumerate_stream(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--p", "7", "--kind", "strict", "--builtin", "loop_with_leg"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    first = json.loads(lines[0])
    assert first == {
        "p": 7,
        "kind": "strict",
        "branch_values": {"loop.0": 1, "loop.1": 6, "leg.0": 1, "leg.1": 6},
    }
    # every line parses back into a strict numbering
    m = tv.loop_with_leg()
    for line in lines:
        assert tv.is_strict(m, tv.loads_numbering(line))


# sha256 of the full ``enumerate`` output, as the benchmark's stream
# workload also checks it.
STREAM_DIGESTS = {
    ("balanced", "cycle:3", 7): "265e05c849558b4e25ef1bf04c065a42250f31bc703b258cf7916cf3356648c1",
    ("strict", "figure", 7): "43d4d2a960224dcd953ee90df58eec6f6602c6d49279c713bcb2eeaf444d9de1",
    ("strict", "tripod", 13): "24d054b3a81ac023f2184c8d891ef81507491624f87407a1c4ba937cf40e484e",
}


def _stream_argv(tmp_path, kind, graph, p):
    if graph == "figure":
        path = tmp_path / "figure_tree.json"
        path.write_text(tv.dumps_graph(tv.figure_tree()))
        source = [str(path)]
    else:
        source = ["--builtin", graph]
    return ["enumerate", "--kind", kind, "--p", str(p), *source]


@pytest.mark.parametrize("kind,graph,p", sorted(STREAM_DIGESTS))
def test_enumerate_stream_bytes_are_frozen(tmp_path, capsys, kind, graph, p):
    code, out, err = run(capsys, *_stream_argv(tmp_path, kind, graph, p))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == STREAM_DIGESTS[(kind, graph, p)]


class WriteOnly:
    """A stdout with only ``write`` and ``flush``, as the benchmark's byte
    sink has: no ``writelines``, no buffer, no file number."""

    def __init__(self):
        self.hash = hashlib.sha256()
        self.writes = 0

    def write(self, text):
        self.hash.update(text.encode())
        self.writes += 1
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("kind,graph,p", sorted(STREAM_DIGESTS))
def test_enumerate_writes_through_write_and_flush_only(monkeypatch, tmp_path, kind, graph, p):
    out = WriteOnly()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(_stream_argv(tmp_path, kind, graph, p)) == 0
    assert out.hash.hexdigest() == STREAM_DIGESTS[(kind, graph, p)]


# Strict tripod at p = 61 has C(61, 2) = 1,830 numberings.  enumerate writes
# its lines in blocks, so limits on either side of a block's edge, and of the
# stream's end, must each cut the full stream after exactly that many lines.
TRIPOD_61 = ["enumerate", "--builtin", "tripod", "--p", "61", "--kind", "strict"]


@pytest.mark.parametrize("k", (0, 1, 2, 63, 64, 65, 127, 128, 129, 1829, 1830, 1831, 5000))
def test_enumerate_limit_cuts_at_any_line(capsys, k):
    full = run(capsys, *TRIPOD_61)[1].splitlines(keepends=True)
    assert len(full) == 1830
    assert run(capsys, *TRIPOD_61, "--limit", str(k)) == (0, "".join(full[:k]), "")


def test_enumerate_writes_lines_in_blocks(monkeypatch):
    out = WriteOnly()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(TRIPOD_61) == 0
    assert 0 < out.writes < 1830 / 32


# Every command but enumerate (frozen by STREAM_DIGESTS above) on the builtins,
# cycle:1..4 and the figure tree at p = 3, 5, 7 and the composite 9, plus the
# refusals the commands make themselves.  argparse's own errors are left out:
# their usage text wraps at the terminal's width.
GOLDEN_GRAPHS = (
    ["--builtin", "tripod"], ["--builtin", "theta"], ["--builtin", "dumbbell"],
    ["--builtin", "loop_with_leg"], *(["--builtin", f"cycle:{n}"] for n in range(1, 5)),
    ["figure.json"],
)
GOLDEN_REFUSALS = (
    ["validate"],
    ["validate", "--builtin", "octopus"],
    ["validate", "figure.json", "--builtin", "tripod"],
    ["count", "--p", "5", "--kind", "strict", "--builtin", "cycle:0"],
    ["count", "--p", "1", "--kind", "balanced", "--builtin", "tripod"],
    ["enumerate", "--p", "5", "--kind", "strict", "--builtin", "tripod", "--limit", "-1"],
    ["enumerate", "--p", "5", "--kind", "strict", "--builtin", "tripod", "--constraint", "a,b"],
    ["miura", "missing.json", "--builtin", "tripod"],
    ["verify", "figure", "--p", "7"],
    ["verify", "figure", "--builtin", "tripod"],
    ["verify", "pp004", "--p", "5", "--builtin", "theta"],
    ["verify", "pp004"],
    ["verify", "p048", "--builtin", "theta"],
)
GOLDEN_DIGEST = "4a4661689c82d39abe2c595c42621c0562156ea4b4ceaa4e4a726fe83c631708"


def _golden_argvs():
    yield ["verify", "figure"]
    yield from GOLDEN_REFUSALS
    for graph in GOLDEN_GRAPHS:
        yield ["validate", *graph]
        for p in ("3", "5", "7", "9"):
            for kind in ("strict", "balanced"):
                for method in ("backtracking", "contraction", "both"):
                    for extra in ([], ["--by-exponent"]):
                        yield ["count", "--p", p, "--kind", kind, "--method", method,
                               *extra, *graph]
            for theorem in ("p048", "p048_structure", "miura"):
                yield ["verify", theorem, "--p", p, *graph]
    for p in ("3", "5", "7", "9"):
        yield ["verify", "pp004", "--p", p]


def test_cli_bytes_are_frozen(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "figure.json").write_text(tv.dumps_graph(tv.figure_tree()))
    digest = hashlib.sha256()
    for argv in _golden_argvs():
        digest.update(json.dumps([argv, *run(capsys, *argv)]).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_DIGEST


def test_enumerate_limit_is_prefix(capsys):
    full = run(capsys, "enumerate", "--p", "7", "--kind", "balanced", "--builtin", "theta")[1]
    head = run(
        capsys, "enumerate", "--p", "7", "--kind", "balanced", "--limit", "3",
        "--builtin", "theta",
    )[1]
    assert full.splitlines()[:3] == head.splitlines()


@pytest.mark.parametrize("kind", ("strict", "balanced"))
def test_enumerate_long_cycle_first_numbering(capsys, kind):
    code, out, err = run(
        capsys, "enumerate", "--builtin", "cycle:1200", "--p", "5", "--kind", kind,
        "--limit", "1",
    )
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1


def test_enumerate_constraint(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--p", "7", "--kind", "strict", "--constraint", "2",
        "--builtin", "loop_with_leg",
    )
    assert code == 0 and out == ""
    code, out, _ = run(
        capsys, "enumerate", "--p", "7", "--kind", "strict", "--constraint", "-1",
        "--builtin", "loop_with_leg",
    )
    assert code == 0 and len(out.splitlines()) == 6
    code, _, err = run(
        capsys, "enumerate", "--p", "7", "--kind", "strict", "--constraint", "1,2",
        "--builtin", "loop_with_leg",
    )
    assert code == 2 and "legs" in err
    # A negative first entry is read as the constraint, not as an option,
    # spaced or joined with '='.
    line = (
        '{"p": 7, "kind": "strict", "branch_values": '
        '{"l1.0": 1, "l1.1": 6, "l2.0": 1, "l2.1": 6, "l3.0": 6, "l3.1": 1}}\n'
    )
    tripod = ["enumerate", "--builtin", "tripod", "--p", "7", "--kind", "strict"]
    for constraint in (["--constraint", "-1,-1,1"], ["--constraint=-1,-1,1"],
                       ["--constraint", "6,6,1"]):
        assert run(capsys, *tripod, *constraint) == (0, line, "")
    # A missing value still fails in argparse.
    for constraint in (["--constraint"], ["--constraint", "--limit", "5"]):
        with pytest.raises(SystemExit) as info:
            main(tripod + constraint)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("error: argument --constraint: expected one argument\n")
    # An empty constraint is the empty vector: a graph with no legs keeps
    # every numbering.
    full = run(capsys, "enumerate", "--p", "7", "--kind", "balanced", "--builtin", "theta")[1]
    code, out, _ = run(
        capsys, "enumerate", "--p", "7", "--kind", "balanced", "--constraint", "",
        "--builtin", "theta",
    )
    assert code == 0 and out == full and len(out.splitlines()) == 14


def test_enumerate_from_file(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(tv.dumps_graph(tv.cycle_with_legs(2)))
    code, out, _ = run(capsys, "enumerate", "--p", "5", "--kind", "strict", str(path))
    assert code == 0 and len(out.splitlines()) == 4


def test_count_both_methods(capsys):
    code, out, _ = run(
        capsys, "count", "--p", "5", "--kind", "strict", "--method", "both",
        "--builtin", "tripod",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["agree"] is True
    assert doc["backtracking"]["total"] == 10
    assert doc["contraction"]["total"] == 10
    code, out, _ = run(
        capsys, "count", "--p", "5", "--kind", "strict", "--method", "contraction",
        "--builtin", "tripod",
    )
    assert code == 0
    assert json.loads(out) == {"total": 10, "method": "contraction"}


real_contraction = cli_mod.count_by_contraction


def _off_by_one_total(m, query, by_exponent=False):
    report = real_contraction(m, query, by_exponent=by_exponent)
    return tv.CensusReport(report.total + 1, report.method, report.by_exponent)


def _moved_cell(m, query, by_exponent=False):
    """The same total, with one numbering moved to a cell of its own."""
    report = real_contraction(m, query, by_exponent=by_exponent)
    cells = dict(report.by_exponent)
    first = next(iter(cells))
    cells[first] -= 1
    cells[(0,) * len(first)] = 1
    return tv.CensusReport(report.total, report.method, cells)


@pytest.mark.parametrize("fake,extra", [(_off_by_one_total, ()), (_moved_cell, ("--by-exponent",))])
def test_count_both_disagreement_exits_1(monkeypatch, capsys, fake, extra):
    monkeypatch.setattr(cli_mod, "count_by_contraction", fake)
    code, out, err = run(
        capsys, "count", "--p", "5", "--kind", "strict", "--method", "both", *extra,
        "--builtin", "cycle:3",
    )
    doc = json.loads(out)
    assert (code, err) == (1, "")
    assert doc["agree"] is False
    assert list(doc) == ["backtracking", "contraction", "agree"]
    assert doc["backtracking"]["total"] == 4


def test_count_by_exponent(capsys):
    for method in ((), ("--method", "contraction")):
        code, out, _ = run(
            capsys, "count", "--p", "5", "--kind", "strict", "--by-exponent", *method,
            "--builtin", "cycle:3",
        )
        assert code == 0
        assert json.loads(out)["by_exponent"] == {"4,4,4": 4}


def test_count_invalid_graph_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(tv.dumps_graph(degree_two()))
    assert run(capsys, "count", "--p", "5", "--kind", "strict", str(path))[0] == 1


def test_count_non_prime_exits_1(capsys):
    assert run(capsys, "count", "--p", "6", "--kind", "strict", "--builtin", "tripod")[0] == 1


def test_miura_command(tmp_path, capsys):
    m = tv.figure_tree()
    path = tmp_path / "numbering.json"
    path.write_text(tv.dumps_numbering(m, tv.figure_numbering()))
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(tv.dumps_graph(m))
    code, out, _ = run(capsys, "miura", str(path), str(graph_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "balanced"
    assert list(doc["edge_values"].values()) == [0, 4, 4, 1, 3, 2, 1]
    assert doc["radii"] == [0, 4, 1, 2, 1]


def test_miura_rejects_non_strict(tmp_path, capsys):
    m = tv.tripod()
    values = {}
    for eid, x in zip(("l1", "l2", "l3"), (0, 2, 4)):
        values[(eid, 0)] = x
        values[(eid, 1)] = tv.inv(7, x)
    path = tmp_path / "numbering.json"
    path.write_text(tv.dumps_numbering(m, tv.BranchNumbering(7, values)))
    code, _, err = run(capsys, "miura", str(path), "--builtin", "tripod")
    assert code == 1 and "strict" in err


def test_miura_rejects_foreign_branch(tmp_path, capsys):
    path = tmp_path / "numbering.json"
    values = {"loop.0": 2, "loop.1": 5, "leg.0": 1, "leg.1": 6, "zzz.0": 1, "zzz.1": 6}
    path.write_text(json.dumps({"p": 7, "kind": "strict", "branch_values": values}))
    code, out, err = run(capsys, "miura", str(path), "--builtin", "loop_with_leg")
    assert (code, out) == (1, "")
    assert err == "error: numbering has a value for branch ('zzz', 0), which the graph lacks\n"


def test_miura_at_a_large_prime(tmp_path, capsys):
    # Trial division up to the square root of p would take minutes here.
    p = 2**61 - 1
    values = {"l1.0": 1, "l1.1": p - 1, "l2.0": 1, "l2.1": p - 1, "l3.0": p - 1, "l3.1": 1}
    path = tmp_path / "numbering.json"
    path.write_text(json.dumps({"p": p, "kind": "strict", "branch_values": values}))
    assert run(capsys, "miura", str(path), "--builtin", "tripod") == (0, (
        '{"p": 2305843009213693951, "kind": "balanced", '
        '"edge_values": {"l1": 0, "l2": 0, "l3": 0}, "radii": [0, 0, 0]}\n'
    ), "")
    path.write_text(json.dumps({"p": 2**89 - 1, "kind": "strict", "branch_values": {}}))
    assert run(capsys, "miura", str(path), "--builtin", "tripod") == (
        1, "", f"error: p must be below 2**64, got {2**89 - 1}\n"
    )


def test_miura_rejects_balanced_file(tmp_path, capsys):
    m = tv.tripod()
    path = tmp_path / "numbering.json"
    path.write_text(tv.dumps_numbering(m, tv.EdgeNumbering(7, {"l1": 1, "l2": 1, "l3": 1})))
    assert run(capsys, "miura", str(path), "--builtin", "tripod")[0] == 1


@pytest.mark.parametrize("error", (RecursionError, KeyError))
def test_internal_error_exits_4(monkeypatch, capsys, error):
    def crash(*args, **kwargs):
        raise error("engine crashed")

    monkeypatch.setattr("trivalent.cli.count", crash)
    code, out, err = run(capsys, "count", "--p", "5", "--kind", "strict", "--builtin", "tripod")
    assert code == 4
    assert out == ""
    assert err.startswith("Traceback (most recent call last):")
    assert f"{error.__name__}: " in err and "engine crashed" in err


def test_verify_exit_codes(capsys):
    assert run(capsys, "verify", "pp004", "--p", "13")[0] == 0
    assert run(capsys, "verify", "p048", "--p", "7", "--builtin", "theta")[0] == 0
    assert run(capsys, "verify", "p048", "--p", "7", "--builtin", "tripod")[0] == 3
    assert run(capsys, "verify", "p048_structure", "--p", "5", "--builtin", "cycle:2")[0] == 0
    assert run(capsys, "verify", "miura", "--p", "5", "--builtin", "dumbbell")[0] == 0
    assert run(capsys, "verify", "figure")[0] == 0
    assert run(capsys, "verify", "p048", "--builtin", "theta")[0] == 2


@pytest.mark.parametrize("theorem", ("p048", "p048_structure", "miura"))
def test_verify_graph_file_after_options(tmp_path, capsys, theorem):
    for graph in (tv.cycle_with_legs(3), tv.figure_tree()):
        path = tmp_path / "graph.json"
        path.write_text(tv.dumps_graph(graph))
        first = run(capsys, "verify", theorem, str(path), "--p", "5")
        assert first[0] in (0, 3) and first[1]
        assert run(capsys, "verify", theorem, "--p", "5", str(path)) == first
        with pytest.raises(SystemExit) as info:
            main(["verify", theorem, "--p", "5", str(path), "extra"])
        assert info.value.code == 2
        assert "unrecognized arguments: extra" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,code", [([], 2), (["bogus"], 2), (["--help"], 0), (["count", "-h"], 0)]
)
def test_top_level_parser_answers(capsys, argv, code):
    # Help goes to stdout, a usage error to stderr; argparse words the
    # rest differently from one Python version to the next.
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == code
    captured = capsys.readouterr()
    assert "usage: trivalent" in (captured.out if code == 0 else captured.err)


def test_parsers_are_reused_unchanged(tmp_path, capsys):
    # A usage error inside a command's parser, then that parser and
    # another one, in one process: each prints what a fresh process does.
    path = tmp_path / "tree.json"
    path.write_text(tv.dumps_graph(tv.figure_tree()))
    argvs = [
        ["verify", "p048", "--p", "x", str(path)],
        ["verify", "p048", "--p", "5", str(path)],
        ["count", "--p", "7", "--kind", "strict", "--builtin", "loop_with_leg"],
    ]
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "trivalent", *argv], capture_output=True, text=True
        )
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_main_builds_no_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (["count", "--p", "7", "--kind", "strict", "--builtin", "loop_with_leg"],
                 ["verify", "p048", "--p", "x"], ["bogus"],
                 ["verify", "figure"]):
        try:
            main(argv)
        except SystemExit:
            pass
    capsys.readouterr()
    assert built == []


def test_main_formats_no_usage(monkeypatch, capsys, tmp_path):
    formatted = []
    format_usage = argparse.ArgumentParser.format_usage

    def counted(self):
        formatted.append(self.prog)
        return format_usage(self)

    path = tmp_path / "graph.json"
    path.write_text(tv.dumps_graph(tv.theta()))
    monkeypatch.setattr(argparse.ArgumentParser, "format_usage", counted)
    for argv in (["validate", "--builtin", "tripod"],
                 ["enumerate", "--p", "5", "--kind", "balanced", "--builtin", "theta"],
                 ["count", "--method", "contraction", "--kind", "balanced", "--p", "17",
                  "--builtin", "cycle:3"],
                 ["verify", "p048", "--p", "5", str(path)]):
        assert main(argv) == 0
    capsys.readouterr()
    assert formatted == []


@pytest.mark.parametrize("command", sorted(cli_mod.COMMANDS))
def test_command_usage_is_what_argparse_formats(monkeypatch, command):
    parser = cli_mod.COMMANDS[command]
    usage = parser.usage
    monkeypatch.setattr(parser, "usage", None)
    assert "usage: " + usage == parser.format_usage()


def test_verify_report_is_json(capsys):
    code, out, _ = run(capsys, "verify", "p048", "--p", "11", "--builtin", "loop_with_leg")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] and doc["applicable"]
    assert doc["inputs"]["p"] == 11


def test_graph_file_roundtrips_through_cli(tmp_path, capsys):
    path = tmp_path / "graph.json"
    original = tv.dumps_graph(tv.dumbbell())
    path.write_text(original)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert tv.dumps_graph(tv.loads_graph(original)) == original


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "trivalent", "count", "--p", "7", "--kind", "strict",
         "--builtin", "loop_with_leg"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["total"] == 6


def test_closed_stdout_pipe_stops_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "trivalent", "enumerate", "--builtin", "tripod",
         "--p", "101", "--kind", "strict"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == ""
    proc.stderr.close()
    assert json.loads(first)["p"] == 101
