"""The benchmark's workloads: CLI requests with independently known answers.

Each workload is a fixed list of ``trivalent`` command lines.  The seed
shuffles the order and, on the ``verify`` grid of statements over
builtin graphs and cycles, draws each request's prime from a narrow
band, so every seed asks for about the same amount of work.  The
``census`` and ``stream`` requests keep the primes they are named with:
their cost grows steeply with p and the stream digests are frozen per
prime.

Why these three:

* ``census`` runs contraction counts only (``count --method
  contraction``): wide domains (balanced ``cycle:3`` and ``theta`` at
  p = 17 to 23), long chains (balanced ``cycle:8`` to ``cycle:12`` at
  p = 11 and 13, strict ``cycle:20`` and ``cycle:40``) and by-exponent
  read-offs (balanced ``cycle:2`` to ``cycle:4``, the strict five-leg
  figure tree).  Faster contraction shows here; the backtracker never
  runs.
* ``stream`` walks about 19,000 numberings through backtracking,
  ``dumps_numbering`` and ``miura_transform``; contraction never runs.
  Two ``verify pp004`` requests time the pp004 check as well.
* ``verify`` sends over a hundred small requests, where argparse, graph
  building, repeated validation and per-query setup dominate.  A
  compile-once change that helps ``census`` but costs per query shows
  here as a loss.  Strict backtracking on ``cycle:N`` roughly doubles
  for every two vertices added, so the grid stops at N = 8.  It is not
  listed in BENCHMARK.json: its run-to-run spread reached the bounds on
  a shared 2-vCPU machine (see README.md).  Run it by hand.

Every request is short (under 40 ms on ``census``, under a quarter of
a second on ``stream``), so a run makes dozens of passes and a
request's best time finds the machine's quieter moments (see
README.md).
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Callable

from reference import (
    FusionRing,
    builtin_type,
    file_type,
    load_doc,
    strict_closed_form,
    strict_tree_cells,
)

NAMES = ("census", "stream", "verify")
FIGURE = "figure"  # the five-leg tree of type (0, 5), passed as a graph file

# sha256 of the full ``enumerate`` output, frozen from the seed commit.
STREAM_DIGESTS = {
    ("balanced", "cycle:3", 11): "b01964bc9e1d3d15a811b802d319e79e43f4da963ed22497868da93091f9ea1e",
    ("balanced", "cycle:5", 7): "9acf01be5aab4483445e44c5fc4e94975abe90995f6d3552074059eec91d8cf0",
    ("strict", FIGURE, 13): "7a0bf467900b424b7d431f4e1a44e51dce0f6d6e1afc639af5c178efeadf5a9b",
    ("strict", FIGURE, 17): "e850f376af600320924a7fc53ac5067ed7d6b9ffb8ae09681b168bb4d363e3da",
    ("strict", "tripod", 61): "2faafbd1e18968da3618645cb313841459849f8bb5b2889ce62b62b0255e02af",
    ("strict", "tripod", 79): "9fe58be430a59fc4725c812595631bf7a4df9b1fc3e7ca23fde3730d2968ef1b",
    ("balanced", "cycle:3", 7): "265e05c849558b4e25ef1bf04c065a42250f31bc703b258cf7916cf3356648c1",
    ("strict", FIGURE, 7): "43d4d2a960224dcd953ee90df58eec6f6602c6d49279c713bcb2eeaf444d9de1",
    ("strict", "tripod", 13): "24d054b3a81ac023f2184c8d891ef81507491624f87407a1c4ba937cf40e484e",
}

BUILTINS = ("tripod", "theta", "dumbbell", "loop_with_leg")
STATEMENTS = ("p048", "p048_structure", "miura")
# Narrow prime bands for the verify grid: a draw moves a request's cost
# by little, so run_s stays comparable across seeds.
SMALL_BANDS = ((3, 5), (7, 11), (13, 17), (19, 23), (29, 31))
# pp004 and the cross-checks keep fixed primes: their answers count
# hundreds to thousands of numberings, and a drawn prime would move
# numberings_per_s from seed to seed.
PP004_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 47, 53)
TOP_PRIME = 31  # the fixed top of the verify grid over builtins


@dataclass
class Output:
    """What one request printed, as the benchmark's sink saw it."""

    rc: int | None
    text: str | None
    nbytes: int
    lines: int
    sha256: str
    stderr: str
    error: str | None = None


@dataclass
class Request:
    argv: list[str]
    family: str
    check: Callable[[Output], str | None]
    numberings: int
    graph: str | None = None
    stream: bool = False

    @property
    def label(self) -> str:
        return " ".join(self.argv)


# -- checks ------------------------------------------------------------------

def _last_json(out: Output):
    if out.text is None or out.lines != 1:
        raise ValueError(f"expected one line of JSON, got {out.lines} lines")
    return json.loads(out.text)


def _guard(rc: int, body: Callable[[dict], str | None]) -> Callable[[Output], str | None]:
    def check(out: Output) -> str | None:
        if out.error is not None:
            return out.error
        if out.rc != rc:
            return f"exit code {out.rc}, expected {rc}; stderr {out.stderr.strip()[:200]!r}"
        try:
            return body(_last_json(out))
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable answer: {exc}"

    return check


def expect_count(total: int, cells: dict | None = None):
    def body(obj):
        if obj["total"] != total:
            return f"total {obj['total']}, expected {total}"
        if cells is not None:
            want = {",".join(str(x) for x in k): n for k, n in cells.items()}
            got = {k: n for k, n in obj["by_exponent"].items() if n}
            if got != want:
                return f"by_exponent differs in {len(set(got.items()) ^ set(want.items()))} cells"
        return None

    return _guard(0, body)


def expect_both(total: int):
    def body(obj):
        totals = (obj["backtracking"]["total"], obj["contraction"]["total"])
        if obj["agree"] is not True or totals != (total, total):
            return f"engines report {totals}, agree={obj['agree']}, expected {total}"
        return None

    return _guard(0, body)


def expect_stream(lines: int, digest: str):
    def check(out: Output) -> str | None:
        if out.error is not None:
            return out.error
        if out.rc != 0:
            return f"exit code {out.rc}, expected 0"
        if out.lines != lines:
            return f"{out.lines} numberings, expected {lines}"
        if out.sha256 != digest:
            return f"stream digest {out.sha256[:12]}, expected {digest[:12]}"
        return None

    return check


def expect_validate(g: int, r: int):
    def body(obj):
        if obj["valid"] is not True or obj["type"] != {"g": g, "r": r}:
            return f"validate says valid={obj['valid']} type={obj.get('type')}, expected ({g}, {r})"
        return None

    return _guard(0, body)


def expect_report(theorem, p, gr=None, applicable=True, observed=()):
    """A passing (or not applicable) report whose observed text carries
    the expected numbers: ``observed`` pairs a regex with the string
    every one of its matches must equal."""

    def body(obj):
        if obj["theorem"] != theorem or obj["inputs"]["p"] != p:
            return f"report for {obj['theorem']} at p={obj['inputs']['p']}"
        if gr is not None and obj["inputs"]["type"] != {"g": gr[0], "r": gr[1]}:
            return f"type {obj['inputs']['type']}, expected {gr}"
        if obj["applicable"] is not applicable or obj["passed"] is not True or obj["witness"]:
            return f"applicable={obj['applicable']} passed={obj['passed']}"
        for pattern, want in observed:
            found = re.findall(pattern, obj["observed"])
            if not found or any(x != want for x in found):
                return f"observed {obj['observed']!r}, expected {pattern} = {want}"
        return None

    return _guard(0 if applicable else 3, body)


# -- request builders ---------------------------------------------------------

class _Refs:
    """Reference answers, computed once per prime or graph file."""

    def __init__(self, figure_path: str):
        self.figure_path = figure_path
        self.figure_doc = load_doc(figure_path)
        self._rings: dict[int, FusionRing] = {}
        self._strict_cells: dict[tuple[str, int], dict] = {}

    def graph_args(self, graph: str) -> list[str]:
        return [self.figure_path] if graph == FIGURE else ["--builtin", graph]

    def type_of(self, graph: str) -> tuple[int, int]:
        return file_type(self.figure_doc) if graph == FIGURE else builtin_type(graph)

    def ring(self, p: int) -> FusionRing:
        if p not in self._rings:
            self._rings[p] = FusionRing(p)
        return self._rings[p]

    def strict_cells(self, graph: str, p: int) -> dict:
        if graph != FIGURE:
            raise ValueError(f"no strict per-cell reference for {graph!r}")
        if (graph, p) not in self._strict_cells:
            self._strict_cells[(graph, p)] = strict_tree_cells(self.figure_doc, p)
        return self._strict_cells[(graph, p)]

    def total(self, kind: str, graph: str, p: int) -> int:
        g, r = self.type_of(graph)
        if kind == "balanced":
            return self.ring(p).total(g, r)
        closed = strict_closed_form(g, r, p)
        return closed if closed is not None else sum(self.strict_cells(graph, p).values())

    def cells(self, kind: str, graph: str, p: int) -> dict:
        if kind == "balanced":
            return self.ring(p).cells(*self.type_of(graph))
        return self.strict_cells(graph, p)


def _count(refs: _Refs, family, kind, graph, p, by_exponent=False) -> Request:
    argv = ["count", "--method", "contraction", "--kind", kind, "--p", str(p)]
    if by_exponent:
        argv.append("--by-exponent")
    total = refs.total(kind, graph, p)
    cells = refs.cells(kind, graph, p) if by_exponent else None
    return Request(argv + refs.graph_args(graph), family, expect_count(total, cells), total, graph)


def _enumerate(refs: _Refs, kind, graph, p) -> Request:
    argv = ["enumerate", "--kind", kind, "--p", str(p)] + refs.graph_args(graph)
    total = refs.total(kind, graph, p)
    check = expect_stream(total, STREAM_DIGESTS[(kind, graph, p)])
    return Request(argv, "enumerate", check, total, graph, stream=True)


def _statement(refs: _Refs, theorem: str, graph: str, p: int) -> Request:
    g, r = refs.type_of(graph)
    strict = refs.total("strict", graph, p)
    argv = ["verify", theorem] + refs.graph_args(graph) + ["--p", str(p)]
    if theorem == "p048":
        applicable = g >= 1
        observed = [(r"(?:backtracking|contraction) (\d+)", str(strict))] if applicable else []
        numberings = strict if applicable else 0
    elif theorem == "p048_structure":
        applicable = g == 1
        observed = [(r"^(\d+) numberings", str(strict))] if applicable else []
        numberings = strict if applicable else 0
    else:
        applicable = True
        observed = [(r"^(\d+) numberings checked", str(strict)), (r"(\d+) failures", "0")]
        numberings = strict
    check = expect_report(theorem, p, (g, r), applicable, observed)
    return Request(argv, theorem, check, numberings, graph)


def _pp004(p: int) -> Request:
    check = expect_report("pp004", p, observed=[(r"^(\d+) counterexamples", "0")])
    return Request(["verify", "pp004", "--p", str(p)], "pp004", check, p * (p - 1) // 2)


def _census(refs: _Refs, small: bool) -> list[Request]:
    if small:
        return [
            _count(refs, "wide_domain", "balanced", "cycle:3", 13),
            _count(refs, "wide_domain", "balanced", "theta", 13),
            _count(refs, "long_chain", "balanced", "cycle:8", 7),
            _count(refs, "long_chain", "strict", "cycle:30", 5),
            _count(refs, "readoff", "balanced", "cycle:3", 7, by_exponent=True),
            _count(refs, "readoff", "strict", FIGURE, 5, by_exponent=True),
        ]
    return [
        _count(refs, "wide_domain", "balanced", "cycle:3", 17),
        _count(refs, "wide_domain", "balanced", "cycle:3", 19),
        _count(refs, "wide_domain", "balanced", "theta", 19),
        _count(refs, "wide_domain", "balanced", "theta", 23),
        _count(refs, "long_chain", "balanced", "cycle:10", 11),
        _count(refs, "long_chain", "balanced", "cycle:12", 11),
        _count(refs, "long_chain", "balanced", "cycle:8", 13),
        _count(refs, "long_chain", "strict", "cycle:20", 7),
        _count(refs, "long_chain", "strict", "cycle:40", 5),
        _count(refs, "readoff", "balanced", "cycle:4", 5, by_exponent=True),
        _count(refs, "readoff", "balanced", "cycle:3", 7, by_exponent=True),
        _count(refs, "readoff", "balanced", "cycle:2", 11, by_exponent=True),
        _count(refs, "readoff", "strict", FIGURE, 5, by_exponent=True),
        _count(refs, "readoff", "strict", FIGURE, 7, by_exponent=True),
    ]


def _stream(refs: _Refs, small: bool) -> list[Request]:
    if small:
        return [
            _enumerate(refs, "balanced", "cycle:3", 7),
            _enumerate(refs, "strict", FIGURE, 7),
            _enumerate(refs, "strict", "tripod", 13),
            _statement(refs, "miura", FIGURE, 5),
            _pp004(11),
        ]
    return [
        _enumerate(refs, "balanced", "cycle:3", 11),
        _enumerate(refs, "balanced", "cycle:5", 7),
        _enumerate(refs, "strict", FIGURE, 13),
        _enumerate(refs, "strict", FIGURE, 17),
        _enumerate(refs, "strict", "tripod", 61),
        _enumerate(refs, "strict", "tripod", 79),
        _statement(refs, "miura", FIGURE, 11),
        _statement(refs, "miura", FIGURE, 13),
        _pp004(23),
        _pp004(53),
    ]


def _verify(refs: _Refs, rng: random.Random, small: bool) -> list[Request]:
    out = []
    bands = SMALL_BANDS[:2] if small else SMALL_BANDS
    for graph in BUILTINS:
        for theorem in STATEMENTS:
            for band in bands:
                out.append(_statement(refs, theorem, graph, rng.choice(band)))
            if not small:
                # The top of the grid: fixed, it carries the tail.
                out.append(_statement(refs, theorem, graph, TOP_PRIME))
    for n in range(1, 5 if small else 9):
        for theorem in STATEMENTS:
            p = rng.choice((5, 7)) if n <= 7 else 7
            out.append(_statement(refs, theorem, f"cycle:{n}", p))
    for p in PP004_PRIMES[:3] if small else PP004_PRIMES:
        out.append(_pp004(p))
    for _ in range(2):
        check = expect_report(
            "figure", 11, (0, 5), observed=[(r"image \[([\d, ]+)\]", "0, 4, 4, 1, 3, 2, 1")]
        )
        out.append(Request(["verify", "figure"], "figure", check, 1))
    for graph in BUILTINS + ("cycle:10", FIGURE):
        out.append(
            Request(["validate"] + refs.graph_args(graph), "validate",
                    expect_validate(*refs.type_of(graph)), 0, graph)
        )
    for kind, graph, p in (("balanced", "cycle:3", 11), ("strict", "theta", 13)):
        total = refs.total(kind, graph, p)
        argv = ["count", "--method", "both", "--kind", kind, "--p", str(p)]
        out.append(Request(argv + refs.graph_args(graph), "count_both", expect_both(total), total, graph))
    return out


def build(name: str, seed: int, figure_path: str, small: bool = False) -> list[Request]:
    """The workload's requests in seed order, with their expected answers."""
    refs = _Refs(figure_path)
    rng = random.Random(f"{name}:{seed}")
    if name == "census":
        requests = _census(refs, small)
    elif name == "stream":
        requests = _stream(refs, small)
    elif name == "verify":
        requests = _verify(refs, rng, small)
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(requests)
    return requests
