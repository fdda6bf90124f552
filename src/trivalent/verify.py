"""Mechanical verification of the structural statements at desk scale.

Each verifier exhausts a finite search space and returns a
``TheoremReport`` whose witness payload, when a check fails, contains
enough to replay the failure through the predicates of
:mod:`trivalent.numbering` (typically the offending numbering in its
JSON form).  Reports carry an ``applicable`` flag: asking about genus-1
structure on a genus-0 graph is answered rather than raised, so the
command line can map it to its own exit code.

The checked statements:

* strictness on a graph of genus >= 2 is impossible, and on genus 1
  there are exactly p - 1 strict numberings, all of exponent vector
  (p-1, ..., p-1) (``verify_p048``);

* those genus-1 numberings are constant on a reduced loop with
  involution partners opposite, carry [1, 1, p-1] at every vertex off
  the loop, and are in bijection with the loop constant a = 1..p-1
  (``verify_p048_structure``);

* the Miura transformation is edge-consistent on every strict
  numbering, its image is balanced, and radii transform componentwise
  (``verify_miura``).  Unlike the other verifiers, it reads the
  search's value tuples as they come, branch values in label order
  (branch (edge i, slot s) at 2i + s), takes the edge images from
  ``miura._edge_images`` as ``miura_transform`` does, and builds a
  numbering object only for a witness;

* a worked five-leg tree with p = 11 behaves exactly as displayed
  (``verify_figure_vector``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .miura import _edge_images, miura_transform, mu_value
from .numbering import (
    BranchNumbering,
    balanced_triple,
    check_prime,
    exponent_of,
    is_balanced,
    is_branch_numbering,
    is_strict,
    numbering_to_json_obj,
    radii_of,
)
from .search import (
    EnumerationQuery,
    _getter,
    _Problem,
    count,
    count_by_contraction,
    enumerate_numberings,
)
from .semigraph import OPEN, Edge, MarkedSemiGraph, SemiGraph, graph_type, reduced_loop


@dataclass(frozen=True)
class TheoremReport:
    """One statement's outcome; ``to_json_obj`` keys follow the field order."""

    theorem: str
    inputs: dict
    claim: str
    observed: str
    passed: bool
    applicable: bool = True
    witness: tuple = ()

    def to_json_obj(self) -> dict:
        return {**asdict(self), "witness": list(self.witness)}


def _inputs(m: MarkedSemiGraph, p: int) -> dict:
    """The report's inputs; p is checked before the graph is read."""
    check_prime(p)
    return {
        "p": p,
        "type": asdict(graph_type(m)),
        "vertices": len(m.graph.vertices),
        "edges": len(m.graph.edges),
    }


def _totals(m: MarkedSemiGraph, query: EnumerationQuery) -> dict[str, int]:
    """Each engine's total, keyed by the method its report names."""
    return {r.method: r.total for r in (count(m, query), count_by_contraction(m, query))}


def _not_applicable(theorem: str, inputs: dict, claim: str) -> TheoremReport:
    """The report on a graph whose genus the statement does not concern."""
    return TheoremReport(
        theorem,
        inputs,
        claim=claim,
        observed=f"genus {inputs['type']['g']}, nothing to check",
        passed=True,
        applicable=False,
    )


def verify_p048(m: MarkedSemiGraph, p: int) -> TheoremReport:
    """Count-level statement: none above genus 1, exactly p - 1 at genus 1."""
    inputs = _inputs(m, p)
    g = inputs["type"]["g"]
    r = inputs["type"]["r"]
    query = EnumerationQuery(p, "strict")
    if g == 0:
        return _not_applicable("p048", inputs, "statement concerns genus >= 1")

    if g >= 2:
        totals = _totals(m, query)
        passed = not any(totals.values())
        witness = ()
        if not passed:
            first = next(enumerate_numberings(m, query), None)
            if first is not None:
                witness = (numbering_to_json_obj(m, first),)
            else:
                witness = ({"counts": totals},)
        return TheoremReport(
            "p048",
            inputs,
            claim="no strict numbering exists (genus >= 2)",
            observed=", ".join(f"{method} {n}" for method, n in totals.items()),
            passed=passed,
            witness=witness,
        )

    target = (p - 1,) * r
    n_back = 0
    bad_exponent = []
    for numbering in enumerate_numberings(m, query):
        n_back += 1
        e = exponent_of(m, numbering)
        if e != target:
            bad_exponent.append(
                {"exponent": list(e), "numbering": numbering_to_json_obj(m, numbering)}
            )
    cont = count_by_contraction(m, query)
    totals = {"backtracking": n_back, cont.method: cont.total}
    constrained = _totals(m, EnumerationQuery(p, "strict", constraint=target))
    counts = {**totals, **{f"constrained_{method}": n for method, n in constrained.items()}}
    passed = not bad_exponent and all(n == p - 1 for n in counts.values())
    witness = tuple(bad_exponent)
    if not witness and not passed:
        witness = ({"counts": {**counts, "expected": p - 1}},)
    return TheoremReport(
        "p048",
        inputs,
        claim=f"exactly {p - 1} strict numberings, all of exponent {list(target)}",
        observed=(
            ", ".join(f"{method} {n}" for method, n in totals.items())
            + f", constrained {'/'.join(map(str, constrained.values()))}"
            + f", off-exponent {len(bad_exponent)}"
        ),
        passed=passed,
        witness=witness,
    )


def verify_p048_structure(m: MarkedSemiGraph, p: int) -> TheoremReport:
    """Shape of the genus-1 strict numberings along the (unique) cycle."""
    inputs = _inputs(m, p)
    if inputs["type"]["g"] != 1:
        return _not_applicable("p048_structure", inputs, "statement concerns genus 1")

    g = m.graph
    loop = reduced_loop(m, g.vertices[0])
    loop_vertices = {g.incidence(b) for b in loop}
    off_loop = [v for v in g.vertices if v not in loop_vertices]

    failures = []
    seen_constants = []
    numberings = list(enumerate_numberings(m, EnumerationQuery(p, "strict")))
    for numbering in numberings:
        vals = numbering.values
        a = vals[loop[0]]
        problems = []
        for b in loop:
            if vals[b] != a or vals[g.partner(b)] != p - a:
                problems.append(f"loop branch {b} carries {vals[b]}")
        for v in off_loop:
            ms = sorted(vals[b] for b in g.branches_at[v])
            if ms != [1, 1, p - 1]:
                problems.append(f"vertex {v} carries {ms}")
        if problems:
            failures.append(
                {
                    "problems": problems,
                    "numbering": numbering_to_json_obj(m, numbering),
                }
            )
        seen_constants.append(a)

    bijective = sorted(seen_constants) == list(range(1, p))
    passed = not failures and bijective
    witness = tuple(failures)
    if not witness and not passed:
        witness = ({"loop_constants": seen_constants},)
    return TheoremReport(
        "p048_structure",
        inputs,
        claim=(
            "each strict numbering is constant a on the reduced loop with "
            "partners p - a, off-loop vertices carry [1, 1, p-1], and "
            "a = 1..p-1 enumerates the numberings"
        ),
        observed=(
            f"{len(numberings)} numberings, loop constants {sorted(seen_constants)}, "
            f"{len(failures)} structural failures"
        ),
        passed=passed,
        witness=witness,
    )


class _MuTable(dict):
    """``mu_value(p, x)`` by x, each read once, on first use: no table of
    all p residues is built, so a large p costs nothing up front."""

    def __init__(self, p: int):
        super().__init__()
        self.p = p

    def __missing__(self, x: int) -> int:
        self[x] = y = mu_value(self.p, x)
        return y


def _exponent_reader(problem: _Problem):
    """What ``exponent_of`` reads, the open branch values in marking
    order, as a getter on a solution (``_Problem.open_positions``)."""
    return _getter(problem.open_positions)


def verify_miura(m: MarkedSemiGraph, p: int) -> TheoremReport:
    """Edge consistency, balancedness and radii compatibility on every strict numbering.

    The checks read the search's value tuples as they come: a solution
    holds its branch values in label order, as the JSON line lays them
    out, branch (edge i, slot s) at position 2i + s.  The positions each
    check reads are worked out once per call.  The edge images come from
    ``miura._edge_images``, the code ``miura_transform`` runs, with mu
    read through ``mu_value`` once per value seen.  A check fails with
    the message the per-numbering path (``miura_transform``,
    ``is_balanced``, then ``radii_of`` against ``exponent_of``) gives, and
    only a failing solution is built into a numbering, for its witness.
    """
    inputs = _inputs(m, p)
    problem = _Problem(m, EnumerationQuery(p, "strict"))
    # Per vertex, the positions of its branch values, and of its edges'
    # images (a self-loop's twice).
    branch_at = [tuple(2 * ei + slot for ei, slot in bs) for bs in problem.vertex_branches]
    edge_at = [tuple(ei for ei, _ in bs) for bs in problem.vertex_branches]
    radii = _getter([ei for ei, _ in problem.legs])
    exponent = _exponent_reader(problem)
    total = p + 1
    mu = _MuTable(p).__getitem__

    def error_of(branch: tuple[int, ...]) -> str | None:
        if 0 in branch:
            return "miura_transform requires a strict branch numbering"
        for a, b, c in branch_at:
            if branch[a] + branch[b] + branch[c] != total:
                return "miura_transform requires a strict branch numbering"
        try:
            image = _edge_images(mu, branch, problem.edge_ids)
        except RuntimeError as exc:
            return str(exc)
        for a, b, c in edge_at:
            if not balanced_triple(p, image[a], image[b], image[c]):
                return "image is not balanced"
        got, expected = radii(image), tuple(map(mu, exponent(branch)))
        if got != expected:
            return f"radii {list(got)} != transformed exponent {list(expected)}"
        return None

    failures = []
    checked = 0
    for sol in problem.solutions():
        checked += 1
        error = error_of(sol)
        if error is not None:
            numbering = problem.to_numbering(sol)
            failures.append({"numbering": numbering_to_json_obj(m, numbering), "error": error})
    return TheoremReport(
        "miura",
        inputs,
        claim="every strict numbering maps to a balanced numbering, radii componentwise",
        observed=f"{checked} numberings checked, {len(failures)} failures",
        passed=not failures,
        witness=tuple(failures),
    )


# ---------------------------------------------------------------------------
# worked example: a three-vertex tree with five legs, p = 11

FIGURE_P = 11


def figure_tree() -> MarkedSemiGraph:
    """The five-leg tree of type (0, 5) behind ``verify_figure_vector``."""
    edges = [
        Edge("l1", (OPEN, "v1")),
        Edge("l2", (OPEN, "v1")),
        Edge("e1", ("v1", "v2")),
        Edge("l3", ("v2", OPEN)),
        Edge("e2", ("v2", "v3")),
        Edge("l4", (OPEN, "v3")),
        Edge("l5", ("v3", OPEN)),
    ]
    return MarkedSemiGraph(
        SemiGraph(("v1", "v2", "v3"), tuple(edges)),
        ("l1", "l2", "l3", "l4", "l5"),
    )


def figure_numbering() -> BranchNumbering:
    """Slot values (10,1), (9,2), (9,2), (3,8), (7,4), (6,5), (3,8)."""
    pairs = {
        "l1": (10, 1),
        "l2": (9, 2),
        "e1": (9, 2),
        "l3": (3, 8),
        "e2": (7, 4),
        "l4": (6, 5),
        "l5": (3, 8),
    }
    values = {}
    for edge_id, (x0, x1) in pairs.items():
        values[(edge_id, 0)] = x0
        values[(edge_id, 1)] = x1
    return BranchNumbering(FIGURE_P, values)


FIGURE_IMAGE = (0, 4, 4, 1, 3, 2, 1)


def verify_figure_vector() -> TheoremReport:
    """Replay the worked example through the public predicates."""
    m = figure_tree()
    a = figure_numbering()
    p = FIGURE_P
    inputs = _inputs(m, p)
    failures = []

    if not is_branch_numbering(m, p, a.values):
        failures.append({"error": "involution fails"})
    if not is_strict(m, a):
        failures.append({"error": "numbering is not strict"})
    sums = {
        v: sum(a.values[b] for b in m.graph.branches_at[v]) for v in m.graph.vertices
    }
    if set(sums.values()) != {p + 1}:
        failures.append({"error": f"vertex sums {sums}"})

    image = miura_transform(m, a)
    got = tuple(image.values[e.id] for e in m.graph.edges)
    if got != FIGURE_IMAGE:
        failures.append({"error": f"image {list(got)} != {list(FIGURE_IMAGE)}"})
    if not is_balanced(m, image):
        failures.append({"error": "image is not balanced"})
    expected_radii = tuple(mu_value(p, e) for e in exponent_of(m, a))
    if radii_of(m, image) != expected_radii:
        failures.append({"error": "radii do not transform componentwise"})

    if failures:
        failures.insert(0, {"numbering": numbering_to_json_obj(m, a)})
    return TheoremReport(
        "figure",
        inputs,
        claim=f"the worked (0, 5) tree at p = {p} transforms to {list(FIGURE_IMAGE)}",
        observed=f"vertex sums {sorted(set(sums.values()))}, image {list(got)}",
        passed=not failures,
        witness=tuple(failures),
    )
