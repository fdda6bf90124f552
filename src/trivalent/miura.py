"""The combinatorial Miura transformation and its tripod-local census.

The value map sends a residue m to (p - m - 1)/2 when m is even and to
(m - 1)/2 when m is odd; both are integers for odd p and land in
0..(p-1)/2.  On an edge of a strict branch numbering the two slots
carry m and p - m, one even and one odd, and both map to the same
value, so the transformation of a strict numbering is a well defined
edge numbering.  The transform computes both slots' values and checks
the agreement at runtime instead of trusting one side, in one place
(``_edge_images``), which ``verify.verify_miura`` shares.

That the image always satisfies the balanced vertex condition is not
assumed anywhere in this module; it is exercised by the test suite and
by the verification layer on every enumerated numbering.

``tripod_strict_set`` and ``check_pp004`` work on the one-vertex,
three-leg graph, where a branch numbering is identified with the triple
of values on the vertex-side branches.  The census collects all triples
whose sum is 1 mod p, and the checked equivalence is: such a triple is
strict (nonzero entries summing to exactly p + 1) if and only if its
componentwise image satisfies the balanced triple condition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numbering import (
    BranchNumbering,
    EdgeNumbering,
    _built,
    _check_residue,
    balanced_triple,
    check_prime,
    is_strict,
)
from .semigraph import MarkedSemiGraph


def mu_value(p: int, m: int) -> int:
    if m.__class__ is not int or not 0 <= m < p:
        _check_residue(p, m)
    return (p - m - 1) // 2 if m % 2 == 0 else (m - 1) // 2


def _edge_images(mu, branch, edge_ids) -> tuple[int, ...]:
    """The edge values of a strict numbering's image, from its branch
    values in label order (branch (edge i, slot s) at 2i + s) through the
    value map ``mu`` at its p.  An edge whose two slot images disagree
    raises RuntimeError, naming the edge by ``edge_ids``."""
    image = tuple(map(mu, branch))
    edges = image[::2]
    if edges != image[1::2]:
        i = next(i for i, v in enumerate(edges) if v != image[2 * i + 1])
        raise RuntimeError(
            f"edge {edge_ids[i]!r}: branch images disagree ({edges[i]} vs {image[2 * i + 1]})"
        )
    return edges


def miura_transform(m: MarkedSemiGraph, a: BranchNumbering) -> EdgeNumbering:
    """Image of a strict branch numbering, one value per edge.

    Raises ValueError when a is not strict on m or numbers a branch that
    m lacks.  If a has exponent vector e then the image has radii equal
    to the componentwise mu_value of e.
    """
    if not is_strict(m, a):
        raise ValueError("miura_transform requires a strict branch numbering")
    if len(a.values) != 2 * len(m.graph.edges):
        # is_strict read every branch of the graph, so the others are foreign.
        known = set(m.graph.branches())
        extra = next(b for b in a.values if b not in known)
        raise ValueError(f"numbering has a value for branch {extra!r}, which the graph lacks")
    branch = [a.values[b] for b in m.graph.branches()]
    ids = [e.id for e in m.graph.edges]
    image = _edge_images(lambda x: mu_value(a.p, x), branch, ids)
    return _built(EdgeNumbering, a.p, dict(zip(ids, image)))


def tripod_strict_set(p: int) -> list[tuple[tuple[int, int, int], bool]]:
    """All triples in {0..p-1}^3 with sum 1 mod p, flagged strict or not.

    Triples come in lexicographic order; (a, b) fixes c = 1 - a - b mod p.
    """
    check_prime(p)
    return [
        ((a, b, c), 0 not in (a, b, c) and a + b + c == p + 1)
        for a in range(p)
        for b in range(p)
        for c in ((1 - a - b) % p,)
    ]


@dataclass(frozen=True)
class Pp004Result:
    holds: bool
    counterexamples: tuple


def check_pp004(p: int) -> Pp004Result:
    """Strictness matches balancedness of the image across the whole census."""
    bad = []
    for triple, strict in tripod_strict_set(p):
        image = tuple(mu_value(p, x) for x in triple)
        if strict != balanced_triple(p, *image):
            bad.append({"triple": triple, "image": image, "strict": strict})
    return Pp004Result(not bad, tuple(bad))
