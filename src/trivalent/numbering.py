"""Branch and edge numberings over the residue set {0, ..., p-1}.

Residues are stored as plain Python ints with the identity as the
bijection onto the field; the involution sends 0 to 0 and m to p - m
otherwise, so it realizes negation mod p.

Two families matter here.  A *branch numbering* assigns a residue to
every branch so that the two slots of each edge carry involution
partners; it is *strict* when every value is nonzero and each vertex's
three incident branch values sum to exactly p + 1.  A *balanced edge
numbering* assigns one residue per edge such that at every vertex the
three incident edge values (a self-loop counting twice) satisfy the
triangle condition |m2 - m3| <= m1 <= m2 + m3 together with the bound
m1 + m2 + m3 <= p - 2; the displayed one-sided form is equivalent to
the fully symmetric one, so the check does not depend on the order of
the three values.

Exponent vectors (for branch numberings) and radii vectors (for edge
numberings) read the values on the open branches of the legs, in
marking order.

The public constructors, and ``loads_numbering`` through them, check a
numbering in full: p a prime below 2**64, every key well formed, every
value a residue, and (for branch numberings) the involution on each
edge.  The numberings the search engine yields and the images
``miura_transform`` returns are built by ``_built`` without that
re-check, because they pass it by construction: their p was checked
when the query or the input numbering was made, their keys are the
graph's own edge ids, and their values come from the engine's domains
(a strict x in 1..p-1 paired with p - x, a balanced value in
0..(p-3)/2) or from ``mu_value``, which lands in 0..(p-1)/2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping

from .semigraph import Branch, MarkedSemiGraph, SemiGraph, StructureError, parse_json

ExponentVector = tuple[int, ...]


# Miller-Rabin to these bases is exact below 2**64; the first number they
# pass wrongly is 318665857834031151167461.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Primality of 0 <= n < 2**64.  Division by the bases settles every
    n < 41**2, which keeps small p as cheap as trial division; a
    deterministic Miller-Rabin test to the same bases settles the rest."""
    for q in _BASES:
        if n % q == 0:
            return n == q
    if n < 41 * 41:
        return n > 1
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p) -> int:
    """Validate p as an odd prime > 2 and below 2**64; returns p."""
    if isinstance(p, int) and not isinstance(p, bool) and p > 2:
        if p >= 1 << 64:
            raise ValueError(f"p must be below 2**64, got {p!r}")
        if _is_prime(p):
            return p
    raise ValueError(f"p must be a prime greater than 2, got {p!r}")


def _check_residue(p: int, m) -> int:
    if not isinstance(m, int) or isinstance(m, bool) or not 0 <= m < p:
        raise ValueError(f"value {m!r} is not a residue in 0..{p - 1}")
    return m


def inv(p: int, m: int) -> int:
    """The involution fixing 0 and swapping m with p - m (negation mod p)."""
    _check_residue(p, m)
    return 0 if m == 0 else p - m


def balanced_triple(p: int, m1: int, m2: int, m3: int) -> bool:
    """Vertex condition for balanced numberings; symmetric in its arguments."""
    return abs(m2 - m3) <= m1 <= m2 + m3 and m1 + m2 + m3 <= p - 2


@dataclass(frozen=True)
class BranchNumbering:
    """A residue per branch, involution-paired across each edge.

    Keys of ``values`` are (edge id, slot) pairs; both slots of every
    mentioned edge must be present.  Not hashable (the mapping field).
    """

    p: int
    values: Mapping[Branch, int]

    def __post_init__(self):
        p = check_prime(self.p)
        vals = dict(self.values)
        object.__setattr__(self, "values", vals)
        for key, m in vals.items():
            if (
                not isinstance(key, tuple)
                or len(key) != 2
                or not isinstance(key[0], str)
                or key[1] not in (0, 1)
            ):
                raise ValueError(f"bad branch key {key!r}")
            _check_residue(p, m)
        # Every key and residue is sound; now the involution, edges in order
        # of first appearance.
        for (edge_id, slot), m in vals.items():
            partner = vals.get((edge_id, 1 - slot))
            if partner is None:
                raise ValueError(f"edge {edge_id!r} is missing a branch slot")
            if partner != (p - m if m else 0):
                x0, x1 = (partner, m) if slot else (m, partner)
                raise ValueError(f"edge {edge_id!r} breaks the involution: {x0} paired with {x1}")


@dataclass(frozen=True)
class EdgeNumbering:
    """A residue per edge.  Not hashable (the mapping field)."""

    p: int
    values: Mapping[str, int]

    def __post_init__(self):
        p = check_prime(self.p)
        vals = dict(self.values)
        object.__setattr__(self, "values", vals)
        for edge_id, m in vals.items():
            if not isinstance(edge_id, str):
                raise ValueError(f"bad edge key {edge_id!r}")
            _check_residue(p, m)


def _built(cls, p: int, values: dict):
    """A ``cls`` numbering holding ``p`` and ``values`` as given, without
    the ``__post_init__`` checks (see the module notes).  ``p`` must be a
    checked prime and ``values`` a dict the caller hands over."""
    a = object.__new__(cls)
    object.__setattr__(a, "p", p)
    object.__setattr__(a, "values", values)
    return a


def _no_value(key) -> ValueError:
    """The error for a numbering that lacks ``key``: a branch (edge id,
    slot) pair or an edge id."""
    what = "branch" if isinstance(key, tuple) else "edge"
    return ValueError(f"numbering has no value for {what} {key!r}")


def is_branch_numbering(m: MarkedSemiGraph, p: int, assignment: Mapping[Branch, int]) -> bool:
    """True iff the candidate assignment pairs every edge's slots under the involution.

    The assignment must cover all branches of m; values outside
    0..p-1 simply fail the test.
    """
    check_prime(p)
    for e in m.graph.edges:
        try:
            x, y = assignment[(e.id, 0)], assignment[(e.id, 1)]
        except KeyError as missing:
            raise ValueError(f"assignment misses branch {missing.args[0]!r}") from None
        if not (0 <= x < p and 0 <= y < p):
            return False
        if y != (0 if x == 0 else p - x):
            return False
    return True


def is_strict(m: MarkedSemiGraph, a: BranchNumbering) -> bool:
    """All branch values nonzero and every vertex sum equal to p + 1."""
    g = m.graph
    vals = a.values
    try:
        for e in g.edges:
            if vals[(e.id, 0)] == 0 or vals[(e.id, 1)] == 0:
                return False
    except KeyError as missing:
        raise _no_value(missing.args[0]) from None
    # Every branch of the graph is present from here on.
    total = a.p + 1
    for branches in g.branches_at.values():
        if sum([vals[b] for b in branches]) != total:
            return False
    return True


def is_balanced(m: MarkedSemiGraph, a: EdgeNumbering) -> bool:
    """The balanced vertex condition at every vertex (self-loops count twice)."""
    g = m.graph
    for e in g.edges:
        if e.id not in a.values:
            raise _no_value(e.id)
    for v in g.vertices:
        ms = [a.values[b[0]] for b in g.branches_at[v]]
        if not balanced_triple(a.p, *ms):
            return False
    return True


def exponent_of(m: MarkedSemiGraph, a: BranchNumbering) -> ExponentVector:
    """Values on the open branches, in marking order."""
    vals = a.values
    try:
        return tuple([vals[b] for b in m.marked_branches()])
    except KeyError as missing:
        raise _no_value(missing.args[0]) from None


def radii_of(m: MarkedSemiGraph, a: EdgeNumbering) -> ExponentVector:
    """Leg edge values in marking order (open branches carry the edge value)."""
    out = []
    for edge_id in m.marking:
        if edge_id not in a.values:
            raise _no_value(edge_id)
        out.append(a.values[edge_id])
    return tuple(out)


# ---------------------------------------------------------------------------
# serialization
#
# {"p": 11, "kind": "balanced", "edge_values": {"e1": 4, ...}}
# {"p": 11, "kind": "strict", "branch_values": {"e1.0": 1, "e1.1": 10, ...}}
#
# Branch keys are "<edge id>.<slot>".  Canonical output orders values by
# the graph's edge declaration order (slot 0 before slot 1), one line
# per numbering, so streams re-serialize byte-identically.  A value the
# numbering holds for a branch or edge the graph lacks is not written.
#
# The compiled line template is the one writer of a numbering document.
# Keys, their order and their JSON escaping are fixed per graph and kind,
# so each kind's layout is compiled by ``_compile_line`` when that kind
# is first written on a graph, and stored on the graph
# (``SemiGraph.numbering_lines``): a %-format line template such as
# '{"p": %d, "kind": "strict", "branch_values": {"e1.0": %d, ...}}',
# whose labels are escaped by ``json.dumps`` with any "%" doubled, and
# an ``itemgetter`` reading a numbering's values in label order.  Label
# order is the order of ``SemiGraph.branches()`` (strict) or of the edges
# (balanced): branch (edge i, slot s) sits at 2i + s.  Two callers fill
# the template: ``dumps_numbering``, from a numbering, with one getter
# call and one %-format; and the enumerate stream
# (``search.enumerate_lines``), straight from the search's value tuples,
# which hold a solution's values in this order, as the search's
# numberings and ``verify.verify_miura`` read them too.
# ``numbering_to_json_obj`` parses the line ``dumps_numbering`` writes.

def numbering_to_json_obj(m: MarkedSemiGraph, a: BranchNumbering | EdgeNumbering) -> dict:
    return json.loads(dumps_numbering(m, a))


def _integer_value(key: str, m) -> int:
    """A document value, which must be a JSON integer; its range is
    checked by the numbering constructors."""
    if not isinstance(m, int) or isinstance(m, bool):
        raise StructureError(f"value of {key!r} must be an integer, got {m!r}")
    return m


def numbering_from_json_obj(obj) -> BranchNumbering | EdgeNumbering:
    if not isinstance(obj, dict):
        raise StructureError("numbering document must be a JSON object")
    p = obj.get("p")
    if not isinstance(p, int) or isinstance(p, bool):
        raise StructureError("numbering document needs an integer p")
    kind = obj.get("kind")
    if kind == "balanced":
        values = obj.get("edge_values")
        if not isinstance(values, dict):
            raise StructureError("balanced numbering needs an edge_values object")
        return EdgeNumbering(p, {key: _integer_value(key, m) for key, m in values.items()})
    if kind == "strict":
        values = obj.get("branch_values")
        if not isinstance(values, dict):
            raise StructureError("strict numbering needs a branch_values object")
        parsed: dict[Branch, int] = {}
        for key, m in values.items():
            edge_id, _, slot = key.rpartition(".")
            if not edge_id or slot not in ("0", "1"):
                raise StructureError(f"bad branch key {key!r}")
            parsed[(edge_id, int(slot))] = _integer_value(key, m)
        return BranchNumbering(p, parsed)
    raise StructureError(f"unknown numbering kind {kind!r}")


def _compile_line(g: SemiGraph, strict: bool):
    """Compile g's (template, getter) for strict or balanced numberings
    and store it in ``g.numbering_lines``; see the serialization notes."""
    if strict:
        keys = list(g.branches())
        labels = [f"{e}.{slot}" for e, slot in keys]
        head = '"kind": "strict", "branch_values"'
    else:
        keys = labels = [e.id for e in g.edges]
        head = '"kind": "balanced", "edge_values"'
    entries = ", ".join(json.dumps(label).replace("%", "%%") + ": %d" for label in labels)
    # itemgetter of one key returns a bare value, and of none cannot be built.
    get = itemgetter(*keys) if len(keys) > 1 else lambda values: tuple([values[k] for k in keys])
    template = f'{{"p": %d, {head}: {{{entries}}}}}'
    g.numbering_lines[strict] = template, get
    return template, get


def dumps_numbering(m: MarkedSemiGraph, a: BranchNumbering | EdgeNumbering) -> str:
    strict = not isinstance(a, EdgeNumbering)
    template, get = m.graph.numbering_lines.get(strict) or _compile_line(m.graph, strict)
    try:
        return template % ((a.p,) + get(a.values))
    except KeyError as missing:
        raise _no_value(missing.args[0]) from None


def loads_numbering(text: str) -> BranchNumbering | EdgeNumbering:
    return numbering_from_json_obj(parse_json(text))
