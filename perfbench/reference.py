"""Expected answers computed without the engines the benchmark times.

Nothing here imports ``trivalent``.  Every reference comes from one of:

* closed forms: p(p-1)/2 strict numberings on the tripod, p - 1 at
  genus 1 and none at genus >= 2;
* the fusion ring of the balanced vertex condition: with labels
  0..(p-3)/2, N_a the matrix (N_abc)_bc, H = sum_a N_a^2 and
  M = sum_a N_a, a graph of type (g, r) carries (H^g M^r)_00 balanced
  numberings, and (H^g N_a1 ... N_ar)_00 of them have radii (a1..ar);
* a brute-force scan over the internal edges of a small strict tree,
  which reads the graph file with ``json`` alone.
"""

from __future__ import annotations

import itertools
import json


def balanced(p: int, a: int, b: int, c: int) -> bool:
    """The balanced vertex condition on three edge values (no parity term)."""
    return abs(b - c) <= a <= b + c and a + b + c <= p - 2


def builtin_type(name: str) -> tuple[int, int]:
    """(g, r) of a ``--builtin`` graph name."""
    fixed = {"tripod": (0, 3), "theta": (2, 0), "dumbbell": (2, 0), "loop_with_leg": (1, 1)}
    if name in fixed:
        return fixed[name]
    if name.startswith("cycle:"):
        return (1, int(name.split(":", 1)[1]))
    raise ValueError(f"unknown builtin {name!r}")


def file_type(doc: dict) -> tuple[int, int]:
    """(g, r) of a graph document: g = 1 - #vertices + #edges - #legs."""
    r = sum(1 for e in doc["edges"] if None in e["ends"])
    return (1 - len(doc["vertices"]) + len(doc["edges"]) - r, r)


def strict_closed_form(g: int, r: int, p: int) -> int | None:
    """Strict count where a closed form is known, else None."""
    if g >= 2:
        return 0
    if g == 1:
        return p - 1
    if r == 3:
        return p * (p - 1) // 2
    return None


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _vecmul(v, a):
    return [sum(x * row[j] for x, row in zip(v, a)) for j in range(len(a[0]))]


class FusionRing:
    """Exact integer fusion ring of the balanced condition at prime p."""

    def __init__(self, p: int):
        labels = range((p - 1) // 2)
        self.labels = labels
        self.n = [[[int(balanced(p, a, b, c)) for c in labels] for b in labels] for a in labels]
        size = len(labels)
        self.h = [[0] * size for _ in labels]
        self.m = [[0] * size for _ in labels]
        for na in self.n:
            sq = _matmul(na, na)
            for i in labels:
                for j in labels:
                    self.h[i][j] += sq[i][j]
                    self.m[i][j] += na[i][j]

    def _handles(self, g: int) -> list[int]:
        """Row 0 of H^g."""
        v = [int(i == 0) for i in self.labels]
        for _ in range(g):
            v = _vecmul(v, self.h)
        return v

    def total(self, g: int, r: int) -> int:
        v = self._handles(g)
        for _ in range(r):
            v = _vecmul(v, self.m)
        return v[0]

    def cells(self, g: int, r: int) -> dict[tuple[int, ...], int]:
        """Nonzero counts by radii vector."""
        out = {}

        def walk(prefix, v):
            if len(prefix) == r:
                if v[0]:
                    out[prefix] = v[0]
                return
            for a in self.labels:
                walk(prefix + (a,), _vecmul(v, self.n[a]))

        walk((), self._handles(g))
        return out


def strict_tree_cells(doc: dict, p: int) -> dict[tuple[int, ...], int]:
    """Strict counts by exponent vector, scanning internal edge values.

    For each assignment of slot-0 values to the internal edges, every
    vertex fixes the sum its legs' inner branches must reach; the legs'
    inner values are then chosen independently per vertex.  Exponents
    are the raw open-branch values p - inner, in marking order.
    """
    internal = [e for e in doc["edges"] if None not in e["ends"]]
    legs = {e["id"]: e for e in doc["edges"] if None in e["ends"]}
    at = {v: [] for v in doc["vertices"]}
    for e in doc["edges"]:
        for slot, end in enumerate(e["ends"]):
            if end is not None:
                at[end].append((e["id"], slot))
    marking = doc["marking"]
    cells: dict[tuple[int, ...], int] = {}
    for values in itertools.product(range(1, p), repeat=len(internal)):
        x = {e["id"]: v for e, v in zip(internal, values)}
        per_vertex = []
        for v, branches in at.items():
            need = p + 1
            leg_ids = []
            for eid, slot in branches:
                if eid in legs:
                    leg_ids.append(eid)
                else:
                    need -= x[eid] if slot == 0 else p - x[eid]
            if not leg_ids:
                per_vertex.append([{}] if need == 0 else [])
                continue
            # The last leg's inner value is whatever the others leave.
            choices = []
            for head in itertools.product(range(1, p), repeat=len(leg_ids) - 1):
                last = need - sum(head)
                if 1 <= last <= p - 1:
                    choices.append(dict(zip(leg_ids, head + (last,))))
            per_vertex.append(choices)
        for combo in itertools.product(*per_vertex):
            inner = {}
            for part in combo:
                inner.update(part)
            key = tuple(p - inner[eid] for eid in marking)
            cells[key] = cells.get(key, 0) + 1
    return cells


def load_doc(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
