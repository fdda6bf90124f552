"""Set-up probe, run in a fresh interpreter by ``run.py``.

    python3 -I perfbench/probe.py SRC GRAPH...

Imports ``trivalent`` from SRC, then builds and validates each graph: a
``--builtin`` name (tripod, theta, dumbbell, loop_with_leg, cycle:N) or
a graph file path.  Exits 1 if a graph is not valid.
"""

import sys

sys.path.insert(0, sys.argv[1])

import trivalent  # noqa: E402

for spec in sys.argv[2:]:
    if spec.endswith(".json"):
        with open(spec, encoding="utf-8") as handle:
            graph = trivalent.loads_graph(handle.read())
    elif spec.startswith("cycle:"):
        graph = trivalent.cycle_with_legs(int(spec.split(":", 1)[1]))
    else:
        graph = getattr(trivalent, spec)()
    if not trivalent.validate(graph).valid:
        sys.exit(f"graph {spec} is not valid")
