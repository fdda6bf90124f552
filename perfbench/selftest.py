"""Self-test of the benchmark at reduced sizes.

    python3 perfbench/selftest.py

Checks that every metric in BENCHMARK.json is printed with its unit for
each workload, traced and untraced; that no request fails on this
checkout; and that a deliberately wrong reference is counted as a
failure.  Takes a few seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def printed_result(workload: str, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "0", "--trace", str(trace), "--small"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=run.ROOT, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in workloads.NAMES:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = printed_result(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: metric["unit"] for name, metric in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {got} != {want}")
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{workload} trace={trace}: result keys {sorted(result)}")
            if result["failed"] != 0 or result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: failed {result['failed']}/{result['attempted']}")

    # A wrong reference must count as a failure on every pass.
    run.import_package()
    requests = workloads.build("census", 7, str(run.FIGURE_PATH), small=True)
    right = requests[0].numberings
    requests[0].check = workloads.expect_count(right + 1)
    measured = run.measure(requests, 0, trace=False)
    if measured.failed != measured.passes[False]:
        problems.append(f"wrong reference counted {measured.failed} failures, "
                        f"expected {measured.passes[False]}")

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
