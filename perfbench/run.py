"""Benchmark of the ``trivalent`` command line, end to end and per layer.

    python3 perfbench/run.py --workload census|stream|verify --seed N \\
        --seconds S --trace 0|1

Run it from a checkout of the repository; it imports the package from
``src/`` and needs nothing installed.  One client drives
``trivalent.cli.main(argv)`` in this process as a closed loop: each
request starts when the previous answer is in, as a user at a terminal
waits for it.  Every answer is checked against a reference that does
not come from the engine being timed (see ``reference.py``).

The run repeats the workload's request list in passes for about
``--seconds``.  A request's time is its best over the k passes, which
filters the shorter slow spells of a shared machine (see README.md).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, taken from
each request's fastest traced pass, plus ``trace.overhead_frac``, the
traced run_s against the untraced one.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it repeat the metrics with their units, the failure
fraction, k, the seed and the machine.  A full record, and in a traced
run the spans, go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
FIGURE_PATH = HERE / "data" / "figure_tree.json"
SETUP_PROBES = 3  # before the first pass
SETUP_SPACING = 8  # and about this many more, spread evenly over the passes

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "numberings_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "search.contract_s": "s",
    "search.contract_calls": "count",
    "search.contract.wide_domain_s": "s",
    "search.contract.long_chain_s": "s",
    "search.contract.readoff_s": "s",
    "search.backtrack_s": "s",
    "search.backtrack_solutions": "count",
    "search.backtrack_us_per_solution": "us",
    "numbering.dumps_s": "s",
    "numbering.dumps_calls": "count",
    "numbering.to_json_s": "s",
    "numbering.predicate_s": "s",
    "cli.bytes_out": "bytes",
    "cli.self_s": "s",
    "miura.transform_s": "s",
    "miura.transform_calls": "count",
    "miura.pp004_s": "s",
    "semigraph.build_s": "s",
    "semigraph.validate_s": "s",
    "semigraph.validate_calls": "count",
    "verify.self_s": "s",
    "verify.engine_calls": "count",
    "trace.overhead_frac": "fraction",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Sink:
    """Stands in for stdout: counts bytes and lines and hashes them.

    The text itself is kept only for short answers that get parsed;
    streams are checked by line count and digest.
    """

    def __init__(self, keep: bool):
        self.nbytes = 0
        self.lines = 0
        self.hash = hashlib.sha256()
        self.parts: list[str] | None = [] if keep else None

    def write(self, text: str) -> int:
        data = text.encode()
        self.nbytes += len(data)
        self.lines += text.count("\n")
        self.hash.update(data)
        if self.parts is not None:
            self.parts.append(text)
        return len(text)

    def flush(self):
        pass


def execute(main, request, tracer: Tracer | None):
    """Run one request; returns (seconds, Output)."""
    sink = Sink(keep=not request.stream)
    err = io.StringIO()
    rc = None
    error = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            if tracer is None:
                rc = main(request.argv)
            else:
                rc = tracer.call("cli", True, main, request.argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed request, not a dead run
            error = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
    text = "".join(sink.parts) if sink.parts is not None else None
    out = workloads.Output(rc, text, sink.nbytes, sink.lines, sink.hash.hexdigest(), err.getvalue(), error)
    return elapsed, out


class Measurement:
    def __init__(self, requests, trace: bool):
        self.requests = requests
        self.times = {False: [[] for _ in requests], True: [[] for _ in requests]}
        self.layers = [[] for _ in requests]  # traced passes: (seconds, totals, bytes)
        self.passes = {False: 0, True: 0}
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.tracer = Tracer() if trace else None


def measure(requests, seconds: float, trace: bool, after_pass=None) -> Measurement:
    """Repeat the request list in passes for about ``seconds``.

    A pass starts only if one more pass as long as the longest so far
    still fits; there is at least one pass, and with tracing at least
    one untraced and one traced.  ``after_pass`` runs, untimed, after
    each pass.
    """
    import trivalent.cli

    m = Measurement(requests, trace)
    cpus = sorted(os.sched_getaffinity(0))
    start = perf_counter()
    longest = 0.0
    done = 0
    try:
        while done < (2 if trace else 1) or perf_counter() - start + longest <= seconds:
            traced = trace and done % 2 == 1
            # Slow spells come and go on each CPU separately, so passes
            # take turns on the CPUs this process may use; with tracing,
            # each CPU gets an untraced and a traced pass in turn.
            os.sched_setaffinity(0, {cpus[done // (2 if trace else 1) % len(cpus)]})
            gc.collect()
            t_pass = perf_counter()
            with m.tracer.installed() if traced else contextlib.nullcontext():
                for i, request in enumerate(requests):
                    if traced:
                        m.tracer.request = i
                        m.tracer.reset()
                    elapsed, out = execute(trivalent.cli.main, request, m.tracer if traced else None)
                    if traced:
                        m.layers[i].append((elapsed, m.tracer.take(), out.nbytes))
                    m.times[traced][i].append(elapsed)
                    m.attempted += 1
                    problem = request.check(out)
                    if problem is not None:
                        m.failed += 1
                        if len(m.failures) < 20:
                            m.failures.append({"request": request.label, "problem": problem})
            longest = max(longest, perf_counter() - t_pass)
            m.passes[traced] += 1
            done += 1
            if after_pass is not None:
                after_pass()
    finally:
        os.sched_setaffinity(0, cpus)
    return m


def end_to_end(m: Measurement, setup_s: float) -> dict:
    best = [min(ts) for ts in m.times[False]]
    run_s = sum(best)
    numberings = sum(r.numberings for r in m.requests)
    deciles = statistics.quantiles(best, n=10, method="inclusive")
    values = {
        "setup_s": setup_s,
        "run_s": run_s,
        "query_p50_ms": statistics.median(best) * 1e3,
        "query_p90_ms": deciles[8] * 1e3,
        "numberings_per_s": numberings / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(m: Measurement) -> dict:
    fastest = [min(passes, key=lambda x: x[0]) for passes in m.layers]

    def total(name, field="total", family=None):
        return sum(
            layer[field].get(name, 0)
            for request, (_, layer, _) in zip(m.requests, fastest)
            if family is None or request.family == family
        )

    backtrack_s = total("search.backtrack")
    solutions = total("search.solutions", "counts")
    traced_run_s = sum(elapsed for elapsed, _, _ in fastest)
    untraced_run_s = sum(min(ts) for ts in m.times[False])
    values = {
        "search.contract_s": total("search.contract"),
        "search.contract_calls": total("search.contract", "calls"),
        "search.contract.wide_domain_s": total("search.contract", family="wide_domain"),
        "search.contract.long_chain_s": total("search.contract", family="long_chain"),
        "search.contract.readoff_s": total("search.contract", family="readoff"),
        "search.backtrack_s": backtrack_s,
        "search.backtrack_solutions": solutions,
        "search.backtrack_us_per_solution": backtrack_s / solutions * 1e6 if solutions else 0.0,
        "numbering.dumps_s": total("numbering.dumps"),
        "numbering.dumps_calls": total("numbering.dumps", "calls"),
        "numbering.to_json_s": total("numbering.to_json"),
        "numbering.predicate_s": total("numbering.predicate"),
        "cli.bytes_out": sum(nbytes for _, _, nbytes in fastest),
        "cli.self_s": total("cli", "self"),
        "miura.transform_s": total("miura.transform"),
        "miura.transform_calls": total("miura.transform", "calls"),
        "miura.pp004_s": total("miura.pp004"),
        "semigraph.build_s": total("semigraph.build"),
        "semigraph.validate_s": total("semigraph.validate"),
        "semigraph.validate_calls": total("semigraph.validate", "calls"),
        "verify.self_s": total("verify", "self"),
        "verify.engine_calls": total("verify.engine_calls", "counts"),
        "trace.overhead_frac": traced_run_s / untraced_run_s - 1,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


# -- set-up -------------------------------------------------------------------

def probe_argv(requests) -> list[str]:
    """A fresh interpreter that imports trivalent and builds and
    validates the workload's graphs; see ``probe.py``."""
    graphs = sorted({str(FIGURE_PATH) if r.graph == workloads.FIGURE else r.graph
                     for r in requests if r.graph is not None})
    return [sys.executable, "-I", str(HERE / "probe.py"), str(SRC), *graphs]


def probe(argv) -> float:
    """Wall time of one set-up probe."""
    t0 = perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return elapsed


def import_package():
    if not (SRC / "trivalent" / "__init__.py").is_file():
        raise BenchError(f"no package at {SRC / 'trivalent'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import trivalent

    where = Path(trivalent.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"imported trivalent from {where}, not from {SRC}")


# -- machine and source identity ----------------------------------------------

def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    source = hashlib.sha256()
    for path in sorted((SRC / "trivalent").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "commit": _commit(),
        "source_sha256": source.hexdigest(),
    }


# -- main -----------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    import_package()
    requests = workloads.build(workload, seed, str(FIGURE_PATH), small)
    if trace:
        m = measure(requests, seconds, trace)
        metrics = per_layer(m)
    else:
        # setup_s is the median of probes made before the first pass and
        # between passes about every seconds / SETUP_SPACING, so it
        # samples the same stretch of machine time as the passes.  The
        # first probe only writes the bytecode cache and is not counted.
        argv = probe_argv(requests)
        probe(argv)
        setup = [probe(argv) for _ in range(SETUP_PROBES)]
        due = perf_counter()

        def after_pass():
            nonlocal due
            if perf_counter() >= due:
                setup.append(probe(argv))
                due = perf_counter() + seconds / SETUP_SPACING

        m = measure(requests, seconds, trace, after_pass)
        metrics = end_to_end(m, statistics.median(setup))
    result = {"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed, "metrics": metrics}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "small": small,
        "k": {"untraced": m.passes[False], "traced": m.passes[True]},
        "requests": len(requests),
        "failed_frac": m.failed / m.attempted,
        "machine": machine(),
        **result,
        "failures": m.failures,
        "best_s": {r.label: min(ts) for r, ts in zip(requests, m.times[False])},
    }
    if trace:
        record["unwrapped"] = m.tracer.missing
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}{'-small' if small else ''}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            for span in m.tracer.spans:
                handle.write(json.dumps(dict(zip(("id", "name", "start", "end", "parent", "request"), span))) + "\n")
    return record


def report(record: dict) -> None:
    k = record["k"]
    print(f"# perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"requests={record['requests']} k={k['untraced']} untraced, {k['traced']} traced")
    print(f"# machine {json.dumps(record['machine'])}")
    for name, metric in record["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# failed_frac = {record['failed_frac']:.6g} ({record['failed']}/{record['attempted']})")
    for failure in record["failures"]:
        print(f"# FAILED {failure['request']}: {failure['problem']}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced sizes, for the self-test")
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
