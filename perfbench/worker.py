"""Workload process: cold import, then a closed loop over the real CLI path.

Usage (run.py starts it): ``python3 perfbench/worker.py <config.json>``.
One caller, one thread: each subcommand runs through ``heapchains.cli.run``
with stdout captured, and the next starts only after it returns.  With
tracing on, untraced and traced passes alternate; a traced pass re-enacts
each subcommand through the public functions its handler calls.

The process reads only the input files the CLI itself reads, so its peak RSS
holds no generated inputs; it is read after the first pass, which always
runs instance 0, so that it does not depend on how many passes the window
holds.  It writes ``result.json`` into the run directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path


def reference_graph(n: int = 15_000, degree: int = 4) -> list[list[list[int]]]:
    state, adj = 12345, []
    for _ in range(n):
        row = []
        for _ in range(degree):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            row.append([state % n, 1, 0])
        adj.append(row)
    return adj


def reference_kernel(adj: list[list[list[int]]], kind: str) -> float:
    """Seconds for a fixed pure-Python job that shares no code with heapchains.

    ``graph``: three breadth-first searches over a prebuilt adjacency list of
    small lists, memory-bound interpreter work like the flow solver's.
    ``mixed``: one search, then exact ``Fraction`` keys sorted and counted
    in a dict, allocation and arithmetic like the slot pools' and parsers'.
    A host changes speed differently for different code, so each workload
    uses the kind closest to its own work.  The kernel runs between calls,
    and run.py scales each call by the samples taken around it.
    """
    start = time.perf_counter()
    for root in range(3 if kind == "graph" else 1):
        level = [-1] * len(adj)
        level[root] = 0
        queue = [root]
        for u in queue:
            for edge in adj[u]:
                if edge[1] > 0 and level[edge[0]] < 0:
                    level[edge[0]] = level[u] + 1
                    queue.append(edge[0])
    if kind == "mixed":
        state, keys = 12345, []
        for i in range(2_400):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            keys.append((Fraction(state % 100_000, 1000), i))
        keys.sort()
        counts: dict[Fraction, int] = {}
        for key, i in keys:
            counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - start


def _run_cli(cli, cmd: dict, out: str) -> dict:
    argv = [out if arg == "{out}" else arg for arg in cmd["argv"]]
    buf = io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.run(argv)
    except Exception as exc:  # any escape from the CLI is a failed call
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return {"elapsed": elapsed, "rc": rc, "error": error, "lines": buf.getvalue().splitlines()[-2:]}


def _run_traced(reenact, tracer, run: str, cmd: dict, out: str) -> dict:
    try:
        last, counters = reenact(tracer, run, cmd, out)
    except Exception as exc:  # a failed re-enactment is a failed call
        return {"rc": None, "error": f"{type(exc).__name__}: {exc}", "lines": [], "counters": {}}
    return {"rc": 0, "error": None, "lines": [last], "counters": counters}


def main() -> int:
    config = json.loads(Path(sys.argv[1]).read_text())
    start = time.perf_counter()
    import heapchains.cli as cli
    import_s = time.perf_counter() - start

    from reenact import reenact
    from spans import Tracer

    tracer = Tracer()
    outdir = Path(config["outdir"])
    seconds, traced_mode = config["seconds"], config["trace"]
    instances = config["instances"]
    min_passes = 4 if traced_mode else 3
    adj, kind = reference_graph(), config["reference"]
    passes, durations, reference = [], [], [reference_kernel(adj, kind)]
    owed = 0.0  # seconds of calls since the last reference sample
    start = time.perf_counter()
    while True:
        index = len(passes)
        traced = traced_mode and index % 2 == 1
        begin = time.perf_counter()
        calls = []
        # A traced pass re-enacts the instance its untraced predecessor ran.
        commands = instances[(index // 2 if traced_mode else index) % len(instances)]
        for cmd in commands:
            out = str(outdir / f"{cmd['metric']}-{'t' if traced else 'u'}{index}{cmd['out_ext']}")
            call_start = time.perf_counter()
            if traced:
                call = _run_traced(reenact, tracer, f"{index}:{cmd['metric']}", cmd, out)
            else:
                call = _run_cli(cli, cmd, out)
            calls.append({"metric": cmd["metric"], "instance": cmd["instance"], "out": out,
                          "reference_index": len(reference), **call})
            # About one reference sample per second of calls, between calls.
            owed += time.perf_counter() - call_start
            while owed >= 1.0:
                reference.append(reference_kernel(adj, kind))
                owed -= 1.0
        durations.append(time.perf_counter() - begin)
        passes.append({"index": index, "traced": traced, "calls": calls})
        if index == 0:
            first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Stop before a pass that would run past the measured window.
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + max(durations[-2:]) > seconds:
            break

    result = {
        "import_s": import_s,
        "heapchains_file": cli.__file__,
        "window_s": time.perf_counter() - start,
        "reference_s": reference,
        "first_pass_rss_mb": first_pass_rss_mb,
        "passes": passes,
        "spans": tracer.spans,
    }
    (outdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
