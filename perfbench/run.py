"""heapchains benchmark.

    python3 perfbench/run.py --workload kwidth-exact --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout.  For each workload it writes the seeded
input files, starts one workload process (``worker.py``) that drives
``heapchains.cli.run`` in a closed loop for ``--seconds``, times cold imports
of ``heapchains.cli`` in fresh interpreters, and checks every output.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer metrics).  A full record, with the environment and the spans
of a traced run, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from importlib import metadata
from pathlib import Path

from checks import check_output, cross_checks
from metrics import (
    END_TO_END,
    PER_LAYER,
    REFERENCE_S,
    SUBCOMMAND,
    layer_metrics,
    median_call_times,
)
from worker import reference_graph, reference_kernel
from workloads import WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170  # every run must end well within 180 s
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import heapchains.cli; "
    "print(time.perf_counter() - t)"
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _run_worker(config_path: Path, budget: float) -> None:
    try:
        done = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(config_path)],
                              cwd=ROOT, env=_env(), timeout=budget)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process still running after {budget:.0f} s") from None
    if done.returncode != 0:
        raise BenchError(f"workload process exited with {done.returncode}")


def _setup_samples(kind: str) -> list[tuple[float, float]]:
    """(cold import time, reference kernel time just before it) per sample."""
    adj, samples = reference_graph(), []
    for _ in range(SETUP_SAMPLES):
        reference = reference_kernel(adj, kind)
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise BenchError(f"importing heapchains.cli failed: {done.stderr.strip()}")
        samples.append((float(done.stdout), reference))
    return samples


def environment() -> dict:
    versions = {}
    for package in ("numpy", "scipy", "sortedcontainers"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    digest, lines = hashlib.sha256(), 0
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + text)
        lines += text.count(b"\n")
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def _corrupt(call: dict, what: str) -> None:
    """Deliberately damage one output, to show that the checks catch it."""
    if what == "count":
        call["lines"][-1] += "0"
        return
    path = Path(call["out"])
    if path.suffix == ".json":
        data = json.loads(path.read_text())
        if data["parent"]:
            data["parent"].pop(next(iter(data["parent"])))
        else:
            data["roots"].pop()
        path.write_text(json.dumps(data))
    else:
        lines = path.read_text().splitlines()
        row = lines[1].split(",")
        row[4] = str(int(row[4]) + 1)
        lines[1] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")


def _check(workload, passes: list[dict], corrupt: str | None) -> list[dict]:
    """One entry per attempted operation: every call, then every cross-check.

    The first untraced call of each subcommand and instance is validated in
    full; every later call of it, traced or not, must print the same result
    and write a byte-identical output file.
    """
    commands = {(cmd.metric, cmd.instance): asdict(cmd)
                for cmds in workload.instances for cmd in cmds}
    if corrupt:
        _corrupt(passes[0]["calls"][0], corrupt)
    ops, printed, reference = [], {}, {}
    for p in passes:
        for call in p["calls"]:
            key = (call["metric"], call["instance"])
            name = f"{call['metric']} #{call['instance']} {'traced' if p['traced'] else 'pass'} {p['index']}"
            out = Path(call["out"])
            if key not in reference and not p["traced"]:
                try:
                    printed[key] = check_output(workload.data[key[1]], commands[key], call)
                    error = None
                except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
                    error = f"{type(exc).__name__}: {exc}"
                reference[key] = (call["lines"], out.read_bytes() if out.exists() else None)
                ops.append({"op": name, "ok": error is None, "detail": error})
                continue
            lines, data = reference.get(key, ([None], None))
            same = (call["error"] is None and call["rc"] == 0 and call["lines"]
                    and call["lines"][-1] == lines[-1]
                    and (p["traced"] or call["lines"] == lines)
                    and out.exists() and out.read_bytes() == data)
            detail = None if same else f"differs from the first call ({call['error'] or call['lines'][-1:]})"
            ops.append({"op": name, "ok": bool(same), "detail": detail})
    for instance in sorted({i for _, i in reference}):
        got = {metric: value for (metric, i), value in printed.items() if i == instance}
        data = workload.data[instance]
        for name, a, b in cross_checks(workload.name, data, got):
            ops.append({"op": f"{name} #{instance}", "ok": a is not None and a == b,
                        "detail": f"{a} vs {b}"})
    return ops


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 corrupt: str | None) -> dict:
    started = time.monotonic()
    rundir = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    (rundir / "in").mkdir(parents=True)
    (rundir / "out").mkdir()
    try:
        workload = generate(name, seed, rundir / "in")
        config = {
            "seconds": seconds,
            "trace": trace,
            "outdir": str(rundir / "out"),
            "reference": workload.reference,
            "instances": [[asdict(cmd) for cmd in cmds] for cmds in workload.instances],
        }
        config_path = rundir / "config.json"
        config_path.write_text(json.dumps(config))
        budget = RUN_LIMIT_S - 40 - (time.monotonic() - started)
        _run_worker(config_path, budget)
        result = json.loads((rundir / "out" / "result.json").read_text())
        if not Path(result["heapchains_file"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"heapchains imported from {result['heapchains_file']}, not {SRC}")
        setup = _setup_samples(workload.reference)
        ops = _check(workload, result["passes"], corrupt)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    raw_calls = median_call_times(result["passes"])
    calls = median_call_times(result["passes"], result["reference_s"])
    reference_s = statistics.median(result["reference_s"])
    failed = sum(not op["ok"] for op in ops)
    report = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "passes": sum(not p["traced"] for p in result["passes"]),
        "traced_passes": sum(p["traced"] for p in result["passes"]),
        "window_s": result["window_s"],
        "reference_s": reference_s,
        "raw": {"total_s": sum(raw_calls.values()),
                "setup_s": statistics.median(t for t, _ in setup),
                "subcommands": raw_calls},
        "subcommands": calls,
        "end_to_end": {
            "total_s": sum(calls.values()),
            "setup_s": statistics.median(t * REFERENCE_S / ref for t, ref in setup),
            "peak_rss_mb": result["first_pass_rss_mb"],
        },
        "error_rate": failed / len(ops),
        "attempted": len(ops),
        "failed": failed,
        "ops": ops,
        "setup_samples": setup,
        "worker_import_s": result["import_s"],
        "reference_samples": result["reference_s"],
        "samples": [[p["index"], c["metric"], c["instance"], c.get("elapsed"), c["reference_index"]]
                    for p in result["passes"] for c in p["calls"]],
        "environment": environment(),
    }
    if trace:
        trials = workload.data[0].get("trials")
        per_layer = layer_metrics(result["passes"], result["spans"], trials)
        scale = REFERENCE_S / reference_s
        report["per_layer"] = {name: value * scale if PER_LAYER[name][0] == "s" else value
                               for name, value in per_layer.items()}
        report["spans"] = result["spans"]
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1))
    return report


def _print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  closed loop, 1 caller: "
          f"{report['passes']} untraced + {report['traced_passes']} traced passes "
          f"in {report['window_s']:.1f} s")
    for metric in SUBCOMMAND:
        if metric in report["subcommands"]:
            print(f"  {metric:<20} {report['subcommands'][metric]:.4f} s  "
                  f"(median of {report['passes']})")
    for metric, value in report["end_to_end"].items():
        raw = f"  (raw {report['raw'][metric]:.4f})" if metric in report["raw"] else ""
        print(f"  {metric:<20} {value:.4f} {END_TO_END[metric][0]}{raw}")
    print(f"  {'reference_s':<20} {report['reference_s']:.4f} s  (median reference kernel "
          f"time; times above are raw times scaled to a {REFERENCE_S} s kernel)")
    print(f"  {'error_rate':<20} {report['error_rate']:.4f}  "
          f"({report['failed']} failed / {report['attempted']} attempted)")
    for op in report["ops"]:
        if not op["ok"]:
            print(f"  FAILED {op['op']}: {op['detail']}")
    for metric, value in report.get("per_layer", {}).items():
        print(f"  {metric:<50} {value:.6g} {PER_LAYER[metric][0]}")
    env = report["environment"]
    print("  environment: " + ", ".join(f"{key} {value}" for key, value in env.items()))


def _metrics(report: dict) -> dict:
    if report["trace"]:
        values, units = report["per_layer"], {k: v[0] for k, v in PER_LAYER.items()}
    else:
        values, units = report["end_to_end"], {k: v[0] for k, v in END_TO_END.items()}
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", choices=("witness", "count"),
                        help="damage the first output before checking it (checks self-test)")
    args = parser.parse_args()
    if not (SRC / "heapchains" / "__init__.py").is_file():
        print(f"error: no heapchains sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the cross-checks call the library in this process

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [run_workload(name, args.seed, args.seconds, bool(args.trace), args.corrupt)
                   for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        _print_report(report)
    if len(reports) == 1:
        metrics = _metrics(reports[0])
    else:
        metrics = {f"{r['workload']}.{name}": value
                   for r in reports for name, value in _metrics(r).items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
