"""Seeded inputs and subcommand lists for the three benchmark workloads.

Everything here is the benchmark's own code: the program under test only ever
sees the files written by ``generate``.  The in-memory copies returned next to
the files (endpoints, positions, boxes) feed the benchmark's own output
checks in ``checks.py`` and never reach the workload process.

Why each workload exists (also recorded in BENCHMARK.json):

* ``kwidth-exact`` -- exact k-split max flow on two poset shapes.  ``wide`` is
  the dominance order of random integer intervals (many short augmenting
  paths, k=2); ``narrow`` is a random permutation order (long paths, few
  roots, k=1).  A flow change that helps one shape and hurts the other shows.
* ``greedy-files`` -- slot-pool and exact-parse work; the flow layer is idle.
  k=8 next to k=2 exposes the per-copy pool cost, three-decimal ``Fraction``
  coordinates next to ``int`` ones expose the exact-arithmetic cost.
* ``simulate`` -- numpy RNG plus the particle process with float coordinates;
  the only workload where parallel trials could act.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("kwidth-exact", "greedy-files", "simulate")

# Sizes: each workload pass takes a few seconds of single-threaded CPU.
# Max-flow time varies by some 15% between random posets of one size, so
# kwidth-exact cycles through many smaller instances instead of timing one.
KWIDTH_INSTANCES = 60
WIDE_N, WIDE_K = 350, 2
NARROW_N, NARROW_K = 210, 1
INTERVALS_N = 3_000  # three-decimal endpoints, parsed as exact Fractions
PERMUTATION_N = 12_500
BOXES_N = 5_000
SIM_N, SIM_K, SIM_TRIALS = 25_000, 2, 4


@dataclass
class Command:
    """One CLI subcommand of a workload pass.

    ``metric`` names its end-to-end time in seconds.  The ``{out}``
    placeholder in ``argv`` becomes a per-pass output file, so each output
    can be checked against the first one of the same instance.
    """

    metric: str
    sub: str
    k: int
    argv: list[str]
    out_ext: str = ".json"
    instance: int = 0
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    """Seeded inputs; the workload process cycles through ``instances``.

    ``data[i]`` is the generator-side ground truth of instance i, for the
    output checks.
    """

    name: str
    seed: int
    instances: list[list[Command]]
    data: list[dict]
    reference: str  # the worker.reference_kernel kind that times are scaled by


def _milli(value: int) -> str:
    """Three-decimal text of value/1000, e.g. 12345 -> '12.345'."""
    return f"{value // 1000}.{value % 1000:03d}"


def random_int_intervals(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """n integer intervals with left < right, endpoints in 0..3n+3."""
    items = []
    for _ in range(n):
        a, b = rng.randint(0, 3 * n + 2), rng.randint(0, 3 * n + 2)
        a, b = min(a, b), max(a, b)
        items.append((a, b + 1) if a == b else (a, b))
    return items


def interval_dominance_pairs(items: list[tuple[int, int]]) -> list[list[int]]:
    """All (i, j) with right(i) <= left(j), ascending."""
    by_left = sorted(range(len(items)), key=lambda j: items[j][0])
    lefts = [items[j][0] for j in by_left]
    pairs = []
    for i, (_, right) in enumerate(items):
        start = bisect.bisect_left(lefts, right)
        pairs.extend([i, j] for j in sorted(by_left[start:]))
    return pairs


def permutation_order_pairs(perm: list[int]) -> list[list[int]]:
    """All (a, b) with a < b and a placed before b in perm, ascending."""
    position = [0] * len(perm)
    for idx, value in enumerate(perm):
        position[value] = idx
    n = len(perm)
    return [[a, b] for a in range(n) for b in range(a + 1, n) if position[a] < position[b]]


def _write_poset(path: Path, n: int, pairs: list[list[int]]) -> None:
    with open(path, "w") as handle:
        json.dump({"n": n, "relations": pairs}, handle)
        handle.write("\n")


def _kwidth_exact(rng: random.Random, indir: Path) -> tuple[list[list[Command]], list[dict]]:
    instances, data = [], []
    for i in range(KWIDTH_INSTANCES):
        wide = random_int_intervals(rng, WIDE_N)
        wide_pairs = interval_dominance_pairs(wide)
        wide_path = indir / f"wide-{i}.json"
        _write_poset(wide_path, WIDE_N, wide_pairs)

        perm = list(range(NARROW_N))
        rng.shuffle(perm)
        narrow_pairs = permutation_order_pairs(perm)
        narrow_path = indir / f"narrow-{i}.json"
        _write_poset(narrow_path, NARROW_N, narrow_pairs)

        instances.append([
            Command("kwidth_wide_s", "kwidth", WIDE_K,
                    ["kwidth", "--k", str(WIDE_K), "--poset", str(wide_path), "--witness", "{out}"],
                    instance=i, params={"input": str(wide_path)}),
            Command("kwidth_narrow_s", "kwidth", NARROW_K,
                    ["kwidth", "--k", str(NARROW_K), "--poset", str(narrow_path), "--witness", "{out}"],
                    instance=i, params={"input": str(narrow_path)}),
        ])
        data.append({"wide": wide, "narrow_perm": perm})
    return instances, data


def _greedy_files(rng: random.Random, indir: Path) -> tuple[list[list[Command]], list[dict]]:
    intervals = []
    for _ in range(INTERVALS_N):
        a, b = rng.randrange(10**6), rng.randrange(10**6)
        a, b = min(a, b), max(a, b)
        intervals.append((a, b + 1) if a == b else (a, b))
    with open(indir / "intervals.csv", "w") as handle:
        handle.writelines(f"{_milli(a)},{_milli(b)}\n" for a, b in intervals)

    perm = list(range(PERMUTATION_N))
    rng.shuffle(perm)
    with open(indir / "permutation.txt", "w") as handle:
        handle.writelines(f"{v}\n" for v in perm)

    # Distinct x and distinct y coordinates, so box dominance is a strict order.
    xs = rng.sample(range(10 * BOXES_N), 2 * BOXES_N)
    ys = rng.sample(range(10 * BOXES_N), 2 * BOXES_N)
    boxes = []
    for i in range(BOXES_N):
        x1, x2 = sorted(xs[2 * i: 2 * i + 2])
        y1, y2 = sorted(ys[2 * i: 2 * i + 2])
        boxes.append((x1, y1, x2, y2))
    with open(indir / "boxes.csv", "w") as handle:
        handle.writelines(f"{x1},{y1},{x2},{y2}\n" for x1, y1, x2, y2 in boxes)

    csv_path = str(indir / "intervals.csv")

    def interval_cmd(metric: str, sub: str, k: int) -> Command:
        return Command(metric, sub, k,
                       [sub, "--k", str(k), "--input", csv_path, "--witness", "{out}"],
                       params={"input": csv_path})

    perm_path, boxes_path = str(indir / "permutation.txt"), str(indir / "boxes.csv")
    commands = [
        interval_cmd("intervals_seq_s", "intervals-seq", 2),
        interval_cmd("intervals_set_s", "intervals-set", 8),
        interval_cmd("max_heapable_s", "max-heapable", 2),
        Command("permutation_s", "permutation", 2,
                ["permutation", "--k", "2", "--input", perm_path, "--witness", "{out}"],
                params={"input": perm_path}),
        Command("trapezoid_s", "trapezoid", 2,
                ["trapezoid", "--k", "2", "--input", boxes_path, "--witness", "{out}"],
                params={"input": boxes_path}),
    ]
    return [commands], [{"intervals": intervals, "perm": perm, "boxes": boxes}]


def _simulate(seed: int) -> tuple[list[list[Command]], list[dict]]:
    commands = []
    for mode in ("seq", "set"):
        params = {"n": SIM_N, "trials": SIM_TRIALS, "seed": seed, "mode": mode}
        commands.append(Command(
            f"simulate_{mode}_s", "simulate", SIM_K,
            ["simulate", "--n", str(SIM_N), "--k", str(SIM_K), "--trials", str(SIM_TRIALS),
             "--seed", str(seed), "--mode", mode, "--csv", "{out}"],
            out_ext=".csv", params=params))
    return [commands], [{"n": SIM_N, "k": SIM_K, "trials": SIM_TRIALS, "seed": seed}]


def generate(name: str, seed: int, indir: Path) -> Workload:
    """Write the workload's input files under indir; same seed, same files."""
    rng = random.Random(f"{name}/{seed}")
    if name == "kwidth-exact":
        instances, data = _kwidth_exact(rng, indir)
    elif name == "greedy-files":
        instances, data = _greedy_files(rng, indir)
    elif name == "simulate":
        instances, data = _simulate(seed)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, seed, instances, data, "graph" if name == "kwidth-exact" else "mixed")
