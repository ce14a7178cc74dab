"""Traced re-enactment of each CLI subcommand.

Each function repeats what the subcommand's CLI handler does, calling the
same public functions in the same order, with a span around every call.
What the handler does besides those calls (argument parsing, printing, the
permutation trace tuple) is not re-enacted; it shows up as ``cli.overhead_s``,
the untraced subcommand time minus the traced layer calls.

Each function returns the primary result as the CLI prints it on its last
line, and the counters read from the layers' results (outside any span).
"""

from __future__ import annotations

import json
import os

from heapchains import formats
from heapchains.flow import build_split_graph, matching_to_partition, max_left_k_matching
from heapchains.greedy import (
    ATTACHED,
    NEW_CHAIN,
    greedy_max_heapable_subset,
    greedy_partition_permutation,
    greedy_partition_sequence,
    greedy_partition_set,
)
from heapchains.poset import poset_from_relations
from heapchains.simulate import SimConfig, estimate_scaling, write_trials_csv
from heapchains.sweep import sweep_partition

from spans import Tracer


def _kwidth(tr: Tracer, run: str, cmd: dict, out: str):
    path, k = cmd["params"]["input"], cmd["k"]
    with tr.span("cli.kwidth", run):
        poset = tr.call("formats.load_poset_json", run, formats.load_poset_json, path)
        graph = tr.call("flow.build_split_graph", run, build_split_graph, poset, k)
        matching = tr.call("flow.max_left_k_matching", run, max_left_k_matching, graph)
        forest = tr.call("flow.matching_to_partition", run, matching_to_partition, poset, matching)
        tr.call("formats.save_forest_json", run, formats.save_forest_json, out, forest)
    counters = {
        "formats.load_poset_json.relations": poset.relation_count(),
        "flow.split_graph.edges": graph.edge_count(),
        "flow.matching.size": len(matching),
        "flow.elements": poset.n,
    }
    # The transitive closure runs inside load_poset_json; time it on its own,
    # outside the subcommand's root span, on the file's pairs.
    with open(path) as handle:
        data = json.load(handle)
    pairs = [(i, j) for i, j in data["relations"]]
    tr.call("poset.poset_from_relations", run, poset_from_relations, data["n"], pairs)
    return str(poset.n - len(matching)), counters


def _greedy_intervals(sub: str, fn):
    def reenact(tr: Tracer, run: str, cmd: dict, out: str):
        with tr.span(f"cli.{sub}", run):
            items = tr.call("formats.load_intervals_csv", run,
                            formats.load_intervals_csv, cmd["params"]["input"])
            count, forest, trace = tr.call(f"greedy.{fn.__name__}", run, fn, items, cmd["k"])
            tr.call("formats.save_forest_json", run, formats.save_forest_json, out, forest)
        kinds = [step.kind for step in trace]
        return str(count), {
            f"greedy.{fn.__name__}.new_chains": kinds.count(NEW_CHAIN),
            f"greedy.{fn.__name__}.attached": kinds.count(ATTACHED),
        }

    return reenact


def _max_heapable(tr: Tracer, run: str, cmd: dict, out: str):
    with tr.span("cli.max-heapable", run):
        items = tr.call("formats.load_intervals_csv", run,
                        formats.load_intervals_csv, cmd["params"]["input"])
        subset, forest, _ = tr.call("greedy.greedy_max_heapable_subset", run,
                                    greedy_max_heapable_subset, items, cmd["k"])
        tr.call("formats.save_forest_json", run, formats.save_forest_json, out, forest)
    return str(len(subset)), {
        "greedy.greedy_max_heapable_subset.accepted": len(subset),
        "greedy.greedy_max_heapable_subset.attempted": len(items),
    }


def _permutation(tr: Tracer, run: str, cmd: dict, out: str):
    with tr.span("cli.permutation", run):
        perm = tr.call("formats.load_permutation", run,
                       formats.load_permutation, cmd["params"]["input"])
        count, forest = tr.call("greedy.greedy_partition_permutation", run,
                                greedy_partition_permutation, perm, cmd["k"])
        tr.call("formats.save_forest_json", run, formats.save_forest_json, out, forest)
    return str(count), {"greedy.greedy_partition_permutation.chains": count}


def _trapezoid(tr: Tracer, run: str, cmd: dict, out: str):
    with tr.span("cli.trapezoid", run):
        boxes = tr.call("formats.load_boxes_csv", run,
                        formats.load_boxes_csv, cmd["params"]["input"])
        count, forest = tr.call("sweep.sweep_partition", run, sweep_partition, boxes, cmd["k"])
        tr.call("formats.save_forest_json", run, formats.save_forest_json, out, forest)
    return str(count), {"sweep.sweep_partition.chains": count}


def _simulate(tr: Tracer, run: str, cmd: dict, out: str):
    p = cmd["params"]
    with tr.span("cli.simulate", run):
        config = SimConfig(n=p["n"], k=cmd["k"], trials=p["trials"], seed=p["seed"], mode=p["mode"])
        stats = tr.call(f"simulate.estimate_scaling.{p['mode']}", run, estimate_scaling, config)
        tr.call("simulate.write_trials_csv", run, write_trials_csv, out, config, stats)
    return f"{stats.normalized:.6g}", {f"simulate.estimate_scaling.{p['mode']}.mean_count": stats.mean}


REENACT = {
    "kwidth": _kwidth,
    "intervals-seq": _greedy_intervals("intervals-seq", greedy_partition_sequence),
    "intervals-set": _greedy_intervals("intervals-set", greedy_partition_set),
    "max-heapable": _max_heapable,
    "permutation": _permutation,
    "trapezoid": _trapezoid,
    "simulate": _simulate,
}


def reenact(tr: Tracer, run: str, cmd: dict, out: str):
    """Traced re-enactment of one subcommand; adds the witness size to the counters."""
    last, counters = REENACT[cmd["sub"]](tr, run, cmd, out)
    if cmd["out_ext"] == ".json":
        counters["formats.save_forest_json.bytes"] = os.path.getsize(out)
    return last, counters
