"""Metric tables and their derivation from a workload run's passes.

``END_TO_END`` and ``PER_LAYER`` list every metric the final JSON line
carries (BENCHMARK.json mirrors them).  ``SUBCOMMAND`` lists the per
subcommand end-to-end times, which the human-readable report prints for the
workload that runs them.  Each ``PER_LAYER`` entry also names the end-to-end
metric it should move, so a later change can cite both by name.
"""

from __future__ import annotations

import statistics

from spans import layer_of, self_times

# name -> (unit, better)
END_TO_END = {
    "total_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

SUBCOMMAND = (
    "kwidth_wide_s", "kwidth_narrow_s",
    "intervals_seq_s", "intervals_set_s", "max_heapable_s", "permutation_s", "trapezoid_s",
    "simulate_seq_s", "simulate_set_s",
)

_KWIDTH = "kwidth_wide_s, kwidth_narrow_s"
_INTERVALS = "intervals_seq_s, intervals_set_s, max_heapable_s"
_WITNESS = "every *_s that writes a witness"

# name -> (unit, better, end-to-end metric it should move)
PER_LAYER = {
    "formats.load_poset_json.busy_s": ("s", "lower", _KWIDTH),
    "formats.load_poset_json.relations": ("count", "lower", _KWIDTH),
    "poset.poset_from_relations.busy_s": ("s", "lower", _KWIDTH),
    "flow.build_split_graph.busy_s": ("s", "lower", _KWIDTH),
    "flow.split_graph.edges": ("count", "lower", _KWIDTH),
    "flow.max_left_k_matching.busy_s": ("s", "lower", _KWIDTH),
    "flow.matching.size": ("count", "higher", _KWIDTH),
    "flow.matched_fraction": ("ratio", "higher", _KWIDTH),
    "flow.matching_to_partition.busy_s": ("s", "lower", _KWIDTH),
    "formats.load_intervals_csv.busy_s": ("s", "lower", _INTERVALS),
    "formats.load_permutation.busy_s": ("s", "lower", "permutation_s"),
    "formats.load_boxes_csv.busy_s": ("s", "lower", "trapezoid_s"),
    "formats.save_forest_json.busy_s": ("s", "lower", _WITNESS),
    "formats.save_forest_json.bytes": ("bytes", "lower", _WITNESS),
    "greedy.greedy_partition_sequence.busy_s": ("s", "lower", "intervals_seq_s"),
    "greedy.greedy_partition_sequence.new_chains": ("count", "lower", "intervals_seq_s"),
    "greedy.greedy_partition_sequence.attached": ("count", "higher", "intervals_seq_s"),
    "greedy.greedy_partition_set.busy_s": ("s", "lower", "intervals_set_s"),
    "greedy.greedy_partition_set.new_chains": ("count", "lower", "intervals_set_s"),
    "greedy.greedy_partition_set.attached": ("count", "higher", "intervals_set_s"),
    "greedy.greedy_max_heapable_subset.busy_s": ("s", "lower", "max_heapable_s"),
    "greedy.greedy_max_heapable_subset.accepted_ratio": ("ratio", "higher", "max_heapable_s"),
    "greedy.greedy_partition_permutation.busy_s": ("s", "lower", "permutation_s"),
    "greedy.greedy_partition_permutation.chains": ("count", "lower", "permutation_s"),
    "sweep.sweep_partition.busy_s": ("s", "lower", "trapezoid_s"),
    "sweep.sweep_partition.chains": ("count", "lower", "trapezoid_s"),
    "simulate.estimate_scaling.seq.busy_s": ("s", "lower", "simulate_seq_s"),
    "simulate.estimate_scaling.seq.per_trial_s": ("s", "lower", "simulate_seq_s"),
    "simulate.estimate_scaling.seq.mean_count": ("count", "lower", "simulate_seq_s"),
    "simulate.estimate_scaling.set.busy_s": ("s", "lower", "simulate_set_s"),
    "simulate.estimate_scaling.set.per_trial_s": ("s", "lower", "simulate_set_s"),
    "simulate.estimate_scaling.set.mean_count": ("count", "lower", "simulate_set_s"),
    "formats.self_s": ("s", "lower", "every *_s"),
    "flow.self_s": ("s", "lower", _KWIDTH),
    "greedy.self_s": ("s", "lower", "intervals_*_s, max_heapable_s, permutation_s"),
    "sweep.self_s": ("s", "lower", "trapezoid_s"),
    "simulate.self_s": ("s", "lower", "simulate_seq_s, simulate_set_s"),
    "cli.overhead_s": ("s", "lower", "every *_s"),
    "trace.overhead_s": ("s", "lower", "none (cost of the spans themselves)"),
    **{f"cli.{name}": ("s", "lower", name) for name in SUBCOMMAND},
}

# Nominal time of worker.reference_kernel.  A reported time is a raw time
# scaled by REFERENCE_S / (reference kernel time measured around it): the
# seconds it would take on a host where the kernel takes REFERENCE_S.
REFERENCE_S = 0.1


def local_scale(reference: list[float], index: int) -> float:
    """Scale for a call made when ``index`` reference samples had been taken:
    the median of the two samples before it and the two after it."""
    return REFERENCE_S / statistics.median(reference[max(0, index - 2): index + 2])


def median_call_times(passes: list[dict], reference: list[float] | None = None) -> dict[str, float]:
    """Median untraced time per subcommand metric; scaled when ``reference`` is given."""
    times: dict[str, list[float]] = {}
    for p in passes:
        if not p["traced"]:
            for call in p["calls"]:
                scale = local_scale(reference, call["reference_index"]) if reference else 1.0
                times.setdefault(call["metric"], []).append(call["elapsed"] * scale)
    return {metric: statistics.median(values) for metric, values in times.items()}


def _traced_passes(passes: list[dict], spans: list[dict]) -> dict[int, dict[str, float]]:
    """Per traced pass index: busy time per span name, self time per layer, totals, counters."""
    by_pass: dict[int, dict[str, float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        values = by_pass.setdefault(int(span["run"].split(":", 1)[0]), {})
        duration = span["end"] - span["start"]
        if span["name"].startswith("cli."):
            key = "traced_total_s"
        else:
            key = f"{span['name']}.busy_s"
            if span["parent"] is not None:
                values["traced_layers_s"] = values.get("traced_layers_s", 0.0) + duration
                layer = f"{layer_of(span['name'])}.self_s"
                values[layer] = values.get(layer, 0.0) + self_s
        values[key] = values.get(key, 0.0) + duration
    for p in passes:
        if p["traced"]:
            values = by_pass.setdefault(p["index"], {})
            for call in p["calls"]:
                for key, value in call["counters"].items():
                    values[key] = values.get(key, 0) + value
    return by_pass


def layer_metrics(passes: list[dict], spans: list[dict], trials: int | None) -> dict[str, float]:
    """Every PER_LAYER metric; 0 for a layer the workload never calls.

    Times are medians over traced passes.  Counts come from the first traced
    pass, so they repeat exactly for a seed.  Each traced pass re-enacts the
    inputs of the untraced pass before it, and the overheads compare the two.
    """
    traced = _traced_passes(passes, spans)
    untraced_total = {p["index"]: sum(c["elapsed"] for c in p["calls"])
                      for p in passes if not p["traced"]}
    first = traced[min(traced)]
    med = {key: statistics.median(values.get(key, 0) for values in traced.values())
           for key in {key for values in traced.values() for key in values}}

    def paired(fn) -> float:
        return statistics.median(fn(untraced_total[i - 1], values) for i, values in traced.items())

    def ratio(num: str, den: str) -> float:
        return first[num] / first[den] if first.get(den) else 0.0

    calls = median_call_times(passes)
    derived = {
        "flow.matched_fraction": ratio("flow.matching.size", "flow.elements"),
        "greedy.greedy_max_heapable_subset.accepted_ratio": ratio(
            "greedy.greedy_max_heapable_subset.accepted",
            "greedy.greedy_max_heapable_subset.attempted"),
        "cli.overhead_s": paired(lambda u, t: u - t.get("traced_layers_s", 0.0)),
        "trace.overhead_s": paired(lambda u, t: t.get("traced_total_s", 0.0) - u),
        **{f"cli.{name}": calls.get(name, 0.0) for name in SUBCOMMAND},
    }
    for mode in ("seq", "set"):
        busy = med.get(f"simulate.estimate_scaling.{mode}.busy_s", 0.0)
        derived[f"simulate.estimate_scaling.{mode}.per_trial_s"] = busy / trials if trials else 0.0
    result = {}
    for name, (unit, _, _) in PER_LAYER.items():
        if name in derived:
            result[name] = derived[name]
        elif unit == "s":
            result[name] = med.get(name, 0.0)
        else:
            result[name] = first.get(name, 0)
    return result
