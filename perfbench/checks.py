"""The benchmark's own output checks.

``check_output`` validates one subcommand's printed lines and output file
with code that shares nothing with ``heapchains``: the order each witness
must respect comes from the generator's own data.  ``cross_checks`` compares
counts across solver families (run outside the timed section); those do call
the library, since agreement between independent solvers is the point.
"""

from __future__ import annotations

import bisect
import csv
import json
from fractions import Fraction

PREFIX = 300  # items per greedy-files prefix checked against exact flow


# --- orders, from generator data ---------------------------------------------

def _interval_dominance(items):
    return lambda p, c: items[p][1] <= items[c][0]


def _sequence_order(items):
    return lambda p, c: p < c and items[p][1] <= items[c][0]


def _permutation_order(perm):
    position = [0] * len(perm)
    for idx, value in enumerate(perm):
        position[value] = idx
    return lambda p, c: p < c and position[p] < position[c]


def _box_dominance(boxes):
    return lambda p, c: boxes[p][2] <= boxes[c][0] and boxes[p][3] <= boxes[c][1]


def _order_and_size(data: dict, cmd: dict):
    """(precedes, element count) for the witness of one subcommand."""
    metric = cmd["metric"]
    if metric == "kwidth_wide_s":
        return _interval_dominance(data["wide"]), len(data["wide"])
    if metric == "kwidth_narrow_s":
        return _permutation_order(data["narrow_perm"]), len(data["narrow_perm"])
    if metric == "intervals_seq_s":
        return _sequence_order(data["intervals"]), len(data["intervals"])
    if metric in ("intervals_set_s", "max_heapable_s"):
        return _interval_dominance(data["intervals"]), len(data["intervals"])
    if metric == "permutation_s":
        return _permutation_order(data["perm"]), len(data["perm"])
    if metric == "trapezoid_s":
        return _box_dominance(data["boxes"]), len(data["boxes"])
    raise ValueError(f"no witness order for {metric}")


# --- per-call output checks ----------------------------------------------------

def validate_forest(path: str, n: int, k: int, precedes, single_tree: bool):
    """Check a witness forest file; returns (roots, covered elements) or raises ValueError.

    Every parent must strictly precede its child, which also rules out
    cycles; no node has more than k children.  A full partition covers
    0..n-1 exactly; a single tree (max-heapable) covers a subset.
    """
    with open(path) as handle:
        data = json.load(handle)
    if data.get("k") != k:
        raise ValueError(f"forest arity {data.get('k')!r}, expected {k}")
    roots = [int(r) for r in data["roots"]]
    parent = {int(c): int(p) for c, p in data["parent"].items()}
    covered = set(roots) | set(parent)
    if len(roots) + len(parent) != len(covered):
        raise ValueError("an element is listed twice")
    if single_tree:
        if not covered <= set(range(n)) or len(roots) != (1 if n else 0):
            raise ValueError(f"not a single tree over a subset of 0..{n - 1}")
    elif covered != set(range(n)):
        raise ValueError(f"forest covers {len(covered)} elements, expected 0..{n - 1}")
    children = dict.fromkeys(covered, 0)
    for child, par in parent.items():
        if par not in children:
            raise ValueError(f"parent {par} of {child} is not in the forest")
        children[par] += 1
        if children[par] > k:
            raise ValueError(f"element {par} has more than k={k} children")
        if not precedes(par, child):
            raise ValueError(f"parent {par} does not precede child {child}")
    return roots, covered


def _check_simulate_csv(path: str, data: dict, mode: str, last: str) -> list[int]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if rows[0] != ["trial", "n", "k", "mode", "count", "normalized"]:
        raise ValueError(f"bad CSV header {rows[0]!r}")
    n, k, trials = data["n"], data["k"], data["trials"]
    counts = []
    for trial, row in enumerate(rows[1:]):
        if row[:4] != [str(trial), str(n), str(k), mode]:
            raise ValueError(f"bad CSV row {row!r}")
        count = int(row[4])
        if not 0 < count <= n or float(row[5]) != count / n:
            raise ValueError(f"bad count or normalized value in {row!r}")
        counts.append(count)
    if len(counts) != trials:
        raise ValueError(f"{len(counts)} CSV rows, expected {trials}")
    # k >= 2: the CLI normalizes the mean count by n.
    want = f"{sum(counts) / trials / n:.6g}"
    if last != want:
        raise ValueError(f"last line {last!r}, expected {want!r} from the CSV counts")
    return counts


def check_output(data: dict, cmd: dict, call: dict) -> str:
    """Validate one untraced call's lines and output file.

    Returns the count the cross-checks compare: the printed count, or for
    ``simulate`` the trial-0 count of its CSV.  Raises ValueError when the
    call or its output is wrong.
    """
    if call["error"] or call["rc"] != 0:
        raise ValueError(f"exit {call['rc']} {call['error'] or ''}".strip())
    if not call["lines"]:
        raise ValueError("no output")
    last = call["lines"][-1]
    if cmd["sub"] == "simulate":
        counts = _check_simulate_csv(call["out"], data, cmd["params"]["mode"], last)
        return str(counts[0])
    precedes, n = _order_and_size(data, cmd)
    single_tree = cmd["sub"] == "max-heapable"
    roots, covered = validate_forest(call["out"], n, cmd["k"], precedes, single_tree)
    if single_tree:
        listed = call["lines"][0].split()[1:] if len(call["lines"]) == 2 else []
        if [int(x) for x in listed] != sorted(covered) or last != str(len(covered)):
            raise ValueError("printed subset or size differs from the witness")
    elif last != str(len(roots)):
        raise ValueError(f"printed count {last!r}, witness has {len(roots)} roots")
    return last


# --- cross-family count checks ------------------------------------------------

def longest_decreasing(seq) -> int:
    """Patience sorting on the negated sequence."""
    tops: list[int] = []
    for value in seq:
        idx = bisect.bisect_left(tops, -value)
        if idx == len(tops):
            tops.append(-value)
        else:
            tops[idx] = -value
    return len(tops)


def _pairs(m: int, precedes) -> list[tuple[int, int]]:
    return [(p, c) for p in range(m) for c in range(m) if p != c and precedes(p, c)]


def _ranks(values) -> list[int]:
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0] * len(values)
    for rank, idx in enumerate(order):
        ranks[idx] = rank
    return ranks


def cross_checks(workload: str, data: dict, printed: dict) -> list[tuple[str, str, str]]:
    """(name, a, b) per check, where a and b must be equal.

    ``printed`` maps a metric to the count ``check_output`` returned for it;
    a missing entry (a failed call) makes its checks fail.
    """
    from heapchains import (
        Box,
        Interval,
        greedy_partition_permutation,
        greedy_partition_sequence,
        greedy_partition_set,
        k_width,
        poset_from_relations,
        sample_intervals,
        sweep_partition,
        trial_rng,
    )

    results = []
    if workload == "kwidth-exact":
        items = [Interval(a, b) for a, b in data["wide"]]
        got = printed.get("kwidth_wide_s")
        results.append(("wide kwidth vs greedy_partition_set", got,
                        str(greedy_partition_set(items, 2)[0])))
        got = printed.get("kwidth_narrow_s")
        perm = data["narrow_perm"]
        results.append(("narrow kwidth vs greedy_partition_permutation", got,
                        str(greedy_partition_permutation(perm, 1)[0])))
        results.append(("narrow kwidth vs longest decreasing subsequence", got,
                        str(longest_decreasing(perm))))
    elif workload == "greedy-files":
        m = PREFIX
        ivs = data["intervals"][:m]
        items = [Interval(Fraction(a, 1000), Fraction(b, 1000)) for a, b in ivs]
        exact = lambda precedes, k: str(k_width(poset_from_relations(m, _pairs(m, precedes)), k)[0])
        results.append((f"intervals-seq prefix {m}: greedy vs kwidth",
                        exact(_sequence_order(ivs), 2),
                        str(greedy_partition_sequence(items, 2)[0])))
        results.append((f"intervals-set prefix {m}: greedy vs kwidth",
                        exact(_interval_dominance(ivs), 8),
                        str(greedy_partition_set(items, 8)[0])))
        perm = _ranks(data["perm"][:m])
        results.append((f"permutation prefix {m}: greedy vs kwidth",
                        exact(_permutation_order(perm), 2),
                        str(greedy_partition_permutation(perm, 2)[0])))
        boxes = data["boxes"][:m]
        results.append((f"trapezoid prefix {m}: sweep vs kwidth",
                        exact(_box_dominance(boxes), 2),
                        str(sweep_partition([Box((b[0], b[1]), (b[2], b[3])) for b in boxes], 2)[0])))
    elif workload == "simulate":
        n, k, seed = data["n"], data["k"], data["seed"]
        items = sample_intervals(trial_rng(seed, 0), n)
        for mode, greedy in (("seq", greedy_partition_sequence), ("set", greedy_partition_set)):
            results.append((f"simulate {mode} trial 0 vs greedy on the same stream",
                            printed.get(f"simulate_{mode}_s"), str(greedy(items, k)[0])))
    return results
