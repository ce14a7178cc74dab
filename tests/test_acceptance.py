"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  All
randomness is seeded, so results are identical across runs.

Criteria 7a and 7b check the two domination lemmas behind greedy
optimality, insertion and adjacent transposition.  Domination compares slot
signatures from the largest value down; that is the relation best-fit
insertion preserves, for multisets of any sizes.

Criterion 9 checks how the k=1 chain count of random interval sequences
grows.  About n/2 of the intervals contain 1/2, those pairwise overlap, and
at k=1 no two of them share a chain, so the count is at least the largest
clique and grows like n/2, not like sqrt(n).  The test asserts that bound
per trial and the n/2 rate on the mean.
"""

from __future__ import annotations

import math
import random
import time
import warnings

from heapchains import (
    Interval,
    MODE_SEQUENCE,
    MODE_SORTED_SET,
    SimConfig,
    chain_signatures,
    dominates,
    estimate_scaling,
    formats,
    greedy_max_heapable_subset,
    greedy_partition_sequence,
    greedy_partition_set,
    insert_interval,
    k_width,
    max_clique_intervals,
    oracle_k_width,
    oracle_max_heapable,
    oracle_width_antichain,
    poset_from_box_set,
    poset_from_interval_sequence,
    poset_from_interval_set,
    run_process,
    sample_intervals,
    signature,
    sweep_partition,
    trial_rng,
    verify_forest,
)
from heapchains.cli import run

from conftest import (
    S1_PAIRS,
    all_posets,
    dominated_pair,
    random_boxes_distinct,
    random_intervals,
    random_intervals_distinct,
    random_poset,
)


def _report(criterion: str, ok: bool, detail: str) -> str:
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print("\n" + line)
    return line


def test_criterion_1_worked_example_reproduction(tmp_path, capsys):
    start = time.perf_counter()
    csv_path = tmp_path / "s1.csv"
    csv_path.write_text("".join(f"{a},{b}\n" for a, b in S1_PAIRS))
    witness_path = tmp_path / "s1_forest.json"
    status = run(
        ["intervals-seq", "--k", "2", "--input", str(csv_path), "--witness", str(witness_path)]
    )
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start

    forest = formats.load_forest_json(witness_path)
    items = [Interval(a, b) for a, b in S1_PAIRS]
    sigs = chain_signatures(forest, items)
    roots = [(items[r].left, items[r].right) for r in forest.roots]
    ok = (
        status == 0
        and out.strip().splitlines()[-1] == "3"
        and roots == [(1, 7), (1, 11), (1, 2)]
        and sigs[0] == (9, 9, 16, 16)
        and sigs[1] == (11, 16, 16, 17, 17)
        and sigs[6] == (7, 7, 19, 19)
        and elapsed < 1.0
    )
    detail = f"count 3, roots {roots}, signatures exact, {elapsed:.3f}s"
    line = _report("1 (worked ten-interval example, k=2)", ok, detail)
    assert ok, line


def _criterion_2_3_instances():
    instances = []
    for n in range(1, 5):
        instances.extend(all_posets(n))
    rng = random.Random(1001)
    for _ in range(500):
        instances.append(random_poset(rng, max_n=7))
    return instances


def test_criterion_2_flow_matches_oracle():
    start = time.perf_counter()
    instances = _criterion_2_3_instances()
    mismatches = 0
    for poset in instances:
        for k in (1, 2, 3):
            if k_width(poset, k)[0] != oracle_k_width(poset, k):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    detail = f"{len(instances)} posets x k in {{1,2,3}}, {mismatches} mismatches, {elapsed:.1f}s"
    line = _report("2 (flow == exhaustive oracle)", ok, detail)
    assert ok, line


def test_criterion_3_k1_width_is_antichain_size():
    mismatches = 0
    instances = _criterion_2_3_instances()
    for poset in instances:
        if k_width(poset, 1)[0] != oracle_width_antichain(poset):
            mismatches += 1
    ok = mismatches == 0
    line = _report(
        "3 (k=1 width == largest antichain)",
        ok,
        f"{len(instances)} posets, {mismatches} mismatches",
    )
    assert ok, line


def test_criterion_4_greedy_matches_flow():
    start = time.perf_counter()
    rng = random.Random(1004)
    mismatches = 0
    for trial in range(210):
        k = trial % 3 + 1
        items = random_intervals(rng, rng.randint(1, 40))
        if greedy_partition_sequence(items, k)[0] != k_width(poset_from_interval_sequence(items), k)[0]:
            mismatches += 1
    for trial in range(210):
        k = trial % 3 + 1
        items = random_intervals(rng, rng.randint(1, 40))
        if greedy_partition_set(items, k)[0] != k_width(poset_from_interval_set(items), k)[0]:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    line = _report(
        "4 (greedy == flow, sequences and sets)",
        ok,
        f"210 sequences + 210 sets, n <= 40, {mismatches} mismatches, {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_5_sweep_matches_flow():
    rng = random.Random(1005)
    mismatches = 0
    for trial in range(210):
        k = trial % 3 + 1
        boxes = random_boxes_distinct(rng, rng.randint(1, 40))
        if sweep_partition(boxes, k)[0] != k_width(poset_from_box_set(boxes), k)[0]:
            mismatches += 1
    ok = mismatches == 0
    line = _report(
        "5 (sweep == flow on box sets)", ok, f"210 box sets, {mismatches} mismatches"
    )
    assert ok, line


def test_criterion_6_max_heapable_matches_oracle():
    rng = random.Random(1006)
    mismatches = 0
    for trial in range(210):
        k = trial % 2 + 1
        items = random_intervals(rng, rng.randint(1, 10))
        if len(greedy_max_heapable_subset(items, k)[0]) != oracle_max_heapable(items, k):
            mismatches += 1
    ok = mismatches == 0
    line = _report(
        "6 (greedy max-heapable == subset oracle)",
        ok,
        f"210 sets, n <= 10, k in {{1,2}}, {mismatches} mismatches",
    )
    assert ok, line


def test_criterion_7a_insertion_preserves_domination():
    rng = random.Random(1007)
    violations = 0
    first = None
    done = 0
    while done < 10_000:
        a, b = dominated_pair(rng)
        x = rng.randint(0, 26)
        item = Interval(x, rng.randint(x, x + 12))
        k = rng.randint(1, 3)
        compat_b = [s for s in b if s <= item.left]
        if not compat_b:
            continue  # the arbitrary-slot side needs a valid choice
        done += 1
        a2, _ = insert_interval(a, item, k)
        b2, _ = insert_interval(b, item, k, choose=rng.choice(compat_b))
        if not dominates(a2, b2):
            violations += 1
            if first is None:
                first = (a, b, (item.left, item.right), k, a2, b2)
    ok = violations == 0
    detail = f"{done} trials, {violations} violations"
    if first is not None:
        detail += (
            f"; e.g. A={first[0]} B={first[1]} insert {first[2]} k={first[3]}"
            f" -> A'={first[4]} B'={first[5]} (top-aligned domination lost)"
        )
    line = _report("7a (best-fit insertion preserves domination)", ok, detail)
    assert ok, line


def test_criterion_7b_transposition_domination():
    rng = random.Random(1008)
    violations = 0
    first = None
    for _ in range(10_000):
        items = random_intervals(rng, rng.randint(2, 10))
        k = rng.randint(1, 3)
        r = rng.randint(0, len(items) - 2)
        if (items[r].right, items[r].left) > (items[r + 1].right, items[r + 1].left):
            items[r], items[r + 1] = items[r + 1], items[r]
        swapped = items[:]
        swapped[r], swapped[r + 1] = swapped[r + 1], swapped[r]
        sig_sorted = _final_multiset(items, k)
        sig_swapped = _final_multiset(swapped, k)
        if not dominates(sig_sorted, sig_swapped):
            violations += 1
            if first is None:
                first = ([(i.left, i.right) for i in items], k, r, sig_sorted, sig_swapped)
    ok = violations == 0
    detail = f"10000 trials, {violations} violations"
    if first is not None:
        detail += f"; e.g. items={first[0]} k={first[1]} r={first[2]}: {first[3]} vs {first[4]}"
    line = _report("7b (adjacent transposition keeps domination)", ok, detail)
    assert ok, line


def _final_multiset(items, k):
    _, forest, _ = greedy_partition_sequence(items, k)
    return signature(v for sig in chain_signatures(forest, items).values() for v in sig)


def test_criterion_7c_deletion_domination():
    rng = random.Random(1009)
    violations = 0
    for _ in range(10_000):
        values = sorted(rng.randint(0, 30) for _ in range(rng.randint(2, 10)))
        i, j = sorted(rng.sample(range(len(values)), 2))
        smaller, larger = values[i], values[j]
        s1 = list(values)
        s1.remove(larger)
        s2 = list(values)
        s2.remove(smaller)
        if not dominates(s1, s2):
            violations += 1
    ok = violations == 0
    line = _report(
        "7c (removing the larger slot dominates)", ok, f"10000 trials, {violations} violations"
    )
    assert ok, line


def test_criterion_8_process_greedy_identity():
    mismatches = 0
    for seed in range(100):
        k = seed % 3 + 1
        n = 60 + seed
        items = sample_intervals(trial_rng(seed, 0), n)
        if run_process(n, k, trial_rng(seed, 0))[0] != greedy_partition_sequence(items, k)[0]:
            mismatches += 1
        config = SimConfig(n=n, k=k, trials=1, seed=seed, mode=MODE_SORTED_SET)
        if estimate_scaling(config).counts[0] != greedy_partition_set(items, k)[0]:
            mismatches += 1
    ok = mismatches == 0
    line = _report(
        "8 (particle process == greedy, both variants)",
        ok,
        f"100 seeds, {mismatches} mismatches",
    )
    assert ok, line


def test_criterion_9_k1_sqrt_scaling():
    # The name is the criterion's old label, when it asserted sqrt(n) growth.
    # The clique bound rules that out: intervals sharing a point pairwise
    # overlap, so at k=1 each needs its own chain, and about n/2 of them
    # contain 1/2.  Uniform floats have distinct endpoints almost surely,
    # the setting of criterion 11.
    start = time.perf_counter()
    n, seed = 10_000, 1010
    stats = estimate_scaling(SimConfig(n=n, k=1, trials=100, seed=seed, mode=MODE_SEQUENCE))
    below = [
        trial
        for trial, count in enumerate(stats.counts)
        if count < max_clique_intervals(sample_intervals(trial_rng(seed, trial), n))
    ]
    elapsed = time.perf_counter() - start
    rate = stats.mean / n
    ok = not below and abs(rate - 0.5) <= 0.02 and elapsed < 120.0
    detail = (
        f"mean {stats.mean:.1f} chains, mean/n = {rate:.4f} vs 0.5 (tolerance 0.02), "
        f"{len(below)} of {len(stats.counts)} trials below their max clique, {elapsed:.1f}s"
    )
    if below:
        detail += f"; first such trial {below[0]}"
    line = _report("9 (k=1 chain count >= max clique, ~ n/2)", ok, detail)
    assert ok, line


def test_criterion_10_conjectured_scaling_exploratory():
    start = time.perf_counter()
    lines = []
    worst = 0.0
    for mode in (MODE_SEQUENCE, MODE_SORTED_SET):
        for k in (2, 3, 4):
            stats = estimate_scaling(SimConfig(n=100_000, k=k, trials=20, seed=1011, mode=mode))
            target = 1 / (k + 1)
            diff = abs(stats.normalized - target)
            worst = max(worst, diff)
            lines.append(
                f"  {mode} k={k}: mean/n = {stats.normalized:.4f} vs {target:.4f} (|diff| {diff:.4f})"
            )
    elapsed = time.perf_counter() - start
    ok = worst <= 0.02 and elapsed < 300.0
    _report(
        "10 (exploratory: mean/n -> 1/(k+1) for k in {2,3,4})",
        ok,
        f"worst |diff| {worst:.4f} (tolerance 0.02), {elapsed:.0f}s",
    )
    for line in lines:
        print(line)
    if not ok:
        # Exploratory by design: the constant is only conjectured, so an
        # out-of-tolerance estimate is reported without failing the build.
        warnings.warn(f"exploratory scaling estimate off target: worst diff {worst:.4f}")


def test_criterion_11_clique_crosscheck():
    rng = random.Random(1012)
    mismatches = 0
    for _ in range(210):
        items = random_intervals_distinct(rng, rng.randint(1, 30))
        if greedy_partition_set(items, 1)[0] != max_clique_intervals(items):
            mismatches += 1
    ok = mismatches == 0
    line = _report(
        "11 (k=1 greedy == max pairwise-intersecting)",
        ok,
        f"210 distinct-endpoint sets, {mismatches} mismatches",
    )
    assert ok, line
