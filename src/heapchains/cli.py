"""Command-line interface.

Every subcommand prints its primary numeric result (a chain count or subset
size) as the last line of standard output, so scripts can consume results
without JSON parsing.  Witness forests and simulation CSVs are written only
when the corresponding flags ask for them.

Exit codes: 0 success, 1 usage error, 2 input error.  Only the exception
types in ``_INPUT_ERRORS`` count as input errors; any other exception is a
bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from . import formats
from .flow import k_width
from .greedy import (
    ATTACHED,
    NEW_CHAIN,
    _set_chain_count,
    best_fit_trace,
    greedy_max_heapable_subset,
    greedy_partition_permutation,
    greedy_partition_sequence,
    greedy_partition_set,
)
from .oracle import (
    TooLarge,
    max_clique_intervals,
    oracle_k_width,
    oracle_max_heapable,
    oracle_width_antichain,
)
from .poset import (
    Box,
    CycleError,
    HeapForest,
    IdOutOfRange,
    Interval,
    NotAPermutation,
    poset_from_box_set,
    poset_from_interval_sequence,
    poset_from_interval_set,
    poset_from_permutation,
    verify_forest,
)
from .simulate import (
    MODE_SEQUENCE,
    MODE_SORTED_SET,
    SimConfig,
    _all_trial_counts,
    estimate_scaling,
    run_process,
    sample_intervals,
    trial_rng,
    write_trials_csv,
)
from .sweep import sweep_partition

_INPUT_ERRORS = (
    formats.InputFormatError,
    OSError,
    CycleError,
    IdOutOfRange,
    NotAPermutation,
    TooLarge,
)


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _print_trace(trace) -> None:
    for step in trace:
        if step.kind == ATTACHED:
            print(f"item {step.item}: attached to {step.parent} via slot {step.slot}")
        elif step.kind == NEW_CHAIN:
            print(f"item {step.item}: new chain")
        else:
            print(f"item {step.item}: rejected")


def _emit(count, forest, trace=None, *, args) -> int:
    if args.trace:
        _print_trace(trace)
    if args.witness:
        formats.save_forest_json(args.witness, forest)
    print(count)
    return 0


def _cmd_solve(load, solve, args) -> int:
    """Load ``--input``, solve at ``--k`` and emit (count, forest[, trace])."""
    return _emit(*solve(load(args.input), args.k), args=args)


def _cmd_max_heapable(args) -> int:
    items = formats.load_intervals_csv(args.input)
    subset, forest, trace = greedy_max_heapable_subset(items, args.k)
    if subset:
        print("subset:", " ".join(str(i) for i in subset))
    return _emit(len(subset), forest, trace, args=args)


def _cmd_permutation(args) -> int:
    perm = formats.load_permutation(args.input)
    count, forest = greedy_partition_permutation(perm, args.k)
    trace = best_fit_trace(forest, perm, range(len(perm))) if args.trace else None
    return _emit(count, forest, trace, args=args)


def _cmd_simulate(args) -> int:
    config = SimConfig(n=args.n, k=args.k, trials=args.trials, seed=args.seed, mode=args.mode)
    stats = estimate_scaling(config)
    if args.csv:
        write_trials_csv(args.csv, config, stats)
    print(f"mean count {stats.mean:.6g} over {config.trials} trials (stderr {stats.stderr:.3g})")
    print(f"{stats.normalized:.6g}")
    return 0


_ORACLES = {  # --what: the input flag, its loader, and the answer from the input and --k
    "kwidth": ("poset", formats.load_poset_json, oracle_k_width),
    "maxheap": ("input", formats.load_intervals_csv, oracle_max_heapable),
    "antichain": ("poset", formats.load_poset_json, lambda p, k: oracle_width_antichain(p)),
    "clique": ("input", formats.load_intervals_csv, lambda items, k: max_clique_intervals(items)),
}


def _cmd_oracle(args) -> int:
    flag, load, answer = _ORACLES[args.what]
    path = getattr(args, flag)
    if not path:
        raise formats.InputFormatError(f"oracle {args.what} needs --{flag}")
    print(answer(load(path), args.k))
    return 0


def _random_intervals(rng: random.Random, n: int) -> list[Interval]:
    items = []
    for _ in range(n):
        a, b = rng.randint(0, 3 * n + 2), rng.randint(0, 3 * n + 2)
        items.append(Interval(min(a, b), max(a, b)))
    return items


def _cmd_crosscheck(args) -> int:
    rng = random.Random(args.seed)
    failures = []

    def check(name, solve, build, instance, trial, bound=None):
        """Fail the trial unless ``solve`` matches flow's count with a valid
        witness forest, and ``bound``, a count alone, if given, matches it too."""
        k = trial % 3 + 1
        try:
            poset = build(instance)
        except CycleError:  # a repeated point: the family has no order to compare
            return
        (got, forest), want = solve(instance, k)[:2], k_width(poset, k)[0]
        if got != want:
            failures.append(f"{name} {got} != flow {want} (trial {trial}, k={k})")
        elif len(forest.roots) != got or not verify_forest(poset, forest, k):
            failures.append(f"{name} witness is not {got} valid chains (trial {trial}, k={k})")
        if bound is not None and (count := bound(instance, k)) != want:
            failures.append(f"{name} matching bound {count} != flow {want} (trial {trial}, k={k})")

    def set_bound(items, k):
        return _set_chain_count([i.left for i in items], [i.right for i in items], k)

    for trial in range(args.trials):
        items = _random_intervals(rng, rng.randint(1, 24))
        check("sequence greedy", greedy_partition_sequence, poset_from_interval_sequence,
              items, trial)
        check("set greedy", greedy_partition_set, poset_from_interval_set, items, trial,
              set_bound)
    print(f"greedy vs flow: {args.trials} trials")

    for trial in range(args.trials):
        k = trial % 3 + 1
        n = rng.randint(1, 200)
        items = sample_intervals(trial_rng(args.seed + trial, 0), n)
        got = run_process(n, k, trial_rng(args.seed + trial, 0))[0]
        want = greedy_partition_sequence(items, k)[0]
        if got != want:
            failures.append(f"process {got} != greedy {want} (trial {trial}, k={k})")
    print(f"process vs greedy: {args.trials} trials")

    for trial in range(args.trials):
        boxes = []
        for _ in range(rng.randint(1, 12)):
            x1, y1, x2, y2 = (rng.randint(0, 2) for _ in range(4))
            boxes.append(Box((min(x1, x2), min(y1, y2)), (max(x1, x2), max(y1, y2))))
        check("sweep", sweep_partition, poset_from_box_set, boxes, trial)
    print(f"sweep vs flow: {args.trials} trials")

    for trial in range(args.trials):
        perm = list(range(rng.randint(1, 24)))
        rng.shuffle(perm)
        check("permutation greedy", greedy_partition_permutation, poset_from_permutation,
              perm, trial)
    print(f"permutation greedy vs flow: {args.trials} trials")

    # Three trials per k and mode, on forked workers wherever the process may
    # use more than one CPU, however small the instance; drawn after the
    # families above, so they see the same instances with or without this one.
    for k in (1, 2, 3):
        n, seed = rng.randint(1, 200), args.seed + k
        for mode, greedy in ((MODE_SEQUENCE, greedy_partition_sequence),
                             (MODE_SORTED_SET, greedy_partition_set)):
            counts = _all_trial_counts(SimConfig(n, k, 3, seed, mode), 0)
            for trial, got in enumerate(counts):
                want = greedy(sample_intervals(trial_rng(seed, trial), n), k)[0]
                if got != want:
                    failures.append(f"trials {mode} {got} != greedy {want} (trial {trial}, k={k})")
    print("parallel trials vs greedy: 18 trials")

    # Max-heapable against the brute-force oracle, drawn last for the same reason.
    for trial in range(args.trials):
        k, items = trial % 3 + 1, _random_intervals(rng, rng.randint(1, 8))
        try:
            poset_from_interval_set(items)
        except CycleError:  # a repeated point, as in check
            continue
        subset, forest, _ = greedy_max_heapable_subset(items, k)
        want = oracle_max_heapable(items, k)
        # The forest on the subset's own poset: item subset[i] is element i.
        index = {e: i for i, e in enumerate(subset)}
        chain = HeapForest(k, {index[e]: p if p is None else index[p]
                               for e, p in forest.parent.items()})
        if len(subset) != want:
            failures.append(f"max-heapable {len(subset)} != oracle {want} (trial {trial}, k={k})")
        elif len(chain.roots) > 1 or not verify_forest(
                poset_from_interval_set([items[e] for e in subset]), chain, k):
            failures.append(f"max-heapable witness is not one valid chain (trial {trial}, k={k})")
    print(f"max-heapable vs oracle: {args.trials} trials")

    if failures:
        for line in failures:
            print(f"MISMATCH: {line}", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


@functools.cache  # parse_args leaves the parser unchanged, so one per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heapchains",
        description="Minimum partitions of posets, intervals and boxes into k-ary chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    def solver(name, handler, summary, flag="--input", flag_help="interval CSV file", trace=True):
        p = add(name, handler, summary)
        p.set_defaults(trace=False)
        p.add_argument("--k", type=_positive_int, required=True)
        p.add_argument(flag, dest="input", metavar=flag[2:].upper(), required=True, help=flag_help)
        p.add_argument("--witness", help="write the chain forest as JSON")
        if trace:
            p.add_argument("--trace", action="store_true", help="print one greedy event per line")

    def plain(load, solve):
        return functools.partial(_cmd_solve, load, solve)

    solver("kwidth", plain(formats.load_poset_json, k_width),
           "exact k-width of a poset via max flow",
           flag="--poset", flag_help="poset JSON file", trace=False)
    solver("intervals-seq", plain(formats.load_intervals_csv, greedy_partition_sequence),
           "greedy partition of an interval sequence")
    solver("intervals-set", plain(formats.load_intervals_csv, greedy_partition_set),
           "greedy partition of an interval set")
    solver("max-heapable", _cmd_max_heapable, "largest single-chain subset of an interval set")
    solver("permutation", _cmd_permutation, "greedy partition of a permutation",
           flag_help="one integer per line")
    solver("trapezoid", plain(formats.load_boxes_csv, sweep_partition),
           "sweep-line partition of boxes", flag_help="box CSV file (lx,ly,ux,uy)", trace=False)

    p = add("simulate", _cmd_simulate, "Monte-Carlo scaling estimate on random intervals")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--n", type=_nonnegative_int, required=True)
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--mode", choices=[MODE_SEQUENCE, MODE_SORTED_SET], default=MODE_SEQUENCE)
    p.add_argument("--csv", help="write per-trial rows to this CSV file")

    p = add("oracle", _cmd_oracle, "brute-force reference answers (small inputs)")
    p.add_argument("--what", choices=list(_ORACLES), required=True)
    p.add_argument("--k", type=_positive_int, default=1)
    p.add_argument("--poset", help="poset JSON (kwidth, antichain)")
    p.add_argument("--input", help="interval CSV (maxheap, clique)")

    p = add("crosscheck", _cmd_crosscheck, "run the built-in solver identities")
    p.add_argument("--trials", type=_positive_int, default=50)
    p.add_argument("--seed", type=_nonnegative_int, default=0)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
