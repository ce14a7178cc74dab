"""Monte-Carlo estimation of chain-count scaling for random intervals.

Arrivals are random subintervals of (0, 1): each [a, b] takes one life from
the largest live particle with value at most a (starting a new chain when no
such particle exists) and then inserts b as a fresh particle with k lives.
This is the multiset Hammersley process of Istrate and Bonchis (CPM 2015).
Live particles coincide with the greedy algorithm's open slots, so per-seed
counts match ``greedy_partition_sequence`` exactly; sorting arrivals by
(right, left) before feeding the process gives the set variant.

A sequence trial runs the process as the best-fit loop of
``heapchains.greedy`` (``_SlotPool.run``) on one slot pool per trial, with
one slot owner per arrival: ``_SlotPool`` ranks the raw float draws directly
and exactly, and settles ties between equal particles; ``run_process`` reads
the final particles back from the arrivals' floats.  A set trial needs only
the count, and runs no process: ``greedy._set_chain_count`` reads it from the
interval order's matching bound (Hall's theorem on the nested sets of
possible parents) with a few numpy calls, equal to the process's count.

Each trial derives its own generator from the root seed by a counter-based
spawn, so trial order never affects results; ``_draws`` is the one rule
that turns a trial's generator into its arrivals.

Trials are independent, so ``estimate_scaling`` spreads a large enough call
over the CPUs the process may run on: with w = min(trials, CPUs) >= 2 on
Linux, the caller runs trials 0, w, 2w, ... while w - 1 workers forked
through ``multiprocessing`` run the rest, and the counts are gathered in
trial order.  CPUs are those of ``os.sched_getaffinity``, capped by the
process's cgroup v2 CPU quota when it has one.  A call runs serially when w
< 2, off Linux, inside a daemonic process (which may not have children),
when any other Python thread is alive (a fork beside other threads can
deadlock the child), or when it has fewer than ``_FORK_MIN_ARRIVALS``
arrivals in all, where the fork costs more than it saves; a set-mode
arrival costs far less than a sequence-mode one, and counts as a quarter.
Results never depend on which path ran.  Each worker holds one trial at a
time, so a forked call's memory is about w times one trial's.  An error in a
worker's trial is raised again in the caller, a worker that dies raises
``BrokenProcessPool``, and every worker has exited when the call returns or
raises.
"""

from __future__ import annotations

import csv
import math
import os
import statistics
import sys
import threading
from typing import TYPE_CHECKING

from .greedy import _SlotPool, _set_chain_count
from .poset import Interval, _check_arity, _element_id, _record

if TYPE_CHECKING:
    import numpy as np

MODE_SEQUENCE = "seq"
MODE_SORTED_SET = "set"
_MODES = (MODE_SEQUENCE, MODE_SORTED_SET)


@_record
class SimConfig:
    """A simulation: ``trials`` seeded trials of n arrivals each, at arity k, in ``mode``."""

    n: int
    k: int
    trials: int
    seed: int
    mode: str = MODE_SEQUENCE

    def __post_init__(self):
        k = _check_arity(self.k)
        n, trials, seed = (_element_id(v) for v in (self.n, self.trials, self.seed))
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        for name, value in (("n", n), ("k", k), ("trials", trials), ("seed", seed)):
            object.__setattr__(self, name, value)  # frozen: keep the plain ints


@_record
class SimStats:
    """Per-trial chain counts, their mean, the mean normalized by ``normalized_count``,
    and the standard error of the mean."""

    counts: tuple[int, ...]
    mean: float
    normalized: float
    stderr: float


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent generator for one trial, derived from the root seed."""
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


def _draws(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The one sampling rule: arrival i is the sorted pair of draws 2i and 2i + 1."""
    import numpy as np

    draws = rng.random(2 * n)
    firsts, seconds = draws[0::2], draws[1::2]
    return np.minimum(firsts, seconds), np.maximum(firsts, seconds)


def sample_intervals(rng: np.random.Generator, n: int) -> list[Interval]:
    """n random intervals; ``sample_intervals(trial_rng(seed, t), n)`` gives trial t's arrivals."""
    lefts, rights = _draws(rng, n)
    return [Interval(u, v) for u, v in zip(lefts.tolist(), rights.tolist())]


def run_process(n: int, k: int, rng: np.random.Generator) -> tuple[int, tuple[float, ...]]:
    """Run the interval particle process on n random arrivals.

    Returns the number of new chains and the final live-particle multiset
    (each particle value repeated once per remaining life).
    """
    k = _check_arity(k)
    lefts, rights = _draws(rng, n)
    pool = _SlotPool(lefts, rights)
    count = pool.run(range(n), k)[0]
    return count, tuple(rights[pool.owners_left()].tolist())


def normalized_count(count: float, n: int, k: int) -> float:
    """count/sqrt(n) at k=1, count/n for k >= 2."""
    if n == 0:
        return math.nan
    return count / math.sqrt(n) if k == 1 else count / n


def _trial_counts(config: SimConfig, first: int, step: int) -> list[int]:
    """Chain counts of trials first, first + step, ...: a sequence trial runs
    the process on one pool of its draws, a set trial counts by the matching
    bound."""
    counts = []
    for trial in range(first, config.trials, step):
        lefts, rights = _draws(trial_rng(config.seed, trial), config.n)
        if config.mode == MODE_SORTED_SET:
            counts.append(_set_chain_count(lefts, rights, config.k))
        else:
            counts.append(_SlotPool(lefts, rights).run(range(config.n), config.k)[0])
    return counts


# Below this many arrivals (n x trials) a call runs serially.  Measured on a
# 2-CPU host: a fork cycle (start, hand-back, join) costs about 10 ms in a
# process that has forked before and about 30 ms more, mostly imports, in
# one that has not.  A sequence trial costs 1.1-1.2 us per arrival at 100,000
# arrivals in 4 trials, and forked sequence calls broke even near 30,000
# arrivals warm and between 60,000 and 80,000 in a cold call.  A set trial
# costs 0.17-0.24 us per arrival at 100,000-400,000 arrivals, and forked set
# calls broke even between 100,000 and 200,000 arrivals warm and between
# 250,000 and 300,000 cold, about four times further out: so that many
# set-mode arrivals count as one.
_FORK_MIN_ARRIVALS = 65_000
_SET_ARRIVALS_PER_SEQ = 4
# Where a process finds its cgroup v2 path, and the root that path is under.
_CGROUP_FILES = ("/proc/self/cgroup", "/sys/fs/cgroup")


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask, capped by a cgroup v2 CPU quota."""
    cpus = len(os.sched_getaffinity(0))
    try:
        with open(_CGROUP_FILES[0], encoding="ascii") as handle:
            path = next(line[3:].strip() for line in handle if line.startswith("0::"))
        with open(f"{_CGROUP_FILES[1]}{path.rstrip('/')}/cpu.max", encoding="ascii") as handle:
            quota, period = handle.read().split()
        return max(1, min(cpus, math.ceil(int(quota) / int(period))))
    except (OSError, StopIteration, ValueError):  # no cgroup v2, or a quota of "max"
        return cpus


def _processes(config: SimConfig, min_arrivals: int) -> int:
    """How many processes share the trials, the caller included; 1 runs them
    serially.  ``min_arrivals`` counts sequence-mode arrivals."""
    arrivals = config.n * config.trials
    if config.mode == MODE_SORTED_SET:
        arrivals //= _SET_ARRIVALS_PER_SEQ
    if arrivals < min_arrivals:
        return 1
    if sys.platform != "linux" or threading.active_count() > 1:
        return 1  # forking beside another thread can copy a lock it holds
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.current_process().daemon:
        return 1  # a daemonic process may not start children
    return min(config.trials, _cpus())


def _all_trial_counts(config: SimConfig, min_arrivals: int) -> list[int]:
    """Every trial's count, in trial order; of w processes, the caller runs trials 0, w, ...

    ``min_arrivals`` is the fewest arrivals that fork; ``crosscheck`` passes
    0 to check the forked path on small instances.
    """
    w = _processes(config, min_arrivals)
    if w < 2:
        return _trial_counts(config, 0, 1)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # numpy loads numpy.random only on first use; loaded here, before the
    # fork, it is not imported again in every worker (about 40 ms each).
    import numpy.random  # noqa: F401

    counts = [0] * config.trials
    # A worker that dies raises BrokenProcessPool here rather than leaving
    # the caller waiting for its trials; shutdown joins every worker.
    pool = ProcessPoolExecutor(w - 1, mp_context=multiprocessing.get_context("fork"))
    try:
        theirs = [pool.submit(_trial_counts, config, first, w) for first in range(1, w)]
        counts[0::w] = _trial_counts(config, 0, w)
        for first, future in enumerate(theirs, 1):
            counts[first::w] = future.result()
    finally:
        pool.shutdown(cancel_futures=True)
    return counts


def estimate_scaling(config: SimConfig) -> SimStats:
    """Independent seeded trials of the process; aggregates per-trial chain counts."""
    counts = _all_trial_counts(config, _FORK_MIN_ARRIVALS)
    mean = statistics.fmean(counts)
    stderr = (
        statistics.stdev(counts) / math.sqrt(config.trials) if config.trials > 1 else 0.0
    )
    return SimStats(tuple(counts), mean, normalized_count(mean, config.n, config.k), stderr)


def write_trials_csv(path, config: SimConfig, stats: SimStats) -> None:
    """One row per trial: trial, n, k, mode, count, normalized."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["trial", "n", "k", "mode", "count", "normalized"])
        for trial, count in enumerate(stats.counts):
            writer.writerow(
                [
                    trial,
                    config.n,
                    config.k,
                    config.mode,
                    count,
                    repr(normalized_count(count, config.n, config.k)),
                ]
            )
