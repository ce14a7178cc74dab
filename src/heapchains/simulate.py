"""Monte-Carlo estimation of chain-count scaling for random intervals.

Arrivals are random subintervals of (0, 1): each [a, b] takes one life from
the largest live particle with value at most a (starting a new chain when no
such particle exists) and then inserts b as a fresh particle with k lives.
This is the multiset Hammersley process of Istrate and Bonchis (CPM 2015).
Live particles coincide with the greedy algorithm's open slots, so per-seed
counts match ``greedy_partition_sequence`` exactly; sorting arrivals by
(right, left) before feeding the process gives the set variant.

Each trial ranks its draws exactly with ``np.unique`` (equal floats share a
rank) and runs the process on the counted slot pool of
``heapchains.greedy``, with one owner per arrival.  Floats come back only
where ``run_process`` reports the final particles.

Each trial derives its own generator from the root seed by a counter-based
spawn, so trial order never affects results.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass

import numpy as np

from .greedy import _SlotPool
from .poset import Interval, _check_arity

MODE_SEQUENCE = "seq"
MODE_SORTED_SET = "set"
_MODES = (MODE_SEQUENCE, MODE_SORTED_SET)


@dataclass(frozen=True)
class SimConfig:
    n: int
    k: int
    trials: int
    seed: int
    mode: str = MODE_SEQUENCE

    def __post_init__(self):
        _check_arity(self.k)
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class SimStats:
    counts: tuple[int, ...]
    mean: float
    normalized: float
    stderr: float


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent generator for one trial, derived from the root seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


def random_interval(rng: np.random.Generator) -> Interval:
    """One random subinterval of (0, 1): two uniform draws, sorted."""
    u, v = rng.random(2).tolist()
    return Interval(min(u, v), max(u, v))


def sample_intervals(rng: np.random.Generator, n: int) -> list[Interval]:
    """n random intervals, consuming the stream exactly like n random_interval calls."""
    return [Interval(min(u, v), max(u, v)) for u, v in _sample_pairs(rng, n)]


def _sample_pairs(rng: np.random.Generator, n: int) -> list[tuple[float, float]]:
    draws = rng.random(2 * n).tolist()
    return [
        (draws[2 * i], draws[2 * i + 1])
        if draws[2 * i] <= draws[2 * i + 1]
        else (draws[2 * i + 1], draws[2 * i])
        for i in range(n)
    ]


def _ranked_pairs(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct draws ascending, and each pair's lower and upper rank
    among them; draws 2i and 2i + 1 form pair i."""
    values, ranks = np.unique(draws, return_inverse=True)
    firsts, seconds = ranks[0::2], ranks[1::2]
    return values, np.minimum(firsts, seconds), np.maximum(firsts, seconds)


def _particle_process(lefts, rights, ranks: int, k: int) -> tuple[int, _SlotPool]:
    """Run arrivals given as rank arrays; return the new-chain count and the
    pool of live particles."""
    pool = _SlotPool(ranks, len(lefts))
    take_best, open_slots = pool.take_best, pool.open
    count = 0
    for owner, (left, right) in enumerate(zip(lefts.tolist(), rights.tolist())):
        if take_best(left) is None:
            count += 1
        open_slots(right, owner, k)
    return count, pool


def _chain_count(pairs, k: int) -> int:
    """New chains the process starts on float (left, right) pairs, in order."""
    values, lefts, rights = _ranked_pairs(np.asarray(pairs, dtype=float).reshape(-1))
    return _particle_process(lefts, rights, len(values), k)[0]


def run_process(n: int, k: int, rng: np.random.Generator) -> tuple[int, tuple[float, ...]]:
    """Run the interval particle process on n random arrivals.

    Returns the number of new chains and the final live-particle multiset
    (each particle value repeated once per remaining life).
    """
    _check_arity(k)
    values, lefts, rights = _ranked_pairs(rng.random(2 * n))
    count, pool = _particle_process(lefts, rights, len(values), k)
    values = values.tolist()
    return count, tuple(values[rank] for rank in pool.ranks())


def normalized_count(count: float, n: int, k: int) -> float:
    """count/sqrt(n) at k=1, count/n for k >= 2."""
    if n == 0:
        return math.nan
    return count / math.sqrt(n) if k == 1 else count / n


def estimate_scaling(config: SimConfig) -> SimStats:
    """Independent seeded trials of the process; aggregates per-trial chain counts."""
    counts = []
    for trial in range(config.trials):
        draws = trial_rng(config.seed, trial).random(2 * config.n)
        values, lefts, rights = _ranked_pairs(draws)
        if config.mode == MODE_SORTED_SET:
            order = np.lexsort((lefts, rights))
            lefts, rights = lefts[order], rights[order]
        counts.append(_particle_process(lefts, rights, len(values), config.k)[0])
    mean = statistics.fmean(counts)
    stderr = (
        statistics.stdev(counts) / math.sqrt(config.trials) if config.trials > 1 else 0.0
    )
    return SimStats(tuple(counts), mean, normalized_count(mean, config.n, config.k), stderr)


def write_trials_csv(path, config: SimConfig, stats: SimStats) -> None:
    """One row per trial: trial, n, k, mode, count, normalized."""
    with open(path, "w", newline="") as handle:
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
