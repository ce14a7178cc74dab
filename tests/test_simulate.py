import csv
import math
import multiprocessing
import os
import random
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from heapchains import (
    MODE_SEQUENCE,
    MODE_SORTED_SET,
    CycleError,
    Interval,
    SimConfig,
    SimStats,
    chain_signatures,
    estimate_scaling,
    greedy_partition_sequence,
    greedy_partition_set,
    run_process,
    sample_intervals,
    signature,
    simulate,
    trial_rng,
    write_trials_csv,
)


class _FixedDraws:
    """A stand-in generator whose ``random(2n)`` returns the given draws."""

    def __init__(self, draws):
        self.draws = np.array(draws, dtype=float)

    def random(self, size):
        assert size == len(self.draws)
        return self.draws


class TestRandomInterval:
    def test_bounds_and_order(self):
        for item in sample_intervals(trial_rng(0, 0), 500):
            assert 0.0 < item.left <= item.right < 1.0

    def test_deterministic_per_seed(self):
        assert sample_intervals(trial_rng(5, 0), 20) == sample_intervals(trial_rng(5, 0), 20)
        assert sample_intervals(trial_rng(5, 0), 20) != sample_intervals(trial_rng(6, 0), 20)

    def test_mean_length_one_third(self):
        # E|u - v| for independent uniforms is 1/3
        items = sample_intervals(trial_rng(11, 0), 10**5)
        mean = sum(i.right - i.left for i in items) / len(items)
        assert abs(mean - 1 / 3) < 0.01


class TestRunProcess:
    def test_zero_arrivals(self):
        count, particles = run_process(0, 2, trial_rng(0, 0))
        assert count == 0 and particles == ()

    def test_single_arrival(self):
        count, particles = run_process(1, 3, trial_rng(0, 0))
        assert count == 1 and len(particles) == 3

    def test_counts_match_sequence_greedy(self):
        for seed in range(25):
            k = seed % 3 + 1
            count, particles = run_process(120, k, trial_rng(seed, 0))
            items = sample_intervals(trial_rng(seed, 0), 120)
            greedy_count, forest, _ = greedy_partition_sequence(items, k)
            assert count == greedy_count
            slots = signature(
                v for sig in chain_signatures(forest, items).values() for v in sig
            )
            assert particles == slots

    def test_sorted_set_variant_matches_set_greedy(self):
        for seed in range(25):
            k = seed % 3 + 1
            config = SimConfig(n=90, k=k, trials=1, seed=seed, mode=MODE_SORTED_SET)
            stats = estimate_scaling(config)
            items = sample_intervals(trial_rng(seed, 0), 90)
            assert stats.counts[0] == greedy_partition_set(items, k)[0]


class TestTiedEndpoints:
    def test_grid_pairs_match_greedy(self, monkeypatch):
        # Uniform draws never tie; endpoints on a 1/16 grid tie often, so
        # equal floats must share a rank here.  The draws reach the shipped
        # sampler through a stand-in generator, in both modes.
        rng = random.Random(50)
        for _ in range(150):
            n = rng.randint(0, 40)
            draws = [rng.randint(0, 16) / 16 for _ in range(2 * n)]
            stub = _FixedDraws(draws)
            monkeypatch.setattr("heapchains.simulate.trial_rng", lambda seed, trial: stub)
            items = [Interval(*sorted(draws[i : i + 2])) for i in range(0, 2 * n, 2)]
            set_items = sorted(items, key=lambda item: (item.right, item.left))
            points = [item.left for item in items if item.left == item.right]
            repeats_a_point = len(set(points)) < len(points)
            for k in (1, 2, 3):
                assert run_process(n, k, stub)[0] == greedy_partition_sequence(items, k)[0]
                config = SimConfig(n=n, k=k, trials=1, seed=0, mode=MODE_SORTED_SET)
                count = estimate_scaling(config).counts[0]
                assert count == greedy_partition_sequence(set_items, k)[0]
                # Two equal point intervals dominate each other, so the set
                # greedy rejects them, as the poset builder does.
                if repeats_a_point:
                    with pytest.raises(CycleError):
                        greedy_partition_set(items, k)
                else:
                    assert count == greedy_partition_set(items, k)[0]


_PINNED_SET_COUNTS = {  # seed: the three trials' counts at k = 1, 2, 3
    3: ((12527, 12449, 12562), (8282, 8347, 8522), (6216, 6261, 6525)),
    29: ((12442, 12435, 12430), (8230, 8442, 8312), (6296, 6368, 6316)),
    2026: ((12545, 12475, 12484), (8383, 8317, 8423), (6319, 6124, 6253)),
}


class TestEstimateScaling:
    def test_single_interval_mean_is_one(self):
        for mode in (MODE_SEQUENCE, MODE_SORTED_SET):
            stats = estimate_scaling(SimConfig(n=1, k=2, trials=8, seed=4, mode=mode))
            assert stats.mean == 1.0

    def test_deterministic(self):
        config = SimConfig(n=300, k=2, trials=6, seed=9, mode=MODE_SEQUENCE)
        assert estimate_scaling(config) == estimate_scaling(config)

    def test_counts_within_bounds(self):
        stats = estimate_scaling(SimConfig(n=200, k=1, trials=10, seed=2))
        assert all(1 <= c <= 200 for c in stats.counts)

    def test_count_monotone_in_k(self):
        for seed in range(10):
            counts = [
                estimate_scaling(SimConfig(n=250, k=k, trials=1, seed=seed)).counts[0]
                for k in (1, 2, 3)
            ]
            assert counts[0] >= counts[1] >= counts[2]

    def test_normalization_rule(self):
        seq = estimate_scaling(SimConfig(n=400, k=1, trials=3, seed=1))
        assert seq.normalized == pytest.approx(seq.mean / math.sqrt(400))
        two = estimate_scaling(SimConfig(n=400, k=2, trials=3, seed=1))
        assert two.normalized == pytest.approx(two.mean / 400)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n=-1, k=1, trials=1, seed=0)
        with pytest.raises(ValueError):
            SimConfig(n=1, k=0, trials=1, seed=0)
        with pytest.raises(ValueError):
            SimConfig(n=1, k=True, trials=1, seed=0)
        with pytest.raises(ValueError):
            SimConfig(n=1, k=1, trials=0, seed=0)
        with pytest.raises(ValueError):
            SimConfig(n=1, k=1, trials=1, seed=0, mode="bogus")
        with pytest.raises(ValueError):
            SimConfig(n=1, k=1, trials=1, seed=-1)
        for bad in (True, 2.5):
            with pytest.raises(TypeError):
                SimConfig(n=bad, k=1, trials=1, seed=0)
        for bad in (True, 2.0):
            with pytest.raises(TypeError):
                SimConfig(n=1, k=1, trials=bad, seed=0)
        for bad in (True, 1.5):
            with pytest.raises(TypeError):
                SimConfig(n=1, k=1, trials=1, seed=bad)
        assert SimConfig(n=np.int64(3), k=1, trials=np.int32(2), seed=np.uint8(7)).n == 3
        config = SimConfig(n=np.int64(3), k=np.int64(2), trials=np.int32(2), seed=np.uint8(7))
        assert config == SimConfig(n=3, k=2, trials=2, seed=7)
        assert {type(v) for v in (config.n, config.k, config.trials, config.seed)} == {int}

    def test_csv_rows(self, tmp_path):
        config = SimConfig(n=50, k=2, trials=4, seed=3, mode=MODE_SORTED_SET)
        stats = estimate_scaling(config)
        path = tmp_path / "trials.csv"
        write_trials_csv(path, config, stats)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["trial", "n", "k", "mode", "count", "normalized"]
        assert len(rows) == 1 + config.trials
        for i, row in enumerate(rows[1:]):
            assert row[:4] == [str(i), "50", "2", "set"]
            assert int(row[4]) == stats.counts[i]
            assert float(row[5]) == pytest.approx(stats.counts[i] / 50)

    @pytest.mark.parametrize("seed", [3, 29, 2026])
    def test_set_counts_pinned_at_n_25000(self, seed):
        # Recorded from the particle process, before set trials were counted
        # by the matching bound: the bound must give the same counts.
        for k, counts in zip((1, 2, 3), _PINNED_SET_COUNTS[seed]):
            config = SimConfig(n=25_000, k=k, trials=3, seed=seed, mode=MODE_SORTED_SET)
            assert estimate_scaling(config).counts == counts

    def test_stats_type_fields(self):
        stats = estimate_scaling(SimConfig(n=10, k=1, trials=2, seed=0))
        assert isinstance(stats, SimStats)
        assert stats.stderr >= 0.0


def _serial_counts(config):
    """The trials one by one in this process: what every forked run must equal."""
    return tuple(simulate._trial_counts(config, 0, 1))


@pytest.fixture
def forks(monkeypatch):
    """Every multiprocessing context a call asks for, in order."""
    asked, real = [], multiprocessing.get_context

    def spy(method=None):
        asked.append(method)
        return real(method)

    monkeypatch.setattr(multiprocessing, "get_context", spy)
    return asked


def _allow_cpus(monkeypatch, cpus, min_arrivals=0):
    """Let the process use ``cpus`` CPUs and fork at ``min_arrivals`` arrivals."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(simulate, "_FORK_MIN_ARRIVALS", min_arrivals)


def _counts_in_pool_worker(config):
    return estimate_scaling(config).counts


class TestParallelTrials:
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_forced_workers_equal_serial_loop(self, monkeypatch, forks, cpus):
        _allow_cpus(monkeypatch, cpus)
        for trials in range(1, 8):
            for k in (1, 2, 3):
                for mode in (MODE_SEQUENCE, MODE_SORTED_SET):
                    config = SimConfig(n=60, k=k, trials=trials, seed=10 * trials + k, mode=mode)
                    assert estimate_scaling(config).counts == _serial_counts(config)
        # Trials 2-7 fork for each k and mode; one trial runs in the caller.
        # The count also shows each call left no thread behind to stop the next.
        assert forks == ["fork"] * (6 * 3 * 2)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_forced_workers_on_tied_grid_draws(self, monkeypatch, forks, cpus):
        # The 1/16-grid stand-in generators of TestTiedEndpoints, one per
        # trial, reach the workers through the fork.
        _allow_cpus(monkeypatch, cpus)
        rng = random.Random(52)
        for trials in range(1, 8):
            n = rng.randint(0, 30)
            grids = [[rng.randint(0, 16) / 16 for _ in range(2 * n)] for _ in range(trials)]
            stubs = [_FixedDraws(draws) for draws in grids]
            monkeypatch.setattr("heapchains.simulate.trial_rng", lambda seed, t: stubs[t])
            pairs = [[sorted(d[i : i + 2]) for i in range(0, 2 * n, 2)] for d in grids]
            per_trial = [[Interval(a, b) for a, b in trial_pairs] for trial_pairs in pairs]
            for k in (1, 2, 3):
                for mode in (MODE_SEQUENCE, MODE_SORTED_SET):
                    stats = estimate_scaling(SimConfig(n=n, k=k, trials=trials, seed=0, mode=mode))
                    want = []
                    for items in per_trial:
                        if mode == MODE_SORTED_SET:
                            items = sorted(items, key=lambda item: (item.right, item.left))
                        want.append(greedy_partition_sequence(items, k)[0])
                    assert stats.counts == tuple(want)
        assert forks == ["fork"] * (6 * 3 * 2)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_caller_runs_every_wth_trial(self, monkeypatch, cpus):
        _allow_cpus(monkeypatch, cpus)
        real, seen = simulate.trial_rng, []

        def spy(seed, trial):  # a worker appends to its own copy of ``seen``
            seen.append((os.getpid(), trial))
            return real(seed, trial)

        monkeypatch.setattr("heapchains.simulate.trial_rng", spy)
        config = SimConfig(n=100, k=2, trials=7, seed=2)
        counts = estimate_scaling(config).counts
        assert seen == [(os.getpid(), trial) for trial in range(0, 7, cpus)]
        assert counts == _serial_counts(config)

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("bad", [0, 1], ids=["caller", "worker"])
    def test_trial_error_reraises_and_leaves_no_process(self, monkeypatch, forks, cpus, bad):
        _allow_cpus(monkeypatch, cpus)
        real = simulate.trial_rng

        def failing(seed, trial):  # the caller runs trial 0, a worker trial 1
            if trial == bad:
                raise ZeroDivisionError(f"trial {trial}")
            return real(seed, trial)

        monkeypatch.setattr("heapchains.simulate.trial_rng", failing)
        with pytest.raises(ZeroDivisionError, match=f"trial {bad}"):
            estimate_scaling(SimConfig(n=2000, k=2, trials=5, seed=1))
        assert forks == ["fork"]
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises_instead_of_waiting(self, monkeypatch):
        # A worker killed from outside (say, by the kernel's OOM killer)
        # never returns its trials; the caller must not wait for them.
        _allow_cpus(monkeypatch, 2)
        real, caller = simulate.trial_rng, os.getpid()

        def dying(seed, trial):
            if os.getpid() != caller:
                os._exit(1)
            return real(seed, trial)

        monkeypatch.setattr("heapchains.simulate.trial_rng", dying)
        with pytest.raises(BrokenProcessPool):
            estimate_scaling(SimConfig(n=200, k=2, trials=4, seed=3))
        assert multiprocessing.active_children() == []

    def test_call_from_second_thread_does_not_fork(self, monkeypatch):
        config = SimConfig(n=500, k=2, trials=4, seed=6, mode=MODE_SORTED_SET)
        _allow_cpus(monkeypatch, 2)

        def no_fork(method=None):
            raise AssertionError("forked beside another thread")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        results = []
        thread = threading.Thread(target=lambda: results.append(estimate_scaling(config).counts))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert results == [_serial_counts(config)]

    def test_forks_only_from_the_arrival_threshold(self, monkeypatch, forks):
        # Four set-mode arrivals count as one sequence-mode arrival.
        _allow_cpus(monkeypatch, 2, min_arrivals=100)
        for n, trials, mode, forked in (
            (49, 2, MODE_SEQUENCE, False), (50, 2, MODE_SEQUENCE, True),
            (33, 3, MODE_SEQUENCE, False), (34, 3, MODE_SEQUENCE, True),
            (199, 2, MODE_SORTED_SET, False), (200, 2, MODE_SORTED_SET, True),
            (133, 3, MODE_SORTED_SET, False), (134, 3, MODE_SORTED_SET, True),
        ):
            config = SimConfig(n=n, k=2, trials=trials, seed=n, mode=mode)
            assert estimate_scaling(config).counts == _serial_counts(config)
            assert forks == (["fork"] if forked else []), (n, trials, mode)
            forks.clear()

    def test_small_calls_stay_serial_by_default(self, monkeypatch, forks):
        # The README example: a fork would cost more than its 3,000 arrivals.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        config = SimConfig(n=1000, k=2, trials=3, seed=1)
        assert estimate_scaling(config).counts == _serial_counts(config)
        assert forks == []

    def test_call_from_daemonic_worker_runs_serially(self, monkeypatch):
        # A multiprocessing.Pool worker is daemonic and may not start children.
        _allow_cpus(monkeypatch, 2)
        config = SimConfig(n=300, k=2, trials=4, seed=8, mode=MODE_SORTED_SET)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(_counts_in_pool_worker, (config,)) == _serial_counts(config)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "cgroup, cpu_max, cpus",
        [
            ("0::/job\n", "150000 100000\n", 2),  # a quota of 1.5 CPUs rounds up
            ("0::/job\n", "50000 100000\n", 1),
            ("0::/job\n", "800000 100000\n", 4),  # the affinity mask is smaller
            ("0::/job\n", "max 100000\n", 4),  # no quota
            ("0::/\n", None, 4),  # no cpu.max at the root
            ("4:memory:/job\n", None, 4),  # cgroup v1 only
        ],
    )
    def test_cpus_capped_by_cgroup_quota(self, monkeypatch, tmp_path, cgroup, cpu_max, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        (tmp_path / "cgroup").write_text(cgroup)
        (tmp_path / "fs" / "job").mkdir(parents=True)
        if cpu_max is not None:
            (tmp_path / "fs" / "job" / "cpu.max").write_text(cpu_max)
        files = (str(tmp_path / "cgroup"), str(tmp_path / "fs"))
        monkeypatch.setattr(simulate, "_CGROUP_FILES", files)
        assert simulate._cpus() == cpus
