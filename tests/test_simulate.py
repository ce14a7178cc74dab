import csv
import math
import random

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

    def test_stats_type_fields(self):
        stats = estimate_scaling(SimConfig(n=10, k=1, trials=2, seed=0))
        assert isinstance(stats, SimStats)
        assert stats.stderr >= 0.0
