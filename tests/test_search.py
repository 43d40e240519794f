import hashlib
import types

import pytest

import teqtools.search
from teqtools.core import Tournament, derive_seed, full_set, parse, random_tournament, restrict, serialize
from teqtools.search import SearchConfig, compose_structured, search_random
from teqtools.teq import minimal_retentive_sets

from conftest import transitive_tournament


class TestComposeStructured:
    def test_embedded_half_recomposes_counterexample(self, big_t, instance):
        half, _ = restrict(big_t, instance.x_set)
        assert compose_structured(half, 6) == big_t

    def test_order_two_half(self):
        t = compose_structured(transitive_tournament(2), 1)
        assert t.order == 4  # the constructor checked completeness

    def test_restrict_back_to_first_copy(self):
        half = random_tournament(6, 11)
        composed = compose_structured(half, 3)
        back, _ = restrict(composed, full_set(6))
        assert back == half

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError, match="even"):
            compose_structured(transitive_tournament(3), 1)

    def test_wrong_split_rejected(self):
        for split in (0, 4):
            with pytest.raises(ValueError, match="split"):
                compose_structured(transitive_tournament(4), split)

    def test_every_split_gives_a_tournament(self):
        half = random_tournament(8, 18)
        for split in range(1, 8):
            t = compose_structured(half, split)
            assert Tournament(t.beats) == t

    def test_too_large_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            compose_structured(transitive_tournament(34), 17)


class TestSearchConfig:
    def test_valid(self):
        SearchConfig(order=8, trials=10, seed=1).validate()

    @pytest.mark.parametrize("kwargs", [
        dict(order=0, trials=1, seed=0),
        dict(order=8, trials=0, seed=0),
        dict(order=8, trials=1, seed=0, mode="fancy"),
        dict(order=10, trials=1, seed=0, mode="structured"),  # not divisible by 4
        dict(order=8, trials=1, seed=0, time_budget=-1.0),
        dict(order=8, trials=1, seed=0, time_budget=float("nan")),
        dict(order=8, trials=1, seed=0, witness_cap=-1),
        dict(order=13.0, trials=1, seed=0),
        dict(order=8, trials=2.5, seed=0),
        dict(order=8, trials=1, seed=1.5),
        dict(order=8, trials=1, seed="7"),
        dict(order=8, trials=1, seed=0, time_budget="1"),
        dict(order=8, trials=1, seed=0, witness_cap=2.5),
        dict(order=True, trials=1, seed=0),
        dict(order=8, trials=True, seed=0),
        dict(order=8, trials=1, seed=False),
        dict(order=8, trials=1, seed=0, witness_cap=False),
        dict(order=8, trials=1, seed=0, time_budget=True),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs).validate()

    def test_nan_time_budget_rejected(self):
        # NaN compares false with everything, so a "< 0" check let it through as no limit
        with pytest.raises(ValueError, match="^time budget must be nonnegative$"):
            SearchConfig(order=13, trials=3, seed=1, time_budget=float("nan")).validate()
        with pytest.raises(ValueError, match="nonnegative"):
            search_random(SearchConfig(order=13, trials=3, seed=1, time_budget=float("nan")))


class TestSearchRandom:
    def test_deterministic(self):
        config = SearchConfig(order=8, trials=50, seed=123)
        a = search_random(config)
        b = search_random(config)
        assert a.to_dict(include_timing=False) == b.to_dict(include_timing=False)

    # 10,000 draws at each order 8..12: none has two minimal retentive sets
    @pytest.mark.parametrize("order, trials, seed",
                             [(8, 300, 7)] + [(o, 10_000, 6000 + o) for o in range(8, 13)])
    def test_no_findings_at_small_order(self, order, trials, seed):
        report = search_random(SearchConfig(order=order, trials=trials, seed=seed))
        assert report.found == 0
        assert report.witnesses == []
        assert report.timed_out == 0

    def test_structured_mode_runs(self):
        report = search_random(SearchConfig(order=8, trials=30, seed=9, mode="structured"))
        assert report.found == 0

    def test_benchmark_draws_are_pinned(self):
        # every tournament the benchmark's seven search configurations draw at
        # seeds 0..2, hashed; the benchmark redraws its trials itself, so only
        # this pin catches a change in what a seed draws
        digest = hashlib.sha256()
        for order, mode in [(13, "uniform"), (17, "uniform"), (21, "uniform"), (23, "uniform"),
                            (16, "structured"), (20, "structured"), (24, "structured")]:
            for seed in range(3):
                for trial in range(20):
                    t = teqtools.search._SOURCES[mode](order, derive_seed(seed, trial))
                    digest.update(serialize(t).encode())
        assert digest.hexdigest() == "dfbc98e144d1b6c41d2289a062282008f3e9fdb93356da81b36a1d33d7492e25"

    @pytest.mark.parametrize("mode, order", [("uniform", 9), ("structured", 16)])
    def test_each_trial_draws_its_documented_tournament(self, monkeypatch, mode, order):
        drawn = []

        def spy(t, cache):
            drawn.append(serialize(t))
            return minimal_retentive_sets(t, cache)

        monkeypatch.setattr(teqtools.search, "minimal_retentive_sets", spy)
        search_random(SearchConfig(order=order, trials=6, seed=314, mode=mode))
        seeds = [derive_seed(314, trial) for trial in range(6)]
        if mode == "uniform":
            expected = [random_tournament(order, seed) for seed in seeds]
        else:
            expected = [compose_structured(random_tournament(order // 2, seed), order // 4) for seed in seeds]
        assert drawn == [serialize(t) for t in expected]

    def test_injected_half_finds_the_instance(self, big_t, embedded_half):
        config = SearchConfig(order=24, trials=1, seed=0, mode="structured")
        report = search_random(config)
        assert report.found == 1
        assert len(report.witnesses) == 1
        assert parse(report.witnesses[0]) == big_t
        # identical reports, witness bytes included
        again = search_random(config)
        assert again.to_dict(include_timing=False) == report.to_dict(include_timing=False)

    def test_witnesses_reverify_on_reload(self, embedded_half):
        config = SearchConfig(order=24, trials=3, seed=0, mode="structured")
        report = search_random(config)
        assert report.found == 3
        for text in report.witnesses:
            assert len(minimal_retentive_sets(parse(text))) >= 2

    def test_witness_cap(self, embedded_half):
        config = SearchConfig(order=24, trials=5, seed=0, mode="structured", witness_cap=2)
        report = search_random(config)
        assert report.found == 5
        assert len(report.witnesses) == 2

    def test_zero_time_budget_times_everything_out(self):
        report = search_random(SearchConfig(order=8, trials=10, seed=3, time_budget=0.0))
        assert report.timed_out == 10
        assert report.found == 0

    def test_max_trial_seconds_is_the_slowest_trial(self, monkeypatch):
        # a clock that moves only while a trial runs: 0.25 s each, 5 s for the second
        now = [100.0]
        monkeypatch.setattr(teqtools.search, "time", types.SimpleNamespace(monotonic=lambda: now[0]))
        trials = []

        def slow_second(t, cache):
            trials.append(t)
            now[0] += 5.0 if len(trials) == 2 else 0.25
            return minimal_retentive_sets(t, cache)

        monkeypatch.setattr(teqtools.search, "minimal_retentive_sets", slow_second)
        report = search_random(SearchConfig(order=8, trials=3, seed=5))
        assert len(trials) == 3
        assert (report.max_trial_seconds, report.total_seconds) == (5.0, 5.5)
        assert 0 < report.max_trial_seconds <= report.total_seconds

    def test_report_echoes_config(self):
        report = search_random(SearchConfig(order=6, trials=2, seed=42, mode="uniform"))
        assert (report.order, report.trials, report.seed, report.mode) == (6, 2, 42, "uniform")

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            search_random(SearchConfig(order=8, trials=0, seed=1))
