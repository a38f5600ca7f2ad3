"""Unit tests for random streams and monitors."""

import numpy as np
import pytest

from repro.sim import GaugeMonitor, RandomStreams, TimeSeriesMonitor


class TestRandomStreams:
    def test_same_seed_same_draws(self):
        a = RandomStreams(42)
        b = RandomStreams(42)
        assert a.exponential("x", 1.0) == b.exponential("x", 1.0)
        assert a.uniform("y", 0, 1) == b.uniform("y", 0, 1)

    def test_different_streams_are_independent(self):
        streams = RandomStreams(42)
        # Consuming from one stream must not change another's next draw.
        fresh = RandomStreams(42)
        fresh.exponential("other", 1.0)
        assert (streams.exponential("main", 1.0)
                == fresh.exponential("main", 1.0))

    def test_lognormal_mean_is_calibrated(self):
        streams = RandomStreams(1)
        draws = [streams.lognormal_around("jitter", 2.0, 0.2)
                 for _ in range(4000)]
        assert np.mean(draws) == pytest.approx(2.0, rel=0.05)

    def test_lognormal_zero_cv_is_deterministic(self):
        streams = RandomStreams(1)
        assert streams.lognormal_around("x", 3.0, 0.0) == 3.0
        assert streams.lognormal_draw("x", 3.0, 0.0)() == 3.0

    def test_validation(self):
        streams = RandomStreams(0)
        with pytest.raises(ValueError):
            streams.exponential("x", 0.0)
        with pytest.raises(ValueError):
            streams.uniform("x", 2.0, 1.0)
        with pytest.raises(ValueError):
            streams.lognormal_around("x", -1.0, 0.1)
        with pytest.raises(ValueError):
            streams.choice("x", 0)
        # Pre-bound draws validate once, when they are bound.
        with pytest.raises(ValueError):
            streams.lognormal_draw("x", 0.0, 0.1)
        with pytest.raises(ValueError):
            streams.lognormal_draw("x", 1.0, -0.1)
        with pytest.raises(ValueError):
            streams.choice_draw("x", 0)

    def test_choice_in_range(self):
        streams = RandomStreams(9)
        values = {streams.choice("pick", 5) for _ in range(200)}
        assert values <= {0, 1, 2, 3, 4}
        assert len(values) > 1

    def test_choice_covers_every_index(self):
        streams = RandomStreams(3)
        picked = {streams.choice("pick", 10) for _ in range(500)}
        bound = streams.choice_draw("bound", 10)
        assert picked == {bound() for _ in range(500)} == set(range(10))

    def test_distinct_seeds_change_draws(self):
        assert (RandomStreams(7).uniform("x", 0, 1)
                != RandomStreams(8).uniform("x", 0, 1))

    @pytest.mark.parametrize("block_size", [1, 3, 1024])
    def test_draw_count_covers_every_draw_path(self, block_size):
        """``draws`` counts served variates, whichever path served them."""
        streams = RandomStreams(4, block_size=block_size)
        warm = streams.lognormal_draw("predict", 0.05, 0.08)
        fixed = streams.lognormal_draw("predict", 0.05, 0.0)
        pick = streams.choice_draw("pick", 200)
        expected = 0
        for step in range(50):
            streams.exponential("dwell", 2.0)
            streams.uniform("pull", 0.0, 1.0)
            streams.lognormal_around("predict", 0.2, 0.08)
            streams.lognormal_around("predict", 0.2, 0.0)  # no variate
            streams.lognormal_sum("predict", 0.05, 0.08, 1 + step % 4)
            streams.lognormal_sum("predict", 0.05, 0.0, 3)  # no variate
            streams.choice("pick", 200)
            warm()
            fixed()  # no variate
            pick()
            expected += 6 + 1 + step % 4
            assert streams.draws == expected
        # A choice bound change discards the unserved rest of the
        # block: it was never served, so it is never counted.
        streams.choice("pick", 7)
        pick()
        assert streams.draws == expected + 2


class TestTimeSeriesMonitor:
    def test_record_and_lookup(self):
        series = TimeSeriesMonitor()
        series.record(0.0, 1.0)
        series.record(10.0, 5.0)
        assert series.value_at(-1.0) == 0.0
        assert series.value_at(0.0) == 1.0
        assert series.value_at(9.9) == 1.0
        assert series.value_at(10.0) == 5.0

    def test_out_of_order_rejected(self):
        series = TimeSeriesMonitor()
        series.record(5.0, 1.0)
        with pytest.raises(ValueError):
            series.record(4.0, 2.0)

    def test_resample(self):
        series = TimeSeriesMonitor()
        series.record(0.0, 1.0)
        series.record(2.0, 3.0)
        assert series.resample([0.0, 1.0, 2.0, 3.0]) == [1.0, 1.0, 3.0, 3.0]

    def test_max_and_len(self):
        series = TimeSeriesMonitor()
        assert series.max() == 0.0
        series.record(0.0, 2.0)
        series.record(1.0, 7.0)
        assert series.max() == 7.0
        assert len(series) == 2


class TestGauge:
    def test_gauge_tracks_history(self):
        gauge = GaugeMonitor("instances")
        gauge.set(0.0, 1.0)
        gauge.add(5.0, 2.0)
        assert gauge.value == 3.0
        assert list(gauge.history.times) == [0.0, 5.0]
        assert list(gauge.history.values) == [1.0, 3.0]

    def test_gauge_adds_from_its_initial_value(self):
        gauge = GaugeMonitor("queue", initial=2.0)
        assert gauge.value == 2.0 and len(gauge.history) == 0
        gauge.add(1.0, 3.0)
        gauge.add(2.0, -1.0)
        assert gauge.value == 4.0
        assert gauge.history.resample([0.5, 1.0, 2.5]) == [0.0, 5.0, 4.0]

    def test_gauge_rejects_out_of_order_changes(self):
        gauge = GaugeMonitor("instances")
        gauge.set(5.0, 1.0)
        with pytest.raises(ValueError):
            gauge.set(1.0, 2.0)
        assert list(gauge.history.times) == [5.0]
