"""Unit tests for metric collection."""

import pytest

from repro.sim.stats import LatencyStats, TimeSeries, WindowAverager


class TestTimeSeries:
    def test_add_buckets_by_second(self):
        ts = TimeSeries()
        ts.add(0.2)
        ts.add(0.9)
        ts.add(1.1, 3.0)
        assert ts.totals() == [2.0, 3.0]

    def test_total(self):
        ts = TimeSeries()
        ts.add(0.5, 2.0)
        ts.add(3.5, 4.0)
        assert ts.total() == 6.0
        assert ts.totals() == [2.0, 0.0, 0.0, 4.0]

    def test_observe_means_and_maxima(self):
        ts = TimeSeries()
        ts.observe(0.1, 1.0)
        ts.observe(0.2, 3.0)
        ts.observe(1.5, 10.0)
        assert ts.means() == [2.0, 10.0]
        assert ts.maxima() == [3.0, 10.0]

    def test_explicit_bin_count_pads(self):
        ts = TimeSeries()
        ts.add(0.5)
        assert ts.totals(n_bins=3) == [1.0, 0.0, 0.0]

    def test_custom_width(self):
        ts = TimeSeries(bin_width=0.5)
        ts.add(0.6)
        assert ts.totals() == [0.0, 1.0]

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            TimeSeries(bin_width=0.0)

    def test_sparse_gap_bins_read_as_empty(self):
        """The dense-list backing must report untouched interior bins
        as zero-total, zero-mean, zero-max."""
        ts = TimeSeries()
        ts.add(0.5, 1.0)
        ts.add(100.5, 2.0)
        totals = ts.totals()
        assert len(totals) == 101
        assert totals[0] == 1.0 and totals[100] == 2.0
        assert all(t == 0.0 for t in totals[1:100])
        assert ts.means()[50] == 0.0

    def test_out_of_order_observations(self):
        """Growing the arrays forward must not lose earlier bins."""
        ts = TimeSeries()
        ts.observe(5.5, 4.0)
        ts.observe(1.5, 2.0)
        ts.observe(1.6, 6.0)
        assert ts.means()[1] == 4.0
        assert ts.maxima()[1] == 6.0
        assert ts.maxima()[5] == 4.0

    def test_negative_values_max_is_true_max(self):
        """A bin of all-negative observations must report the largest
        (least negative) value, not a sticky 0.0 sentinel."""
        ts = TimeSeries()
        ts.observe(0.1, -5.0)
        ts.observe(0.2, -2.0)
        assert ts.maxima() == [-2.0]
        assert ts.means() == [-3.5]


class TestWindowAverager:
    def test_window_one_is_identity(self):
        s = [1.0, 5.0, 2.0]
        assert WindowAverager.smooth(s, 1) == s

    def test_centered_window(self):
        s = [0.0, 3.0, 6.0]
        out = WindowAverager.smooth(s, 3)
        assert out[1] == pytest.approx(3.0)
        assert out[0] == pytest.approx(1.5)  # truncated at the edge
        assert out[2] == pytest.approx(4.5)

    def test_smoothing_reduces_peaks(self):
        """The Fig. 6 (right) effect: 11-second averaging pulls the
        per-second maxima toward the mean."""
        series = [0.1] * 50
        series[25] = 1.0
        smoothed = WindowAverager.smooth(series, 11)
        assert max(smoothed) < max(series)
        assert max(smoothed) > 0.1

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            WindowAverager.smooth([1.0], 0)


class TestLatencyStats:
    def test_mean_and_max(self):
        ls = LatencyStats()
        for x in (0.1, 0.2, 0.3):
            ls.record(x)
        assert ls.count == 3
        assert ls.mean == pytest.approx(0.2)
        assert ls.max == pytest.approx(0.3)

    def test_empty(self):
        ls = LatencyStats()
        assert ls.mean == 0.0
        assert ls.percentile(0.5) == 0.0

    def test_percentiles_ordered(self):
        ls = LatencyStats(hist_width=0.01)
        for i in range(100):
            ls.record(i / 100.0)
        assert ls.percentile(0.5) <= ls.percentile(0.9) <= ls.percentile(0.99)

    def test_percentile_bounds(self):
        ls = LatencyStats()
        ls.record(1.0)
        with pytest.raises(ValueError):
            ls.percentile(1.5)
