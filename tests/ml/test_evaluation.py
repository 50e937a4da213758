import math

import pytest

from repro.ml.evaluation import PrequentialAccuracy


class TestPrequentialAccuracy:
    def test_empty_is_nan(self):
        acc = PrequentialAccuracy()
        assert math.isnan(acc.windowed)
        assert math.isnan(acc.cumulative)

    def test_cumulative_counts_everything(self):
        acc = PrequentialAccuracy(window=2)
        for outcome in (True, True, False, False):
            acc.record(outcome)
        assert acc.cumulative == pytest.approx(0.5)
        assert acc.windowed == pytest.approx(0.0)  # last two were wrong

    def test_window_slides(self):
        acc = PrequentialAccuracy(window=3)
        for outcome in (False, False, False, True, True, True):
            acc.record(outcome)
        assert acc.windowed == pytest.approx(1.0)
        assert acc.cumulative == pytest.approx(0.5)

    def test_summary(self):
        acc = PrequentialAccuracy()
        acc.record(True)
        summary = acc.summary()
        assert summary["count"] == 1
        assert summary["cumulative"] == 1.0
