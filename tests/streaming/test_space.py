"""Tests for the SpaceMeter."""

import pytest

from repro.streaming.space import SpaceMeter


class TestExactStatistics:
    def test_peak_and_mean(self):
        meter = SpaceMeter()
        for words in (3, 9, 4):
            meter.observe(words)
        assert meter.peak_words == 9
        assert meter.current_words == 4
        assert meter.mean_words == pytest.approx(16 / 3)
        assert meter.n_observations == 3

    def test_empty_meter(self):
        meter = SpaceMeter()
        assert meter.mean_words == 0.0
        assert meter.peak_words == 0
        assert meter.n_observations == 0

    def test_negative_reading_rejected(self):
        with pytest.raises(ValueError):
            SpaceMeter().observe(-1)


class TestStateRoundTrip:
    def test_state_dict_round_trip(self):
        meter = SpaceMeter()
        for i in range(37):
            meter.observe(i * 3)
        clone = SpaceMeter()
        clone.load_state_dict(meter.state_dict())
        assert clone.state_dict() == meter.state_dict()
        # Continuations must agree exactly.
        meter.observe(500)
        clone.observe(500)
        assert clone.state_dict() == meter.state_dict()
