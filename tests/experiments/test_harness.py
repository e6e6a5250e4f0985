"""Unit tests for the experiment harness plumbing."""

import pytest

from repro.experiments.harness import (
    ExperimentResult,
    scale_factor,
    scaled,
)


class TestScale:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("IGERN_SCALE", raising=False)
        assert scale_factor() == 1.0

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("IGERN_SCALE", "2.5")
        assert scale_factor() == 2.5

    def test_argument_wins(self, monkeypatch):
        monkeypatch.setenv("IGERN_SCALE", "2.5")
        assert scale_factor(0.5) == 0.5

    def test_invalid_env(self, monkeypatch):
        monkeypatch.setenv("IGERN_SCALE", "-1")
        with pytest.raises(ValueError):
            scale_factor()

    def test_scaled_respects_minimum(self, monkeypatch):
        monkeypatch.delenv("IGERN_SCALE", raising=False)
        assert scaled(100, scale=0.001, minimum=5) == 5
        assert scaled(100, scale=0.5) == 50


class TestExperimentResult:
    def test_add_series_validates_length(self):
        result = ExperimentResult(
            exp_id="x", title="t", x_label="x", y_label="y", x=[1.0, 2.0]
        )
        with pytest.raises(ValueError):
            result.add_series("bad", [1.0])
        result.add_series("good", [1.0, 2.0])
        assert result.series_by_name("good").y == [1.0, 2.0]

    def test_series_by_name_missing(self):
        result = ExperimentResult(
            exp_id="x", title="t", x_label="x", y_label="y", x=[]
        )
        with pytest.raises(KeyError):
            result.series_by_name("nope")
