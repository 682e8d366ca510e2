"""``REPRO_BENCH_SCALE`` scales the gates' inputs, and a bad value raises."""

from __future__ import annotations

import pytest

from benchscale import bench_scale, scaled


@pytest.mark.parametrize("raw", ["abc", "-2", "0", "nan", "inf"])
def test_a_bad_scale_raises_naming_the_variable(monkeypatch, raw):
    monkeypatch.setenv("REPRO_BENCH_SCALE", raw)
    with pytest.raises(ValueError, match=f"REPRO_BENCH_SCALE must be a positive number, got '{raw}'"):
        bench_scale()


def test_the_scale_multiplies_the_input_sizes(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    assert bench_scale() == 1.0
    assert scaled(700) == 700
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
    assert scaled(700) == 350
    assert scaled(60) == 50  # the minimum holds
