"""Tests for the benchmark's host-speed scaling and window selection.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402


def _window(op_ms, wall_ms, probe_ms):
    return {"op_ms": op_ms, "wall_ms": wall_ms, "probe_ms": probe_ms}


def test_scaling_cancels_a_uniformly_slower_host():
    quiet = [_window([10.0, 10.0], 20.0, 2.0), _window([12.0, 8.0], 20.0, 2.0)]
    slow = [_window([15.0, 15.0], 30.0, 3.0), _window([18.0, 12.0], 30.0, 3.0)]
    assert run.ops_per_s(quiet, 2.0) == run.ops_per_s(slow, 2.0) == 100.0
    assert run.p50_ms(quiet, 2.0) == run.p50_ms(slow, 2.0) == 10.0
    assert run.ops_per_s(slow) == 2000.0 / 30.0


def test_quickest_ranks_by_scaled_throughput():
    windows = [
        _window([10.0], 10.0, 1.0),  # scaled 10 ms per op
        _window([30.0], 30.0, 6.0),  # slow host, scaled 5 ms per op
        _window([20.0], 20.0, 1.0),  # scaled 20 ms per op
        _window([8.0], 8.0, 1.0),    # scaled 8 ms per op
    ]
    assert run.quickest(windows, 0.5, 1.0) == [windows[1], windows[3]]
    assert run.quickest(windows, 0.1, 1.0) == [windows[1]]
    assert run.quickest(windows, 1.0, 1.0) == [windows[1], windows[3], windows[0], windows[2]]
