"""The tail-percentile rule and span self time."""

import pytest

from ubench.stats import (
    layer_self_times,
    quartile_spread,
    self_time,
    tail,
    union_length,
)


@pytest.mark.parametrize(
    "count, pct, beyond",
    [(20, 50.0, 10), (39, 50.0, 19), (40, 75.0, 10), (100, 90.0, 10),
     (200, 95.0, 10), (1000, 99.0, 10), (10000, 99.9, 10)],
)
def test_tail_picks_highest_percentile_with_ten_beyond(count, pct, beyond):
    values = [float(i) for i in range(1, count + 1)]
    result = tail(reversed(values))
    assert result["pct"] == pct
    assert result["beyond"] == beyond
    assert result["samples"] == count
    # Nearest rank: exactly `beyond` samples exceed the reported value.
    assert sum(v > result["value"] for v in values) == beyond


def test_tail_needs_twenty_samples():
    assert tail([1.0] * 19) is None
    assert tail([]) is None


def test_quartile_spread_matches_statistics_quantiles():
    figures = quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert figures["median"] == 5.5
    assert figures["q1"] == 2.75 and figures["q3"] == 8.25
    assert figures["spread"] == pytest.approx(5.5 / 5.5)


def test_union_counts_overlap_once():
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4
    assert union_length([]) == 0


def test_self_time_subtracts_children_once():
    # Two overlapping children cover [2, 7]; one sticks out of the parent.
    assert self_time((0, 10), [(2, 5), (4, 7)]) == 5
    assert self_time((0, 10), [(8, 12)]) == 8
    assert self_time((0, 10), []) == 10


def test_layer_self_times_follow_parent_links():
    spans = [
        {"id": 1, "parent": None, "layer": "a", "t0": 0.0, "t1": 10.0},
        {"id": 2, "parent": 1, "layer": "b", "t0": 1.0, "t1": 4.0},
        {"id": 3, "parent": 1, "layer": "b", "t0": 3.0, "t1": 6.0},
        {"id": 4, "parent": 2, "layer": "a", "t0": 1.5, "t1": 2.0},
    ]
    times = layer_self_times(spans)
    assert times["a"] == pytest.approx(5.0 + 0.5)
    assert times["b"] == pytest.approx(2.5 + 3.0)


def test_benchmark_json_names_what_the_code_reports():
    import json
    import os

    from ubench.layers import PER_LAYER

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "op_p50_s", "ops_per_s", "peak_rss_mb"
    ]
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )
