"""Tests of the benchmark's own logic (run with pytest from the repo root)."""

from __future__ import annotations

import numpy as np
import pytest

import spans as spanlib
from stats import (
    block_tv_errors,
    latency_summary,
    percentile,
    quieter_half,
    supported_percentile,
)
from workloads import UTILITY_BLOCKS, WORKLOADS, generate


# ----------------------------------------------------------------------
# Percentile rule: the highest percentile with >= 10 samples beyond it
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(1000, 99.0), (5000, 99.0), (999, 98.9), (500, 98.0), (100, 90.0), (10, 0.0), (9, 0.0)],
)
def test_supported_percentile(n, expected):
    assert supported_percentile(n) == expected


@pytest.mark.parametrize("n", [11, 12, 100, 999, 1000, 1001, 4321])
def test_supported_percentile_leaves_ten_samples_beyond(n):
    samples = list(range(1, n + 1))
    q = supported_percentile(n)
    value = percentile(samples, q)
    assert sum(1 for s in samples if s > value) >= 10


def test_percentile_is_nearest_rank():
    samples = [float(i) for i in range(1000, 0, -1)]
    assert percentile(samples, 50.0) == 500.0
    assert percentile(samples, 99.0) == 990.0


def test_latency_summary_reports_sample_count_and_tail():
    summary = latency_summary([i / 1000.0 for i in range(1, 501)])
    assert summary["samples"] == 500
    assert summary["tail_q"] == 98.0
    assert summary["p50_ms"] == pytest.approx(250.0)
    assert summary["tail_ms"] == pytest.approx(490.0)


@pytest.mark.parametrize(
    "shares, expected",
    [
        ([0.0, 0.3, 0.01, 0.2, 0.0], [0, 2, 4]),
        ([0.0, 0.0, 0.0, 0.5], [0, 1, 2]),
        ([0.1], [0]),
        ([], []),
    ],
)
def test_quieter_half_keeps_segments_at_or_below_the_median_steal(shares, expected):
    assert quieter_half(shares) == expected


# ----------------------------------------------------------------------
# Self time over nested and back-to-back spans
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def _spans(build):
    clock = FakeClock()
    recorder = spanlib.Recorder(clock=clock)
    build(recorder, clock)
    return spanlib.SpanSet(recorder.to_dict())


def test_self_time_of_nested_spans():
    def build(rec, clock):
        outer = rec.open("outer")  # 0..100
        clock.now = 10
        mid = rec.open("mid")  # 10..60
        clock.now = 20
        inner = rec.open("inner")  # 20..30
        clock.now = 30
        rec.close(inner)
        clock.now = 60
        rec.close(mid)
        clock.now = 100
        rec.close(outer)

    table = spanlib.self_times(_spans(build), 0, 100)
    assert table["outer"]["self_ns"] == 50
    assert table["mid"]["self_ns"] == 40
    assert table["inner"]["self_ns"] == 10
    assert sum(row["self_ns"] for row in table.values()) == 100


def test_self_time_of_back_to_back_children_and_residual():
    def build(rec, clock):
        parent = rec.open("parent")  # 0..100
        for start in (10, 30, 50):  # children 10..30, 30..50, 50..70
            clock.now = start
            child = rec.open("child")
            clock.now = start + 20
            rec.close(child)
        clock.now = 100
        rec.close(parent)
        clock.now = 110
        rec.close(rec.open("later"))  # zero-length, outside the parent
        clock.now = 150
        tail = rec.open("tail")  # 150..170
        clock.now = 170
        rec.close(tail)

    spans = _spans(build)
    # The children share their parent's request id; the later
    # top-level spans each start a request of their own.
    assert spans.rid == [1, 1, 1, 1, 2, 3]
    table = spanlib.self_times(spans, 0, 200)
    assert table["parent"]["self_ns"] == 40
    assert table["child"] == {"calls": 3, "total_ns": 60, "self_ns": 60}
    covered = sum(row["self_ns"] for row in table.values())
    assert covered == 120  # the window's other 80 ns are the residual
    assert spanlib.children_of(spans, "parent", "child", 0, 200) == 3


def test_self_time_clips_spans_to_the_window():
    def build(rec, clock):
        outer = rec.open("outer")  # 0..100
        clock.now = 40
        inner = rec.open("inner")  # 40..80
        clock.now = 80
        rec.close(inner)
        clock.now = 100
        rec.close(outer)

    table = spanlib.self_times(_spans(build), 50, 90)
    assert table["outer"]["self_ns"] == 10
    assert table["inner"]["self_ns"] == 30


def test_wrap_records_counts_and_restores():
    class Target:
        def work(self, items):
            return len(items)

    recorder = spanlib.Recorder()
    original = Target.__dict__["work"]
    recorder.wrap(Target, "work", "target.work", count=lambda a, k, r: {"items": r})
    assert Target().work([1, 2, 3]) == 3
    assert recorder.counts["target.work.calls"] == 1
    assert recorder.counts["target.work.items"] == 3
    assert len(recorder) == 1
    recorder.restore()
    assert Target.__dict__["work"] is original


# ----------------------------------------------------------------------
# TV error from cumulative unrepaired answers
# ----------------------------------------------------------------------
def test_block_tv_errors_difference_cumulative_answers():
    truth = [{"a": np.array([0.5, 0.5])}, {"a": np.array([0.25, 0.75])}]
    # Block estimates equal their truths: cumulative answers are the
    # record-weighted means (100 then 300 records).
    served = [{"a": [0.5, 0.5]}, {"a": [(50 + 50) / 300, (50 + 150) / 300]}]
    errors = block_tv_errors(served, [100, 300], truth)
    assert errors == pytest.approx([0.0, 0.0], abs=1e-12)


# ----------------------------------------------------------------------
# Generators: the same seed gives byte-identical frames
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic(name):
    spec = WORKLOADS[name]
    first = generate(spec, 7, scale=0.05)
    second = generate(spec, 7, scale=0.05)
    other = generate(spec, 8, scale=0.05)
    assert first.utility_blocks == second.utility_blocks
    assert first.pool == second.pool
    assert first.utility_blocks != other.utility_blocks
    for session in (0, 1, len(first.party_records) + 1):
        records, rng = first.party(session)
        again, rng_again = second.party(session)
        assert rng == rng_again
        a = first.protocol.randomize(records, rng=rng)
        b = second.protocol.randomize(again, rng=rng_again)
        assert first.codec.encode(a.codes) == second.codec.encode(b.codes)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_shapes(name):
    spec = WORKLOADS[name]
    inputs = generate(spec, 3, scale=0.05)
    assert len(inputs.utility_blocks) == len(inputs.utility_truth) == UTILITY_BLOCKS
    sizes = {len(block) for block in inputs.utility_blocks}
    assert len(sizes) == 1 and sizes.pop() >= 1
    records = inputs.codec.peek_record_count(inputs.utility_blocks[0][0])
    assert records == (1000 if spec.parties else spec.frame_records)
    assert inputs.party_records and inputs.party_records[0].n_records == spec.frame_records


def test_benchmark_json_matches_the_code():
    import json
    from pathlib import Path

    import run

    doc = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: spec.why for name, spec in WORKLOADS.items()
    }
    gated = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert gated == {
        name: unit for name, unit in run.END_TO_END_UNITS.items() if name not in run.TAILS
    }
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS


# ----------------------------------------------------------------------
# Segments: rates count only a segment's bulk part
# ----------------------------------------------------------------------
class _FakeServer:
    def __init__(self):
        self.cpu = 0.0

    def cpu_seconds(self):
        return self.cpu


def test_segments_count_only_the_bulk_part():
    import run

    server = _FakeServer()
    segments = run.Segments(server, reports=100)
    server.cpu = 0.5
    segments.end_bulk(reports=400)
    server.cpu = 0.9  # probe sessions: neither their reports nor CPU count
    segments.close(reports=450)
    segments.close(reports=650)  # no probe part: the whole segment is bulk
    (wall0, reports0, cpu0, _, _), (wall1, reports1, cpu1, _, _) = segments.rows
    assert (reports0, cpu0) == (300, 0.5)
    assert (reports1, cpu1) == (200, 0.0)
    assert wall0 > 0 and wall1 > 0
    assert segments.index == 2
