"""Tests of the benchmark's own logic: ``python3 -m pytest perfbench -q``.

They pin the arithmetic the reported metrics rest on -- the tail
percentile rule, span self time and wall accounting -- that the
correctness gate rejects a digest that does not match its reference, and
that a batch run times whole rounds of its inputs.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from gate import Gate, cells_digest, digest, load_reference  # noqa: E402
from spans import (Recorder, Span, children_of, self_time, tail,  # noqa: E402
                   wall_breakdown)


# -- the tail rule: the highest percentile with >= 10 samples beyond it ------------


def test_tail_picks_the_sample_with_exactly_ten_beyond_it():
    value, percentile, count = tail(range(1, 101))
    assert (value, percentile, count) == (90, 90.0, 100)
    assert sum(1 for sample in range(1, 101) if sample > value) == 10


def test_tail_moves_down_as_samples_get_fewer():
    assert tail(range(1, 41)) == (30, 75.0, 40)
    value, percentile, _count = tail(range(1, 22))
    assert value == 11 and percentile == pytest.approx(100 * 11 / 21)


def test_tail_ignores_input_order():
    samples = [float(n) for n in range(30, 0, -1)]
    assert tail(samples)[0] == 20.0  # thirty samples: rank 20 when sorted


def test_tail_at_or_below_the_median_falls_back_to_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert tail(range(1, 21)) == (20, 100.0, 20)  # rank 10 of 20 is the median
    with pytest.raises(ValueError):
        tail([])


# -- self time and wall accounting --------------------------------------------------


def _span(sid, start, end, parent=None, name="layer.op"):
    return Span(name, start, end, sid, parent)


def test_self_time_subtracts_the_union_of_child_spans():
    parent = _span(1, 0.0, 10.0)
    children = [_span(2, 1.0, 3.0, 1), _span(3, 2.0, 5.0, 1),  # overlap
                _span(4, 8.0, 12.0, 1)]                        # runs past end
    # Covered: [1, 5] and [8, 10] -> 6 of the parent's 10 seconds.
    assert self_time(parent, children) == pytest.approx(4.0)


def test_self_time_without_children_is_the_duration():
    assert self_time(_span(1, 2.0, 7.5), []) == pytest.approx(5.5)


def test_self_time_ignores_children_outside_the_span():
    parent = _span(1, 5.0, 6.0)
    assert self_time(parent, [_span(2, 0.0, 5.0, 1),
                              _span(3, 6.0, 9.0, 1)]) == pytest.approx(1.0)


def test_wall_breakdown_sums_to_the_root_and_names_the_remainder():
    root = _span(1, 0.0, 10.0, name="bench.pass")
    spans = [root,
             _span(2, 1.0, 9.0, 1, "experiments.run_sweep"),
             _span(3, 2.0, 4.0, 2, "pipeline.core.run"),
             _span(4, 3.0, 6.0, 2, "pipeline.core.cell"),  # overlaps span 3
             _span(5, 5.0, 5.5, 4, "paper.store.record")]
    index = children_of(spans)
    shares = wall_breakdown(root, index)
    unaccounted = self_time(root, index[root.sid])
    assert unaccounted == pytest.approx(2.0)              # [0,1] and [9,10]
    assert sum(shares.values()) + unaccounted == pytest.approx(root.duration)
    assert shares["experiments"] == pytest.approx(8.0 - 4.0)
    assert shares["pipeline.core"] == pytest.approx(4.0 - 0.5)
    assert shares["paper.store"] == pytest.approx(0.5)


def test_recorder_nests_spans_per_thread():
    recorder = Recorder()
    seen = {}

    def worker():
        with recorder.span("other.op") as span:
            seen["thread"] = span

    with recorder.span("outer.op") as outer:
        with recorder.span("inner.op") as inner:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert inner.parent == outer.sid
    assert outer.parent is None
    assert seen["thread"].parent is None  # another thread's stack is its own
    assert {span.name for span in recorder.spans} == {
        "outer.op", "inner.op", "other.op"}


# -- the correctness gate -----------------------------------------------------------


def test_gate_accepts_matching_digests():
    gate = Gate({"paper_smoke": {"1": {"report_md": digest("report")}}})
    assert gate.check("paper_smoke", 1, "report_md", digest("report"))
    assert gate.ok


def test_gate_rejects_a_tampered_digest():
    reference = {"paper_smoke": {"1": {"report_md": digest("report")}}}
    gate = Gate(reference)
    assert not gate.check("paper_smoke", 1, "report_md", digest("report!"))
    assert not gate.ok
    assert "paper_smoke 1 report_md" in gate.mismatches[0]


def test_gate_rejects_a_tampered_reference_file():
    reference = load_reference()
    case, entry = next(iter(reference["service_mix"].items()))
    tampered = json.loads(json.dumps(reference))
    tampered["service_mix"][case]["report"] = "0" * len(entry["report"])
    assert Gate(reference).check("service_mix", case, "report",
                                 entry["report"])
    gate = Gate(tampered)
    gate.check("service_mix", case, "report", entry["report"])
    assert not gate.ok


def test_gate_fails_on_a_missing_reference_and_on_no_checks():
    assert not Gate({}).ok
    gate = Gate({})
    gate.check("sampled_long", "long_phase_mix/9", "cells", digest("x"))
    assert not gate.ok


def test_cells_digest_sees_any_change_in_a_statistic():
    cells = {"a|ops2000": {"cycles": 10, "stats": {"loads": 3}}}
    changed = {"a|ops2000": {"cycles": 10, "stats": {"loads": 4}}}
    assert cells_digest(cells) != cells_digest(changed)
    assert cells_digest(cells) == cells_digest(json.loads(json.dumps(cells)))


# -- inputs and declared metrics ----------------------------------------------------


def test_service_requests_are_seeded_and_a_third_shared():
    from workloads import FRESH_SEEDS, SHARED_SEEDS, service_requests

    plans = service_requests(7)
    assert plans == service_requests(7)
    assert plans != service_requests(8)
    fresh = [seed for plan in plans for seed in plan if seed in FRESH_SEEDS]
    assert len(fresh) == len(set(fresh))  # fresh seeds are asked once
    for plan in plans:
        for start in range(0, len(plan), 3):
            triple = plan[start:start + 3]
            assert sum(seed in SHARED_SEEDS for seed in triple) == 1
    assert all(str(seed) in load_reference()["service_mix"]
               for plan in plans for seed in plan)


@pytest.mark.parametrize("seconds, passes", [(0, 2), (14, 4), (16, 6)])
def test_batch_runs_end_on_the_round_boundary_nearest_the_deadline(
        monkeypatch, seconds, passes):
    import workloads

    clock = [0.0]
    monkeypatch.setattr(workloads.time, "perf_counter", lambda: clock[0])
    cases = ("a", "b")

    def one_pass(index, _seed, _workdir, _progress):
        clock[0] += 3.0  # a round of two passes takes 6 s
        return cases[index % 2], 1, 0, {}

    gate = Gate({"bench": {case: {"cells": cells_digest({})}
                           for case in cases}})
    outcome = workloads._run_passes("bench", one_pass, len(cases), seconds,
                                    1, gate, Path("unused"))
    assert len(outcome.latencies) == passes
    assert outcome.wall_s == 3.0 * passes
    assert gate.ok and gate.checks == passes


# -- host-speed normalisation -------------------------------------------------------


def test_slowdown_is_the_mean_kernel_time_over_the_reference():
    from hostspeed import REFERENCE_S, slowdown

    assert slowdown([REFERENCE_S]) == pytest.approx(1.0)
    assert slowdown([REFERENCE_S, 2 * REFERENCE_S]) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        slowdown([])


def test_host_sampler_samples_on_entry_and_stops_on_exit():
    from hostspeed import HostSampler

    with HostSampler() as sampler:  # samples on entry, then every second
        time.sleep(0.3)
    assert not sampler._thread.is_alive()
    assert sampler.samples and all(sample > 0 for sample in sampler.samples)


def test_end_to_end_times_read_as_on_the_reference_host():
    import run
    from hostspeed import REFERENCE_S
    from workloads import Outcome

    outcome = Outcome(uops=1000, wall_s=2.0, latencies=[1.0, 3.0],
                      attempted=2)
    metrics, detail = run.end_to_end(outcome, [2 * REFERENCE_S])
    assert detail["host_slowdown"] == pytest.approx(2.0)
    assert detail["raw"]["uops_per_s"] == pytest.approx(500.0)
    assert metrics["uops_per_s"] == pytest.approx(1000.0)  # host twice as slow
    assert metrics["latency_p50_s"] == pytest.approx(1.0)
    assert metrics["latency_tail_s"] == pytest.approx(1.5)
    assert metrics["ok_frac"] == 1.0


def test_every_declared_per_layer_metric_is_computed():
    import layers

    declared = {metric["name"] for metric in json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
    computed = set(layers.layer_metrics([], [], shared_store=False))
    computed |= {"trace.uops_per_s", "trace.untraced_uops_per_s",
                 "trace.overhead_frac"}
    assert computed == declared
