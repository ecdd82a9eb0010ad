"""Pins the transport-attribution rule and the self-time arithmetic.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

from repro.runtime.local import Exchange, WorkerReply  # noqa: E402

import tracing  # noqa: E402


def exchange(seconds, handler):
    return Exchange(
        replies={
            w: WorkerReply(worker=w, result={}, payload=None, seconds=s)
            for w, s in handler.items()
        },
        seconds=seconds,
    )


def test_wait_subtracts_the_busiest_process_sum():
    # K=4 packed on P=2: workers 0,1 share process 10, workers 2,3 process 11
    ex = exchange(0.010, {0: 0.002, 1: 0.003, 2: 0.004, 3: 0.001})
    process_of = {0: 10, 1: 10, 2: 11, 3: 11}
    assert tracing.process_busy(ex, process_of) == pytest.approx({10: 0.005, 11: 0.005})
    assert tracing.wait_seconds(ex, process_of) == pytest.approx(0.005)
    # the per-worker rule the executor uses books co-hosted compute as wait
    assert ex.comm_seconds() == pytest.approx(0.006)


def test_wait_with_one_process_per_worker_matches_the_slowest_worker():
    ex = exchange(0.010, {0: 0.002, 1: 0.007})
    assert tracing.wait_seconds(ex, {0: 0, 1: 1}) == pytest.approx(ex.comm_seconds())


def test_wait_with_every_worker_on_one_process():
    ex = exchange(0.020, {0: 0.004, 1: 0.004, 2: 0.004, 3: 0.004})
    assert tracing.wait_seconds(ex, dict.fromkeys(range(4), 7)) == pytest.approx(0.004)


def test_self_time_excludes_children():
    tracer = tracing.Tracer()

    def leaf():
        return 1

    def outer():
        return tracer.call("leaf", leaf, (), {}) + tracer.call("leaf", leaf, (), {})

    assert tracer.call("outer", outer, (), {}) == 2
    spans = tracer.spans
    outer_span = spans[0]
    children = [s for s in spans[1:] if s[tracing.PARENT] == 0]
    assert len(children) == 2
    child_total = sum(s[tracing.END] - s[tracing.START] for s in children)
    duration = outer_span[tracing.END] - outer_span[tracing.START]
    assert outer_span[tracing.SELF] == pytest.approx(duration - child_total)
    assert all(s[tracing.SELF] == s[tracing.END] - s[tracing.START] for s in children)


def test_benchmark_json_matches_the_workload_record():
    root = HERE.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "workloads.json").read_text())
    listed = {w["name"] for w in bench["workloads"]}
    assert listed == {n for n, w in spec["workloads"].items() if w["in_benchmark_json"]}
    assert [m["name"] for m in bench["per_layer"]] == list(spec["per_layer"])
    for kind in ("end_to_end", "per_layer"):
        for metric in bench[kind]:
            assert metric["unit"] == spec[kind][metric["name"]]["unit"]
    listed = {n for n, m in spec["end_to_end"].items() if m.get("in_benchmark_json", True)}
    assert {m["name"] for m in bench["end_to_end"]} == listed


def test_blocking_path_splits_a_packed_round_exactly():
    """Round = master self times + busiest process's spans + wait + glue."""
    tracer = tracing.Tracer()
    # round 0 on the master: [0, 10] ms, one exchange [1, 8], reduce [8, 9]
    tracer.spans = [
        ("round", 0.000, 0.010, 0.002, -1, 0, None),
        ("runtime.exchange", 0.001, 0.008, 0.007, 0, 0, None),
        ("core.master_reduce", 0.008, 0.009, 0.001, 0, 0, None),
    ]
    # process 10 hosts workers 0 and 1 (busy 5 ms); process 11 hosts 2, 3
    remote = {
        10: [("core.handle", 0.0015, 0.0040, 0.0005, -1, 0, None),
             ("linalg.take_rows", 0.0020, 0.0040, 0.0020, 0, 0, 1),
             ("core.handle", 0.0040, 0.0065, 0.0025, -1, 0, None)],
        11: [("core.handle", 0.0015, 0.0045, 0.0030, -1, 0, None)],
    }
    ex = exchange(0.0068, {0: 0.0025, 1: 0.0025, 2: 0.0030, 3: 0.0})
    tracer.exchanges = [{"span": 1, "round": 0, "exchange": ex,
                         "process_of": {0: 10, 1: 10, 2: 11, 3: 11}, "remote": remote}]
    fit = tracing.FitTrace(tracer, n_workers=4)
    assert fit.path["runtime.wait"][0] == pytest.approx(0.0018)
    assert fit.path["linalg.take_rows"][0] == pytest.approx(0.0020)
    assert fit.path["core.handle"][0] == pytest.approx(0.0030)
    assert fit.busy_max[0] == pytest.approx(0.0050)
    assert fit.busy_gap[0] == pytest.approx(0.0020)
    assert fit.counts["linalg.take_rows"][0] == 1
    total = fit.accounted()[0] + fit.unaccounted[0]
    assert total == pytest.approx(fit.rounds[0])
