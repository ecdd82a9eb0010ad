"""Phase attribution of the local executors when workers share processes.

With K logical workers packed onto P < K processes, co-hosted workers
run their handlers one after another.  A round's compute phase must
therefore cover the busiest process's *summed* handler time, and the
transport phases (gather/broadcast, pull/push) must not absorb a
neighbour's compute.  A handler that sleeps a fixed time makes both
sides of that rule measurable.
"""

import time

import numpy as np
import pytest

from repro.baselines.localexec import RowWorkerProgram
from repro.baselines.registry import make_trainer
from repro.core import ColumnSGDConfig, ColumnSGDDriver
from repro.core.localexec import ColumnWorkerProgram
from repro.datasets import make_classification
from repro.models import LogisticRegression
from repro.optim import SGD
from repro.runtime.local import LocalRuntime
from repro.sim import CLUSTER1, SimulatedCluster

WORKERS = 4
ITERATIONS = 4
SLEEP = 0.05


@pytest.fixture(scope="module")
def data():
    return make_classification(120, 40, nnz_per_row=6, seed=11)


def sleeping(monkeypatch, program_cls, ops):
    """Make ``program_cls`` sleep ``SLEEP`` inside the handler of ``ops``.

    Patched before the runtime forks, so the worker processes inherit it.
    """
    original = program_cls.handle

    def handle(self, op, args, payload):
        if op in ops:
            time.sleep(SLEEP)
        return original(self, op, args, payload)

    monkeypatch.setattr(program_cls, "handle", handle)


def phase_durations(trace, phase):
    return [e.end - e.start for e in trace.events if e.phase == phase]


@pytest.mark.parametrize("processes", [1, 2])
def test_columnsgd_books_cohosted_compute_as_compute(data, monkeypatch, processes):
    sleeping(monkeypatch, ColumnWorkerProgram, {"compute", "update"})
    cluster = SimulatedCluster(CLUSTER1.with_workers(WORKERS))
    config = ColumnSGDConfig(
        batch_size=16,
        iterations=ITERATIONS,
        eval_every=ITERATIONS,
        seed=3,
        backend="local",
        local_processes=processes,
    )
    driver = ColumnSGDDriver(LogisticRegression(), SGD(0.5), cluster, config=config)
    driver.load(data)
    driver.fit()
    trace = driver.cluster.engine_trace
    per_process = WORKERS // processes
    for phase in ("compute_statistics", "update_model"):
        assert min(phase_durations(trace, phase)) >= per_process * SLEEP
    for phase in ("gather", "broadcast"):
        assert np.median(phase_durations(trace, phase)) < SLEEP


@pytest.mark.parametrize("processes", [1, 2])
def test_mllib_books_cohosted_compute_as_compute(data, monkeypatch, processes):
    sleeping(monkeypatch, RowWorkerProgram, {"gradient"})
    trainer = make_trainer(
        "mllib",
        LogisticRegression(),
        SGD(0.5),
        SimulatedCluster(CLUSTER1.with_workers(WORKERS)),
        batch_size=16,
        iterations=ITERATIONS,
        eval_every=ITERATIONS,
        seed=3,
        backend="local",
        local_processes=processes,
    )
    trainer.load(data)
    trainer.fit()
    trace = trainer.cluster.engine_trace
    per_process = WORKERS // processes
    assert min(phase_durations(trace, "compute_gradients")) >= per_process * SLEEP
    for phase in ("pull", "push"):
        assert np.median(phase_durations(trace, phase)) < SLEEP


class SleepyProgram:
    """Sleeps ``args["s"]`` seconds inside the handler."""

    def handle(self, op, args, payload):
        time.sleep(args["s"])
        return {}, None


def test_busiest_process_sums_its_hosted_workers():
    runtime = LocalRuntime(WORKERS, processes=2)  # hosts workers {0, 1}, {2, 3}
    runtime.start({w: SleepyProgram() for w in range(WORKERS)})
    try:
        delays = {0: 0.02, 1: 0.03, 2: 0.04, 3: 0.0}
        ex = runtime.run_all(
            "sleep", per_worker_args={w: {"s": s} for w, s in delays.items()}
        )
        seconds = {w: r.seconds for w, r in ex.replies.items()}
        busy = runtime.busiest_process_seconds(ex.replies)
        assert busy == pytest.approx(
            max(seconds[0] + seconds[1], seconds[2] + seconds[3])
        )
        assert busy >= 0.05
        # a worker without a reply (silent, or not re-issued) counts zero
        partial = {w: r for w, r in ex.replies.items() if w != 1}
        assert runtime.busiest_process_seconds(partial) == pytest.approx(
            max(seconds[0], seconds[2] + seconds[3])
        )
        assert runtime.busiest_process_seconds({}) == 0.0
    finally:
        runtime.close()
