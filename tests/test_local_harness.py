"""Failure paths of the shared local-backend harness on real processes.

Both local executors (ColumnSGD and MLlib) run their exchanges through
``repro.engine.local.LocalHarness``.  These tests drive its two
escalations end to end:

* a worker that stays silent past the whole retry budget is handed to
  the trainer's sync policy — ColumnSGD substitutes the worker's stale
  group or raises, MLlib always raises;
* a worker whose process dies at every attempt at the round's op is
  respawned and restored ``_MAX_RECOVERY_ROUNDS`` times, after which the
  exchange raises instead of looping.

Deadlines are short (``local_timeout_s=0.2``) so the suite stays fast;
every stall outlasts the whole retry budget.  Each fit runs under a
watchdog, so a hang fails the test instead of stalling the suite.
"""

import os
import signal
import threading

import numpy as np
import pytest

from repro.baselines.localexec import RowWorkerProgram
from repro.baselines.registry import make_trainer
from repro.core import ColumnSGDConfig, ColumnSGDDriver
from repro.core.localexec import ColumnWorkerProgram
from repro.core.master import ColumnMaster
from repro.datasets import make_classification
from repro.engine.local import _MAX_RECOVERY_ROUNDS
from repro.errors import WorkerUnresponsiveError
from repro.models import LogisticRegression
from repro.optim import SGD
from repro.runtime import LocalChaos
from repro.sim import CLUSTER1, SimulatedCluster

WORKERS = 4
ITERATIONS = 4
VICTIM = 2
TIMEOUT_S = 0.2
WATCHDOG_S = 60.0


@pytest.fixture(scope="module")
def data():
    return make_classification(120, 40, nnz_per_row=6, seed=11)


def columnsgd(data, failures=None, **extra):
    config = ColumnSGDConfig(
        batch_size=16,
        iterations=ITERATIONS,
        eval_every=ITERATIONS,
        seed=3,
        backend="local",
        local_processes=WORKERS,
        local_timeout_s=TIMEOUT_S,
        check_protocol=True,
        **extra,
    )
    driver = ColumnSGDDriver(
        LogisticRegression(),
        SGD(0.5),
        SimulatedCluster(CLUSTER1.with_workers(WORKERS)),
        config=config,
        failures=failures,
    )
    driver.load(data)
    return driver


def mllib(data, failures=None):
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
        local_processes=WORKERS,
        local_timeout_s=TIMEOUT_S,
        check_protocol=True,
        failures=failures,
    )
    trainer.load(data)
    return trainer


def fit_within_watchdog(trainer):
    """``trainer.fit()`` in a thread; returns ``(result, error)``."""
    box = {}

    def fit():
        try:
            box["result"] = trainer.fit()
        except Exception as exc:  # reported to the caller
            box["error"] = exc

    thread = threading.Thread(target=fit, daemon=True)
    thread.start()
    thread.join(WATCHDOG_S)
    if thread.is_alive():
        pytest.fail("fit did not finish within {} s".format(WATCHDOG_S))
    return box.get("result"), box.get("error")


def dying(monkeypatch, program_cls, op, worker_of):
    """Make the victim's process SIGKILL itself whenever it runs ``op``.

    Patched before the runtime forks, so respawned processes die too.
    """
    original = program_cls.handle

    def handle(self, name, args, payload):
        if name == op and worker_of(self) == VICTIM:
            os.kill(os.getpid(), signal.SIGKILL)
        return original(self, name, args, payload)

    monkeypatch.setattr(program_cls, "handle", handle)


class TestSilentPastEveryDeadline:
    # sync_max_retries=1 waits 0.2 + 0.4 s; the stall outlasts both
    COLUMNSGD_STALL_S = 1.5
    # MLlib always retries twice: 0.2 + 0.4 + 0.8 s
    MLLIB_STALL_S = 3.0

    def test_columnsgd_stale_substitutes_the_silent_group(self, data, monkeypatch):
        stale_rounds = []
        reduce = ColumnMaster.reduce

        def recording(master, stats_by_worker, finish_times=None, stale_groups=None):
            stale_rounds.append(sorted(stale_groups or ()))
            return reduce(master, stats_by_worker, finish_times, stale_groups)

        monkeypatch.setattr(ColumnMaster, "reduce", recording)
        driver = columnsgd(
            data,
            failures=LocalChaos.scripted(stalls={(1, VICTIM): self.COLUMNSGD_STALL_S}),
            sync_policy="retry",
            sync_max_retries=1,
            sync_on_exhausted="stale",
        )
        result, error = fit_within_watchdog(driver)
        assert error is None, error
        trace = driver.cluster.engine_trace
        assert trace.rounds() == list(range(ITERATIONS))
        assert stale_rounds[0] == []
        assert stale_rounds[1] == [VICTIM]  # group size 1: group id == worker id
        # the initial deadline and the one retry both expired on the victim
        assert [(e.attempt, e.suspects, e.resolved) for e in trace.round_retries(1)] == [
            (0, (VICTIM,), "failed"),
            (1, (VICTIM,), "failed"),
        ]
        assert np.isfinite(result.final_loss())

    def test_columnsgd_raise_names_the_silent_worker(self, data):
        driver = columnsgd(
            data,
            failures=LocalChaos.scripted(stalls={(1, VICTIM): self.COLUMNSGD_STALL_S}),
            sync_policy="retry",
            sync_max_retries=1,
            sync_on_exhausted="raise",
        )
        _, error = fit_within_watchdog(driver)
        assert isinstance(error, WorkerUnresponsiveError)
        assert error.op == "compute"
        assert error.silent == (VICTIM,)
        assert error.dead == ()

    def test_mllib_raises_for_the_silent_worker(self, data):
        trainer = mllib(
            data,
            failures=LocalChaos.scripted(stalls={(1, VICTIM): self.MLLIB_STALL_S}),
        )
        _, error = fit_within_watchdog(trainer)
        assert isinstance(error, WorkerUnresponsiveError)
        assert error.op == "gradient"
        assert error.silent == (VICTIM,)
        assert error.dead == ()


class TestDeathOnEveryAttempt:
    def check(self, trainer, op, mode):
        _, error = fit_within_watchdog(trainer)
        assert isinstance(error, WorkerUnresponsiveError)
        assert error.op == op
        assert error.dead == (VICTIM,)
        recoveries = trainer.cluster.engine_trace.recoveries
        assert [(e.round, e.worker, e.mode) for e in recoveries] == [
            (0, VICTIM, mode)
        ] * _MAX_RECOVERY_ROUNDS

    def test_columnsgd_gives_up_after_bounded_recoveries(self, data, monkeypatch):
        dying(
            monkeypatch, ColumnWorkerProgram, "compute", lambda p: p.worker.worker_id
        )
        self.check(columnsgd(data, sync_policy="retry"), "compute", "zero-init")

    def test_mllib_gives_up_after_bounded_recoveries(self, data, monkeypatch):
        dying(monkeypatch, RowWorkerProgram, "gradient", lambda p: p.worker)
        self.check(mllib(data), "gradient", "reload")
