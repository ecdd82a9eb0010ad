"""Frame-level transport rules of the local backend.

An exchange sends each worker process one frame (every targeted hosted
worker's entry and the shared payload once) and reads one reply frame
back.  An op may also be *posted* (``run_all(..., wait=False)``): the
call returns once the frames are sent, and the next awaited exchange to
the same processes drains the posted replies first, returning them on
``Exchange.acks``.  These tests pin the rules posting must keep:

* acks arrive on ``Exchange.acks`` of the draining exchange, never on
  ``replies``, and only once;
* DROP/GARBLE mangling hits awaited replies only, and a posted op runs
  exactly once;
* a posted op's remote error and its process's death surface on the
  exchange that drains it;
* posted exchanges do not feed the timeout policy.

``TestLargeFrames`` pins a send deadlock that one frame per process
removes, and ``TestColumnSGDRound`` pins one awaited exchange per local
ColumnSGD round.
"""

import os
import signal
import threading
import time

import pytest

from repro.core import ColumnSGDConfig, ColumnSGDDriver
from repro.datasets import make_classification
from repro.errors import SimulationError
from repro.models import LogisticRegression
from repro.net.message import MessageKind
from repro.optim import SGD
from repro.runtime import LocalFaultEvent, LocalFaultKind, LocalRuntime, TimeoutPolicy
from repro.sim import CLUSTER1, SimulatedCluster


class CounterProgram:
    """Counts 'inc' calls; 'nap' sleeps, 'boom' raises, 'blob' answers
    with ``args['n']`` bytes; every op reports the count and its pid."""

    def __init__(self):
        self.count = 0

    def handle(self, op, args, payload):
        if op == "nap":
            time.sleep(args["s"])
        if op == "boom":
            raise RuntimeError("posted kaboom")
        if op == "inc":
            self.count += 1
        if op == "blob":
            return {"received": len(payload)}, b"\x02" * args["n"]
        return {"count": self.count, "pid": os.getpid()}, payload


FAST = dict(floor_s=0.4, alpha=3.0, backoff=2.0)


def started_runtime(workers=3, processes=3, timeout=None):
    runtime = LocalRuntime(
        workers,
        processes=processes,
        timeout=timeout or TimeoutPolicy(max_retries=2, **FAST),
    )
    runtime.start({w: CounterProgram() for w in range(workers)})
    return runtime


class TestPostedOps:
    def test_acks_arrive_on_the_draining_exchange_only(self):
        runtime = started_runtime(processes=2)  # hosts {0}, {1, 2}
        try:
            posted = runtime.run_all("inc", wait=False)
            assert posted.replies == {} and posted.acks == {} and posted.ok()
            drained = runtime.run_all("echo")
            assert sorted(drained.acks) == [0, 1, 2]
            assert all(a.result["count"] == 1 for a in drained.acks.values())
            # the acks were not mistaken for the echo replies
            assert sorted(drained.replies) == [0, 1, 2]
            assert all(r.result["count"] == 1 for r in drained.replies.values())
            assert runtime.run_all("echo").acks == {}
        finally:
            runtime.close()

    def test_only_targeted_processes_are_drained(self):
        runtime = started_runtime(processes=2)  # hosts {0}, {1, 2}
        try:
            runtime.run_all("inc", wait=False)
            first = runtime.run_all("echo", workers=[0])
            assert sorted(first.acks) == [0]
            rest = runtime.run_all("echo")
            assert sorted(rest.acks) == [1, 2]
        finally:
            runtime.close()

    @pytest.mark.parametrize("kind", [LocalFaultKind.DROP, LocalFaultKind.GARBLE])
    def test_mangling_hits_the_awaited_reply_not_the_ack(self, kind):
        runtime = started_runtime()
        try:
            runtime.run_all("inc", workers=[0], wait=False)
            runtime.inject_faults([LocalFaultEvent(iteration=0, kind=kind, worker=0)])
            exchange = runtime.run_all("echo", payload=b"x" * 64, workers=[0], iteration=0)
            assert exchange.acks[0].result["count"] == 1
            assert exchange.replies[0].result["count"] == 1
            assert exchange.retries >= 1  # the fault landed on the echo reply
            assert runtime.network.bytes_of_kind(MessageKind.RETRY) > 0
            # the posted 'inc' ran exactly once
            assert runtime.run_all("inc", workers=[0]).replies[0].result["count"] == 2
        finally:
            runtime.close()

    def test_posted_error_raises_on_the_draining_exchange(self):
        runtime = started_runtime()
        try:
            posted = runtime.run_all("boom", workers=[1], wait=False)
            assert posted.ok()  # nothing is known yet
            with pytest.raises(SimulationError, match="'boom' failed on worker 1"):
                runtime.run_all("echo")
            # the error exchange drained everything: the pipes stay in step
            exchange = runtime.run_all("inc")
            assert exchange.acks == {}
            assert all(r.result["count"] == 1 for r in exchange.replies.values())
        finally:
            runtime.close()

    def test_sigkill_with_a_posted_op_in_flight_is_worker_died(self):
        runtime = started_runtime()
        try:
            pid = runtime.run_all("echo", workers=[0]).replies[0].result["pid"]
            runtime.run_all("nap", args={"s": 5.0}, workers=[0], wait=False)
            os.kill(pid, signal.SIGKILL)
            exchange = runtime.run_all("echo", raise_on_fault=False)
            assert exchange.dead_workers() == [0]
            assert exchange.acks == {}
            assert sorted(exchange.replies) == [1, 2]
        finally:
            runtime.close()

    def test_posted_exchanges_do_not_feed_the_timeout_policy(self):
        policy = TimeoutPolicy(max_retries=2, **FAST)
        runtime = started_runtime(timeout=policy)
        try:
            runtime.run_all("echo")
            before = list(policy.history)
            runtime.run_all("inc", wait=False)
            assert policy.history == before
            runtime.run_all("echo")  # the draining exchange is observed
            assert len(policy.history) == len(before) + 1
        finally:
            runtime.close()


class TestLargeFrames:
    MB = 1 << 20
    WATCHDOG_S = 30.0

    def test_megabyte_frames_to_cohosted_workers_complete(self):
        """Regression: with one frame per *worker*, the master sent
        worker 1's 1 MB frame while worker 0's process was blocked
        sending its 1 MB reply; both exceed a socket buffer, neither
        side read, and no deadline covers a send.  One frame per process
        is read whole before the process replies, so this completes.
        The exchange runs under a watchdog that kills the workers (which
        unblocks the master's send) instead of hanging the suite."""
        runtime = started_runtime(workers=4, processes=2)  # hosts {0, 1}, {2, 3}
        box = {}

        def exchange():
            try:
                box["exchange"] = runtime.run_all(
                    "blob", args={"n": self.MB}, payload=b"\x01" * self.MB
                )
            except Exception as exc:  # reported below
                box["error"] = exc

        thread = threading.Thread(target=exchange, daemon=True)
        thread.start()
        thread.join(self.WATCHDOG_S)
        try:
            if thread.is_alive():
                runtime.kill_worker(0)
                runtime.kill_worker(2)
                thread.join(10.0)
                pytest.fail("run_all deadlocked on megabyte frames")
            assert "error" not in box, box.get("error")
            replies = box["exchange"].replies
            assert sorted(replies) == [0, 1, 2, 3]
            assert all(r.result["received"] == self.MB for r in replies.values())
            assert all(len(r.payload) == self.MB for r in replies.values())
        finally:
            runtime.close()


class TestColumnSGDRound:
    ITERATIONS = 6

    def test_one_awaited_exchange_per_round(self, monkeypatch):
        """The update is posted and drained by the next round's compute,
        so a round awaits one exchange instead of two, and every
        round's update_model phase is still booked to that round."""
        calls = []
        run_all = LocalRuntime.run_all

        def counting(runtime, op, *args, **kwargs):
            calls.append((op, kwargs.get("wait", True)))
            return run_all(runtime, op, *args, **kwargs)

        monkeypatch.setattr(LocalRuntime, "run_all", counting)
        config = ColumnSGDConfig(
            batch_size=16,
            iterations=self.ITERATIONS,
            eval_every=self.ITERATIONS,
            seed=3,
            backend="local",
            local_processes=2,
        )
        driver = ColumnSGDDriver(
            LogisticRegression(),
            SGD(0.5),
            SimulatedCluster(CLUSTER1.with_workers(4)),
            config=config,
        )
        driver.load(make_classification(120, 40, nnz_per_row=6, seed=11))
        driver.fit()
        awaited = [op for op, wait in calls if wait]
        posted = [op for op, wait in calls if not wait]
        assert posted == ["update"] * self.ITERATIONS
        assert awaited.count("compute") == self.ITERATIONS
        assert "update" not in awaited
        booked = [
            e.round for e in driver.cluster.engine_trace.events
            if e.phase == "update_model"
        ]
        assert booked == list(range(self.ITERATIONS))
