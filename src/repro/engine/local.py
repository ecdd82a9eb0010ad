"""The harness both local-backend executors run on.

``repro.core.localexec`` (ColumnSGD) and ``repro.baselines.localexec``
(MLlib) each drive their own round on a
:class:`~repro.runtime.LocalRuntime`; everything around that round is
shared and lives here, once:

* **start and stop** — a simulated failure plan is rejected (it cannot
  reach real processes), the runtime is built from the caller's
  :class:`~repro.runtime.TimeoutPolicy` and started, the measured clock
  continues from the cluster clock that ``load()`` advanced, and the
  :class:`~repro.engine.trace.EngineTrace` and optional
  :class:`~repro.net.protocol.ProtocolChecker` are installed;
  :meth:`LocalHarness.run` drives :func:`run_training_loop` and closes
  the runtime whatever happens;
* **the death-surviving exchange** — :meth:`LocalHarness.exchange`
  re-issues an op to the workers a process death cost it, after a
  recovery episode, at most :data:`_MAX_RECOVERY_ROUNDS` times; silent
  but alive workers are returned for the caller's sync policy;
* **the recovery episode** — dead processes are respawned with fresh
  programs and each logical worker is handed to the trainer's
  ``restore(worker, t) -> (mode, seconds)`` hook; one
  :class:`~repro.engine.trace.RecoveryEvent` per worker is booked, the
  detection delay paid once per episode;
* **trace spans and protocol bounds** — measured phases become
  :class:`~repro.engine.trace.PhaseEvent` spans typed by the trainer's
  own :class:`~repro.engine.spec.RoundSpec` phases, and resends are
  bounded by a RETRY :class:`~repro.net.protocol.TrafficEnvelope`.

A trainer supplies its worker program (``program_for(worker)``, used at
start and on respawn), its ``restore`` hook and its ``run_round``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.engine import phase_event
from repro.engine.loop import run_training_loop
from repro.engine.trace import EngineTrace, RecoveryEvent
from repro.errors import ConfigurationError, WorkerUnresponsiveError
from repro.net.message import MessageKind
from repro.net.protocol import ProtocolChecker, TrafficEnvelope
from repro.runtime.chaos import LocalChaos
from repro.runtime.deadline import TimeoutPolicy
from repro.runtime.local import LocalRuntime, WorkerReply
from repro.storage.serialization import OBJECT_OVERHEAD_BYTES

#: bounded death-recovery attempts per exchange before escalating
_MAX_RECOVERY_ROUNDS = 3


def build_runtime(
    trainer, timeout: TimeoutPolicy, program_for: Callable[[int], object]
) -> Tuple[LocalRuntime, Dict[int, object]]:
    """Build (but do not start) the runtime + programs for ``trainer``."""
    if not isinstance(trainer.failures, LocalChaos) and trainer.failures.any_scheduled():
        raise ConfigurationError(
            "backend='local' runs real processes; simulated failure "
            "injection cannot reach them — pass a repro.runtime.LocalChaos "
            "plan for real faults, or use backend='sim'"
        )
    K = trainer.cluster.n_workers
    runtime = LocalRuntime(K, processes=trainer.config.local_processes, timeout=timeout)
    return runtime, {w: program_for(w) for w in range(K)}


def expect_retries(
    expected: dict, retries: int, payload_sizes: Sequence[int]
) -> dict:
    """Add a RETRY bound to a round's expected traffic when it resent.

    Each retry is one resend plus, for a garble, one wasted arrival —
    a bound, not an exact count, like the simulator's ARQ envelope.
    """
    if retries:
        frame = OBJECT_OVERHEAD_BYTES + max(payload_sizes)
        expected[MessageKind.RETRY] = TrafficEnvelope(
            retries, 2 * retries, 0, 2 * retries * frame
        )
    return expected


class LocalHarness:
    """One local fit's runtime, trace, checker and recovery machinery.

    Builds and starts the runtime on construction; :meth:`run` closes
    it.  ``restore(worker, t)`` reloads a respawned logical worker and
    returns ``(mode, seconds)`` for its :class:`RecoveryEvent`.
    """

    def __init__(
        self,
        trainer,
        result,
        timeout: TimeoutPolicy,
        program_for: Callable[[int], object],
        restore: Callable[[int, int], Tuple[str, float]],
    ):
        self.trainer = trainer
        self.result = result
        self.program_for = program_for
        self.restore = restore
        failures = trainer.failures
        self.chaos = failures if isinstance(failures, LocalChaos) else None
        self._phases = {phase.name: phase for phase in trainer.round_spec().phases}
        runtime, programs = build_runtime(trainer, timeout, program_for)
        runtime.start(programs)
        self.runtime = trainer.local_runtime = runtime
        # Continue the recorded time axis: load() charged simulated
        # seconds to the cluster clock and the initial eval record
        # carries that offset, so measured rounds accumulate on top.
        runtime.clock.reset(trainer.cluster.clock.now())
        self.trace = EngineTrace(system=result.system)
        runtime.engine_trace = trainer.cluster.engine_trace = self.trace
        self.checker = ProtocolChecker(runtime) if trainer.config.check_protocol else None

    def stall_args(self, t: int) -> Optional[Dict[int, dict]]:
        """Apply round ``t``'s chaos events; returns the stalled
        workers' per-worker args for the round's first exchange."""
        if self.chaos is None:
            return None
        return self.runtime.inject_faults(self.chaos.events_at(t)) or None

    def exchange(
        self,
        t: int,
        op: str,
        args: Optional[dict] = None,
        payload: Optional[bytes] = None,
        per_worker_args: Optional[Dict[int, dict]] = None,
    ) -> Tuple[Dict[int, WorkerReply], List[int], float, int, Dict[int, WorkerReply]]:
        """Run ``op`` on every worker, surviving worker-process death.

        On detected death the dead processes are recovered and ``op`` is
        re-issued to every worker still missing — deterministic ops make
        the re-run exact.  Returns ``(replies, silent, seconds, retries,
        acks)``: ``silent`` are alive-but-timed-out workers, left to the
        caller's sync policy, and ``acks`` the posted replies the
        exchanges drained first.
        """
        replies: Dict[int, WorkerReply] = {}
        acks: Dict[int, WorkerReply] = {}
        seconds = 0.0
        retries = 0
        targets = None
        for _ in range(_MAX_RECOVERY_ROUNDS):
            ex = self.runtime.run_all(
                op,
                args=args,
                payload=payload,
                per_worker_args=per_worker_args,
                workers=targets,
                iteration=t,
                raise_on_fault=False,
            )
            replies.update(ex.replies)
            acks.update(ex.acks)
            seconds += ex.seconds
            retries += ex.retries
            if not ex.dead_workers():
                return replies, sorted(ex.failures), seconds, retries, acks
            seconds += self._recover(t, detect_s=ex.seconds)
            targets = sorted(ex.failures)  # everyone still missing
            per_worker_args = None  # injected straggler delays apply once
        raise WorkerUnresponsiveError(
            op, dead=ex.dead_workers(), silent=ex.silent_workers()
        )

    def _recover(self, t: int, detect_s: float) -> float:
        """Respawn dead processes and restore their logical workers."""
        dead = self.runtime.dead_workers()
        if not dead:
            return 0.0
        respawn_s = self.runtime.respawn({w: self.program_for(w) for w in dead})
        total = respawn_s
        for w in dead:
            mode, restore_s = self.restore(w, t)
            total += restore_s
            self.trace.add_recovery(
                RecoveryEvent(
                    round=t,
                    kind="worker",
                    mode=mode,
                    worker=w,
                    detect_s=detect_s,
                    reload_s=respawn_s / len(dead) + restore_s,
                )
            )
            detect_s = 0.0  # the episode's detection delay is paid once
        return total

    def trace_phases(
        self,
        t: int,
        round_start: float,
        phase_seconds: Dict[str, float],
        offset: float = 0.0,
    ) -> float:
        """Record measured phases as back-to-back spans, in dict order.

        The spans start ``offset`` seconds into round ``t``; returns the
        offset where the last one ends.
        """
        for name, seconds in phase_seconds.items():
            self.trace.add(
                phase_event(self._phases[name], t, round_start, offset, offset + seconds)
            )
            offset += seconds
        return offset

    def record(self, t: int, duration: float, bytes_sent: int, evaluate: bool) -> None:
        """Append iteration ``t`` to the result on the measured clock."""
        self.trainer._record(
            self.result, t, duration, bytes_sent, evaluate, now=self.runtime.clock.now()
        )

    def run(
        self,
        run_round: Callable[[int], object],
        iterations: int,
        record: Optional[Callable[[int, float, int, bool], None]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        finish: Optional[Callable[[], None]] = None,
    ) -> Optional[int]:
        """Drive the rounds, then ``finish()``; always closes the runtime.

        Returns the early-stop iteration, or ``None``.
        """
        try:
            stopped_at = run_training_loop(
                cluster=self.runtime,
                run_round=run_round,
                iterations=iterations,
                eval_every=self.trainer.config.eval_every,
                record=record or self.record,
                checker=self.checker,
                should_stop=should_stop,
            )
            if finish is not None:
                finish()
            return stopped_at
        finally:
            self.runtime.close()
