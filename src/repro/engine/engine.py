"""The discrete-event round engine.

One :class:`RoundEngine` executes a trainer's
:class:`~repro.engine.spec.RoundSpec` round by round: it schedules each
phase on an :class:`~repro.engine.events.EventQueue` at the offset its
dependencies dictate, runs compute executors on the trainer, emits
communication through the :class:`~repro.runtime.Runtime` transport
surface (clock + gather/broadcast/allreduce + traffic counters — the
simulated star topology behind :class:`~repro.runtime.SimRuntime`),
lets the spec's :class:`~repro.engine.policy.SyncPolicy` resolve
synchronized phases and the round duration, and records one
:class:`~repro.engine.trace.PhaseEvent` per phase.

Because the engine both *emits* a comm phase's messages and *derives*
the round's expected traffic from the very same declaration, the
``(count, bytes)`` expectation handed to the runtime
:class:`~repro.net.protocol.ProtocolChecker` cannot drift from the
emissions — the drift class that lint rule R010 and PRs 1-2's checker
were built to police is gone by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.engine.cost_audit import CostAuditor
from repro.engine.effects import EffectChecker
from repro.engine.events import EventQueue
from repro.engine.spec import CommPhase, ComputePhase, MasterPhase, RoundSpec
from repro.engine.trace import EngineTrace, PhaseEvent
from repro.net.message import MessageKind


class RoundContext:
    """Mutable per-round state shared by a round's phase executors."""

    def __init__(self, t: int, trainer, cluster, slowdowns=None):
        self.t = t
        self.trainer = trainer
        self.cluster = cluster
        #: per-worker straggler multipliers for this round (None when the
        #: trainer has no straggler model)
        self.slowdowns = slowdowns
        #: free-form phase-to-phase hand-off (statistics buffers, batch
        #: metadata, message sizes, ...)
        self.scratch: Dict[str, object] = {}
        #: workers whose statistics the sync policy selected
        self.chosen: Set[int] = set()
        #: stragglers the policy killed after recovery
        self.killed: Set[int] = set()
        #: permanently failed workers (set by the compute executor)
        self.failed: frozenset = frozenset()
        #: backup groups whose statistics never arrived this round; the
        #: master substitutes their previous contribution (TimeoutSync /
        #: RetrySync with ``on_exhausted='stale'``)
        self.stale_groups: Set[int] = set()
        #: per-worker start offsets (set by StaleSync.before_round)
        self.start_times = None
        #: the round's sync policy, for executors that need its state
        #: (SSP's version selection reads the commit history)
        self.sync = None


@dataclass
class RoundOutcome:
    """Everything one engine round produced, for the loop and analyses."""

    duration: float
    phase_seconds: Dict[str, float]
    worker_seconds: Dict[str, Dict[int, float]]
    killed: Set[int] = field(default_factory=set)
    chosen: Set[int] = field(default_factory=set)
    #: per-kind expected traffic — exact ``(count, bytes)`` tuples
    #: derived from the comm phases, overridden by the spec's envelopes
    expected: Dict[MessageKind, object] = field(default_factory=dict)


class RoundEngine:
    """Execute a trainer's RoundSpec on an execution runtime.

    The engine talks to the substrate only through the
    :class:`~repro.runtime.Runtime` surface; by default it uses the
    cluster's :attr:`~repro.sim.cluster.SimulatedCluster.runtime`
    (a :class:`~repro.runtime.SimRuntime`), which forwards every call
    to the same topology/clock objects the engine used to touch
    directly — so trajectories are bit-identical to the pre-runtime
    code path.  Pass ``runtime=`` to substitute another backend.

    Construction attaches a fresh :class:`EngineTrace` to
    ``cluster.engine_trace`` (replacing any previous run's trace;
    ``SimulatedCluster.reset()`` clears it).
    """

    def __init__(self, trainer, cluster, spec: Optional[RoundSpec] = None,
                 straggler=None, check_effects: bool = False,
                 check_cost: bool = False, runtime=None):
        self.trainer = trainer
        self.cluster = cluster
        self.runtime = runtime if runtime is not None else cluster.runtime
        self.spec = spec if spec is not None else trainer.round_spec()
        self.straggler = straggler
        self.trace = EngineTrace(system=self.spec.system)
        #: per-phase access recorder + vector-clock race checker (the
        #: runtime twin of lint rule R012); None when not requested
        self.effects: Optional[EffectChecker] = (
            EffectChecker(self.spec) if check_effects else None
        )
        #: measured-vs-charged kernel work audit (the runtime twin of
        #: lint rule R016); None when not requested
        self.cost_audit: Optional[CostAuditor] = (
            CostAuditor() if check_cost else None
        )
        cluster.engine_trace = self.trace

    # ------------------------------------------------------------------
    def run_round(self, t: int) -> RoundOutcome:
        """Execute round ``t``; does not advance the cluster clock."""
        ctx = RoundContext(
            t,
            self.trainer,
            self.cluster,
            slowdowns=self.straggler.slowdowns(t) if self.straggler is not None else None,
        )
        sync = self.spec.sync
        ctx.sync = sync
        sync.before_round(ctx)

        round_start = self.runtime.clock.now()
        queue = EventQueue()
        ends: Dict[str, float] = {}
        phase_seconds: Dict[str, float] = {}
        worker_seconds: Dict[str, Dict[int, float]] = {}
        expected: Dict[MessageKind, tuple] = {}

        if self.effects is not None:
            self.effects.begin_round()
        if self.cost_audit is not None:
            self.cost_audit.begin_round()

        previous = None
        for phase in self.spec.phases:
            if phase.after is None:
                start = ends[previous] if previous is not None else 0.0
            elif len(phase.after) == 0:
                start = 0.0  # overlaps everything declared before it
            else:
                start = max(ends[dep] for dep in phase.after)
            if self.effects is not None:
                trainer_view, ctx_view = self.effects.views(
                    phase.name, self.trainer, ctx
                )
            else:
                trainer_view, ctx_view = self.trainer, ctx
            duration = self._execute(
                phase, ctx_view, expected, worker_seconds, trainer_view
            )
            ends[phase.name] = start + duration
            phase_seconds[phase.name] = duration
            queue.push(start, (phase, start, start + duration))
            previous = phase.name

        if self.effects is not None:
            self.effects.finish_round(t)
        if self.cost_audit is not None:
            self.cost_audit.finish_round(t)

        critical_end = max(ends.values()) if ends else 0.0
        duration = sync.round_duration(ctx, critical_end)

        for _, (phase, start, end) in queue.drain():
            self.trace.add(phase_event(phase, t, round_start, start, end))

        if self.spec.envelopes is not None:
            expected.update(getattr(self.trainer, self.spec.envelopes)(ctx))
        self._expect_retries(expected)
        return RoundOutcome(
            duration=duration,
            phase_seconds=phase_seconds,
            worker_seconds=worker_seconds,
            killed=set(ctx.killed),
            chosen=set(ctx.chosen),
            expected=expected,
        )

    # ------------------------------------------------------------------
    def _execute(self, phase, ctx, expected, worker_seconds, trainer=None) -> float:
        trainer = trainer if trainer is not None else self.trainer
        if isinstance(phase, ComputePhase):
            per_worker = getattr(trainer, phase.run)(ctx)
            worker_seconds[phase.name] = dict(per_worker)
            if phase.synchronized:
                return self.spec.sync.resolve(ctx, per_worker)
            finite = [s for s in per_worker.values() if s != float("inf")]
            return max(finite) if finite else 0.0
        if isinstance(phase, MasterPhase):
            return float(getattr(trainer, phase.run)(ctx))
        return self._execute_comm(phase, ctx, expected, trainer)

    def _execute_comm(self, phase: CommPhase, ctx, expected, trainer=None) -> float:
        trainer = trainer if trainer is not None else self.trainer
        runtime = self.runtime
        sizes = getattr(trainer, phase.sizes)(ctx)
        if phase.pattern == "gather":
            sizes = [int(s) for s in sizes]
            seconds = runtime.gather(phase.kind, sizes)
            self._expect(expected, phase.kind, len(sizes), sum(sizes))
        elif phase.pattern == "sharded_gather":
            sizes = [int(s) for s in sizes]
            servers = getattr(trainer, phase.servers)
            seconds = runtime.sharded_gather(phase.kind, sizes, servers)
            self._expect(expected, phase.kind, len(sizes), sum(sizes))
        elif phase.pattern == "broadcast":
            size = int(sizes)
            seconds = runtime.broadcast(phase.kind, size)
            self._expect(expected, phase.kind, runtime.n_workers,
                         runtime.n_workers * size)
        elif phase.pattern == "sharded_broadcast":
            size = int(sizes)
            servers = getattr(trainer, phase.servers)
            seconds = runtime.sharded_broadcast(phase.kind, size, servers)
            self._expect(expected, phase.kind, runtime.n_workers,
                         runtime.n_workers * size)
        else:  # allreduce
            size = int(sizes)
            n = runtime.n_workers
            seconds = runtime.allreduce(phase.kind, size)
            steps = 2 * (n - 1)
            if steps:
                self._expect(expected, phase.kind, steps, steps * int(size / n))
        return seconds

    @staticmethod
    def _expect(expected, kind, count, total_bytes) -> None:
        have_count, have_bytes = expected.get(kind, (0, 0))
        expected[kind] = (have_count + count, have_bytes + total_bytes)

    def _expect_retries(self, expected) -> None:
        """Bound RETRY traffic when the fabric is lossy.

        The fault layer retransmits under :data:`MessageKind.RETRY`, so
        every base-kind expectation above stays *exact*; this derives
        the matching retry envelope — at most ``max_attempts`` extra
        copies of every declared message (stop-and-wait retries plus one
        duplicate), at least zero.  On a lossless network no envelope is
        added and any stray RETRY message is flagged as undeclared.
        """
        plan = getattr(self.runtime.network, "fault_plan", None)
        if plan is None or not plan.any_faults():
            return
        from repro.net.protocol import TrafficEnvelope

        max_messages = 0
        max_bytes = 0
        for want in expected.values():
            if isinstance(want, TrafficEnvelope):
                max_messages += want.max_messages
                max_bytes += want.max_bytes
            else:
                count, total = want
                max_messages += count
                max_bytes += total
        cap = plan.max_attempts
        expected[MessageKind.RETRY] = TrafficEnvelope(
            0, cap * max_messages, 0, cap * max_bytes
        )


_CATEGORY = {
    ComputePhase: "compute",
    CommPhase: "comm",
    MasterPhase: "master",
}


def phase_event(phase, t: int, round_start: float, start: float, end: float) -> PhaseEvent:
    """The trace span of ``phase`` over ``[start, end)`` of round ``t``
    (offsets from the round start at ``round_start``)."""
    return PhaseEvent(
        round=t,
        phase=phase.name,
        category=_CATEGORY[type(phase)],
        start=start,
        end=end,
        sim_start=round_start + start,
        sim_end=round_start + end,
        kind=phase.kind.value if isinstance(phase, CommPhase) else None,
    )
