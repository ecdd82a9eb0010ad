"""ColumnSGD on the local multiprocess backend.

:func:`run_local_columnsgd` executes Algorithm 3 against a
:class:`~repro.runtime.LocalRuntime`: every logical worker is a real OS
process holding its column partition(s), statistics cross process
boundaries as codec-encoded payloads
(:func:`~repro.storage.serialization.encode_payload`), and the round's
duration is measured wall-clock instead of derived from Table-I
formulas.

The numerics are the same code the simulator runs —
:class:`~repro.core.worker.ColumnWorker` in the worker processes,
:class:`~repro.core.master.ColumnMaster` at the master — and every
process holds its own copy of the shared
:class:`~repro.partition.indexing.TwoPhaseIndex`, so iteration ``t``'s
draws are identical everywhere without any batch-index traffic (the
paper's deterministic-index trick, now exercised across real process
boundaries).  With ``wire_precision='fp64'`` the codec is raw-byte
lossless and a fixed-seed run reproduces the simulator's trajectory
exactly; ``fp32`` rounds through float32 on encode, matching the
simulated wire's semantics value for value.

A round awaits one exchange, ``compute``.  The ``update`` broadcast is
posted (``run_all(..., wait=False)``): the workers apply it while the
master finishes the round, and the next exchange drains its acks, from
which the round's ``update_model`` phase is booked.

Fault tolerance mirrors the simulator's pipeline on real processes
(see ``docs/faults.md``):

* a :class:`~repro.runtime.LocalChaos` plan passed as ``failures=``
  SIGKILLs worker processes, stalls handlers, and drops/garbles reply
  frames — seeded and deterministic per seed;
* the transport detects death (pipe EOF) and silence (TimeoutSync-style
  alpha x median deadlines) and this executor recovers: dead processes
  are respawned and their logical workers restored from the on-disk
  :class:`~repro.core.recovery.LocalCheckpointStore` (codec decode +
  optimizer reload — rollback to snapshot, no replay, exactly like the
  simulated ``RecoveryManager``), falling back to zero-init when no
  snapshot exists;
* silent-but-alive workers follow the config's sync policy: ``'stale'``
  substitutes the master's cached contribution for the round (the
  worker catches up in pipe order), ``'raise'``/plain-barrier escalates;
* every episode lands on the engine trace as
  :class:`~repro.engine.trace.RetryEvent` /
  :class:`~repro.engine.trace.RecoveryEvent`, so ``fault_timeline`` and
  gantt rendering work unchanged.

Byte accounting uses the *actual* encoded lengths, which equal the
simulator's size model by construction — so a
:class:`~repro.net.protocol.ProtocolChecker` run against the local
runtime audits real bytes against the same Table-I expectations
(retransmissions under a RETRY envelope, checkpoint/restore traffic as
unchecked CHECKPOINT chatter, like the sim).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.recovery import LocalCheckpointStore
from repro.core.results import TrainingResult
from repro.core.worker import ColumnWorker
from repro.engine import EngineTrace, PhaseEvent, RoundOutcome, run_training_loop
from repro.engine.trace import RecoveryEvent
from repro.errors import ConfigurationError, WorkerUnresponsiveError
from repro.net.message import Message, MessageKind
from repro.net.protocol import ProtocolChecker, TrafficEnvelope
from repro.partition.indexing import TwoPhaseIndex
from repro.runtime.chaos import LocalChaos
from repro.runtime.deadline import TimeoutPolicy
from repro.runtime.local import Exchange, LocalRuntime, WorkerReply
from repro.storage.serialization import (
    OBJECT_OVERHEAD_BYTES,
    DenseVectorPayload,
    decode_payload,
    encode_payload,
)

#: phase order of one local ColumnSGD round, for trace rendering
_PHASES = ("compute_statistics", "gather", "reduce", "broadcast", "update_model")
_CATEGORIES = {
    "compute_statistics": "compute",
    "gather": "comm",
    "reduce": "master",
    "broadcast": "comm",
    "update_model": "compute",
}
_KINDS = {
    "gather": MessageKind.STATISTICS_PUSH.value,
    "broadcast": MessageKind.STATISTICS_BCAST.value,
}

#: bounded death-recovery attempts per exchange before escalating
_MAX_RECOVERY_ROUNDS = 3


@dataclass
class ColumnWorkerProgram:
    """One logical worker's program, hosted in a worker process.

    Ships the worker's partition state plus its own copy of the batch
    index; every op is deterministic in ``(seed, iteration)`` so no
    coordination messages are needed beyond the statistics exchange.
    """

    worker: ColumnWorker
    index: TwoPhaseIndex
    batch_size: int
    wire_precision: str

    def handle(self, op: str, args: dict, payload: Optional[bytes]):
        if op == "compute":
            draws = self.index.sample(int(args["t"]), self.batch_size)
            stats, nnz = self.worker.compute_statistics(draws)
            encoded = encode_payload(
                DenseVectorPayload(stats, precision=self.wire_precision)
            )
            return {"nnz": int(nnz), "shape": list(stats.shape)}, encoded
        if op == "update":
            reduced = decode_payload(payload).values.reshape(args["shape"])
            self.worker.update_model(reduced, int(args["t"]))
            return {}, None
        if op == "checkpoint":
            # Snapshot every owned partition: wire-codec params (always
            # fp64 — snapshots must restore losslessly) + pickled
            # optimizer state.  The master spills the blob to disk.
            blob = {}
            for pid, state in self.worker.partitions.items():
                encoded = encode_payload(
                    DenseVectorPayload(
                        np.asarray(state.params, dtype=np.float64).ravel(),
                        precision="fp64",
                    )
                )
                blob[pid] = (
                    tuple(state.params.shape),
                    encoded,
                    pickle.dumps(state.optimizer, protocol=pickle.HIGHEST_PROTOCOL),
                )
            return {"partitions": sorted(blob)}, pickle.dumps(blob)
        if op == "restore":
            # Post-respawn state reload: decode each partition's
            # snapshot (or zero-init when the master had none) into the
            # freshly forked — and therefore stale — partition state.
            blob = pickle.loads(payload)
            modes = {}
            for pid, (shape, params_bytes, opt_blob) in blob.items():
                state = self.worker.partitions[pid]
                if params_bytes is None:
                    state.params[...] = 0.0
                    state.optimizer.reset()
                    modes[pid] = "zero-init"
                else:
                    state.params[...] = decode_payload(params_bytes).values.reshape(
                        shape
                    )
                    state.optimizer = pickle.loads(opt_blob)
                    modes[pid] = "checkpoint"
            return {"modes": modes}, None
        if op == "draws":
            draws = self.index.sample(int(args["t"]), self.batch_size)
            return {"draws": [tuple(map(int, d)) for d in draws]}, None
        if op == "store_stats":
            # Shard cache counters of each owned partition (zeros for
            # in-memory stores).  Out-of-band like "params": the store
            # readers live in *this* process, so the master can only
            # learn their hit/miss/bytes tallies through a reply.
            return {
                "stats": {
                    pid: state.store.cache_stats()
                    for pid, state in self.worker.partitions.items()
                }
            }, None
        if op == "params":
            # Out-of-band state fetch for evaluation/final assembly —
            # not message-accounted, matching the simulator's convention
            # that evaluation is free of protocol traffic.
            return {
                "params": {
                    pid: np.array(state.params, copy=True)
                    for pid, state in self.worker.partitions.items()
                }
            }, None
        raise ValueError("unknown op {!r}".format(op))


@dataclass
class _PostedUpdate:
    """A round whose posted ``update`` has not been booked yet."""

    t: int
    round_start: float
    #: where the round's update_model span starts on the trace
    offset: float
    phase_seconds: Dict[str, float]
    worker_seconds: Dict[str, Dict[int, float]]
    acks: Dict[int, WorkerReply] = field(default_factory=dict)


def _build_program(driver, worker_id: int) -> ColumnWorkerProgram:
    """A (fresh) program for one logical worker, for start or respawn."""
    return ColumnWorkerProgram(
        worker=driver._workers[worker_id],
        index=driver._index,
        batch_size=driver.config.batch_size,
        wire_precision=driver.config.wire_precision,
    )


def make_local_runtime(driver) -> Tuple[LocalRuntime, Dict[int, ColumnWorkerProgram]]:
    """Build (but do not start) the runtime + programs for a driver."""
    config = driver.config
    if driver._index is None:
        raise ConfigurationError("call load() before starting the local backend")
    if (
        not isinstance(driver.failures, LocalChaos)
        and driver.failures.any_scheduled()
    ):
        raise ConfigurationError(
            "backend='local' runs real processes; simulated failure "
            "injection cannot reach them — pass a repro.runtime.LocalChaos "
            "plan for real faults, or use backend='sim'"
        )
    timeout = TimeoutPolicy(
        alpha=config.sync_alpha,
        floor_s=config.local_timeout_s,
        max_retries=(
            config.sync_max_retries if config.sync_policy == "retry" else 0
        ),
        backoff=config.sync_backoff,
    )
    runtime = LocalRuntime(
        driver.cluster.n_workers,
        processes=config.local_processes,
        timeout=timeout,
    )
    programs = {
        w: _build_program(driver, w) for w in range(driver.cluster.n_workers)
    }
    return runtime, programs


def run_local_columnsgd(
    driver,
    iterations: int,
    result: TrainingResult,
    runtime: Optional[LocalRuntime] = None,
) -> TrainingResult:
    """Drive ``iterations`` real multiprocess rounds for ``driver``.

    Called by :meth:`~repro.core.driver.ColumnSGDDriver.fit` when the
    config says ``backend='local'``; ``result`` already carries the run
    metadata (and the initial evaluation record).  An externally
    started ``runtime`` may be passed for tests; otherwise one is
    created, started, and closed here.
    """
    config = driver.config
    owns_runtime = runtime is None
    if owns_runtime:
        runtime, programs = make_local_runtime(driver)
        runtime.start(programs)
    driver.local_runtime = runtime
    # Continue the recorded time axis: load() charged simulated seconds
    # to the cluster clock and the initial eval record carries that
    # offset, so measured rounds must accumulate on top of it.
    runtime.clock.reset(driver.cluster.clock.now())

    trace = EngineTrace(system=result.system)
    runtime.engine_trace = trace
    driver.cluster.engine_trace = trace
    checker = ProtocolChecker(runtime) if config.check_protocol else None
    K = runtime.n_workers

    chaos = driver.failures if isinstance(driver.failures, LocalChaos) else None
    policy = driver.recovery_policy
    store = LocalCheckpointStore() if policy.checkpoint_every else None
    driver.local_checkpoints = store
    stale_allowed = (
        config.sync_policy != "backup" and config.sync_on_exhausted == "stale"
    )
    posted: Optional[_PostedUpdate] = None

    def settle(ex: Exchange) -> Dict[int, WorkerReply]:
        """Keep the update acks an exchange drained for book_update."""
        if posted is not None:
            posted.acks.update(ex.acks)
        return ex.acks

    def book_update() -> None:
        """Book the posted update to the round that posted it.

        Its handler seconds arrive on the acks of whichever exchanges
        next reached the worker processes (the next round's compute, a
        checkpoint or restore, or an evaluation's parameter sync).
        """
        nonlocal posted
        if posted is None:
            return
        busy = runtime.busiest_process_seconds(posted.acks)
        posted.phase_seconds["update_model"] = busy
        posted.worker_seconds["update_model"].update(
            {w: r.seconds for w, r in posted.acks.items()}
        )
        _trace_phases(
            trace, posted.t, posted.round_start, {"update_model": busy}, posted.offset
        )
        posted = None

    # ------------------------------------------------------------------
    # fault pipeline: checkpoint, detect, respawn, restore
    # ------------------------------------------------------------------
    def write_checkpoint(t: int) -> float:
        """Pull every live worker's snapshot blob and spill it to disk."""
        ex = runtime.run_all("checkpoint", iteration=t, raise_on_fault=False)
        settle(ex)
        for w, reply in ex.replies.items():
            runtime.network.send(
                Message(
                    MessageKind.CHECKPOINT,
                    w,
                    Message.MASTER,
                    OBJECT_OVERHEAD_BYTES + len(reply.payload),
                )
            )
            for pid, (shape, params_bytes, opt_blob) in pickle.loads(
                reply.payload
            ).items():
                store.write(t, pid, shape, params_bytes, opt_blob)
        # dead workers discovered here are recovered by the round's first
        # reliable exchange; their partitions keep the previous snapshot
        return ex.seconds

    def recover_dead(t: int, detect_s: float) -> float:
        """Respawn dead processes and restore their logical workers.

        Escalation per partition: checkpoint restore when a snapshot is
        on disk, zero-init otherwise (backup replicas need backup > 0,
        which the local backend does not host).  Records one
        :class:`RecoveryEvent` per recovered worker.
        """
        dead = runtime.dead_workers()
        if not dead:
            return 0.0
        respawn_s = runtime.respawn({w: _build_program(driver, w) for w in dead})
        total = respawn_s
        detect_share = detect_s
        for w in dead:
            blob = {}
            restored_from_store = bool(driver.groups.partitions_of_worker(w))
            for pid in driver.groups.partitions_of_worker(w):
                if store is not None and store.has_snapshot(pid):
                    _, shape, params_bytes, opt_blob = store.read(pid)
                    blob[pid] = (shape, params_bytes, opt_blob)
                else:
                    blob[pid] = (None, None, None)
                    restored_from_store = False
            mode = "checkpoint" if restored_from_store else "zero-init"
            payload = pickle.dumps(blob)
            runtime.network.send(
                Message(
                    MessageKind.CHECKPOINT,
                    Message.MASTER,
                    w,
                    OBJECT_OVERHEAD_BYTES + len(payload),
                )
            )
            ex = runtime.run_all(
                "restore", payload=payload, workers=[w], iteration=t
            )
            settle(ex)
            total += ex.seconds
            trace.add_recovery(
                RecoveryEvent(
                    round=t,
                    kind="worker",
                    mode=mode,
                    worker=w,
                    detect_s=detect_share,
                    reload_s=respawn_s / len(dead) + ex.seconds,
                )
            )
            detect_share = 0.0  # the episode's detection delay is paid once
        return total

    def exchange_reliably(
        t: int,
        op: str,
        args: Optional[dict] = None,
        payload: Optional[bytes] = None,
        per_worker_args: Optional[Dict[int, dict]] = None,
    ) -> Tuple[Dict[int, WorkerReply], List[int], float, int, Dict[int, WorkerReply]]:
        """One exchange that survives worker-process death.

        Runs ``op`` across all workers; on detected death it respawns +
        restores (checkpoint -> zero-init) and re-issues the op to every
        worker still missing — deterministic ops make the re-run exact.
        Returns ``(replies, silent_workers, seconds, retries, acks)``
        where ``silent_workers`` are alive-but-timed-out workers left for
        the sync policy to resolve and ``acks`` the posted update replies
        the exchange drained first.
        """
        replies: Dict[int, WorkerReply] = {}
        acks: Dict[int, WorkerReply] = {}
        failures: Dict[int, object] = {}
        seconds = 0.0
        retries = 0
        targets = list(range(K))
        extra = per_worker_args
        for _ in range(_MAX_RECOVERY_ROUNDS):
            ex = runtime.run_all(
                op,
                args=args,
                payload=payload,
                per_worker_args=extra,
                workers=targets,
                iteration=t,
                raise_on_fault=False,
            )
            replies.update(ex.replies)
            acks.update(settle(ex))
            seconds += ex.seconds
            retries += ex.retries
            failures = dict(ex.failures)
            if not ex.dead_workers():
                break
            seconds += recover_dead(t, detect_s=ex.seconds)
            targets = sorted(failures)  # everyone still missing
            extra = None  # injected straggler delays apply once
        else:
            raise WorkerUnresponsiveError(
                op,
                dead=runtime.dead_workers(),
                silent=sorted(failures),
            )
        return replies, sorted(failures), seconds, retries, acks

    # ------------------------------------------------------------------
    # the measured round
    # ------------------------------------------------------------------
    def run_round(t: int) -> RoundOutcome:
        nonlocal posted
        round_start = runtime.clock.now()
        extra_s = 0.0
        stall_args: Optional[Dict[int, dict]] = None
        if chaos is not None:
            stall_args = runtime.inject_faults(chaos.events_at(t)) or None
        if store is not None and t % policy.checkpoint_every == 0:
            extra_s += write_checkpoint(t)

        stats_replies, silent, stats_s, retries, acks = exchange_reliably(
            t, "compute", args={"t": t}, per_worker_args=stall_args
        )
        book_update()
        if silent and not stale_allowed:
            raise WorkerUnresponsiveError("compute", silent=silent)
        arrived = sorted(stats_replies)
        payloads = {w: stats_replies[w].payload for w in arrived}
        sizes = [len(payloads[w]) for w in arrived]
        runtime.gather(MessageKind.STATISTICS_PUSH, sizes)
        shape = stats_replies[arrived[0]].result["shape"]
        stale_groups = {w // driver.groups.group_size for w in silent}

        def reduce_step() -> bytes:
            stats_by_worker = {
                w: (
                    decode_payload(payloads[w]).values.reshape(shape)
                    if w in payloads
                    else None
                )
                for w in range(K)
            }
            reduced = driver.master.reduce(
                stats_by_worker, stale_groups=stale_groups or None
            )
            return encode_payload(
                DenseVectorPayload(reduced, precision=config.wire_precision)
            )

        reduced_payload, reduce_s = runtime.measure(reduce_step)
        # Posted: the workers apply the update while the master finishes
        # the round, and the next exchange drains the acks.  A process
        # found dead here is recovered by that exchange (rollback to its
        # snapshot, which the update could not have reached anyway).
        update = runtime.run_all(
            "update",
            args={"t": t, "shape": shape},
            payload=reduced_payload,
            iteration=t,
            raise_on_fault=False,
            wait=False,
        )
        runtime.broadcast(MessageKind.STATISTICS_BCAST, len(reduced_payload))

        stats_busy = runtime.busiest_process_seconds(stats_replies)
        phase_seconds = {
            "compute_statistics": stats_busy,
            # the drained update ran ahead of compute in the same pipes
            "gather": max(
                0.0, stats_s - runtime.busiest_process_seconds(stats_replies, acks)
            ),
            "reduce": reduce_s,
            "broadcast": update.seconds,
            "update_model": 0.0,  # booked from the acks by book_update
        }
        worker_seconds = {
            "compute_statistics": {
                w: r.seconds for w, r in stats_replies.items()
            },
            "update_model": {},
        }
        offset = _trace_phases(
            trace,
            t,
            round_start,
            {name: phase_seconds[name] for name in _PHASES if name != "update_model"},
        )
        posted = _PostedUpdate(t, round_start, offset, phase_seconds, worker_seconds)
        driver.last_phase_seconds = phase_seconds
        driver.last_worker_seconds = worker_seconds
        driver.last_killed = {
            e.worker for e in trace.round_recoveries(t) if e.worker is not None
        }
        expected = {
            MessageKind.STATISTICS_PUSH: (len(arrived), sum(sizes)),
            MessageKind.STATISTICS_BCAST: (K, K * len(reduced_payload)),
        }
        if retries:
            # each retry is one resend, plus (for garbles) one wasted
            # arrival — bound, not exact, like the sim's ARQ envelope
            frame = OBJECT_OVERHEAD_BYTES + max(sizes + [len(reduced_payload)])
            expected[MessageKind.RETRY] = TrafficEnvelope(
                retries, 2 * retries, 0, 2 * retries * frame
            )
        return RoundOutcome(
            duration=stats_s + reduce_s + update.seconds + extra_s,
            phase_seconds=phase_seconds,
            worker_seconds=worker_seconds,
            chosen=set(arrived),
            expected=expected,
        )

    def record(t: int, duration: float, bytes_sent: int, evaluate: bool) -> None:
        if evaluate:
            settle(sync_params(runtime, driver))
            book_update()
        driver._record(
            result, t, duration, bytes_sent, evaluate, now=runtime.clock.now()
        )

    try:
        stopped_at = run_training_loop(
            cluster=runtime,
            run_round=run_round,
            iterations=iterations,
            eval_every=config.eval_every,
            record=record,
            checker=checker,
            should_stop=lambda: driver._should_stop_early(result),
        )
        if stopped_at is not None:
            result.notes = "early stop at iteration {}".format(stopped_at)
        settle(sync_params(runtime, driver))
        book_update()
        driver.store_read_stats = collect_store_stats(runtime)
    finally:
        if owns_runtime:
            runtime.close()
        if store is not None:
            store.close()
    result.final_params = driver.current_params()
    return result


def sync_params(runtime: LocalRuntime, driver) -> Exchange:
    """Pull model partitions out of the worker processes into the driver.

    The worker processes own the live parameters; evaluation and final
    assembly happen at the master, so this copies them back (an
    out-of-band fetch, like the simulator's free evaluation).  Returns
    the exchange, whose acks hold any posted update it drained first.
    """
    exchange = runtime.run_all("params")
    for reply in exchange.replies.values():
        for pid, params in reply.result["params"].items():
            driver._partitions[pid].params[...] = params
    return exchange


def collect_store_stats(runtime: LocalRuntime) -> Dict[int, Dict[int, Dict[str, int]]]:
    """Pull per-partition shard cache counters out of the workers.

    Returns ``worker id -> partition id -> counters``; in-memory stores
    report zeros, shard-backed ones the real hit/miss/bytes tallies
    charged in their own process.
    """
    exchange = runtime.run_all("store_stats")
    return {
        w: reply.result["stats"] for w, reply in exchange.replies.items()
    }


def _trace_phases(
    trace: EngineTrace,
    t: int,
    round_start: float,
    phase_seconds: Dict[str, float],
    offset: float = 0.0,
) -> float:
    """Record measured phases as sequential :class:`PhaseEvent` spans.

    The spans start ``offset`` seconds into round ``t``; returns the
    offset where the last one ends.
    """
    for name, seconds in phase_seconds.items():
        trace.add(
            PhaseEvent(
                round=t,
                phase=name,
                category=_CATEGORIES[name],
                start=offset,
                end=offset + seconds,
                sim_start=round_start + offset,
                sim_end=round_start + offset + seconds,
                kind=_KINDS.get(name),
            )
        )
        offset += seconds
    return offset


def local_round_sizes(driver) -> List[int]:
    """Analytic per-worker statistics bytes (what the codec must emit)."""
    B, width = driver.config.batch_size, driver.model.statistics_width
    from repro.storage.serialization import OBJECT_OVERHEAD_BYTES

    size = OBJECT_OVERHEAD_BYTES + B * width * driver.config.wire_value_bytes
    return [size] * driver.cluster.n_workers
