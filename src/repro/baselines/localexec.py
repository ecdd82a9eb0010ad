"""RowSGD (MLlib) on the local multiprocess backend.

Algorithm 2 with one real process per logical worker: the master ships
the full dense model (codec-encoded, ``MODEL_PULL``), each worker
samples its shard-local batch deterministically (the same
``(seed, iteration, worker)`` routing as
:func:`~repro.partition.row.sample_shard_batch`), computes its *sum*
gradient, and pushes it back (``GRADIENT_PUSH``).  The master sums
contributions in worker order, adds the regularizer once, and steps the
optimizer — floating-point-identical to the simulated trainer, which
runs the same code in-process.

Fault tolerance is the easy case of the pipeline in
``repro.core.localexec``: RowSGD workers are *stateless* with respect
to the model (it lives at the master; a shard is just data the master
still holds), so recovering a SIGKILLed process is respawn + nothing —
recorded as a ``mode='reload'`` :class:`~repro.engine.trace.RecoveryEvent`
— and the gradient op is a pure function of ``(model payload, t, w)``
so the re-issued exchange is numerically exact.  Stalled workers are
absorbed by the deadline/retry transport; workers silent past every
deadline raise :class:`~repro.errors.WorkerUnresponsiveError` (MLlib's
plain BSP barrier has no stale-statistics substitute).

Only the MLlib baseline is ported: it is the paper's Table-IV
comparison point, and its model lives at the master so evaluation needs
no parameter sync.  The other baselines (parameter servers, SSP,
model averaging) remain simulator-only and say so loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.results import TrainingResult
from repro.datasets.dataset import Dataset
from repro.engine import EngineTrace, PhaseEvent, RoundOutcome, run_training_loop
from repro.engine.trace import RecoveryEvent
from repro.errors import (
    ConfigurationError,
    TrainingError,
    WorkerUnresponsiveError,
)
from repro.models.base import StatisticsModel
from repro.net.message import MessageKind
from repro.net.protocol import ProtocolChecker, TrafficEnvelope
from repro.partition.row import sample_shard_batch
from repro.runtime.chaos import LocalChaos
from repro.runtime.deadline import TimeoutPolicy
from repro.runtime.local import LocalRuntime, WorkerReply
from repro.storage.serialization import (
    OBJECT_OVERHEAD_BYTES,
    DenseVectorPayload,
    decode_payload,
    encode_payload,
)

#: phase order of one local RowSGD round (pull and push share the
#: exchange's transport time evenly — the command and the reply ride
#: the same round-trip, so the split is a rendering convention)
_PHASES = ("pull", "compute_gradients", "push", "center_update")

#: bounded death-recovery attempts per exchange before escalating
_MAX_RECOVERY_ROUNDS = 3


@dataclass
class RowWorkerProgram:
    """One RowSGD worker: a horizontal shard + deterministic sampling."""

    model: StatisticsModel
    shard: Dataset
    worker: int
    n_workers: int
    base_seed: int
    batch_size: int

    def handle(self, op: str, args: dict, payload: Optional[bytes]):
        if op == "gradient":
            params = decode_payload(payload).values.reshape(args["shape"])
            local = sample_shard_batch(
                self.shard,
                base_seed=self.base_seed,
                iteration=int(args["t"]),
                batch_size=self.batch_size,
                worker=self.worker,
                n_workers=self.n_workers,
            )
            if local.n_rows:
                stats = self.model.compute_statistics(local.features, params)
                # Zero params contribute no regularization gradient (the
                # penalty is added once at the master), mirroring the
                # simulated trainer's convention.
                mean_grad = self.model.gradient_from_statistics(
                    local.features, local.labels, stats, np.zeros_like(params)
                )
                contribution = mean_grad * local.n_rows
            else:
                contribution = np.zeros_like(params)
            encoded = encode_payload(DenseVectorPayload(contribution))
            return {
                "n_rows": int(local.n_rows),
                "nnz": int(local.nnz),
                "shape": list(contribution.shape),
            }, encoded
        raise ValueError("unknown op {!r}".format(op))


def run_local_rowsgd(
    trainer,
    iterations: int,
    result: TrainingResult,
    runtime: Optional[LocalRuntime] = None,
) -> TrainingResult:
    """Drive ``iterations`` real multiprocess MLlib rounds.

    Called by :meth:`~repro.baselines.base.BaselineTrainer.fit` when the
    config says ``backend='local'``.
    """
    from repro.baselines.mllib import MLlibTrainer

    if not isinstance(trainer, MLlibTrainer):
        raise ConfigurationError(
            "backend='local' is implemented for the MLlib baseline only; "
            "{} is simulator-only".format(type(trainer).__name__)
        )
    if getattr(trainer.config, "store_dir", ""):
        raise ConfigurationError(
            "store_dir holds a *column*-shard store; the row-oriented "
            "MLlib baseline cannot read it — use the ColumnSGD driver "
            "or drop store_dir"
        )
    chaos = trainer.failures if isinstance(trainer.failures, LocalChaos) else None
    if chaos is None and trainer.failures.any_scheduled():
        raise ConfigurationError(
            "backend='local' runs real processes; simulated failure "
            "injection cannot reach them — pass a repro.runtime.LocalChaos "
            "plan for real faults, or use backend='sim'"
        )
    config = trainer.config
    K = trainer.cluster.n_workers

    def program_for(w: int) -> RowWorkerProgram:
        return RowWorkerProgram(
            model=trainer.model,
            shard=trainer._partitioner.shard(w),
            worker=w,
            n_workers=K,
            base_seed=config.seed,
            batch_size=config.batch_size,
        )

    owns_runtime = runtime is None
    if owns_runtime:
        runtime = LocalRuntime(
            K,
            processes=config.local_processes,
            timeout=TimeoutPolicy(floor_s=config.local_timeout_s),
        )
        runtime.start({w: program_for(w) for w in range(K)})
    trainer.local_runtime = runtime
    # Continue the recorded time axis: load() charged simulated seconds
    # to the cluster clock and the initial eval record carries that
    # offset, so measured rounds must accumulate on top of it.
    runtime.clock.reset(trainer.cluster.clock.now())

    trace = EngineTrace(system=result.system)
    runtime.engine_trace = trace
    trainer.cluster.engine_trace = trace
    checker = ProtocolChecker(runtime) if config.check_protocol else None

    def gradient_exchange(
        t: int,
        args: dict,
        payload: bytes,
        stall_args: Optional[Dict[int, dict]],
    ):
        """The gather, surviving worker-process death by respawn.

        Nothing to restore: the model rides in ``payload`` and the shard
        is rebuilt from the master's copy, so a recovered worker is
        whole the moment it forks (``mode='reload'``)."""
        replies: Dict[int, WorkerReply] = {}
        seconds = 0.0
        retries = 0
        targets = list(range(K))
        extra = stall_args
        failures: Dict[int, object] = {}
        for _ in range(_MAX_RECOVERY_ROUNDS):
            ex = runtime.run_all(
                "gradient",
                args=args,
                payload=payload,
                per_worker_args=extra,
                workers=targets,
                iteration=t,
                raise_on_fault=False,
            )
            replies.update(ex.replies)
            seconds += ex.seconds
            retries += ex.retries
            failures = dict(ex.failures)
            dead = runtime.dead_workers()
            if not ex.dead_workers():
                break
            respawn_s = runtime.respawn({w: program_for(w) for w in dead})
            seconds += respawn_s
            detect = ex.seconds
            for w in dead:
                trace.add_recovery(
                    RecoveryEvent(
                        round=t,
                        kind="worker",
                        mode="reload",
                        worker=w,
                        detect_s=detect,
                        reload_s=respawn_s / len(dead),
                    )
                )
                detect = 0.0
            targets = sorted(failures)
            extra = None  # injected straggler delays apply once
        else:
            raise WorkerUnresponsiveError(
                "gradient",
                dead=runtime.dead_workers(),
                silent=sorted(failures),
            )
        if failures:
            raise WorkerUnresponsiveError("gradient", silent=sorted(failures))
        return replies, seconds, retries

    def run_round(t: int) -> RoundOutcome:
        round_start = runtime.clock.now()
        stall_args = (
            runtime.inject_faults(chaos.events_at(t)) or None
            if chaos is not None
            else None
        )
        model_payload = encode_payload(DenseVectorPayload(trainer._params))
        shape = list(trainer._params.shape)
        replies, exchange_s, retries = gradient_exchange(
            t, {"t": t, "shape": shape}, model_payload, stall_args
        )
        runtime.broadcast(MessageKind.MODEL_PULL, len(model_payload))
        sizes = [len(replies[w].payload) for w in range(K)]
        runtime.gather(MessageKind.GRADIENT_PUSH, sizes)

        def center_update() -> None:
            grad_sum = np.zeros_like(trainer._params)
            batch_rows = 0
            for w in range(K):
                reply = replies[w]
                grad_sum += decode_payload(reply.payload).values.reshape(shape)
                batch_rows += reply.result["n_rows"]
            if batch_rows == 0:
                raise TrainingError("empty global batch")
            gradient = grad_sum / batch_rows + trainer.model.regularizer.gradient(
                trainer._params
            )
            trainer.optimizer.step(trainer._params, gradient, t)

        _, update_s = runtime.measure(center_update)
        compute_s = runtime.busiest_process_seconds(replies)
        comm_s = max(0.0, exchange_s - compute_s)
        phase_seconds = {
            "pull": comm_s / 2.0,
            "compute_gradients": compute_s,
            "push": comm_s / 2.0,
            "center_update": update_s,
        }
        _trace_round(trace, t, round_start, phase_seconds)
        worker_seconds = {
            "compute_gradients": {w: r.seconds for w, r in replies.items()}
        }
        expected = {
            MessageKind.MODEL_PULL: (K, K * len(model_payload)),
            MessageKind.GRADIENT_PUSH: (K, sum(sizes)),
        }
        if retries:
            frame = OBJECT_OVERHEAD_BYTES + max(sizes + [len(model_payload)])
            expected[MessageKind.RETRY] = TrafficEnvelope(
                retries, 2 * retries, 0, 2 * retries * frame
            )
        return RoundOutcome(
            duration=exchange_s + update_s,
            phase_seconds=phase_seconds,
            worker_seconds=worker_seconds,
            chosen=set(range(K)),
            expected=expected,
        )

    try:
        run_training_loop(
            cluster=runtime,
            run_round=run_round,
            iterations=iterations,
            eval_every=config.eval_every,
            record=lambda t, duration, bytes_sent, evaluate: trainer._record(
                result, t, duration, bytes_sent, evaluate,
                now=runtime.clock.now(),
            ),
            checker=checker,
        )
    finally:
        if owns_runtime:
            runtime.close()
    result.final_params = np.array(trainer._params, copy=True)
    return result


def _trace_round(trace, t, round_start, phase_seconds) -> None:
    offset = 0.0
    categories = {
        "pull": "comm",
        "compute_gradients": "compute",
        "push": "comm",
        "center_update": "master",
    }
    kinds = {
        "pull": MessageKind.MODEL_PULL.value,
        "push": MessageKind.GRADIENT_PUSH.value,
    }
    for name in _PHASES:
        seconds = phase_seconds[name]
        trace.add(
            PhaseEvent(
                round=t,
                phase=name,
                category=categories[name],
                start=offset,
                end=offset + seconds,
                sim_start=round_start + offset,
                sim_end=round_start + offset + seconds,
                kind=kinds.get(name),
            )
        )
        offset += seconds
