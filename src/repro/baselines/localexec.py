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

Fault tolerance is the easy case of the shared harness in
:mod:`repro.engine.local`: RowSGD workers are *stateless* with respect
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
from typing import Optional

import numpy as np

from repro.core.results import TrainingResult
from repro.datasets.dataset import Dataset
from repro.engine import RoundOutcome
from repro.engine.local import LocalHarness, expect_retries
from repro.errors import (
    ConfigurationError,
    TrainingError,
    WorkerUnresponsiveError,
)
from repro.models.base import StatisticsModel
from repro.net.message import MessageKind
from repro.partition.row import sample_shard_batch
from repro.runtime.deadline import TimeoutPolicy
from repro.storage.serialization import (
    DenseVectorPayload,
    decode_payload,
    encode_payload,
)


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
    trainer, iterations: int, result: TrainingResult
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

    # Nothing to restore: the model rides in every gradient payload and
    # the shard is rebuilt from the master's copy, so a respawned worker
    # is whole the moment it forks.
    harness = LocalHarness(
        trainer,
        result,
        TimeoutPolicy(floor_s=config.local_timeout_s),
        program_for,
        restore=lambda w, t: ("reload", 0.0),
    )
    runtime = harness.runtime

    def run_round(t: int) -> RoundOutcome:
        round_start = runtime.clock.now()
        stall_args = harness.stall_args(t)
        model_payload = encode_payload(DenseVectorPayload(trainer._params))
        shape = list(trainer._params.shape)
        replies, silent, exchange_s, retries, _ = harness.exchange(
            t, "gradient", {"t": t, "shape": shape}, model_payload, stall_args
        )
        if silent:
            raise WorkerUnresponsiveError("gradient", silent=silent)
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
        # pull and push share the exchange's transport time evenly: the
        # command and the reply ride one round trip, so the split is a
        # rendering convention
        phase_seconds = {
            "pull": comm_s / 2.0,
            "compute_gradients": compute_s,
            "push": comm_s / 2.0,
            "center_update": update_s,
        }
        harness.trace_phases(t, round_start, phase_seconds)
        expected = {
            MessageKind.MODEL_PULL: (K, K * len(model_payload)),
            MessageKind.GRADIENT_PUSH: (K, sum(sizes)),
        }
        return RoundOutcome(
            duration=exchange_s + update_s,
            phase_seconds=phase_seconds,
            worker_seconds={
                "compute_gradients": {w: r.seconds for w, r in replies.items()}
            },
            chosen=set(range(K)),
            expected=expect_retries(expected, retries, sizes + [len(model_payload)]),
        )

    harness.run(run_round, iterations)
    result.final_params = np.array(trainer._params, copy=True)
    return result
