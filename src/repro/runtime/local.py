"""The local backend: real worker processes, real bytes, wall-clock time.

:class:`LocalRuntime` hosts K *logical* workers on P OS processes
(``multiprocessing``), each process owning its workers' state — for
ColumnSGD, the column partitions themselves.  Exchanges move payloads
produced by the codec in :mod:`repro.storage.serialization`, so the
bytes accounted per :class:`~repro.net.message.Message` are exactly
``len(encode_payload(...))`` — which equals the simulator's byte model
by construction.  Time is *measured*: every exchange is bracketed by a
monotonic counter and the round loop advances a :class:`WallClock`
accumulator with the measured seconds.

The worker *process* is the unit of transport: an exchange sends each
targeted process one command frame (every hosted worker's entry plus
the shared payload once) and reads back one reply frame.  A process
reads its whole frame before it works or replies, so issuing an
exchange never blocks on a process that is itself blocked sending.  An
exchange may also be *posted* (``run_all(..., wait=False)``): its
replies are drained by the next awaited exchange to the same processes
and returned on :attr:`Exchange.acks`.

Fault tolerance (the real-process port of ``docs/faults.md``):

* every wait is **deadline-bounded** through the sanctioned helpers in
  :mod:`repro.runtime.deadline` (lint rule R018); the deadline follows
  the simulator's TimeoutSync alpha x median rule over *measured*
  exchange durations;
* frame entries carry **sequence numbers** and workers replay their
  cached reply on a duplicate, so deadline-expiry resends are
  at-most-once — a retried op cannot run twice; posted frames are never
  resent;
* resends are accounted as :data:`~repro.net.message.MessageKind.RETRY`
  traffic exactly like the sim's lossy-link ARQ, and each expired
  deadline records a :class:`~repro.engine.trace.RetryEvent`;
* a silent worker becomes a :class:`WorkerTimeout` and a SIGKILLed /
  crashed process a :class:`WorkerDied` in ``Exchange.failures`` —
  structured outcomes the executors feed into the recovery pipeline —
  or a :class:`~repro.errors.WorkerUnresponsiveError` for callers that
  asked ``run_all`` to raise;
* :meth:`respawn` relaunches dead processes so the executors can
  restore their logical workers from checkpoints.

Division of labour with the trainer-side executors
(``repro.core.localexec`` / ``repro.baselines.localexec``):

* the runtime owns processes, pipes, measurement, fault injection
  mechanics, and traffic accounting — and is the only module in the
  tree allowed to touch ``time`` (it lives outside the protocol-path
  lint scope, and rule R008 sanctions calls into it);
* the executors own the algorithm *and the recovery policy*: what ops
  to issue, how to reduce, when to checkpoint, how to restore a
  respawned worker.

The size-based :class:`Runtime` transport methods are implemented as
**accounting primitives**: they record the per-kind/per-node
:class:`~repro.net.message.Message` counters and return ``0.0``,
because on this backend durations come from measurement (the
:meth:`run_all` exchange result), not from byte formulas.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, TypeVar

from repro.engine.trace import RetryEvent
from repro.errors import (
    ConfigurationError,
    SimulationError,
    WorkerUnresponsiveError,
)
from repro.net.message import Message, MessageKind
from repro.net.network import NetworkModel
from repro.net.topology import ring_allreduce_shards
from repro.runtime.base import Runtime, WallClock
from repro.runtime.chaos import LocalFaultEvent, LocalFaultKind
from repro.runtime.deadline import (
    TimeoutPolicy,
    join_within,
    recv_command,
    recv_ready,
    wait_ready,
)
from repro.storage.serialization import OBJECT_OVERHEAD_BYTES
from repro.utils.validation import check_non_negative, check_positive

T = TypeVar("T")

_STOP = "__stop__"
_PING = "__ping__"
#: reserved args key carrying an injected straggler delay (seconds)
_DELAY = "__delay__"


@dataclass(frozen=True)
class WorkerReply:
    """One logical worker's answer to an op."""

    worker: int
    result: dict
    payload: Optional[bytes]
    #: seconds the worker's process spent inside the op handler
    seconds: float


@dataclass(frozen=True)
class WorkerDied:
    """The process hosting ``worker`` was gone mid-exchange (EOF/SIGKILL)."""

    worker: int
    op: str

    def __str__(self) -> str:
        return "worker {} process died during op {!r}".format(self.worker, self.op)


@dataclass(frozen=True)
class WorkerTimeout:
    """``worker`` stayed silent past every retry deadline."""

    worker: int
    op: str
    deadline_s: float
    attempts: int

    def __str__(self) -> str:
        return "worker {} silent on op {!r} after {} attempt(s) ({:.3f}s deadline)".format(
            self.worker, self.op, self.attempts, self.deadline_s
        )


@dataclass(frozen=True)
class Exchange:
    """One full master <-> workers exchange.

    ``seconds`` is the wall-clock duration of the whole exchange
    (issue every command, workers handle them, collect every reply) as
    measured at the master; per-worker handler times are on the
    replies.  ``failures`` maps workers that produced no reply to their
    structured outcome (:class:`WorkerDied` / :class:`WorkerTimeout`);
    ``retries`` counts deadline-expiry and garble resends, each already
    accounted as RETRY traffic.  ``acks`` holds the replies of earlier
    posted ops (``run_all(..., wait=False)``) that this exchange drained
    from its processes' pipes before its own replies.  A posted exchange
    itself has no replies; its ``seconds`` is the time to send.
    """

    replies: Dict[int, WorkerReply]
    seconds: float
    failures: Dict[int, object] = field(default_factory=dict)
    retries: int = 0
    acks: Dict[int, WorkerReply] = field(default_factory=dict)

    def ok(self) -> bool:
        """True when every targeted worker replied."""
        return not self.failures

    def dead_workers(self) -> List[int]:
        """Workers whose host process died during the exchange."""
        return sorted(
            w for w, f in self.failures.items() if isinstance(f, WorkerDied)
        )

    def silent_workers(self) -> List[int]:
        """Workers that timed out (alive but past every deadline)."""
        return sorted(
            w for w, f in self.failures.items() if isinstance(f, WorkerTimeout)
        )

    def payloads(self) -> Dict[int, bytes]:
        """Per-worker reply payloads (workers that sent one)."""
        return {
            w: r.payload for w, r in self.replies.items() if r.payload is not None
        }

    def max_worker_seconds(self) -> float:
        """Slowest worker's handler time (0.0 with no replies)."""
        return max((r.seconds for r in self.replies.values()), default=0.0)

    def comm_seconds(self) -> float:
        """Exchange time not explained by the slowest handler.

        The master issues commands and drains replies while workers
        run, so ``total - max(handler)`` is the (non-negative) transport
        + scheduling share of the exchange.
        """
        return max(0.0, self.seconds - self.max_worker_seconds())


def _handle(program, op: str, seq: int, worker_id: int, args, payload) -> tuple:
    """Run one logical worker's entry of a command frame; its reply tuple."""
    args = dict(args) if args else {}
    delay = float(args.pop(_DELAY, 0.0))
    if delay > 0.0:
        time.sleep(delay)  # injected straggler (LocalFaultKind.STALL)
    if op == _PING:
        return (seq, worker_id, {"pong": True}, None, 0.0)
    start = time.perf_counter()
    try:
        result, reply_payload = program.handle(op, args, payload)
    except Exception as exc:  # surfaced at the master, see run_all
        result = {"__error__": "{}: {}".format(type(exc).__name__, exc)}
        reply_payload = None
    return (seq, worker_id, result, reply_payload, time.perf_counter() - start)


def _process_main(conn, programs: Dict[int, object]) -> None:
    """Worker-process loop: handle ops for the hosted logical workers.

    A command frame is ``(op, entries, payload, wait)``: one ``(seq,
    worker, args)`` entry per targeted hosted worker and the shared
    payload once.  The process handles the entries in order and answers
    an awaited frame with one reply frame, the list of their ``(seq,
    worker, result, payload, seconds)`` replies.  Replies to a posted
    frame (``wait`` false) are held and sent at the head of the next
    reply frame, so they still arrive ahead of later replies and a round
    costs one reply frame per process.  Each worker's last reply is
    cached by sequence number, and a duplicate entry (a master resend
    after a lost or late reply) replays the cache instead of
    re-executing — the at-most-once half of the ARQ, so a retried op
    cannot run twice.
    """
    last: Dict[int, Tuple[int, tuple]] = {}
    held: List[tuple] = []
    try:
        while True:
            ok, frame = recv_command(conn)
            if not ok:
                break  # master gone (EOF): exit rather than linger
            op, entries, payload, wait = frame
            if op == _STOP:
                break
            for seq, worker_id, args in entries:
                cached = last.get(worker_id)
                if cached is None or cached[0] != seq:
                    reply = _handle(
                        programs[worker_id], op, seq, worker_id, args, payload
                    )
                    cached = last[worker_id] = (seq, reply)
                held.append(cached[1])
            if wait:
                conn.send(held)
                held = []
    except (EOFError, BrokenPipeError, OSError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


class LocalRuntime(Runtime):
    """Execution substrate backed by real OS processes.

    ``processes=0`` (the default) gives every logical worker its own
    process; smaller values pack contiguous worker ranges into shared
    processes (useful on small machines — the numerics are identical
    either way because each logical worker keeps its own program
    state).  ``timeout`` bounds every exchange (see
    :class:`~repro.runtime.deadline.TimeoutPolicy`); no call into this
    class blocks indefinitely.
    """

    name = "local"

    def __init__(
        self,
        n_workers: int,
        processes: int = 0,
        start_method: str = "fork",
        bandwidth: float = 1e9 / 8,
        latency: float = 0.0,
        timeout: Optional[TimeoutPolicy] = None,
    ):
        check_positive(n_workers, "n_workers")
        check_non_negative(processes, "processes")
        if start_method not in ("fork", "spawn", "forkserver"):
            raise ConfigurationError(
                "unknown start_method {!r}; expected fork, spawn or "
                "forkserver".format(start_method)
            )
        self._n_workers = int(n_workers)
        self.n_processes = min(int(processes) or self._n_workers, self._n_workers)
        self.start_method = start_method
        self.timeout = timeout if timeout is not None else TimeoutPolicy()
        self._clock = WallClock()
        # Counter set only — transfer_time() is never consulted here.
        self._network = NetworkModel(bandwidth=bandwidth, latency=latency)
        self._procs: List[multiprocessing.process.BaseProcess] = []
        self._conns: List[object] = []
        self._workers_of_proc: List[List[int]] = []
        #: worker id -> index of its host process
        self._host: List[int] = []
        self._dead_procs: set = set()
        #: seq -> (worker, op) of posted ops whose reply is still unread
        self._posted: Dict[int, Tuple[int, str]] = {}
        #: pending one-shot reply mangling per worker: 'drop' | 'garble'
        self._mangle: Dict[int, str] = {}
        self._seq = 0
        #: trace attached by the local executors (mirrors
        #: ``SimulatedCluster.engine_trace``)
        self.engine_trace = None
        self._started = False

    # ------------------------------------------------------------------
    # Runtime surface
    # ------------------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return self._n_workers

    @property
    def clock(self) -> WallClock:
        return self._clock

    @property
    def network(self) -> NetworkModel:
        return self._network

    def gather(self, kind: MessageKind, sizes: Sequence[int]) -> float:
        """Account a workers -> master exchange (sizes in worker order)."""
        for worker_id, size in enumerate(sizes):
            self._network.send(Message(kind, worker_id, Message.MASTER, int(size)))
        return 0.0

    def broadcast(self, kind: MessageKind, size: int) -> float:
        """Account a master -> every-worker exchange."""
        for worker_id in range(self._n_workers):
            self._network.send(Message(kind, Message.MASTER, worker_id, int(size)))
        return 0.0

    def sharded_gather(
        self, kind: MessageKind, sizes: Sequence[int], n_servers: int
    ) -> float:
        check_positive(n_servers, "n_servers")
        return self.gather(kind, sizes)

    def sharded_broadcast(
        self, kind: MessageKind, size: int, n_servers: int
    ) -> float:
        check_positive(n_servers, "n_servers")
        return self.broadcast(kind, size)

    def allreduce(self, kind: MessageKind, size: int) -> float:
        """Ring allreduce accounting over the exact shard split.

        Uses the same :func:`~repro.net.topology.ring_allreduce_shards`
        split as the simulator's ``allreduce_time`` (last shard takes
        the remainder), and asserts the accounted total matches the
        closed-form byte model so the two backends can never drift.
        """
        n = self._n_workers
        size = int(size)
        if n == 1:
            return 0.0
        total = 0
        for step, step_bytes in enumerate(ring_allreduce_shards(size, n)):
            self._network.send(Message(kind, step % n, (step + 1) % n, step_bytes))
            total += step_bytes
        expected = 2 * (n - 1) * (size // n) + size % n
        if total != expected:
            raise SimulationError(
                "allreduce accounted {} bytes for size={} n={}; byte model "
                "expects {}".format(total, size, n, expected)
            )
        return 0.0

    def barrier(self) -> None:
        """Round-trip a ping through every worker process.

        Bounded by the timeout policy: a dead or hung process raises
        :class:`~repro.errors.WorkerUnresponsiveError` instead of
        blocking forever.
        """
        if self._started:
            self.run_all(_PING)

    # ------------------------------------------------------------------
    # process lifecycle
    # ------------------------------------------------------------------
    def start(self, programs: Dict[int, object]) -> "LocalRuntime":
        """Launch the worker processes hosting ``programs``.

        ``programs`` maps every logical worker id ``0..K-1`` to an
        object with ``handle(op, args, payload) -> (result, payload)``.
        With the default ``fork`` start method the programs are
        inherited copy-on-write; with ``spawn`` they must pickle.
        """
        if self._started:
            raise SimulationError("LocalRuntime already started")
        missing = set(range(self._n_workers)) - set(programs)
        if missing:
            raise ConfigurationError(
                "no program for worker(s) {}".format(sorted(missing))
            )
        context = multiprocessing.get_context(self.start_method)
        bounds = [
            self._n_workers * i // self.n_processes
            for i in range(self.n_processes + 1)
        ]
        for i in range(self.n_processes):
            hosted = list(range(bounds[i], bounds[i + 1]))
            proc, conn = self._launch(context, hosted, programs)
            self._procs.append(proc)
            self._conns.append(conn)
            self._workers_of_proc.append(hosted)
            self._host.extend([i] * len(hosted))
        self._started = True
        return self

    def _launch(self, context, hosted: List[int], programs: Dict[int, object]):
        parent_conn, child_conn = context.Pipe(duplex=True)
        proc = context.Process(
            target=_process_main,
            args=(child_conn, {w: programs[w] for w in hosted}),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return proc, parent_conn

    def close(self) -> None:
        """Stop and join every worker process (idempotent, bounded)."""
        if not self._started:
            return
        self._refresh_liveness()
        for i, conn in enumerate(self._conns):
            if i in self._dead_procs:
                continue
            try:
                conn.send((_STOP, (), None, True))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            if not join_within(proc, 10.0):
                proc.terminate()
                if not join_within(proc, 5.0):
                    proc.kill()
                    join_within(proc, 5.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._procs, self._conns, self._workers_of_proc = [], [], []
        self._host, self._dead_procs, self._mangle = [], set(), {}
        self._posted = {}
        self._started = False

    # ------------------------------------------------------------------
    # fault injection and recovery surface
    # ------------------------------------------------------------------
    def _refresh_liveness(self) -> None:
        for i, proc in enumerate(self._procs):
            if i not in self._dead_procs and not proc.is_alive():
                self._mark_dead(i)

    def _mark_dead(self, i: int) -> None:
        """Record process ``i`` as dead; its posted replies are lost."""
        self._dead_procs.add(i)
        self._posted = {
            seq: posted
            for seq, posted in self._posted.items()
            if self._host[posted[0]] != i
        }

    def dead_workers(self) -> List[int]:
        """Logical workers whose host process is currently dead."""
        if not self._started:
            return []
        self._refresh_liveness()
        return sorted(
            w for i in self._dead_procs for w in self._workers_of_proc[i]
        )

    def kill_worker(self, worker: int) -> None:
        """SIGKILL the process hosting ``worker`` (a real crash).

        Every logical worker sharing that process dies with it, exactly
        like a machine loss taking down its hosted partitions.
        """
        if not self._started:
            raise SimulationError("LocalRuntime not started; call start()")
        if not 0 <= worker < self._n_workers:
            raise ConfigurationError("no process hosts worker {}".format(worker))
        i = self._host[worker]
        proc = self._procs[i]
        if proc.is_alive():
            os.kill(proc.pid, signal.SIGKILL)
            join_within(proc, 5.0)
        self._mark_dead(i)

    def inject_faults(
        self, events: Iterable[LocalFaultEvent]
    ) -> Dict[int, dict]:
        """Apply a chaos plan's events for the coming round.

        KILL strikes immediately (SIGKILL); DROP/GARBLE arm a one-shot
        mangle of the victim's next reply frame; STALL returns per-worker
        ``__delay__`` args the caller merges into its next exchange so
        the victim's handler sleeps before working.
        """
        extra: Dict[int, dict] = {}
        for event in events:
            if event.kind is LocalFaultKind.KILL:
                self.kill_worker(event.worker)
            elif event.kind is LocalFaultKind.STALL:
                extra.setdefault(event.worker, {})[_DELAY] = float(event.stall_s)
            elif event.kind is LocalFaultKind.DROP:
                self._mangle[event.worker] = "drop"
            elif event.kind is LocalFaultKind.GARBLE:
                self._mangle[event.worker] = "garble"
            else:  # pragma: no cover - enum is closed
                raise ConfigurationError(
                    "unknown fault kind {!r}".format(event.kind)
                )
        return extra

    def respawn(self, programs: Dict[int, object]) -> float:
        """Relaunch every dead process; returns measured seconds.

        ``programs`` must cover the logical workers hosted by the dead
        processes — freshly rebuilt program objects whose state the
        executor then restores (checkpoint decode, zero-init, ...) via
        targeted ops.  Live processes are untouched.
        """
        if not self._started:
            raise SimulationError("LocalRuntime not started; call start()")
        start = time.perf_counter()
        self._refresh_liveness()
        context = multiprocessing.get_context(self.start_method)
        for i in sorted(self._dead_procs):
            hosted = self._workers_of_proc[i]
            missing = [w for w in hosted if w not in programs]
            if missing:
                raise ConfigurationError(
                    "respawn needs a program for worker(s) {}".format(missing)
                )
            try:
                self._conns[i].close()
            except OSError:
                pass
            proc, conn = self._launch(context, hosted, programs)
            self._procs[i] = proc
            self._conns[i] = conn
            for w in hosted:
                self._mangle.pop(w, None)
        self._dead_procs = set()
        return time.perf_counter() - start

    # ------------------------------------------------------------------
    # real transport
    # ------------------------------------------------------------------
    def run_all(
        self,
        op: str,
        args: Optional[dict] = None,
        payload: Optional[bytes] = None,
        per_worker_args: Optional[Dict[int, dict]] = None,
        workers: Optional[Sequence[int]] = None,
        iteration: Optional[int] = None,
        raise_on_fault: bool = True,
        wait: bool = True,
    ) -> Exchange:
        """Issue ``op`` to the targeted workers and collect the replies.

        ``payload`` (one blob for everyone — a broadcast) and ``args``
        are shared; ``per_worker_args`` entries are merged over ``args``
        for the targeted worker; ``workers`` restricts the exchange to a
        subset (default: all).  Each targeted process gets one frame
        holding its hosted workers' ``(seq, worker, args)`` entries and
        the payload once, and answers with one reply frame.  The
        exchange is measured wall-clock at the master and every wait is
        deadline-bounded: when the timeout policy's deadline expires the
        silent workers' entries are resent with exponential backoff
        (accounted as RETRY traffic and recorded as a
        :class:`~repro.engine.trace.RetryEvent` under ``iteration``),
        and a worker still silent after ``max_retries`` resends — or
        whose process died — lands in ``Exchange.failures``.

        ``wait=False`` *posts* the op: the frames are sent and an
        exchange with no replies returns at once.  Each process holds
        its posted replies and sends them at the head of its next reply
        frame, so the next awaited exchange to the same processes reads
        them first and returns them on ``Exchange.acks``.  Posted frames
        are never resent, DROP/GARBLE mangling applies only to awaited
        replies, and posted exchanges do not feed the timeout policy.  A
        posted op's remote error raises on the exchange that drains it;
        its process's death shows there as :class:`WorkerDied`.

        With ``raise_on_fault=True`` (the default) failures raise
        :class:`~repro.errors.WorkerUnresponsiveError`; executors that
        run the recovery pipeline pass ``False`` and consume the
        structured outcomes.  Worker-side exceptions always raise
        :class:`~repro.errors.SimulationError` — after every in-flight
        reply has been drained, so the shared pipes stay synchronized.
        """
        if not self._started:
            raise SimulationError("LocalRuntime not started; call start()")
        start = time.perf_counter()
        self._refresh_liveness()
        targets = (
            list(range(self._n_workers)) if workers is None else sorted(workers)
        )
        unknown = [w for w in targets if not 0 <= w < self._n_workers]
        if unknown:
            raise ConfigurationError("unknown worker(s) {}".format(unknown))
        resend_bytes = OBJECT_OVERHEAD_BYTES + len(payload or b"")

        entries: Dict[int, tuple] = {}  # worker -> (seq, worker, args)
        by_proc: Dict[int, List[int]] = {}  # live process -> its targets
        pending: Dict[int, int] = {}  # awaited seq -> worker
        failures: Dict[int, object] = {}
        errors: List[Tuple[int, str, str]] = []  # (worker, op, message)
        replies: Dict[int, WorkerReply] = {}
        acks: Dict[int, WorkerReply] = {}
        retries = 0
        retry_log: List[Tuple[int, Tuple[int, ...], float]] = []

        def mark_proc_dead(i: int) -> None:
            self._mark_dead(i)
            for seq, w in list(pending.items()):
                if self._host[w] == i:
                    del pending[seq]
                    failures[w] = WorkerDied(worker=w, op=op)

        def send_frame(i: int, hosted: List[int]) -> bool:
            try:
                self._conns[i].send(
                    (op, tuple(entries[w] for w in hosted), payload, wait)
                )
            except (BrokenPipeError, OSError):
                mark_proc_dead(i)
                return False
            return True

        def resend(i: int, hosted: List[int]) -> int:
            if not send_frame(i, hosted):
                return 0
            for w in hosted:
                self._network.send(
                    Message(MessageKind.RETRY, Message.MASTER, w, resend_bytes)
                )
            return len(hosted)

        # issue phase: one frame per process -----------------------------
        for w in targets:
            merged = dict(args) if args else {}
            if per_worker_args and w in per_worker_args:
                merged.update(per_worker_args[w])
            self._seq += 1
            entries[w] = (self._seq, w, merged)
            if self._host[w] in self._dead_procs:
                failures[w] = WorkerDied(worker=w, op=op)
            else:
                by_proc.setdefault(self._host[w], []).append(w)
        for i, hosted in by_proc.items():
            for w in hosted:
                if wait:
                    pending[entries[w][0]] = w
                else:
                    self._posted[entries[w][0]] = (w, op)
            if not send_frame(i, hosted):
                failures.update({w: WorkerDied(worker=w, op=op) for w in hosted})

        # collect phase: deadline-bounded ARQ; held posted replies ride
        # at the head of the processes' reply frames
        attempt = 0
        deadline = self.timeout.deadline_s(attempt)
        while pending:
            deadline_end = time.perf_counter() + deadline
            while pending:
                remaining = deadline_end - time.perf_counter()
                if remaining <= 0:
                    break
                watched = {
                    self._conns[self._host[w]]: self._host[w]
                    for w in pending.values()
                }
                for conn in wait_ready(list(watched), remaining):
                    i = watched[conn]
                    ok, frame = recv_ready(conn)
                    if not ok:
                        mark_proc_dead(i)
                        continue
                    garbled: List[int] = []
                    for seq, w, result, reply_payload, seconds in frame:
                        if seq in self._posted:
                            name, into = self._posted.pop(seq)[1], acks
                        elif seq in pending:
                            mangle = self._mangle.pop(w, None)
                            if mangle == "drop":
                                # reply lost in transit: the ARQ timer will resend
                                continue
                            if mangle == "garble":
                                # checksum failure at receipt: account the
                                # wasted arrival and resend immediately
                                self._network.send(
                                    Message(
                                        MessageKind.RETRY,
                                        w,
                                        Message.MASTER,
                                        OBJECT_OVERHEAD_BYTES + len(reply_payload or b""),
                                    )
                                )
                                garbled.append(w)
                                continue
                            del pending[seq]
                            name, into = op, replies
                        else:
                            continue  # stale reply from a prior exchange/resend
                        if "__error__" in result:
                            errors.append((w, name, result["__error__"]))
                        else:
                            into[w] = WorkerReply(
                                worker=w,
                                result=result,
                                payload=reply_payload,
                                seconds=float(seconds),
                            )
                    if garbled:
                        retries += resend(i, garbled)
            if not pending:
                break
            # deadline expired with stragglers
            silent = sorted(pending.values())
            retry_log.append((attempt, tuple(silent), deadline))
            if attempt >= self.timeout.max_retries:
                self._refresh_liveness()
                for w in silent:
                    if self._host[w] in self._dead_procs:
                        failures[w] = WorkerDied(worker=w, op=op)
                    else:
                        failures[w] = WorkerTimeout(
                            worker=w,
                            op=op,
                            deadline_s=deadline,
                            attempts=attempt + 1,
                        )
                pending.clear()
                break
            attempt += 1
            deadline = self.timeout.deadline_s(attempt)
            stragglers: Dict[int, List[int]] = {}
            for w in silent:
                stragglers.setdefault(self._host[w], []).append(w)
            for i, hosted in stragglers.items():
                retries += resend(i, hosted)

        # trace + bookkeeping ---------------------------------------------
        if self.engine_trace is not None and iteration is not None:
            errored = {w for w, _, _ in errors}
            for log_attempt, suspects, log_deadline in retry_log:
                resolved = (
                    "arrived"
                    if all(w in replies or w in errored for w in suspects)
                    else "failed"
                )
                self.engine_trace.add_retry(
                    RetryEvent(
                        round=iteration,
                        attempt=log_attempt,
                        suspects=suspects,
                        deadline_s=log_deadline,
                        resolved=resolved,
                    )
                )
        elapsed = time.perf_counter() - start
        if wait and not failures and not retry_log:
            self.timeout.observe(elapsed)
        if errors:
            # every in-flight reply was drained above, so raising here
            # cannot desynchronize the shared pipes.
            raise SimulationError(
                "; ".join(
                    "op {!r} failed on worker {}: {}".format(name, w, message)
                    for w, name, message in sorted(errors)
                )
            )
        exchange = Exchange(
            replies=replies,
            seconds=elapsed,
            failures=failures,
            retries=retries,
            acks=acks,
        )
        if failures and raise_on_fault:
            raise WorkerUnresponsiveError(
                op,
                dead=exchange.dead_workers(),
                silent=exchange.silent_workers(),
            )
        return exchange

    def busiest_process_seconds(
        self, *replies: Mapping[int, WorkerReply]
    ) -> float:
        """Summed handler seconds of the busiest worker process.

        Co-hosted workers run their handlers one after another, so a
        process is busy for the sum of its workers' handler times.  That
        sum, maxed over processes, is an exchange's compute share; the
        slowest single handler would book a neighbour's compute as
        transport whenever K > P.  Each of ``replies`` is an
        :attr:`Exchange.replies` / :attr:`Exchange.acks` map, or several
        merged across recovery re-issues; all of them add to their
        processes' sums, and workers without a reply count zero.
        """
        return max(
            (
                sum(r[w].seconds for r in replies for w in hosted if w in r)
                for hosted in self._workers_of_proc
            ),
            default=0.0,
        )

    def measure(self, fn: Callable[[], T]) -> Tuple[T, float]:
        """Run ``fn`` and return ``(result, wall seconds)``.

        The master-side counterpart of worker handler timing: executors
        wrap their reduce/update steps in this instead of importing
        ``time`` themselves (wall-clock access stays confined to this
        module).
        """
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start


def max_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes.

    Measurement lives here because wall-clock and resource probes are
    confined to this module (lint rule R001); the store benchmark uses
    it to demonstrate that out-of-core loading keeps the peak footprint
    below the in-memory shuffle's.  ``ru_maxrss`` is kilobytes on Linux
    and bytes on macOS.
    """
    import resource
    import sys

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(rss if sys.platform == "darwin" else rss * 1024)
