"""Timing hooks installed from outside the program.

Two sets of wrappers, both installed by replacing attributes of the
``repro`` package at run time (no program file changes):

* :class:`RoundClock` is always on.  It wraps ``run_training_loop`` so
  every ``run_round(t)`` call is timed and reported as a heartbeat,
  ``LocalRuntime.start`` so worker start-up is timed, and
  ``evaluate_loss`` so the first evaluation at or below the target loss
  is time-stamped.  Its cost is two clock reads and one pipe write per
  round.
* :class:`Tracer` is on only in a traced run.  It records a span (name,
  start, end, self time, parent, round, work count) around each layer
  function.  The wrappers are installed before the local runtime forks,
  so they run inside worker processes too; ``ColumnWorkerProgram.handle``
  and ``RowWorkerProgram.handle`` attach that process's spans to the
  reply's ``result`` dict (which the codec does not account), and the
  ``LocalRuntime.run_all`` wrapper takes them off again at the master.

A span's self time is its duration minus the durations of its direct
children; calls nest within one thread, so the children never overlap.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: reply ``result`` key that carries a worker process's spans
SPANS_KEY = "__perfbench_spans__"

# span tuple fields
NAME, START, END, SELF, PARENT, ROUND, COUNT = range(7)


def patch_function(module_name: str, attr: str, make_wrapper: Callable) -> None:
    """Replace a module-level function at every ``repro`` import site.

    ``from x import f`` binds ``f`` in the importing module, so patching
    the defining module alone would miss those call sites.
    """
    original = getattr(sys.modules[module_name], attr)
    wrapper = make_wrapper(original)
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if name.startswith("repro") and getattr(module, attr, None) is original:
            setattr(module, attr, wrapper)


def patch_method(cls, attr: str, make_wrapper: Callable) -> None:
    """Replace a method (plain or classmethod) on the class defining it."""
    original = cls.__dict__[attr]
    if isinstance(original, classmethod):
        setattr(cls, attr, classmethod(make_wrapper(original.__func__)))
    else:
        setattr(cls, attr, make_wrapper(original))


def import_program() -> None:
    """Import every module whose functions the hooks replace."""
    import repro.baselines.localexec  # noqa: F401
    import repro.baselines.mllib  # noqa: F401
    import repro.core.localexec  # noqa: F401
    import repro.store  # noqa: F401


# ----------------------------------------------------------------------
# always-on round clock
# ----------------------------------------------------------------------
class RoundClock:
    """Per-round wall times, worker start times, and time to target.

    ``measuring`` selects whether rounds are kept as samples; rounds of
    set-up and reference fits still send heartbeats.
    """

    def __init__(self, heartbeat_fd: Optional[int], target_loss: float):
        self.heartbeat_fd = heartbeat_fd
        self.target_loss = target_loss
        self.measuring = False
        self.rounds: List[float] = []
        self.start_s: List[float] = []
        self.fit_start = 0.0
        self.target_s: Optional[float] = None
        self.target_loss_seen: Optional[float] = None
        #: set by the tracer so round spans nest under it
        self.tracer: Optional["Tracer"] = None

    def begin_fit(self) -> None:
        self.rounds, self.start_s = [], []
        self.target_s = self.target_loss_seen = None
        self.fit_start = time.perf_counter()

    def install(self) -> None:
        import_program()
        from repro.baselines.base import BaselineTrainer
        from repro.core.driver import ColumnSGDDriver
        from repro.runtime.local import LocalRuntime

        clock = self

        def loop_wrapper(loop):
            @functools.wraps(loop)
            def run_training_loop(*args, run_round, **kwargs):
                return loop(*args, run_round=clock.timed_round(run_round), **kwargs)

            return run_training_loop

        patch_function("repro.engine.loop", "run_training_loop", loop_wrapper)

        def start_wrapper(start):
            @functools.wraps(start)
            def timed_start(runtime, programs):
                began = time.perf_counter()
                out = start(runtime, programs)
                clock.start_s.append(time.perf_counter() - began)
                return out

            return timed_start

        patch_method(LocalRuntime, "start", start_wrapper)

        def eval_wrapper(evaluate):
            @functools.wraps(evaluate)
            def evaluate_loss(trainer, *args, **kwargs):
                loss = evaluate(trainer, *args, **kwargs)
                training_set = not args and not kwargs  # not a held-out evaluation
                if clock.target_s is None and training_set and loss <= clock.target_loss:
                    clock.target_s = time.perf_counter() - clock.fit_start
                    clock.target_loss_seen = float(loss)
                return loss

            return evaluate_loss

        patch_method(ColumnSGDDriver, "evaluate_loss", eval_wrapper)
        patch_method(BaselineTrainer, "evaluate_loss", eval_wrapper)

    def timed_round(self, run_round: Callable) -> Callable:
        def round_fn(t):
            tracer = self.tracer
            began = time.perf_counter()
            if tracer is None:
                out = run_round(t)
            else:
                tracer.round = t
                try:
                    out = tracer.call("round", run_round, (t,), {})
                finally:
                    tracer.round = None
            elapsed = time.perf_counter() - began
            if self.measuring:
                self.rounds.append(elapsed)
            if self.heartbeat_fd is not None:
                os.write(self.heartbeat_fd, b".")
            return out

        return round_fn


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span buffer of one process (reset after a fork)."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: List[Optional[tuple]] = []
        self._stack: List[list] = []
        self.round: Optional[int] = None
        #: master only: one record per run_all call
        self.exchanges: List[dict] = []

    def _own(self) -> None:
        if os.getpid() != self.pid:
            self.__init__()

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             count: Optional[Callable] = None):
        self._own()
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [index, 0.0]
        self._stack.append(frame)
        n = None
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            if count is not None:
                n = count(args, out)
            return out
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            self.spans[index] = (
                name, start, end, end - start - frame[1], parent, self.round, n
            )

    def drain(self) -> List[tuple]:
        """Hand over the finished spans (worker side, per reply)."""
        done, self.spans = self.spans, []
        return done

    def reset(self) -> None:
        self.__init__()

    def chrome_trace(self) -> dict:
        """The buffered spans as Chrome trace-event JSON (Perfetto opens it)."""
        per_process = [(self.pid, self.spans)] + [
            (pid, spans) for record in self.exchanges
            for pid, spans in record["remote"].items()
        ]
        events = [
            {
                "name": span[NAME], "ph": "X", "pid": pid, "tid": pid,
                "ts": span[START] * 1e6, "dur": (span[END] - span[START]) * 1e6,
                "args": {"round": span[ROUND], "self_us": span[SELF] * 1e6,
                         "count": span[COUNT]},
            }
            for pid, spans in per_process for span in spans if span is not None
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def wrap(self, name: str, count: Optional[Callable] = None):
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs, count)

            return traced

        return make

    # ------------------------------------------------------------------
    def install(self, master_step_name: str) -> None:
        """Wrap every layer function named in ``workloads.json``."""
        import_program()
        from repro.baselines.localexec import RowWorkerProgram
        from repro.core.localexec import ColumnWorkerProgram
        from repro.core.master import ColumnMaster
        from repro.engine.engine import RoundEngine
        from repro.linalg.csr import CSRMatrix
        from repro.models.linear import GeneralizedLinearModel
        from repro.optim.sgd import SGD
        from repro.partition.indexing import TwoPhaseIndex
        from repro.partition.workset import WorksetStore
        from repro.runtime.local import LocalRuntime
        from repro.store.reader import ShardWorksetStore
        from repro.store.store import ColumnShardStore

        w = self.wrap
        patch_method(TwoPhaseIndex, "sample", w("partition.sample"))
        patch_function("repro.partition.row", "sample_shard_batch", w("partition.sample"))
        patch_method(
            WorksetStore, "assemble_batch",
            w("partition.assemble_batch", count=lambda a, out: out[0].n_rows),
        )
        patch_method(CSRMatrix, "take_rows", w("linalg.take_rows", count=lambda a, out: 1))
        patch_function("repro.linalg.ops", "row_dots", w("linalg.row_dots"))
        patch_function("repro.linalg.ops", "accumulate_rows", w("linalg.accumulate_rows"))
        patch_method(GeneralizedLinearModel, "compute_statistics", w("models.statistics"))
        patch_method(
            GeneralizedLinearModel, "gradient_from_statistics", w("models.gradient")
        )
        patch_method(SGD, "step", w("optim.step"))
        patch_function(
            "repro.storage.serialization", "encode_payload",
            w("codec.encode", count=lambda a, out: len(out)),
        )
        patch_function("repro.storage.serialization", "decode_payload", w("codec.decode"))
        patch_method(ColumnMaster, "reduce", w("core.master_reduce"))
        patch_method(LocalRuntime, "measure", w(master_step_name))
        patch_method(LocalRuntime, "start", w("runtime.start"))
        patch_method(ShardWorksetStore, "get", w("store.get"))
        patch_method(ColumnShardStore, "from_dataset", w("store.shuffle"))
        patch_method(RoundEngine, "run_round", w("engine.run_round"))
        patch_method(ColumnWorkerProgram, "handle", self._handle_wrapper("core.handle"))
        patch_method(RowWorkerProgram, "handle", self._handle_wrapper("baselines.gradient"))
        patch_method(LocalRuntime, "run_all", self._run_all_wrapper)

    def wrap_executors(self, driver) -> None:
        """Trace the driver's phase executors as the engine calls them."""
        for phase in driver.round_spec().phases:
            run = getattr(phase, "run", None)
            if run:
                setattr(driver, run, self.wrap("core.executor")(getattr(driver, run)))

    def _handle_wrapper(self, name: str):
        tracer = self

        def make(handle):
            @functools.wraps(handle)
            def traced_handle(program, op, args, payload):
                tracer._own()
                if not args or "t" not in args:
                    return handle(program, op, args, payload)
                tracer.round = int(args["t"])
                try:
                    result, out = tracer.call(name, handle, (program, op, args, payload), {})
                finally:
                    tracer.round = None
                result = dict(result)
                result[SPANS_KEY] = (os.getpid(), tracer.drain())
                return result, out

            return traced_handle

        return make

    def _run_all_wrapper(self, run_all):
        tracer = self

        @functools.wraps(run_all)
        def traced_run_all(runtime, op, *args, **kwargs):
            index = len(tracer.spans)
            exchange = tracer.call("runtime.exchange", run_all, (runtime, op) + args, kwargs)
            remote: Dict[int, List[tuple]] = defaultdict(list)
            pid_of: Dict[int, int] = {}
            for worker, reply in exchange.replies.items():
                pid, spans = reply.result.pop(SPANS_KEY, (None, []))
                if pid is not None:
                    pid_of[worker] = pid
                    remote[pid].extend(spans)
            if tracer.round is not None:
                tracer.exchanges.append({
                    "span": index,
                    "round": tracer.round,
                    "exchange": exchange,
                    "process_of": pid_of,
                    "remote": dict(remote),
                })
            return exchange

        return traced_run_all


# ----------------------------------------------------------------------
# attribution
# ----------------------------------------------------------------------
def process_busy(exchange, process_of: Dict[int, int]) -> Dict[int, float]:
    """Summed handler seconds of each process's hosted workers.

    Co-hosted logical workers run one after another in their process,
    so a process is busy for the sum of its workers' handler times.
    """
    busy: Dict[int, float] = defaultdict(float)
    for worker, reply in exchange.replies.items():
        busy[process_of[worker]] += reply.seconds
    return dict(busy)


def wait_seconds(exchange, process_of: Dict[int, int]) -> float:
    """Exchange wall time not spent in the busiest process's handlers.

    ``Exchange.seconds`` minus, over processes, the largest summed
    handler time.  ``driver.last_phase_seconds['gather']`` subtracts only
    the slowest single worker, which books a co-hosted worker's compute
    as transport.
    """
    busy = process_busy(exchange, process_of)
    return exchange.seconds - max(busy.values(), default=0.0)


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def _ms(values: Sequence[float]) -> float:
    return 1000.0 * statistics.fmean(values) if values else 0.0


class FitTrace:
    """Per-round layer times of one traced fit.

    The blocking path of a round is the master's call tree under the
    round span, with each exchange replaced by the spans of its busiest
    process plus the exchange's wait.  ``path[name]`` holds each
    layer's self time on that path, one entry per round.
    """

    def __init__(self, tracer: Tracer, n_workers: int):
        spans = tracer.spans
        self.rounds: Dict[int, float] = {}
        self.path: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
        self.inclusive: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
        self.counts: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
        self.unaccounted: Dict[int, float] = defaultdict(float)
        self.busy_max: Dict[int, float] = defaultdict(float)
        self.busy_gap: Dict[int, float] = defaultdict(float)
        self.exchange_s: Dict[int, float] = defaultdict(float)
        self.exchanges: Dict[int, int] = defaultdict(int)
        self.retries = 0
        self.setup: Dict[str, List[float]] = defaultdict(list)
        self.n_workers = n_workers

        by_span = {record["span"]: record for record in tracer.exchanges}
        for index, span in enumerate(spans):
            if span is None:
                continue
            t = span[ROUND]
            if t is None:
                if span[NAME] in ("runtime.start", "store.shuffle"):
                    self.setup[span[NAME]].append(span[END] - span[START])
                continue
            self._count(span, t)
            if span[NAME] == "round":
                self.rounds[t] = span[END] - span[START]
                self.unaccounted[t] += span[SELF]
            elif span[NAME] == "runtime.exchange" and index in by_span:
                self._exchange(span, by_span[index], t)
            else:
                self.path[span[NAME]][t] += span[SELF]
                self.inclusive[span[NAME]][t] += span[END] - span[START]

    def _count(self, span: tuple, t: int) -> None:
        if span[COUNT] is not None:
            self.counts[span[NAME]][t] += span[COUNT]

    def _exchange(self, span: tuple, record: dict, t: int) -> None:
        exchange = record["exchange"]
        busy = process_busy(exchange, record["process_of"])
        wait = wait_seconds(exchange, record["process_of"])
        self.path["runtime.wait"][t] += wait
        self.exchange_s[t] += exchange.seconds
        self.exchanges[t] += 1
        self.retries += exchange.retries
        # what the span measured beyond Exchange.seconds is wrapper glue
        self.unaccounted[t] += (span[END] - span[START]) - exchange.seconds
        if not busy:
            return
        values = sorted(busy.values())
        self.busy_max[t] += values[-1]
        self.busy_gap[t] += values[-1] - values[0]
        critical = max(busy, key=busy.get)
        handled = 0.0
        for pid, spans in record["remote"].items():
            for remote in spans:
                if remote[ROUND] != t:
                    continue  # ran inside a non-round op of the same process
                self._count(remote, t)
                if pid != critical:
                    continue
                self.path[remote[NAME]][t] += remote[SELF]
                self.inclusive[remote[NAME]][t] += remote[END] - remote[START]
                if remote[PARENT] == -1:
                    handled += remote[END] - remote[START]
        # handler seconds measured outside the handle span
        self.unaccounted[t] += busy[critical] - handled

    # ------------------------------------------------------------------
    def accounted(self) -> Dict[int, float]:
        total: Dict[int, float] = defaultdict(float)
        for per_round in self.path.values():
            for t, value in per_round.items():
                total[t] += value
        return {t: total[t] for t in self.rounds}

    def layer_ms(self, name: str, inclusive: bool = False) -> float:
        table = self.inclusive if inclusive else self.path
        return _ms([table[name].get(t, 0.0) for t in self.rounds])

    def per_round(self, table: Dict[int, float]) -> List[float]:
        return [table.get(t, 0.0) for t in self.rounds]

    def count_per_round(self, name: str) -> float:
        values = [self.counts[name].get(t, 0.0) for t in self.rounds]
        return statistics.fmean(values) if values else 0.0


def per_layer_metrics(fits: List[FitTrace]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Average the per-layer metrics over traced fits.

    Returns ``(metrics, check)`` where ``check`` holds the traced round
    median and the median accounted time along the blocking path.
    """

    def mean(fn) -> float:
        return statistics.fmean(fn(fit) for fit in fits)

    K = fits[0].n_workers
    metrics = {
        "partition.sample_ms": mean(lambda f: f.layer_ms("partition.sample")),
        "partition.assemble_batch_ms": mean(lambda f: f.layer_ms("partition.assemble_batch")),
        "partition.assemble_batch_rows": mean(lambda f: f.count_per_round("partition.assemble_batch")),
        "linalg.take_rows_ms": mean(lambda f: f.layer_ms("linalg.take_rows")),
        "linalg.take_rows_calls": mean(lambda f: f.count_per_round("linalg.take_rows") / K),
        "linalg.row_dots_ms": mean(lambda f: f.layer_ms("linalg.row_dots")),
        "linalg.accumulate_rows_ms": mean(lambda f: f.layer_ms("linalg.accumulate_rows")),
        "models.statistics_ms": mean(lambda f: f.layer_ms("models.statistics")),
        "models.gradient_ms": mean(lambda f: f.layer_ms("models.gradient")),
        "optim.step_ms": mean(lambda f: f.layer_ms("optim.step")),
        "codec.encode_ms": mean(lambda f: f.layer_ms("codec.encode")),
        "codec.decode_ms": mean(lambda f: f.layer_ms("codec.decode")),
        "codec.bytes_per_round": mean(lambda f: f.count_per_round("codec.encode")),
        "runtime.exchange_ms": mean(lambda f: _ms(f.per_round(f.exchange_s))),
        "runtime.wait_ms": mean(lambda f: f.layer_ms("runtime.wait")),
        "runtime.exchanges_per_round": mean(lambda f: statistics.fmean(f.per_round(f.exchanges))),
        "runtime.retries": float(sum(f.retries for f in fits)),
        "core.worker_busy_ms": mean(lambda f: _ms(f.per_round(f.busy_max))),
        "core.busy_gap_ms": mean(lambda f: _ms(f.per_round(f.busy_gap))),
        "core.master_reduce_ms": mean(lambda f: f.layer_ms("core.master_reduce", inclusive=True)),
        "core.handle_ms": mean(lambda f: f.layer_ms("core.handle")),
        "core.master_step_ms": mean(lambda f: f.layer_ms("core.master_step")),
        "core.executor_ms": mean(lambda f: f.layer_ms("core.executor")),
        "store.get_ms": mean(lambda f: f.layer_ms("store.get")),
        "engine.round_self_ms": mean(lambda f: f.layer_ms("engine.run_round")),
        "baselines.gradient_ms": mean(lambda f: f.layer_ms("baselines.gradient", inclusive=True)),
        "baselines.center_update_ms": mean(
            lambda f: f.layer_ms("baselines.center_update", inclusive=True)
        ),
        "trace.unaccounted_ms": mean(lambda f: _ms(f.per_round(f.unaccounted))),
    }
    starts = [s for f in fits for s in f.setup["runtime.start"]]
    shuffles = [s for f in fits for s in f.setup["store.shuffle"]]
    metrics["runtime.start_ms"] = 1000.0 * statistics.median(starts) if starts else 0.0
    metrics["store.shuffle_s"] = statistics.median(shuffles) if shuffles else 0.0

    rounds = [d for f in fits for d in f.rounds.values()]
    accounted = [a for f in fits for a in f.accounted().values()]
    check = {
        "round_ms_p50": 1000.0 * statistics.median(rounds),
        "accounted_ms_p50": 1000.0 * statistics.median(accounted),
    }
    return metrics, check
