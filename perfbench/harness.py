"""One workload run, inside the supervised child process.

:func:`run` builds the workload's job from ``workloads.json``, sets it
up several times, runs measured fits until ``seconds`` have passed,
checks the outputs, and returns the metrics.  With ``trace=True`` it
runs one untraced fit, installs the layer wrappers, and runs traced
fits for the per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from tracing import FitTrace, RoundClock, Tracer, per_layer_metrics

SPEC = json.loads(Path(__file__).with_name("workloads.json").read_text())

#: codec frame header, ``repro.storage.serialization.OBJECT_OVERHEAD_BYTES``
FRAME_HEADER = 64


def table_one_bytes(system: str, K: int, B: int, features: int) -> int:
    """Table-I bytes per round for fp64 values and 64-byte frame headers.

    ColumnSGD: K statistics pushes and K broadcasts of B values.
    MLlib: K model pulls and K gradient pushes of the dense model.
    """
    values = B if system == "columnsgd" else features
    return 2 * K * (FRAME_HEADER + 8 * values)


class Workload:
    """A workload's job, built fresh for every fit."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.wl = SPEC["workloads"][name]
        self.job = SPEC["job"]
        data = SPEC["data"]
        from repro.datasets import make_classification

        self.data = make_classification(
            data["rows"], data["features"], nnz_per_row=data["nnz_per_row"],
            seed=data["data_seed"],
        )
        self._stores = 0

    def new_store_dir(self) -> str:
        if not self.wl["store"]:
            return ""
        self._stores += 1
        return str(self.workdir / "store-{}".format(self._stores))

    def build(self, backend: Optional[str] = None, store_dir: str = "",
              memory_budget_bytes: Optional[int] = None):
        from repro.baselines.registry import make_trainer
        from repro.core import ColumnSGDConfig, ColumnSGDDriver
        from repro.models import LogisticRegression
        from repro.optim import SGD
        from repro.sim import CLUSTER1, SimulatedCluster

        job, wl = self.job, self.wl
        cluster = SimulatedCluster(CLUSTER1.with_workers(job["workers"]))
        common = dict(
            batch_size=job["batch_size"],
            iterations=job["rounds_per_fit"],
            eval_every=job["eval_every"],
            seed=self.seed,
            backend=backend or wl["backend"],
            local_processes=wl["processes"],
        )
        if wl["system"] == "mllib":
            return make_trainer("mllib", LogisticRegression(), SGD(0.5), cluster, **common)
        if memory_budget_bytes is None:
            memory_budget_bytes = wl["memory_budget_bytes"]
        config = ColumnSGDConfig(
            store_dir=store_dir, memory_budget_bytes=memory_budget_bytes, **common
        )
        return ColumnSGDDriver(LogisticRegression(), SGD(0.5), cluster, config=config)

    def bytes_per_round(self) -> int:
        job = self.job
        return table_one_bytes(
            self.wl["system"], job["workers"], job["batch_size"], SPEC["data"]["features"]
        )


def _store_counters(trainer) -> Dict[str, int]:
    """Block-cache counters summed over the workers of a local fit."""
    stats = getattr(trainer, "store_read_stats", {}) or {}
    totals = {"hits": 0, "misses": 0, "bytes_read": 0}
    for per_partition in stats.values():
        for counters in per_partition.values():
            for key in totals:
                totals[key] += counters.get(key, 0)
    return totals


class Fit:
    """The outcome of one fit as the benchmark saw it."""

    def __init__(self, trainer, result, load_s: float, clock: RoundClock, store_dir: str):
        # keeps no reference to the trainer, so memory does not grow with
        # the number of fits a run makes
        self.store = _store_counters(trainer)
        self.result = result
        self.params = result.final_params
        self.setup_s = load_s + sum(clock.start_s)
        self.rounds = list(clock.rounds)
        self.target_s = clock.target_s
        self.target_loss = clock.target_loss_seen
        self.store_dir = store_dir
        losses = [(it, loss) for it, _, loss in result.losses()]
        crossed = [it for it, loss in losses if loss <= clock.target_loss]
        self.target_round = crossed[0] if crossed else None


def rounds_of(result) -> int:
    """Training rounds in a result (the initial evaluation is round -1)."""
    return sum(1 for record in result.records if record.iteration >= 0)


def run_fit(w: Workload, clock: RoundClock, iterations: Optional[int] = None,
            tracer: Optional[Tracer] = None, backend: Optional[str] = None,
            store_dir: Optional[str] = None,
            memory_budget_bytes: Optional[int] = None) -> Fit:
    # the previous fit's driver sits in reference cycles; free it now so
    # neither its memory nor its collection lands in this fit
    gc.collect()
    store_dir = w.new_store_dir() if store_dir is None else store_dir
    trainer = w.build(backend, store_dir, memory_budget_bytes)
    if tracer is not None and (backend or w.wl["backend"]) == "sim":
        tracer.wrap_executors(trainer)
    began = time.perf_counter()
    trainer.load(w.data)
    load_s = time.perf_counter() - began
    clock.begin_fit()
    result = trainer.fit(iterations=iterations)
    return Fit(trainer, result, load_s, clock, store_dir)


def drop_store(fit: Fit) -> None:
    if fit.store_dir:
        shutil.rmtree(fit.store_dir, ignore_errors=True)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


class Checks:
    """Output checks; any failure makes the run incorrect."""

    def __init__(self):
        self.items: List[dict] = []

    def add(self, name: str, ok: bool, detail: str) -> None:
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def ok(self) -> bool:
        return all(item["ok"] for item in self.items)

    def fits(self, w: Workload, fits: List[Fit]) -> None:
        """Checks every measured fit supports: bytes, target, determinism."""
        expected = w.bytes_per_round()
        for i, fit in enumerate(fits):
            rounds = rounds_of(fit.result)
            total = fit.result.total_bytes()
            self.add(
                "net.bytes_per_round[fit {}]".format(i),
                total == rounds * expected,
                "{} bytes over {} rounds; Table I gives {} per round".format(
                    total, rounds, expected
                ),
            )
            self.add(
                "target_crossed[fit {}]".format(i),
                fit.target_s is not None,
                "loss {} at the round-{} evaluation".format(fit.target_loss, fit.target_round),
            )
        diffs = [float(np.max(np.abs(f.params - fits[0].params))) for f in fits[1:]]
        self.add(
            "fits_identical", all(d == 0.0 for d in diffs),
            "max |param diff| between fits {}".format(max(diffs, default=0.0)),
        )

    def equal_params(self, name: str, a, b) -> None:
        diff = float(np.max(np.abs(a - b)))
        self.add(name, diff == 0.0, "max |param diff| {}".format(diff))


def _reference_check(w: Workload, clock: RoundClock, checks: Checks, fit: Fit,
                     tracer: Optional[Tracer] = None) -> Optional[Fit]:
    """Local ColumnSGD runs must match the simulator exactly.

    The simulator reads the same store directory with an unbounded
    cache: the numerics do not depend on the cache budget, and the
    evicting cache would double the check's time.  Returns the
    simulator fit, or None for workloads without the check.
    """
    if w.wl["backend"] != "local" or w.wl["system"] != "columnsgd":
        return None
    if tracer is not None:
        tracer.reset()
    reference = run_fit(
        w, clock, tracer=tracer, backend="sim", store_dir=fit.store_dir,
        memory_budget_bytes=0,
    )
    name = "store_local_equals_sim" if w.wl["store"] else "local_equals_sim"
    checks.equal_params(name, fit.params, reference.params)
    return reference


def _end_to_end(w: Workload, fits: List[Fit], setups: List[float], rss: float) -> Dict[str, float]:
    rounds = [r for fit in fits for r in fit.rounds]
    # a fit that misses the target already fails its check; the time comes
    # from the fits that crossed, or is missing when none did
    crossed = [fit.target_s for fit in fits if fit.target_s is not None]
    return {
        "setup_s": statistics.median(setups),
        "round_ms_p50": 1000.0 * float(np.percentile(rounds, 50)),
        "round_ms_p95": 1000.0 * float(np.percentile(rounds, 95)),
        "samples_per_s": w.job["batch_size"] * len(rounds) / sum(rounds),
        "time_to_target_s": statistics.median(crossed) if crossed else None,
        "peak_rss_mb": rss,
    }


def run(name: str, seed: int, seconds: float, trace: bool,
        heartbeat_fd: Optional[int], workdir: Path) -> dict:
    """Run one workload; returns the child's result record."""
    workdir.mkdir(parents=True, exist_ok=True)
    clock = RoundClock(heartbeat_fd, SPEC["job"]["target_loss"])
    clock.install()
    w = Workload(name, seed, workdir)
    checks = Checks()
    if trace:
        return _run_traced(w, clock, checks, seconds)

    setups = []
    for _ in range(SPEC["setup_reps"]):
        fit = run_fit(w, clock, iterations=1)
        setups.append(fit.setup_s)
        drop_store(fit)
    fits: List[Fit] = []
    clock.measuring = True
    began = time.perf_counter()
    while len(fits) < SPEC["min_fits"] or time.perf_counter() - began < seconds:
        if fits:
            drop_store(fits[-1])
        fits.append(run_fit(w, clock))
        setups.append(fits[-1].setup_s)
        if len(fits) == 1:
            # taken at a fixed point, so it does not depend on how many
            # fits the time budget allows
            rss = peak_rss_mb()
    clock.measuring = False
    checks.fits(w, fits)
    _reference_check(w, clock, checks, fits[-1])
    drop_store(fits[-1])
    attempted = sum(len(fit.rounds) for fit in fits)
    return {
        "correct": checks.ok,
        "attempted": attempted,
        "failed": 0,
        "metrics": _end_to_end(w, fits, setups, rss),
        "checks": checks.items,
        "fits": len(fits),
        "loss_at_target": fits[-1].target_loss,
        "target_round": fits[-1].target_round,
        "store": fits[-1].store,
    }


def _run_traced(w: Workload, clock: RoundClock, checks: Checks, seconds: float) -> dict:
    began = time.perf_counter()
    clock.measuring = True
    untraced = run_fit(w, clock)
    drop_store(untraced)
    untraced_p50 = 1000.0 * statistics.median(untraced.rounds)

    tracer = Tracer()
    master_step = "baselines.center_update" if w.wl["system"] == "mllib" else "core.master_step"
    tracer.install(master_step)
    clock.tracer = tracer
    traces: List[FitTrace] = []
    fits: List[Fit] = []
    while not fits or time.perf_counter() - began < seconds:
        if fits:
            drop_store(fits[-1])
        tracer.reset()
        fits.append(run_fit(w, clock, tracer=tracer))
        traces.append(FitTrace(tracer, w.job["workers"]))
    clock.measuring = False
    traces_dir = w.workdir.parent / "traces"
    traces_dir.mkdir(exist_ok=True)
    trace_path = traces_dir / "{}-seed{}.json".format(w.name, w.seed)
    trace_path.write_text(json.dumps(tracer.chrome_trace()))
    checks.fits(w, fits)
    checks.equal_params("traced_equals_untraced", fits[0].params, untraced.params)

    metrics, coverage = per_layer_metrics(traces)
    gap = abs(coverage["accounted_ms_p50"] - coverage["round_ms_p50"])
    checks.add(
        "blocking_path_coverage",
        gap <= SPEC["coverage_tolerance"] * coverage["round_ms_p50"],
        "layer self times on the blocking path {:.3f} ms vs traced round p50 "
        "{:.3f} ms (tolerance {:.0%})".format(
            coverage["accounted_ms_p50"], coverage["round_ms_p50"],
            SPEC["coverage_tolerance"],
        ),
    )
    # on local ColumnSGD workloads the engine runs only in the output
    # check's simulator fit of the same job, so its layers come from there
    if _reference_check(w, clock, checks, fits[-1], tracer) is not None:
        engine = FitTrace(tracer, w.job["workers"])
        metrics["engine.round_self_ms"] = engine.layer_ms("engine.run_round")
        metrics["core.executor_ms"] = engine.layer_ms("core.executor")
    drop_store(fits[-1])
    rounds = rounds_of(fits[-1].result)
    store = fits[-1].store
    lookups = store["hits"] + store["misses"]
    metrics.update({
        "store.hit_ratio": store["hits"] / lookups if lookups else 0.0,
        "store.hits": float(store["hits"]),
        "store.misses": float(store["misses"]),
        "store.bytes_read_per_round": store["bytes_read"] / rounds,
        "net.bytes_per_round": fits[-1].result.total_bytes() / rounds,
        "trace.round_ms_p50": coverage["round_ms_p50"],
        "trace.accounted_ms_p50": coverage["accounted_ms_p50"],
        "trace.overhead_ms": coverage["round_ms_p50"] - untraced_p50,
    })
    return {
        "correct": checks.ok,
        "attempted": sum(len(fit.rounds) for fit in fits) + len(untraced.rounds),
        "failed": 0,
        "metrics": metrics,
        "checks": checks.items,
        "fits": len(fits),
        "untraced_round_ms_p50": untraced_p50,
        "trace_file": str(trace_path),
    }
