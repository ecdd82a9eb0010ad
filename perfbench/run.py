"""Repository benchmark: ColumnSGD and MLlib end to end and layer by layer.

Run from the root of a checkout (the ``repro`` sources are read from
``./src``)::

    python3 perfbench/run.py --workload colsgd-local --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each workload run executes in a child process that leads its own
process group, so the workers it forks belong to the group too.  The
child writes one byte per completed round to a pipe; when no round
completes within the stall bound, the whole group is killed, the run
counts every round as failed, and the benchmark moves on instead of
hanging.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when an output check failed, 2 when the sources are missing
or a workload run crashed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "workloads.json").read_text())
WORKDIR = Path(".perfbench")

PR_SET_CHILD_SUBREAPER = 36


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SPEC["workloads"]) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--heartbeat-fd", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------
def child_main(args) -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(HERE))
    import harness

    result_path = Path(args.result)
    record = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.heartbeat_fd, result_path.parent,
    )
    result_path.write_text(json.dumps(record))
    return 0


# ----------------------------------------------------------------------
# supervisor side
# ----------------------------------------------------------------------
def _become_subreaper() -> bool:
    """Adopt orphaned grandchildren so they can be waited for (Linux)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _kill_group(pgid: int, subreaper: bool) -> None:
    """SIGKILL the run's process group and wait until every member ended."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if subreaper:
            try:
                while os.waitpid(-1, os.WNOHANG)[0]:
                    pass
            except ChildProcessError:
                return
        else:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
        time.sleep(0.05)


def supervise(workload: str, seed: int, seconds: float, trace: int, subreaper: bool) -> dict:
    """Run one workload in its own process group under the stall bound."""
    rundir = WORKDIR / "run-{}-{}".format(workload, os.getpid())
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    result_path = rundir / "result.json"
    read_fd, write_fd = os.pipe()
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--heartbeat-fd", str(write_fd),
        "--result", str(result_path),
    ]
    child = subprocess.Popen(
        command, pass_fds=(write_fd,), start_new_session=True, stdout=sys.stderr
    )
    os.close(write_fd)
    stall = SPEC["stall_bound_s"]
    started = last_progress = time.monotonic()
    rounds = 0
    stalled = False
    try:
        while True:
            now = time.monotonic()
            if now - last_progress > stall or now - started > SPEC["run_cap_s"]:
                stalled = True
                break
            ready, _, _ = select.select([read_fd], [], [], 1.0)
            if ready:
                data = os.read(read_fd, 65536)
                if not data:
                    break  # every holder of the pipe has exited
                rounds += len(data)
                last_progress = time.monotonic()
            elif child.poll() is not None:
                break
    finally:
        os.close(read_fd)
        if stalled or child.poll() is None:  # stalled, or interrupted here
            _kill_group(child.pid, subreaper)
        child.wait()
        _kill_group(child.pid, subreaper)
    try:
        if stalled:
            planned = SPEC["job"]["rounds_per_fit"]
            attempted = max(rounds, planned)
            return {
                "correct": True,
                "attempted": attempted,
                "failed": attempted,
                "metrics": None,
                "stalled": "no round completed within {} s ({} rounds before the stall); "
                           "process group killed".format(stall, rounds),
            }
        if child.returncode != 0 or not result_path.exists():
            return {"crashed": "workload process exited with code {}".format(child.returncode)}
        return json.loads(result_path.read_text())
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def _metric_names(trace: int, listed_only: bool = False):
    """(name, unit) of the metrics a run reports; ``listed_only`` keeps
    those in BENCHMARK.json, which the result line carries."""
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    return [
        (name, spec["unit"]) for name, spec in table.items()
        if name != "fail_ratio" and (spec.get("in_benchmark_json", True) or not listed_only)
    ]


def report(workload: str, record: dict, trace: int) -> None:
    """Human-readable lines for one workload run."""
    print("== {} ==".format(workload))
    if "crashed" in record:
        print("  CRASHED: {}".format(record["crashed"]))
        return
    if record.get("stalled"):
        print("  STALLED: {}".format(record["stalled"]))
    metrics = record["metrics"] or {}
    for name, unit in _metric_names(trace):
        value = metrics.get(name)
        shown = "n/a" if value is None else "{:.6g}".format(value)
        print("  {:32s} {:>14s} {}".format(name, shown, unit))
    attempted, failed = record["attempted"], record["failed"]
    print("  {:32s} {:>14s} ratio ({} failed / {} attempted rounds)".format(
        "fail_ratio", "{:.6g}".format(failed / attempted), failed, attempted))
    if "loss_at_target" in record:
        print("  loss at target crossing: {} (round {} evaluation)".format(
            record["loss_at_target"], record["target_round"]))
    if "trace_file" in record:
        print("  spans of the last traced fit: {}".format(record["trace_file"]))
    for check in record.get("checks", []):
        print("  check {:32s} {} ({})".format(
            check["name"], "ok" if check["ok"] else "FAILED", check["detail"]))


def result_line(record: dict, trace: int) -> dict:
    metrics = record["metrics"] or {}
    return {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {
            name: {"value": metrics.get(name), "unit": unit}
            for name, unit in _metric_names(trace, listed_only=True)
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (Path.cwd() / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no repro sources at ./src; run from the repository root",
              file=sys.stderr)
        return 2
    subreaper = _become_subreaper()
    names = sorted(SPEC["workloads"]) if args.workload == "all" else [args.workload]
    lines = []
    for name in names:
        record = supervise(name, args.seed, args.seconds, args.trace, subreaper)
        report(name, record, args.trace)
        if "crashed" in record:
            return 2
        lines.append((name, result_line(record, args.trace)))
    if len(lines) == 1:
        final = lines[0][1]
    else:
        final = {
            "correct": all(line["correct"] for _, line in lines),
            "attempted": sum(line["attempted"] for _, line in lines),
            "failed": sum(line["failed"] for _, line in lines),
            "metrics": {
                "{}/{}".format(name, metric): value
                for name, line in lines for metric, value in line["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
