"""Run the benchmark over several seeds and write a trajectory point.

From the repository root::

    python3 perfbench/collect.py --label seed-36fb3d5 --seeds 1-10 \
        --out perfbench/baseline/seed-36fb3d5.json

Runs every workload in ``workloads.json`` once per seed untraced and
once (first seed) traced, and records each run's result line plus, per
end-to-end metric, the median and quartiles over seeds and the spread
(quartile distance over median).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "workloads.json").read_text())


def seeds_of(text: str):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        return {"exit_code": out.returncode, "stderr_tail": out.stderr[-2000:]}
    record = json.loads(lines[-1])
    record["exit_code"] = out.returncode
    record["report"] = lines[:-1]
    # metrics printed but left off the result line, such as round_ms_p95
    for name, value in reported_metrics(lines[:-1]).items():
        record["metrics"].setdefault(name, value)
    return record


def reported_metrics(lines):
    """``name value unit`` lines of the human-readable report (6 digits)."""
    names = set(SPEC["end_to_end"]) | set(SPEC["per_layer"])
    found = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0] in names and parts[1] != "n/a":
            found[parts[0]] = {"value": float(parts[1]), "unit": parts[2]}
    return found


def summarize(records):
    summary = {}
    names = {name for r in records for name in (r.get("metrics") or {})}
    for name in sorted(names):
        values = [r["metrics"][name]["value"] for r in records
                  if r.get("metrics") and r["metrics"][name]["value"] is not None]
        if len(values) < 2:
            continue
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        summary[name] = {
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "n": len(values),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--workloads", default=",".join(SPEC["workloads"]))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seeds = seeds_of(args.seeds)
    out = Path(args.out)
    point = json.loads(out.read_text()) if out.exists() else {}
    if point.get("label") != args.label:
        point = {"workloads": {}}
    point.update({
        "label": args.label,
        "machine": {"processor": platform.processor() or platform.machine(),
                    "python": platform.python_version()},
        "seconds": args.seconds,
    })
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append({"seed": seed, **run_once(workload, seed, args.seconds, 0)})
            print(workload, seed, runs[-1].get("metrics"), file=sys.stderr, flush=True)
        traced = run_once(workload, seeds[0], args.seconds, 1)
        point["workloads"][workload] = {
            "seeds": seeds,
            "summary": summarize(runs),
            "runs": runs,
            "traced": {"seed": seeds[0], **traced},
        }
        out.write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
