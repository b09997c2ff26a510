"""Run every workload over seeds 101-110 and append the summary to history.json.

    python3 perfbench/record.py --label "what was measured"

For each workload in BENCHMARK.json this makes one ``run.py`` run per
seed with ``--trace 0`` and one more with ``--trace 1`` on the first
seed, one after another. It stores every end-to-end value with its
median, first and third quartiles and spread (quartile distance over
median), plus the traced run's per-layer metrics. A later change compares its own entry,
made with the same seeds and seconds, against the previous one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HISTORY = HERE / "history.json"
SEEDS = list(range(101, 111))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(env, result) of one benchmark run; exits if the run fails."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
    return env, json.loads(lines[-1])


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    entry = {
        "label": args.label,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "run_seconds": seconds,
        "seeds": SEEDS,
        "workloads": {},
    }
    for name in (w["name"] for w in bench["workloads"]):
        values, attempted, failed = {}, 0, 0
        for seed in SEEDS:
            env, res = run_once(name, seed, seconds, 0)
            entry.setdefault("env", env)
            attempted += res["attempted"]
            failed += res["failed"]
            for metric, m in res["metrics"].items():
                values.setdefault(metric, {"unit": m["unit"], "values": []})["values"].append(m["value"])
            print(name, seed, {k: round(m["value"], 4) for k, m in res["metrics"].items()}, flush=True)
        _, traced = run_once(name, SEEDS[0], seconds, 1)
        entry["workloads"][name] = {
            "attempted": attempted,
            "failed": failed,
            "end_to_end": {k: {"unit": v["unit"], **summarize(v["values"])} for k, v in values.items()},
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        for k, v in entry["workloads"][name]["end_to_end"].items():
            print(f"{name} {k}: median {v['median']:.6g} spread {v['spread']:.4f}", flush=True)

    history = json.loads(HISTORY.read_text()) if HISTORY.exists() else []
    history.append(entry)
    HISTORY.write_text(json.dumps(history, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
