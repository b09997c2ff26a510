"""zenosim benchmark: one workload, one process, closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload loc_flip --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` traces
every other op of the timed pass and reports the per-layer metrics and
the tracing overhead. Either way every output is checked after the timed
pass, and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The program under test is always ``src/zenosim`` next to this directory;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_out"
# One BLAS thread everywhere. With two on a 2-core machine, one competing
# process on the other core made loc_flip ops 3x slower (spinning BLAS
# threads wait on the preempted one); with one thread the op time did not
# move. two_level_sweep adds nproc run_batch workers, which share the GIL.
BLAS_THREADS = 1
WARMUP_OPS = 2
# set-up is timed in this many fresh processes, spread through the timed
# pass, so that they meet the same host phases as the ops
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def set_thread_env() -> None:
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    """Import zenosim from SRC, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import zenosim

    if Path(zenosim.__file__).resolve().parent != (SRC / "zenosim").resolve():
        sys.exit(f"error: imported zenosim from {zenosim.__file__}, not {SRC}")
    return zenosim


def set_up(workload: str, seed: int, workdir: Path):
    """Generate inputs and warm up: with the imports, everything before the first timed op."""
    import workloads

    wl = workloads.WORKLOADS[workload](seed, workdir, nproc())
    wl.prepare()
    for w in range(WARMUP_OPS):
        wl.run(-1 - w)
    wl.outputs.clear()
    return wl


def measure_setup(args, probe: int) -> float:
    """Wall time of set-up in a fresh process, from spawn to ready.

    The probe prints ``time.monotonic()`` when it is ready; that clock is
    system-wide, so it compares with the parent's reading before spawn.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-probe", str(probe),
    ]
    start = time.monotonic()
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(res.stdout.split()[-1]) - start


def timed_pass(wl, seconds: float, tr=None, probe=None) -> tuple:
    """Run ops back to back for `seconds`; returns (durations, errors, wall).

    With a tracer, odd ops run traced, tagged with their op id, and even
    ops untraced, so host drift hits both sides alike. With `probe`, the
    pass is cut into SETUP_PROBES blocks and probe(b) runs before block b,
    outside the measured time.
    """
    durations, errors, wall, i = [], {}, 0.0, 0
    blocks = SETUP_PROBES if probe else 1
    for b in range(blocks):
        if probe:
            probe(b)
        start = time.perf_counter()
        deadline = start + seconds / blocks
        while time.perf_counter() < deadline:
            traced = tr is not None and i % 2 == 1
            with tr.patched() if traced else contextlib.nullcontext():
                if traced:
                    tr.op = i
                a = time.perf_counter()
                try:
                    wl.run(i)
                except Exception as exc:  # an op failure is a measured outcome, not a crash
                    errors[i] = f"{type(exc).__name__}: {exc}"
                durations.append(time.perf_counter() - a)
            i += 1
        wall += time.perf_counter() - start
    return durations, errors, wall


def tail(durations) -> tuple:
    """The highest percentile with at least ten ops beyond it: (value, percentile).

    That is the 11th slowest op. With fewer than 21 ops it would fall
    below the median, so the median is reported instead.
    """
    s = sorted(durations)
    n = len(s)
    if n < 21:
        return statistics.median(s), 50.0
    return s[n - 11], 100.0 * (n - 10) / n


def check_all(wl, indices, errors) -> tuple:
    """Check every op's outputs; returns (failed op ids, rows written)."""
    failed, rows = set(errors), 0
    for i in indices:
        if i in errors:
            continue
        try:
            problems, written = wl.check(i)
        except Exception as exc:  # malformed output must fail the op, not the run
            problems, written = [f"check raised {type(exc).__name__}: {exc}"], 0
        rows += written
        if problems:
            failed.add(i)
            print(f"op {i} failed: {'; '.join(problems[:3])}", file=sys.stderr)
    for i, msg in errors.items():
        print(f"op {i} failed: {msg}", file=sys.stderr)
    return failed, rows


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tr, n_ops: int, overhead: float) -> dict:
    """Per-op layer totals of a traced pass, printed as a table too."""
    import tracer

    totals = tracer.layer_totals(tr.spans)
    metrics = {}
    for layer, agg in totals.items():
        metrics[f"{layer}.calls"] = metric(agg["calls"] / n_ops, "count/op")
        metrics[f"{layer}.s"] = metric(agg["s"] / n_ops, "s/op")
        metrics[f"{layer}.self_s"] = metric(agg["self_s"] / n_ops, "s/op")
    metrics["propagator.evolve.gflop"] = metric(totals["propagator.evolve"]["work"] / n_ops, "GFLOP/op")
    for layer in ("csvio.write_trajectory_csv", "csvio.read_population_table"):
        metrics[f"{layer}.bytes"] = metric(totals[layer]["work"] / n_ops, "B/op")
    metrics["trace.overhead_frac"] = metric(overhead, "ratio")
    print(f"per-op layer times over {n_ops} traced ops, by self time:")
    for layer, agg in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        print(
            f"  {layer:36s} calls/op {agg['calls'] / n_ops:10.2f}  "
            f"s/op {agg['s'] / n_ops:.6f}  self_s/op {agg['self_s'] / n_ops:.6f}"
        )
    return metrics


def main(argv=None) -> int:
    set_thread_env()
    if not (SRC / "zenosim" / "__init__.py").is_file():
        print(f"error: {SRC / 'zenosim'} not found; run from a zenosim checkout", file=sys.stderr)
        return 2
    import_program()
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=int, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    workdir = WORKDIR / args.workload
    if args.setup_probe is not None:
        set_up(args.workload, args.seed, workdir / f"probe{args.setup_probe}")
        print(time.monotonic(), flush=True)
        return 0

    shutil.rmtree(workdir, ignore_errors=True)
    wl = set_up(args.workload, args.seed, workdir)
    tr, setup_times = None, []
    if args.trace:
        import tracer

        tr = tracer.Tracer()
        durations, errors, _ = timed_pass(wl, args.seconds, tr)
    else:
        durations, errors, wall = timed_pass(
            wl, args.seconds, probe=lambda b: setup_times.append(measure_setup(args, b))
        )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(durations)
    failed, rows = check_all(wl, range(attempted), errors)
    import sysinfo

    print("env " + json.dumps(sysinfo.describe(ROOT, BLAS_THREADS, nproc()), sort_keys=True))
    if args.trace:
        tracer.write_spans(tr.spans, workdir / "spans.csv")
        overhead = statistics.median(durations[1::2]) / statistics.median(durations[0::2]) - 1.0
        metrics = layer_metrics(tr, len(durations[1::2]), overhead)
    else:
        tail_s, tail_pct = tail(durations)
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "op_p50_s": metric(statistics.median(durations), "s"),
            "op_tail_s": metric(tail_s, "s"),
            "samples_per_s": metric(rows / wall, "rows/s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "ok_frac": metric((attempted - len(failed)) / attempted, "ratio"),
        }
        print(f"setup_s probes: {', '.join(f'{t:.4f}' for t in setup_times)}")
        print(f"op_tail_s is p{tail_pct:.2f} of {len(durations)} ops")
    print(f"failed_frac {len(failed) / attempted} ({len(failed)} of {attempted} ops)")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
