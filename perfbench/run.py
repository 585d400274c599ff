"""voltlift benchmark: closed-loop `voltlift run` workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is one fresh process (perfbench/child.py) that imports voltlift
from ./src and calls ``voltlift.cli.main(["run", ...])`` with
``--threads 2`` and ``--seed-override N``.  Runs follow one another (a
closed loop with one client) while the next run is expected to end
within S seconds; an untraced pass makes at least two runs.  Every run's
output is checked.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json, as
medians over the runs.  Their times are scaled to a fixed host speed:
before the first run and after each run the parent times a fixed probe
(host_probe), and each run's times are multiplied by PROBE_NOMINAL_S /
the mean of the probes just before and just after it, so that the
minutes-long swings in speed of a shared host cancel out.  --trace 1
alternates untraced and traced runs and reports the per-layer metrics,
unscaled; ergodic_2d adds one traced run at ``--threads 1`` as the
single-threaded baseline.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
THREADS = 2
# one invocation must end within 180 s; stop starting runs well before
LAST_START_S = 150.0
CHILD_TIMEOUT_S = 170.0
# host_probe's time at the host speed the end-to-end times are scaled to
# (its median on the machine in perfbench/README.md when that was quiet)
PROBE_NOMINAL_S = 0.80


def host_probe():
    """Seconds this process takes for a fixed mix of interpreter work and
    small numpy operations (about 0.8 s), to gauge the host's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(5_000_000):
        acc += i * i % 7
    y = np.linspace(-1.0, 1.0, 2048 * 16).reshape(2048, 16, 1)
    w = np.full(16, 1.0 / 16)
    for _ in range(5200):
        x = np.einsum("i,tip->tp", w, y)
        y = 0.99 * y + 0.01 * np.tanh(x)[:, None, :]
    return time.perf_counter() - t0


def run_child(name, cfg, cfg_path, out, seed, threads, trace, budget_s):
    """One voltlift run in a fresh process; returns its record."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(SRC), str(cfg_path),
             str(out), str(seed), str(threads), str(trace)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=budget_s)
        err = proc.stderr.strip().splitlines()[-1:] if proc.returncode else []
    except subprocess.TimeoutExpired:
        err = [f"timed out after {budget_s:.0f} s"]
    rec = {"trace": trace, "threads": threads, "probe_s": host_probe(),
           "failed": err}
    rec["duration_s"] = time.perf_counter() - t0
    child_file = out / "child.json"
    if err or not child_file.is_file():
        rec["failed"] = err or ["no child.json"]
        return rec
    rec.update(json.loads(child_file.read_text()))
    if rec["rc"] != 0:
        rec["failed"] = [f"voltlift exited {rec['rc']}"]
        return rec
    rows, verdict = workloads.read_results(out)
    rec["failed"] = workloads.check_output(name, rows, verdict)
    rec["factor_steps"] = workloads.factor_steps(name, cfg, rows)
    rec["epsilon_k"] = workloads.epsilon_k(name, rows)
    rec["sha256"] = hashlib.sha256(
        (out / "results.csv").read_bytes()).hexdigest()
    return rec


def plan_runs(name, trace):
    """(trace, threads) of the runs that start every invocation."""
    if not trace:
        return [(0, THREADS)] * 2
    first = [(0, THREADS), (1, THREADS)]
    if name == "ergodic_2d":
        first.append((1, 1))
    return first


def measure(name, seed, seconds, trace):
    cfg = workloads.CONFIGS[name]
    wdir = WORK / name
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    cfg_path = wdir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2))
    queue = plan_runs(name, trace)
    runs = []
    start = time.perf_counter()
    probe_s = host_probe()
    while True:
        elapsed = time.perf_counter() - start
        if not queue:
            # repeat the pattern while it is expected to end in time
            queue = [(0, THREADS), (1, THREADS)] if trace else [(0, THREADS)]
            est = median(r["duration_s"] for r in runs) * len(queue)
            if elapsed + est > min(seconds, LAST_START_S):
                break
        elif elapsed > LAST_START_S:
            break
        tr, threads = queue.pop(0)
        out = wdir / f"run{len(runs):03d}"
        rec = run_child(name, cfg, cfg_path, out, seed, threads, tr,
                        max(1.0, CHILD_TIMEOUT_S - elapsed))
        rec["host_s"] = 0.5 * (probe_s + rec["probe_s"])
        probe_s = rec["probe_s"]
        runs.append(rec)
    return runs


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(runs):
    ok = [r for r in runs if "sha256" in r and r["trace"] == 0]
    scale = [PROBE_NOMINAL_S / r["host_s"] for r in ok]
    return {
        "wall_s": median(r["wall_s"] * k for r, k in zip(ok, scale)),
        "setup_s": median(r["setup_s"] * k for r, k in zip(ok, scale)),
        "factor_steps_per_s": median(
            r["factor_steps"] / ((r["wall_s"] - r["setup_s"]) * k)
            for r, k in zip(ok, scale)),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in ok),
    }


def per_layer(runs):
    ok = [r for r in runs if "sha256" in r]
    traced = [r for r in ok if r["trace"] == 1 and r["threads"] == THREADS]
    single = [r for r in ok if r["trace"] == 1 and r["threads"] == 1]
    untraced = [r for r in ok if r["trace"] == 0]
    out = {"cli.import_s": median(r["import_s"] for r in ok)}
    for key in (traced[0]["layers"] if traced else {}):
        out[key] = median(r["layers"][key] for r in traced)
    ens = out.get("ergodics.run_ensemble.wall_s", 0.0)
    out["ergodics.thread_speedup"] = (
        median(r["layers"]["ergodics.run_ensemble.wall_s"] for r in single)
        / ens if single and ens else 0.0)
    out["discretize.epsilon_k.value"] = median(r["epsilon_k"] for r in ok)
    base = median(r["wall_s"] for r in untraced)
    out["trace.overhead"] = (median(r["wall_s"] for r in traced) / base
                             if traced and base else 0.0)
    return out


def report(name, seed, runs, metrics, declared):
    for i, r in enumerate(runs):
        status = "ok" if not r["failed"] else "FAILED " + "; ".join(
            r["failed"])
        times = (f"wall {r['wall_s']:.3f} s setup {r['setup_s']:.3f} s"
                 if "setup_s" in r else "")
        print(f"run {i:2d} trace={r['trace']} threads={r['threads']} "
              f"{r['duration_s']:7.2f} s  probe {r['probe_s']:.3f} s  "
              f"{times}  {status}")
    hashes = sorted({r["sha256"] for r in runs if "sha256" in r})
    print(f"results.csv sha256 (determinism spot-check, not gated): "
          f"{len(hashes)} distinct over {len(runs)} runs: "
          + ", ".join(h[:16] for h in hashes))
    versions = next((r["versions"] for r in runs if "versions" in r), {})
    print(f"workload {name} seed {seed}; nproc {os.cpu_count()}; "
          + ", ".join(f"{k} {v}" for k, v in versions.items()))
    untraced = [r for r in runs if "sha256" in r and r["trace"] == 0]
    print(f"unscaled medians: wall_s "
          f"{median(r['wall_s'] for r in untraced):.4g} s, setup_s "
          f"{median(r['setup_s'] for r in untraced):.4g} s; host probe "
          f"{median(r['probe_s'] for r in runs):.4g} s "
          f"(nominal {PROBE_NOMINAL_S} s)")
    failed = sum(1 for r in runs if r["failed"])
    print(f"{'fail_frac':<44} {failed / len(runs):.4g} ({failed}/{len(runs)})")
    for m in declared:
        print(f"{m['name']:<44} {metrics.get(m['name'], 0.0):.6g} "
              f"{m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.CONFIGS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "voltlift" / "cli.py").is_file() or not spec_file.is_file():
        print(f"error: {ROOT} lacks src/voltlift or BENCHMARK.json; run "
              "from a voltlift checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    runs = measure(args.workload, args.seed, args.seconds, args.trace)
    metrics = per_layer(runs) if args.trace else end_to_end(runs)
    report(args.workload, args.seed, runs, metrics, declared)
    failed = sum(1 for r in runs if r["failed"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        # a metric no successful run measured reads 0; correct is false then
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
