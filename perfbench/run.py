"""Run one kirbycalc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; kirbycalc is imported from
src/.  With --trace 0 the last line of stdout is a JSON object holding
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
metrics.  The lines before it are a readable summary.  The workload
process is a fresh interpreter (worker.py); set-up time is the median
over SETUP_PROBES extra fresh interpreters, half started before the
measured one and half after it, and the measured one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402

WORKLOADS = ("cli-handlebody", "intmat-dense", "equiv-search")
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 150


def worker(args, extra=()):
    """Start worker.py, wait for it, and return (spawn time, its JSON result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def setup_time(spawned, res):
    """Spawn-to-ready seconds, scaled to reference host speed."""
    return (res["ready"] - spawned) * hostspeed.REF_S / res["setup_ref_s"]


def setup_probe(args):
    return setup_time(*worker(args, ["--setup-only"]))


def main(argv=None):
    p = argparse.ArgumentParser(description="kirbycalc benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kirbycalc", "__init__.py")):
        print("run.py: no kirbycalc sources under src/; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            _, res = worker(args, ["--trace", "1"])
            metrics = res["metrics"]
            print(f"{args.workload} seed {args.seed} traced: {res['attempted']} ops, "
                  f"{res['spans']} spans in {res['spans_file']}")
            print(f"top self-time layer: {res['top_layer']} (predicted "
                  f"{' or '.join(res['top_layer_predicted'])}: "
                  f"{'match' if res['top_layer'] in res['top_layer_predicted'] else 'MISMATCH'})")
        else:
            setups = [setup_probe(args) for _ in range(SETUP_PROBES // 2)]
            spawned, res = worker(args)
            setups.append(setup_time(spawned, res))
            setups += [setup_probe(args) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
            metrics = {
                "ops_per_s": (res["ops_per_s"], "1/s"),
                "latency_p50_ms": (res["latency_p50_ms"], "ms"),
                "latency_p90_ms": (res["latency_p90_ms"], "ms"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mib": (res["peak_rss_mib"], "MiB"),
            }
            print(f"{args.workload} seed {args.seed}: {res['attempted']} ops in "
                  f"{res['timed_s']:.2f} s over {res['cycles']} cycles, "
                  f"{res['beyond_p90']} samples beyond p90, "
                  f"failed_ratio {res['failed'] / res['attempted']:.4f} "
                  f"({res['failed']}/{res['attempted']})")
            print(f"reference loop: median {res['ref_median_s'] * 1e3:.3f} ms over the run, "
                  f"counted as {hostspeed.REF_S * 1e3:g} ms")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"run.py: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
