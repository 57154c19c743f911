"""One benchmark process: import kirbycalc, generate inputs, run, check.

Started by run.py in a fresh interpreter.  Prints one JSON object on
stdout.  Modes:

* --setup-only: import and generate the first cycle, then report the
  moment it would have started the first timed operation.
* default: a closed loop with one operation in flight.  Cycles of
  operations run until the timed phase reaches --seconds.  Each
  operation runs REPEATS times back to back; each time is scaled to
  reference host speed (hostspeed.py) and the fastest is the
  operation's latency.  Each cycle's answers are checked after the
  cycle, outside the timed region, and the repeats must give
  byte-identical answers.
* --trace: a fixed number of cycles, run once untraced and once traced
  (answers must agree byte for byte), then traced again with the same
  seed and with another seed to prove the exact counts deterministic.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import kirbycalc  # noqa: E402,F401
import kirbycalc.cli  # noqa: E402,F401

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# cycles per second of --seconds in a traced run, sized so that one
# untraced pass takes about a fifth of --seconds
TRACE_CYCLES_PER_S = {"cli-handlebody": 1.2, "intmat-dense": 0.3, "equiv-search": 0.6}
# runs of each operation in the closed loop; the fastest counts
REPEATS = 2
# the layer expected to take the most self time on each workload
PREDICTED_TOP = {"cli-handlebody": ("intmat", "handlebody", "textio"),
                 "intmat-dense": ("intmat",), "equiv-search": ("forms",)}
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")


class Determinism(Exception):
    """Exact counts did not repeat for one seed, or repeated for two."""


def run_op(op):
    """Run one operation; returns (seconds, answer, exception)."""
    t0 = perf_counter()
    try:
        answer, error = op.run(), None
    except Exception as exc:  # every raised error is a failed operation
        answer, error = None, exc
    return perf_counter() - t0, answer, error


def check_op(op, answer, error):
    """None when the answer is right, else a description of the failure."""
    if error is not None:
        return f"{op.kind}: raised {type(error).__name__}: {error}"
    try:
        op.check(answer)
    except workloads.CheckFailed as exc:
        return f"{op.kind}: {exc}"
    except Exception as exc:  # a check that cannot even read the answer
        return f"{op.kind}: unreadable answer ({type(exc).__name__}: {exc})"
    return None


def closed_loop(workload, seed, seconds, scratch):
    """Run cycles until --seconds are used up.

    Operation times are scaled by the reference loop sampled just before
    them, so a slow stretch of the shared host does not move the result,
    and each operation keeps the fastest of its REPEATS runs, so neither
    does a single interruption.
    """
    ops = workloads.make_cycle(workload, seed, 0, scratch)
    ready = time.monotonic()
    setup_ref = hostspeed.typical()
    clock = hostspeed.Clock()
    latencies, failures = [], []
    timed = 0.0
    attempted = 0
    cycle = 0
    while True:
        start = perf_counter()
        clock.refresh()
        done = []
        for op in ops:
            best, runs = math.inf, []
            for _ in range(REPEATS):
                clock.before_op()
                dt, answer, error = run_op(op)
                best = min(best, clock.scale(dt))
                runs.append((answer, error))
            latencies.append(best)
            done.append((op, runs))
            if timed + perf_counter() - start >= seconds:
                break
        timed += perf_counter() - start
        for op, runs in done:
            attempted += 1
            answer, error = runs[0]
            failure = check_op(op, answer, error)
            if not failure and len({answer_digest(*run) for run in runs}) > 1:
                failure = f"{op.kind}: repeated runs gave different answers"
            if failure:
                failures.append(failure)
        done = None
        if timed >= seconds:
            break
        cycle += 1
        ops = workloads.make_cycle(workload, seed, cycle, scratch)
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "ready": ready,
        "setup_ref_s": setup_ref,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "timed_s": timed,
        "cycles": cycle + 1,
        "ref_median_s": statistics.median(clock.samples),
        "ops_per_s": (attempted - len(failures)) / math.fsum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": deciles[-1] * 1e3,
        "beyond_p90": sum(1 for x in latencies if x > deciles[-1]),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def answer_digest(answer, error):
    return repr(error) if error else workloads.digest(answer)


def trace_ops(workload, seed, cycles, scratch):
    return [op for c in range(cycles) for op in workloads.make_cycle(workload, seed, c, scratch)]


def traced_pass(ops, keep_spans):
    tr = tracing.Tracer(keep_spans=keep_spans)
    digests, wall = [], 0.0
    with tr:
        for i, op in enumerate(ops):
            tr.op_id = i
            dt, answer, error = run_op(op)
            wall += dt
            digests.append(answer_digest(answer, error))
    return tr, wall, digests


def traced_run(workload, seed, seconds, scratch):
    cycles = max(1, math.ceil(seconds * TRACE_CYCLES_PER_S[workload]))
    ops = trace_ops(workload, seed, cycles, scratch)
    plain_wall, plain_digests, failures = 0.0, [], []
    for op in ops:
        dt, answer, error = run_op(op)
        plain_wall += dt
        plain_digests.append(answer_digest(answer, error))
        failure = check_op(op, answer, error)
        if failure:
            failures.append(failure)
    tr, traced_wall, digests = traced_pass(ops, keep_spans=True)
    for op, a, b in zip(ops, plain_digests, digests):
        if a != b:
            failures.append(f"{op.kind}: traced answer differs from the untraced one")
    counts = tr.exact_counts()
    again, _, _ = traced_pass(trace_ops(workload, seed, cycles, scratch), keep_spans=False)
    if again.exact_counts() != counts:
        diff = sorted(k for k in set(counts) | set(again.exact_counts())
                      if counts.get(k) != again.exact_counts().get(k))
        raise Determinism(f"exact counts differ between two traced runs of seed {seed}: {diff}")
    other, _, _ = traced_pass(trace_ops(workload, seed + 1, cycles, scratch), keep_spans=False)
    if other.exact_counts() == counts:
        raise Determinism(f"exact counts of seeds {seed} and {seed + 1} are identical")

    layers = tr.layer_self_s()
    top = max(layers, key=layers.get)
    spans_path = write_spans(tr, ops, workload, seed)
    c = tr.counters
    snf_calls = tr.calls["intmat.smith_normal_form"]
    leaves = c["forms.iter_isometries.leaves"]
    metrics = {}
    for name in tracing.REPORTED:
        metrics[f"{name}.calls"] = (tr.calls[name], "count")
        metrics[f"{name}.self_s"] = (tr.self_s[name], "s")
    for layer, s in layers.items():
        metrics[f"{layer}.self_s"] = (s, "s")
    metrics.update({
        "intmat.smith_normal_form.transform_bits_max":
            (c["intmat.smith_normal_form.transform_bits_max"], "bits"),
        "intmat.smith_normal_form.transforms_used_ratio":
            (c["intmat.smith_normal_form.transforms_used"] / snf_calls if snf_calls else 0.0,
             "ratio"),
        "forms.iter_isometries.leaves": (leaves, "count"),
        "forms.iter_isometries.yielded": (c["forms.iter_isometries.yielded"], "count"),
        "forms.iter_isometries.yield_ratio":
            (c["forms.iter_isometries.yielded"] / leaves if leaves else 0.0, "ratio"),
        "forms.algebraically_equivalent.undecided":
            (c["forms.algebraically_equivalent.undecided"], "count"),
        "textio.bytes_parsed": (c["textio.bytes_parsed"], "bytes"),
        "trace.overhead_ratio": (traced_wall / plain_wall, "ratio"),
    })
    return {
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:5],
        "metrics": metrics,
        "top_layer": top,
        "top_layer_predicted": list(PREDICTED_TOP[workload]),
        "spans": len(tr.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
    }


def write_spans(tr, ops, workload, seed):
    path = os.path.join(RUNS_DIR, f"spans-{workload}-seed{seed}.jsonl")
    names = sorted({s[1] for s in tr.spans})
    index = {n: i for i, n in enumerate(names)}
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "op"],
                             "names": names, "ops": [op.kind for op in ops]}) + "\n")
        for sid, name, start, end, parent, op in tr.spans:
            fh.write(f"[{sid},{index[name]},{start:.9f},{end:.9f},{parent},{op}]\n")
    return path


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    os.makedirs(RUNS_DIR, exist_ok=True)
    scratch = os.path.join(RUNS_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(scratch)
    try:
        if args.setup_only:
            workloads.make_cycle(args.workload, args.seed, 0, scratch)
            result = {"ready": time.monotonic(), "setup_ref_s": hostspeed.typical()}
        elif args.trace:
            result = traced_run(args.workload, args.seed, args.seconds, scratch)
        else:
            result = closed_loop(args.workload, args.seed, args.seconds, scratch)
    except Determinism as exc:
        print(f"worker: determinism check failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
