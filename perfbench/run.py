"""stabsparse benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--size tiny]

One process runs one workload with one op in flight and BLAS pinned to
one thread.  With ``--trace 0`` it measures for S seconds and reports the
end-to-end metrics, with every time scaled to the reference speed (see
``reference_ns``); with ``--trace 1`` it runs every op twice, untraced
and traced, for S seconds, and reports the per-layer metrics.  ``all``
runs every workload in its own child process.  Human readable lines come
first; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  A run record with the
machine, versions, op timings and an output digest is written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import bootstrap

HERE = Path(__file__).resolve().parent
NAMES = ("outcome_chain", "sparsify_norm", "fastnorm_ch")
WARMUP_OPS = 1
SETUP_PROBES = 9
TAIL_PERCENTILE = 80
#: iterations of the reference loop, and its time at the reference speed
#: (about its uncontended time on a 2-vCPU x86-64 VM with Python 3.11)
REF_LOOPS = 300_000
REF_NS = 16_000_000

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


@dataclass
class OpResult:
    i: int
    ns: Optional[int]  # None when the op raised
    failure: Optional[str]
    canon: Optional[str]
    ref_ns: Optional[float] = None  # the reference loop's time around the op


def run_op(wl, i: int, tracer=None) -> OpResult:
    """Generate op i's inputs, time the op, then check its output."""
    ns = None
    try:
        inp = wl.inputs(i)
        with tracer.op_span(i) if tracer else nullcontext():
            t0 = time.perf_counter_ns()
            out = wl.op(inp)
            ns = time.perf_counter_ns() - t0
        return OpResult(i, ns, wl.check(inp, out), wl.canon(out))
    except Exception as exc:  # a failed op is counted, and the loop goes on
        return OpResult(i, ns, f"{type(exc).__name__}: {exc}", None)


def reference_ns() -> int:
    """Wall time of a fixed pure-Python loop: the machine's current speed.

    On a shared host the speed of a vCPU drifts by up to 2x over seconds
    to minutes.  The loop runs before and after every op, outside the
    timed op, and each op time is scaled by REF_NS over the mean of the
    two, so a program change moves the scaled time and host drift mostly
    does not.
    """
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i
    return time.perf_counter_ns() - t0


def run_for(wl, seconds: float, tracer=None) -> tuple:
    """Closed loop: warm-up, then ops until ``seconds`` have passed.

    Always runs the first ``PRELOAD_OPS`` ops, whose outputs form the
    digest, and runs the reference loop between ops.  With a tracer every
    op runs twice, untraced and traced, in alternating order, so that warm
    caches and host drift fall on both sides alike.  Returns the untraced
    and the traced results.
    """
    import workloads

    plain, traced = [], []
    start = time.perf_counter()
    before = reference_ns()
    while len(plain) < workloads.PRELOAD_OPS or time.perf_counter() - start < seconds:
        i = len(plain)
        sides = (None,) if tracer is None else (None, tracer)[:: 1 if i % 2 == 0 else -1]
        for side in sides:
            with side.installed() if side else nullcontext():
                result = run_op(wl, i, side)
            after = reference_ns()
            result.ref_ns = (before + after) / 2
            before = after
            (traced if side else plain).append(result)
    return plain, traced


def tail(durations: list) -> tuple:
    """(value, samples beyond it) of the TAIL_PERCENTILE-th percentile,
    interpolated between order statistics.

    The percentile is fixed, so runs of faster and slower code compare;
    the number of samples beyond it grows with the number of timed ops.
    """
    xs = sorted(durations)
    if len(xs) < 2:
        return xs[-1], 0
    value = statistics.quantiles(xs, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return value, sum(x > value for x in xs)


def op_stats(ns: list) -> dict:
    """ops_per_s, op_p50_s and op_tail_s of timed op times in ns."""
    if not ns:
        return {"ops_per_s": 0.0, "op_p50_s": 0.0, "op_tail_s": 0.0}
    return {
        "ops_per_s": len(ns) / (sum(ns) / 1e9),
        "op_p50_s": statistics.median(ns) / 1e9,
        "op_tail_s": tail(ns)[0] / 1e9,
    }


def timed_ns(results: list) -> list:
    return [r.ns for r in results if r.i >= WARMUP_OPS and r.ns is not None]


def scaled_ns(results: list) -> list:
    """Timed op times at the reference speed."""
    return [r.ns * REF_NS / r.ref_ns for r in results if r.i >= WARMUP_OPS and r.ns is not None]


def digest(results: list) -> str:
    import workloads

    text = "\n".join(
        f"{r.i} {r.canon if r.failure is None else 'FAILED'}"
        for r in results
        if r.i < workloads.PRELOAD_OPS
    )
    return hashlib.sha256(text.encode()).hexdigest()


def setup_seconds(name: str, seed: int, size: str) -> tuple:
    """(wall, scaled) cold set-up times from fresh interpreters, the
    scaled ones at the reference speed."""
    wall, scaled = [], []
    before = reference_ns()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), size],
            capture_output=True, text=True, timeout=120, check=True,
        )
        after = reference_ns()
        wall.append(float(proc.stdout.strip().splitlines()[-1]))
        scaled.append(wall[-1] * REF_NS * 2 / (before + after))
        before = after
    return wall, scaled


def git_commit() -> Optional[str]:
    if not (bootstrap.ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(bootstrap.ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:  # no git on this machine
        return None
    return proc.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(bootstrap.SRC.rglob("*.py")):
        h.update(str(path.relative_to(bootstrap.SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in bootstrap.BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One workload in this process: the result line plus the run record."""
    import workloads

    wl = workloads.WORKLOADS[name](seed, size)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "size": size, "params": wl.p}
    metrics = {}
    if not trace:
        setup_wall, setup_scaled = setup_seconds(name, seed, size)
        wl.setup()
        results, traced = run_for(wl, seconds)
        ns = scaled_ns(results)
        units = dict(END_TO_END)
        values = {
            **op_stats(ns),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_scaled),
        }
        metrics = {k: (v, units[k]) for k, v in values.items()}
        record.update(
            timed_ops=len(ns), tail_percentile=TAIL_PERCENTILE,
            tail_beyond=tail(ns)[1] if ns else 0,
            ref_ns=REF_NS, op_ref_seconds=[r.ref_ns / 1e9 for r in results],
            setup_samples_s=setup_wall, setup_scaled_s=setup_scaled,
            wall={**op_stats(timed_ns(results)), "setup_s": statistics.median(setup_wall)},
        )
    else:
        import tracing

        tracer = tracing.Tracer()
        with tracer.installed():
            wl.setup()
        results, traced = run_for(wl, seconds, tracer)
        for a, b in zip(results, traced):
            if b.failure is None and a.canon != b.canon:
                b.failure = "traced output differs from the untraced run of the op"
        plain_ns, traced_ns = sum(scaled_ns(results)), sum(scaled_ns(traced))
        overhead = traced_ns / plain_ns - 1.0 if plain_ns else 0.0
        metrics = tracer.metrics(len(traced), overhead)
        bootstrap.OUT.mkdir(exist_ok=True)
        spans_path = bootstrap.OUT / f"spans-{name}-seed{seed}.json"
        tracer.write(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, bootstrap.ROOT)

    every = results + traced
    failures = [r for r in every if r.failure is not None]
    run_failure = wl.finish()
    record.update(
        machine(),
        ops=len(results),
        op_seconds=[None if r.ns is None else r.ns / 1e9 for r in results],
        attempted=len(every),
        failed=len(failures),
        failed_frac=len(failures) / len(every),
        failures=[f"op {r.i}: {r.failure}" for r in failures[:20]],
        run_check=run_failure,
        digest=digest(results),
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    result = {
        "correct": not failures and run_failure is None,
        "attempted": len(every),
        "failed": len(failures),
        "metrics": record["metrics"],
    }
    bootstrap.OUT.mkdir(exist_ok=True)
    path = bootstrap.OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    record["record_file"] = os.path.relpath(path, bootstrap.ROOT)
    return {"result": result, "record": record}


def report(record: dict) -> None:
    name = record["workload"]
    for metric, m in record["metrics"].items():
        print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
    print(f"{name} failed_frac = {record['failed_frac']:.6g} "
          f"({record['failed']} of {record['attempted']} ops)")
    for metric, value in record.get("wall", {}).items():
        print(f"{name} {metric} unscaled = {value:.6g} {dict(END_TO_END)[metric]}")
    if "tail_percentile" in record:
        print(f"{name} op_tail_s is p{record['tail_percentile']} of "
              f"{record['timed_ops']} timed ops, {record['tail_beyond']} beyond it")
    print(f"{name} digest = {record['digest']}")
    print(f"{name} record = {record['record_file']}")
    for line in record["failures"] + ([record["run_check"]] if record["run_check"] else []):
        print(f"{name} FAILED {line}")


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS is that workload's own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        child = json.loads(lines[-1])
        combined["correct"] &= child["correct"]
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        for metric, m in child["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for a smoke run")
    args = parser.parse_args(argv)
    bootstrap.prepare()
    if args.workload == "all":
        result = run_all(args)
    else:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
        report(run["record"])
        result = run["result"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
