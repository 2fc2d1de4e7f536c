"""Benchmark runner: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload tau-exact --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; braidgate is imported from its
``src`` directory.  The loop is closed with one client: the next item starts
only after the previous one ends and its outputs have been checked.  Only
the program's calls are timed; drawing inputs and checking outputs happen
between items, off the clock, and the loop stops at the first round
boundary after ``--seconds`` of measured item time.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` every public call is wrapped in a span and the line
carries the per-layer metrics instead.  Both write their result, and the
traced run its spans, under ``bench/out``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported here or in
# any child: two threads on a shared two-core machine made the dense
# workload's throughput spread 9% between runs instead of 2.6%.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# workload name -> its class in workloads.py
WORKLOADS = {
    "tau-exact": "TauExact",
    "statesum": "StateSum",
    "dense-protocol": "DenseProtocol",
    "cli": "Cli",
}
SETUP_PROBES = 5

PROBE = "import sys; sys.path[:0] = {paths!r}; import workloads; workloads.{cls}.warm()"


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_seconds(cls: str, env: dict) -> float:
    """Median wall time of fresh interpreters that import braidgate and warm
    the layers the workload uses (input generation excluded)."""
    code = PROBE.format(paths=[str(SRC), str(BENCH)], cls=cls)
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return statistics.median(times)


def percentile(values, q: float) -> float:
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "braidgate" / "__init__.py").is_file():
        fail(f"no braidgate sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))

    import numpy as np

    import braidgate

    if Path(braidgate.__file__).resolve().parent != SRC / "braidgate":
        fail(f"imported braidgate from {braidgate.__file__}, not from {SRC}")

    import tracing
    import workloads as wl

    OUT.mkdir(exist_ok=True)
    cls = WORKLOADS[args.workload]
    workload = getattr(wl, cls)()

    tracer = tracing.Tracer() if args.trace else None
    restore = tracing.instrument(tracer) if tracer else (lambda: None)
    rng = np.random.default_rng(args.seed)
    workload.warm()
    # one item from a separate stream, so the measured inputs depend on the
    # seed alone; it fills caches and is neither timed nor counted
    warm_rng = np.random.default_rng([args.seed, 1])
    for inp in workload.round(warm_rng)[:1]:
        workload.run(inp, None)

    times, problems = [], []
    attempted = failed = 0
    measured = 0.0
    try:
        while measured < args.seconds:
            for inp in workload.round(rng):
                attempted += workload.ops_per_item
                index = len(times)
                try:
                    if tracer:
                        with tracer.open_item(index):
                            t0 = time.perf_counter()
                            out = workload.run(inp, tracer)
                            t1 = time.perf_counter()
                    else:
                        t0 = time.perf_counter()
                        out = workload.run(inp, None)
                        t1 = time.perf_counter()
                except Exception as exc:  # count it and keep the loop going
                    failed += workload.ops_per_item
                    print(f"bench: item {index} failed: {exc!r}", file=sys.stderr)
                    continue
                times.append(t1 - t0)
                measured += t1 - t0
                problems += [f"item {index}: {p}" for p in workload.check(inp, out)]
    finally:
        restore()

    if args.workload == "cli":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup = setup_seconds(cls, wl.child_env(SRC))

    for p in problems[:20]:
        print(f"bench: check failed: {p}", file=sys.stderr)
    if not times:
        fail("no item completed")

    ms = [1e3 * t for t in times]
    if tracer:
        values = tracing.layer_metrics(tracer.spans)
        units = tracing.per_layer_units()
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        with trace_file.open("w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")
    else:
        values = {
            "setup_s": setup,
            "items_per_s": len(times) / measured,
            "item_p50_ms": statistics.median(ms),
            "item_p90_ms": percentile(ms, 0.9),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        units = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms",
                 "item_p90_ms": "ms", "peak_rss_mb": "MB"}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"items": len(times), **result}, indent=1) + "\n"
    )
    print(f"{args.workload}: {len(times)} items in {measured:.2f} s measured, "
          f"{len(problems)} check failures")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
