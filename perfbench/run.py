"""Benchmark entry point for peaknetfp.

    python3 perfbench/run.py --workload identify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a checkout: the program is imported from ``src/`` of the
checkout this file sits in, never from an installed copy, and the command
fails without printing a result when that source is missing.

``--trace 0`` sets up repeatedly before the measured run and again after
it (``setup_s`` is the median of all set-ups), runs the workload once
untraced and reports the end-to-end metrics. ``--trace 1`` runs
it untraced and then traced, reports the per-layer metrics and the tracing
overhead, and checks that both runs produced the same output digests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric under its full name, with its unit and sample count, the
output digests and the environment. The exit code is 1 when an output check
fails and 2 on a usage or set-up error.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# set-ups per window, and the least time a window lasts; one window runs
# before the measured run and one after it, so that setup_s samples the
# machine at both ends of the run, like the other metrics do
SETUP_REPEATS = 2
SETUP_WINDOW_S = 4.0
END_TO_END = {  # BENCHMARK.json name -> unit
    "p90_ms": "ms", "alt_p90_ms": "ms", "write_per_s": "1/s",
    "quality": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
}


def _import_program():
    if not (SRC / "peaknetfp" / "__init__.py").is_file():
        print(f"perfbench: no peaknetfp source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import peaknetfp

    if Path(peaknetfp.__file__).resolve().parent != SRC / "peaknetfp":
        print(f"perfbench: imported {peaknetfp.__file__}, not the checkout's", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import ctypes
    import glob

    import numpy
    import scipy

    threads = None
    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*.so*"))
    for lib in libs:
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return {
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(outcome, setup_s: float, rss_mb: float) -> dict[str, float]:
    values = {m.key: m.value for m in outcome.metrics.values() if m.key}
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = rss_mb
    return values


def _set_up(wl, seed: int, sizes: dict, times: list[float], repeats: int, window_s: float):
    """Set up at least ``repeats`` times and for at least ``window_s``
    seconds, appending each set-up time; returns the last state."""
    state, start, n = None, perf_counter(), 0
    while n < repeats or perf_counter() - start < window_s:
        state = None  # let the previous state go before building the next
        t = perf_counter()
        state = wl.setup(seed, sizes)
        times.append(perf_counter() - t)
        n += 1
    return state


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    from workloads import UNTRACED, WORKLOADS

    wl = WORKLOADS[name]
    sizes = wl.sizes(seconds)
    setup_times = []
    window = (1, 0.0) if trace else (SETUP_REPEATS, SETUP_WINDOW_S)
    state = _set_up(wl, seed, sizes, setup_times, *window)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        outcome = wl.run(state, UNTRACED, Path(tmp))
    del state
    if not trace:
        _set_up(wl, seed, sizes, setup_times, *window)
    plain = _end_to_end(outcome, statistics.median(setup_times), _peak_rss_mb())
    correct = outcome.failed == 0 and set(plain) == set(END_TO_END)
    attempted, failed = outcome.attempted, outcome.failed

    print(f"perfbench {name}: seed={seed} seconds={seconds} trace={int(trace)} sizes={sizes}")
    for full, m in outcome.metrics.items():
        alias = f"  (reported as {m.key})" if m.key else ""
        print(f"  {full:<26} {m.value:>14.4f} {m.unit:<6} n={m.samples}{alias}")
    print(f"  {'setup_s':<26} {plain['setup_s']:>14.4f} {'s':<6} n={len(setup_times)}")
    print(f"  {'peak_rss_mb':<26} {plain['peak_rss_mb']:>14.4f} {'MB':<6} n=1")

    if trace:
        from layers import install, per_layer_metrics
        from tracer import Tracer

        with Tracer() as tracer:
            install(tracer)
            t = perf_counter()
            state = wl.setup(seed, sizes)
            traced_setup = perf_counter() - t
            with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
                traced = wl.run(state, tracer, Path(tmp))
        del state
        traced_e2e = _end_to_end(traced, traced_setup, _peak_rss_mb())
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer_metrics(tracer).items()}
        for key, unit in END_TO_END.items():
            if key in traced_e2e and key in plain:
                metrics[f"trace_overhead.{key}"] = {
                    "value": traced_e2e[key] - plain[key], "unit": unit}
        same = traced.digests == outcome.digests
        correct = correct and traced.failed == 0 and same
        attempted += traced.attempted
        failed += traced.failed
        print(f"  traced run: {len(tracer.names)} spans, {len(tracer.op_kinds)} operations, "
              f"digests {'equal' if same else 'DIFFER'} to the untraced run's")
        for key, m in metrics.items():
            print(f"  {key:<36} {m['value']:>14.4f} {m['unit']}")
    else:
        metrics = {k: {"value": plain[k], "unit": u} for k, u in END_TO_END.items() if k in plain}

    print(f"  attempted={attempted} failed={failed}")
    for err in (outcome.errors + (traced.errors if trace else []))[:5]:
        print("  failure: " + err.strip().replace("\n", "\n    "))
    print("  digests " + json.dumps(outcome.digests, sort_keys=True))
    print("  environment " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    worst = 0
    summary = {}
    for name in ("identify", "train", "search"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(lines[-1])
            summary[name] = {k: result[k] for k in ("correct", "attempted", "failed")}
        except (json.JSONDecodeError, KeyError):
            summary[name] = {"correct": False, "exit": proc.returncode}
    print(json.dumps(summary))
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("identify", "train", "search", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    _import_program()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
