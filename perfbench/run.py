"""mvbox3d benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload {fit,eval,perceive,assign} \
        --seed N --seconds S --trace {0,1}

Run from a source checkout: the library is imported from ``src/`` next to
this directory, and the run fails (exit code 2, no result) without it. Each
run has one caller and no added threads; BLAS threads are capped at the
number of usable cores. The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics for ``--seconds``; ``setup_s`` is
the median import time (this process and two fresh interpreters) plus the
median of three workload set-ups (input generation and warm-up).

The host's speed moves by up to 1.7x over minutes (other tenants share the
cores), which no run length averages out, so ``--trace 0`` reports every
end-to-end time at the reference speed of ``refclock.py``: the reference loop
runs right before the first item and right after every item, and an item's
time is its wall-clock time x ``REF_MS`` / the mean of the two loop times
around it. Set-up times are scaled by the median loop time of the set-up
phase. The wall-clock figures and the loop times are printed too;
``peak_rss_mb`` includes the loop's 9 MB of arrays. ``--trace 1``
runs every item twice, untraced and then traced, and reports per-layer
metrics per item, the tracing overhead and its base. Spans
are written to ``perfbench/results/``. A failed item or whole-run check makes
``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

SETUP_REPEATS = 3
IMPORT_REPEATS = 3  # this process's own imports plus two fresh interpreters
# Times, in a fresh interpreter, the imports that run.py makes before set-up.
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:3]; "
                "import numpy, scipy, mvbox3d, refclock, tracer, workloads; "
                "print(time.perf_counter() - t)")
DIGEST_ITEMS = 8
UNITS = {"items_per_s": "1/s", "item_p50_ms": "ms", "item_p90_ms": "ms", "setup_s": "s"}
REF_START_SAMPLES = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def cap_blas_threads() -> int:
    """Cap every BLAS/OpenMP pool at the usable core count (before numpy loads)."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cores):
            os.environ[var] = str(cores)
    return min(int(os.environ[var]) for var in BLAS_VARS)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def import_seconds() -> float:
    """Import time of a fresh interpreter (started with the BLAS caps)."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(HERE), str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def _run(wl, inp):
    """Time one item; returns (seconds, output, traceback or None)."""
    t0 = time.perf_counter()
    try:
        out, error = wl.run(inp), None
    except Exception:  # an item that raises counts as failed; the loop goes on
        out, error = None, traceback.format_exc()
    return time.perf_counter() - t0, out, error


def _check(wl, i: int, inp, out, error):
    from workloads import ItemResult

    if error is None:
        try:
            result = wl.check(inp, out)
        except Exception:  # malformed output: the check itself could not run
            result = ItemResult(False, note=traceback.format_exc())
    else:
        result = ItemResult(False, note=error)
    if not result.ok:
        print(f"item {i} failed: {result.note}", file=sys.stderr)
    return result


def measure(wl, seconds: float, tracer=None, ref=None):
    """Closed loop over items 0, 1, ... for ``seconds`` (at least one item).

    With a tracer, each item runs twice, untraced and then traced, so both
    cover the same items under the same machine conditions; checks run
    untraced. With a RefClock (untraced runs only), the reference loop runs
    right before the first item and right after every item. Returns
    ({phase: (item seconds, ItemResults)} for "base" and, traced, "traced";
    per item, the factor to time at the reference speed, or [] without a
    RefClock).
    """
    scales = []
    before = ref.sample() if ref is not None else None
    phases = {"base": ([], [])}
    if tracer is not None:
        phases["traced"] = ([], [])
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        inp = wl.make_input(i)
        for phase, (times, results) in phases.items():
            if phase == "traced":
                tracer.item = i
                tracer.install()
                try:
                    elapsed, out, error = _run(wl, inp)
                finally:
                    tracer.uninstall()
            else:
                elapsed, out, error = _run(wl, inp)
                if ref is not None:
                    after = ref.sample()
                    scales.append(ref.scale((before + after) / 2.0))
                    before = after
            times.append(elapsed)
            results.append(_check(wl, i, inp, out, error))
        i += 1
    return phases, scales


def digest(results) -> str:
    h = hashlib.sha256()
    for r in results[:DIGEST_ITEMS]:
        h.update(",".join(f"{round(float(v), 9) + 0.0:.9f}" for v in r.values).encode())
        h.update(b";")
    return h.hexdigest()[:16]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("fit", "eval", "perceive", "assign"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mvbox3d" / "__init__.py").is_file():
        print(f"perfbench: no mvbox3d sources at {SRC}", file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy
    import scipy

    import mvbox3d
    from refclock import REF_MS, RefClock
    from tracer import Tracer
    from workloads import WORKLOADS, quality_mean
    import_s = time.perf_counter() - t0
    if Path(mvbox3d.__file__).resolve().parent != SRC / "mvbox3d":
        print(f"perfbench: imported mvbox3d from {mvbox3d.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    results_dir = HERE / "results"
    workdir = results_dir / f"work-{args.workload}-{os.getpid()}"
    ref = None if args.trace else RefClock()
    try:
        if ref is not None:
            for _ in range(REF_START_SAMPLES):
                ref.sample()
        wl = WORKLOADS[args.workload](args.seed, str(workdir))
        setups = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t)
            if ref is not None:
                ref.sample()
        if not args.trace:
            imports = [import_s]
            for _ in range(IMPORT_REPEATS - 1):
                imports.append(import_seconds())
                ref.sample()
            setup_wall = statistics.median(imports) + statistics.median(setups)
            setup_ref_s = statistics.median(ref.samples)

        tracer = Tracer() if args.trace else None
        phases, scales = measure(wl, args.seconds, tracer, ref)
        base_times, results = phases["base"]
        times, traced = phases.get("traced", phases["base"])
        all_results = results + (traced if args.trace else [])
        checks = wl.finish(results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(times)
    failed = sum(not r.ok for r in all_results)
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        base_ips = len(base_times) / sum(base_times)
        metrics.update(tracer.per_item(n))
        metrics["failed_ratio"] = (failed / len(all_results), "ratio")
        metrics["trace.items_per_s_ratio"] = (n / sum(times) / base_ips, "ratio")
        metrics["trace.base_items_per_s"] = (base_ips, "1/s")
        results_dir.mkdir(exist_ok=True)
        span_file = results_dir / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.dump(span_file)
    else:
        def timing(ms, setup):
            return {"items_per_s": 1000.0 * n / sum(ms), "item_p50_ms": statistics.median(ms),
                    "item_p90_ms": statistics.quantiles(ms, n=10)[-1] if n > 1 else ms[0],
                    "setup_s": setup}

        wall = timing([1000.0 * t for t in times], setup_wall)
        scaled = timing([1000.0 * t * f for t, f in zip(times, scales)],
                        setup_wall * ref.scale(setup_ref_s))
        metrics.update({k: (v, UNITS[k]) for k, v in scaled.items()})
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MB")
        metrics["quality_mean"] = (quality_mean(results), "ratio")

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads_cap": blas_threads,
        "items": n, "items_attempted": len(all_results),
    }
    if ref is not None:
        env.update(ref_ms=REF_MS, ref_loop_ms_median=ref.median_ms(),
                   ref_samples=len(ref.samples))
    print(f"perfbench {args.workload}: seed {args.seed}, {n} items"
          + (", each run untraced and then traced" if args.trace else ""))
    print("env " + json.dumps(env, sort_keys=True))
    if n < 100 and not args.trace:
        print(f"note: {n} items; item_p90_ms has fewer than 10 samples above it")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    if ref is not None:
        print(f"times above are at the reference speed, at which the reference loop "
              f"takes {REF_MS:g} ms; here it took {ref.median_ms():.3f} ms (median of "
              f"{len(ref.samples)}). Wall clock: "
              + ", ".join(f"{k} = {v:.6g}" for k, v in wall.items()))
    if args.trace:
        print(f"tracing overhead: traced items_per_s / untraced items_per_s = "
              f"{metrics['trace.items_per_s_ratio'][0]:.4f} over {n} identical items "
              f"(base {metrics['trace.base_items_per_s'][0]:.4f} items/s untraced)")
        if tracer.missing:
            print("not found, reported as 0: " + ", ".join(tracer.missing))
        print(f"spans: {len(tracer.spans)} written to {span_file.relative_to(ROOT)}")
    print(f"failed: {failed}/{len(all_results)} items (failed_ratio "
          f"{failed / len(all_results):.4f})")
    for check in checks:
        print(f"check {check.name}: {'ok' if check.ok else 'FAILED'} ({check.detail})")
    print(f"digest {args.workload}: {digest(results)} over the first "
          f"{min(n, DIGEST_ITEMS)} items (results rounded to 1e-9)")
    correct = failed == 0 and all(c.ok for c in checks)
    print(json.dumps({
        "correct": correct,
        "attempted": len(all_results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
