"""Smoke test of the benchmark: every workload at minimal length.

    python3 perfbench/smoke.py

For each workload, one untraced and one traced run of one second with a
non-default seed must exit 0, pass every check and print, in its last line,
exactly the metrics that BENCHMARK.json names. A copy of the benchmark
without the library sources must exit non-zero without printing a result.
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 20240517
TIMEOUT_S = 180


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}\n{proc.stdout}{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{label}: correct {result['correct']}, failed {result['failed']} "
                      f"of {result['attempted']}")
    expected = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"]: m["unit"] for m in expected}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != names:
        errors.append(f"{label}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(names) - set(printed))}, "
                      f"extra {sorted(set(printed) - set(names))}, "
                      f"units {[k for k in names if printed.get(k, names[k]) != names[k]]}")
    for key in ("env ", "digest "):
        if not any(line.startswith(key) for line in lines):
            errors.append(f"{label}: no '{key.strip()}' line")
    if trace and not any(line.startswith("tracing overhead") for line in lines):
        errors.append(f"{label}: no tracing overhead line")
    return errors


def check_without_sources() -> list[str]:
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=results))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = run(bare, "fit", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit code {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_without_sources()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            errors += check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'FAILED' if errors else 'ok'}", flush=True)
            if errors:
                break
        if errors:
            break
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
