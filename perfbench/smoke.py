#!/usr/bin/env python3
"""Smoke test of the benchmark itself, run from the root of a checkout:

    python3 perfbench/smoke.py

1. The workload and metric names (and units, and directions) in
   BENCHMARK.json are the ones run.py, workloads.py and tracing.py use.
2. Every workload, run for one second with --trace 0 and with --trace 1,
   prints a correct result whose metrics are exactly BENCHMARK.json's.
3. A deliberately perturbed reference value makes the gate of each seeded
   workload count a failure, so failed_frac > 0.
4. In a directory that holds only BENCHMARK.json and the benchmark's
   files, run.py exits non-zero without printing a result.

Takes about three minutes, most of it in the oracle-suite passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import udwitness.cli  # noqa: E402,F401
import workloads  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def check_names(bench: dict):
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == tracing.PER_LAYER


def check_results(bench: dict):
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in bench["workloads"]:
        for trace in (0, 1):
            args = ("--workload", w["name"], "--seed", "1", "--seconds", "1", "--trace", str(trace))
            done = _run(ROOT, *args)
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (w["name"], done.stderr)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted[trace], (w["name"], trace, got)
            print(f"ok  {w['name']} --trace {trace}")


def check_perturbed_reference():
    for name in ("accel-asymptote", "velocity-average", "accel-mode-sum"):
        wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED)
        outputs = run.run_pass(wl, 0).outputs
        expected = wl.expected()
        assert not any(wl.check(outputs, expected)), name
        value, allowed = expected[0]
        expected[0] = (value + 10.0 * allowed, allowed)
        failed = sum(r is not None for r in wl.check(outputs, expected))
        assert failed > 0, name
        print(f"ok  {name}: perturbed reference gives failed_frac {failed / len(outputs):.3g}")


def check_bare_directory():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = _run(bare, "--workload", "accel-asymptote", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout.strip(), done
    print("ok  bare directory exits with", done.returncode)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_names(bench)
    print("ok  names and units match BENCHMARK.json")
    check_bare_directory()
    check_perturbed_reference()
    check_results(bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
