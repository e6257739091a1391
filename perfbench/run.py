#!/usr/bin/env python3
"""udwitness benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload accel-asymptote --seed 1 --seconds 18 --trace 0

Workloads are defined in workloads.py; BENCHMARK.json says why each one
exists. Every run is a fresh process that sets no BLAS thread variables
and records the environment it finds. One pass runs every item of the
workload once, in order, in one thread (as a scan with --jobs 1 does);
passes repeat, on the same inputs, until --seconds have elapsed (a
closed loop: each call starts when the previous one has returned). An
untimed warm-up, a whole pass for most workloads, comes first.

Timing. The host this benchmark was written on (a 2-vCPU virtual machine)
switches between a fast and a slow state about 1.45x apart, each held
for seconds to minutes, and takes a vCPU away (steal) for 20-80 ms about
once a second. Raw wall-clock medians over a 25 s run spread by 0.3-0.45
of their median between runs. OpenBLAS threading is not the cause: one
and two threads, alternated pass by pass in one process, gave the same
times and the same spread, and a fixed pure-Python loop slows about as
much as the workloads do. So:

* Every time is read on running_s(), the thread's CPU time plus its
  run-queue delay: wall time without the steal (and without sleep, which
  the benchmark's threads do not do).
* An item's sample is the mean time of the workload's ``repeat``
  back-to-back calls, so that every sample lasts about 25 ms or more: on
  items of 0.5 ms, 4-6 ms host spikes that the guest's clocks do not
  show would otherwise set the tail.
* A probe, the median time of PROBE_REPEATS runs of a fixed pure-Python
  loop of PROBE_LOOPS iterations, runs before the first item and after
  every item, and each sample is multiplied by PROBE_REF_S over the mean
  of the two probes around it: the seconds the item would take with the
  host in its fast state. A workload whose items outlast the host's
  spells (oracle-suite) is not scaled.

Unscaled times are printed next to the scaled ones; both are kept in the
result file.

--trace 0 prints the end-to-end metrics:
  setup_s       median over SETUP_REPEATS fresh interpreters of the time
                from start to ``import udwitness.cli`` done, which every
                CLI call pays: the child's own running time, scaled by the
                probes run just before and after it
  run_s         median over the passes of the pass time (its scaled items)
  item_ms_p50   median of the scaled item latencies pooled over all passes
  item_ms_tail  the highest percentile of those pooled latencies with at
                least 10 samples beyond it (the percentile is printed);
                the maximum for 10 samples or fewer
  peak_rss_mb   the process's peak resident memory (ru_maxrss), read
                before the reference values are computed
and, next to them, failed_frac = failed / attempted items, which the
result's ``failed`` and ``attempted`` fields carry.

--trace 1 alternates untraced passes and passes with tracing.py's
wrappers installed, at least TRACE_MIN_PASSES of each, and prints the
per-layer metrics (unscaled) per traced pass with the tracing overhead
(median traced minus median untraced run_s, flagged as unresolved with
fewer than TRACE_RESOLVED_PASSES passes on a side).

Each result, with its environment, and the spans of a traced run are
written to perfbench/out/. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
TRACE_MIN_PASSES = 2
#: Passes on each side below which the tracing overhead is flagged as
#: unresolved.
TRACE_RESOLVED_PASSES = 3

#: The probe: PROBE_REPEATS loops of about 0.1 ms each at the reference
#: speed.
PROBE_LOOPS = 3_000
PROBE_REPEATS = 5
#: One probe loop's time at the reference speed, the fast state of the
#: host the benchmark was written on; scaled times are seconds at that
#: speed.
PROBE_REF_S = 1.0e-4
_SCHEDSTAT = os.open("/proc/thread-self/schedstat", os.O_RDONLY)

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("item_ms_p50", "ms"),
    ("item_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )


#: Printed by the child of import_seconds: the seconds its main thread
#: spent running or waiting to run since it was forked.
_CHILD = (
    "import udwitness.cli, time; "
    "print(time.thread_time() + int(open('/proc/thread-self/schedstat').read().split()[1]) * 1e-9)"
)


def import_seconds() -> tuple[float, float]:
    """(raw, scaled) seconds from a fresh interpreter's start to
    ``import udwitness.cli`` done, on the child's own running clock and
    scaled by the probes run just before and after it."""
    before = probe()
    raw = float(_python("-c", _CHILD).stdout)
    return raw, raw * 2.0 * PROBE_REF_S / (before + probe())


def _openblas_runtime(numpy) -> dict | None:
    """Core type and thread count reported by the OpenBLAS numpy loaded."""
    for path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    return {"config": config().decode(), "threads": threads()}
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy
    from udwitness import kernels

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_build": blas.get("openblas configuration"),
        "blas_runtime": _openblas_runtime(numpy),
        **{v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": kernels.active_backend(),
        "git_commit": _git_commit(),
    }


def running_s() -> float:
    """Seconds this thread has spent running or waiting to run: its CPU
    time plus its run-queue delay from /proc/thread-self/schedstat (read
    while running, so current).

    That is its wall time minus the time it slept and the time the host
    took its vCPU away (steal). The benchmark's threads do not sleep: over
    an oracle-suite pass this clock and the wall clock differ by 0.08 s of
    14.5 s, about the host's steal in that time.
    """
    return time.thread_time() + int(os.pread(_SCHEDSTAT, 128, 0).split()[1]) * 1e-9


def probe() -> float:
    """Seconds of a fixed pure-Python loop at the host's speed right now:
    the median of PROBE_REPEATS timings, so that one interrupt does not
    count."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = running_s()
        x = 0
        for i in range(PROBE_LOOPS):
            x += i
        times.append(running_s() - start)
    return statistics.median(times)


@dataclass
class Pass:
    """One pass: per item, its unscaled sample (seconds per call), the
    sample's host-speed scale and the output of its last call."""

    item_s: list[float]
    scale: list[float]
    outputs: list
    traced: bool = False

    @property
    def scaled_s(self) -> list[float]:
        return [t * k for t, k in zip(self.item_s, self.scale)]


def run_pass(workload, index: int, tracer=None) -> Pass:
    """Run the workload's calls once, in order, probing the host between
    items.

    An item's sample is the mean time of ``workload.repeat`` back-to-back
    calls; a probe runs before the first item and after every item, and
    each sample is scaled by PROBE_REF_S over the mean of the two probes
    around it (by 1 when the workload is not ``scaled``).
    """
    from udwitness.errors import NumericalFailure

    done = Pass([], [], [], traced=tracer is not None)
    before = probe()
    for i, call in enumerate(workload.calls):
        if tracer is not None:
            tracer.item = (index, i)
        t = running_s()
        for _ in range(workload.repeat):
            try:
                out = call()
            except NumericalFailure as exc:
                out = exc
                break
        done.item_s.append((running_s() - t) / workload.repeat)
        done.outputs.append(out)
        after = probe()
        done.scale.append(2.0 * PROBE_REF_S / (before + after) if workload.scaled else 1.0)
        before = after
    return done


def measure(workload, seconds: float, tracer=None) -> list[Pass]:
    """Whole passes until ``seconds`` have elapsed, at least one.

    With a tracer, passes alternate untraced and traced, the tracer
    installed only for the traced ones, and there are at least
    TRACE_MIN_PASSES of each.
    """
    passes: list[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds or (
        tracer is not None and len(passes) < 2 * TRACE_MIN_PASSES
    ):
        if tracer is not None and len(passes) % 2:
            tracer.install()
            try:
                passes.append(run_pass(workload, len(passes), tracer))
            finally:
                tracer.uninstall()
        else:
            passes.append(run_pass(workload, len(passes)))
    return passes


def tail(samples) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10
    samples beyond it; the maximum (percentile 100) for 10 or fewer."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def _max_gap_ratio(passes) -> float:
    ratios = [
        c.gap / c.threshold
        for p in passes
        for out in p.outputs
        if isinstance(out, list)
        for c in out
        if c.gap is not None
    ]
    return max(ratios, default=0.0)


def _median_pass_s(passes, scaled: bool = True) -> float:
    return statistics.median(sum(p.scaled_s if scaled else p.item_s) for p in passes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None, help="input seed (default: DEFAULT_SEED)")
    ap.add_argument("--seconds", type=float, default=18.0, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "udwitness" / "cli.py").is_file():
        print(f"perfbench: no package at {SRC / 'udwitness'}; run from a checkout root", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print(f"perfbench: --seconds {args.seconds} must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.trace:
        profiles = [tracing.import_breakdown(_python("-X", "importtime", "-c", "import udwitness.cli").stderr) for _ in range(SETUP_REPEATS)]
    else:
        setup = [import_seconds() for _ in range(SETUP_REPEATS)]

    import udwitness.cli  # noqa: F401  (the run pays the import a CLI call pays)
    import workloads
    from udwitness.errors import NumericalFailure

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    wl = workloads.WORKLOADS[args.workload](seed)
    env = environment()

    try:
        wl.warm_up()
    except NumericalFailure:
        pass  # the measured passes meet it again and count it
    tracer = tracing.Tracer() if args.trace else None
    passes = measure(wl, args.seconds, tracer)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    expected = wl.expected()
    failures = []
    for n, p in enumerate(passes):
        for label, reason in zip(wl.labels, wl.check(p.outputs, expected)):
            if reason is not None:
                failures.append(f"pass {n}, {label}: {reason}")
    attempted = sum(len(p.outputs) for p in passes)

    lines = [
        f"perfbench workload={wl.name} seed={seed} ({wl.seed_note}; default seed "
        f"{workloads.DEFAULT_SEED}, held-out seed {workloads.HELD_OUT_SEED}) trace={args.trace}",
        f"env {json.dumps(env)}",
        f"items per pass: {len(wl.calls)} ({wl.labels[0]} ... {wl.labels[-1]})",
    ]
    detail = {
        "probe_ref_s": PROBE_REF_S,
        "pass_traced": [p.traced for p in passes],
        "item_s": [p.item_s for p in passes],
        "item_scale": [p.scale for p in passes],
    }
    if args.trace:
        untraced = [p for p in passes if not p.traced]
        traced = [p for p in passes if p.traced]
        run_u, run_t = _median_pass_s(untraced), _median_pass_s(traced)
        values = {
            "cli.import_s": statistics.median(t for t, _ in profiles),
            "cli.import_scipy_s": statistics.median(s for _, s in profiles),
            **tracing.layer_metrics(tracer.spans, len(traced)),
            "oracle.max_gap_ratio": _max_gap_ratio(passes),
            "trace.overhead_s": run_t - run_u,
            "trace.overhead_frac": (run_t - run_u) / run_u,
        }
        units = [(name, unit) for name, unit, _ in tracing.PER_LAYER]
        lines.append(
            f"passes: {len(untraced)} untraced and {len(traced)} traced, alternating; "
            f"per-layer figures are raw times and counts per traced pass"
        )
        resolved = min(len(traced), len(untraced)) >= TRACE_RESOLVED_PASSES
        lines.append(
            f"tracing overhead: {run_t - run_u:+.6g} s per pass ({100 * (run_t - run_u) / run_u:+.3g}% "
            f"of untraced run_s {run_u:.6g} s), median of {len(traced)} traced minus median of "
            f"{len(untraced)} untraced pass times"
            + ("" if resolved else f"; UNRESOLVED: fewer than {TRACE_RESOLVED_PASSES} passes on a side")
        )
    else:
        items = [t for p in passes for t in p.scaled_s]
        raw_items = [t for p in passes for t in p.item_s]
        tail_s, tail_pct = tail(items)
        setup_raw, setup_scaled = zip(*setup)
        values = {
            "setup_s": statistics.median(setup_scaled),
            "run_s": _median_pass_s(passes),
            "item_ms_p50": statistics.median(items) * 1e3,
            "item_ms_tail": tail_s * 1e3,
            "peak_rss_mb": peak_mb,
        }
        units = END_TO_END
        detail.update(item_ms_tail_percentile=tail_pct, setup_s=setup)
        scales = [k for p in passes for k in p.scale]
        lines.append(
            f"passes: {len(passes)}; {len(items)} item latencies pooled; item_ms_tail is "
            f"p{tail_pct:.4g}; setup_s is the median of {SETUP_REPEATS} fresh interpreters"
        )
        lines.append(
            f"raw (unscaled): setup_s {statistics.median(setup_raw):.6g}, run_s "
            f"{_median_pass_s(passes, scaled=False):.6g}, item_ms_p50 "
            f"{statistics.median(raw_items) * 1e3:.6g}, item_ms_tail {tail(raw_items)[0] * 1e3:.6g}; "
            f"host speed (PROBE_REF_S / probe) median {statistics.median(scales):.4g}, "
            f"range {min(scales):.4g}-{max(scales):.4g}"
        )
    for name, unit in units:
        lines.append(f"{name:32s} {values[name]:14.6g} {unit}")
    lines.append(
        f"{'failed_frac':32s} {len(failures) / attempted:14.6g} ratio "
        f"({len(failures)} of {attempted} items failed)"
    )
    print("\n".join(lines))
    for reason in failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{seed}-trace{args.trace}"
    header = {"workload": wl.name, "seed": seed, "trace": args.trace, "env": env}
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({**header, "metrics": metrics, **detail, "failures": failures}, fh, indent=1)
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.json", header)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
