"""The benchmark in perfbench/ still runs against the library.

The tracer reads oracle functions by name (``oracle.expm`` among them),
and binds the ``lo`` argument of ``kernels.panel_integrals`` and the
``tol`` of ``response.chi_series`` by name, so removing or renaming one
breaks the traced benchmark run. The velocity-average workload's gate
allows 2e-8*(1 + avg) per point; its outputs are held here to 1e-12 of
the reference. Every accel-asymptote item and every accel-mode-sum sum
passes its gate at the default and the held-out seed, and the accel-mode-sum
inputs are planned from at most 60% of the K61 starting panels that
equal steps in t took. These tests import the benchmark's files as they
are and change none of them.
"""

import importlib
import sys
from pathlib import Path

import pytest

from udwitness import kernels, oracle, response

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(monkeypatch):
    """The benchmark's tracing and workloads modules, freshly imported."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracing", "workloads", "reference"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("tracing"), importlib.import_module("workloads")


def test_traced_oracle_suite_pass(monkeypatch):
    tracing, workloads = _perfbench(monkeypatch)
    names = ("expm", "evolve_trotter", "end_to_end_check")
    originals = {name: getattr(oracle, name) for name in names}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, fn in originals.items():
            wrapped = getattr(oracle, name)
            assert wrapped is not fn and wrapped.__wrapped__ is fn, name
        work = workloads.oracle_suite(1)
        outputs = [call() for call in work.calls]
    finally:
        tracer.uninstall()
    assert {name: getattr(oracle, name) for name in names} == originals
    assert work.check(outputs, work.expected()) == [None]
    (checks,) = outputs
    assert len(checks) == 11 and all(c.passed for c in checks)
    traced = {span[0] for span in tracer.spans}
    assert {"oracle.run_oracle_suite", "oracle.evolve_trotter", "oracle.end_to_end_check"} <= traced


@pytest.mark.parametrize("workload,entry", [
    ("accel-asymptote", "response.chi_series"),
    ("accel-mode-sum", "response.chi_modes"),
])
def test_traced_quadrature_item(monkeypatch, workload, entry):
    # The first item of each quadrature workload, traced: the output is
    # the untraced one, and the kernel and response spans are recorded.
    tracing, workloads = _perfbench(monkeypatch)
    (call, *_) = workloads.WORKLOADS[workload](1).calls
    untraced = call()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = call()
    finally:
        tracer.uninstall()
    assert traced == untraced
    spans = {span[0]: span for span in tracer.spans}
    assert entry in spans and spans["kernels.panel_integrals"][5] > 0
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["kernels.panels"] > 0 and metrics["response.calls"] > 0


@pytest.mark.parametrize("seed", [1, 2])
def test_velocity_average_gate_and_reference(monkeypatch, seed):
    # Every item of the velocity-average workload passes the benchmark's
    # own check, and lies far inside it: within 1e-12*(1 + avg) of the
    # reference average, where the check allows 2e-8*(1 + avg).
    _, workloads = _perfbench(monkeypatch)
    work = workloads.velocity_average(seed)
    outputs = [call() for call in work.calls]
    expected = work.expected()
    assert work.check(outputs, expected) == [None] * len(work.calls)
    gaps = [abs(out - avg) / (1.0 + avg) for out, (avg, _) in zip(outputs, expected)]
    assert max(gaps) <= 1e-12


@pytest.mark.parametrize("seed", [1, 2])
def test_accel_asymptote_gate(monkeypatch, seed):
    # All 40 items of the accel-asymptote workload pass the benchmark's own
    # check against its independent reference.
    _, workloads = _perfbench(monkeypatch)
    work = workloads.accel_asymptote(seed)
    outputs = [call() for call in work.calls]
    assert len(outputs) == 40
    assert work.check(outputs, work.expected()) == [None] * len(work.calls)


@pytest.mark.parametrize("seed", [1, 2])
def test_accel_mode_sum_gate(monkeypatch, seed):
    # All 16 mode sums of the accel-mode-sum workload, each over modes
    # 1..256 in one planned block, pass the benchmark's own check against
    # its independent reference.
    _, workloads = _perfbench(monkeypatch)
    work = workloads.accel_mode_sum(seed)
    outputs = [call() for call in work.calls]
    assert len(outputs) == 16
    assert work.check(outputs, work.expected()) == [None] * len(work.calls)


@pytest.mark.parametrize("seed,uniform", [(1, 15_626), (2, 19_929)])
def test_accel_mode_sum_starts_from_fewer_k61_panels(monkeypatch, seed, uniform):
    # The 16 sums of the accel-mode-sum workload, planned but not
    # integrated: their starting K61 panels add up to at most 60% of the
    # ``uniform`` count that equal steps in t of twelve half cycles at each
    # mode's largest rate took. Planning makes no kernel call.
    _, workloads = _perfbench(monkeypatch)
    counts = []

    def plan_only(plan):
        counts.append(plan[4].sum())
        return []

    def no_kernel(*args):
        raise AssertionError("kernel called")

    monkeypatch.setattr(response, "_mode_blocks", plan_only)
    monkeypatch.setattr(kernels, "panel_integrals", no_kernel)
    monkeypatch.setattr(kernels, "filon_integrals", no_kernel)
    for call in workloads.accel_mode_sum(seed).calls:
        call()
    assert len(counts) == 16
    assert sum(counts) <= 0.6 * uniform
