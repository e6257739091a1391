"""The benchmark in perfbench/ still runs against the library.

The tracer reads oracle functions by name (``oracle.expm`` among them), so
removing or renaming one breaks the traced benchmark run. These tests
import the benchmark's files as they are and change none of them.
"""

import importlib
import sys
from pathlib import Path

from udwitness import oracle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_oracle_suite_pass(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracing", "workloads", "reference"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
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
