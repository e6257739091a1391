"""Per-layer tracing from the benchmark's own files.

``Tracer.install`` wraps every public function of the witness, response,
kernels and oracle modules, plus the oracle's own ``expm`` binding, and
rebinds the wrapper at every udwitness module attribute that held the
function. That is the attribute each caller looks it up by: response
calls ``kernels.panel_integrals`` through the module, witness imported
``chi_series`` by name, oracle calls ``expm``, ``response.chi`` and
``response.chi_mode_sum`` through its own globals. trajectory and field do
O(1) work per call and are not wrapped; their time counts as their
caller's self time.

Each call records a span [name, start, end, parent, item, extra] in
memory: ``parent`` is the index of the enclosing span (-1 at the top),
``item`` the (pass, item) the benchmark was running, and ``extra`` a
count or ratio observed at that boundary (panels for a kernel call,
error estimate / tolerance for a quadrature result).
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

#: Nodes evaluated per panel by the kernel: 15-point Gauss-Legendre plus
#: the embedded 7-point rule used for its error estimate.
KERNEL_NODES = 22

LAYERS = ("witness", "response", "kernels", "oracle")

SPAN_FIELDS = ["name", "start", "end", "parent", "item", "extra"]

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("cli.import_s", "s", "lower"),
    ("cli.import_scipy_s", "s", "lower"),
    ("witness.calls", "count", "lower"),
    ("witness.self_s", "s", "lower"),
    ("response.calls", "count", "lower"),
    ("response.self_s", "s", "lower"),
    ("response.quad_rounds", "count", "lower"),
    ("response.panels_final", "count", "lower"),
    ("response.useful_panel_frac", "ratio", "higher"),
    ("response.err_budget_used_p50", "ratio", "higher"),
    ("response.err_budget_used_max", "ratio", "higher"),
    ("kernels.calls", "count", "lower"),
    ("kernels.panels", "count", "lower"),
    ("kernels.panels_per_call", "count", "higher"),
    ("kernels.evals", "count", "lower"),
    ("kernels.busy_s", "s", "lower"),
    ("kernels.evals_per_s", "1/s", "higher"),
    ("oracle.self_s", "s", "lower"),
    ("oracle.e2e_calls", "count", "lower"),
    ("oracle.e2e_s", "s", "lower"),
    ("oracle.trotter_s", "s", "lower"),
    ("oracle.displacement_calls", "count", "lower"),
    ("oracle.displacement_s", "s", "lower"),
    ("oracle.expm_calls", "count", "lower"),
    ("oracle.expm_s", "s", "lower"),
    ("oracle.max_gap_ratio", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _bound_arg(sig, args, kwargs, name):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _observer(name, fn):
    """What to record at a boundary besides its timing, or None."""
    sig = inspect.signature(fn)
    if name.startswith("kernels.panel_integrals"):
        return lambda args, kwargs, result: len(_bound_arg(sig, args, kwargs, "lo"))
    if name == "response.chi_series":

        def budget(args, kwargs, result):
            vals, errs, branch = result
            if branch.value != "quadrature":
                return None
            return float(max(errs)) / _bound_arg(sig, args, kwargs, "tol")

        return budget
    if name == "response.chi_quadrature":
        return lambda args, kwargs, result: result.err_estimate / _bound_arg(
            sig, args, kwargs, "tol"
        )
    return None


class Tracer:
    """Spans of every wrapped call while installed; ``item`` is set by the
    benchmark before each item it runs."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = _observer(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.item, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                span[5] = observe(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "udwitness"]
        targets = []
        for layer in LAYERS:
            mod = sys.modules[f"udwitness.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    targets.append((f"{layer}.{obj.__name__}", obj))
        targets.append(("oracle.expm", sys.modules["udwitness.oracle"].expm))
        for name, fn in targets:
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        self._undo.append((mod, attr, obj))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    def write(self, path, header: dict):
        with open(path, "w") as fh:
            json.dump({**header, "span_fields": SPAN_FIELDS, "spans": self.spans}, fh)


def layer_metrics(spans, passes: int) -> dict:
    """Per-pass counts and times per layer from the spans of ``passes``
    traced passes. Self time is a span's duration minus its children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    dur: dict[str, float] = {}
    count: dict[str, int] = {}
    kernel_groups: dict[int, list[int]] = {}
    budgets = []
    for i, (name, start, end, parent, _, extra) in enumerate(spans):
        layer = name.split(".")[0]
        calls[layer] += 1
        self_s[layer] += end - start - child[i]
        dur[name] = dur.get(name, 0.0) + end - start
        count[name] = count.get(name, 0) + 1
        if layer == "kernels" and extra is not None:
            kernel_groups.setdefault(parent, []).append(extra)
        elif layer == "response" and extra is not None:
            budgets.append(extra)

    # One adaptive quadrature issues its kernel calls from one response
    # call: the first evaluates the initial panels, each later one a
    # refinement round evaluating both halves of every split parent, which
    # adds one net panel per parent.
    evaluated = sum(sum(g) for g in kernel_groups.values())
    final = sum(g[0] + sum(g[1:]) // 2 for g in kernel_groups.values())
    rounds = sum(len(g) - 1 for g in kernel_groups.values())
    k_calls = sum(len(g) for g in kernel_groups.values())
    k_busy = sum(v for k, v in dur.items() if k.startswith("kernels.panel_integrals"))
    evals = evaluated * KERNEL_NODES

    def per_pass(x):
        return x / passes

    return {
        "witness.calls": per_pass(calls["witness"]),
        "witness.self_s": per_pass(self_s["witness"]),
        "response.calls": per_pass(calls["response"]),
        "response.self_s": per_pass(self_s["response"]),
        "response.quad_rounds": per_pass(rounds),
        "response.panels_final": per_pass(final),
        "response.useful_panel_frac": final / evaluated if evaluated else 0.0,
        "response.err_budget_used_p50": statistics.median(budgets) if budgets else 0.0,
        "response.err_budget_used_max": max(budgets) if budgets else 0.0,
        "kernels.calls": per_pass(k_calls),
        "kernels.panels": per_pass(evaluated),
        "kernels.panels_per_call": evaluated / k_calls if k_calls else 0.0,
        "kernels.evals": per_pass(evals),
        "kernels.busy_s": per_pass(k_busy),
        "kernels.evals_per_s": evals / k_busy if k_busy else 0.0,
        "oracle.self_s": per_pass(self_s["oracle"]),
        "oracle.e2e_calls": per_pass(count.get("oracle.end_to_end_check", 0)),
        "oracle.e2e_s": per_pass(dur.get("oracle.end_to_end_check", 0.0)),
        "oracle.trotter_s": per_pass(dur.get("oracle.evolve_trotter", 0.0)),
        "oracle.displacement_calls": per_pass(count.get("oracle.displacement_matrix", 0)),
        "oracle.displacement_s": per_pass(dur.get("oracle.displacement_matrix", 0.0)),
        "oracle.expm_calls": per_pass(count.get("oracle.expm", 0)),
        "oracle.expm_s": per_pass(dur.get("oracle.expm", 0.0)),
    }


def import_breakdown(stderr: str) -> tuple[float, float]:
    """(udwitness import, scipy's share of it) in seconds from the output
    of ``python -X importtime -c "import udwitness.cli"``.

    Entries are printed when their import finishes, children first, with
    the name after one space plus two per nesting level; scipy's share is the cumulative time of
    every scipy entry that has no scipy ancestor.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, raw = line[len("import time:") :].split("|")
        name = raw.rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    total = scipy = 0.0
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        top = name.split(".")[0]
        if depth == 0 and top == "udwitness":
            total += cumulative
        if top == "scipy" and all(a[1].split(".")[0] != "scipy" for a in ancestors):
            scipy += cumulative
        ancestors.append((depth, name))
    return total, scipy
