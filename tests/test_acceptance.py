"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see
them all) and enforces both the numerical statement and its runtime
budget. Frozen reference numbers come from 30-digit arithmetic.
"""

import math
import time

import numpy as np

from udwitness.cli import main
from udwitness.field import CavityConfig, ModeSpec
from udwitness.oracle import run_oracle_suite
from udwitness.response import (
    DELTA_RES,
    ChiBranch,
    CouplingSpec,
    chi,
    critical_velocity,
)
from udwitness.trajectory import TrajectorySpec, wall_time
from udwitness.witness import (
    StateSpec,
    asymptote_value,
    witness_series,
    witness_series_from_omega,
)

INTRO_LAM = 1.7
INTRO_OMEGA = 4.0 / math.sqrt(math.pi)
INTRO_PERIOD = 2.0 * math.pi / INTRO_OMEGA  # = 2.78416399841585392
INTRO_MAX_W = 8.07920276887450246
V_CRIT_FIG = 0.76436169849601359

_results = []


def report(num, ok, detail, elapsed, budget):
    line = (
        f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail} "
        f"({elapsed:.2f}s / budget {budget:.0f}s)"
    )
    print(line)
    _results.append(line)
    assert ok, line
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget: {line}"


def _refined_peaks(taus, ys, floor):
    """Parabolically refined (position, height) of local maxima above floor."""
    idx = np.where((ys[1:-1] > ys[:-2]) & (ys[1:-1] >= ys[2:]) & (ys[1:-1] > floor))[0] + 1
    step = taus[1] - taus[0]
    peaks = []
    for i in idx:
        denom = ys[i - 1] - 2 * ys[i] + ys[i + 1]
        delta = 0.0 if denom == 0 else 0.5 * (ys[i - 1] - ys[i + 1]) / denom
        height = ys[i] - 0.25 * (ys[i - 1] - ys[i + 1]) * delta
        peaks.append((taus[i] + delta * step, height))
    return peaks


def test_criterion_1_static_fock_periodicity():
    t0 = time.perf_counter()
    taus = np.linspace(0.0, 30.0, 300001)
    series = witness_series_from_omega(StateSpec.fock(1), INTRO_LAM, INTRO_OMEGA, taus)
    peaks = _refined_peaks(taus, series.w_abs, floor=5.0)
    positions = np.array([p for p, _ in peaks])
    heights = np.array([h for _, h in peaks])
    spacings = np.diff(positions)
    period_err = np.max(np.abs(spacings - INTRO_PERIOD))
    max_err = abs(np.max(heights) - INTRO_MAX_W)
    elapsed = time.perf_counter() - t0
    ok = len(peaks) >= 8 and period_err <= 1e-5 and max_err <= 1e-4
    report(
        1,
        ok,
        f"period={np.mean(spacings):.6f} (2*pi/omega={INTRO_PERIOD:.6f}, "
        f"max dev {period_err:.2e}), max|W|={np.max(heights):.5f} "
        f"(expected {INTRO_MAX_W:.5f}, dev {max_err:.2e})",
        elapsed,
        1.0,
    )


def test_criterion_2_critical_velocity_scan(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "scan_velocity.csv"
    rc = main([
        "scan-velocity",
        "--state", "fock:1", "--k0", "5000", "--L", "10000", "--m", "1",
        "--scan-min", "0.5", "--scan-max", "0.95", "--scan-steps", "200",
        "--tau-max", "500", "--samples", "6000", "--t1", "0", "--t2", "500",
        "--out", str(out),
    ])
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    vels = np.array([float(r[0]) for r in rows])
    metrics = np.array([float(r[1]) for r in rows])
    v_star = vels[int(np.argmax(metrics))]
    step = vels[1] - vels[0]
    elapsed = time.perf_counter() - t0
    ok = rc == 0 and len(vels) == 200 and abs(v_star - 0.7644) <= step
    report(
        2,
        ok,
        f"argmax v={v_star:.6f}, |v-0.7644|={abs(v_star - 0.7644):.2e} "
        f"<= grid step {step:.2e} (exact v_c={V_CRIT_FIG:.6f})",
        elapsed,
        60.0,
    )


def test_criterion_3_resonance_linear_envelope():
    t0 = time.perf_counter()
    mode = ModeSpec(5000, 10000.0, 1.0)
    coup = CouplingSpec(2.0 * math.sqrt(5000.0))
    vc = critical_velocity(mode)
    traj = TrajectorySpec.inertial(vc, 1.0, 10000.0)
    ratios = []
    for tau in (50.0, 100.0, 200.0):
        c1 = chi(mode, coup, traj, tau)
        c2 = chi(mode, coup, traj, 2.0 * tau)
        assert c1.branch is ChiBranch.INERTIAL_RESONANCE_LIMIT
        ratios.append(abs(c2.value) / abs(c1.value))
    elapsed = time.perf_counter() - t0
    ok = all(1.9 <= r <= 2.1 for r in ratios)
    report(
        3,
        ok,
        "envelope ratios |chi(2t)|/|chi(t)| = "
        + ", ".join(f"{r:.4f}" for r in ratios)
        + f" at v_c={vc:.6f}",
        elapsed,
        1.0,
    )


def test_criterion_4_asymptote_mechanism(fig_cavity, fig_coupling):
    t0 = time.perf_counter()
    fock1 = StateSpec.fock(1)
    walls = []
    freezes = []
    for a in (0.4, 0.8, 1.6):
        traj = TrajectorySpec.accelerated(a, fig_cavity.x0, fig_cavity.L)
        tw = wall_time(traj)
        walls.append(tw)
        taus = np.linspace(0.0, 30.0, 900)
        series = witness_series(fock1, fig_cavity, fig_coupling, traj, taus)
        frozen = series.w_abs[taus >= tw]
        freezes.append(float(np.max(frozen) - np.min(frozen)))
    elapsed = time.perf_counter() - t0
    ok = all(f <= 1e-9 for f in freezes) and walls[0] > walls[1] > walls[2]
    report(
        4,
        ok,
        f"post-wall |W| spread per a: {freezes[0]:.1e}/{freezes[1]:.1e}/{freezes[2]:.1e}; "
        f"wall times {walls[0]:.2f} > {walls[1]:.2f} > {walls[2]:.2f}",
        elapsed,
        5.0,
    )


def test_criterion_5_large_a_classicalization(fig_cavity, fig_coupling):
    t0 = time.perf_counter()
    fock1 = StateSpec.fock(1)
    a_grid = np.linspace(5.0, 50.0, 10)
    fock_vals = np.array([
        asymptote_value(fock1, fig_cavity, fig_coupling,
                        TrajectorySpec.accelerated(a, fig_cavity.x0, fig_cavity.L), 500.0)
        for a in a_grid
    ])
    cat = StateSpec.cat(1.0)
    a_fine = np.linspace(0.02, 0.4, 40)
    cat_vals = np.array([
        asymptote_value(cat, fig_cavity, fig_coupling,
                        TrajectorySpec.accelerated(a, fig_cavity.x0, fig_cavity.L), 1000.0)
        for a in a_fine
    ])
    signs = np.sign(np.diff(cat_vals))
    sign_changes = int(np.sum(signs[1:] * signs[:-1] < 0))
    elapsed = time.perf_counter() - t0
    fock_ok = (
        np.all(fock_vals > 0.0)
        and np.all(fock_vals <= 1.0 + 1e-12)
        and np.all(np.diff(fock_vals) > 0.0)
        and fock_vals[-1] > fock_vals[0]
    )
    ok = fock_ok and sign_changes >= 2
    report(
        5,
        ok,
        f"fock asymptote {fock_vals[0]:.4f} -> {fock_vals[-1]:.4f} rising toward 1 "
        f"within (0, 1]; cat small-a derivative sign changes = {sign_changes}",
        elapsed,
        60.0,
    )


def test_criterion_6_classicality_bound_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7021986)
    worst = 0.0
    for i in range(200):
        k0 = int(rng.integers(1, 7))
        L = float(rng.uniform(2.0, 20.0))
        m = float(rng.uniform(0.0, 2.0))
        lam = float(rng.uniform(0.0, 1.5))
        cav = CavityConfig(L=L, m=m, k0=k0)
        kind = int(rng.integers(0, 3))
        if kind == 0:
            traj = TrajectorySpec.static(cav.x0, L)
        elif kind == 1:
            traj = TrajectorySpec.inertial(float(rng.uniform(0.05, 0.95)), cav.x0, L)
        else:
            traj = TrajectorySpec.accelerated(float(rng.uniform(0.1, 4.0)), cav.x0, L)
        if i % 2 == 0:
            state = StateSpec.coherent(complex(rng.normal(), rng.normal()))
        else:
            state = StateSpec.thermal(float(rng.uniform(0.0, 4.0)))
        taus = np.unique(np.concatenate([[0.0], rng.uniform(0.0, 30.0, size=3)]))
        series = witness_series(state, cav, CouplingSpec(lam), traj, taus)
        worst = max(worst, float(np.max(series.w_abs[series.ok])))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 + 1e-12
    report(
        6,
        ok,
        f"200 coherent/thermal draws over all trajectory families: max |W| = {worst:.15f}",
        elapsed,
        10.0,
    )


def test_criterion_7_oracle_equivalence():
    t0 = time.perf_counter()
    checks = run_oracle_suite(
        cutoff=40, k_max=16,
        states=("fock", "cat", "coherent", "thermal"),
        include_trotter=True, trotter_steps=4096,
    )
    elapsed = time.perf_counter() - t0
    failed = [c for c in checks if not c.passed]
    e2e = [c for c in checks if c.name.startswith("end-to-end")]
    trotter = [c for c in checks if "time-ordered" in c.name]
    worst_e2e = max(c.gap for c in e2e)
    ok = (
        not failed
        and len(e2e) == 8  # 4 states x {static, inertial}
        and len(trotter) == 1
        and worst_e2e <= 1e-14  # rounding level: 5.6e-16 at most today
    )
    report(
        7,
        ok,
        f"8 end-to-end gaps <= {worst_e2e:.2e} (thresholds 1e-6/1e-8), "
        f"trotter gap {trotter[0].gap:.2e} < 1e-5 at cutoff 60",
        elapsed,
        30.0,
    )


def test_criterion_8_branch_consistency_and_scaling():
    t0 = time.perf_counter()
    mode = ModeSpec(5000, 10000.0, 1.0)
    coup = CouplingSpec(2.0 * math.sqrt(5000.0))
    # 100-point off-resonance grid
    worst_off = 0.0
    for v in np.linspace(0.1, 0.95, 20):
        traj = TrajectorySpec.inertial(v, 1.0, 10000.0)
        omega_l = mode.k * math.pi * v / (mode.L * math.sqrt(1 - v * v))
        assert abs(omega_l - mode.omega) >= 2 * DELTA_RES * mode.omega
        for tau in (2.0, 5.0, 10.0, 20.0, 40.0):
            ca = chi(mode, coup, traj, tau)
            cq = chi(mode, coup, traj, tau, force_quadrature=True)
            worst_off = max(worst_off, abs(ca.value - cq.value))
    # through the resonance band via the limit branch
    q = mode.k * math.pi / mode.L
    worst_in = 0.0
    for rel in (0.0, 3e-7, -3e-7):
        omega_t = mode.omega * (1.0 + rel)
        v_in = omega_t / math.hypot(q, omega_t)
        traj = TrajectorySpec.inertial(v_in, 1.0, 10000.0)
        for tau in (5.0, 20.0):
            ca = chi(mode, coup, traj, tau)
            assert ca.branch is ChiBranch.INERTIAL_RESONANCE_LIMIT
            cq = chi(mode, coup, traj, tau, force_quadrature=True)
            worst_in = max(worst_in, abs(ca.value - cq.value))
    # scaling invariance at m=0 (worldline fixed; antinode does not move)
    s = 2
    base_mode = ModeSpec(5000, 10000.0, 0.0)
    scld_mode = ModeSpec(s * 5000, s * 10000.0, 0.0)
    scld_coup = CouplingSpec(math.sqrt(s) * coup.lam)
    worst_scale = 0.0
    pairs = [
        (TrajectorySpec.static(1.0, 10000.0), TrajectorySpec.static(1.0, s * 10000.0), 7.0),
        (TrajectorySpec.inertial(0.37, 1.0, 10000.0),
         TrajectorySpec.inertial(0.37, 1.0, s * 10000.0), 15.0),
        (TrajectorySpec.accelerated(0.8, 1.0, 10000.0),
         TrajectorySpec.accelerated(0.8, 1.0, s * 10000.0), 8.0),
    ]
    for base_traj, scld_traj, tau in pairs:
        b = chi(base_mode, coup, base_traj, tau)
        c = chi(scld_mode, scld_coup, scld_traj, tau)
        worst_scale = max(worst_scale, abs(b.value - c.value))
    elapsed = time.perf_counter() - t0
    ok = worst_off <= 1e-8 and worst_in <= 1e-6 and worst_scale <= 1e-9
    report(
        8,
        ok,
        f"off-resonance gap {worst_off:.2e} <= 1e-8 (100 points), "
        f"in-band gap {worst_in:.2e} <= 1e-6, scaling gap {worst_scale:.2e} <= 1e-9",
        elapsed,
        10.0,
    )


def test_criterion_9_deterministic_csv(tmp_path):
    t0 = time.perf_counter()
    # identical invocations, quadrature-heavy witness run
    w_args = ["witness", "--traj", "accel:0.8", "--tau-max", "20", "--samples", "50"]
    w_files = []
    for name in ("w1.csv", "w2.csv"):
        path = tmp_path / name
        assert main(w_args + ["--out", str(path)]) == 0
        w_files.append(path.read_bytes())
    # identical acceleration scans
    s_files = []
    for name in ("s1.csv", "s2.csv", "s3.csv"):
        path = tmp_path / name
        rc = main([
            "scan-acceleration", "--scan-min", "0.8", "--scan-max", "1.6",
            "--scan-steps", "4", "--eval-at", "500", "--out", str(path),
        ])
        assert rc == 0
        s_files.append(path.read_bytes())
    # identical velocity scans (closed-form path)
    v_files = []
    for name in ("v1.csv", "v2.csv"):
        path = tmp_path / name
        rc = main([
            "scan-velocity", "--scan-min", "0.55", "--scan-max", "0.7",
            "--scan-steps", "10", "--tau-max", "40", "--samples", "500",
            "--out", str(path),
        ])
        assert rc == 0
        v_files.append(path.read_bytes())
    elapsed = time.perf_counter() - t0
    ok = (
        w_files[0] == w_files[1]
        and s_files[0] == s_files[1] == s_files[2]
        and v_files[0] == v_files[1]
    )
    report(9, ok, "byte-identical CSV across repeated witness and scan runs", elapsed, 60.0)
