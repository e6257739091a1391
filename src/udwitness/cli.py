"""Command-line driver: witness runs, parameter scans, oracle checks.

Subcommands::

    witness            sample |W(tau)| on a proper-time grid, emit CSV
    scan-velocity      time-averaged |W| against detector velocity
    scan-acceleration  late-time asymptote of |W| against acceleration
    scan-alpha         late-time asymptote against the cat amplitude
    oracle             truncated-basis verification suite

All quantities are in natural units. Output is deterministic: fixed
12-significant-digit decimal formatting, comma delimiter, LF endings;
identical configurations produce byte-identical files under any --jobs.
Exit codes: 0 ok, 2 invalid parameters, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import InvalidParameterError, NumericalFailure
from .field import CavityConfig
from .oracle import run_oracle_suite
from .response import CouplingSpec
from .trajectory import TrajectoryKind, TrajectorySpec, wall_time
from .witness import (
    StateFamily,
    StateSpec,
    asymptote_value,
    time_averaged_witness,
    witness_series,
    witness_series_from_omega,
)

_CSV_HEADER = "tau,re_chi,im_chi,re_w,im_w,abs_w,violates"


def _fmt(x: float) -> str:
    if math.isnan(x):
        return "nan"
    x = float(x)
    if x == 0.0:
        x = 0.0  # canonicalize -0.0
    return format(x, ".12g")


def parse_state(text: str) -> StateSpec:
    """fock:N | cat:A0 | coherent:RE,IM | thermal:NBAR"""
    name, _, arg = text.partition(":")
    try:
        if name == "fock":
            return StateSpec.fock(int(arg))
        if name == "cat":
            return StateSpec.cat(float(arg))
        if name == "coherent":
            re_s, im_s = arg.split(",")
            return StateSpec.coherent(complex(float(re_s), float(im_s)))
        if name == "thermal":
            return StateSpec.thermal(float(arg))
    except (ValueError, InvalidParameterError) as exc:
        raise InvalidParameterError(f"--state {text!r}: {exc}") from None
    raise InvalidParameterError(
        f"--state {text!r}: expected fock:N, cat:A0, coherent:RE,IM or thermal:NBAR"
    )


def parse_traj(text: str, x0: float, L: float) -> TrajectorySpec:
    """static | inertial:V | accel:A"""
    name, _, arg = text.partition(":")
    try:
        if name == "static":
            return TrajectorySpec.static(x0, L)
        if name == "inertial":
            return TrajectorySpec.inertial(float(arg), x0, L)
        if name == "accel":
            return TrajectorySpec.accelerated(float(arg), x0, L)
    except (ValueError, InvalidParameterError) as exc:
        raise InvalidParameterError(f"--traj {text!r}: {exc}") from None
    raise InvalidParameterError(
        f"--traj {text!r}: expected static, inertial:V or accel:A"
    )


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--state", default="fock:1", help="fock:N | cat:A0 | coherent:RE,IM | thermal:NBAR")
    p.add_argument("--k0", type=int, default=5000, help="probed mode index")
    p.add_argument("--L", type=float, default=10000.0, help="cavity length")
    p.add_argument("--m", type=float, default=1.0, help="field mass")
    p.add_argument("--x0", type=float, default=None, help="start position (default L/(2*k0))")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="coupling strength (default 2*sqrt(k0))")
    p.add_argument("--tol", type=float, default=1e-10, help="quadrature tolerance on chi")
    p.add_argument("--out", default="-", help="output path ('-' = stdout)")
    p.add_argument("--jobs", type=int, default=1, help="parallel scan evaluations")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="udwitness", description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    w = sub.add_parser("witness", help="witness series on a proper-time grid")
    _add_common(w)
    w.add_argument("--traj", default="static", help="static | inertial:V | accel:A")
    w.add_argument("--tau-max", type=float, default=50.0)
    w.add_argument("--samples", type=int, default=2000)
    w.add_argument("--force-quadrature", action="store_true",
                   help="route chi through quadrature even where closed forms exist")
    w.add_argument("--omega-override", type=float, default=None,
                   help="resting detector with this oscillator frequency and drive "
                        "amplitude --lambda, bypassing cavity geometry")

    sv = sub.add_parser("scan-velocity", help="time-averaged |W| against velocity")
    _add_common(sv)
    sv.add_argument("--scan-min", type=float, default=0.5)
    sv.add_argument("--scan-max", type=float, default=0.95)
    sv.add_argument("--scan-steps", type=int, default=200)
    sv.add_argument("--tau-max", type=float, default=500.0)
    sv.add_argument("--samples", type=int, default=6000,
                    help="grid samples; default resolves the mode period ~40x over [0,500]")
    sv.add_argument("--t1", type=float, default=None, help="averaging window start (default 0)")
    sv.add_argument("--t2", type=float, default=None, help="averaging window end (default tau-max)")

    sa = sub.add_parser("scan-acceleration", help="asymptote of |W| against acceleration")
    _add_common(sa)
    sa.add_argument("--scan-min", type=float, default=0.1)
    sa.add_argument("--scan-max", type=float, default=2.0)
    sa.add_argument("--scan-steps", type=int, default=40)
    sa.add_argument("--eval-at", type=float, default=500.0,
                    help="proper time at which the asymptote is read off")

    sc = sub.add_parser("scan-alpha", help="asymptote of |W| against the cat amplitude")
    _add_common(sc)
    sc.add_argument("--traj", default="accel:0.8", help="accel:A trajectory of the scan")
    sc.add_argument("--scan-min", type=float, default=0.1)
    sc.add_argument("--scan-max", type=float, default=3.0)
    sc.add_argument("--scan-steps", type=int, default=40)
    sc.add_argument("--eval-at", type=float, default=100.0)

    orc = sub.add_parser("oracle", help="truncated-basis verification suite")
    orc.add_argument("--cutoff", type=int, default=40, help="Fock basis size")
    orc.add_argument("--kmax", type=int, default=16, help="modes simulated in the coherence product")
    orc.add_argument("--states", default="fock,cat,coherent,thermal",
                     help="comma-separated subset of fock,cat,coherent,thermal")
    orc.add_argument("--trotter-steps", type=int, default=4096)
    orc.add_argument("--no-trotter", action="store_true",
                     help="skip the time-ordered-product cross-check")
    return ap


def _cavity_and_coupling(args):
    cavity = CavityConfig(L=args.L, m=args.m, k0=args.k0, x0=args.x0)
    lam = 2.0 * math.sqrt(args.k0) if args.lam is None else args.lam
    return cavity, CouplingSpec(lam)


def _grid(args) -> np.ndarray:
    if args.samples < 1:
        raise InvalidParameterError(f"--samples {args.samples}: the grid would be empty")
    if not args.tau_max > 0:
        raise InvalidParameterError(f"--tau-max {args.tau_max} must be positive")
    return np.linspace(0.0, args.tau_max, args.samples)


def _write(out: str, lines: list[str]):
    text = "\n".join(lines) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _series_lines(series) -> list[str]:
    lines = [_CSV_HEADER]
    for i, tau in enumerate(series.taus):
        row = [
            _fmt(tau),
            _fmt(series.chi[i].real),
            _fmt(series.chi[i].imag),
            _fmt(series.w[i].real),
            _fmt(series.w[i].imag),
            _fmt(series.w_abs[i]),
            "true" if series.violates[i] else "false",
        ]
        lines.append(",".join(row))
    return lines


def cmd_witness(args) -> int:
    state = parse_state(args.state)
    taus = _grid(args)
    if args.omega_override is not None:
        if args.traj != "static":
            raise InvalidParameterError(
                "--omega-override describes a resting detector; --traj must be static"
            )
        if not args.tol > 0:
            raise InvalidParameterError(f"tolerance --tol {args.tol} must be positive")
        lam = 2.0 * math.sqrt(args.k0) if args.lam is None else args.lam
        series = witness_series_from_omega(state, lam, args.omega_override, taus)
    else:
        cavity, coupling = _cavity_and_coupling(args)
        traj = parse_traj(args.traj, cavity.x0, cavity.L)
        series = witness_series(
            state, cavity, coupling, traj, taus,
            tol=args.tol, force_quadrature=args.force_quadrature,
        )
    _write(args.out, _series_lines(series))
    if not series.ok.all():
        bad = int(np.argmin(series.ok))
        print(
            f"numerical failure at tau={series.taus[bad]:g} "
            f"(branch {series.branch.value}); {int((~series.ok).sum())} samples invalid",
            file=sys.stderr,
        )
        return 3
    return 0


def _run_scan(values, evaluate, jobs: int):
    """Evaluate scan points (optionally in parallel); failures become NaN."""

    def safe(v):
        try:
            return evaluate(v), None
        except NumericalFailure as exc:
            return math.nan, f"scan point {v:g} failed: {exc}"

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(safe, values))
    else:
        results = [safe(v) for v in values]
    metrics = []
    for metric, warning in results:
        if warning is not None:
            print(warning, file=sys.stderr)
        metrics.append(metric)
    return metrics


def cmd_scan_velocity(args) -> int:
    state = parse_state(args.state)
    cavity, coupling = _cavity_and_coupling(args)
    if not 0.0 < args.scan_min < args.scan_max < 1.0:
        raise InvalidParameterError(
            f"velocity range [{args.scan_min}, {args.scan_max}] must lie inside (0, 1)"
        )
    if args.scan_steps < 1:
        raise InvalidParameterError(f"--scan-steps {args.scan_steps} must be >= 1")
    taus = _grid(args)
    t1 = 0.0 if args.t1 is None else args.t1
    t2 = args.tau_max if args.t2 is None else args.t2

    def evaluate(v):
        traj = TrajectorySpec.inertial(v, cavity.x0, cavity.L)
        series = witness_series(state, cavity, coupling, traj, taus, tol=args.tol)
        return time_averaged_witness(series, t1, t2)

    vels = np.linspace(args.scan_min, args.scan_max, args.scan_steps)
    metrics = _run_scan(vels, evaluate, args.jobs)
    lines = ["velocity,avg_abs_w"]
    lines += [f"{_fmt(v)},{_fmt(m)}" for v, m in zip(vels, metrics)]
    _write(args.out, lines)
    return 0


def _scan_asymptote(args, values, state_of, traj_of) -> list[float]:
    cavity, coupling = _cavity_and_coupling(args)
    slowest = traj_of(values[0], cavity)
    t_wall = wall_time(slowest)
    if args.eval_at < t_wall:
        raise InvalidParameterError(
            f"--eval-at {args.eval_at} precedes the wall-arrival time {t_wall:g} "
            f"of the slowest scanned trajectory; increase --eval-at"
        )

    def evaluate(v):
        return asymptote_value(
            state_of(v), cavity, coupling, traj_of(v, cavity), args.eval_at, tol=args.tol
        )

    return _run_scan(values, evaluate, args.jobs)


def cmd_scan_acceleration(args) -> int:
    state = parse_state(args.state)
    if not 0.0 < args.scan_min < args.scan_max:
        raise InvalidParameterError(
            f"acceleration range [{args.scan_min}, {args.scan_max}] must be positive and increasing"
        )
    if args.scan_steps < 1:
        raise InvalidParameterError(f"--scan-steps {args.scan_steps} must be >= 1")
    accs = np.linspace(args.scan_min, args.scan_max, args.scan_steps)
    metrics = _scan_asymptote(
        args,
        accs,
        state_of=lambda a: state,
        traj_of=lambda a, cav: TrajectorySpec.accelerated(a, cav.x0, cav.L),
    )
    lines = ["acceleration,asymptote_abs_w"]
    lines += [f"{_fmt(a)},{_fmt(m)}" for a, m in zip(accs, metrics)]
    _write(args.out, lines)
    return 0


def cmd_scan_alpha(args) -> int:
    base = parse_state(args.state)
    if base.family is not StateFamily.CAT:
        raise InvalidParameterError("--state must be a cat state for scan-alpha")
    if not 0.0 < args.scan_min < args.scan_max:
        raise InvalidParameterError(
            f"alpha0 range [{args.scan_min}, {args.scan_max}] must be positive and increasing"
        )
    if args.scan_steps < 1:
        raise InvalidParameterError(f"--scan-steps {args.scan_steps} must be >= 1")
    cavity, _ = _cavity_and_coupling(args)
    traj = parse_traj(args.traj, cavity.x0, cavity.L)
    if traj.kind is not TrajectoryKind.ACCELERATED:
        raise InvalidParameterError("scan-alpha requires an accel:A trajectory")
    alphas = np.linspace(args.scan_min, args.scan_max, args.scan_steps)
    metrics = _scan_asymptote(
        args,
        alphas,
        state_of=lambda a0: StateSpec.cat(a0),
        traj_of=lambda a0, cav: traj,
    )
    lines = ["alpha0,asymptote_abs_w"]
    lines += [f"{_fmt(a)},{_fmt(m)}" for a, m in zip(alphas, metrics)]
    _write(args.out, lines)
    return 0


def cmd_oracle(args) -> int:
    names = [s.strip() for s in args.states.split(",") if s.strip()]
    valid = {"fock", "cat", "coherent", "thermal"}
    unknown = set(names) - valid
    if unknown:
        raise InvalidParameterError(f"--states: unknown families {sorted(unknown)}")
    checks = run_oracle_suite(
        cutoff=args.cutoff,
        k_max=args.kmax,
        states=names,
        include_trotter=not args.no_trotter,
        trotter_steps=args.trotter_steps,
    )
    for c in checks:
        gap = "n/a" if c.gap is None else f"{c.gap:.3e}"
        status = "PASS" if c.passed else "FAIL"
        note = f"  [{c.note}]" if c.note else ""
        print(f"{status}  {c.name}: gap={gap} threshold={c.threshold:.0e}{note}")
    failed = [c for c in checks if not c.passed]
    if failed:
        print(f"first failing check: {failed[0].name}", file=sys.stderr)
        return 3
    return 0


_COMMANDS = {
    "witness": cmd_witness,
    "scan-velocity": cmd_scan_velocity,
    "scan-acceleration": cmd_scan_acceleration,
    "scan-alpha": cmd_scan_alpha,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InvalidParameterError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
