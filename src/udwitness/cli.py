"""Command-line driver: witness runs, parameter scans, oracle checks.

Subcommands::

    witness            sample |W(tau)| on a proper-time grid, emit CSV
    scan-velocity      time-averaged |W| against detector velocity
    scan-acceleration  late-time asymptote of |W| against acceleration
    scan-alpha         late-time asymptote against the cat amplitude
    oracle             truncated-basis verification suite

All quantities are in natural units. Output is deterministic: fixed
12-significant-digit decimal formatting, comma delimiter, LF endings;
identical configurations produce byte-identical files.
Exit codes: 0 ok, 2 invalid parameters, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .errors import InvalidParameterError, NumericalFailure, _check_cap
from .field import CavityConfig
from .oracle import run_oracle_suite
from .response import DEFAULT_TOL, CouplingSpec
from .trajectory import TrajectoryKind, TrajectorySpec, wall_time
from .witness import (
    StateFamily,
    StateSpec,
    _asymptote,
    asymptote_value,
    time_averaged_witness,
    witness_series,
    witness_series_from_omega,
)

_CSV_HEADER = "tau,re_chi,im_chi,re_w,im_w,abs_w,violates"

#: Largest --samples of a time grid. A witness run traces 68 bytes a
#: sample static and 93 accelerated, its numeric arrays, since the CSV rows
#: are written as they are formatted, and takes 7.5-8 us a sample, mostly
#: formatting (measured at 1e6 samples): about 470 MB and 40 s at the cap.
_MAX_SAMPLES = 5_000_000

#: Largest --scan-steps of a scan. A step takes 1.0-2.8 ms and traces
#: 200-350 bytes (a velocity point on the default 6000-sample grid, an
#: asymptote point), so a scan at the cap runs for 17-47 minutes.
_MAX_SCAN_STEPS = 1_000_000

#: Samples formatted per block of a witness CSV: the rows are written as
#: they are formatted, so a run holds one block's Python values at a time.
_ROW_BLOCK = 4096


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
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="quadrature tolerance on chi")
    p.add_argument("--out", default="-", help="output path ('-' = stdout)")


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


def _lam(args) -> float:
    """--lambda, by default 2*sqrt(k0)."""
    return 2.0 * math.sqrt(args.k0) if args.lam is None else args.lam


def _cavity_and_coupling(args):
    cavity = CavityConfig(L=args.L, m=args.m, k0=args.k0, x0=args.x0)
    return cavity, CouplingSpec(_lam(args))


def _grid(args) -> np.ndarray:
    if args.samples < 1:
        raise InvalidParameterError(f"--samples {args.samples}: the grid would be empty")
    _check_cap("--samples", args.samples, "sample", _MAX_SAMPLES)
    if not 0 < args.tau_max < math.inf:
        raise InvalidParameterError(f"--tau-max {args.tau_max} must be positive and finite")
    return np.linspace(0.0, args.tau_max, args.samples)


def _write(out: str, lines):
    """Write ``lines``, any iterable of strings, LF-terminated to ``out``
    ('-' for stdout) as they come, so no run holds its whole output."""
    fh = sys.stdout if out == "-" else open(out, "w", newline="")
    try:
        fh.writelines(f"{line}\n" for line in lines)
    finally:
        if fh is not sys.stdout:
            fh.close()


def _series_lines(series):
    """The CSV header, then one row per sample, formatted _ROW_BLOCK samples at a time."""
    yield _CSV_HEADER
    columns = (series.taus, series.chi, series.w, series.w_abs, series.violates)
    for a in range(0, series.taus.size, _ROW_BLOCK):
        block = slice(a, a + _ROW_BLOCK)
        for tau, chi, w, w_abs, violates in zip(*(x[block].tolist() for x in columns)):
            yield ",".join([
                _fmt(tau), _fmt(chi.real), _fmt(chi.imag), _fmt(w.real), _fmt(w.imag),
                _fmt(w_abs), "true" if violates else "false",
            ])


def _scan_lines(header: str, values, metrics):
    """The CSV header, then one ``value,metric`` row per scan point."""
    yield header
    for v, m in zip(values, metrics):
        yield f"{_fmt(v)},{_fmt(m)}"


def cmd_witness(args) -> int:
    state = parse_state(args.state)
    taus = _grid(args)
    if args.omega_override is not None:
        if args.traj != "static":
            raise InvalidParameterError(
                "--omega-override describes a resting detector; --traj must be static"
            )
        if not 0 < args.tol < math.inf:
            raise InvalidParameterError(f"tolerance --tol {args.tol} must be positive and finite")
        series = witness_series_from_omega(state, _lam(args), args.omega_override, taus)
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


def _scan_values(args, what: str, need: str, upper: float = math.inf) -> np.ndarray:
    """The --scan-steps values from --scan-min to --scan-max, 0 < min < max < ``upper``."""
    for option, value in (("--scan-min", args.scan_min), ("--scan-max", args.scan_max)):
        if not math.isfinite(value):
            raise InvalidParameterError(f"{option} {value} must be finite")
    if not 0.0 < args.scan_min < args.scan_max < upper:
        raise InvalidParameterError(f"{what} range [{args.scan_min}, {args.scan_max}] {need}")
    if args.scan_steps < 1:
        raise InvalidParameterError(f"--scan-steps {args.scan_steps} must be >= 1")
    _check_cap("--scan-steps", args.scan_steps, "scan step", _MAX_SCAN_STEPS)
    return np.linspace(args.scan_min, args.scan_max, args.scan_steps)


def _run_scan(values, evaluate):
    """Evaluate scan points in order; a failed point warns and becomes NaN."""
    metrics = []
    for v in values:
        try:
            metrics.append(evaluate(v))
        except NumericalFailure as exc:
            print(f"scan point {v:g} failed: {exc}", file=sys.stderr)
            metrics.append(math.nan)
    return metrics


def cmd_scan_velocity(args) -> int:
    state = parse_state(args.state)
    cavity, coupling = _cavity_and_coupling(args)
    vels = _scan_values(args, "velocity", "must lie inside (0, 1)", upper=1.0)
    taus = _grid(args)
    t1 = 0.0 if args.t1 is None else args.t1
    t2 = args.tau_max if args.t2 is None else args.t2

    def evaluate(v):
        traj = TrajectorySpec.inertial(v, cavity.x0, cavity.L)
        series = witness_series(state, cavity, coupling, traj, taus, tol=args.tol)
        return time_averaged_witness(series, t1, t2)

    metrics = _run_scan(vels, evaluate)
    _write(args.out, _scan_lines("velocity,avg_abs_w", vels, metrics))
    return 0


def _check_eval_at(args, slowest: TrajectorySpec) -> None:
    t_wall = wall_time(slowest)
    if not args.eval_at >= t_wall:
        raise InvalidParameterError(
            f"--eval-at {args.eval_at} precedes the wall-arrival time {t_wall:g} "
            f"of the slowest scanned trajectory; increase --eval-at"
        )


def cmd_scan_acceleration(args) -> int:
    state = parse_state(args.state)
    accs = _scan_values(args, "acceleration", "must be positive and increasing")
    cavity, coupling = _cavity_and_coupling(args)
    traj_of = functools.partial(TrajectorySpec.accelerated, x0=cavity.x0, L=cavity.L)
    _check_eval_at(args, traj_of(accs[0]))
    metrics = _run_scan(
        accs,
        lambda a: asymptote_value(state, cavity, coupling, traj_of(a), args.eval_at, tol=args.tol),
    )
    _write(args.out, _scan_lines("acceleration,asymptote_abs_w", accs, metrics))
    return 0


def cmd_scan_alpha(args) -> int:
    base = parse_state(args.state)
    if base.family is not StateFamily.CAT:
        raise InvalidParameterError("--state must be a cat state for scan-alpha")
    alphas = _scan_values(args, "alpha0", "must be positive and increasing")
    cavity, coupling = _cavity_and_coupling(args)
    traj = parse_traj(args.traj, cavity.x0, cavity.L)
    if traj.kind is not TrajectoryKind.ACCELERATED:
        raise InvalidParameterError("scan-alpha requires an accel:A trajectory")
    _check_eval_at(args, traj)
    # Only the cat witness depends on alpha0, so chi is taken once. A chi
    # refused at a work cap (before any work) is refused at every point.
    abs_w = functools.cache(lambda: _asymptote(cavity, coupling, traj, args.eval_at, args.tol))
    metrics = _run_scan(alphas, lambda a0: abs_w()(StateSpec.cat(a0)))
    _write(args.out, _scan_lines("alpha0,asymptote_abs_w", alphas, metrics))
    return 0


def cmd_oracle(args) -> int:
    names = [s.strip() for s in args.states.split(",") if s.strip()]
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
