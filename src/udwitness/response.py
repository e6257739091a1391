"""Detector response amplitude chi_k(tau).

The response of cavity mode k to a detector with coupling lam moving
along x(tau) is the complex amplitude

    chi_k(tau) = -i * lam * Integral_0^tau F_k(x(t)) * exp(i*omega_k*t) dt,

with F_k the mode profile. Closed forms exist for a static detector and
for inertial motion; uniformly accelerated motion is handled by an
oscillation-aware adaptive quadrature. Once the detector reaches the
right wall the integrand vanishes (F_k(L) = 0), so every chi_k freezes
at its wall-arrival value; the integration explicitly stops there.

Every chi comes from one grid evaluation (chi_series); the scalar entry
points are its 0-d calls. Every quadrature chi (accelerated, or any
worldline with force_quadrature) comes from one driver, _quadrature:
modes ks and a tau grid in, chi[k, tau] out. Each mode is one segment of
a single adaptive pass (_adaptive_panels) from half-cycle starting
panels with the grid times inserted as edges (_block_edges), and chi at
a grid time is a sequential prefix sum of its mode's panels, so a mode's
values are the same bits alone or in a block. A single chi is a call
with one mode; the mode sum (chi_mode_sum) calls it per block of
_MODE_BLOCK modes at one time.

The inertial closed form is evaluated in one
cancellation-free form, exact through the resonance where the
mode-crossing frequency omega_L = k*pi*v/(L*sqrt(1-v^2)) matches omega_k
and the envelope of |chi| grows linearly in tau. Inside a narrow band
around that resonance the result is labelled INERTIAL_RESONANCE_LIMIT.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels
from .errors import InvalidParameterError, NumericalFailure
from .field import CavityConfig, ModeSpec, mode_frequency
from .trajectory import TrajectoryKind, TrajectorySpec, wall_time

#: Half-width of the resonance band, relative to omega_k. An inertial chi
#: with |omega_L - omega_k| below it carries the INERTIAL_RESONANCE_LIMIT
#: label; the evaluation is the same cancellation-free form on both sides.
DELTA_RES = 1e-6

#: Default absolute tolerance of the adaptive quadrature (on chi itself).
DEFAULT_TOL = 1e-10

_MAX_PANELS = 400_000
_MAX_ROUNDS = 48

#: Modes per block of a mode sum. An accelerated block is one batched
#: adaptive quadrature, and the block bounds its edge and prefix-sum
#: tables (the kernel bounds its own temporaries): a 256-mode sum peaks at
#: 1.33 MB traced with 16 modes per block, 2.17 MB with 64.
_MODE_BLOCK = 16

#: Largest phase of either oscillation across one starting panel: half a
#: cycle. The K15 rule resolves it to ~1e-12 relative, and the adaptive
#: pass splits the panels whose estimate asks for more.
_START_PANEL_PHASE = math.pi


class ChiBranch(Enum):
    STATIC_CLOSED_FORM = "static-closed-form"
    INERTIAL_CLOSED_FORM = "inertial-closed-form"
    INERTIAL_RESONANCE_LIMIT = "inertial-resonance-limit"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class ChiValue:
    """Complex response amplitude with evaluation metadata.

    ``err_estimate`` is 0 for the closed forms. For QUADRATURE it is the
    summed per-panel truncation estimate |K15 - G7| (times the coupling
    prefactor): it does not bound the rounding of the phases omega*t,
    which on long spans near the inertial resonance can exceed it.
    """

    value: complex
    branch: ChiBranch
    err_estimate: float = 0.0


@dataclass(frozen=True)
class CouplingSpec:
    """Detector-field coupling strength (dimensionless in natural units)."""

    lam: float

    def __post_init__(self):
        if not 0 <= self.lam < math.inf:
            raise InvalidParameterError(f"coupling lam={self.lam} must be non-negative and finite")


def _cis_m1(theta):
    """exp(i*theta) - 1 evaluated without cancellation near theta = 0 mod 2*pi."""
    return -2.0 * np.sin(0.5 * theta) ** 2 + 1j * np.sin(theta)


def _seg(mu, tau):
    """Integral of exp(i*mu*t) over [0, tau] as its (real, imaginary) parts.

    (sin(mu*tau), 2*sin(mu*tau/2)**2)/mu, without cancellation for small
    |mu*tau|; (tau, 0) where mu = 0. ``mu`` and ``tau`` are scalars or
    arrays that broadcast together.
    """
    mu = np.asarray(mu, dtype=float)
    zero = mu == 0.0
    theta = mu * tau
    inv = 1.0 / np.where(zero, 1.0, mu)
    re, im = np.sin(theta) * inv, 2.0 * inv * np.sin(0.5 * theta) ** 2
    if zero.any():
        re, im = np.where(zero, tau, re), np.where(zero, 0.0, im)
    return re, im


def chi_static_amplitude(lam_f, omega, tau):
    """Static response -lam_f*(exp(i*omega*tau) - 1)/omega for drive amplitude lam_f.

    ``tau`` may be a scalar or an array.
    """
    return -lam_f * _cis_m1(omega * np.asarray(tau, dtype=float)) / omega


def _crossing_frequency(k, L: float, v: float):
    """Mode-crossing frequency omega_L = k*pi*v/(L*sqrt(1 - v^2)) of mode(s) k."""
    gamma = 1.0 / math.sqrt(1.0 - v**2)
    return k * math.pi * v * gamma / L


def _closed_form(lam, k, L, omega, traj: TrajectorySpec, taus):
    """chi of mode(s) k at ``taus`` on a static or inertial worldline.

    ``k`` and ``omega`` are a scalar or matching arrays of modes and
    broadcast against ``taus``. The inertial integrand
    sin(omega_L*t + phi)*exp(i*omega*t) splits into a fast and a slow
    exponential, each integrated by _seg, so nothing cancels as
    omega_L -> omega; past the wall-arrival time chi stays at its wall
    value.
    """
    phi = k * math.pi * traj.x0 / L
    if traj.kind is TrajectoryKind.STATIC:
        return chi_static_amplitude(lam * (np.sin(phi) / np.sqrt(k * math.pi)), omega, taus)
    omega_l = _crossing_frequency(k, L, traj.v)
    t_eff = np.minimum(taus, wall_time(traj))
    re_fast, im_fast = _seg(omega + omega_l, t_eff)
    re_slow, im_slow = _seg(omega - omega_l, t_eff)
    # chi = -i*pref*(e^{i*phi}*seg_fast - e^{-i*phi}*seg_slow)/(2i), in real arithmetic
    half = 0.5 * lam / np.sqrt(k * math.pi)
    c, s = half * np.cos(phi), half * np.sin(phi)
    out = (s * (im_fast + im_slow) - c * (re_fast - re_slow)).astype(complex)
    out.imag = -(s * (re_fast + re_slow) + c * (im_fast - im_slow))
    return out


def _closed_branch(mode: ModeSpec, traj: TrajectorySpec) -> ChiBranch:
    if traj.kind is TrajectoryKind.STATIC:
        return ChiBranch.STATIC_CLOSED_FORM
    omega_l = _crossing_frequency(mode.k, mode.L, traj.v)
    if abs(omega_l - mode.omega) < DELTA_RES * mode.omega:
        return ChiBranch.INERTIAL_RESONANCE_LIMIT
    return ChiBranch.INERTIAL_CLOSED_FORM


def _checked_times(taus, traj: TrajectorySpec):
    """``taus`` as a float array; InvalidParameterError names the first bad time.

    A time must be >= 0, so NaN is rejected, and finite on a static
    worldline, whose chi never freezes at a wall.
    """
    taus = np.asarray(taus, dtype=float)
    need, ok = "non-negative", taus >= 0
    if wall_time(traj) is None:
        need, ok = "non-negative and finite on a static worldline", ok & (taus < math.inf)
    if not np.all(ok):
        raise InvalidParameterError(f"proper time tau={taus[~ok].flat[0]} must be {need}")
    return taus


def _stall_text(tol, k, reason, err_estimate, detail=""):
    """Message of a quadrature that stopped short of ``tol`` on mode k."""
    return (
        f"quadrature did not reach tol={tol} for mode k={k}: {reason} "
        f"(error estimate {err_estimate:.3e}{detail})"
    )


def _chi_grid(mode, coupling, traj, taus, tol, force_quadrature):
    """(values, errors, branch, stall) of chi on the grid ``taus``: the branch dispatch.

    ``stall`` is None unless the quadrature stopped short of ``tol``; the
    values are then its best estimates.
    """
    taus = _checked_times(taus, traj)
    if not tol > 0:
        raise InvalidParameterError(f"tolerance tol={tol} must be positive")
    if force_quadrature or traj.kind is TrajectoryKind.ACCELERATED:
        chis, errs, (stall,) = _quadrature(
            np.array([mode.k]), np.array([mode.omega]), mode.L, coupling, traj, taus, tol
        )
        return chis[0], errs[0], ChiBranch.QUADRATURE, stall
    vals = _closed_form(coupling.lam, mode.k, mode.L, mode.omega, traj, taus)
    return vals, np.zeros(taus.shape), _closed_branch(mode, traj), None


def _chi_at(mode, coupling, traj, tau, tol=DEFAULT_TOL, force_quadrature=False) -> ChiValue:
    """chi at one time: the grid evaluation at [tau].

    A quadrature stall raises NumericalFailure with the best ChiValue.
    """
    vals, errs, branch, stall = _chi_grid(mode, coupling, traj, [tau], tol, force_quadrature)
    c = ChiValue(complex(vals[0]), branch, float(errs[0]))
    if stall is not None:
        raise NumericalFailure(
            _stall_text(tol, mode.k, stall, c.err_estimate), best=c, err_estimate=c.err_estimate
        )
    return c


def chi_static(mode: ModeSpec, coupling: CouplingSpec, x0: float, tau: float) -> ChiValue:
    """Closed-form response of a detector at rest at x0 (0 <= x0 < L).

    |chi|^2 = 4*(lam*F/omega)^2 * sin^2(omega*tau/2), periodic in tau
    with period 2*pi/omega.
    """
    return _chi_at(mode, coupling, TrajectorySpec.static(x0, mode.L), tau)


def chi_inertial_analytic(
    mode: ModeSpec, coupling: CouplingSpec, traj: TrajectorySpec, tau: float
) -> ChiValue:
    """Closed-form response for inertial motion, valid up to wall arrival.

    Labelled INERTIAL_RESONANCE_LIMIT when |omega_L - omega_k| < DELTA_RES*omega_k.
    """
    if traj.kind is not TrajectoryKind.INERTIAL:
        raise InvalidParameterError(f"trajectory kind {traj.kind} is not inertial")
    t_wall = wall_time(traj)
    if tau > t_wall * (1.0 + 1e-12):
        raise InvalidParameterError(
            f"tau={tau} exceeds the wall-arrival time {t_wall}; "
            "the closed form only covers the moving segment"
        )
    c = _chi_at(mode, coupling, traj, tau)
    if not np.isfinite(c.value):
        raise NumericalFailure(
            f"non-finite inertial response at tau={tau} "
            f"(omega_L={_crossing_frequency(mode.k, mode.L, traj.v)})"
        )
    return c


def critical_velocity(mode: ModeSpec) -> float:
    """Velocity at which the mode-crossing frequency matches omega_k.

    sqrt((1 + r^2)/(1 + 2*r^2)) with r = k*pi/(m*L); the massless limit
    is 1/sqrt(2).
    """
    if mode.m == 0.0:
        return 1.0 / math.sqrt(2.0)
    r = mode.k * math.pi / (mode.m * mode.L)
    return math.sqrt((1.0 + r * r) / (1.0 + 2.0 * r * r))


# ---------------------------------------------------------------------------
# adaptive quadrature
# ---------------------------------------------------------------------------


def _kernel_params(k, L, traj: TrajectorySpec):
    """Kernel parameters (kind, phi0, rate, cc) of mode(s) k on ``traj``.

    phi0 and cc take the shape of k (a scalar or an array of modes); rate
    is one scalar: a, 0, or the crossing frequency of a forced-quadrature
    inertial chi, which is always one mode.
    """
    q = k * math.pi
    phi0 = q * traj.x0 / L
    if traj.kind is TrajectoryKind.ACCELERATED:
        return kernels.KIND_ACCELERATED, phi0, traj.a, q / (L * traj.a)
    unused_cc = 0.0 * q
    if traj.kind is TrajectoryKind.STATIC:
        return kernels.KIND_STATIC, phi0, 0.0, unused_cc
    (rate,) = np.ravel(_crossing_frequency(k, L, traj.v))
    return kernels.KIND_INERTIAL, phi0, float(rate), unused_cc


def _block_edges(ks, L, omega, traj: TrajectorySpec, t_end: float, times):
    """Starting panel edges of modes ``ks`` (frequencies ``omega``) in one pass.

    Returns (edges, offsets): mode j's edges are
    edges[offsets[j]:offsets[j + 1]], strictly increasing from 0 to
    t_end > 0. They merge three sets of times:

    - a uniform grid (numpy.linspace arithmetic) whose panels span at most
      half a cycle (_START_PANEL_PHASE) of exp(i*omega_k*t) and, on an
      inertial worldline, of the mode-crossing oscillation: the step is
      pi/max(omega_k, omega_L), which is min(pi/omega_k, pi/omega_L) to
      the bit;
    - on an accelerated worldline, the times at which the mode phase
      cc*(cosh(a*t) - 1) has advanced by equal steps of at most half a
      cycle;
    - the grid ``times`` in (0, t_end], so that chi at each of them is a
      prefix of the panel sum.

    Row j of one table holds mode j's times, padded with t_end; every
    entry comes from the same elementwise arithmetic whatever the other
    rows, so a mode's edges do not depend on the modes it is built with.
    Sorting each row and dropping repeats gives the edges.

    A mode whose uniform and phase steps add up to more than _MAX_PANELS
    raises NumericalFailure before the table is built.
    """
    rate = omega
    if traj.kind is TrajectoryKind.INERTIAL:
        rate = np.maximum(omega, _crossing_frequency(ks, L, traj.v))
    n_uniform = np.maximum(1.0, np.ceil(t_end / (_START_PANEL_PHASE / rate)))[:, None]
    n_start = n_uniform
    if traj.kind is TrajectoryKind.ACCELERATED:
        cc = (ks * math.pi / (L * traj.a))[:, None]
        sweep = cc * (math.cosh(traj.a * t_end) - 1.0)
        n_phase = np.ceil(sweep / _START_PANEL_PHASE)
        n_start = n_uniform + n_phase
    over = np.flatnonzero(n_start > _MAX_PANELS)
    if over.size:
        j = over[0]
        raise NumericalFailure(
            f"mode k={ks[j]} would start from {n_start[j, 0]:.0f} panels up to tau={t_end}, "
            f"over the panel cap {_MAX_PANELS}"
        )
    i = np.arange(n_uniform.max() + 1.0)
    rows = [np.where(i < n_uniform, i * (t_end / n_uniform), t_end)]
    if traj.kind is TrajectoryKind.ACCELERATED:
        i = np.arange(1.0, n_phase.max())
        theta = i * (sweep / np.maximum(n_phase, 1.0))
        rows.append(np.where(i < n_phase, np.arccosh(1.0 + theta / cc) / traj.a, t_end))
    rows.append(np.repeat(times[None, :], ks.size, axis=0))
    table = np.sort(np.concatenate(rows, axis=1), axis=1)
    fresh = np.ones(table.shape, dtype=bool)
    fresh[:, 1:] = table[:, 1:] != table[:, :-1]
    offsets = np.zeros(ks.size + 1, dtype=np.intp)
    np.cumsum(fresh.sum(axis=1), out=offsets[1:])
    return table[fresh], offsets


def _segments(x, counts):
    """Consecutive slices of x with counts[s] elements each.

    Per-segment sums go over these slices: x[a:b].sum() is the sum the
    segment gets on its own, where np.add.reduceat adds in another order
    and differs in the last bits.
    """
    a = 0
    for n in counts:
        yield x[a:a + n]
        a += n


def _stop_reason(history, s, n):
    """Why segment s, with n panels, stops refining short of its tolerance."""
    if len(history) > 2 and history[-1][s] >= history[-3][s]:
        return "stalled (error sum not shrinking over two rounds)"
    if len(history) > _MAX_ROUNDS:
        return f"round cap {_MAX_ROUNDS} hit"
    if n >= _MAX_PANELS:
        return f"panel cap {_MAX_PANELS} hit"
    return None


def _adaptive_panels(kind, phi0, rate, cc, omega, edges, offsets, tol):
    """Bisect panels until each segment's error estimates sum to at most its tol.

    A segment is one integral (one mode): the panels between consecutive
    ``edges`` from offsets[s] to offsets[s + 1] - 1, with phi0, cc, omega
    and tol arrays of one entry per segment and rate one scalar. Every
    round evaluates the split panels of all segments in one kernel call,
    and each segment refines exactly as it would alone: its own tolerance,
    its own panel count in the split threshold tol/(2*n), and its own
    verdict. Splitting in place keeps each segment's panels contiguous and
    in order, and the per-round bookkeeping is a few Python operations per
    segment.

    Returns (lo, hi, vals, errs, counts, stalls): segment s owns the
    counts[s] panels after those of segments 0..s-1; ``stalls[s]`` is None
    on convergence, else why its refinement stopped: its error sum has not
    shrunk over two rounds, or the round or panel cap was hit.

    The stall rule assumes edges that already resolve the oscillation.
    The half-cycle panels of _block_edges do: at half-width pi/2 of a
    phase even the embedded G7 rule is converged (and close to it where
    the two phases add up to a cycle), so a bisection cuts a panel's
    estimate by about 2**15 (the G7 error goes as h**15) until rounding
    dominates, and an error sum that has not shrunk in two rounds sits at
    the rounding floor. The least resolved starting panels are the first
    accelerated ones, where A(t) = cc*(cosh(a*t) - 1) is far from linear;
    their estimate still falls every round. Panels spanning many cycles
    can go several rounds without shrinking and would be reported as
    stalled.
    """
    lo = np.delete(edges, offsets[1:] - 1)
    hi = np.delete(edges, offsets[:-1])
    counts, tols = (np.diff(offsets) - 1).tolist(), np.asarray(tol).tolist()

    def integrate(per_segment, a, b):
        """Kernel call on panels a..b, per_segment[s] of them from segment s."""
        phi0_p, cc_p, omega_p = (np.repeat(x, per_segment) for x in (phi0, cc, omega))
        return kernels.panel_integrals(kind, phi0_p, rate, cc_p, omega_p, a, b)

    vals, errs = integrate(counts, lo, hi)
    stalls = [None] * len(counts)
    running = [True] * len(counts)
    history = [[e.sum() for e in _segments(errs, counts)]]
    while True:
        thresholds = []
        for s, n in enumerate(counts):
            if running[s] and history[-1][s] > tols[s]:
                stalls[s] = _stop_reason(history, s, n)
                running[s] = stalls[s] is None
            else:
                running[s] = False
            thresholds.append(tols[s] / (2.0 * n) if running[s] else math.inf)
        if not any(running):
            break
        mask = errs > np.repeat(thresholds, counts)
        splits = [np.count_nonzero(m) for m in _segments(mask, counts)]
        if not any(splits):
            break
        running = [r and k > 0 for r, k in zip(running, splits)]
        # Each split panel is replaced in place by its two halves.
        split_lo, split_hi = lo[mask], hi[mask]
        mid = 0.5 * (split_lo + split_hi)
        half_lo = np.column_stack([split_lo, mid]).ravel()
        half_hi = np.column_stack([mid, split_hi]).ravel()
        reps = mask + 1
        slots = np.flatnonzero(np.repeat(mask, reps))
        half_vals, half_errs = integrate([2 * k for k in splits], half_lo, half_hi)
        lo, hi, vals, errs = (np.repeat(x, reps) for x in (lo, hi, vals, errs))
        lo[slots], hi[slots], vals[slots], errs[slots] = half_lo, half_hi, half_vals, half_errs
        counts = [n + k for n, k in zip(counts, splits)]
        history.append([e.sum() for e in _segments(errs, counts)])
    return lo, hi, vals, errs, counts, stalls


def _quadrature(ks, omega, L, coupling, traj, taus, tol):
    """chi of modes ``ks`` at every grid time in one adaptive pass.

    Each mode is one segment of a single _adaptive_panels pass, from the
    edges of _block_edges with the grid times inserted, so each
    chi_k(tau) is an exact prefix of its mode's panel decomposition, taken
    by one sequential prefix sum per mode; times past the wall-arrival
    time reuse the frozen full integral. A mode's panels, and hence its
    values, are the same bits whichever modes it is evaluated with.

    Returns (chi, err, stalls): chi[j] and err[j] are mode j's values and
    summed |K15 - G7| estimates on the grid (shaped like ``taus``), and
    stalls[j] is None on convergence, else why its refinement stopped (the
    values are then its best estimates).
    """
    taus = np.asarray(taus, dtype=float)
    t_end = float(np.max(taus)) if taus.size else 0.0
    t_wall = wall_time(traj)
    if t_wall is not None:
        t_end = min(t_end, t_wall)
    if coupling.lam == 0.0 or t_end <= 0.0:
        shape = (ks.size,) + taus.shape
        return np.zeros(shape, dtype=complex), np.zeros(shape), [None] * ks.size
    t_clip = np.minimum(taus, t_end)
    edges, offsets = _block_edges(ks, L, omega, traj, t_end, t_clip[t_clip > 0.0])
    kind, phi0, rate, cc = _kernel_params(ks, L, traj)
    pref = coupling.lam / np.sqrt(ks * math.pi)
    _, hi, vals, errs, counts, stalls = _adaptive_panels(
        kind, phi0, rate, cc, omega, edges, offsets, tol / np.maximum(pref, 1e-300)
    )
    # Row j holds 0 and mode j's running panel sums, one sequential
    # prefix sum per row (the zeros after its last panel are never read).
    vals_rows = np.zeros((ks.size, max(counts) + 1), dtype=complex)
    errs_rows = np.zeros(vals_rows.shape)
    cols = []
    a = 0
    for j, n in enumerate(counts):
        vals_rows[j, 1:n + 1], errs_rows[j, 1:n + 1] = vals[a:a + n], errs[a:a + n]
        # A grid time's prefix ends with the last panel ending at or before it.
        cols.append(np.searchsorted(hi[a:a + n], t_clip, side="right"))
        a += n
    np.cumsum(vals_rows, axis=1, out=vals_rows)
    np.cumsum(errs_rows, axis=1, out=errs_rows)
    per_mode = (-1,) + (1,) * taus.ndim
    flat = np.array(cols) + (np.arange(ks.size) * vals_rows.shape[1]).reshape(per_mode)
    chi = (-1j * pref).reshape(per_mode) * vals_rows.ravel()[flat]
    err = pref.reshape(per_mode) * errs_rows.ravel()[flat]
    return chi, err, stalls


def chi_quadrature(
    mode: ModeSpec,
    coupling: CouplingSpec,
    traj: TrajectorySpec,
    tau: float,
    tol: float = DEFAULT_TOL,
) -> ChiValue:
    """Response by adaptive oscillation-aware quadrature, any trajectory.

    The returned err_estimate is a truncation estimate (the panels'
    summed |K15 - G7|), not a bound: see ChiValue.
    """
    return _chi_at(mode, coupling, traj, tau, tol, force_quadrature=True)


def chi(
    mode: ModeSpec,
    coupling: CouplingSpec,
    traj: TrajectorySpec,
    tau: float,
    tol: float = DEFAULT_TOL,
    force_quadrature: bool = False,
) -> ChiValue:
    """Response amplitude with branch dispatch.

    Static and inertial trajectories use their closed forms (clamped at the
    wall-arrival time, past which chi is frozen); accelerated motion goes
    through quadrature. ``force_quadrature`` routes everything through
    quadrature, for validation runs.
    """
    return _chi_at(mode, coupling, traj, tau, tol, force_quadrature)


def chi_series(
    mode: ModeSpec,
    coupling: CouplingSpec,
    traj: TrajectorySpec,
    taus,
    tol: float = DEFAULT_TOL,
    force_quadrature: bool = False,
):
    """Vectorized chi over a time grid.

    Returns (values, err_estimates, branch). Closed-form branches carry
    zero error; the quadrature branch returns its best estimates even when
    refinement stalls (callers decide per-sample validity from the errors),
    and raises NumericalFailure only when a mode would start from more
    panels than the cap.
    """
    vals, errs, branch, _ = _chi_grid(mode, coupling, traj, taus, tol, force_quadrature)
    return vals, errs, branch


def chi_mode_sum(
    cavity: CavityConfig,
    coupling: CouplingSpec,
    traj: TrajectorySpec,
    tau: float,
    k_max: int,
    tol: float = DEFAULT_TOL,
) -> float:
    """Sum_k |chi_k(tau)|^2 over cavity modes 1..k_max.

    The truncation is exact (matched-truncation use, e.g. against a
    mode-by-mode simulation). Accelerated modes are evaluated a block of
    _MODE_BLOCK (16) at a time as one batched quadrature (see
    _abs2_block), each |chi_k|^2 bit-identical to chi_quadrature's. A mode
    whose quadrature stalls raises NumericalFailure naming k and the
    reason, with the partial sum over the modes evaluated so far (the
    failing block's at their best estimates) as ``best``.
    """
    if not tol > 0:
        raise InvalidParameterError(f"tolerance tol={tol} must be positive")
    _checked_times(tau, traj)
    if not isinstance(k_max, numbers.Integral) or k_max < 1:
        raise InvalidParameterError(f"k_max={k_max} must be an integer >= 1")
    if coupling.lam == 0.0 or tau == 0.0:
        return 0.0
    return float(np.sum(_abs2_block(np.arange(1, k_max + 1), cavity, coupling, traj, tau, tol)))


def _abs2_block(ks, cavity, coupling, traj, tau, tol):
    """|chi_k(tau)|^2 for an array of mode indices.

    Static and inertial modes use their closed forms. Accelerated modes go
    through _quadrature in blocks of _MODE_BLOCK: one adaptive quadrature
    per block, each value bit-identical to
    abs(chi_quadrature(mode_k, ...).value)**2. A stalled mode raises
    NumericalFailure with the float sum over ks evaluated so far as
    ``best``.
    """
    ks = np.asarray(ks)
    omega = np.array([mode_frequency(int(k), cavity.L, cavity.m) for k in ks])
    if traj.kind is not TrajectoryKind.ACCELERATED:
        return np.abs(_closed_form(coupling.lam, ks, cavity.L, omega, traj, tau)) ** 2
    out = np.zeros(ks.shape)
    for i in range(0, ks.size, _MODE_BLOCK):
        block = ks[i:i + _MODE_BLOCK]
        chis, errs, stalls = _quadrature(
            block, omega[i:i + _MODE_BLOCK], cavity.L, coupling, traj, [tau], tol
        )
        # Python's abs and ** per mode, as on a ChiValue: np.abs and numpy's
        # square of the same value can differ in the last bit.
        out[i:i + block.size] = [abs(complex(c)) ** 2 for c in chis[:, 0]]
        failed = [j for j, stall in enumerate(stalls) if stall is not None]
        if failed:
            j = failed[0]
            raise NumericalFailure(
                _stall_text(
                    tol, block[j], stalls[j], errs[j, 0],
                    f"; {len(failed)} of the {block.size} modes {block[0]}..{block[-1]} stalled",
                ),
                best=float(np.sum(out[:i + block.size])),
                err_estimate=float(errs[j, 0]),
            )
    return out
