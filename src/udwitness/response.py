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
points are its 0-d calls. The inertial closed form is evaluated in one
cancellation-free form, exact through the resonance where the
mode-crossing frequency omega_L = k*pi*v/(L*sqrt(1-v^2)) matches omega_k
and the envelope of |chi| grows linearly in tau. Inside a narrow band
around that resonance the result is labelled INERTIAL_RESONANCE_LIMIT.
"""

from __future__ import annotations

import math
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
#: adaptive quadrature; 16 keeps the kernel's temporaries small.
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
        if self.lam < 0:
            raise InvalidParameterError(f"coupling lam={self.lam} must be non-negative")


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


def _chi_grid(mode, coupling, traj, taus, tol, force_quadrature):
    """(values, errors, branch) of chi on the grid ``taus``: the branch dispatch.

    A quadrature that stalls raises NumericalFailure with the best
    (values, errors) attached.
    """
    taus = np.asarray(taus, dtype=float)
    if np.any(taus < 0):
        raise InvalidParameterError("grid times must be non-negative")
    if not tol > 0:
        raise InvalidParameterError(f"tolerance tol={tol} must be positive")
    if force_quadrature or traj.kind is TrajectoryKind.ACCELERATED:
        vals, errs = _quadrature_prefix(mode, coupling, traj, taus, tol)
        return vals, errs, ChiBranch.QUADRATURE
    vals = _closed_form(coupling.lam, mode.k, mode.L, mode.omega, traj, taus)
    return vals, np.zeros(taus.shape), _closed_branch(mode, traj)


def _chi_at(mode, coupling, traj, tau, tol=DEFAULT_TOL, force_quadrature=False) -> ChiValue:
    """chi at one time: the grid evaluation at [tau].

    A quadrature stall raises NumericalFailure with the best ChiValue.
    """
    if tau < 0:
        raise InvalidParameterError(f"proper time tau={tau} must be non-negative")
    try:
        vals, errs, branch = _chi_grid(mode, coupling, traj, [tau], tol, force_quadrature)
    except NumericalFailure as exc:
        best_vals, best_errs = exc.best
        raise NumericalFailure(
            str(exc),
            best=ChiValue(complex(best_vals[0]), ChiBranch.QUADRATURE, float(best_errs[0])),
            err_estimate=exc.err_estimate,
        ) from None
    return ChiValue(complex(vals[0]), branch, float(errs[0]))


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


def _kernel_params(mode: ModeSpec, traj: TrajectorySpec):
    phi0 = mode.k * math.pi * traj.x0 / mode.L
    if traj.kind is TrajectoryKind.STATIC:
        return kernels.KIND_STATIC, phi0, 0.0, 0.0
    if traj.kind is TrajectoryKind.INERTIAL:
        return kernels.KIND_INERTIAL, phi0, _crossing_frequency(mode.k, mode.L, traj.v), 0.0
    cc = mode.k * math.pi / (mode.L * traj.a)
    return kernels.KIND_ACCELERATED, phi0, traj.a, cc


def _oscillation_breakpoints(mode: ModeSpec, traj: TrajectorySpec, t_end: float):
    """Starting panel edges for the field phase and the mode-crossing phase.

    Panels never span more than half a cycle (_START_PANEL_PHASE) of
    exp(i*omega_k*t) nor of the instantaneous mode-function oscillation
    along the worldline; _adaptive_panels refines from there.
    """
    caps = [_START_PANEL_PHASE / mode.omega]
    if traj.kind is TrajectoryKind.INERTIAL:
        omega_l = _crossing_frequency(mode.k, mode.L, traj.v)
        if omega_l > 0:
            caps.append(_START_PANEL_PHASE / omega_l)
    h = min(caps)
    n_uniform = max(1, math.ceil(t_end / h))
    pts = np.linspace(0.0, t_end, n_uniform + 1)
    if traj.kind is TrajectoryKind.ACCELERATED:
        cc = mode.k * math.pi / (mode.L * traj.a)
        sweep = cc * (math.cosh(traj.a * t_end) - 1.0)
        n_phase = math.ceil(sweep / _START_PANEL_PHASE)
        if n_phase > 1:
            theta = np.arange(1, n_phase) * (sweep / n_phase)
            t_phase = np.arccosh(1.0 + theta / cc) / traj.a
            pts = np.union1d(pts, t_phase)
    return pts


def _block_edges(ks, L, omega, traj: TrajectorySpec, t_end: float):
    """Starting panel edges of accelerated modes ``ks`` in one vectorised pass.

    Returns (edges, offsets): mode j's edges are
    edges[offsets[j]:offsets[j + 1]], equal to
    _oscillation_breakpoints(mode_j, traj, t_end) (t_end > 0). The uniform
    grids (numpy.linspace arithmetic) and the mode-phase times of all
    modes are computed as whole arrays with the same elementwise
    arithmetic as for one mode, and one sort by (mode, time) merges them.
    """
    n_uniform = np.maximum(1, np.ceil(t_end / (_START_PANEL_PHASE / omega))).astype(np.intp)
    counts = n_uniform + 1
    grid = _local_index(counts, 0) * np.repeat(t_end / n_uniform, counts)
    grid[np.cumsum(counts) - 1] = t_end
    cc = ks * math.pi / (L * traj.a)
    sweep = cc * (math.cosh(traj.a * t_end) - 1.0)
    n_phase = np.ceil(sweep / _START_PANEL_PHASE).astype(np.intp)
    n_inner = np.maximum(n_phase - 1, 0)
    theta = _local_index(n_inner, 1) * np.repeat(sweep / np.maximum(n_phase, 1), n_inner)
    t = np.concatenate([grid, np.arccosh(1.0 + theta / np.repeat(cc, n_inner)) / traj.a])
    modes = np.arange(ks.size)
    t = t[np.lexsort((t, np.concatenate([np.repeat(modes, counts), np.repeat(modes, n_inner)])))]
    # Every mode runs from 0 to t_end > 0, so a time equal to its
    # predecessor is a repeat within one mode.
    fresh = np.ones(t.size, dtype=bool)
    fresh[1:] = t[1:] != t[:-1]
    counts = [np.count_nonzero(f) for f in _segments(fresh, counts + n_inner)]
    return t[fresh], np.concatenate([[0], np.cumsum(counts)])


def _local_index(counts, start):
    """start..start+counts[j]-1 for each j in turn, as one array."""
    first = np.cumsum(counts) - counts
    return np.arange(start, counts.sum() + start) - np.repeat(first, counts)


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


def _adaptive_panels(kind, phi0, rate, cc, omega, edges, tol, offsets=None):
    """Bisect panels until each segment's error estimates sum to at most its tol.

    A segment is one integral: the panels between consecutive ``edges``
    from offsets[s] to offsets[s + 1] - 1, with phi0, cc, omega and tol
    given as one entry per segment (a block of modes). Without
    ``offsets`` all edges form one segment and the parameters are scalars
    (a batch of one), which is how a single chi is evaluated. Every round
    evaluates the split panels of all segments in one kernel call, and
    each segment refines exactly as it would alone: its own tolerance, its
    own panel count in the split threshold tol/(2*n), and its own verdict.
    Splitting in place keeps each segment's panels contiguous and in
    order, and the per-round bookkeeping is a few Python operations per
    segment.

    Returns (lo, hi, vals, errs, counts, stalls): segment s owns the
    counts[s] panels after those of segments 0..s-1; ``stalls[s]`` is None
    on convergence, else why its refinement stopped: its error sum has not
    shrunk over two rounds, or the round or panel cap was hit.

    The stall rule assumes edges that already resolve the
    oscillation. The half-cycle panels of _oscillation_breakpoints do: at
    half-width pi/2 of a phase even the embedded G7 rule is converged (and
    close to it where the two phases add up to a cycle), so a bisection
    cuts a panel's estimate by about 2**15 (the G7 error goes as h**15)
    until rounding dominates, and an error sum that has not shrunk in two
    rounds sits at the rounding floor. The least resolved
    starting panels are the first accelerated ones, where
    A(t) = cc*(cosh(a*t) - 1) is far from linear; their estimate still
    falls every round. Panels spanning many cycles can go several rounds
    without shrinking and would be reported as stalled.
    """
    if offsets is None:
        lo, hi, seg = edges[:-1], edges[1:], None
        counts, tols = [lo.size], [tol]
    else:
        lo = np.delete(edges, offsets[1:] - 1)
        hi = np.delete(edges, offsets[:-1])
        counts, tols = (np.diff(offsets) - 1).tolist(), np.asarray(tol).tolist()
        seg = np.repeat(np.arange(len(counts)), counts)

    def integrate(which, a, b):
        if which is None:
            return kernels.panel_integrals(kind, phi0, rate, cc, omega, a, b)
        return kernels.panel_integrals(kind, phi0[which], rate, cc[which], omega[which], a, b)

    vals, errs = integrate(seg, lo, hi)
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
        mask = errs > (thresholds[0] if seg is None else np.repeat(thresholds, counts))
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
        if seg is not None:
            seg = np.repeat(seg, reps)
        half_vals, half_errs = integrate(None if seg is None else seg[slots], half_lo, half_hi)
        lo, hi, vals, errs = (np.repeat(x, reps) for x in (lo, hi, vals, errs))
        lo[slots], hi[slots], vals[slots], errs[slots] = half_lo, half_hi, half_vals, half_errs
        counts = [n + k for n, k in zip(counts, splits)]
        history.append([e.sum() for e in _segments(errs, counts)])
    return lo, hi, vals, errs, counts, stalls


def _quadrature_prefix(mode, coupling, traj, taus, tol):
    """chi at every grid time in one adaptive pass (cumulative panel sums).

    Grid times are inserted as panel edges, so each chi(tau) is an exact
    prefix of the panel decomposition; times past the wall-arrival time
    reuse the frozen full integral. Raises NumericalFailure with the best
    per-sample estimates attached when refinement stalls.
    """
    taus = np.asarray(taus, dtype=float)
    pref = coupling.lam / math.sqrt(mode.k * math.pi)
    if coupling.lam == 0.0 or taus.size == 0:
        return np.zeros(taus.shape, dtype=complex), np.zeros(taus.shape)
    t_wall = wall_time(traj)
    t_end = float(np.max(taus))
    if t_wall is not None:
        t_end = min(t_end, t_wall)
    if t_end <= 0.0:
        return np.zeros(taus.shape, dtype=complex), np.zeros(taus.shape)
    t_clip = np.minimum(taus, t_end)
    bps = _oscillation_breakpoints(mode, traj, t_end)
    bps = np.union1d(bps, t_clip[t_clip > 0.0])
    kind, phi0, rate, cc = _kernel_params(mode, traj)
    tol_i = tol / max(pref, 1e-300)
    lo, hi, vals, errs, _, (stall,) = _adaptive_panels(
        kind, phi0, rate, cc, mode.omega, bps, tol_i
    )
    cum_vals = np.concatenate([[0.0 + 0.0j], np.cumsum(vals)])
    cum_errs = np.concatenate([[0.0], np.cumsum(errs)])
    idx = np.searchsorted(hi, t_clip, side="right")
    chi_vals = -1j * pref * cum_vals[idx]
    chi_errs = pref * cum_errs[idx]
    if stall is not None:
        raise NumericalFailure(
            f"quadrature did not reach tol={tol} after {lo.size} panels: {stall} "
            f"(error estimate {pref * errs.sum():.3e})",
            best=(chi_vals, chi_errs),
            err_estimate=pref * errs.sum(),
        )
    return chi_vals, chi_errs


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
    refinement stalls (callers decide per-sample validity from the errors).
    """
    try:
        return _chi_grid(mode, coupling, traj, taus, tol, force_quadrature)
    except NumericalFailure as exc:
        vals, errs = exc.best
        return vals, errs, ChiBranch.QUADRATURE


def chi_mode_sum(
    cavity: CavityConfig,
    coupling: CouplingSpec,
    traj: TrajectorySpec,
    tau: float,
    rel_tail_tol: float = 1e-9,
    k_max: int | None = None,
    hard_cap: int = 262_144,
    tol: float = DEFAULT_TOL,
) -> float:
    """Sum_k |chi_k(tau)|^2 over cavity modes.

    With ``k_max`` set, sums exactly modes 1..k_max (matched-truncation use,
    e.g. against a mode-by-mode simulation). Otherwise adds blocks of
    _MODE_BLOCK (16) modes until a whole block contributes less than
    ``rel_tail_tol`` of the running sum; reaching ``hard_cap`` modes raises
    NumericalFailure carrying the partial sum. Accelerated modes are
    evaluated a block at a time as one batched quadrature (see
    _abs2_block), each |chi_k|^2 bit-identical to chi_quadrature's. A mode
    whose quadrature stalls raises NumericalFailure naming k and the
    reason, with the partial sum over the modes evaluated so far (the
    failing block's at their best estimates) as ``best``.
    """
    if not rel_tail_tol > 0:
        raise InvalidParameterError(f"rel_tail_tol={rel_tail_tol} must be positive")
    if not tol > 0:
        raise InvalidParameterError(f"tolerance tol={tol} must be positive")
    if tau < 0:
        raise InvalidParameterError(f"proper time tau={tau} must be non-negative")
    if coupling.lam == 0.0 or tau == 0.0:
        return 0.0
    if k_max is not None:
        if k_max < 1:
            raise InvalidParameterError(f"k_max={k_max} must be >= 1")
        return float(np.sum(_abs2_block(np.arange(1, k_max + 1), cavity, coupling, traj, tau, tol)))
    total = 0.0
    k_lo = 1
    while True:
        ks = np.arange(k_lo, min(k_lo + _MODE_BLOCK, hard_cap + 1))
        try:
            block = float(np.sum(_abs2_block(ks, cavity, coupling, traj, tau, tol)))
        except NumericalFailure as exc:
            raise NumericalFailure(
                str(exc), best=total + exc.best, err_estimate=exc.err_estimate
            ) from None
        total += block
        if ks.size == _MODE_BLOCK and total > 0.0 and block < rel_tail_tol * total:
            return total
        k_lo += ks.size
        if k_lo > hard_cap:
            raise NumericalFailure(
                f"mode sum not converged after {hard_cap} modes (partial sum {total})",
                best=total,
            )


def _abs2_block(ks, cavity, coupling, traj, tau, tol):
    """|chi_k(tau)|^2 for an array of mode indices.

    Static and inertial modes use their closed forms. Accelerated modes go
    through _quadrature_abs2 in blocks of _MODE_BLOCK: one adaptive
    quadrature per block, each value bit-identical to
    abs(chi_quadrature(mode_k, ...).value)**2. A stalled mode raises
    NumericalFailure with the float sum over ks evaluated so far as
    ``best``.
    """
    ks = np.asarray(ks)
    if traj.kind is not TrajectoryKind.ACCELERATED:
        omega = np.array([mode_frequency(int(k), cavity.L, cavity.m) for k in ks])
        return np.abs(_closed_form(coupling.lam, ks, cavity.L, omega, traj, tau)) ** 2
    out = np.zeros(ks.shape)
    t_end = min(tau, wall_time(traj))
    if coupling.lam == 0.0 or t_end <= 0.0:
        return out
    for i in range(0, ks.size, _MODE_BLOCK):
        block = ks[i:i + _MODE_BLOCK]
        out[i:i + block.size], stalls, errs = _quadrature_abs2(
            block, cavity, coupling, traj, t_end, tol
        )
        failed = [j for j, stall in enumerate(stalls) if stall is not None]
        if failed:
            j = failed[0]
            raise NumericalFailure(
                f"quadrature did not reach tol={tol} for mode k={block[j]}: {stalls[j]} "
                f"(error estimate {errs[j]:.3e}; {len(failed)} of the {block.size} modes "
                f"{block[0]}..{block[-1]} stalled)",
                best=float(np.sum(out[:i + block.size])),
                err_estimate=float(errs[j]),
            )
    return out


def _quadrature_abs2(ks, cavity, coupling, traj, t_end, tol):
    """|chi_k(t_end)|^2 of accelerated modes ks as one batched quadrature.

    Each mode is a segment of one _adaptive_panels pass, with the starting
    edges, kernel parameters and tolerance chi_quadrature gives it alone,
    so its panels, and hence its value, are the same bits. Returns
    (abs2 per mode, stall reason or None per mode, error estimate per
    mode).
    """
    L = cavity.L
    omega = np.array([mode_frequency(int(k), L, cavity.m) for k in ks])
    edges, offsets = _block_edges(ks, L, omega, traj, t_end)
    q = ks * math.pi
    pref = coupling.lam / np.sqrt(q)
    tol_i = tol / np.maximum(pref, 1e-300)
    _, _, vals, errs, counts, stalls = _adaptive_panels(
        kernels.KIND_ACCELERATED, q * traj.x0 / L, traj.a, q / (L * traj.a), omega,
        edges, tol_i, offsets,
    )
    # Sequential sums, as the prefix sums of a single chi take them.
    sums = np.array([np.cumsum(v)[-1] for v in _segments(vals, counts)])
    chis = -1j * pref * sums
    # Python's abs and ** per mode, as on a ChiValue: np.abs and numpy's
    # square of the same value can differ in the last bit.
    abs2 = [abs(complex(c)) ** 2 for c in chis]
    return abs2, stalls, pref * np.array([e.sum() for e in _segments(errs, counts)])
