"""Detector response amplitude chi_k(tau).

The response of cavity mode k to a detector with coupling lam moving
along x(tau) is the complex amplitude

    chi_k(tau) = -i * lam * Integral_0^tau F_k(x(t)) * exp(i*omega_k*t) dt,

with F_k the mode profile. Closed forms exist for a static detector and
for inertial motion; uniformly accelerated motion is handled by an
oscillation-aware adaptive quadrature. Once the detector reaches the
right wall the integrand vanishes (F_k(L) = 0), so every chi_k freezes
at its wall-arrival value; the integration explicitly stops there.

Every chi comes from one dispatch over modes and times, _chi_modes: the
closed forms, or one driver, _quadrature, for every quadrature chi
(accelerated, or any worldline with force_quadrature). A series
(chi_series, and chi as its 0-d call) is one mode; chi_modes and its
sum chi_mode_sum take up to _MODE_BLOCK modes a pass (_mode_blocks).
One plan drives the quadrature: _plan gives every mode a column of
(q, omega, t_x, n_t, n_x, sigma), its wavenumber and frequency, its
switch time, its starting panel counts and its K61 grid, and
_mode_blocks, _block_edges and _adaptive_panels read their rows of it.
The kernels take the worldline with each panel's (q, omega) and form the
mode phase q*x(t) on it themselves (kernels' module docstring). In
_quadrature each mode is one segment of a single adaptive pass
(_adaptive_panels) from the panels (lo, hi, counts) of _block_edges,
grid times as edges; chi at a grid time is a sequential prefix sum of
its mode's panels, the same bits alone or in a block. Past one check
(_check_geometry) the internals read L, x0 and the kind from the worldline.

Two rules, one switch. On the accelerated worldline the mode phase
A(t) = q*x(t) (q = k*pi/L) turns at the rate q*sinh(a*t),
about 15,700 rad in all at figure scale (k = 5000, L = 1e4), far more
than the omega_k*t of the detector clock. Up to the switch time t_s,
where that rate reaches 2*omega_k (_plan's t_s), the panels are K61
panels of at most sixteen half cycles of the combined phase
omega_k*t + A(t), which resolve it node by node: equal steps in t at the
largest rate, or equal steps of Psi(t) = hypot(omega_k, q)*sinh(a*t)/a,
whichever takes fewer (_plan). Past t_s each panel is
integrated over position by the x-rule (kernels.filon_integrals), which
takes sin(q*x) exactly and samples only exp(i*omega_k*t)/sinh(a*t), at
most 1/2 there: its starting panels are equal steps in t of at most
_X_PANEL_PHASE of omega_k*t and 1 of a*t. Both kinds are bisected in t
by the same refinement; a panel keeps its rule, since t_s is an edge.
A figure-scale chi takes 253-1,350 integrand evaluations this way, where
resolving the mode phase everywhere took 25,600-26,300. The static and
inertial worldlines (and force_quadrature on them) use K61 alone.

The inertial closed form is evaluated in one
cancellation-free form, exact through the resonance where the
mode-crossing frequency omega_L = k*pi*v/(L*sqrt(1-v^2)) matches omega_k
and the envelope of |chi| grows linearly in tau. Inside a narrow band
around that resonance the result is labelled INERTIAL_RESONANCE_LIMIT.

The closed forms (static, inertial, and chi_static_amplitude for the
oracle and a resting detector of given frequency) are sums of one or two
terms (p + i*q)*Integral_0^tau exp(i*mu*t) dt, all assembled by one
helper, _exp_integrals: one np.tan of each half angle mu*tau/2, the
substitution the panel kernel uses (one SIMD tan per phase in place of
two scalar libm sin calls), and each term's share of Re chi and Im chi,
its coefficient folded in, written or added in place into one complex
array: about a dozen elementwise passes over the grid per term.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels
from .errors import InvalidParameterError, NumericalFailure, _check_cap
from .field import CavityConfig, ModeSpec, mode_frequencies
from .trajectory import TrajectoryKind, TrajectorySpec, wall_time

#: Half-width of the resonance band, relative to omega_k. An inertial chi
#: with |omega_L - omega_k| below it carries the INERTIAL_RESONANCE_LIMIT
#: label; the evaluation is the same cancellation-free form on both sides.
DELTA_RES = 1e-6

_TINY = float(np.finfo(float).tiny)

#: Default absolute tolerance of the adaptive quadrature (on chi itself).
DEFAULT_TOL = 1e-10

_MAX_PANELS = 400_000
#: Largest starting edge table of one pass: modes times the longest rows of
#: K61 and x-rule steps. _MAX_PANELS bounds each mode, this the block,
#: at the table a 16-mode block could reach under _MAX_PANELS: a 64-mode
#: block of 6.39M entries traced a 160 MB peak in 0.17 s. It sizes blocks
#: (_mode_blocks): a full one meets it at 25k starting panels a mode, and
#: a mode of the benchmark's 256-mode sums starts from at most 22, 29 and
#: 29 panels at seeds 1, 2 and 3.
_MAX_EDGE_TABLE = 16 * _MAX_PANELS
_MAX_ROUNDS = 48
#: Largest k_max of a mode sum. A closed-form sum traces 88-120 bytes per
#: mode, 120 MB at the cap, and takes 1.5-1.7 s there.
_MAX_MODES = 1_000_000

#: Modes per block of a mode sum. An accelerated block is one batched
#: adaptive quadrature, and the block bounds its edge and prefix-sum
#: tables (the kernel bounds its own temporaries): a 256-mode sum peaks at
#: 1.33 MB traced in one block, 1.08 MB with 64 modes per block and
#: 0.47 MB with 16. Each block pays a fixed cost per round (an edge
#: build, a K61 call and an x-rule call) of about 0.7 ms, where a panel
#: costs the kernels about 2 us: one accel-mode-sum benchmark pass (16
#: sums of 256 modes) took 114-120 ms with 64 modes per block, 90-99 ms
#: with 128 and 80-87 ms with 256 (thread CPU time, median of 30 passes
#: alternated in one process, two processes; 2-vCPU x86-64, numpy 2.4).
_MODE_BLOCK = 256

#: Largest phase across one starting K61 panel: sixteen half cycles of the
#: faster exponential of the integrand, omega_k*t on a static worldline,
#: (omega_k + omega_L)*t on an inertial one and the combined phase
#: omega_k*t + A(t) on the accelerated one. K61 and its embedded G30 both
#: resolve one such phase to rounding (see _adaptive_panels).
_START_PANEL_PHASE = 16.0 * math.pi
#: Largest advance of omega_k*t across one starting x-rule panel, in rad.
_X_PANEL_PHASE = 10.0


class ChiBranch(Enum):
    STATIC_CLOSED_FORM = "static-closed-form"
    INERTIAL_CLOSED_FORM = "inertial-closed-form"
    INERTIAL_RESONANCE_LIMIT = "inertial-resonance-limit"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class ChiValue:
    """Complex response amplitude with evaluation metadata.

    ``err_estimate`` is 0 for the closed forms. For QUADRATURE it is the
    summed per-panel truncation estimate, |K61 - G30| or the x-rule's last
    Legendre terms (times the coupling prefactor), each floored at eps
    times its panel's length in time, so it is
    never below about eps*tau: it does not bound the rounding of the
    phases omega*t, which on long spans near the inertial resonance can
    exceed it. A tolerance under that floor is reported as a stall.
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


def _exp_integrals(terms, tau):
    """Sum over ``terms`` (mu, p, q) of (p + i*q) * Integral_0^tau exp(i*mu*t) dt.

    Each integral is (sin(mu*tau) + i*(1 - cos(mu*tau)))/mu
    = (2/mu)*u*(1 + i*t) with t = tan(mu*tau/2) and u = t/(1 + t**2): one
    np.tan per term and no cancellation for small |mu*tau| (1 - cos is
    never a difference). A term adds u*(p_mu - q_mu*t) and
    u*(q_mu + p_mu*t), with (p_mu, q_mu) = 2*(p, q)/mu, to the real and
    imaginary parts of one complex array shaped like mu and tau broadcast
    together (the first term writes them). Only real elementwise
    operations are used: like np.tan, they give the same bits for a
    scalar, a one-element array and any layout of a longer one (numpy's
    complex multiply does not), so a one-point chi is the same bits as
    the series element. Where |mu| is below the smallest normal double
    (0 or subnormal), 1/mu can overflow and halving mu*tau loses bits, so
    the limit (p + i*q)*tau is taken: the integral differs from tau by
    about (mu*tau)**2/6 and mu*tau/2 relative to it. mu, p and q are
    scalars or arrays of one shape (a column of modes) that broadcast
    against ``tau``.
    """
    tau = np.asarray(tau, dtype=float)
    for i, (mu, p, q) in enumerate(terms):
        mu = np.asarray(mu, dtype=float)[()]
        at_limit = np.abs(mu).min() < _TINY
        if at_limit:
            limit = abs(mu) < _TINY
            inv = 2.0 / np.where(limit, np.inf, mu)  # 0 where the limit is taken
        else:
            inv = 2.0 / mu
        p_mu, q_mu = p * inv, q * inv
        if i == 0:
            t = np.asarray(np.multiply(0.5 * mu, tau))
            out = np.empty(t.shape, dtype=complex)
            re, im = out.real, out.imag
            u, w = np.empty(t.shape), np.empty(t.shape)
        else:
            np.multiply(0.5 * mu, tau, out=t)
        np.tan(t, out=t)
        np.multiply(t, t, out=u)
        u += 1.0
        np.divide(t, u, out=u)
        for part, a, b, combine in ((re, p_mu, q_mu, np.subtract), (im, q_mu, p_mu, np.add)):
            np.multiply(b, t, out=w)
            combine(a, w, out=w)
            if i == 0:
                np.multiply(w, u, out=part)
            else:
                w *= u
                part += w
        if at_limit:
            out += np.where(limit, p + 1j * q, 0.0) * tau
    return out[()]


def chi_static_amplitude(lam_f, omega, tau):
    """Static response -lam_f*(exp(i*omega*tau) - 1)/omega for drive amplitude lam_f.

    ``tau`` may be a scalar or an array.
    """
    return _exp_integrals([(omega, 0.0, -lam_f)], tau)


def _crossing_frequency(k, traj: TrajectorySpec):
    """Mode-crossing frequency omega_L = k*pi*v/(L*sqrt(1 - v^2)) of mode(s) k on ``traj``."""
    gamma = 1.0 / math.sqrt(1.0 - traj.v**2)
    return k * math.pi * traj.v * gamma / traj.L


def _check_geometry(traj: TrajectorySpec, where) -> None:
    """InvalidParameterError unless ``traj`` clamps at the L of ``where`` (a
    ModeSpec or CavityConfig) and starts at a CavityConfig's x0."""
    if traj.L != where.L:
        raise InvalidParameterError(f"trajectory clamps at L={traj.L} but the cavity has L={where.L}")
    if isinstance(where, CavityConfig) and traj.x0 != where.x0:
        raise InvalidParameterError(
            f"trajectory starts at x0={traj.x0} but the cavity prescribes x0={where.x0}"
        )


def _closed_form(lam, k, omega, traj: TrajectorySpec, taus):
    """chi of mode(s) k at ``taus`` on a static or inertial worldline.

    ``k`` and ``omega`` are scalars or matching arrays of modes that
    broadcast against ``taus``. The inertial integrand
    sin(omega_L*t + phi)*exp(i*omega*t) splits into a fast and a slow
    exponential, the two terms of _exp_integrals, so nothing cancels as
    omega_L -> omega; past the wall-arrival time chi stays at its wall
    value.
    """
    phi = k * math.pi * traj.x0 / traj.L
    if traj.kind is TrajectoryKind.STATIC:
        return chi_static_amplitude(lam * (np.sin(phi) / np.sqrt(k * math.pi)), omega, taus)
    omega_l = _crossing_frequency(k, traj)
    t_eff = np.minimum(taus, wall_time(traj))
    # chi = -i*pref*(e^{i*phi}*I(omega + omega_l) - e^{-i*phi}*I(omega - omega_l))/(2i)
    # with I(mu) = Integral_0^t exp(i*mu*t') dt'
    half = 0.5 * lam / np.sqrt(k * math.pi)
    c, s = half * np.cos(phi), half * np.sin(phi)
    return _exp_integrals([(omega + omega_l, -c, -s), (omega - omega_l, c, -s)], t_eff)


def _closed_branch(mode: ModeSpec, traj: TrajectorySpec) -> ChiBranch:
    if traj.kind is TrajectoryKind.STATIC:
        return ChiBranch.STATIC_CLOSED_FORM
    omega_l = _crossing_frequency(mode.k, traj)
    if abs(omega_l - mode.omega) < DELTA_RES * mode.omega:
        return ChiBranch.INERTIAL_RESONANCE_LIMIT
    return ChiBranch.INERTIAL_CLOSED_FORM


def _checked_times(taus, traj: TrajectorySpec):
    """``taus`` as a float array; InvalidParameterError names the first bad time.

    A time must be >= 0, so NaN is rejected, and finite on a static
    worldline, whose chi never freezes at a wall.
    """
    taus = np.asarray(taus, dtype=float)
    static = wall_time(traj) is None
    # One reduction a bound (NaN propagates through min); the element mask
    # is built only to name a refused time.
    if taus.min(initial=0.0) >= 0 and (not static or taus.max(initial=0.0) < math.inf):
        return taus
    need, ok = "non-negative", taus >= 0
    if static:
        need, ok = "non-negative and finite on a static worldline", ok & (taus < math.inf)
    raise InvalidParameterError(f"proper time tau={taus[~ok].flat[0]} must be {need}")


def _checked_phase(omega, taus, traj=None):
    """The last time chi integrates to over ``taus``; InvalidParameterError
    unless the phase omega*tau is finite up to it.

    chi is frozen past the wall-arrival time of ``traj``, so the phase
    counts only up to it.
    """
    t_end = float(taus.max(initial=0.0))
    t_wall = None if traj is None else wall_time(traj)
    if t_wall is not None:
        t_end = min(t_end, t_wall)
    if not math.isfinite(omega * t_end):
        raise InvalidParameterError(
            f"phase omega*tau is not finite for omega={omega} at tau={t_end}"
        )
    return t_end


def _stall_text(tol, k, reason, err_estimate, detail=""):
    """Message of a quadrature that stopped short of ``tol`` on mode k."""
    return (
        f"quadrature did not reach tol={tol} for mode k={k}: {reason} "
        f"(error estimate {err_estimate:.3e}{detail})"
    )


def _chi_modes(ks, omega, coupling, traj, taus, tol, force_quadrature):
    """(chi, err, stalls, quad) of modes ``ks`` (frequencies ``omega``) on the grid ``taus``.

    The one branch dispatch: all modes by their closed forms at once, with
    zero error, or with ``quad`` (accelerated, or force_quadrature) by
    _quadrature, one pass per block of _mode_blocks, all planned first.
    chi[j] and err[j] are shaped like ``taus``; stalls[j] is None unless
    mode j stopped short of ``tol``, at its best estimates.
    """
    taus = _checked_times(taus, traj)
    t_end = _checked_phase(float(omega.max()), taus, traj)
    if not 0 < tol < math.inf:
        raise InvalidParameterError(f"tolerance tol={tol} must be positive and finite")
    quad = force_quadrature or traj.kind is TrajectoryKind.ACCELERATED
    shape = (ks.size,) + taus.shape
    if not quad:
        per_mode = (-1,) + (1,) * taus.ndim
        k, w = ks.reshape(per_mode), omega.reshape(per_mode)
        if ks.size == 1:
            # As Python scalars: a 1-element mode axis made a 6000-sample
            # series 4-6% slower, and velocity-average run_s 4% slower.
            k, w = ks.item(), omega.item()
        chi = _closed_form(coupling.lam, k, w, traj, taus).reshape(shape)
        return chi, np.zeros(shape), [None] * ks.size, quad
    chi, err, stalls = np.zeros(shape, dtype=complex), np.zeros(shape), [None] * ks.size
    if coupling.lam > 0.0 and t_end > 0.0:
        plan = _plan(ks, omega, traj, t_end)
        for b in _mode_blocks(plan):
            chi[b], err[b], stalls[b] = _quadrature(ks[b], coupling, traj, taus, t_end, tol, plan[:, b])
    return chi, err, stalls, quad


def _chi_grid(mode, coupling, traj, taus, tol, force_quadrature):
    """(values, errors, branch, stall) of one mode's chi on the grid ``taus``."""
    _check_geometry(traj, mode)
    chis, errs, (stall,), quad = _chi_modes(
        np.array([mode.k]), np.array([mode.omega]), coupling, traj, taus, tol, force_quadrature
    )
    return chis[0], errs[0], ChiBranch.QUADRATURE if quad else _closed_branch(mode, traj), stall


def critical_velocity(mode: ModeSpec) -> float:
    """Velocity at which the mode-crossing frequency matches omega_k.

    sqrt((1 + s^2)/(2 + s^2)) = 1/sqrt(1 + 1/(1 + s^2)) with
    s = m*L/(k*pi), taken through two hypots so that no square overflows:
    1/sqrt(2) for a massless field, 1 where m*L overflows.
    """
    s = mode.m * mode.L / (mode.k * math.pi)
    return 1.0 / math.hypot(1.0, 1.0 / math.hypot(s, 1.0))


# ---------------------------------------------------------------------------
# adaptive quadrature
# ---------------------------------------------------------------------------


def _plan(ks, omega, traj: TrajectorySpec, t_end: float):
    """The (6, modes) plan of modes ``ks`` (frequencies ``omega``) up to
    t_end: rows q, omega, t_x, n_t, n_x, sigma, column j mode j's.

    q = k*pi/L and omega are what the kernels take with the worldline
    (their mode phase is q*x(t)). t_x = min(t_s, t_end) ends the K61
    range, and n_t and n_x count its starting K61 panels and the x-rule's
    past it. t_s, the switch to the x-rule, is where the mode phase's rate
    q*sinh(a*t) reaches 2*omega_k; infinite off the accelerated worldline.
    Every entry is elementwise arithmetic on its own mode, so column j is
    the same bits in any plan.

    The n_t K61 steps are equal in t, each of at most _START_PANEL_PHASE
    at the largest rate on [0, t_x], where sigma = 0. On the accelerated
    worldline a mode takes equal steps of
    Psi(t) = hypot(omega_k, q)*sinh(a*t)/a instead where they need fewer
    panels, and sigma = sinh(a*t_x)/n_t is its step in sinh(a*t).
    Psi' = hypot(omega_k, q)*cosh(a*t) >= omega_k + q*sinh(a*t)
    (Cauchy-Schwarz), so a step of at most _START_PANEL_PHASE in Psi is one
    in the combined phase too, and Psi grows slowly early, as that phase
    does. A mode of one panel keeps it, so a pass of such modes skips the
    Psi count.

    A mode of more than _MAX_PANELS starting panels raises
    NumericalFailure.
    """
    q = ks * (math.pi / traj.L)
    accelerated = traj.kind is TrajectoryKind.ACCELERATED
    if accelerated:
        # t_s = asinh(2*omega_k/q)/a, taken only where it is below t_end: it
        # overflows for a tiny a.
        a_t_s = np.arcsinh(2.0 * omega / q)
        t_x = np.full(ks.shape, t_end)
        np.divide(a_t_s, traj.a, out=t_x, where=a_t_s < float(traj.a) * t_end)
        s_x = np.sinh(traj.a * t_x)
        rate = omega + q * s_x
    else:
        # The faster of the integrand's two exponentials turns at
        # omega_k + omega_L (omega_L = 0 at rest, where v = 0).
        t_x, rate = np.full(ks.shape, t_end), omega + _crossing_frequency(ks, traj)
    n_t = np.maximum(1.0, np.ceil(t_x / (_START_PANEL_PHASE / rate)))
    sigma = np.zeros(ks.shape)
    if accelerated and n_t.max() > 1.0:
        # Psi(t_x) >= hypot(omega_k, q)*t_x, also where a*t_x underflows.
        psi_x = np.hypot(omega, q) * np.maximum(s_x / traj.a, t_x)
        n_psi = np.maximum(1.0, np.ceil(psi_x / _START_PANEL_PHASE))
        psi = n_psi < n_t
        np.divide(s_x, n_psi, out=sigma, where=psi)
        n_t = np.where(psi, n_psi, n_t)
    n_x = np.ceil((t_end - t_x) * np.maximum(omega / _X_PANEL_PHASE, traj.a))
    n_start = n_t + n_x
    if n_start.max() > _MAX_PANELS:
        j = n_start.argmax()
        _check_cap(
            f"the starting panel count of mode k={ks[j]} up to tau={t_end}",
            n_start[j], "panel", _MAX_PANELS,
        )
    return np.array([q, omega, t_x, n_t, n_x, sigma])


def _mode_blocks(plan):
    """Consecutive slices of the modes of ``plan`` (_plan), each of at most
    _MODE_BLOCK modes whose padded edge table fits _MAX_EDGE_TABLE (one
    mode does, holding at most _MAX_PANELS); a plan that is such a block
    itself is one slice."""
    n_t, n_x = plan[3:5]
    if n_t.size <= _MODE_BLOCK and (n_t.max() + n_x.max()) * n_t.size <= _MAX_EDGE_TABLE:
        return [slice(0, n_t.size)]
    blocks, i = [], 0
    while i < n_t.size:
        t, x = n_t[i:i + _MODE_BLOCK], n_x[i:i + _MODE_BLOCK]
        # The padded table of the first j modes grows with j.
        table = (np.maximum.accumulate(t) + np.maximum.accumulate(x)) * np.arange(1, t.size + 1)
        size = int(np.count_nonzero(table <= _MAX_EDGE_TABLE))
        blocks.append(slice(i, i + size))
        i += size
    return blocks


def _block_edges(traj, plan, t_end: float, times):
    """Starting panels on the worldline ``traj`` of the modes of ``plan``
    (_plan) in one pass.

    Returns (lo, hi, counts), three arrays: mode j owns the counts[j]
    panels [lo[p], hi[p]] after those of modes 0..j-1, contiguous and in
    order from 0 to t_end > 0. Their edges merge three sets of times:

    - the plan's n_t K61 panels on [0, t_x], with t_x the smaller of t_end
      and the switch time t_s. Each spans at most sixteen half cycles
      (_START_PANEL_PHASE) of the faster exponential of the integrand:
      omega_k on a static worldline, omega_k + omega_L with the
      mode-crossing omega_L on an inertial one, and the combined phase
      omega_k*t + A(t) on an accelerated one. Edge i is at i*t_x/n_t
      (numpy.linspace arithmetic) where the plan's sigma is 0, and at
      asinh(i*sigma)/a, equal steps of Psi, where it is not;
    - on an accelerated worldline past t_s, the plan's n_x x-rule panels:
      equal steps from t_x to t_end of at most _X_PANEL_PHASE of
      omega_k*t and at most 1 of a*t;
    - the grid ``times`` in (0, t_end], so that chi at each of them is a
      prefix of the panel sum.

    Row j of one table holds mode j's times, padded with t_end; every
    entry comes from the same elementwise arithmetic whatever the other
    rows, so a mode's panels do not depend on the modes it is built with.
    Each row is sorted, and every step up between neighbours is a panel.
    """
    t_x, n_t, n_x, sigma = plan[2:, :, None]
    n_max = n_t.max()
    i = np.arange(n_max + 1.0)
    k61 = i * (t_x / n_t)
    if n_max > 1.0 and sigma.any():  # a Psi grid has two panels or more
        k61 = np.where(sigma > 0.0, np.arcsinh(i * sigma) / traj.a, k61)
    k61 = np.where(i < n_t, k61, t_end)
    i = np.arange(n_x.max())
    x_rule = np.where(i < n_x, t_x + i * ((t_end - t_x) / np.maximum(n_x, 1.0)), t_end)
    times = times[None, :].repeat(t_x.size, axis=0)
    table = np.concatenate([k61, x_rule, times], axis=1)
    table.sort(axis=1)
    lo, hi = table[:, :-1], table[:, 1:]
    step = hi != lo
    return lo[step], hi[step], step.sum(axis=1)


def _segment_sums(x, counts):
    """Per-segment sums of x, counts[s] elements to segment s (an array of
    counts, each at least 1): an array of floats for a float x, and of
    integer counts for a boolean one.

    np.add.reduceat reduces each segment's slice on its own, so a
    segment's sum does not depend on the segments around it.
    """
    return np.add.reduceat(x, counts.cumsum() - counts)


def _stop_reason(history, s, n, floor):
    """Why segment s, with n panels, stops refining short of its tolerance
    (or with an error sum that is not finite, which no split mends).

    ``floor`` is the segment's rounding floor, eps times its span: its
    panels' floors ERR_FLOOR*(hi - lo) add up to it within n ulps, and no
    split lowers it. An error sum at the floor (to 1e-9 relative, far
    above those ulps) leaves nothing that a split could remove.
    """
    if not math.isfinite(history[-1][s]):
        return "non-finite error estimate"
    if history[-1][s] <= floor * (1.0 + 1e-9):
        return "stalled at the rounding floor (error sum at eps times the span)"
    if len(history) > 2 and history[-1][s] >= history[-3][s]:
        return "stalled (error sum not shrinking over two rounds)"
    if len(history) > _MAX_ROUNDS:
        return f"round cap {_MAX_ROUNDS} hit"
    if n >= _MAX_PANELS:
        return f"panel cap {_MAX_PANELS} hit"
    return None


def _adaptive_panels(traj, plan, panels, t_end, tol):
    """Bisect panels until each segment's error estimates sum to at most its tol.

    A segment is one integral (one mode) over [0, t_end], cut into the
    starting ``panels`` (lo, hi, counts) of _block_edges: segment s owns
    the counts[s] panels after those of segments 0..s-1. Column s of
    ``plan`` (_plan) gives its q, omega and switch time t_x, and the array
    entry tol[s] its tolerance; both kernels take the worldline ``traj``
    with each panel's (q, omega). A panel of segment s starting at or
    after its t_x (an edge) is an x-rule panel (kernels.filon_integrals),
    and every other one a K61 panel (all of them off the accelerated
    worldline, where t_x = t_end). Every round evaluates the split panels
    of all segments in one call per rule, and each segment refines exactly
    as it would alone: its own tolerance, its own panel count in the split
    threshold tol/(2*n), and its own verdict. Splitting in place keeps
    each segment's panels contiguous and in order. The per-segment counts,
    running flags and error sums are arrays, so a round tests every
    segment with one comparison and builds the split thresholds in one
    pass; only a segment that missed its tolerance is looked at in Python
    (_stop_reason).

    Returns (lo, hi, vals, errs, counts, stalls): segment s owns the
    counts[s] panels (an array) after those of segments 0..s-1; the list
    entry ``stalls[s]`` is None on convergence, else why its refinement
    stopped: its error sum is not finite (a NaN sum is never taken as
    converged), it sits at the kernel's rounding floor, which no split
    lowers, it has not shrunk over two rounds, or the round or panel cap
    was hit.

    The stall rule assumes edges on which both rules are in their
    convergent range. sin(A)*exp(i*omega*t) is a sum of two exponentials
    whose phase rates are omega +- dA/dt (dA/dt = omega_L on an inertial
    worldline), and each starting K61 panel of _block_edges spans at most
    sixteen half cycles of the faster one, whose rate Phi' = omega + |dA/dt|
    grows along the accelerated worldline. Take kappa = Phi'(hi)*(hi - lo)/2,
    the largest rate times the half-width. The n-point Gauss error on
    exp(i*kappa*x) over [-1, 1] is bounded by about (e*kappa/(4*n))**(2*n)
    (the Taylor remainder with Stirling's formula), below 1 for
    kappa < 4*30/e ~ 44, and each bisection at least halves kappa, so the
    bound falls by about 2**60 per round until rounding dominates. Equal
    steps in t at the largest rate give kappa <= 8*pi ~ 25.1. On the Psi
    grid, write omega_k = H*cos(th) and q = H*sin(th) with H = hypot(omega_k, q):
    a Psi step of at most 16*pi bounds kappa by
    8*pi*(cos(th) + sin(th)*sinh(x))*x/sinh(x) with x = a*hi, at worst on
    a first panel [0, hi], and sinh(x) <= 2*cot(th) up to t_s; so kappa
    <= 8*pi*max_s 3*asinh(s)/sqrt(s**2 + 4) ~ 8*pi*1.55 ~ 38.9 (38.5 the
    largest over the benchmark's inputs, the sweep test's and 60
    figure-scale a). Measured on a unit-length panel of exp(i*omega*t):
    |K61 - G30| is at the rounding floor (2.2e-16) at 12, 14 and 16 half
    cycles, then 7.3e-15 at 18, 1.8e-12 at 20 and 1.5e-8 at 24, and one
    bisection brings the last to rounding level; K61 itself is converged
    up to about 36. An x-rule panel samples only
    exp(i*omega*t)/sinh(a*t), whose starting panels span at most 10 rad
    of omega*t (5 per half-width, where the degree-22 and 23 Legendre
    coefficients of exp(5i*s) are 3.2e-12 and 3.6e-13) and 1 of a*t
    (1/sinh(a*t) changes by at most a factor e), so its last terms, and
    the estimate, fall with every bisection whatever the mode phase does.
    So an error sum that has not shrunk in two rounds sits at the
    rounding floor.
    """
    lo, hi, counts = panels

    def integrate(per_segment, a, b):
        """Kernel calls on panels a..b, per_segment[s] of them from segment s."""
        per_panel = plan[:3].repeat(per_segment, axis=1)  # q, omega, t_x
        # Bisection keeps a panel on its side of the switch time.
        on_x = a >= per_panel[2]
        vals, errs = np.empty(a.shape, dtype=complex), np.empty(a.shape)
        for rule, on in ((kernels.panel_integrals, ~on_x), (kernels.filon_integrals, on_x)):
            if on.any():
                q, omega = per_panel[:2].compress(on, axis=1)
                vals[on], errs[on] = rule(traj, q, omega, a[on], b[on])
        return vals, errs

    vals, errs = integrate(counts, lo, hi)
    stalls = [None] * counts.size
    history, running = [], True  # every segment runs until it stops
    while True:
        history.append(_segment_sums(errs, counts))
        running = running & ~(history[-1] <= tol)  # NaN included
        missed = running.nonzero()[0].tolist()
        for s in missed:
            stalls[s] = _stop_reason(history, s, counts[s], kernels.ERR_FLOOR * t_end)
            running[s] = stalls[s] is None
        if all(stalls[s] is not None for s in missed):  # no segment runs on
            break
        # A running segment's error sum exceeds its tol, so one of its n
        # panels exceeds tol/(2*n): every round splits a panel of each.
        mask = errs > np.where(running, tol / (2.0 * counts), math.inf).repeat(counts)
        splits = _segment_sums(mask, counts)
        # Each split panel is replaced in place by its two halves.
        split_lo, split_hi = lo[mask], hi[mask]
        mid = 0.5 * (split_lo + split_hi)
        half_lo = np.array([split_lo, mid]).T.ravel()
        half_hi = np.array([mid, split_hi]).T.ravel()
        reps = mask + 1
        slots = mask.repeat(reps).nonzero()[0]
        half_vals, half_errs = integrate(2 * splits, half_lo, half_hi)
        lo, hi, vals, errs = (x.repeat(reps) for x in (lo, hi, vals, errs))
        lo[slots], hi[slots], vals[slots], errs[slots] = half_lo, half_hi, half_vals, half_errs
        counts = counts + splits
    return lo, hi, vals, errs, counts, stalls


def _quadrature(ks, coupling, traj, taus, t_end, tol, plan):
    """chi of modes ``ks`` at every grid time in one adaptive pass up to
    ``t_end`` > 0, from their ``plan`` (_plan).

    Each mode is one segment of a single _adaptive_panels pass from the
    panels of _block_edges, K61 up to the plan's t_x = min(t_s, t_end) and
    the x-rule past it (every panel starts before t_end, so t_x picks the
    panels t_s would). The grid times are edges, so each chi_k(tau) is an
    exact prefix of its mode's panel sum; times past the wall-arrival time
    reuse the frozen full integral. A mode's values are the same bits
    whichever modes it is evaluated with.

    Returns (chi, err, stalls): chi[j] and err[j] are mode j's values and
    summed panel estimates on the grid (shaped like ``taus``), and
    stalls[j] is None on convergence, else why its refinement stopped (the
    values are then its best estimates).
    """
    t_clip = np.minimum(taus, t_end)
    panels = _block_edges(traj, plan, t_end, t_clip[t_clip > 0.0])
    pref = coupling.lam / np.sqrt(ks * math.pi)
    _, hi, vals, errs, counts, stalls = _adaptive_panels(
        traj, plan, panels, t_end, tol / np.maximum(pref, 1e-300)
    )
    # Row j of plane 0 (values) and plane 1 (errors, complex with zero
    # imaginary part: their real parts add exactly as reals do) holds 0 and
    # mode j's running panel sums; the zeros after its last panel are unread.
    width = counts.max() + 1
    shift = np.arange(ks.size) * width - (counts.cumsum() - counts)
    slots = np.arange(hi.size) + (shift + 1).repeat(counts)
    table = np.zeros((2, ks.size * width), dtype=complex)
    table[:, slots] = vals, errs
    rows = table.reshape(2, ks.size, width)
    rows.cumsum(axis=2, out=rows)
    # A grid time's prefix ends with the last panel ending at or before it.
    # One search over all modes: the keys j + i*hi of the panels are in
    # order, since complex numbers sort by real part, then imaginary.
    per_mode = (-1,) + (1,) * taus.ndim
    modes = np.arange(ks.size).reshape(per_mode)
    keys = np.arange(ks.size).repeat(counts) + 1j * hi
    last = keys.searchsorted(modes + 1j * t_clip, side="right")
    sums = table[:, last + shift.reshape(per_mode)]
    return (-1j * pref).reshape(per_mode) * sums[0], pref.reshape(per_mode) * sums[1].real, stalls


def chi(
    mode: ModeSpec,
    coupling: CouplingSpec,
    traj: TrajectorySpec,
    tau: float,
    tol: float = DEFAULT_TOL,
    force_quadrature: bool = False,
) -> ChiValue:
    """Response amplitude at one time: the grid evaluation at [tau].

    Static and inertial trajectories use their closed forms (clamped at the
    wall-arrival time, past which chi is frozen); accelerated motion goes
    through quadrature. ``force_quadrature`` routes everything through
    quadrature, for validation runs. A quadrature stall raises
    NumericalFailure with the best ChiValue.
    """
    vals, errs, branch, stall = _chi_grid(mode, coupling, traj, [tau], tol, force_quadrature)
    c = ChiValue(complex(vals[0]), branch, float(errs[0]))
    if stall is not None:
        raise NumericalFailure(
            _stall_text(tol, mode.k, stall, c.err_estimate), best=c, err_estimate=c.err_estimate
        )
    return c


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
    and raises NumericalFailure only when the starting panels would exceed
    a cap.
    """
    return _chi_grid(mode, coupling, traj, taus, tol, force_quadrature)[:3]


def _abs2_sum(chis) -> float:
    """Sum_k |chi_k|^2 of a complex array, as one np.abs, square and sum."""
    return float(np.sum(np.abs(chis) ** 2))


def chi_modes(
    cavity: CavityConfig,
    coupling: CouplingSpec,
    traj: TrajectorySpec,
    tau: float,
    k_max: int,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """chi_k(tau) of cavity modes k = 1..k_max, as a complex array.

    ``tau`` is one time; an accelerated chi_k is bit-identical to chi(...,
    force_quadrature=True)'s. A stall is raised once every mode is evaluated:
    NumericalFailure names the first stalled k, with chi_mode_sum's
    Sum_k |chi_k|^2 of the best estimates as ``best``.
    """
    if not isinstance(k_max, numbers.Integral) or k_max < 1:
        raise InvalidParameterError(f"k_max={k_max} must be an integer >= 1")
    if np.ndim(tau) != 0:
        raise InvalidParameterError(f"proper time tau={tau!r} must be a scalar")
    _check_cap("k_max", k_max, "mode", _MAX_MODES)
    ks = np.arange(1, k_max + 1)
    omega = mode_frequencies(k_max, cavity.L, cavity.m)
    _check_geometry(traj, cavity)
    chis, errs, stalls, _ = _chi_modes(ks, omega, coupling, traj, tau, tol, False)
    failed = [j for j, stall in enumerate(stalls) if stall is not None]
    if failed:
        j, detail = failed[0], f"; {len(failed)} of modes 1..{k_max} stalled"
        raise NumericalFailure(
            _stall_text(tol, ks[j], stalls[j], errs[j], detail),
            best=_abs2_sum(chis),
            err_estimate=float(errs[j]),
        )
    return chis


def chi_mode_sum(
    cavity: CavityConfig,
    coupling: CouplingSpec,
    traj: TrajectorySpec,
    tau: float,
    k_max: int,
    tol: float = DEFAULT_TOL,
) -> float:
    """Sum_k |chi_k(tau)|^2 of chi_modes over modes 1..k_max, an exact truncation
    for matched-truncation use, e.g. against a mode-by-mode simulation.

    The sum is float(np.sum(np.abs(chi_modes(...)) ** 2)), bit for bit. A
    stall raises chi_modes' NumericalFailure, whose ``best`` is this sum.
    """
    return _abs2_sum(chi_modes(cavity, coupling, traj, tau, k_max, tol))
