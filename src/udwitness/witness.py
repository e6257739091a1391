"""Nonclassicality witness: closed forms per state family, series, metrics.

With a single probed cavity mode prepared in a test state (all other
modes in vacuum), the witness value at proper time tau is a function of
the probed mode's response amplitude chi alone:

    Fock |N>      L_N(4*|chi|^2)                         (Laguerre polynomial)
    cat(a0)       [cos(4*a0*Im chi) + e^{-2*a0^2} * cosh(4*a0*Re chi)]
                  / (1 + e^{-2*a0^2})
    coherent(a0)  exp(4i * Im(conj(a0)*chi))             modulus exactly 1
    thermal(nbar) exp(-4*nbar*|chi|^2)                   in (0, 1]

|W| > 1 witnesses a non-positive P-representation of the probed mode's
initial state; coherent and thermal states never violate the bound. The
experimental route to the same number divides the detector coherence
ratio w(tau)/w(0) by the multimode decoherence factor
exp(-2*Sum_k |chi_k|^2), see extract_witness.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameterError, NumericalFailure, _check_cap
from .field import CavityConfig
from .response import (
    DEFAULT_TOL,
    ChiBranch,
    ChiValue,
    CouplingSpec,
    _check_geometry,
    _checked_phase,
    chi_series,
    chi_static_amplitude,
)
from .trajectory import TrajectoryKind, TrajectorySpec, wall_time

#: Slack on the classicality bound |W| <= 1 when flagging violations,
#: guarding against float noise exactly at the bound.
BOUND_EPS = 1e-9

_COSH_OVERFLOW = 700.0

#: Largest Laguerre degree, the Fock N of a witness. The recurrence takes
#: 2.5 us a degree on one sample and 17 us on 2000: 2.5 and 17 s at the cap.
_MAX_LAGUERRE_DEGREE = 1_000_000


class StateFamily(Enum):
    FOCK = "fock"
    CAT = "cat"
    COHERENT = "coherent"
    THERMAL = "thermal"


@dataclass(frozen=True)
class StateSpec:
    """Field-state family occupying the probed mode; all other modes vacuum."""

    family: StateFamily
    n: int = 0
    alpha0: complex = 0j
    nbar: float = 0.0

    def __post_init__(self):
        if self.family is StateFamily.FOCK and (self.n < 0 or self.n != int(self.n)):
            raise InvalidParameterError(f"Fock occupation N={self.n} must be a non-negative integer")
        if self.family is StateFamily.CAT:
            if self.alpha0.imag != 0 or not 0 < self.alpha0.real < math.inf:
                raise InvalidParameterError(
                    f"cat amplitude alpha0={self.alpha0} must be real, positive and finite"
                )
        if self.family is StateFamily.COHERENT and not cmath.isfinite(self.alpha0):
            raise InvalidParameterError(f"coherent amplitude alpha0={self.alpha0} must be finite")
        if self.family is StateFamily.THERMAL and not 0 <= self.nbar < math.inf:
            raise InvalidParameterError(f"thermal occupation nbar={self.nbar} must be >= 0 and finite")

    @classmethod
    def fock(cls, n: int) -> "StateSpec":
        return cls(StateFamily.FOCK, n=n)

    @classmethod
    def cat(cls, alpha0: float) -> "StateSpec":
        return cls(StateFamily.CAT, alpha0=complex(alpha0))

    @classmethod
    def coherent(cls, alpha0: complex) -> "StateSpec":
        return cls(StateFamily.COHERENT, alpha0=complex(alpha0))

    @classmethod
    def thermal(cls, nbar: float) -> "StateSpec":
        return cls(StateFamily.THERMAL, nbar=nbar)

    def label(self) -> str:
        if self.family is StateFamily.FOCK:
            return f"fock:{self.n}"
        if self.family is StateFamily.CAT:
            return f"cat:{self.alpha0.real:g}"
        if self.family is StateFamily.COHERENT:
            return f"coherent:{self.alpha0.real:g},{self.alpha0.imag:g}"
        return f"thermal:{self.nbar:g}"


def laguerre(n: int, x):
    """Laguerre polynomial L_n(x) by the stable three-term recurrence.

    (m+1) L_{m+1} = (2m+1-x) L_m - m L_{m-1}; ``x`` scalar or array.
    """
    if n < 0 or n != int(n):
        raise InvalidParameterError(f"Laguerre degree N={n} must be a non-negative integer")
    _check_cap("the Laguerre degree N", n, "degree", _MAX_LAGUERRE_DEGREE)
    x = np.asarray(x, dtype=float)
    if n == 0:
        return np.ones_like(x) if x.ndim else 1.0
    # L_0 = 1 enters the first step as a scalar: m*prev is the same 1.0.
    prev, cur = 1.0, 1.0 - x
    for m in range(1, int(n)):
        prev, cur = cur, ((2 * m + 1 - x) * cur - m * prev) / (m + 1)
    return cur if cur.ndim else float(cur)


def witness_value(state: StateSpec, chi) -> complex:
    """Witness of ``state`` at one response ``chi`` (a complex or a ChiValue).

    A 0-d evaluation of the series formulas; raises NumericalFailure where
    the cat witness's cosh overflows double precision.
    """
    c = chi.value if isinstance(chi, ChiValue) else chi
    w, ok = _witness_of_chi(state, c)
    if not ok:
        raise NumericalFailure(
            f"cosh argument {4.0 * state.alpha0.real * complex(c).real} "
            "overflows double precision in the cat witness"
        )
    return complex(w)


def extract_witness(w_ratio: complex, chi_sum: float) -> complex:
    """Witness from measured coherence: w_ratio * exp(2*Sum_k |chi_k|^2).

    This is the experimental-side path from the detector's off-diagonal
    coherence ratio w(tau)/w(0) to the witness value.
    """
    if not np.isfinite(w_ratio):
        raise InvalidParameterError(f"coherence ratio {w_ratio} is not finite")
    if not 0 <= chi_sum < math.inf:
        raise InvalidParameterError(f"chi_sum={chi_sum} must be non-negative and finite")
    if 2.0 * chi_sum > _COSH_OVERFLOW:
        raise NumericalFailure(
            f"decoherence exponent 2*chi_sum={2.0 * chi_sum} overflows double precision"
        )
    return complex(w_ratio) * math.exp(2.0 * chi_sum)


def _witness_of_chi(state: StateSpec, chi_arr):
    """Witness values for an array of chi or a single chi; returns (w, ok).

    w is real for the Fock, cat and thermal families and complex for the
    coherent one. ``ok`` is a boolean array shaped like chi, False (and w
    NaN) only where the cat witness's cosh overflows.
    """
    chi_arr = np.asarray(chi_arr, dtype=complex)
    ok = np.ones(chi_arr.shape, dtype=bool)
    if state.family in (StateFamily.FOCK, StateFamily.THERMAL):
        # A single chi gets Python's abs and ** on the complex scalar: numpy's
        # abs and square of the same value can differ in the last bit.
        abs2 = abs(complex(chi_arr)) ** 2 if chi_arr.ndim == 0 else np.abs(chi_arr) ** 2
    if state.family is StateFamily.FOCK:
        w = laguerre(state.n, 4.0 * abs2)
    elif state.family is StateFamily.CAT:
        a0 = state.alpha0.real
        g = math.exp(-2.0 * a0 * a0)
        arg = 4.0 * a0 * chi_arr.real
        ok = np.abs(arg) <= _COSH_OVERFLOW
        arg = np.where(ok, arg, 0.0)
        w = (np.cos(4.0 * a0 * chi_arr.imag) + g * np.cosh(arg)) / (1.0 + g)
        w = np.where(ok, w, np.nan)
    elif state.family is StateFamily.COHERENT:
        w = np.exp(4j * (np.conj(state.alpha0) * chi_arr).imag)
    else:
        w = np.exp(-4.0 * state.nbar * abs2)
    return w, ok


@dataclass(frozen=True)
class WitnessSeries:
    """Witness evaluated on a proper-time grid.

    ``ok`` marks samples whose response evaluation met its tolerance and
    whose witness value is finite; invalid samples hold NaN and never flag
    a violation. ``branch`` is the response branch used for the series.
    ``w`` is a real array for Fock, cat and thermal states and a complex
    one for coherent states.
    """

    taus: np.ndarray
    chi: np.ndarray
    chi_err: np.ndarray
    branch: ChiBranch
    w: np.ndarray
    w_abs: np.ndarray
    violates: np.ndarray
    ok: np.ndarray


def _validate_grid(taus) -> np.ndarray:
    """``taus`` as a 1-D float array: non-empty, strictly increasing, from a time >= 0.

    A strictly increasing grid holds no NaN, so its sign is checked at the
    first time alone; response._checked_times, which every chi passes
    through, owns the scan of each time.
    """
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1:
        raise InvalidParameterError(f"time grid must be one-dimensional, got shape {taus.shape}")
    if taus.size == 0:
        raise InvalidParameterError("time grid is empty")
    if taus.size > 1 and not np.all(taus[1:] > taus[:-1]):
        raise InvalidParameterError("time grid must be strictly increasing")
    if not taus.flat[0] >= 0:
        raise InvalidParameterError("time grid must be non-negative (and not NaN)")
    return taus


def _series_from_chi(state, taus, chi_vals, chi_errs, branch, tol) -> WitnessSeries:
    w, ok = _witness_of_chi(state, chi_vals)
    if branch is ChiBranch.QUADRATURE:  # a closed form is exact: only W can fail
        ok &= chi_errs <= tol * (1.0 + 1e-9)
    if not ok.all():
        w = np.where(ok, w, np.nan)  # invalid samples hold NaN
    w_abs = np.abs(w)
    # An invalid sample is NaN, and NaN > 1 is False.
    violates = w_abs > 1.0 + BOUND_EPS
    return WitnessSeries(taus, chi_vals, chi_errs, branch, w, w_abs, violates, ok)


def witness_series(
    state: StateSpec,
    cavity: CavityConfig,
    coupling: CouplingSpec,
    traj: TrajectorySpec,
    taus,
    tol: float = DEFAULT_TOL,
    force_quadrature: bool = False,
) -> WitnessSeries:
    """Witness of ``state`` along ``traj``, sampled on the grid ``taus``."""
    taus = _validate_grid(taus)
    _check_geometry(traj, cavity)
    chi = chi_series(cavity.mode(), coupling, traj, taus, tol, force_quadrature)
    return _series_from_chi(state, taus, *chi, tol)


def witness_series_from_omega(
    state: StateSpec, lam: float, omega: float, taus
) -> WitnessSeries:
    """Witness series for a resting detector with the oscillator frequency
    given directly (drive amplitude = lam, no cavity geometry involved)."""
    taus = _validate_grid(taus)
    CouplingSpec(lam)  # validates lam
    if not 0 < omega < math.inf:
        raise InvalidParameterError(f"frequency omega={omega} must be positive and finite")
    _checked_phase(omega, taus)
    chi_vals = np.asarray(chi_static_amplitude(lam, omega, taus), dtype=complex)
    return _series_from_chi(
        state, taus, chi_vals, np.zeros(taus.shape), ChiBranch.STATIC_CLOSED_FORM, DEFAULT_TOL
    )


def time_averaged_witness(series: WitnessSeries, t1: float, t2: float) -> float:
    """Average of |W| over [t1, t2]: piecewise-linear integral / (t2 - t1)."""
    taus = series.taus
    if not t1 < t2:
        raise InvalidParameterError(f"window [{t1}, {t2}] must have t1 < t2")
    if t1 < taus[0] or t2 > taus[-1]:
        raise InvalidParameterError(
            f"window [{t1}, {t2}] outside the sampled span [{taus[0]}, {taus[-1]}]"
        )
    lo = np.searchsorted(taus, t1, side="right") - 1
    hi = np.searchsorted(taus, t2, side="left")
    if not series.ok[lo : hi + 1].all():
        raise NumericalFailure(
            "window contains invalid samples; tighten the tolerance or refine the grid"
        )
    # Grid points lo + 1 .. hi - 1 lie strictly inside the window; only the
    # two window ends need interpolating. The trapezoid terms
    # dx*(y_right + y_left)/2 are np.trapezoid's over the window's points,
    # formed in one array (interior ones from slices, the two ends in
    # place) and summed as it sums them, so the average is the same bits.
    w_abs = series.w_abs
    y1, y2 = np.interp([t1, t2], taus, w_abs)
    terms = np.empty(hi - lo)
    if hi - lo == 1:
        terms[0] = (t2 - t1) * (y2 + y1) / 2.0
    else:
        inner = terms[1:-1]
        np.subtract(taus[lo + 2 : hi], taus[lo + 1 : hi - 1], out=inner)
        inner *= w_abs[lo + 2 : hi] + w_abs[lo + 1 : hi - 1]
        inner /= 2.0
        terms[0] = (taus[lo + 1] - t1) * (w_abs[lo + 1] + y1) / 2.0
        terms[-1] = (t2 - taus[hi - 1]) * (y2 + w_abs[hi - 1]) / 2.0
    return float(terms.sum() / (t2 - t1))


@dataclass(frozen=True)
class ViolationMetrics:
    first_violation_tau: float | None
    max_abs_w: float
    argmax_tau: float


def violation_metrics(series: WitnessSeries) -> ViolationMetrics:
    """First bound-violating grid time (None if never), max |W| and argmax."""
    if not series.ok.any():
        raise NumericalFailure("series has no valid samples")
    first = None
    if series.violates.any():
        first = float(series.taus[series.violates][0])
    w = np.where(series.ok, series.w_abs, -np.inf)
    i = int(np.argmax(w))
    return ViolationMetrics(first, float(series.w_abs[i]), float(series.taus[i]))


def _asymptote(cavity, coupling, traj, t_eval, tol):
    """|W| at ``t_eval`` as a function of the state, after asymptote_value's
    checks: chi is taken once, here, for a scan over the cat amplitude."""
    if traj.kind is not TrajectoryKind.ACCELERATED:
        raise InvalidParameterError(
            f"asymptote is defined for accelerated trajectories, got {traj.kind}"
        )
    _check_geometry(traj, cavity)
    t_wall = wall_time(traj)
    if not t_eval >= t_wall:
        raise InvalidParameterError(
            f"evaluation time T={t_eval} precedes wall arrival; minimum valid T is {t_wall}"
        )
    # T >= t_wall > 0 is a valid one-sample grid on this cavity's worldline.
    taus = np.asarray([t_eval], dtype=float)
    chi = chi_series(cavity.mode(), coupling, traj, taus, tol)

    def abs_w(state):
        series = _series_from_chi(state, taus, *chi, tol)
        if not series.ok[0]:
            raise NumericalFailure("asymptote evaluation did not meet the tolerance")
        return float(series.w_abs[0])

    return abs_w


def asymptote_value(
    state: StateSpec,
    cavity: CavityConfig,
    coupling: CouplingSpec,
    traj: TrajectorySpec,
    t_eval: float,
    tol: float = DEFAULT_TOL,
) -> float:
    """Late-time constant |W| of a wall-stopped accelerated trajectory.

    ``t_eval`` must not precede the wall-arrival time. Past it every chi_k
    is frozen at its wall value (the integration stops at the wall), so
    the result is |W| at the wall for any such ``t_eval``.
    """
    return _asymptote(cavity, coupling, traj, t_eval, tol)(state)
