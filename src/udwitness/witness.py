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

from .errors import InvalidParameterError, NumericalFailure
from .field import CavityConfig
from .response import (
    DEFAULT_TOL,
    ChiBranch,
    ChiValue,
    CouplingSpec,
    chi_series,
    chi_static_amplitude,
)
from .trajectory import TrajectoryKind, TrajectorySpec, wall_time

#: Slack on the classicality bound |W| <= 1 when flagging violations,
#: guarding against float noise exactly at the bound.
BOUND_EPS = 1e-9

_COSH_OVERFLOW = 700.0


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
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 - x
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
    if chi_sum < 0:
        raise InvalidParameterError(f"chi_sum={chi_sum} must be non-negative")
    if 2.0 * chi_sum > _COSH_OVERFLOW:
        raise NumericalFailure(
            f"decoherence exponent 2*chi_sum={2.0 * chi_sum} overflows double precision"
        )
    return complex(w_ratio) * math.exp(2.0 * chi_sum)


def _witness_of_chi(state: StateSpec, chi_arr):
    """Witness values for an array of chi or a single chi; returns (w, ok).

    ``ok`` is False, and w NaN, where the cat witness's cosh overflows.
    """
    chi_arr = np.asarray(chi_arr, dtype=complex)
    ok = np.ones(chi_arr.shape, dtype=bool)
    if state.family in (StateFamily.FOCK, StateFamily.THERMAL):
        # A single chi gets Python's abs and ** on the complex scalar: numpy's
        # abs and square of the same value can differ in the last bit.
        abs2 = abs(complex(chi_arr)) ** 2 if chi_arr.ndim == 0 else np.abs(chi_arr) ** 2
    if state.family is StateFamily.FOCK:
        w = np.asarray(laguerre(state.n, 4.0 * abs2), dtype=complex)
    elif state.family is StateFamily.CAT:
        a0 = state.alpha0.real
        g = math.exp(-2.0 * a0 * a0)
        arg = 4.0 * a0 * chi_arr.real
        ok &= np.abs(arg) <= _COSH_OVERFLOW
        arg = np.where(ok, arg, 0.0)
        w = ((np.cos(4.0 * a0 * chi_arr.imag) + g * np.cosh(arg)) / (1.0 + g)).astype(complex)
        w = np.where(ok, w, np.nan)
    elif state.family is StateFamily.COHERENT:
        w = np.exp(4j * (np.conj(state.alpha0) * chi_arr).imag)
    else:
        w = np.exp(-4.0 * state.nbar * abs2).astype(complex)
    return w, ok


@dataclass(frozen=True)
class WitnessSeries:
    """Witness evaluated on a proper-time grid.

    ``ok`` marks samples whose response evaluation met its tolerance and
    whose witness value is finite; invalid samples hold NaN and never flag
    a violation. ``branch`` is the response branch used for the series.
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
    taus = np.asarray(taus, dtype=float)
    if taus.size == 0:
        raise InvalidParameterError("time grid is empty")
    if not np.all(taus >= 0):
        raise InvalidParameterError("time grid must be non-negative (and not NaN)")
    if taus.size > 1 and not np.all(np.diff(taus) > 0):
        raise InvalidParameterError("time grid must be strictly increasing")
    return taus


def _series_from_chi(state, taus, chi_vals, chi_errs, branch, tol) -> WitnessSeries:
    ok = chi_errs <= tol * (1.0 + 1e-9)
    w, w_ok = _witness_of_chi(state, chi_vals)
    ok &= w_ok
    w = np.where(ok, w, np.nan + 0j)
    w_abs = np.abs(w)
    violates = np.zeros(taus.shape, dtype=bool)
    violates[ok] = w_abs[ok] > 1.0 + BOUND_EPS
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
    if traj.L != cavity.L:
        raise InvalidParameterError(
            f"trajectory clamps at L={traj.L} but the cavity has L={cavity.L}"
        )
    if traj.x0 != cavity.x0:
        raise InvalidParameterError(
            f"trajectory starts at x0={traj.x0} but the cavity prescribes x0={cavity.x0}"
        )
    mode = cavity.mode()
    chi_vals, chi_errs, branch = chi_series(
        mode, coupling, traj, taus, tol=tol, force_quadrature=force_quadrature
    )
    return _series_from_chi(state, taus, chi_vals, chi_errs, branch, tol)


def witness_series_from_omega(
    state: StateSpec, lam: float, omega: float, taus
) -> WitnessSeries:
    """Witness series for a resting detector with the oscillator frequency
    given directly (drive amplitude = lam, no cavity geometry involved)."""
    taus = _validate_grid(taus)
    CouplingSpec(lam)  # validates lam
    if not 0 < omega < math.inf:
        raise InvalidParameterError(f"frequency omega={omega} must be positive and finite")
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
    inner = taus[(taus > t1) & (taus < t2)]
    xs = np.concatenate([[t1], inner, [t2]])
    ys = np.interp(xs, taus, series.w_abs)
    return float(np.trapezoid(ys, xs) / (t2 - t1))


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
    if traj.kind is not TrajectoryKind.ACCELERATED:
        raise InvalidParameterError(
            f"asymptote is defined for accelerated trajectories, got {traj.kind}"
        )
    t_wall = wall_time(traj)
    if t_eval < t_wall:
        raise InvalidParameterError(
            f"evaluation time T={t_eval} precedes wall arrival; minimum valid T is {t_wall}"
        )
    series = witness_series(state, cavity, coupling, traj, [t_eval], tol=tol)
    if not series.ok[0]:
        raise NumericalFailure("asymptote evaluation did not meet the tolerance")
    return float(series.w_abs[0])
