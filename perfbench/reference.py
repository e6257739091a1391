"""Independent reference values for the benchmark's correctness gates.

Nothing here imports udwitness. The response amplitude of mode k,

    chi_k(tau) = -i * lam * Integral_0^tau F_k(x(t)) * exp(i*omega_k*t) dt,
    F_k(x) = sin(k*pi*x/L) / sqrt(k*pi),  omega_k = sqrt((k*pi/L)^2 + m^2),

is computed from the model's definition by methods the package does not
use: the accelerated worldline by composite 30-point Gauss-Legendre on
panels that span at most six radians of either phase (the package uses a
15/7-point pair on 1/8-cycle panels), the inertial worldline from the
exponential form of sin written with numpy's sinc (exact through the
resonance, no branch). The witness formulas and their gradients are
written out here again for the same reason.
"""

from __future__ import annotations

import math

import numpy as np

_GL_X, _GL_W = np.polynomial.legendre.leggauss(30)

#: Largest phase change of either oscillation across one panel. Over a
#: panel the integrand then turns by at most 12 rad, which 30-point
#: Gauss-Legendre resolves to rounding: it agrees with 24 points on
#: 1-rad panels to 1e-12 in chi at figure scale, where the phase
#: arguments themselves carry about 3e-12 of rounding.
_PANEL_RAD = 6.0

#: Panels evaluated per vectorised batch; bounds the reference's memory.
_BATCH = 20_000


def _accel_edges(q, omega, a, t_end):
    """Panel edges on [0, t_end] with at most _PANEL_RAD of the mode phase
    A(t) = q*x(t) and at most _PANEL_RAD of omega*t per panel."""
    cc = q / a
    sweep = cc * (math.cosh(a * t_end) - 1.0)
    n_phase = max(1, math.ceil(sweep / _PANEL_RAD))
    theta = np.linspace(0.0, sweep, n_phase + 1)
    t_phase = np.arccosh(1.0 + theta / cc) / a
    t_phase[0], t_phase[-1] = 0.0, t_end
    t_time = np.linspace(0.0, t_end, max(1, math.ceil(omega * t_end / _PANEL_RAD)) + 1)
    return np.union1d(t_phase, t_time)


def critical_velocity(k: int, L: float, m: float) -> float:
    """Velocity at which the mode-crossing frequency k*pi*v*gamma/L equals omega_k."""
    r = k * math.pi / (m * L)
    return math.sqrt((1.0 + r * r) / (1.0 + 2.0 * r * r))


def accel_wall_time(a: float, x0: float, L: float) -> float:
    """Proper time at which x(t) = x0 + (cosh(a*t) - 1)/a reaches L."""
    return math.acosh(1.0 + a * (L - x0)) / a


def accel_chi(k: int, L: float, m: float, lam: float, a: float, x0: float, tau: float) -> complex:
    """chi_k(tau) on the accelerated worldline.

    The detector parks at the wall x = L, where F_k vanishes, so the
    integral stops at the wall-arrival time.
    """
    q = k * math.pi / L
    omega = math.hypot(q, m)
    t_end = min(tau, accel_wall_time(a, x0, L))
    edges = _accel_edges(q, omega, a, t_end)
    total = 0j
    for s in range(0, edges.size - 1, _BATCH):
        e = min(s + _BATCH, edges.size - 1)
        lo, hi = edges[s:e], edges[s + 1 : e + 1]
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t = mid[:, None] + half[:, None] * _GL_X[None, :]
        vals = np.sin(q * (x0 + (np.cosh(a * t) - 1.0) / a)) * np.exp(1j * omega * t)
        total += np.sum(half * (vals @ _GL_W))
    return -1j * lam / math.sqrt(k * math.pi) * total


def inertial_chi(k: int, L: float, m: float, lam: float, v: float, x0: float, taus):
    """chi_k on a grid of proper times for x(t) = x0 + v*t/sqrt(1 - v^2).

    sin(phi + wl*t) = (e^{i(phi+wl*t)} - e^{-i(phi+wl*t)}) / 2i and
    Integral_0^T e^{i*mu*t} dt = T * e^{i*mu*T/2} * sinc(mu*T/(2*pi)).
    """
    q = k * math.pi / L
    omega = math.hypot(q, m)
    gv = v / math.sqrt(1.0 - v * v)
    wl = q * gv
    phi = q * x0
    t = np.minimum(np.asarray(taus, dtype=float), (L - x0) / gv)

    def seg(mu):
        return t * np.exp(0.5j * mu * t) * np.sinc(mu * t / (2.0 * math.pi))

    integral = (np.exp(1j * phi) * seg(omega + wl) - np.exp(-1j * phi) * seg(omega - wl)) / 2j
    return -1j * lam / math.sqrt(k * math.pi) * integral


def fock1_witness(chi):
    """W = 1 - 4|chi|^2 and |dW/dchi| = 8|chi| (gradient in (Re, Im))."""
    chi = np.asarray(chi, dtype=complex)
    return 1.0 - 4.0 * np.abs(chi) ** 2, 8.0 * np.abs(chi)


def cat_witness(alpha0: float, chi):
    """Even cat witness and its gradient magnitude in (Re chi, Im chi)."""
    chi = np.asarray(chi, dtype=complex)
    g = math.exp(-2.0 * alpha0 * alpha0)
    x = 4.0 * alpha0 * chi.real
    y = 4.0 * alpha0 * chi.imag
    w = (np.cos(y) + g * np.cosh(x)) / (1.0 + g)
    grad = 4.0 * alpha0 * np.hypot(np.sin(y), g * np.sinh(x)) / (1.0 + g)
    return w, grad


def time_average(taus, values) -> float:
    """Trapezoidal mean of ``values`` over the whole grid."""
    taus = np.asarray(taus, dtype=float)
    values = np.asarray(values, dtype=float)
    area = float(np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(taus)))
    return area / (taus[-1] - taus[0])
