"""Panel kernel of the oscillatory response quadrature.

The detector response integral reduces to panel sums of
sin(A(t)) * exp(i*omega*t) where A is the mode phase along the worldline:

    A(t) = phi0                              (static)
    A(t) = phi0 + rate*t                     (inertial, rate = mode-crossing frequency)
    A(t) = phi0 + cc*(cosh(rate*t) - 1)      (accelerated, rate = a, cc = k*pi/(L*a))

phi0, cc and omega are scalars or per-panel arrays (one entry per panel,
broadcast against lo/hi), so panels of several modes on one worldline
share a call; rate is one scalar. Each panel's value and estimate are the
same bits whichever call it comes in.

Rule. Each panel [mid - h, mid + h] is evaluated with the 15-point
Gauss-Kronrod rule K15 (Kronrod 1965; QUADPACK QK15, Piessens et al. 1983).
Its odd-indexed nodes are the 7-point Gauss-Legendre nodes, so the
embedded G7 value comes from the same 15 integrand evaluations and
|K15 - G7| is the per-panel absolute error estimate.

Fold. The nodes come in pairs t = mid +- h*x_j around the centre, and
exp(i*omega*t) = exp(i*omega*mid) * exp(+-i*omega*h*x_j), so with
A+- = sin(A(mid +- h*x_j)) and A0 = sin(A(mid)) each rule reads

    h * exp(i*omega*mid) * (w0*A0 + sum_j w_j*[(A+ + A-)*cos(omega*h*x_j)
                                               + i*(A+ - A-)*sin(omega*h*x_j)]).

The sums are real and the phase factor has modulus 1, so the error
estimate needs no rotation at all.

Why the trigonometry count matters: sin and cos set the kernel's speed.
With numpy 2.4 on a 2-vCPU x86-64 host they take about 28-30 ns per
element for arguments of hundreds of radians (the phases here) and about
10-20 ns below pi/2, against under 2 ns for cosh, exp or a multiply.
The folded rule takes sin A at 15 nodes, cos and sin of the small angles
omega*h*x_j (below pi/2 on the half-cycle panels the quadrature starts
from) at 7, and one cos/sin pair of omega*mid per panel: about 31 calls,
17 of them on large arguments, where separate GL15 and GL7 rules with a
complex exponential per node took about 66, all on large arguments.
"""

from __future__ import annotations

import numpy as np

KIND_STATIC = 0
KIND_INERTIAL = 1
KIND_ACCELERATED = 2

# QUADPACK qk15: the positive Kronrod nodes (descending) with their K15
# weights, then the centre weight. The G7 nodes are _X[1], _X[3], _X[5]
# and the centre.
_X = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_WK0 = 0.209482141084727828012999174891714
_WG = np.array([
    0.0,
    0.129484966168869693270611432679082,
    0.0,
    0.279705391489276667901467771423780,
    0.0,
    0.381830050505118944950369775488975,
    0.0,
])
_WG0 = 0.417959183673469387755102040816327

# Columns: K15 and G7 weights of the folded pair terms.
_W_PAIRS = np.stack([_WK, _WG], axis=1)


def _amplitude(kind, phi0, rate, cc, t):
    """sin(A(t)) elementwise; phi0 and cc broadcast against t."""
    if kind == KIND_STATIC:
        return np.broadcast_to(np.sin(phi0), t.shape)
    if kind == KIND_INERTIAL:
        return np.sin(phi0 + rate * t)
    return np.sin(phi0 + cc * (np.cosh(rate * t) - 1.0))


def _pair_sums(terms):
    """terms.T @ _W_PAIRS by the same BLAS routine for any number of panels.

    ``terms`` is node-major (7, n); the gemm takes its transposed view, so
    every call hands BLAS the same layout. numpy sends a one-row product
    through gemv, which can round the last bit differently from the gemm
    that serves two rows or more; one panel is therefore evaluated as two
    copies.
    """
    if terms.shape[1] == 1:
        return (np.hstack([terms, terms]).T @ _W_PAIRS)[:1]
    return terms.T @ _W_PAIRS


def panel_integrals(kind, phi0, rate, cc, omega, lo, hi):
    """Per-panel integrals with embedded error estimates.

    Returns (values, errors): the K15 value of each panel [lo[p], hi[p]]
    and |K15 - G7| as its absolute error estimate. phi0, cc and omega are
    scalars or arrays shaped like lo.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    # Node-major (7, n): per-panel arrays broadcast along the contiguous
    # panel axis, which numpy runs as a few long loops.
    dt = _X[:, None] * half
    a_plus = _amplitude(kind, phi0, rate, cc, mid + dt)
    a_minus = _amplitude(kind, phi0, rate, cc, mid - dt)
    dt *= omega
    re = _pair_sums((a_plus + a_minus) * np.cos(dt))  # [:, 0] K15, [:, 1] G7
    im = _pair_sums((a_plus - a_minus) * np.sin(dt))
    amp0 = _amplitude(kind, phi0, rate, cc, mid)
    re_k = re[:, 0] + _WK0 * amp0
    err = half * np.hypot(re_k - re[:, 1] - _WG0 * amp0, im[:, 0] - im[:, 1])
    phase = omega * mid
    # Not in place: a one-element in-place complex product rounds differently.
    vals = _complex(np.cos(phase), np.sin(phase)) * _complex(re_k, im[:, 0])
    vals *= half
    return vals, err


def _complex(re, im):
    """re + 1j*im, assembled without complex arithmetic (same bits, fewer passes)."""
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def active_backend() -> str:
    """Name of the implementation behind panel_integrals (numpy only)."""
    return "numpy"
