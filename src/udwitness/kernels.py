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

Trigonometry from one tan. sin and cos set the kernel's speed, so each
sin, or sin/cos pair, comes from one t = tan(x/2) (the Weierstrass
substitution, _sin_half and _sincos_half): sin x = 2t/(1 + t^2) and
cos x = (1 - t^2)/(1 + t^2). The kernel takes sin A at the 15 nodes,
the pairs of omega*h*x_j at 7 and the pair of omega*mid: 23 tans per panel,
where the direct form took 31 sin/cos calls. The absolute error is about
2.2e-16 at most, against 5.6e-17 for libm, far below the rounding of a
phase A of thousands of radians. With numpy 2.4 on a 2-vCPU x86-64 host
with AVX-512, np.sin and np.cos run as scalar libm calls: about 34 ns
per element on random arguments of hundreds of radians or more and 18 ns
below pi/2. np.tan takes numpy's SIMD path there at 3.2-3.5 ns, against
about 1 ns for a multiply or a divide and 2 ns for cosh. A panel then
costs 0.3-0.4 us instead of 0.9-1.2 us on random accelerated panels, and
0.29 us instead of 0.39 us on the figure-scale starting panels, whose
smooth phases libm handles faster. Where numpy has no SIMD tan for the
CPU, np.tan falls back to libm: the accuracy is the same, and most of
the speed-up goes away.

Blocking. panel_integrals evaluates _CHUNK panels at a time, so the
(15, n) temporaries of a block stay in cache whatever the number of
panels; every operation is elementwise or a per-panel row of one gemm,
so a panel's bits do not depend on the block it falls in.
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


# Node-major offsets of the 15 nodes from the panel centre, in units of
# the half-width: rows 0-6 at +x_j, rows 7-13 at -x_j, row 14 the centre.
_NODES = np.concatenate([_X, -_X, [0.0]])[:, None]

#: Panels per block of the kernel's arithmetic. A block's temporaries, a
#: few (15, _CHUNK) float arrays of 240 kB, stay in cache. The starting
#: calls of a figure-scale accelerated chi pass about 5,000 panels; with
#: 2 MB of L2 per core, replaying the calls of one accel-asymptote pass
#: took 0.058-0.060 s in blocks of 1536-3072 panels, 0.086 s in blocks
#: of 4096 and 0.083 s whole.
_CHUNK = 2048


def _sin_half(h):
    """sin 2h = 2t/(1 + t^2) with t = tan(h), written over the float array h.

    Returns (sin 2h, t^2). One tan and one denominator per element. The
    absolute error is about 2.2e-16 at most (libm's sin: 5.6e-17), also
    where t grows without bound (2h near an odd multiple of pi); NaN stays
    NaN.
    """
    np.tan(h, out=h)
    t2 = h * h
    h *= 2.0
    h /= t2 + 1.0
    return h, t2


def _sincos_half(h):
    """(sin 2h, cos 2h) by _sin_half, with cos 2h = (1 - t^2)/(1 + t^2).

    The cos has the same error bound, also where 1 - t^2 cancels (2h near
    an odd multiple of pi/2).
    """
    sin, t2 = _sin_half(h)
    cos = 1.0 - t2
    t2 += 1.0
    cos /= t2
    return sin, cos


def _sincos(x):
    """(sin x, cos x) of x as 1-d or larger arrays, by _sincos_half of x/2."""
    h = np.array(x, dtype=float, ndmin=1)
    h *= 0.5
    return _sincos_half(h)


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
    and |K15 - G7| as its absolute error estimate. lo and hi are 1-d;
    phi0, cc and omega are scalars or arrays shaped like lo. The panels
    are evaluated _CHUNK at a time.
    """
    vals = np.empty(lo.shape, dtype=complex)
    errs = np.empty(lo.shape)
    for a in range(0, lo.size, _CHUNK):
        block = slice(a, a + _CHUNK)
        phi0_b, cc_b, omega_b = (x[block] if np.ndim(x) else x for x in (phi0, cc, omega))
        vals[block], errs[block] = _panel_block(
            kind, phi0_b, rate, cc_b, omega_b, lo[block], hi[block]
        )
    return vals, errs


def _panel_block(kind, phi0, rate, cc, omega, lo, hi):
    """panel_integrals on one block of panels."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    # Half angles throughout: halving is exact, so each tan sees half of
    # the angle the sin or cos would, to the bit. Node-major arrays let
    # per-panel parameters broadcast along the contiguous panel axis.
    if kind == KIND_STATIC:
        pair = (0.5 * omega) * (_X[:, None] * half)
        # One sin per panel, not per node: libm's cost does not matter here.
        amp = np.broadcast_to(np.sin(phi0), (15,) + lo.shape)
    else:
        t = _NODES * half
        pair = (0.5 * omega) * t[:7]
        t += mid
        if kind == KIND_INERTIAL:
            t *= 0.5 * rate
        else:
            t *= rate
            np.cosh(t, out=t)
            t -= 1.0
            t *= 0.5 * cc
        t += 0.5 * phi0
        amp, _ = _sin_half(t)  # sin A at the 15 nodes
    sin_p, cos_p = _sincos_half(pair)  # of omega*h*x_j
    cos_p *= amp[:7] + amp[7:14]
    sin_p *= amp[:7] - amp[7:14]
    re = _pair_sums(cos_p)  # [:, 0] K15, [:, 1] G7
    im = _pair_sums(sin_p)
    amp0 = amp[14]
    re_k = re[:, 0] + _WK0 * amp0
    err = half * np.hypot(re_k - re[:, 1] - _WG0 * amp0, im[:, 0] - im[:, 1])
    sin_m, cos_m = _sincos(omega * mid)
    # Not in place: a one-element in-place complex product rounds differently.
    vals = _complex(cos_m, sin_m) * _complex(re_k, im[:, 0])
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
