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

Rule. Each panel [mid - h, mid + h] is evaluated with the 61-point
Gauss-Kronrod rule K61 (Kronrod 1965; QUADPACK QK61, Piessens et al. 1983),
exact through degree 91. Its odd-indexed nodes are the 30-point
Gauss-Legendre nodes, so the embedded G30 value (exact through degree 59)
comes from the same 61 integrand evaluations and |K61 - G30| is the
per-panel absolute error estimate, floored at the rounding level
ERR_FLOOR*(hi - lo). The nodes and weights are typed in
below; Laurie's algorithm (Laurie 1997, Math. Comp. 66:1133) computes
them, and the tests check them against it. A high-order rule pays on
long panels: the callers start from panels of up to twelve half cycles
of each phase, about 5 nodes per half cycle.

Fold. The nodes come in pairs t = mid +- h*x_j around the centre, and
exp(i*omega*t) = exp(i*omega*mid) * exp(+-i*omega*h*x_j), so with
A+- = sin(A(mid +- h*x_j)) and A0 = sin(A(mid)) each rule reads (G30
has no centre node: w0 = 0)

    h * exp(i*omega*mid) * (w0*A0 + sum_j w_j*[(A+ + A-)*cos(omega*h*x_j)
                                               + i*(A+ - A-)*sin(omega*h*x_j)]).

The sums are real and the phase factor has modulus 1, so the error
estimate needs no rotation at all.

Trigonometry from one tan. sin and cos set the kernel's speed, so each
sin, or sin/cos pair, comes from one t = tan(x/2) (the Weierstrass
substitution, _sin_half and _sincos_half): sin x = 2t/(1 + t^2) and
cos x = (1 - t^2)/(1 + t^2). The kernel takes sin A at the 61 nodes, the
pairs of omega*h*x_j at 30 and the pair of omega*mid: 92 tans per panel,
where the direct form takes 123 sin/cos calls. The absolute error is
about 2.2e-16 at most, against 5.6e-17 for libm, far below the rounding
of a phase A of thousands of radians. With numpy 2.4 on a 2-vCPU x86-64
host with AVX-512, np.sin and np.cos run as scalar libm calls: about
34 ns per element on random arguments of hundreds of radians or more and
18 ns below pi/2. np.tan takes numpy's SIMD path there at 3.2-3.5 ns,
against about 1 ns for a multiply or a divide and 2 ns for cosh; a panel
costs about 0.9 us on random accelerated panels. Where numpy has no SIMD
tan for the CPU, np.tan falls back to libm: the accuracy is the same,
and most of the speed goes away. The closed forms of chi share the
substitution: _sin_versin gives sin x and 1 - cos x = 2t^2/(1 + t^2)
from one tan per phase (on 6000 phases of up to 3000 rad, 45 us against
470 us for np.sin of x and of x/2).

Blocking. panel_integrals evaluates _CHUNK panels at a time, so the
(61, n) temporaries of a block stay in cache whatever the number of
panels; every operation is elementwise or a per-panel row of one gemm,
so a panel's bits do not depend on the block it falls in.
"""

from __future__ import annotations

import numpy as np

KIND_STATIC = 0
KIND_INERTIAL = 1
KIND_ACCELERATED = 2

#: Least error estimate per unit of panel length. The integrand has
#: modulus at most 1 and is evaluated to about machine epsilon absolute at
#: best, so no panel estimate falls below eps*(hi - lo): where K61 and G30
#: agree to the bit, |K61 - G30| alone would read 0.
ERR_FLOOR = float(np.finfo(float).eps)

# The K61/G30 pair of QUADPACK's qk61, to 33 digits of Laurie's algorithm
# run in 40-digit arithmetic: the 30 positive Kronrod nodes (descending)
# with their K61 weights, then the centre weight. The G30 nodes are
# _X[1], _X[3], ..., _X[29]; G30 has no centre node.
_X = np.array([
    0.999484410050490637571325895705811,
    0.996893484074649540271630050918695,
    0.991630996870404594858628366109486,
    0.983668123279747209970032581605663,
    0.973116322501126268374693868423707,
    0.960021864968307512216871025581798,
    0.944374444748559979415831324037439,
    0.926200047429274325879324277080474,
    0.905573307699907798546522558925958,
    0.882560535792052681543116462530226,
    0.857205233546061098958658510658944,
    0.829565762382768397442898119732502,
    0.799727835821839083013668942322683,
    0.767777432104826194917977340974503,
    0.733790062453226804726171131369528,
    0.697850494793315796932292388026640,
    0.660061064126626961370053668149271,
    0.620526182989242861140477556431189,
    0.579345235826361691756024932172540,
    0.536624148142019899264169793311073,
    0.492480467861778574993693061207709,
    0.447033769538089176780609900322854,
    0.400401254830394392535476211542661,
    0.352704725530878113471037207089374,
    0.304073202273625077372677107199257,
    0.254636926167889846439805129817805,
    0.204525116682309891438957671002025,
    0.153869913608583546963794672743256,
    0.102806937966737030147096751318001,
    0.0514718425553176958330252131667226,
])
_WK = np.array([
    0.00138901369867700762455159122675970,
    0.00389046112709988405126720184451550,
    0.00663070391593129217331982636975017,
    0.00927327965951776342844114689202436,
    0.0118230152534963417422328988532506,
    0.0143697295070458048124514324435800,
    0.0169208891890532726275722894203221,
    0.0194141411939423811734089510501285,
    0.0218280358216091922971674857383390,
    0.0241911620780806013656863707252320,
    0.0265099548823331016106017093350754,
    0.0287540487650412928439787853543342,
    0.0309072575623877624728842529430923,
    0.0329814470574837260318141910168539,
    0.0349793380280600241374996707314679,
    0.0368823646518212292239110656171360,
    0.0386789456247275929503486515322811,
    0.0403745389515359591119952797524681,
    0.0419698102151642461471475412859698,
    0.0434525397013560693168317281170733,
    0.0448148001331626631923555516167232,
    0.0460592382710069881162717355593736,
    0.0471855465692991539452614781810995,
    0.0481858617570871291407794922983046,
    0.0490554345550297788875281653672382,
    0.0497956834270742063578115693799423,
    0.0504059214027823468408930856535850,
    0.0508817958987496064922974730498047,
    0.0512215478492587721706562826049442,
    0.0514261285374590259338628792157813,
])
_WK0 = 0.0514947294294515675583404336470993
_WG = np.array([
    0.0,
    0.00796819249616660561546588347467362,
    0.0,
    0.0184664683110909591423021319120473,
    0.0,
    0.0287847078833233693497191796112920,
    0.0,
    0.0387991925696270495968019364463477,
    0.0,
    0.0484026728305940529029381404228075,
    0.0,
    0.0574931562176190664817216894020561,
    0.0,
    0.0659742298821804951281285151159624,
    0.0,
    0.0737559747377052062682438500221907,
    0.0,
    0.0807558952294202153546949384605297,
    0.0,
    0.0868997872010829798023875307151257,
    0.0,
    0.0921225222377861287176327070876188,
    0.0,
    0.0963687371746442596394686263518099,
    0.0,
    0.0995934205867952670627802821035695,
    0.0,
    0.101762389748405504596428952168554,
    0.0,
    0.102852652893558840341285636705415,
])

# Columns: K61 and G30 weights of the folded pair terms.
_W_PAIRS = np.stack([_WK, _WG], axis=1)

_N = _X.size  # node pairs

# Node-major offsets of the 61 nodes from the panel centre, in units of
# the half-width: rows 0-29 at +x_j, rows 30-59 at -x_j, row 60 the centre.
_NODES = np.concatenate([_X, -_X, [0.0]])[:, None]

#: Panels per block of the kernel's arithmetic. A block's temporaries, a
#: few (61, _CHUNK) float arrays of 250 kB, stay in cache. With 2 MB of
#: L2 per core, 20k random accelerated panels took 17.5-18.2 ms in blocks
#: of 512-1024 panels, 26.5-29.9 ms in blocks of 1536 and 34-40 ms in
#: blocks of 2048. A figure-scale accelerated chi starts from one call of
#: about 420 panels, which blocks of 256 or 384 split in two (27.5-28.6 ms
#: per 20k panels against 18.5 ms at 512).
_CHUNK = 512


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


def _sin_versin(x):
    """(sin x, 1 - cos x) of a scalar or array x from one t = tan(x/2):
    2t/(1 + t^2) and 2t^2/(1 + t^2). The trigonometry of the closed forms.

    1 - cos x is never a difference, so it keeps its relative accuracy
    near x = 0 mod 2*pi, as 2*sin(x/2)**2 does. The absolute error of
    either is about 2.2e-16 at most (libm: 5.6e-17 for sin, 2.2e-16 for
    1 - cos). np.tan, not math.tan: np.tan gives the same bits for a
    scalar, a one-element array and any layout of a longer one, so a
    one-point chi is the same bits as the series element.
    """
    t = np.tan(0.5 * np.asarray(x, dtype=float))
    t2 = t * t
    d = t2 + 1.0
    t *= 2.0
    t /= d
    t2 *= 2.0
    t2 /= d
    return t, t2


def _pair_sums(terms):
    """terms.T @ _W_PAIRS by the same BLAS routine for any number of panels.

    ``terms`` is node-major (_N, n); the gemm takes its transposed view, so
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

    Returns (values, errors): the K61 value of each panel [lo[p], hi[p]]
    and |K61 - G30|, floored at ERR_FLOOR*(hi - lo), as its absolute error
    estimate. lo and hi are 1-d;
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
        amp = np.broadcast_to(np.sin(phi0), (2 * _N + 1,) + lo.shape)
    else:
        t = _NODES * half
        pair = (0.5 * omega) * t[:_N]
        t += mid
        if kind == KIND_INERTIAL:
            t *= 0.5 * rate
        else:
            t *= rate
            np.cosh(t, out=t)
            t -= 1.0
            t *= 0.5 * cc
        t += 0.5 * phi0
        amp, _ = _sin_half(t)  # sin A at the 61 nodes
    sin_p, cos_p = _sincos_half(pair)  # of omega*h*x_j
    cos_p *= amp[:_N] + amp[_N:-1]
    sin_p *= amp[:_N] - amp[_N:-1]
    re = _pair_sums(cos_p)  # [:, 0] K61, [:, 1] G30
    im = _pair_sums(sin_p)
    re_k = re[:, 0] + _WK0 * amp[-1]  # G30 has no centre node
    err = half * np.maximum(np.hypot(re_k - re[:, 1], im[:, 0] - im[:, 1]), 2.0 * ERR_FLOOR)
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
