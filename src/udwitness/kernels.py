"""Panel kernels of the oscillatory response quadrature.

The detector response integral reduces to panel sums of
sin(A(t)) * exp(i*omega*t), A the mode phase on the worldline. The kernel
knows two phase forms:

    A(t) = phi0 + cc*t                       (static, cc = 0; inertial, cc = omega_L)
    A(t) = phi0 + cc*(cosh(rate*t) - 1)      (accelerated, rate = a, cc = k*pi/(L*a))

cc is the linear form's slope, the mode-crossing frequency omega_L on an
inertial worldline, and the cosh form's amplitude on the accelerated one;
rate, one scalar, is the acceleration a, which only the cosh form reads.
The cosh form takes cosh(rate*t) - 1 as 2*sinh(rate*t/2)**2, which keeps
its relative accuracy at small rate*t, where the difference cancels.
phi0, cc and omega are scalars or per-panel arrays (one entry per panel,
broadcast against lo/hi), so panels of several modes on one worldline
share a call. Each panel's value and estimate are the
same bits whichever call it comes in. There are two rules: panel_integrals
(K61, every worldline) and filon_integrals (the x-rule, the accelerated
worldline past the switch time, where the mode phase is fast).

K61. Each panel [mid - h, mid + h] is evaluated with the 61-point
Gauss-Kronrod rule K61 (Kronrod 1965; QUADPACK QK61, Piessens et al. 1983),
exact through degree 91. Its odd-indexed nodes are the 30-point
Gauss-Legendre nodes, so the embedded G30 value (exact through degree 59)
comes from the same 61 integrand evaluations and |K61 - G30| is the
per-panel absolute error estimate, floored at the rounding level
ERR_FLOOR*(hi - lo). The nodes and weights are typed in
below; Laurie's algorithm (Laurie 1997, Math. Comp. 66:1133) computes
them, and the tests check them against it. A high-order rule pays on
long panels: the callers start from panels of up to sixteen half cycles
of the phase, about 4 nodes per half cycle. On a unit panel of
exp(i*omega*t), |K61 - G30| is at the rounding floor at 12, 14 and 16
half cycles, then 7.3e-15 at 18, 1.8e-12 at 20 and 1.5e-8 at 24.

Fold. The nodes come in pairs t = mid +- h*x_j around the centre, and
exp(i*omega*t) = exp(i*omega*mid) * exp(+-i*omega*h*x_j), so with
A+- = sin(A(mid +- h*x_j)) and A0 = sin(A(mid)) each rule reads (G30
has no centre node: w0 = 0)

    h * exp(i*omega*mid) * (w0*A0 + sum_j w_j*[(A+ + A-)*cos(omega*h*x_j)
                                               + i*(A+ - A-)*sin(omega*h*x_j)]).

The sums are real and the phase factor has modulus 1, so the error
estimate needs no rotation at all.

The x-rule (a Filon-type rule: Iserles & Norsett 2005, Proc. R. Soc. A
461:1383). On the accelerated worldline x - x0 = u/a with
u = cosh(a*t) - 1, so the integral over a panel is, over u,

    (1/a) * Integral sin(phi0 + cc*u) * g(u) du,  g = exp(i*omega*t(u)) / sqrt(u*(u + 2)),

with a*t(u) = log1p(u + sqrt(u*(u + 2))) and sqrt(u*(u + 2)) = sinh(a*t).
The mode phase is integrated exactly and only the slow g is sampled,
whatever the number of mode-phase cycles across the panel. On the panel
u = u_c + u_h*s, s in [-1, 1], g is sampled at the 24 Gauss-Legendre
nodes, and one fixed 24 x 24 matrix (_COEF) gives the coefficients c_l of
its degree-23 Legendre interpolant. With kappa = cc*u_h = q*h (q = k*pi/L,
h = u_h/a the half-width in x) and the moments of DLMF 18.17.19,

    Integral_{-1}^{1} P_l(s) * exp(i*kappa*s) ds = 2 * i**l * j_l(kappa),

the panel value is

    2h * [sin(theta) * sum_{l even} (-1)**(l/2) c_l j_l(kappa)
          + cos(theta) * sum_{l odd} (-1)**((l-1)/2) c_l j_l(kappa)],

theta = phi0 + cc*u_c the mode phase at the centre. The spherical Bessel
j_0..j_23 come from the upward recurrence j_{l+1} = (2l+1)/kappa*j_l -
j_{l-1} where kappa >= 23, on which it is stable (l < kappa), and below
23 from one fixed 64-point Gauss matrix (_MOMENTS) applied to
cos(kappa*s_i) and sin(kappa*s_i), exact there to rounding: the moments
are within 2e-16 of 40-digit values for kappa in [1e-3, 1e4]. The
estimate is 2h*(|c_22| + |c_23|)*max(|j_22|, |j_23|), the size of the
last two terms, floored like K61's at ERR_FLOOR*(t_b - t_a) in time, so a
tolerance below the rounding level stalls there.

Trigonometry from one tan. sin and cos set the kernel's speed, so each
sin, or sin/cos pair, comes from one t = tan(x/2) (the Weierstrass
substitution, _sin_half and _sincos_half): sin x = 2t/(1 + t^2) and
cos x = (1 - t^2)/(1 + t^2). The K61 kernel takes sin A at the 61 nodes, the
pairs of omega*h*x_j at 30 and the pair of omega*mid: 92 tans per panel,
where the direct form takes 123 sin/cos calls; the x-rule takes the pairs
of omega*t at 24 nodes, of theta, of kappa (recurrence) or of kappa*s_i
at 32 nodes (64-point moments). The absolute error is
about 2.2e-16 at most, against 5.6e-17 for libm, far below the rounding
of a phase A of thousands of radians. With numpy 2.4 on a 2-vCPU x86-64
host with AVX-512, np.sin and np.cos run as scalar libm calls: about
34 ns per element on random arguments of hundreds of radians or more and
18 ns below pi/2. np.tan takes numpy's SIMD path there at 3.2-3.5 ns,
against about 1 ns for a multiply or a divide and 2 ns for sinh; a K61 panel
costs about 0.9 us on random accelerated panels. Where numpy has no SIMD
tan for the CPU, np.tan falls back to libm: the accuracy is the same,
and most of the speed goes away. The closed forms of chi
(response._exp_integrals) share the substitution: one tan per phase.

Blocking. Both rules evaluate _CHUNK panels at a time, so a block's
(nodes, n) temporaries stay in cache; a call of at most _CHUNK panels
(every call of a figure-scale chi) is one block and pays nothing more.
Every operation is elementwise, a per-panel row reduction or a per-panel
row of one gemm (_rows), so a panel's bits do not depend on its block.
"""

from __future__ import annotations

import numpy as np

from .trajectory import TrajectoryKind

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


def _rows(terms, weights):
    """terms.T @ weights by the same BLAS routine for any number of panels.

    ``terms`` is node-major (nodes, n); the gemm takes its transposed view,
    so every call hands BLAS the same layout. numpy sends a one-row product
    through gemv, which can round the last bit differently from the gemm
    that serves two rows or more; one panel is therefore evaluated as two
    copies.
    """
    if terms.shape[1] == 1:
        return (terms.repeat(2, axis=1).T @ weights)[:1]
    return terms.T @ weights


def _by_chunks(block, params, lo, hi):
    """(values, errors) of block(*params, lo, hi) evaluated _CHUNK panels at a
    time (one block as it is); params are scalars or arrays shaped like lo."""
    if lo.size <= _CHUNK:
        return block(*params, lo, hi)
    vals = np.empty(lo.shape, dtype=complex)
    errs = np.empty(lo.shape)
    for a in range(0, lo.size, _CHUNK):
        b = slice(a, a + _CHUNK)
        vals[b], errs[b] = block(*(x[b] if np.ndim(x) else x for x in params), lo[b], hi[b])
    return vals, errs


def panel_integrals(kind, phi0, rate, cc, omega, lo, hi):
    """Per-panel integrals with embedded error estimates.

    Returns (values, errors): the K61 value of each panel [lo[p], hi[p]]
    and |K61 - G30|, floored at ERR_FLOOR*(hi - lo), as its absolute error
    estimate. ``kind`` is the worldline's TrajectoryKind: the accelerated
    one takes the cosh phase form, the others the linear one (see the
    module docstring). lo and hi are 1-d; phi0, cc and omega are scalars
    or arrays shaped like lo. The panels are evaluated _CHUNK at a time.
    """
    return _by_chunks(
        lambda p, c, w, a, b: _panel_block(kind, p, rate, c, w, a, b), (phi0, cc, omega), lo, hi
    )


def _panel_block(kind, phi0, rate, cc, omega, lo, hi):
    """panel_integrals on one block of panels."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    # Half angles throughout: halving is exact, so each tan sees half of
    # the angle the sin or cos would, to the bit. Node-major arrays let
    # per-panel parameters broadcast along the contiguous panel axis.
    t = _NODES * half
    pair = (0.5 * omega) * t[:_N]
    t += mid
    if kind is TrajectoryKind.ACCELERATED:
        # Half of cosh(rate*t) - 1 is sinh(rate*t/2)**2, with no cancellation.
        t *= 0.5 * rate
        np.sinh(t, out=t)
        t *= t
        t *= cc
    else:
        t *= 0.5 * cc
    t += 0.5 * phi0
    amp, _ = _sin_half(t)  # sin A at the 61 nodes
    sin_p, cos_p = _sincos_half(pair)  # of omega*h*x_j
    cos_p *= amp[:_N] + amp[_N:-1]
    sin_p *= amp[:_N] - amp[_N:-1]
    re = _rows(cos_p, _W_PAIRS)  # [:, 0] K61, [:, 1] G30
    im = _rows(sin_p, _W_PAIRS)
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


# Positive nodes (descending) and weights of the 24- and 64-point
# Gauss-Legendre rules, from Newton's method on P_n in 40-digit arithmetic.
_GL24_X = np.array([
    0.9951872199970213, 0.9747285559713095, 0.9382745520027328, 0.8864155270044011,
    0.820001985973903, 0.7401241915785544, 0.6480936519369755, 0.5454214713888396,
    0.4337935076260451, 0.3150426796961634, 0.1911188674736163, 0.06405689286260563,
])
_GL24_W = np.array([
    0.0123412297999872, 0.028531388628933663, 0.04427743881741981, 0.05929858491543678,
    0.0733464814110803, 0.08619016153195327, 0.09761865210411388, 0.10744427011596563,
    0.1155056680537256, 0.12167047292780339, 0.1258374563468283, 0.12793819534675216,
])
_GL64_X = np.array([
    0.9993050417357722, 0.9963401167719553, 0.9910133714767443, 0.983336253884626,
    0.973326827789911, 0.9610087996520538, 0.9464113748584028, 0.9295691721319396,
    0.9105221370785028, 0.8893154459951141, 0.8659993981540928, 0.8406292962525803,
    0.8132653151227975, 0.7839723589433414, 0.7528199072605319, 0.7198818501716109,
    0.6852363130542333, 0.6489654712546573, 0.6111553551723933, 0.571895646202634,
    0.5312794640198946, 0.48940314570705296, 0.4463660172534641, 0.4022701579639916,
    0.3572201583376681, 0.31132287199021097, 0.2646871622087674, 0.21742364374000708,
    0.16964442042399283, 0.12146281929612056, 0.07299312178779904, 0.024350292663424433,
])
_GL64_W = np.array([
    0.001783280721696433, 0.004147033260562468, 0.006504457968978363, 0.008846759826363947,
    0.011168139460131128, 0.013463047896718643, 0.015726030476024718, 0.017951715775697343,
    0.02013482315353021, 0.022270173808383253, 0.024352702568710874, 0.02637746971505466,
    0.028339672614259483, 0.030234657072402478, 0.03205792835485155, 0.033805161837141606,
    0.035472213256882386, 0.03705512854024005, 0.038550153178615626, 0.03995374113272034,
    0.04126256324262353, 0.04247351512365359, 0.04358372452932345, 0.044590558163756566,
    0.04549162792741814, 0.046284796581314416, 0.04696818281621002, 0.04754016571483031,
    0.04799938859645831, 0.048344762234802954, 0.04857546744150343, 0.048690957009139724,
])

#: Legendre degrees 0.._DEGREES - 1 of the x-rule, sampled at as many Gauss nodes.
_DEGREES = 24
#: Below this kappa the moments come from the 64-point rule (_MOMENTS),
#: above it from the upward recurrence, which is stable for l < kappa.
_KAPPA_SWITCH = 23.0


def _legendre_rows(x):
    """P_0(x) .. P_{_DEGREES - 1}(x) as the rows of a (_DEGREES, x.size) array."""
    p = np.empty((_DEGREES, x.size))
    p[0], p[1] = 1.0, x
    for l in range(1, _DEGREES - 1):
        p[l + 1] = ((2 * l + 1) * x * p[l] - l * p[l - 1]) / (l + 1)
    return p


_DEG = np.arange(_DEGREES)
_SIGN = np.where(_DEG // 2 % 2, -1.0, 1.0)  # (-1)**(l//2): Re or Im of i**l
_EVEN = _DEG % 2 == 0
_RECURRENCE = (2.0 * _DEG[1:-1] + 1.0)[:, None]
# The 24 sample points of an x-panel, in units of its half-width.
_S = np.concatenate([_GL24_X, -_GL24_X])[:, None]
#: Node-major (24, 24): samples g(s_i) to d_l = 2*(-1)**(l//2)*c_l, with c_l
#: the coefficients of g's degree-23 Legendre interpolant at the nodes.
_COEF = (np.concatenate([_GL24_W, _GL24_W])[:, None] * _legendre_rows(_S[:, 0]).T
         * (_SIGN * (2 * _DEG + 1)))
#: (64, 24): [cos(kappa*s_i), sin(kappa*s_i)] at the 32 positive 64-point
#: nodes to j_l(kappa) = (-1)**(l//2) * sum_i w_i P_l(s_i) * (cos or sin),
#: the even l from the cos rows and the odd l from the sin rows.
_MOMENTS = _GL64_W[:, None] * _legendre_rows(_GL64_X).T * _SIGN
_MOMENTS = np.concatenate([np.where(_EVEN, _MOMENTS, 0.0), np.where(_EVEN, 0.0, _MOMENTS)])


def _bessel_rows(kappa):
    """Spherical Bessel j_l(kappa), l = 0..23, one row per panel: (n, 24).

    The 64-point moments see only the kappa below the switch, the
    recurrence only the rest; each row is the same bits in any call.
    """
    big = kappa >= _KAPPA_SWITCH
    small = ~big
    j = np.empty((kappa.size, _DEGREES))
    if small.any():
        j[small] = _rows(_trig_columns(kappa[small]), _MOMENTS)
    if big.any():
        j[big] = _bessel_upward(kappa[big]).T
    return j


def _bessel_upward(kappa):
    """j_0..j_23 by upward recurrence from j_0 and j_1, node-major: stable for kappa >= 23."""
    sin, cos = _sincos(kappa)
    inv = 1.0 / kappa
    r = np.empty((_DEGREES, kappa.size))
    j = list(r)  # the rows j_l, as views made once
    np.multiply(sin, inv, out=j[0])
    np.subtract(j[0], cos, out=j[1])
    j[1] *= inv
    step = list(_RECURRENCE * inv)  # (2l + 1)/kappa for l = 1..22
    for l in range(1, _DEGREES - 1):
        np.multiply(step[l - 1], j[l], out=j[l + 1])
        np.subtract(j[l + 1], j[l - 1], out=j[l + 1])
    return r


def _trig_columns(kappa):
    """(64, n): cos(kappa*s_i) over sin(kappa*s_i) at the positive 64-point nodes."""
    sin, cos = _sincos_half(_GL64_X[:, None] * (0.5 * kappa))
    return np.concatenate([cos, sin])


def filon_integrals(phi0, rate, cc, omega, lo, hi, t_wall, u_wall):
    """Per-panel accelerated integrals by the Filon rule in the position variable.

    The accelerated integrand of panel_integrals over [lo[p], hi[p]], as
    the integral over u = cosh(rate*t) - 1 = rate*(x - x0) of
    sin(phi0 + cc*u) * exp(i*omega*t(u)) / (rate*sqrt(u*(u + 2))). The
    edges map to u, except that a panel ending at ``t_wall`` ends at
    ``u_wall``, the wall's exact position. Returns (values, errors) like
    panel_integrals: the error estimate is the degree-22 and 23 Legendre
    terms' largest moment, floored at ERR_FLOOR*(hi - lo).
    """
    return _by_chunks(
        lambda p, c, w, a, b: _filon_block(p, rate, c, w, a, b, t_wall, u_wall),
        (phi0, cc, omega), lo, hi,
    )


def _samples(rate, omega, mid, half):
    """Node-major (24, 2n) samples of g = exp(i*omega*t)/sinh(rate*t) at
    u = mid + half*s_i, as the columns [Re g | Im g]."""
    u = _S * half
    u += mid
    inv = u + 2.0
    np.sqrt(inv, out=inv)
    inv *= np.sqrt(u)  # sinh(rate*t), with no overflow in u*(u + 2)
    u += inv
    np.log1p(u, out=u)  # rate*t
    u *= 0.5 * omega / rate
    np.divide(1.0, inv, out=inv)
    sin, cos = _sincos_half(u)  # of omega*t
    g = np.empty((_DEGREES, 2 * mid.size))
    np.multiply(cos, inv, out=g[:, :mid.size])
    np.multiply(sin, inv, out=g[:, mid.size:])
    return g


def _filon_block(phi0, rate, cc, omega, lo, hi, t_wall, u_wall):
    """filon_integrals on one block of panels."""
    # u = cosh(rate*t) - 1 = 2*sinh(rate*t/2)**2, with no cancellation.
    u_lo = np.sinh(0.5 * rate * lo)
    u_lo *= 2.0 * u_lo
    u_hi = np.sinh(0.5 * rate * hi)
    u_hi *= 2.0 * u_hi
    u_hi[hi >= t_wall] = u_wall
    mid = 0.5 * (u_lo + u_hi)
    half = 0.5 * (u_hi - u_lo)
    n = lo.size
    d = _rows(_samples(rate, omega, mid, half), _COEF).reshape(2, n, _DEGREES)  # Re, Im of d_l
    j = _bessel_rows(cc * half)
    sin_c, cos_c = _sincos(phi0 + cc * mid)
    half /= rate  # the half-width in x
    tail = np.hypot(d[0, :, -2], d[1, :, -2]) + np.hypot(d[0, :, -1], d[1, :, -1])
    err = half * tail * np.maximum(np.abs(j[:, -2]), np.abs(j[:, -1]))
    j_w = np.empty(j.shape)
    np.multiply(j[:, 0::2], sin_c[:, None], out=j_w[:, 0::2])
    np.multiply(j[:, 1::2], cos_c[:, None], out=j_w[:, 1::2])
    # One 24-term dot per panel row, the same bits in any block.
    re, im = np.einsum("pnl,nl->pn", d, j_w)
    vals = _complex(re, im)
    vals *= half
    return vals, np.maximum(err, ERR_FLOOR * (hi - lo))


def active_backend() -> str:
    """Name of the implementation behind panel_integrals (numpy only)."""
    return "numpy"
