import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import udwitness
from udwitness import kernels, response
from udwitness.field import ModeSpec
from udwitness.trajectory import TrajectoryKind, TrajectorySpec

_GL15_X, _GL15_W = np.polynomial.legendre.leggauss(15)
_GL7_X, _GL7_W = np.polynomial.legendre.leggauss(7)


def _gl_reference(kind, phi0, rate, cc, omega, mid, half, nodes, weights):
    t = mid[:, None] + half[:, None] * nodes[None, :]
    if kind is TrajectoryKind.STATIC:
        amp = math.sin(phi0) * np.ones_like(t)
    elif kind is TrajectoryKind.INERTIAL:
        amp = np.sin(phi0 + rate * t)
    else:
        amp = np.sin(phi0 + cc * (np.cosh(rate * t) - 1.0))
    vals = amp * np.exp(1j * omega * t)
    return half * (vals @ weights)


def gl15_gl7_reference(kind, phi0, rate, cc, omega, lo, hi):
    """The earlier kernel, kept as a reference: GL15 values and |GL15 - GL7|
    from two separate node sets with a complex exponential per node."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    i15 = _gl_reference(kind, phi0, rate, cc, omega, mid, half, _GL15_X, _GL15_W)
    i7 = _gl_reference(kind, phi0, rate, cc, omega, mid, half, _GL7_X, _GL7_W)
    return i15, np.abs(i15 - i7)


def reference_args(kind, phi0, rate, cc):
    """The kernel's (kind, phi0, rate, cc) as the references take them: the
    kernel carries an inertial phase's slope in cc, the references in rate."""
    if kind is TrajectoryKind.INERTIAL:
        return kind, phi0, cc, 0.0
    return kind, phi0, rate, cc


def plan_rows(ks, omega, traj, t_end):
    """(phi0, cc, omega, t_x) of modes ``ks`` on ``traj`` up to t_end, from
    the quadrature's plan: one entry per mode."""
    return response._plan(np.asarray(ks), np.asarray(omega), traj, t_end)[:4]


def _panels(n, t_end):
    edges = np.linspace(0.0, t_end, n + 1)
    return edges[:-1], edges[1:]


def _full_rule(pair_weights, centre_weight):
    """All 61 nodes in ascending order with the given rule's weights."""
    nodes = np.concatenate([-kernels._X, [0.0], kernels._X[::-1]])
    weights = np.concatenate([pair_weights, [centre_weight], pair_weights[::-1]])
    return nodes, weights


def _laurie_kronrod(n):
    """Jacobi matrix (a, b) of the (2n+1)-point Kronrod extension of n-point
    Gauss-Legendre, by Laurie's algorithm (Laurie 1997, Math. Comp. 66:1133,
    as in Gautschi's r_kronrod), in the current mpmath precision. b[0] is
    the total mass 2 of the Legendre weight."""
    size = (3 * n + 1) // 2 + 1  # b[0..ceil(3n/2)] start from the Legendre values
    a = [mpmath.mpf(0)] * (2 * n + 1)
    b = [mpmath.mpf(2)] + [mpmath.mpf(k * k) / (4 * k * k - 1) for k in range(1, size)]
    b += [mpmath.mpf(0)] * (2 * n + 1 - size)
    s = [mpmath.mpf(0)] * (n // 2 + 2)
    t = [mpmath.mpf(0)] * (n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        ks = range((m + 1) // 2, -1, -1)
        terms = [(a[k + n + 1] - a[m - k]) * t[k + 1] + b[k + n + 1] * s[k] - b[m - k] * s[k + 1]
                 for k in ks]
        acc = mpmath.mpf(0)
        for k, term in zip(ks, terms):
            acc += term
            s[k + 1] = acc
        s, t = t, s
    s[1:n // 2 + 2] = s[:n // 2 + 1]
    for m in range(n - 1, 2 * n - 2):
        ks = range(m + 1 - n, (m - 1) // 2 + 1)
        js = [n - 1 - (m - k) for k in ks]
        terms = [-(a[k + n + 1] - a[m - k]) * t[j + 1] - b[k + n + 1] * s[j + 1] + b[m - k] * s[j + 2]
                 for k, j in zip(ks, js)]
        acc = mpmath.mpf(0)
        for j, term in zip(js, terms):
            acc += term
            s[j + 1] = acc
        j, k = js[-1], (m + 1) // 2
        if m % 2 == 0:
            a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
        else:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    return a, b


def _gauss_rule(a, b):
    """Nodes and weights of the Jacobi matrix (a, b), descending.

    Double-precision eigenvalues, polished by Newton steps on the monic
    three-term recurrence in the current mpmath precision; the weight of
    node x is 1/sum_k p_k(x)^2 over the orthonormal polynomials."""
    size = len(a)
    root_b = [mpmath.sqrt(x) for x in b[:size]]
    start = np.linalg.eigvalsh(
        np.diag([float(x) for x in a]) + np.diag([float(x) for x in root_b[1:]], -1)
    )
    nodes, weights = [], []
    for x in start[::-1]:
        x = mpmath.mpf(float(x))
        for _ in range(6):
            p_prev, p, d_prev, d = 0, 1, 0, 0
            for k in range(size):
                p_prev, p, d_prev, d = (
                    p, (x - a[k]) * p - b[k] * p_prev * (k > 0),
                    d, p + (x - a[k]) * d - b[k] * d_prev * (k > 0),
                )
            x -= p / d
        q_prev, q, total = 0, 1 / root_b[0], 0
        for k in range(size):
            total += q * q
            if k + 1 < size:
                q_prev, q = q, ((x - a[k]) * q - root_b[k] * q_prev * (k > 0)) / root_b[k + 1]
        nodes.append(x)
        weights.append(1 / total)
    return nodes, weights


@pytest.fixture(scope="module")
def k61_g30():
    """K61 and G30 nodes and weights (descending) in 40-digit arithmetic."""
    with mpmath.workdps(40):
        kronrod = _gauss_rule(*_laurie_kronrod(30))
        gauss = _gauss_rule(
            [mpmath.mpf(0)] * 30,
            [mpmath.mpf(2)] + [mpmath.mpf(k * k) / (4 * k * k - 1) for k in range(1, 30)],
        )
    return kronrod, gauss


@pytest.fixture(scope="module")
def k15_g7():
    """QUADPACK's K15/G7 pair from the same construction, rounded to doubles:
    the Laurie extension checked at a second size."""
    with mpmath.workdps(40):
        kronrod = _gauss_rule(*_laurie_kronrod(7))
        gauss = _gauss_rule(
            [mpmath.mpf(0)] * 7,
            [mpmath.mpf(2)] + [mpmath.mpf(k * k) / (4 * k * k - 1) for k in range(1, 7)],
        )
    return [tuple(np.array([float(v) for v in part]) for part in rule) for rule in (kronrod, gauss)]


CASES = [
    (TrajectoryKind.STATIC, 0.7, 0.0, 0.0, 1.3, 2.0),
    (TrajectoryKind.INERTIAL, 0.4, 0.0, 2.1, 1.86, 5.0),
    (TrajectoryKind.ACCELERATED, 1.5708, 0.8, 1.9635, 1.86, 4.0),
]


class TestRuleConstants:
    """The typed K61/G30 literals against the rule computed here, and that
    construction on the K15/G7 pair."""

    def test_literals_match_laurie_at_40_digits(self, k61_g30):
        (xk, wk), (xg, wg) = k61_g30
        # Every literal is the double nearest its 40-digit value.
        np.testing.assert_array_equal(kernels._X, [float(x) for x in xk[:30]])
        np.testing.assert_array_equal(kernels._WK, [float(w) for w in wk[:30]])
        assert abs(xk[30]) < 1e-35 and kernels._WK0 == float(wk[30])
        np.testing.assert_array_equal(kernels._WG[1::2], [float(w) for w in wg[:15]])
        np.testing.assert_array_equal(kernels._WG[::2], 0.0)
        # The G30 nodes are the odd-indexed Kronrod nodes.
        for j, x in enumerate(xg[:15]):
            assert abs(x - xk[2 * j + 1]) < 1e-35

    @pytest.mark.parametrize("degree", range(92))
    def test_k61_exact_through_degree_91(self, degree):
        x, w = _full_rule(kernels._WK, kernels._WK0)
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert w @ x**degree == pytest.approx(exact, abs=1e-15)

    @pytest.mark.parametrize("degree", range(60))
    def test_g30_exact_through_degree_59(self, degree):
        x, w = _full_rule(kernels._WG, 0.0)
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert w @ x**degree == pytest.approx(exact, abs=1e-15)

    def test_g30_is_gauss_legendre_on_kronrod_nodes(self):
        x, w = _full_rule(kernels._WG, 0.0)
        used = w != 0.0
        assert used.sum() == 30
        gl_x, gl_w = np.polynomial.legendre.leggauss(30)
        np.testing.assert_allclose(x[used], gl_x, atol=2e-16)
        np.testing.assert_allclose(w[used], gl_w, atol=5e-16)

    @pytest.mark.parametrize("degree", range(24))
    def test_k15_exact_through_degree_23(self, k15_g7, degree):
        (x, w), _ = k15_g7
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert w @ x**degree == pytest.approx(exact, abs=1e-15)

    @pytest.mark.parametrize("degree", range(14))
    def test_g7_exact_through_degree_13(self, k15_g7, degree):
        _, (x, w) = k15_g7
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert w @ x**degree == pytest.approx(exact, abs=1e-15)

    def test_g7_is_gauss_legendre_on_kronrod_nodes(self, k15_g7):
        (xk, _), (xg, wg) = k15_g7
        assert xk.size == 15 and xg.size == 7
        np.testing.assert_array_equal(xg, xk[1::2])
        gl_x, gl_w = np.polynomial.legendre.leggauss(7)
        np.testing.assert_allclose(xg[::-1], gl_x, atol=2e-16)
        np.testing.assert_allclose(wg[::-1], gl_w, atol=5e-16)

    def test_weights_sum_to_two(self):
        assert 2.0 * kernels._WK.sum() + kernels._WK0 == pytest.approx(2.0, abs=1e-15)
        assert 2.0 * kernels._WG.sum() == pytest.approx(2.0, abs=1e-15)


class TestNumpyBackend:
    def test_static_panel_sum_is_analytic(self):
        # integral of sin(phi0)*exp(i*omega*t) over [0, T]
        phi0, omega, t_end = 0.7, 1.3, 2.0
        lo, hi = _panels(40, t_end)
        vals, errs = kernels.panel_integrals(TrajectoryKind.STATIC, phi0, 0.0, 0.0, omega, lo, hi)
        total = vals.sum()
        expected = math.sin(phi0) * (np.exp(1j * omega * t_end) - 1.0) / (1j * omega)
        assert total == pytest.approx(expected, abs=1e-13)
        assert errs.sum() < 1e-12

    def test_error_estimate_drops_with_panel_size(self):
        kind, phi0, rate, cc, omega, t_end = CASES[2]
        _, err_coarse = kernels.panel_integrals(kind, phi0, rate, cc, omega, *_panels(20, t_end))
        _, err_fine = kernels.panel_integrals(kind, phi0, rate, cc, omega, *_panels(200, t_end))
        assert err_fine.sum() < err_coarse.sum()

    def test_k61_pair_at_the_floor_through_16_half_cycles(self):
        # The basis of the starting panels' cap (response._START_PANEL_PHASE):
        # on a unit panel of exp(i*omega*t), omega = n*pi, |K61 - G30| stays
        # at the rounding floor (eps per unit length) through n = 16 half
        # cycles and leaves it at 18 (7.3e-15, then 1.8e-12 at 20 and 1.5e-8
        # at 24), while K61 itself stays converged to rounding throughout.
        n = np.concatenate([np.arange(1.0, 19.0), [20.0, 24.0]])
        omega = n * math.pi
        lo, hi = np.zeros(n.size), np.ones(n.size)
        vals, errs = kernels.panel_integrals(TrajectoryKind.STATIC, math.pi / 2, 0.0, 0.0, omega, lo, hi)
        floor = kernels.ERR_FLOOR
        assert np.all(errs[:16] <= 2.0 * floor)
        assert np.all(errs[[11, 13, 15]] == floor)
        assert 10.0 * floor < errs[17] < errs[18] < errs[19]
        assert errs[18] > 1e-13 and errs[19] > 1e-9
        assert np.all(np.abs(vals - np.expm1(1j * omega) / (1j * omega)) <= 2.0 * floor)

    @pytest.mark.parametrize("case", CASES, ids=["static", "inertial", "accelerated"])
    def test_matches_gl15_reference(self, case):
        kind, phi0, rate, cc, omega, t_end = case
        lo, hi = _panels(137, t_end)
        vals, errs = kernels.panel_integrals(kind, phi0, rate, cc, omega, lo, hi)
        ref_vals, _ = gl15_gl7_reference(*reference_args(kind, phi0, rate, cc), omega, lo, hi)
        np.testing.assert_allclose(vals, ref_vals, rtol=0, atol=1e-13)
        assert np.all(errs >= kernels.ERR_FLOOR * (hi - lo))

    @pytest.mark.parametrize("v", [0.6, 0.9])
    @pytest.mark.parametrize("t_end", [100.0, 1000.0, 2000.0])
    def test_inertial_figure_scale_within_error_estimate(self, v, t_end):
        # The figure-scale mode on the panels the adaptive pass starts from,
        # then on the panels it refines them to. At up to sixteen half
        # cycles of each phase per panel K61 is converged further than the
        # embedded G30, so the starting estimate sits 2-30 times above
        # the true error; refinement brings it down to the tolerance. Near
        # the resonance velocity the rounding of the phases omega*t exceeds
        # the refined estimate, so v stays off v_c here.
        mode = ModeSpec(5000, 10000.0, 1.0)
        traj = TrajectorySpec.inertial(v, 1.0, mode.L)
        plan = response._plan(np.array([mode.k]), np.array([mode.omega]), traj, t_end)
        phi0, omega_l = plan[:2, 0]
        panels = response._block_edges(traj, plan, t_end, np.array([t_end]))
        lo, hi, _ = panels
        vals, errs = kernels.panel_integrals(traj.kind, phi0, traj.a, omega_l, mode.omega, lo, hi)
        omega = mode.omega
        exact = (
            np.exp(1j * phi0) * np.expm1(1j * (omega + omega_l) * t_end) / (1j * (omega + omega_l))
            - np.exp(-1j * phi0) * np.expm1(1j * (omega - omega_l) * t_end) / (1j * (omega - omega_l))
        ) / 2j
        assert abs(vals.sum() - exact) <= errs.sum()
        _, _, vals, errs, _, stalls = response._adaptive_panels(
            traj, plan, panels, t_end, np.array([response.DEFAULT_TOL])
        )
        assert stalls == [None]
        assert abs(vals.sum() - exact) <= errs.sum() <= response.DEFAULT_TOL


class TestPerPanelParameters:
    @pytest.mark.parametrize("case", CASES, ids=["static", "inertial", "accelerated"])
    def test_arrays_equal_panel_by_panel_scalar_calls(self, case):
        # Panels of three modes in one call, each mode with its own phi0, cc
        # and omega, against one scalar call per panel.
        kind, phi0, rate, cc, omega, t_end = case
        lo, hi = _panels(45, t_end)
        scale = np.repeat([1.0, 2.0, 3.0], 15)
        phi0s, ccs, omegas = phi0 * scale, cc * scale, omega * scale
        vals, errs = kernels.panel_integrals(kind, phi0s, rate, ccs, omegas, lo, hi)
        for p in range(lo.size):
            v, e = kernels.panel_integrals(
                kind, phi0s[p], rate, ccs[p], omegas[p], lo[p:p + 1], hi[p:p + 1]
            )
            assert vals[p] == v[0] and errs[p] == e[0]

    def test_panel_values_do_not_depend_on_the_call(self):
        kind, phi0, rate, cc, omega, t_end = CASES[2]
        lo, hi = _panels(300, t_end)
        vals, errs = kernels.panel_integrals(kind, phi0, rate, cc, omega, lo, hi)
        for a, b in [(0, 1), (7, 9), (100, 257), (299, 300)]:
            v, e = kernels.panel_integrals(kind, phi0, rate, cc, omega, lo[a:b], hi[a:b])
            np.testing.assert_array_equal(v, vals[a:b])
            np.testing.assert_array_equal(e, errs[a:b])


class TestSinCos:
    """The kernel's sin and cos from one tan of the half angle, against libm."""

    BOUND = 4.5e-16

    def _check(self, x):
        s, c = kernels._sincos(x)
        assert np.abs(s - np.sin(x)).max() <= self.BOUND
        assert np.abs(c - np.cos(x)).max() <= self.BOUND

    def test_uniform_up_to_1e6(self):
        rng = np.random.default_rng(7)
        self._check(rng.uniform(0.0, 1.6, 50_000))
        self._check(rng.uniform(0.0, 1e6, 200_000))
        self._check(-rng.uniform(0.0, 2e4, 50_000))

    def test_near_odd_multiples_of_pi(self):
        # tan(x/2) grows without bound there.
        rng = np.random.default_rng(8)
        m = rng.integers(0, 150_000, 50_000)
        self._check((2 * m + 1) * math.pi + rng.uniform(-1e-9, 1e-9, m.size))
        self._check(np.array([math.pi, -math.pi, 3.0 * math.pi, 1001.0 * math.pi]))

    def test_near_multiples_of_half_pi(self):
        # t = tan(x/2) is near +-1 there and 1 - t^2 cancels.
        rng = np.random.default_rng(9)
        m = rng.integers(0, 600_000, 50_000)
        self._check(m * (0.5 * math.pi) + rng.uniform(-1e-6, 1e-6, m.size))

    def test_nan_propagates(self):
        with np.errstate(invalid="ignore"):
            s, c = kernels._sincos(np.array([0.3, np.nan, np.inf, -np.inf]))
        assert np.isfinite(s[0]) and np.isfinite(c[0])
        assert np.isnan(s[1:]).all() and np.isnan(c[1:]).all()


class TestChunkBoundaries:
    """Panels are evaluated _CHUNK at a time; a panel's bits must not depend
    on where the chunk boundaries fall, including a one-panel tail chunk."""

    @pytest.mark.parametrize("case", CASES, ids=["static", "inertial", "accelerated"])
    @pytest.mark.parametrize("offset", [-1, 0, 1, None])
    def test_full_call_equals_slices(self, case, offset):
        kind, phi0, rate, cc, omega, t_end = case
        c = kernels._CHUNK
        n = 2 * c + 1 if offset is None else c + offset
        lo, hi = _panels(n, t_end)
        scale = np.linspace(1.0, 3.0, n)
        phi0s, ccs, omegas = phi0 * scale, cc * scale, omega * scale
        vals, errs = kernels.panel_integrals(kind, phi0s, rate, ccs, omegas, lo, hi)
        slices = [(0, 1), (1, n), (n - 1, n), (c - 1, min(c + 1, n)), (n // 2, n), (0, n - 1)]
        for a, b in slices:
            v, e = kernels.panel_integrals(
                kind, phi0s[a:b], rate, ccs[a:b], omegas[a:b], lo[a:b], hi[a:b]
            )
            np.testing.assert_array_equal(v, vals[a:b])
            np.testing.assert_array_equal(e, errs[a:b])

    @pytest.mark.parametrize("offset", [-1, 0, 1, None])
    def test_x_rule_full_call_equals_slices(self, offset):
        # The x-rule on accelerated panels from the switch time to the wall,
        # the last one ending at the wall edge, with per-panel parameters
        # and kappa on both sides of the moment switch.
        L, x0, a = 40.0, 1.0, 0.5
        mode = ModeSpec(20000, L, 1.0)
        traj = TrajectorySpec.accelerated(a, x0, L)
        t_wall, u_wall = response.wall_time(traj), a * (L - x0)
        phi0, cc, _, t_s = plan_rows([mode.k], [mode.omega], traj, t_wall)[:, 0]
        rate = traj.a
        c = kernels._CHUNK
        n = 2 * c + 1 if offset is None else c + offset
        edges = np.linspace(t_s, t_wall, n + 1)
        lo, hi = edges[:-1], edges[1:]
        assert hi[-1] == t_wall
        scale = np.linspace(1.0, 3.0, n)
        phi0s, ccs, omegas = phi0 * scale, cc * scale, mode.omega * scale
        vals, errs = kernels.filon_integrals(phi0s, rate, ccs, omegas, lo, hi, t_wall, u_wall)
        kappa = ccs * 0.5 * (np.cosh(a * hi) - np.cosh(a * lo))
        assert kappa.min() < kernels._KAPPA_SWITCH <= kappa.max()
        slices = [(0, 1), (1, n), (n - 1, n), (c - 1, min(c + 1, n)), (n // 2, n), (0, n - 1)]
        for p, q in slices:
            v, e = kernels.filon_integrals(
                phi0s[p:q], rate, ccs[p:q], omegas[p:q], lo[p:q], hi[p:q], t_wall, u_wall
            )
            np.testing.assert_array_equal(v, vals[p:q])
            np.testing.assert_array_equal(e, errs[p:q])


def _gauss_legendre_40_digits(n):
    """Positive nodes (descending) and weights of n-point Gauss-Legendre by
    Newton's method on P_n in 40-digit arithmetic."""
    nodes, weights = [], []
    with mpmath.workdps(40):
        for i in range(n // 2):
            x = mpmath.cos(mpmath.pi * (i + mpmath.mpf(0.75)) / (n + mpmath.mpf(0.5)))
            for _ in range(12):
                dp = n * (mpmath.legendre(n - 1, x) - x * mpmath.legendre(n, x)) / (1 - x * x)
                x -= mpmath.legendre(n, x) / dp
            dp = n * (mpmath.legendre(n - 1, x) - x * mpmath.legendre(n, x)) / (1 - x * x)
            nodes.append(float(x))
            weights.append(float(2 / ((1 - x * x) * dp * dp)))
    return nodes, weights


# kappa from 1e-3 to 1e4, with the doubles on either side of the switch
# from the 64-point moments to the upward recurrence.
_KAPPAS = np.concatenate([
    np.geomspace(1e-3, 1e4, 15),
    [np.nextafter(kernels._KAPPA_SWITCH, 0.0), kernels._KAPPA_SWITCH,
     np.nextafter(kernels._KAPPA_SWITCH, 1e9)],
])


def _moment_40_digits(l, kappa):
    """2 * i**l * j_l(kappa), j_l the spherical Bessel function, in 40 digits."""
    with mpmath.workdps(40):
        k = mpmath.mpf(kappa)
        j = mpmath.sqrt(mpmath.pi / (2 * k)) * mpmath.besselj(l + mpmath.mpf(0.5), k)
        return 2 * mpmath.mpc(0, 1) ** l * j


class TestFilonRule:
    """The x-rule of the accelerated chi: Legendre coefficients of g at 24
    Gauss nodes, times exact moments of the mode phase."""

    def test_node_literals_match_40_digits(self):
        for n, (x, w) in ((24, (kernels._GL24_X, kernels._GL24_W)),
                          (64, (kernels._GL64_X, kernels._GL64_W))):
            ref_x, ref_w = _gauss_legendre_40_digits(n)
            np.testing.assert_array_equal(x, ref_x)
            np.testing.assert_array_equal(w, ref_w)

    @pytest.mark.parametrize("l,kappa", [(0, 1e-3), (1, 5.0), (7, 23.0), (22, 23.0), (23, 40.0)])
    def test_moment_is_the_legendre_integral(self, l, kappa):
        # The identity the rule rests on (DLMF 18.17.19), in 40 digits.
        with mpmath.workdps(40):
            direct = mpmath.quad(
                lambda s: mpmath.legendre(l, s) * mpmath.expj(kappa * s), mpmath.linspace(-1, 1, 9)
            )
            assert abs(direct - _moment_40_digits(l, kappa)) < mpmath.mpf(10) ** -30

    def test_moments_match_40_digits(self):
        # l = 0..23 from the 64-point matrix below the switch and the
        # upward recurrence above it, each within 4e-16 of j_l.
        got = kernels._bessel_rows(_KAPPAS)
        assert got.shape == (_KAPPAS.size, 24)
        for p, kappa in enumerate(_KAPPAS):
            for l in range(24):
                ref = _moment_40_digits(l, kappa)
                moment = 2 * 1j**l * got[p, l]
                assert abs(moment - complex(ref)) <= 8e-16, (l, kappa)

    def test_each_moment_path_sees_only_its_kappas(self, monkeypatch):
        # The 64-point moments are taken only below the switch and the
        # recurrence only at or above it.
        seen = {"_trig_columns": [], "_bessel_upward": []}

        def recorded(name):
            real = getattr(kernels, name)
            return lambda k: seen[name].append(k) or real(k)

        for name in seen:
            monkeypatch.setattr(kernels, name, recorded(name))
        kernels._bessel_rows(_KAPPAS)
        small = _KAPPAS < kernels._KAPPA_SWITCH
        assert [k.tolist() for k in seen["_trig_columns"]] == [_KAPPAS[small].tolist()]
        assert [k.tolist() for k in seen["_bessel_upward"]] == [_KAPPAS[~small].tolist()]

    def test_moment_rows_do_not_depend_on_the_call(self):
        whole = kernels._bessel_rows(_KAPPAS)
        for p in range(_KAPPAS.size):
            np.testing.assert_array_equal(kernels._bessel_rows(_KAPPAS[p:p + 1]), whole[p:p + 1])

    @pytest.mark.parametrize("k,a,start,step", [(40, 0.5, 0.0, 1.0), (400, 0.5, 4.0, 0.3)])
    def test_panel_matches_mpmath_quad(self, k, a, start, step):
        # One x-panel at ``start`` past the switch time, against the
        # t-integral in 30 digits; kappa = q*h is below the moment switch
        # for k = 40 and above it for k = 400.
        L, x0 = 40.0, 1.0
        mode = ModeSpec(k, L, 1.0)
        traj = TrajectorySpec.accelerated(a, x0, L)
        t_wall = response.wall_time(traj)
        phi0, cc, _, t_s = plan_rows([k], [mode.omega], traj, t_wall)[:, 0]
        rate = traj.a
        lo = np.array([t_s + start])
        hi = lo + step
        vals, errs = kernels.filon_integrals(phi0, rate, cc, mode.omega, lo, hi, t_wall, a * (L - x0))
        u_h = 0.5 * (np.cosh(a * hi) - np.cosh(a * lo))
        assert (cc * u_h[0] < kernels._KAPPA_SWITCH) == (k == 40)
        with mpmath.workdps(30):
            def f(t):
                return mpmath.sin(phi0 + cc * (mpmath.cosh(a * t) - 1)) * mpmath.expj(mode.omega * t)
            ref = complex(mpmath.quad(f, mpmath.linspace(lo[0], hi[0], 41)))
        assert abs(vals[0] - ref) <= max(errs[0], 1e-15)
        assert errs[0] <= 1e-12

    def test_panel_ending_at_the_wall_ends_at_the_wall(self):
        # The last edge maps to u_wall itself, not to cosh(a*t_wall) - 1.
        L, x0, a, k = 40.0, 1.0, 0.5, 40
        mode = ModeSpec(k, L, 1.0)
        traj = TrajectorySpec.accelerated(a, x0, L)
        t_wall = response.wall_time(traj)
        phi0, cc = plan_rows([k], [mode.omega], traj, t_wall)[:2, 0]
        rate = traj.a
        lo, hi = np.array([t_wall - 0.5]), np.array([t_wall])
        args = (phi0, rate, cc, mode.omega, lo, hi, t_wall)
        exact, _ = kernels.filon_integrals(*args, a * (L - x0))
        moved, _ = kernels.filon_integrals(*args, a * (L - x0) * (1.0 - 1e-9))
        assert exact != moved

    def test_estimate_floor_and_per_panel_bits(self):
        # Short panels far past the switch time: the degree-22 and 23
        # terms vanish there, so the estimate is the floor eps*(hi - lo),
        # never 0; and every panel's bits are those of a call of its own.
        L, x0, a = 40.0, 1.0, 0.5
        ks = np.repeat([3, 40, 400], 20)
        omega = np.array([ModeSpec(int(k), L, 1.0).omega for k in ks])
        traj = TrajectorySpec.accelerated(a, x0, L)
        t_wall = response.wall_time(traj)
        phi0, cc = plan_rows(ks, omega, traj, t_wall)[:2]
        rate = traj.a
        lo = np.tile(np.linspace(t_wall - 1.0, t_wall - 1e-3, 20), 3)
        hi = lo + 1e-3
        vals, errs = kernels.filon_integrals(phi0, rate, cc, omega, lo, hi, t_wall, a * (L - x0))
        assert np.all(errs >= kernels.ERR_FLOOR * (hi - lo))
        assert np.any(errs == kernels.ERR_FLOOR * (hi - lo))
        for p in range(lo.size):
            v, e = kernels.filon_integrals(
                phi0[p], rate, cc[p], omega[p], lo[p:p + 1], hi[p:p + 1], t_wall, a * (L - x0)
            )
            assert vals[p] == v[0] and errs[p] == e[0]


class TestBackendSelection:
    def test_active_backend_name(self):
        assert kernels.active_backend() == "numpy"


def _loaded_by_cli_import(module):
    """Whether a fresh ``import udwitness.cli`` puts ``module`` in sys.modules."""
    src = str(Path(udwitness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = f"import sys, udwitness.cli; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip() == "True"


def test_cli_import_does_not_load_scipy():
    assert not _loaded_by_cli_import("scipy")


def test_cli_import_does_not_load_a_thread_pool():
    assert not _loaded_by_cli_import("concurrent.futures")
