import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, quad, simpson

from udwitness import kernels
from udwitness.errors import InvalidParameterError, NumericalFailure
from udwitness.field import CavityConfig, ModeSpec, mode_function
from udwitness.response import (
    DEFAULT_TOL,
    DELTA_RES,
    ChiBranch,
    ChiValue,
    CouplingSpec,
    _MODE_BLOCK,
    _abs2_block,
    _adaptive_panels,
    _block_edges,
    _kernel_params,
    chi,
    chi_inertial_analytic,
    chi_mode_sum,
    chi_quadrature,
    chi_series,
    chi_static,
    chi_static_amplitude,
    critical_velocity,
)
from udwitness.oracle import phase_beta
from udwitness.trajectory import TrajectoryKind, TrajectorySpec, position, wall_time

V_CRIT_FIG = 0.76436169849601359  # frozen from 30-digit arithmetic


def one_mode_edges(mode, traj, t_end):
    """Starting edges of one mode's chi at t_end, as the quadrature builds them."""
    edges, offsets = _block_edges(
        np.array([mode.k]), mode.L, np.array([mode.omega]), traj, t_end, np.array([t_end])
    )
    np.testing.assert_array_equal(offsets, [0, edges.size])
    return edges


def one_segment(kind, phi0, rate, cc, omega, edges, tol):
    """_adaptive_panels on a single segment (one mode) with scalar parameters."""
    return _adaptive_panels(
        kind, np.array([phi0]), rate, np.array([cc]), np.array([omega]),
        edges, np.array([0, edges.size]), np.array([tol]),
    )


def scipy_chi(mode, lam, traj, tau):
    """Independent reference: scipy.integrate.quad on the response integrand."""

    def integrand_re(t):
        return mode.profile(position(traj, t)) * math.cos(mode.omega * t)

    def integrand_im(t):
        return mode.profile(position(traj, t)) * math.sin(mode.omega * t)

    t_end = tau
    tw = wall_time(traj)
    if tw is not None:
        t_end = min(tau, tw)
    re, _ = quad(integrand_re, 0.0, t_end, limit=500, epsabs=1e-13, epsrel=1e-13)
    im, _ = quad(integrand_im, 0.0, t_end, limit=500, epsabs=1e-13, epsrel=1e-13)
    return -1j * lam * complex(re, im)


def mpmath_inertial_chi(mode, lam, traj, tau, dps=40):
    """Independent reference: the inertial integral in 40-digit arithmetic.

    The literal antiderivative of sin(omega_L*t + phi)*exp(i*omega*t)
    divides by omega_L^2 - omega^2; near resonance that cancellation costs
    about 6 of the 40 digits, far more than double precision can spare.
    """
    with mpmath.workdps(dps):
        k, L, m, v, x0 = (mpmath.mpf(x) for x in (mode.k, mode.L, mode.m, traj.v, traj.x0))
        tau = mpmath.mpf(tau)
        q = k * mpmath.pi / L
        omega = mpmath.sqrt(q * q + m * m)
        omega_l = q * v / mpmath.sqrt(1 - v * v)
        phi = q * x0
        psi = omega_l * tau + phi
        num = (
            mpmath.expj(omega * tau) * (omega * mpmath.sin(psi) + 1j * omega_l * mpmath.cos(psi))
            - omega * mpmath.sin(phi)
            - 1j * omega_l * mpmath.cos(phi)
        )
        return complex(lam * num / (mpmath.sqrt(k * mpmath.pi) * (omega_l**2 - omega**2)))


class TestChiStatic:
    def test_full_period_returns_to_zero(self):
        assert abs(chi_static_amplitude(1.0, 1.0, 2 * math.pi)) < 1e-15

    def test_half_period_value(self):
        assert chi_static_amplitude(1.0, 1.0, math.pi) == pytest.approx(2.0 + 0j, abs=1e-14)

    def test_zero_coupling(self):
        mode = ModeSpec(3, 5.0, 0.7)
        assert chi_static(mode, CouplingSpec(0.0), 1.0, 4.0).value == 0

    def test_modulus_identity(self):
        mode = ModeSpec(3, 5.0, 0.7)
        coup = CouplingSpec(1.3)
        lam_f = coup.lam * mode.profile(1.0)
        for tau in np.linspace(0.1, 30.0, 37):
            c = chi_static(mode, coup, 1.0, tau)
            expected = 4.0 * (lam_f / mode.omega) ** 2 * math.sin(0.5 * mode.omega * tau) ** 2
            assert abs(c.value) ** 2 == pytest.approx(expected, abs=1e-14)

    def test_periodicity(self):
        mode = ModeSpec(2, 4.0, 1.0)
        coup = CouplingSpec(0.9)
        period = 2 * math.pi / mode.omega
        for tau in (0.3, 1.7):
            a = chi_static(mode, coup, 1.0, tau).value
            b = chi_static(mode, coup, 1.0, tau + period).value
            assert a == pytest.approx(b, abs=1e-12)

    def test_matches_quadrature(self):
        mode = ModeSpec(5000, 10000.0, 1.0)
        coup = CouplingSpec(2 * math.sqrt(5000.0))
        traj = TrajectorySpec.static(1.0, 10000.0)
        for tau in (0.7, 3.0, 11.0):
            cs = chi_static(mode, coup, 1.0, tau)
            cq = chi_quadrature(mode, coup, traj, tau)
            assert cs.value == pytest.approx(cq.value, abs=1e-10)

    def test_branch_and_error(self):
        mode = ModeSpec(2, 4.0, 1.0)
        c = chi_static(mode, CouplingSpec(1.0), 1.0, 2.0)
        assert c.branch is ChiBranch.STATIC_CLOSED_FORM
        assert c.err_estimate == 0.0

    def test_rejects_negative_tau(self):
        mode = ModeSpec(2, 4.0, 1.0)
        with pytest.raises(InvalidParameterError):
            chi_static(mode, CouplingSpec(1.0), 1.0, -1.0)


class TestChiInertial:
    def setup_method(self):
        self.mode = ModeSpec(5000, 10000.0, 1.0)
        self.coup = CouplingSpec(2 * math.sqrt(5000.0))

    def test_figure_point_matches_quadrature(self):
        traj = TrajectorySpec.inertial(0.5, 1.0, 10000.0)
        ca = chi_inertial_analytic(self.mode, self.coup, traj, 20.0)
        cq = chi_quadrature(self.mode, self.coup, traj, 20.0)
        assert abs(ca.value - cq.value) < 1e-8
        assert ca.branch is ChiBranch.INERTIAL_CLOSED_FORM

    def test_small_velocity_approaches_static(self):
        traj = TrajectorySpec.inertial(1e-10, 1.0, 10000.0)
        ca = chi_inertial_analytic(self.mode, self.coup, traj, 5.0)
        cs = chi_static(self.mode, self.coup, 1.0, 5.0)
        assert abs(ca.value - cs.value) < 1e-7

    def test_resonance_branch_and_linear_envelope(self):
        vc = critical_velocity(self.mode)
        traj = TrajectorySpec.inertial(vc, 1.0, 10000.0)
        for tau in (50.0, 100.0, 200.0):
            c1 = chi_inertial_analytic(self.mode, self.coup, traj, tau)
            c2 = chi_inertial_analytic(self.mode, self.coup, traj, 2 * tau)
            assert c1.branch is ChiBranch.INERTIAL_RESONANCE_LIMIT
            assert 1.9 < abs(c2.value) / abs(c1.value) < 2.1

    def test_resonance_matches_quadrature(self):
        vc = critical_velocity(self.mode)
        traj = TrajectorySpec.inertial(vc, 1.0, 10000.0)
        ca = chi_inertial_analytic(self.mode, self.coup, traj, 50.0)
        cq = chi_quadrature(self.mode, self.coup, traj, 50.0)
        assert abs(ca.value - cq.value) < 1e-6

    def test_matches_40_digit_reference(self):
        # Around the band edge, where a literal closed form would cancel
        # catastrophically, and far from resonance on both sides of v_c.
        omega = self.mode.omega
        q = self.mode.k * math.pi / self.mode.L
        vels = [0.55, 0.9]
        for rel in (1, 2, 5, 10):
            for sign in (1, -1):
                omega_t = omega * (1.0 + sign * rel * DELTA_RES)
                vels.append(omega_t / math.hypot(q, omega_t))
        for v in vels:
            traj = TrajectorySpec.inertial(v, 1.0, 10000.0)
            for tau in (5.0, 50.0):
                got = chi_inertial_analytic(self.mode, self.coup, traj, tau).value
                ref = mpmath_inertial_chi(self.mode, self.coup.lam, traj, tau)
                assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_modulus_continuous_across_band(self):
        omega = self.mode.omega
        q = self.mode.k * math.pi / self.mode.L

        def chi_at(rel):
            omega_t = omega * (1.0 + rel)
            v = omega_t / math.hypot(q, omega_t)
            traj = TrajectorySpec.inertial(v, 1.0, 10000.0)
            return chi_inertial_analytic(self.mode, self.coup, traj, 20.0)

        inside = chi_at(0.99 * DELTA_RES)
        outside = chi_at(1.01 * DELTA_RES)
        assert inside.branch is ChiBranch.INERTIAL_RESONANCE_LIMIT
        assert outside.branch is ChiBranch.INERTIAL_CLOSED_FORM
        assert abs(abs(inside.value) - abs(outside.value)) < 1e-7 * abs(outside.value)

    def test_rejects_past_wall(self):
        traj = TrajectorySpec.inertial(0.5, 1.0, 10000.0)
        with pytest.raises(InvalidParameterError):
            chi_inertial_analytic(self.mode, self.coup, traj, 2 * wall_time(traj))

    def test_rejects_non_inertial(self):
        with pytest.raises(InvalidParameterError):
            chi_inertial_analytic(
                self.mode, self.coup, TrajectorySpec.static(1.0, 10000.0), 1.0
            )


class TestChiQuadrature:
    def test_zero_coupling(self):
        mode = ModeSpec(2, 4.0, 1.0)
        traj = TrajectorySpec.accelerated(1.0, 1.0, 4.0)
        c = chi_quadrature(mode, CouplingSpec(0.0), traj, 3.0)
        assert c.value == 0 and c.err_estimate == 0.0

    def test_error_estimate_within_tolerance(self):
        mode = ModeSpec(5000, 10000.0, 1.0)
        coup = CouplingSpec(2 * math.sqrt(5000.0))
        traj = TrajectorySpec.accelerated(0.8, 1.0, 10000.0)
        c = chi_quadrature(mode, coup, traj, 10.0, tol=1e-10)
        assert c.branch is ChiBranch.QUADRATURE
        assert c.err_estimate <= 1e-10

    def test_against_scipy_reference(self):
        # independent integrator on a modest accelerated case
        mode = ModeSpec(7, 9.0, 0.8)
        coup = CouplingSpec(1.1)
        traj = TrajectorySpec.accelerated(0.6, 0.4, 9.0)
        for tau in (1.5, 4.0):
            mine = chi_quadrature(mode, coup, traj, tau).value
            ref = scipy_chi(mode, coup.lam, traj, tau)
            assert mine == pytest.approx(ref, abs=5e-11)

    def test_additivity_against_segment_reference(self):
        mode = ModeSpec(7, 9.0, 0.8)
        coup = CouplingSpec(1.1)
        traj = TrajectorySpec.accelerated(0.6, 0.4, 9.0)
        tau1, tau2 = 2.0, 5.0
        c1 = chi_quadrature(mode, coup, traj, tau1).value
        c2 = chi_quadrature(mode, coup, traj, tau2).value

        def f(t, trig):
            return mode.profile(position(traj, t)) * trig(mode.omega * t)

        re, _ = quad(lambda t: f(t, math.cos), tau1, tau2, limit=500, epsabs=1e-13)
        im, _ = quad(lambda t: f(t, math.sin), tau1, tau2, limit=500, epsabs=1e-13)
        segment = -1j * coup.lam * complex(re, im)
        assert c2 - c1 == pytest.approx(segment, abs=2 * DEFAULT_TOL + 1e-10)

    def test_post_wall_freeze_exact(self):
        mode = ModeSpec(5000, 10000.0, 1.0)
        coup = CouplingSpec(2 * math.sqrt(5000.0))
        traj = TrajectorySpec.accelerated(0.8, 1.0, 10000.0)
        tw = wall_time(traj)
        ref = chi_quadrature(mode, coup, traj, tw).value
        for tau in (1.5 * tw, 10 * tw, 40 * tw):
            assert chi_quadrature(mode, coup, traj, tau).value == ref

    def test_static_trajectory_agrees_with_closed_form(self):
        mode = ModeSpec(3, 6.0, 0.5)
        coup = CouplingSpec(0.7)
        traj = TrajectorySpec.static(1.0, 6.0)
        cs = chi_static(mode, coup, 1.0, 7.7)
        cq = chi_quadrature(mode, coup, traj, 7.7, tol=1e-12)
        assert cs.value == pytest.approx(cq.value, abs=1e-12)

    def test_rejects_bad_tolerance(self):
        mode = ModeSpec(2, 4.0, 1.0)
        with pytest.raises(InvalidParameterError):
            chi_quadrature(mode, CouplingSpec(1.0), TrajectorySpec.static(1.0, 4.0), 1.0, tol=0.0)

    def test_non_convergence_carries_best_estimate(self):
        # an unreachable tolerance must fail loudly, with the best value attached
        mode = ModeSpec(2, 4.0, 1.0)
        coup = CouplingSpec(1.0)
        traj = TrajectorySpec.accelerated(1.0, 1.0, 4.0)
        with pytest.raises(NumericalFailure) as exc_info:
            chi_quadrature(mode, coup, traj, 2.0, tol=1e-300)
        best = exc_info.value.best
        assert best.branch is ChiBranch.QUADRATURE
        reference = chi_quadrature(mode, coup, traj, 2.0).value
        assert abs(best.value - reference) < 1e-9

    def test_series_marks_unconverged_samples(self):
        mode = ModeSpec(2, 4.0, 1.0)
        coup = CouplingSpec(1.0)
        traj = TrajectorySpec.accelerated(1.0, 1.0, 4.0)
        vals, errs, branch = chi_series(mode, coup, traj, [0.0, 1.0, 2.0], tol=1e-300)
        assert branch is ChiBranch.QUADRATURE
        assert np.any(errs > 1e-300)
        assert np.all(np.isfinite(vals))

    def test_unreachable_tolerance_reports_stall(self):
        mode = ModeSpec(2, 4.0, 1.0)
        traj = TrajectorySpec.accelerated(1.0, 1.0, 4.0)
        with pytest.raises(NumericalFailure, match="stalled"):
            chi_quadrature(mode, CouplingSpec(1.0), traj, 2.0, tol=1e-300)

    @pytest.mark.parametrize("k,traj,tau", [
        (5000, TrajectorySpec.static(1.0, 10000.0), 2e6),
        (5000, TrajectorySpec.static(1.0, 10000.0), 1e9),
        (500_000, TrajectorySpec.accelerated(8.0, 1.0, 10000.0), 2.0),
    ])
    def test_starting_panels_over_the_cap_fail_before_allocating(self, k, traj, tau):
        # Uniform steps on the static worldline, mode-phase steps on the
        # accelerated one: each count is over the cap before any refinement.
        mode = ModeSpec(k, 10000.0, 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(NumericalFailure, match=f"k={k} .* panel cap 400000"):
                chi_quadrature(mode, CouplingSpec(1.0), traj, tau)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e5

    def test_refinement_replaces_split_panels_in_place(self):
        # Three equal panels: the first needs no split at this tolerance,
        # the other two do.
        mode = ModeSpec(2, 4.0, 1.0)
        traj = TrajectorySpec.accelerated(1.0, 1.0, 4.0)
        kind, phi0, rate, cc = _kernel_params(mode.k, mode.L, traj)
        coarse = np.linspace(0.0, wall_time(traj), 4)
        lo, hi, vals, errs, _, stalls = one_segment(
            kind, phi0, rate, cc, mode.omega, coarse, 1e-12
        )
        assert stalls == [None]
        assert errs.sum() <= 1e-12
        assert lo[0] == coarse[0] and hi[-1] == coarse[-1]
        np.testing.assert_array_equal(lo[1:], hi[:-1])
        assert lo.size > coarse.size - 1
        again, _ = kernels.panel_integrals(kind, phi0, rate, cc, mode.omega, lo, hi)
        np.testing.assert_allclose(vals, again, rtol=0, atol=1e-15)
        edges = np.linspace(0.0, coarse[-1], 4001)
        ref, _ = kernels.panel_integrals(kind, phi0, rate, cc, mode.omega, edges[:-1], edges[1:])
        assert abs(vals.sum() - ref.sum()) <= 1e-12


def _eighth_cycle_edges(mode, traj, t_end):
    """The earlier, finer starting grid: 1/8 cycle of either phase per panel."""
    step = math.pi / 4.0
    pts = np.linspace(0.0, t_end, math.ceil(t_end * mode.omega / step) + 1)
    cc = mode.k * math.pi / (mode.L * traj.a)
    sweep = cc * (math.cosh(traj.a * t_end) - 1.0)
    n_phase = math.ceil(sweep / step)
    theta = np.arange(1, n_phase) * (sweep / n_phase)
    return np.union1d(pts, np.arccosh(1.0 + theta / cc) / traj.a)


class TestHalfCycleStart:
    """The adaptive pass starts from half-cycle panels and refines from there."""

    @pytest.mark.parametrize("a", [0.02, 0.8, 8.0, 50.0])
    def test_figure_scale_matches_fine_grid(self, fig_cavity, fig_coupling, a):
        mode = fig_cavity.mode()
        traj = TrajectorySpec.accelerated(a, fig_cavity.x0, fig_cavity.L)
        c = chi_quadrature(mode, fig_coupling, traj, 500.0)
        assert c.err_estimate <= DEFAULT_TOL
        kind, phi0, rate, cc = _kernel_params(mode.k, mode.L, traj)
        edges = _eighth_cycle_edges(mode, traj, wall_time(traj))
        _, errs = kernels.panel_integrals(kind, phi0, rate, cc, mode.omega, edges[:-1], edges[1:])
        # At large a the first panel is unresolved even at 1/8 cycle, because
        # A(t) = cc*(cosh(a*t) - 1) is far from linear there: cut every panel
        # whose estimate is above rounding level into 64.
        bad = np.flatnonzero(errs > 1e-13)
        cuts = edges[bad, None] + np.diff(edges)[bad, None] * np.linspace(0.0, 1.0, 65)
        edges = np.union1d(edges, cuts.ravel())
        vals, errs = kernels.panel_integrals(kind, phi0, rate, cc, mode.omega, edges[:-1], edges[1:])
        pref = fig_coupling.lam / math.sqrt(mode.k * math.pi)
        assert pref * errs.sum() <= DEFAULT_TOL
        assert abs(c.value - (-1j * pref * vals.sum())) <= DEFAULT_TOL

    def test_starting_panels_span_half_a_cycle(self, fig_cavity):
        mode, x0, L = fig_cavity.mode(), fig_cavity.x0, fig_cavity.L
        half_cycle = math.pi * (1 + 1e-9)
        traj = TrajectorySpec.accelerated(0.8, x0, L)
        t_end = min(500.0, wall_time(traj))
        edges = one_mode_edges(mode, traj, t_end)
        assert edges[0] == 0.0 and edges[-1] == t_end
        assert edges.size - 1 <= 5_100
        cc = mode.k * math.pi / (mode.L * traj.a)
        mode_phase = cc * (np.cosh(traj.a * edges) - 1.0)
        assert np.all(np.diff(edges) * mode.omega <= half_cycle)
        assert np.all(np.diff(mode_phase) <= half_cycle)
        # Forced-quadrature static and inertial chi start from the same
        # builder: half a cycle of omega_k and of the mode-crossing omega_L.
        # Below v_c omega_L < omega_k, at v_c they match, above it omega_L
        # sets the step.
        for v in (None, 0.3, critical_velocity(mode), 0.9):
            traj = TrajectorySpec.static(x0, L) if v is None else TrajectorySpec.inertial(v, x0, L)
            edges = one_mode_edges(mode, traj, 500.0)
            assert edges[0] == 0.0 and edges[-1] == 500.0
            steps = np.diff(edges)
            assert np.all(steps > 0.0)
            omega_l = 0.0 if v is None else mode.k * math.pi * v / (L * math.sqrt(1.0 - v * v))
            assert np.all(steps * mode.omega <= half_cycle)
            assert np.all(steps * omega_l <= half_cycle)
            # ... and not much less: the faster phase sets the step.
            assert steps.max() * max(mode.omega, omega_l) > 0.99 * math.pi

    @pytest.mark.parametrize("L", [4.0, 40.0, 400.0, 1e4])
    def test_sweep_converges_without_stall(self, L):
        coup = CouplingSpec(1.0)
        for k, a, tol in itertools.product((1, 17, 256, 5000), (0.05, 2.0, 20.0), (1e-6, 1e-13)):
            mode = ModeSpec(k, L, 1.0)
            traj = TrajectorySpec.accelerated(a, L / (2 * k), L)
            c = chi_quadrature(mode, coup, traj, wall_time(traj), tol=tol)
            assert c.err_estimate <= tol


class TestDispatch:
    def test_static_dispatch(self):
        mode = ModeSpec(2, 4.0, 1.0)
        c = chi(mode, CouplingSpec(1.0), TrajectorySpec.static(1.0, 4.0), 2.0)
        assert c.branch is ChiBranch.STATIC_CLOSED_FORM

    def test_inertial_dispatch_clamps_past_wall(self):
        mode = ModeSpec(2, 4.0, 1.0)
        traj = TrajectorySpec.inertial(0.5, 1.0, 4.0)
        tw = wall_time(traj)
        frozen = chi(mode, CouplingSpec(1.0), traj, 5 * tw)
        at_wall = chi(mode, CouplingSpec(1.0), traj, tw)
        assert frozen.value == at_wall.value

    def test_accelerated_dispatch(self):
        mode = ModeSpec(2, 4.0, 1.0)
        c = chi(mode, CouplingSpec(1.0), TrajectorySpec.accelerated(1.0, 1.0, 4.0), 2.0)
        assert c.branch is ChiBranch.QUADRATURE

    def test_force_quadrature(self):
        mode = ModeSpec(2, 4.0, 1.0)
        coup = CouplingSpec(1.0)
        traj = TrajectorySpec.inertial(0.4, 1.0, 4.0)
        forced = chi(mode, coup, traj, 2.0, force_quadrature=True)
        closed = chi(mode, coup, traj, 2.0)
        assert forced.branch is ChiBranch.QUADRATURE
        assert forced.value == pytest.approx(closed.value, abs=1e-9)

    def test_series_matches_pointwise(self):
        mode = ModeSpec(3, 7.0, 1.0)
        coup = CouplingSpec(0.8)
        traj = TrajectorySpec.accelerated(0.9, 0.5, 7.0)
        taus = np.linspace(0.0, 8.0, 41)
        vals, errs, branch = chi_series(mode, coup, traj, taus)
        assert branch is ChiBranch.QUADRATURE
        for i in (0, 7, 23, 40):
            single = chi_quadrature(mode, coup, traj, taus[i])
            assert vals[i] == pytest.approx(single.value, abs=3e-10)
        assert vals[0] == 0


class TestOnePath:
    """The scalar entry points are 0-d calls of the grid evaluation."""

    def test_scalar_entry_points_equal_series_element_zero(self, fig_cavity, fig_coupling):
        mode, x0, L = fig_cavity.mode(), fig_cavity.x0, fig_cavity.L
        cases = [
            (TrajectorySpec.static(x0, L), 7.3),
            (TrajectorySpec.inertial(0.6, x0, L), 12.5),
            (TrajectorySpec.inertial(critical_velocity(mode), x0, L), 40.0),
            (TrajectorySpec.accelerated(0.8, x0, L), 6.1),
        ]
        for traj, tau in cases:
            vals, errs, branch = chi_series(mode, fig_coupling, traj, [tau])
            series = ChiValue(complex(vals[0]), branch, float(errs[0]))
            assert chi(mode, fig_coupling, traj, tau) == series
            if traj.kind is TrajectoryKind.STATIC:
                assert chi_static(mode, fig_coupling, x0, tau) == series
            if traj.kind is TrajectoryKind.INERTIAL:
                assert chi_inertial_analytic(mode, fig_coupling, traj, tau) == series
            vals, errs, branch = chi_series(mode, fig_coupling, traj, [tau], force_quadrature=True)
            forced = ChiValue(complex(vals[0]), branch, float(errs[0]))
            assert chi_quadrature(mode, fig_coupling, traj, tau) == forced
            assert chi(mode, fig_coupling, traj, tau, force_quadrature=True) == forced
        in_band = chi_inertial_analytic(mode, fig_coupling, cases[2][0], cases[2][1])
        assert in_band.branch is ChiBranch.INERTIAL_RESONANCE_LIMIT
        # A stall: the series returns its best estimate, chi raises with the same bits.
        mode, coup = ModeSpec(2, 4.0, 1.0), CouplingSpec(1.0)
        traj = TrajectorySpec.accelerated(1.0, 1.0, 4.0)
        vals, errs, branch = chi_series(mode, coup, traj, [2.0], tol=1e-300)
        with pytest.raises(NumericalFailure) as exc_info:
            chi(mode, coup, traj, 2.0, tol=1e-300)
        assert exc_info.value.best == ChiValue(complex(vals[0]), branch, float(errs[0]))

    @pytest.mark.parametrize("kind", ["static", "inertial"])
    def test_closed_form_mode_block_matches_series(self, small_cavity, kind):
        coup = CouplingSpec(0.4)
        if kind == "static":
            traj = TrajectorySpec.static(small_cavity.x0, small_cavity.L)
        else:
            traj = TrajectorySpec.inertial(0.3, small_cavity.x0, small_cavity.L)
        ks = np.arange(1, 41)
        for tau in (0.37, 1.7, 60.0):
            got = _abs2_block(ks, small_cavity, coup, traj, tau, DEFAULT_TOL)
            for k, g in zip(ks, got):
                vals, _, _ = chi_series(small_cavity.mode(int(k)), coup, traj, [tau])
                ref = abs(vals[0]) ** 2
                assert abs(g - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_series_rejects_bad_tolerance(self, small_cavity, tol):
        mode = small_cavity.mode()
        x0, L = small_cavity.x0, small_cavity.L
        for traj in (
            TrajectorySpec.static(x0, L),
            TrajectorySpec.inertial(0.3, x0, L),
            TrajectorySpec.accelerated(1.0, x0, L),
        ):
            with pytest.raises(InvalidParameterError, match="tol"):
                chi_series(mode, CouplingSpec(0.4), traj, [0.5, 1.0], tol=tol)
            with pytest.raises(InvalidParameterError, match="tol"):
                chi(mode, CouplingSpec(0.4), traj, 1.0, tol=tol)


class TestScalingInvariance:
    def test_massless_scaling_leaves_chi_unchanged(self):
        # (k0, L, lam) -> (s*k0, s*L, sqrt(s)*lam) at m = 0 with the worldline
        # unchanged; note the antinode start L/(2*k0) is the same point in
        # the scaled cavity, so x0 stays put.
        k0, L, lam, x0 = 5000, 10000.0, 2 * math.sqrt(5000.0), 1.0
        s = 3
        base_mode = ModeSpec(k0, L, 0.0)
        scaled_mode = ModeSpec(s * k0, s * L, 0.0)
        base_coup = CouplingSpec(lam)
        scaled_coup = CouplingSpec(math.sqrt(s) * lam)
        assert s * L / (2 * s * k0) == x0  # antinode is scale-invariant
        # inertial closed form
        for v, tau in [(0.37, 15.0), (0.62, 28.0)]:
            b = chi_inertial_analytic(base_mode, base_coup, TrajectorySpec.inertial(v, x0, L), tau)
            c = chi_inertial_analytic(
                scaled_mode, scaled_coup, TrajectorySpec.inertial(v, x0, s * L), tau
            )
            assert abs(b.value - c.value) < 1e-10
        # accelerated quadrature
        b = chi_quadrature(base_mode, base_coup, TrajectorySpec.accelerated(0.8, x0, L), 8.0)
        c = chi_quadrature(
            scaled_mode, scaled_coup, TrajectorySpec.accelerated(0.8, x0, s * L), 8.0
        )
        assert abs(b.value - c.value) < 1e-9


class TestCriticalVelocity:
    def test_figure_value(self):
        mode = ModeSpec(5000, 10000.0, 1.0)
        assert critical_velocity(mode) == pytest.approx(V_CRIT_FIG, abs=1e-12)

    def test_massless_limit(self):
        assert critical_velocity(ModeSpec(3, 2.0, 0.0)) == 1.0 / math.sqrt(2.0)
        assert critical_velocity(ModeSpec(3, 2.0, 1e-12)) == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-12
        )

    def test_heavy_field_limit(self):
        assert critical_velocity(ModeSpec(3, 2.0, 1e9)) > 0.999999

    def test_range_for_massive_field(self):
        for m in (0.1, 1.0, 10.0):
            vc = critical_velocity(ModeSpec(5, 7.0, m))
            assert 1.0 / math.sqrt(2.0) < vc < 1.0

    def test_resonance_condition(self):
        # at v_c the mode-crossing frequency equals the mode frequency
        mode = ModeSpec(5000, 10000.0, 1.0)
        vc = critical_velocity(mode)
        omega_l = mode.k * math.pi * vc / (mode.L * math.sqrt(1 - vc**2))
        assert omega_l == pytest.approx(mode.omega, rel=1e-12)


class TestChiModeSum:
    def test_zero_cases(self, small_cavity):
        traj = TrajectorySpec.static(small_cavity.x0, small_cavity.L)
        assert chi_mode_sum(small_cavity, CouplingSpec(0.0), traj, 3.0, k_max=64) == 0.0
        assert chi_mode_sum(small_cavity, CouplingSpec(0.5), traj, 0.0, k_max=64) == 0.0

    def test_dominates_probed_mode(self, small_cavity):
        coup = CouplingSpec(0.5)
        traj = TrajectorySpec.static(small_cavity.x0, small_cavity.L)
        total = chi_mode_sum(small_cavity, coup, traj, 2.0, k_max=256)
        probed = abs(chi_static(small_cavity.mode(), coup, small_cavity.x0, 2.0).value) ** 2
        assert total >= probed

    def test_exact_truncation_matches_blockwise(self, small_cavity):
        coup = CouplingSpec(0.5)
        traj = TrajectorySpec.inertial(0.3, small_cavity.x0, small_cavity.L)
        exact_16 = chi_mode_sum(small_cavity, coup, traj, 2.0, k_max=16)
        exact_32 = chi_mode_sum(small_cavity, coup, traj, 2.0, k_max=32)
        deep = chi_mode_sum(small_cavity, coup, traj, 2.0, k_max=4096)
        deeper = chi_mode_sum(small_cavity, coup, traj, 2.0, k_max=16_384)
        assert exact_16 <= exact_32 <= deep * (1 + 1e-12)
        assert deeper == pytest.approx(deep, rel=1e-6)

    def test_k_max_is_checked_first(self, small_cavity):
        traj = TrajectorySpec.static(small_cavity.x0, small_cavity.L)
        for k_max in (0, -3, 2.5, 3.0, math.nan, math.inf):
            with pytest.raises(InvalidParameterError, match="k_max"):
                chi_mode_sum(small_cavity, CouplingSpec(0.0), traj, 1.0, k_max=k_max)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("kind", ["static", "inertial", "accelerated"])
    def test_bad_tolerance_rejected_on_every_worldline(self, small_cavity, kind, tol):
        x0, L = small_cavity.x0, small_cavity.L
        traj = {
            "static": TrajectorySpec.static(x0, L),
            "inertial": TrajectorySpec.inertial(0.3, x0, L),
            "accelerated": TrajectorySpec.accelerated(1.0, x0, L),
        }[kind]
        with pytest.raises(InvalidParameterError, match="tol"):
            chi_mode_sum(small_cavity, CouplingSpec(0.5), traj, 1.0, k_max=8, tol=tol)

    def test_accelerated_path(self, small_cavity):
        coup = CouplingSpec(0.5)
        traj = TrajectorySpec.accelerated(1.0, small_cavity.x0, small_cavity.L)
        total = chi_mode_sum(small_cavity, coup, traj, 1.0, k_max=8)
        direct = sum(
            abs(chi_quadrature(small_cavity.mode(k), coup, traj, 1.0).value) ** 2
            for k in range(1, 9)
        )
        # The terms are the same bits; only the order in which the 8
        # positive terms are added differs (numpy pairwise, Python in turn).
        assert total == pytest.approx(direct, rel=1e-14)

    def test_stalled_accelerated_mode_names_k_and_carries_partial_sum(self, small_cavity):
        coup = CouplingSpec(0.5)
        traj = TrajectorySpec.accelerated(1.0, small_cavity.x0, small_cavity.L)
        with pytest.raises(NumericalFailure, match="quadrature") as exc_info:
            chi_mode_sum(small_cavity, coup, traj, 1.0, k_max=20, tol=1e-300)
        assert "k=" in str(exc_info.value)
        best = exc_info.value.best
        assert isinstance(best, float)
        # Every mode stalls at once, in the first block: its 16 best estimates.
        reachable = chi_mode_sum(small_cavity, coup, traj, 1.0, k_max=16)
        assert best == pytest.approx(reachable, rel=1e-9)

    def test_accelerated_sum_memory_stays_block_sized(self):
        # One 256-mode sum holds one 16-mode block of edge and prefix-sum
        # tables at a time (1.33 MB traced peak, 2.17 MB with 64-mode
        # blocks); batching all 256 modes at once took 13.7 MB.
        cavity = CavityConfig(L=5.0, m=1.0, k0=2)
        traj = TrajectorySpec.accelerated(1.3, cavity.x0, cavity.L)
        tau = wall_time(traj) + 1.0
        tracemalloc.start()
        try:
            chi_mode_sum(cavity, CouplingSpec(0.4), traj, tau, k_max=256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3e6


class TestModeBlocks:
    """An accelerated mode sum evaluates each block of modes as one quadrature."""

    @pytest.mark.parametrize("L", [4.0, 40.0])
    @pytest.mark.parametrize("a", [0.2, 2.0])
    def test_abs2_block_matches_chi_quadrature_bitwise(self, L, a):
        # 1..40 crosses two block edges and ends inside a block. The early
        # time starts some modes from a single panel.
        cavity = CavityConfig(L=L, m=1.0, k0=2)
        coup = CouplingSpec(0.4)
        traj = TrajectorySpec.accelerated(a, cavity.x0, L)
        ks = np.arange(1, 41)
        assert ks.size % _MODE_BLOCK != 0
        for tau in (0.05, wall_time(traj) + 1.0):
            got = _abs2_block(ks, cavity, coup, traj, tau, DEFAULT_TOL)
            ref = [abs(chi_quadrature(cavity.mode(int(k)), coup, traj, tau).value) ** 2 for k in ks]
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("L", [4.0, 40.0])
    @pytest.mark.parametrize("a", [0.2, 2.0])
    def test_block_edges_equal_single_mode_edges(self, L, a):
        # Slice j of a block's edges is the same mode built alone, grid
        # times included.
        traj = TrajectorySpec.accelerated(a, L / 4, L)
        ks = np.arange(1, 41)
        omega = np.array([ModeSpec(int(k), L, 1.0).omega for k in ks])
        for t_end in (0.05, wall_time(traj)):
            times = np.array([t_end / 3, t_end / 2, t_end])
            edges, offsets = _block_edges(ks, L, omega, traj, t_end, times)
            assert offsets[0] == 0 and offsets[-1] == edges.size
            for j in range(ks.size):
                own = edges[offsets[j]:offsets[j + 1]]
                alone, _ = _block_edges(ks[j:j + 1], L, omega[j:j + 1], traj, t_end, times)
                np.testing.assert_array_equal(own, alone)
                assert own[0] == 0.0 and own[-1] == t_end and np.all(np.diff(own) > 0.0)
                assert np.all(np.isin(times, own))

    def test_segments_refine_as_they_would_alone(self):
        # Two modes with different tolerances in one pass: each segment's
        # panels equal those of its own single-segment pass.
        L, traj = 10.0, TrajectorySpec.accelerated(0.9, 2.5, 10.0)
        t_end = wall_time(traj)
        modes = [ModeSpec(k, L, 1.0) for k in (3, 11)]
        tols = np.array([1e-13, 1e-6])
        omega = np.array([md.omega for md in modes])
        edges, offsets = _block_edges(np.array([3, 11]), L, omega, traj, t_end, np.array([t_end]))
        kind, phi0, rate, cc = _kernel_params(np.array([3, 11]), L, traj)
        lo, hi, vals, errs, counts, stalls = _adaptive_panels(
            kind, phi0, rate, cc, omega, edges, offsets, tols
        )
        assert stalls == [None, None]
        assert sum(counts) == lo.size
        for j, mode in enumerate(modes):
            alone = one_segment(
                kind, phi0[j], rate, cc[j], mode.omega, edges[offsets[j]:offsets[j + 1]], tols[j]
            )
            own = slice(sum(counts[:j]), sum(counts[:j + 1]))
            for got, ref in zip((lo, hi, vals, errs), alone[:4]):
                np.testing.assert_array_equal(got[own], ref)


class TestPhaseBeta:
    def test_zero_drive(self):
        assert phase_beta(lambda t: np.zeros_like(t), 1.0, 0.0, 5.0) == 0.0

    def test_constant_drive_full_period(self):
        val = phase_beta(lambda t: np.ones_like(t), 1.0, 0.0, 2 * math.pi)
        assert val == pytest.approx(2 * math.pi, abs=1e-8)

    def test_empty_domain(self):
        assert phase_beta(lambda t: np.ones_like(t), 1.0, 1.3, 1.3) == 0.0

    def test_constant_drive_generic_window(self):
        omega, t0, t1 = 2.0, 0.5, 1.7
        val = phase_beta(lambda t: np.ones_like(t), omega, t0, t1)
        span = t1 - t0
        analytic = (span - math.sin(omega * span) / omega) / omega
        assert val == pytest.approx(analytic, abs=1e-9)

    @pytest.mark.parametrize("f0, omega, tau", [(0.4, 1.0, math.pi), (0.3, 1.4, 2.0), (1.0, 2.7, 5.3)])
    def test_constant_drive_closed_form(self, f0, omega, tau):
        val = phase_beta(lambda t: np.full_like(t, f0), omega, 0.0, tau)
        exact = f0**2 * (omega * tau - math.sin(omega * tau)) / omega**2
        assert abs(val - exact) <= 1e-9

    def test_moving_drive_matches_scipy_simpson(self):
        # the inertial drive of test_oracle's moving-drive propagator check,
        # against the same doubling loop on scipy's Simpson rules
        mode = ModeSpec(1, 4.0, 1.0)
        traj = TrajectorySpec.inertial(0.3, 1.0, 4.0)
        tau, tol = 2.0, 1e-9

        def drive(t):
            return 0.5 * mode_function(mode.k, mode.L, position(traj, t))

        prev = ref = None
        for n in (512, 1024, 2048, 4096, 8192, 16384):
            t = np.linspace(0.0, tau, n + 1)
            ft = drive(t)
            c = cumulative_simpson(ft * np.cos(mode.omega * t), x=t, initial=0.0)
            s = cumulative_simpson(ft * np.sin(mode.omega * t), x=t, initial=0.0)
            inner = np.sin(mode.omega * t) * c - np.cos(mode.omega * t) * s
            val = float(simpson(ft * inner, x=t))
            if prev is not None and abs(val - prev) <= max(tol, tol * abs(val)):
                ref = val
                break
            prev = val
        assert ref is not None
        assert abs(phase_beta(drive, mode.omega, 0.0, tau, tol=tol) - ref) <= tol

    def test_rejects_reversed_window(self):
        with pytest.raises(InvalidParameterError):
            phase_beta(lambda t: np.ones_like(t), 1.0, 2.0, 1.0)


class TestCouplingAndChiValue:
    def test_coupling_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            CouplingSpec(-0.1)

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_coupling_rejects_non_finite(self, lam):
        with pytest.raises(InvalidParameterError, match="lam"):
            CouplingSpec(lam)

    def test_chi_value_fields(self):
        c = ChiValue(1 + 2j, ChiBranch.QUADRATURE, 1e-12)
        assert c.value == 1 + 2j
        assert c.err_estimate >= 0


class TestInvalidTimes:
    """NaN times, and inf on a static worldline, raise InvalidParameterError
    naming the time on every entry point and every worldline."""

    @staticmethod
    def _trajectories(cavity):
        x0, L = cavity.x0, cavity.L
        return {
            "static": TrajectorySpec.static(x0, L),
            "inertial": TrajectorySpec.inertial(0.3, x0, L),
            "accelerated": TrajectorySpec.accelerated(1.0, x0, L),
        }

    @pytest.mark.parametrize("kind", ["static", "inertial", "accelerated"])
    @pytest.mark.parametrize("force_quadrature", [False, True])
    def test_nan_time_rejected(self, small_cavity, kind, force_quadrature):
        traj = self._trajectories(small_cavity)[kind]
        mode, coup = small_cavity.mode(), CouplingSpec(0.4)
        with pytest.raises(InvalidParameterError, match="tau=nan"):
            chi(mode, coup, traj, math.nan, force_quadrature=force_quadrature)
        with pytest.raises(InvalidParameterError, match="tau=nan"):
            chi_series(mode, coup, traj, [0.5, math.nan], force_quadrature=force_quadrature)

    @pytest.mark.parametrize("kind", ["static", "inertial", "accelerated"])
    def test_nan_time_rejected_by_mode_sum(self, small_cavity, kind):
        traj = self._trajectories(small_cavity)[kind]
        with pytest.raises(InvalidParameterError, match="tau=nan"):
            chi_mode_sum(small_cavity, CouplingSpec(0.4), traj, math.nan, k_max=8)

    def test_infinite_time_rejected_on_static_worldline(self, small_cavity):
        traj = self._trajectories(small_cavity)["static"]
        mode, coup = small_cavity.mode(), CouplingSpec(0.4)
        with pytest.raises(InvalidParameterError, match="tau=inf.*static"):
            chi(mode, coup, traj, math.inf)
        with pytest.raises(InvalidParameterError, match="tau=inf"):
            chi_series(mode, coup, traj, [0.5, math.inf])
        with pytest.raises(InvalidParameterError, match="tau=inf"):
            chi_mode_sum(small_cavity, coup, traj, math.inf, k_max=8)

    @pytest.mark.parametrize("kind", ["inertial", "accelerated"])
    def test_infinite_time_is_the_wall_value_on_moving_worldlines(self, small_cavity, kind):
        # Past the wall-arrival time chi is frozen, so tau = inf is well defined.
        traj = self._trajectories(small_cavity)[kind]
        mode, coup = small_cavity.mode(), CouplingSpec(0.4)
        at_wall = chi(mode, coup, traj, wall_time(traj))
        assert chi(mode, coup, traj, math.inf).value == at_wall.value
