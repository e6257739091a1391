import itertools
import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from udwitness import kernels, oracle, response, trajectory
from udwitness.errors import InvalidParameterError, NumericalFailure
from udwitness.field import CavityConfig, ModeSpec, mode_frequencies
from udwitness.response import (
    DEFAULT_TOL,
    DELTA_RES,
    ChiBranch,
    ChiValue,
    CouplingSpec,
    _MODE_BLOCK,
    _adaptive_panels,
    _block_edges,
    _exp_integrals,
    _plan,
    chi,
    chi_mode_sum,
    chi_modes,
    chi_series,
    chi_static_amplitude,
    critical_velocity,
)
from udwitness.trajectory import TrajectorySpec, position, wall_time
from udwitness.witness import StateSpec, witness_series_from_omega

V_CRIT_FIG = 0.76436169849601359  # frozen from 30-digit arithmetic
START_PANEL_PHASE = 16.0 * math.pi  # sixteen half cycles: see test_k61_pair_at_the_floor_through_16_half_cycles


def panel_edges(lo, hi):
    """The edges of contiguous panels [lo[p], hi[p]]: lo[0], then every hi."""
    np.testing.assert_array_equal(lo[1:], hi[:-1])
    return np.concatenate([lo[:1], hi])


def one_mode_edges(mode, traj, t_end):
    """Starting edges of one mode's chi at t_end, as the quadrature builds them."""
    plan = _plan(np.array([mode.k]), np.array([mode.omega]), traj, t_end)
    lo, hi, counts = _block_edges(traj, plan, t_end, np.array([t_end]))
    assert counts == [lo.size] and hi.size == lo.size
    return panel_edges(lo, hi)


def table_size(plan, block):
    """Entries of the padded starting edge table of the modes ``block`` of
    the _plan ``plan``."""
    n_t, n_x = plan[3:5, block]
    return n_t.size * (n_t.max() + n_x.max())


def assert_planned(blocks, plan, n_modes):
    """_mode_blocks' ``blocks`` are contiguous, cover modes 0..n_modes-1,
    and each holds at most _MODE_BLOCK modes within the edge-table cap."""
    assert blocks[0].start == 0 and blocks[-1].stop == n_modes
    for b, after in zip(blocks, blocks[1:]):
        assert b.stop == after.start
    for b in blocks:
        assert 1 <= b.stop - b.start <= _MODE_BLOCK
        assert table_size(plan, b) <= response._MAX_EDGE_TABLE


def k61_plan(ks, omega, traj, t_end):
    """_plan of modes ``ks`` with the switch time t_x at infinity: every
    panel of an _adaptive_panels pass from it is a K61 panel."""
    plan = _plan(ks, omega, traj, t_end)
    plan[2] = math.inf
    return plan


def one_segment(traj, column, edges, tol):
    """_adaptive_panels on a single segment (one mode) from its plan ``column``."""
    assert edges[0] == 0.0  # a segment spans [0, t_end]
    return _adaptive_panels(
        traj, column.reshape(-1, 1), (edges[:-1], edges[1:], np.array([edges.size - 1])), edges[-1],
        np.array([tol]),
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


_GL20_X, _GL20_W = np.polynomial.legendre.leggauss(20)


def fine_accel_chi(mode, lam, traj, taus):
    """Independent reference: chi at ``taus`` on the accelerated worldline by
    20-point Gauss-Legendre on panels of at most 4 rad of either phase and
    at most 1/(4a) of proper time.

    The integrand is written from position(), not the kernel's phase
    form. Over a panel the two phases turn by at most 8 rad together and
    the mode-phase rate q*sinh(a*t) changes by a factor of at most
    e**(1/4), so the panels need no refinement."""
    q = mode.k * math.pi / mode.L
    t_end = min(max(taus), wall_time(traj))
    sweep = q * (position(traj, t_end) - traj.x0)
    theta = np.linspace(0.0, sweep, max(1, math.ceil(sweep / 4.0)) + 1)[1:-1]
    rate = max(mode.omega / 4.0, 4.0 * traj.a)
    edges = np.unique(np.concatenate([
        np.linspace(0.0, t_end, max(1, math.ceil(rate * t_end)) + 1),
        np.arccosh(1.0 + traj.a * theta / q) / traj.a,
        np.minimum(taus, t_end),
    ]))
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    t = mid[:, None] + half[:, None] * _GL20_X
    f = np.sin(q * position(traj, t)) * np.exp(1j * mode.omega * t)
    sums = np.concatenate([[0.0], np.cumsum(half * (f @ _GL20_W))])
    i = np.searchsorted(edges, np.minimum(taus, t_end))
    return -1j * lam / math.sqrt(mode.k * math.pi) * sums[i]


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
        traj = TrajectorySpec.static(1.0, mode.L)
        assert chi(mode, CouplingSpec(0.0), traj, 4.0).value == 0

    def test_modulus_identity(self):
        mode = ModeSpec(3, 5.0, 0.7)
        coup = CouplingSpec(1.3)
        traj = TrajectorySpec.static(1.0, mode.L)
        lam_f = coup.lam * mode.profile(1.0)
        for tau in np.linspace(0.1, 30.0, 37):
            c = chi(mode, coup, traj, tau)
            expected = 4.0 * (lam_f / mode.omega) ** 2 * math.sin(0.5 * mode.omega * tau) ** 2
            assert abs(c.value) ** 2 == pytest.approx(expected, abs=1e-14)

    def test_periodicity(self):
        mode = ModeSpec(2, 4.0, 1.0)
        coup = CouplingSpec(0.9)
        traj = TrajectorySpec.static(1.0, mode.L)
        period = 2 * math.pi / mode.omega
        for tau in (0.3, 1.7):
            a = chi(mode, coup, traj, tau).value
            b = chi(mode, coup, traj, tau + period).value
            assert a == pytest.approx(b, abs=1e-12)

    def test_matches_quadrature(self):
        mode = ModeSpec(5000, 10000.0, 1.0)
        coup = CouplingSpec(2 * math.sqrt(5000.0))
        traj = TrajectorySpec.static(1.0, 10000.0)
        for tau in (0.7, 3.0, 11.0):
            cs = chi(mode, coup, traj, tau)
            cq = chi(mode, coup, traj, tau, force_quadrature=True)
            assert cs.value == pytest.approx(cq.value, abs=1e-10)

    def test_branch_and_error(self):
        mode = ModeSpec(2, 4.0, 1.0)
        c = chi(mode, CouplingSpec(1.0), TrajectorySpec.static(1.0, 4.0), 2.0)
        assert c.branch is ChiBranch.STATIC_CLOSED_FORM
        assert c.err_estimate == 0.0

    def test_rejects_negative_tau(self):
        mode = ModeSpec(2, 4.0, 1.0)
        with pytest.raises(InvalidParameterError):
            chi(mode, CouplingSpec(1.0), TrajectorySpec.static(1.0, 4.0), -1.0)


class TestChiInertial:
    def setup_method(self):
        self.mode = ModeSpec(5000, 10000.0, 1.0)
        self.coup = CouplingSpec(2 * math.sqrt(5000.0))

    def test_figure_point_matches_quadrature(self):
        traj = TrajectorySpec.inertial(0.5, 1.0, 10000.0)
        ca = chi(self.mode, self.coup, traj, 20.0)
        cq = chi(self.mode, self.coup, traj, 20.0, force_quadrature=True)
        assert abs(ca.value - cq.value) < 1e-8
        assert ca.branch is ChiBranch.INERTIAL_CLOSED_FORM

    def test_small_velocity_approaches_static(self):
        traj = TrajectorySpec.inertial(1e-10, 1.0, 10000.0)
        ca = chi(self.mode, self.coup, traj, 5.0)
        cs = chi(self.mode, self.coup, TrajectorySpec.static(1.0, 10000.0), 5.0)
        assert abs(ca.value - cs.value) < 1e-7

    def test_resonance_branch_and_linear_envelope(self):
        vc = critical_velocity(self.mode)
        traj = TrajectorySpec.inertial(vc, 1.0, 10000.0)
        for tau in (50.0, 100.0, 200.0):
            c1 = chi(self.mode, self.coup, traj, tau)
            c2 = chi(self.mode, self.coup, traj, 2 * tau)
            assert c1.branch is ChiBranch.INERTIAL_RESONANCE_LIMIT
            assert 1.9 < abs(c2.value) / abs(c1.value) < 2.1

    def test_resonance_matches_quadrature(self):
        vc = critical_velocity(self.mode)
        traj = TrajectorySpec.inertial(vc, 1.0, 10000.0)
        ca = chi(self.mode, self.coup, traj, 50.0)
        cq = chi(self.mode, self.coup, traj, 50.0, force_quadrature=True)
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
                got = chi(self.mode, self.coup, traj, tau).value
                ref = mpmath_inertial_chi(self.mode, self.coup.lam, traj, tau)
                assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_modulus_continuous_across_band(self):
        omega = self.mode.omega
        q = self.mode.k * math.pi / self.mode.L

        def chi_at(rel):
            omega_t = omega * (1.0 + rel)
            v = omega_t / math.hypot(q, omega_t)
            traj = TrajectorySpec.inertial(v, 1.0, 10000.0)
            return chi(self.mode, self.coup, traj, 20.0)

        inside = chi_at(0.99 * DELTA_RES)
        outside = chi_at(1.01 * DELTA_RES)
        assert inside.branch is ChiBranch.INERTIAL_RESONANCE_LIMIT
        assert outside.branch is ChiBranch.INERTIAL_CLOSED_FORM
        assert abs(abs(inside.value) - abs(outside.value)) < 1e-7 * abs(outside.value)


class TestChiQuadrature:
    def test_zero_coupling(self):
        mode = ModeSpec(2, 4.0, 1.0)
        traj = TrajectorySpec.accelerated(1.0, 1.0, 4.0)
        c = chi(mode, CouplingSpec(0.0), traj, 3.0, force_quadrature=True)
        assert c.value == 0 and c.err_estimate == 0.0

    def test_error_estimate_within_tolerance(self):
        mode = ModeSpec(5000, 10000.0, 1.0)
        coup = CouplingSpec(2 * math.sqrt(5000.0))
        traj = TrajectorySpec.accelerated(0.8, 1.0, 10000.0)
        c = chi(mode, coup, traj, 10.0, tol=1e-10, force_quadrature=True)
        assert c.branch is ChiBranch.QUADRATURE
        assert c.err_estimate <= 1e-10

    @pytest.mark.parametrize("a", [1e-12, 1e-9])
    def test_small_acceleration_against_fine_grid(self, a):
        # The mode phase q*(cosh(a*t) - 1)/a, taken as that difference,
        # carries cosh's rounding near 1: up to q/a*1.1e-16, 2e-4 rad at
        # a = 1e-12, which the error estimate cannot see.
        mode, coup = ModeSpec(1, 2.0, 1.0), CouplingSpec(1.0)
        traj = TrajectorySpec.accelerated(a, 0.5, 2.0)
        taus = [3e3, 2e4]
        for tau, ref in zip(taus, fine_accel_chi(mode, coup.lam, traj, taus)):
            c = chi(mode, coup, traj, tau, force_quadrature=True)
            assert c.err_estimate <= DEFAULT_TOL
            assert abs(c.value - ref) <= DEFAULT_TOL, (a, tau)

    def test_against_scipy_reference(self):
        # independent integrator on a modest accelerated case
        mode = ModeSpec(7, 9.0, 0.8)
        coup = CouplingSpec(1.1)
        traj = TrajectorySpec.accelerated(0.6, 0.4, 9.0)
        for tau in (1.5, 4.0):
            mine = chi(mode, coup, traj, tau, force_quadrature=True).value
            ref = scipy_chi(mode, coup.lam, traj, tau)
            assert mine == pytest.approx(ref, abs=5e-11)

    def test_additivity_against_segment_reference(self):
        mode = ModeSpec(7, 9.0, 0.8)
        coup = CouplingSpec(1.1)
        traj = TrajectorySpec.accelerated(0.6, 0.4, 9.0)
        tau1, tau2 = 2.0, 5.0
        c1 = chi(mode, coup, traj, tau1, force_quadrature=True).value
        c2 = chi(mode, coup, traj, tau2, force_quadrature=True).value

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
        ref = chi(mode, coup, traj, tw, force_quadrature=True).value
        for tau in (1.5 * tw, 10 * tw, 40 * tw):
            assert chi(mode, coup, traj, tau, force_quadrature=True).value == ref

    def test_static_trajectory_agrees_with_closed_form(self):
        mode = ModeSpec(3, 6.0, 0.5)
        coup = CouplingSpec(0.7)
        traj = TrajectorySpec.static(1.0, 6.0)
        cs = chi(mode, coup, traj, 7.7)
        cq = chi(mode, coup, traj, 7.7, tol=1e-12, force_quadrature=True)
        assert cs.value == pytest.approx(cq.value, abs=1e-12)

    def test_rejects_bad_tolerance(self):
        mode = ModeSpec(2, 4.0, 1.0)
        with pytest.raises(InvalidParameterError):
            chi(
                mode, CouplingSpec(1.0), TrajectorySpec.static(1.0, 4.0), 1.0,
                tol=0.0, force_quadrature=True,
            )

    def test_non_convergence_carries_best_estimate(self):
        # an unreachable tolerance must fail loudly, with the best value attached
        mode = ModeSpec(2, 4.0, 1.0)
        coup = CouplingSpec(1.0)
        traj = TrajectorySpec.accelerated(1.0, 1.0, 4.0)
        with pytest.raises(NumericalFailure) as exc_info:
            chi(mode, coup, traj, 2.0, tol=1e-300, force_quadrature=True)
        best = exc_info.value.best
        assert best.branch is ChiBranch.QUADRATURE
        reference = chi(mode, coup, traj, 2.0, force_quadrature=True).value
        assert abs(best.value - reference) < 1e-9

    def test_series_marks_unconverged_samples(self):
        mode = ModeSpec(2, 4.0, 1.0)
        coup = CouplingSpec(1.0)
        traj = TrajectorySpec.accelerated(1.0, 1.0, 4.0)
        vals, errs, branch = chi_series(mode, coup, traj, [0.0, 1.0, 2.0], tol=1e-300)
        assert branch is ChiBranch.QUADRATURE
        assert np.any(errs > 1e-300)
        assert np.all(np.isfinite(vals))

    def test_tolerance_below_the_rounding_floor_stalls(self):
        # One starting panel on which K61 and G30 agree to the bit: the
        # estimate is the rounding floor, not 0, and tol=1e-300 stalls.
        mode = ModeSpec(2, 4.0, 1.0)
        traj = TrajectorySpec.accelerated(0.8, 1.0, 4.0)
        with pytest.raises(NumericalFailure, match="stalled at the rounding floor") as exc_info:
            chi(mode, CouplingSpec(1.0), traj, 60.0, tol=1e-300, force_quadrature=True)
        best = exc_info.value.best
        assert best.err_estimate > 0.0
        assert best.value == chi(mode, CouplingSpec(1.0), traj, 60.0, force_quadrature=True).value

    @pytest.mark.parametrize("cap, reason", [
        ("_MAX_ROUNDS", "round cap 0 hit"), ("_MAX_PANELS", "panel cap {} hit"),
    ])
    def test_work_cap_stops_refinement_with_the_best_estimate(self, monkeypatch, cap, reason):
        # This chi starts from 47 panels and converges in one round of
        # splits. A round cap of 0, or a panel cap at its starting count,
        # stops it before that round, at its starting estimate.
        mode, coup = ModeSpec(5000, 1e4, 1.0), CouplingSpec(2.0 * math.sqrt(5000))
        traj = TrajectorySpec.accelerated(0.02, 1.0, 1e4)
        converged = chi(mode, coup, traj, 500.0, tol=1e-12)
        n_start = one_mode_edges(mode, traj, wall_time(traj)).size - 1
        monkeypatch.setattr(response, cap, 0 if cap == "_MAX_ROUNDS" else n_start)
        with pytest.raises(NumericalFailure, match=reason.format(n_start)) as exc_info:
            chi(mode, coup, traj, 500.0, tol=1e-12)
        best = exc_info.value.best
        vals, errs, _ = chi_series(mode, coup, traj, [500.0], tol=1e-12)
        assert best.value == vals[0] and best.err_estimate == errs[0] == exc_info.value.err_estimate
        assert best.err_estimate > 1e-12 >= converged.err_estimate
        assert abs(best.value - converged.value) <= 1e-10

    def test_unreachable_tolerance_reports_stall(self):
        mode = ModeSpec(2, 4.0, 1.0)
        traj = TrajectorySpec.accelerated(1.0, 1.0, 4.0)
        with pytest.raises(NumericalFailure, match="stalled"):
            chi(mode, CouplingSpec(1.0), traj, 2.0, tol=1e-300, force_quadrature=True)

    @pytest.mark.parametrize("k,traj,tau", [
        (5000, TrajectorySpec.static(1.0, 10000.0), 2e7),
        (5000, TrajectorySpec.static(1.0, 10000.0), 1e9),
        (10_000_000_000, TrajectorySpec.accelerated(8.0, 1.0, 10000.0), 2.0),
        (1_000_000, TrajectorySpec.accelerated(1e-7, 1.0, 10000.0), 1e6),
    ])
    def test_starting_panels_over_the_cap_fail_before_allocating(self, k, traj, tau):
        # Uniform steps on the static worldline; on the accelerated one,
        # x-rule steps of at most 10 rad of omega_k*t (a = 8) and uniform
        # K61 steps before the switch time (a = 1e-7, which the detector
        # does not reach): each count is over the cap before any refinement.
        mode = ModeSpec(k, 10000.0, 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(NumericalFailure, match=f"k={k} .* panel cap 400000"):
                chi(mode, CouplingSpec(1.0), traj, tau, force_quadrature=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e5

    def test_refinement_replaces_split_panels_in_place(self):
        # Three equal panels: the first needs no split at this tolerance,
        # the other two do. The mode phase cc*(cosh(a*t) - 1) quickens
        # along the worldline, so the later panels span more cycles.
        mode = ModeSpec(64, 4.0, 1.0)
        traj = TrajectorySpec.accelerated(1.0, 1.0, 4.0)
        q = mode.k * math.pi / mode.L
        coarse = np.linspace(0.0, wall_time(traj), 4)
        column = k61_plan(np.array([mode.k]), np.array([mode.omega]), traj, coarse[-1])[:, 0]
        lo, hi, vals, errs, _, stalls = one_segment(traj, column, coarse, 1e-12)
        assert stalls == [None]
        assert errs.sum() <= 1e-12
        assert lo[0] == coarse[0] and hi[-1] == coarse[-1]
        np.testing.assert_array_equal(lo[1:], hi[:-1])
        assert hi[0] == coarse[1]
        first_of = np.searchsorted(lo, coarse[1:3])
        assert first_of[0] == 1 and first_of[1] > 2 and lo.size > first_of[1] + 1
        again, _ = kernels.panel_integrals(traj, q, mode.omega, lo, hi)
        np.testing.assert_allclose(vals, again, rtol=0, atol=1e-15)
        edges = np.linspace(0.0, coarse[-1], 4001)
        ref, _ = kernels.panel_integrals(traj, q, mode.omega, edges[:-1], edges[1:])
        assert abs(vals.sum() - ref.sum()) <= 1e-12


def assert_k61_starts(ks, omega, traj, t_end):
    """Check the starting K61 panels of modes ``ks`` on the accelerated
    ``traj`` up to t_end, and return how many modes take the Psi grid.

    Every panel [lo, hi] before the mode's t_x spans at most
    START_PANEL_PHASE of the combined phase Phi(t) = omega_k*t + A(t), and
    its local kappa = Phi'(hi)*(hi - lo)/2 is below 4*30/e, the range in
    which the stall rule of _adaptive_panels holds the 30-point Gauss error
    bound below 1. A mode on the Psi grid (sigma > 0) also steps Psi(t) =
    hypot(omega_k, q)*sinh(a*t)/a by at most START_PANEL_PHASE, and no
    mode has more panels than equal steps in t at its largest rate take.
    """
    plan = _plan(ks, omega, traj, t_end)
    t_x, n_t, sigma = plan[2], plan[3], plan[5]
    lo, hi, counts = _block_edges(traj, plan, t_end, np.array([t_end]))
    own = np.arange(ks.size).repeat(counts)
    k61 = lo < t_x[own]
    j, lo, hi = own[k61], lo[k61], hi[k61]
    np.testing.assert_array_equal(np.bincount(j, minlength=ks.size), n_t)
    a, q, w = traj.a, ks[j] * math.pi / traj.L, omega[j]
    span = START_PANEL_PHASE * (1 + 1e-9)

    def phase(t):  # omega_k*t + q*(cosh(a*t) - 1)/a
        return w * t + 2.0 * q / a * np.sinh(0.5 * a * t) ** 2

    assert np.all(phase(hi) - phase(lo) <= span)
    assert np.all((w + q * np.sinh(a * hi)) * (hi - lo) / 2.0 < 4.0 * 30.0 / math.e)
    psi = sigma[j] > 0.0
    step = np.hypot(w, q) * (np.sinh(a * hi) - np.sinh(a * lo)) / a
    assert np.all(step[psi] <= span)
    q = ks * math.pi / traj.L
    uniform = np.maximum(1.0, np.ceil(t_x * (omega + q * np.sinh(a * t_x)) / START_PANEL_PHASE))
    assert np.all(n_t <= uniform)
    np.testing.assert_array_equal(n_t[sigma == 0.0], uniform[sigma == 0.0])
    return int(np.count_nonzero(sigma))


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
    """The adaptive pass starts from panels of up to sixteen half cycles of
    each phase and refines from there."""

    @pytest.mark.parametrize("a", [0.02, 0.8, 8.0, 50.0])
    def test_figure_scale_matches_fine_grid(self, fig_cavity, fig_coupling, a):
        mode = fig_cavity.mode()
        traj = TrajectorySpec.accelerated(a, fig_cavity.x0, fig_cavity.L)
        c = chi(mode, fig_coupling, traj, 500.0, force_quadrature=True)
        assert c.err_estimate <= DEFAULT_TOL
        q = mode.k * math.pi / mode.L
        edges = _eighth_cycle_edges(mode, traj, wall_time(traj))
        _, errs = kernels.panel_integrals(traj, q, mode.omega, edges[:-1], edges[1:])
        # At large a the first panel is unresolved even at 1/8 cycle, because
        # A(t) = cc*(cosh(a*t) - 1) is far from linear there: cut every panel
        # whose estimate is above rounding level into 64.
        bad = np.flatnonzero(errs > 1e-13)
        cuts = edges[bad, None] + np.diff(edges)[bad, None] * np.linspace(0.0, 1.0, 65)
        edges = np.union1d(edges, cuts.ravel())
        vals, errs = kernels.panel_integrals(traj, q, mode.omega, edges[:-1], edges[1:])
        pref = fig_coupling.lam / math.sqrt(mode.k * math.pi)
        assert pref * errs.sum() <= DEFAULT_TOL
        assert abs(c.value - (-1j * pref * vals.sum())) <= DEFAULT_TOL

    def test_starting_panels_within_the_phase_cap(self, fig_cavity):
        # Accelerated: K61 panels up to the switch time t_s, where the mode
        # phase's rate q*sinh(a*t) reaches 2*omega_k, then the x-rule's
        # equal steps of at most 10 rad of omega_k*t and 1 of a*t. Over
        # 256-mode sums in small cavities (a 4 x 4 grid of L and a as in the
        # accel-mode-sum benchmark), the 96 (L, k, a) of the sweep below and
        # 60 figure-scale a: see assert_k61_starts.
        cases = []
        for L, a in itertools.product((4.0, 16.0, 28.0, 40.0), (0.2, 0.65, 1.1, 2.0)):
            traj = TrajectorySpec.accelerated(a, L / 4.0, L)
            cases.append((np.arange(1, 257), mode_frequencies(256, L, 1.0), traj, wall_time(traj)))
        for L, k, a in itertools.product((4.0, 40.0, 400.0, 1e4), (1, 3, 17, 60, 256, 5000),
                                         (0.05, 0.3, 2.0, 20.0)):
            traj = TrajectorySpec.accelerated(a, L / (2 * k), L)
            cases.append((np.array([k]), np.array([ModeSpec(k, L, 1.0).omega]), traj, wall_time(traj)))
        mode, x0, L = fig_cavity.mode(), fig_cavity.x0, fig_cavity.L
        for a in np.geomspace(0.02, 50.0, 60):
            traj = TrajectorySpec.accelerated(float(a), x0, L)
            cases.append((np.array([mode.k]), np.array([mode.omega]), traj, min(500.0, wall_time(traj))))
        on_psi = 0
        for ks, omega, traj, t_end in cases:
            on_psi += assert_k61_starts(ks, omega, traj, t_end)
        assert on_psi > 1000  # both grids are exercised
        # One figure-scale mode: t_s is an edge, and the x-rule's steps and
        # counts are those of the largest rate past it.
        for a in (0.02, 0.8, 50.0):
            traj = TrajectorySpec.accelerated(a, x0, L)
            t_end = min(500.0, wall_time(traj))
            edges = one_mode_edges(mode, traj, t_end)
            assert edges[0] == 0.0 and edges[-1] == t_end
            t_s = _plan(np.array([mode.k]), np.array([mode.omega]), traj, t_end)[2, 0]
            assert mode.k * math.pi / L * math.sinh(a * t_s) == pytest.approx(2.0 * mode.omega, rel=1e-14)
            assert 0.0 < t_s < t_end and t_s in edges
            x = edges[edges >= t_s]
            assert np.all(np.diff(x) * mode.omega <= 10.0 * (1 + 1e-9))
            assert np.all(np.diff(x) * a <= 1.0 + 1e-9)
            assert x.size - 1 == math.ceil((t_end - t_s) * max(mode.omega / 10.0, a))
            assert edges.size - 1 <= 60
        # Forced-quadrature static and inertial chi start from the same
        # builder: sixteen half cycles of the faster exponential, at rate
        # omega_k + omega_L with the mode-crossing omega_L (omega_k on the
        # static worldline), below, at and above v_c.
        span = START_PANEL_PHASE * (1 + 1e-9)
        for v in (None, 0.3, critical_velocity(mode), 0.9):
            traj = TrajectorySpec.static(x0, L) if v is None else TrajectorySpec.inertial(v, x0, L)
            edges = one_mode_edges(mode, traj, 500.0)
            assert edges[0] == 0.0 and edges[-1] == 500.0
            steps = np.diff(edges)
            assert np.all(steps > 0.0)
            omega_l = 0.0 if v is None else mode.k * math.pi * v / (L * math.sqrt(1.0 - v * v))
            assert np.all(steps * mode.omega <= span)
            assert np.all(steps * omega_l <= span)
            assert np.all(steps * (mode.omega + omega_l) <= span)
            # ... and no more panels than that takes: the faster exponential
            # sets the step.
            assert steps.size == math.ceil(500.0 * (mode.omega + omega_l) / START_PANEL_PHASE)

    def test_psi_count_where_a_t_underflows(self):
        # At a = 1e-306 and t_end = 1e-18, a*t rounds to 0 and so does
        # sinh(a*t)/a: the Psi count falls back to hypot(omega_k, q)*t, so
        # the mode keeps its two uniform panels of 50 rad of omega_k*t.
        traj = TrajectorySpec.accelerated(1e-306, 1.0, 4.0)
        plan = _plan(np.array([1]), np.array([1e20]), traj, 1e-18)
        assert plan[3, 0] == 2.0 and plan[5, 0] == 0.0

    @pytest.mark.parametrize("L", [4.0, 40.0, 400.0, 1e4])
    def test_sweep_converges_without_stall(self, L):
        # 144 cases per cavity length, 576 in all: chi raises on
        # a stall, and both its estimate and its true error, against the
        # fine-panel reference, stay within tol.
        coup = CouplingSpec(1.0)
        for k, a in itertools.product((1, 3, 17, 60, 256, 5000), (0.05, 0.3, 2.0, 20.0)):
            mode = ModeSpec(k, L, 1.0)
            traj = TrajectorySpec.accelerated(a, L / (2 * k), L)
            taus = [0.37 * wall_time(traj), wall_time(traj)]
            ref = fine_accel_chi(mode, coup.lam, traj, taus)
            for (tau, chi_ref), tol in itertools.product(zip(taus, ref), (1e-6, 1e-10, 1e-13)):
                c = chi(mode, coup, traj, tau, tol=tol, force_quadrature=True)
                assert c.err_estimate <= tol
                assert abs(c.value - chi_ref) <= tol, (k, a, tau, tol)


@pytest.mark.filterwarnings("error")
class TestTinyAcceleration:
    """A tiny but normal a, where q/a and asinh(2*omega_k/q)/a overflow: the
    detector barely moves, so chi is the static one's."""

    def test_chi_of_a_high_mode(self):
        # sin(q*x0) = 1 at x0 = 1.001 for k = 2000, L = 4, and |chi| is near
        # its largest, 2*lam/(omega_k*sqrt(k*pi)), at tau = 1.001.
        mode, coup = ModeSpec(2000, 4.0, 1.0), CouplingSpec(1.0)
        c = chi(mode, coup, TrajectorySpec.accelerated(1e-306, 1.001, 4.0), 1.001)
        static = chi(mode, coup, TrajectorySpec.static(1.001, 4.0), 1.001).value
        assert abs(static) > 1e-5
        assert c.err_estimate <= DEFAULT_TOL and abs(c.value - static) <= DEFAULT_TOL

    def test_switch_time_past_the_largest_double(self):
        # omega = 1e12 at a = 1e-307: asinh(2*omega/q)/a would be 2.9e308.
        mode, coup = ModeSpec(1, 4.0, 1e12), CouplingSpec(1.0)
        c = chi(mode, coup, TrajectorySpec.accelerated(1e-307, 1.0, 4.0), 1e-9)
        static = chi(mode, coup, TrajectorySpec.static(1.0, 4.0), 1e-9).value
        assert c.err_estimate <= DEFAULT_TOL and abs(c.value - static) <= DEFAULT_TOL

    def test_mode_sum(self):
        # 2000 modes, each chi_k within tol of its static value, so each
        # term within (2*|chi_k| + tol)*tol < tol (|chi_k| < 0.3 here).
        cavity, coup = CavityConfig(L=4.0, m=1.0, k0=2, x0=1.0), CouplingSpec(1.0)
        total = chi_mode_sum(cavity, coup, TrajectorySpec.accelerated(1e-306, 1.0, 4.0), 1.0, 2000)
        static = chi_mode_sum(cavity, coup, TrajectorySpec.static(1.0, 4.0), 1.0, 2000)
        assert static == pytest.approx(0.30116856102389, abs=1e-13)
        assert abs(total - static) <= 2000 * DEFAULT_TOL


def jacobi_anger_chi(k, cavity, lam, a, tau):
    """chi_k(tau) on the accelerated worldline from cavity.x0, before the
    wall, by the Jacobi-Anger series in mpmath at 40 digits: no quadrature.

    With z = q/a and u = a*t, q*x(t) = q*x0 - z + z*cosh(u), and
    exp(i*z*cosh(u)) = J_0(z) + 2*Sum_{n>=1} i^n*J_n(z)*cosh(n*u) (DLMF
    10.12.2 at theta = i*u), so sin(q*x(t)) = Sum_n eps_n*J_n(z)*
    sin(q*x0 - z + n*pi/2)*cosh(n*a*t), eps_0 = 1 and eps_n = 2. Each
    cosh(n*a*t)*exp(i*omega*t) integrates in closed form. A term is at
    most |eps_n*J_n(z)|*cosh(n*a*tau)*tau, which falls faster than
    geometrically past n = e*z*exp(a*tau)/2; the sum stops there, once it
    is below 1e-30.
    """
    with mpmath.workdps(40):
        x0, a, tau = (mpmath.mpf(v) for v in (cavity.x0, a, tau))
        q = k * mpmath.pi / cavity.L
        omega = mpmath.sqrt(q**2 + mpmath.mpf(cavity.m) ** 2)
        z = q / a
        n_decay = mpmath.e * z * mpmath.exp(a * tau) / 2
        total, n = mpmath.mpc(0), 0
        while True:
            j = (1 if n == 0 else 2) * mpmath.besselj(n, z)
            # Integral_0^tau cosh(n*a*t)*exp(i*omega*t) dt
            rates = (n * a + 1j * omega, -n * a + 1j * omega)
            integral = sum(mpmath.expm1(r * tau) / r for r in rates) / 2
            total += j * mpmath.sin(q * x0 - z + n * mpmath.pi / 2) * integral
            if n > n_decay and abs(j) * mpmath.cosh(n * a * tau) * tau < mpmath.mpf(10) ** -30:
                return complex(-1j * lam * total / mpmath.sqrt(k * mpmath.pi))
            n += 1


class TestJacobiAngerReference:
    def test_suite_modes_match_the_series(self, small_cavity):
        # The oracle suite's cavity and coupling at a = 0.5, tau = 1.7,
        # before the wall (3.13). Every mode agrees within 1e-16.
        a, tau, lam = 0.5, 1.7, 0.4
        traj = TrajectorySpec.accelerated(a, small_cavity.x0, small_cavity.L)
        assert wall_time(traj) > tau
        got = chi_modes(small_cavity, CouplingSpec(lam), traj, tau, 16, tol=1e-12)
        for k in range(1, 17):
            assert abs(got[k - 1] - jacobi_anger_chi(k, small_cavity, lam, a, tau)) <= 1e-14, k


@pytest.mark.filterwarnings("error")
class TestHugeAcceleration:
    """The largest a takes a*(L - x0) to half the largest double: past it,
    the x-rule's sums of two positions a*(x - x0) overflow."""

    @staticmethod
    def largest_a(x0, L):
        d = L - x0
        a = trajectory._MAX_A_SPAN / d
        while a * d > trajectory._MAX_A_SPAN:
            a = math.nextafter(a, 0.0)
        return a

    @pytest.mark.parametrize("k, L", [(2, 4.0), (5000, 1e4)])
    def test_largest_accepted_a_gives_a_finite_chi(self, k, L):
        # The detector reaches the wall after t_w ~ 1e-305 to 1e-302, so
        # |chi| is at most lam*t_w/sqrt(k*pi), and near it from the
        # antinode x0 = 1, which the detector leaves only in the last few
        # units of a*t before t_w. wall_time was inf past a*d = 3.6e308,
        # and the x-rule overflowed from a*d = 9.0e307.
        a = self.largest_a(1.0, L)
        traj = TrajectorySpec.accelerated(a, 1.0, L)
        t_w = wall_time(traj)
        c = chi(ModeSpec(k, L, 1.0), CouplingSpec(1.0), traj, 500.0)
        bound = t_w / math.sqrt(k * math.pi)
        assert c.err_estimate <= DEFAULT_TOL and 0.9 * bound < abs(c.value) <= bound
        with pytest.raises(InvalidParameterError, match="times the distance to the wall"):
            TrajectorySpec.accelerated(math.nextafter(a, math.inf), 1.0, L)

    def test_largest_accepted_a_against_mpmath(self):
        # chi = -i*lam/sqrt(k*pi) * Integral_0^{u_w} sin(q*x(u/a))*exp(i*omega*u/a) du/a
        # with u = a*t, u_w = acosh(1 + a*d), in 20 digits on panels
        # [u_i, u_{i+1}] of equal steps in x.
        mode, x0 = ModeSpec(2, 4.0, 1.0), 1.0
        a = self.largest_a(x0, mode.L)
        got = chi(mode, CouplingSpec(1.0), TrajectorySpec.accelerated(a, x0, mode.L), 500.0).value
        d, n = mode.L - x0, 20
        with mpmath.workdps(20):
            a_mp, q = mpmath.mpf(a), mode.k * mpmath.pi / mode.L
            edges = [0] + [mpmath.acosh(1 + a_mp * d * mpmath.mpf(i) / n) for i in range(1, n + 1)]

            def integrand(u):
                x = x0 + (mpmath.cosh(u) - 1) / a_mp
                return mpmath.sin(q * x) * mpmath.expj(mode.omega * u / a_mp)

            ref = complex(-1j * mpmath.quad(integrand, edges) / (a_mp * mpmath.sqrt(mode.k * mpmath.pi)))
        assert abs(got - ref) <= 1e-12 * abs(ref)


class TestNonFiniteEstimate:
    """A NaN from the kernel stops its segment by name, never as converged."""

    @pytest.fixture
    def nan_on_first_panel(self, monkeypatch):
        real = kernels.panel_integrals

        def nan_first(*args):
            vals, errs = real(*args)
            vals[0], errs[0] = math.nan, math.nan
            return vals, errs

        monkeypatch.setattr(kernels, "panel_integrals", nan_first)

    def test_chi_raises_with_the_best_estimate(self, nan_on_first_panel):
        traj = TrajectorySpec.accelerated(1.0, 1.0, 4.0)
        with pytest.raises(NumericalFailure, match="k=2: non-finite error estimate") as exc_info:
            chi(ModeSpec(2, 4.0, 1.0), CouplingSpec(1.0), traj, 2.0)
        best = exc_info.value.best
        assert best.branch is ChiBranch.QUADRATURE and math.isnan(best.err_estimate)

    def test_mode_sum_raises_naming_the_mode(self, nan_on_first_panel, small_cavity):
        traj = TrajectorySpec.accelerated(1.0, small_cavity.x0, small_cavity.L)
        with pytest.raises(NumericalFailure, match="k=1: non-finite error estimate"):
            chi_mode_sum(small_cavity, CouplingSpec(0.5), traj, 1.0, k_max=8)


class TestPositionRule:
    """Past the switch time an accelerated chi is integrated over position
    by the Filon x-rule; only [0, t_s] resolves the mode phase node by node."""

    @pytest.mark.parametrize("a", [0.02, 0.1, 0.8, 8.0, 50.0])
    def test_figure_scale_evaluations(self, fig_cavity, fig_coupling, monkeypatch, a):
        # K61 nodes plus x-rule nodes of one figure-scale chi, counted at
        # the two kernel functions: at most a fifth of the 25.6k-26.3k
        # K61 nodes that resolving the mode phase took at every a.
        nodes = []
        k61, x_rule = kernels.panel_integrals, kernels.filon_integrals

        def count_k61(traj, q, omega, lo, hi):
            nodes.append(61 * lo.size)
            return k61(traj, q, omega, lo, hi)

        def count_x(traj, q, omega, lo, hi):
            nodes.append(24 * lo.size)
            return x_rule(traj, q, omega, lo, hi)

        monkeypatch.setattr(kernels, "panel_integrals", count_k61)
        monkeypatch.setattr(kernels, "filon_integrals", count_x)
        traj = TrajectorySpec.accelerated(a, fig_cavity.x0, fig_cavity.L)
        c = chi(fig_cavity.mode(), fig_coupling, traj, 500.0)
        assert c.err_estimate <= DEFAULT_TOL
        assert len(nodes) == 2 and sum(nodes) <= 25_600 / 5

    @pytest.mark.parametrize("a", [1e160, 1e300])
    def test_extreme_acceleration_against_fine_grid(self, fig_cavity, fig_coupling, a):
        # u = a*(x - x0) reaches 1e164-1e304 at the wall, where u*(u + 2)
        # overflows; sinh(a*t) = sqrt(u)*sqrt(u + 2) does not.
        mode = fig_cavity.mode()
        traj = TrajectorySpec.accelerated(a, fig_cavity.x0, fig_cavity.L)
        c = chi(mode, fig_coupling, traj, 500.0)
        (ref,) = fine_accel_chi(mode, fig_coupling.lam, traj, [wall_time(traj)])
        assert abs(c.value - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("a", [0.8, 8.0, 50.0])
    def test_figure_scale_tolerance_below_the_rounding_floor_stalls(
        self, fig_cavity, fig_coupling, a
    ):
        # The refined panels' estimates sit at their floors eps*(t_b - t_a):
        # the sum is eps times the span, never 0, and tol=1e-300 stalls
        # there within a few rounds, at the value the default tolerance gives.
        mode = fig_cavity.mode()
        traj = TrajectorySpec.accelerated(a, fig_cavity.x0, fig_cavity.L)
        with pytest.raises(NumericalFailure, match="stalled at the rounding floor") as exc_info:
            chi(mode, fig_coupling, traj, 500.0, tol=1e-300)
        best = exc_info.value.best
        pref = fig_coupling.lam / math.sqrt(mode.k * math.pi)
        floor = pref * kernels.ERR_FLOOR * wall_time(traj)
        assert floor <= best.err_estimate <= floor * (1 + 1e-9)
        assert abs(best.value - chi(mode, fig_coupling, traj, 500.0).value) <= 1e-14


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
            single = chi(mode, coup, traj, taus[i], force_quadrature=True)
            assert vals[i] == pytest.approx(single.value, abs=3e-10)
        assert vals[0] == 0


class TestGeometryRefused:
    """Every chi entry refuses a worldline that clamps at another L than its
    mode's or cavity's, or starts at another x0 than its cavity's, before
    any chi work."""

    ENTRIES = {
        "chi": lambda cav, traj: chi(cav.mode(), CouplingSpec(0.4), traj, 20.0),
        "chi_series": lambda cav, traj: chi_series(
            cav.mode(), CouplingSpec(0.4), traj, np.linspace(0.0, 20.0, 64)
        ),
        "chi_modes": lambda cav, traj: chi_modes(cav, CouplingSpec(0.4), traj, 20.0, 3),
        "chi_mode_sum": lambda cav, traj: chi_mode_sum(cav, CouplingSpec(0.4), traj, 20.0, 3),
        "end_to_end_check": lambda cav, traj: oracle.end_to_end_check(
            StateSpec.fock(1), cav, CouplingSpec(0.4), traj, 20.0, k_max=3
        ),
    }

    # (x0, L) of the worldline and the refusal, against the L=4, x0=1 cavity.
    MISMATCHES = {
        "L": (1.0, 8.0, r"clamps at L=8\.0 but the cavity has L=4\.0"),
        "x0": (1.5, 4.0, r"starts at x0=1\.5 but the cavity prescribes x0=1\.0"),
    }

    @pytest.mark.parametrize("entry,mismatch", [
        *((name, "L") for name in ENTRIES),
        *((name, "x0") for name in ("chi_modes", "chi_mode_sum", "end_to_end_check")),
    ])
    @pytest.mark.parametrize("kind", ["inertial", "accelerated"])
    def test_mismatch_refused_before_any_work(self, small_cavity, fails_fast, entry, mismatch, kind):
        x0, L, match = self.MISMATCHES[mismatch]
        traj = (
            TrajectorySpec.inertial(0.3, x0, L) if kind == "inertial"
            else TrajectorySpec.accelerated(0.5, x0, L)
        )
        fails_fast(lambda: self.ENTRIES[entry](small_cavity, traj), InvalidParameterError, match)


class TestOnePath:
    """chi is a 0-d call of the grid evaluation."""

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
            vals, errs, branch = chi_series(mode, fig_coupling, traj, [tau], force_quadrature=True)
            forced = ChiValue(complex(vals[0]), branch, float(errs[0]))
            assert chi(mode, fig_coupling, traj, tau, force_quadrature=True) == forced
        in_band = chi(mode, fig_coupling, cases[2][0], cases[2][1])
        assert in_band.branch is ChiBranch.INERTIAL_RESONANCE_LIMIT
        # A stall: the series returns its best estimate, chi raises with the same bits.
        mode, coup = ModeSpec(2, 4.0, 1.0), CouplingSpec(1.0)
        traj = TrajectorySpec.accelerated(1.0, 1.0, 4.0)
        vals, errs, branch = chi_series(mode, coup, traj, [2.0], tol=1e-300)
        with pytest.raises(NumericalFailure) as exc_info:
            chi(mode, coup, traj, 2.0, tol=1e-300)
        assert exc_info.value.best == ChiValue(complex(vals[0]), branch, float(errs[0]))

    @pytest.mark.parametrize("kind", ["static", "inertial", "resonance"])
    def test_one_point_chi_equals_every_series_element(self, fig_cavity, fig_coupling, kind):
        mode, x0, L = fig_cavity.mode(), fig_cavity.x0, fig_cavity.L
        traj = {
            "static": TrajectorySpec.static(x0, L),
            "inertial": TrajectorySpec.inertial(0.6, x0, L),
            "resonance": TrajectorySpec.inertial(critical_velocity(mode), x0, L),
        }[kind]
        rng = np.random.default_rng(31)
        taus = np.sort(np.concatenate([np.linspace(0.0, 500.0, 201), rng.uniform(0.0, 500.0, 100)]))
        vals, _, branch = chi_series(mode, fig_coupling, traj, taus)
        for tau, v in zip(taus.tolist(), vals.tolist()):
            c = chi(mode, fig_coupling, traj, tau)
            assert c.branch is branch
            assert c.value.real == v.real and c.value.imag == v.imag

    @pytest.mark.parametrize("kind", ["static", "inertial"])
    def test_closed_form_mode_block_matches_series(self, small_cavity, kind):
        coup = CouplingSpec(0.4)
        if kind == "static":
            traj = TrajectorySpec.static(small_cavity.x0, small_cavity.L)
        else:
            traj = TrajectorySpec.inertial(0.3, small_cavity.x0, small_cavity.L)
        ks = np.arange(1, 41)
        for tau in (0.37, 1.7, 60.0):
            got = [abs(c) ** 2 for c in chi_modes(small_cavity, coup, traj, tau, ks.size).tolist()]
            for k, g in zip(ks, got):
                vals, _, _ = chi_series(small_cavity.mode(int(k)), coup, traj, [tau])
                ref = abs(vals[0]) ** 2
                assert abs(g - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
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
            b = chi(base_mode, base_coup, TrajectorySpec.inertial(v, x0, L), tau)
            c = chi(scaled_mode, scaled_coup, TrajectorySpec.inertial(v, x0, s * L), tau)
            assert abs(b.value - c.value) < 1e-10
        # accelerated quadrature
        b = chi(base_mode, base_coup, TrajectorySpec.accelerated(0.8, x0, L), 8.0)
        c = chi(scaled_mode, scaled_coup, TrajectorySpec.accelerated(0.8, x0, s * L), 8.0)
        assert abs(b.value - c.value) < 1e-9


class TestCriticalVelocity:
    def test_figure_value(self):
        mode = ModeSpec(5000, 10000.0, 1.0)
        assert critical_velocity(mode) == pytest.approx(V_CRIT_FIG, abs=1e-12)
        with mpmath.workdps(40):
            s = mpmath.mpf(10000) / (5000 * mpmath.pi)
            assert abs(critical_velocity(mode) - mpmath.sqrt((1 + s * s) / (2 + s * s))) <= 1e-16

    def test_massless_limit(self):
        assert critical_velocity(ModeSpec(3, 2.0, 0.0)) == 1.0 / math.sqrt(2.0)
        assert critical_velocity(ModeSpec(3, 2.0, 1e-12)) == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-12
        )
        # r = k*pi/(m*L) squares to inf below m ~ 1e-154; s = 1/r does not.
        for m in (1e-160, 1e-200, 5e-324):
            assert critical_velocity(ModeSpec(3, 2.0, m)) == 1.0 / math.sqrt(2.0)

    def test_heavy_field_limit(self):
        assert critical_velocity(ModeSpec(3, 2.0, 1e9)) > 0.999999
        assert critical_velocity(ModeSpec(1, 1e200, 1e200)) == 1.0  # m*L overflows

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
        probed = abs(chi(small_cavity.mode(), coup, traj, 2.0).value) ** 2
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

    @pytest.mark.parametrize("kind", ["inertial", "accelerated"])
    def test_sum_is_numpy_abs2_of_chi_modes(self, small_cavity, kind):
        coup = CouplingSpec(0.4)
        if kind == "inertial":
            traj = TrajectorySpec.inertial(0.3, small_cavity.x0, small_cavity.L)
        else:
            traj = TrajectorySpec.accelerated(0.5, small_cavity.x0, small_cavity.L)
        chis = chi_modes(small_cavity, coup, traj, 1.7, 64)
        assert chi_mode_sum(small_cavity, coup, traj, 1.7, 64) == float(np.sum(np.abs(chis) ** 2))

    def test_k_max_over_the_cap_fails_before_allocating(self, small_cavity):
        traj = TrajectorySpec.static(small_cavity.x0, small_cavity.L)
        tracemalloc.start()
        try:
            start = time.thread_time()
            with pytest.raises(NumericalFailure, match="k_max is 2000000000, over the mode cap 1000000"):
                chi_mode_sum(small_cavity, CouplingSpec(0.5), traj, 1.0, k_max=2_000_000_000)
            elapsed = time.thread_time() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.01 and peak < 1e5

    def test_block_edge_table_over_the_cap_is_planned_in_blocks(self):
        # Each of the 64 heavy modes starts from about 129k uniform K61
        # panels (the detector never reaches the switch time), under the
        # per-mode cap; the 64-mode table of 8.3M is not, so the sum is
        # planned as blocks that each fit. Planning builds no edge table.
        # The sum itself is not run: its first pass takes about 100 s.
        cavity = CavityConfig(4.0, 1000.0, 1)
        traj = TrajectorySpec.accelerated(1e-7, 1.0, cavity.L)
        ks = np.arange(1, 65)
        omega = mode_frequencies(64, cavity.L, cavity.m)
        tracemalloc.start()
        try:
            plan = _plan(ks, omega, traj, 6500.0)
            blocks = response._mode_blocks(plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e5
        assert table_size(plan, slice(None)) > response._MAX_EDGE_TABLE
        assert_planned(blocks, plan, ks.size)
        assert len(blocks) > 1

    @pytest.mark.parametrize("field,bad,name", [("L", -1.0, "cavity length L"), ("L", math.nan, "cavity length L"),
                                                ("m", -0.5, "field mass m"), ("m", math.inf, "field mass m")])
    def test_bad_cavity_is_named_before_any_work(self, monkeypatch, field, bad, name):
        # A cavity changed after its checks: chi_modes validates L and m
        # once, before the dispatch.
        cavity = CavityConfig(L=4.0, m=1.0, k0=2)
        object.__setattr__(cavity, field, bad)
        traj = TrajectorySpec.accelerated(1.0, 1.0, 4.0)

        def no_work(*args):
            raise AssertionError("chi evaluated")

        monkeypatch.setattr(response, "_chi_modes", no_work)
        with pytest.raises(InvalidParameterError, match=name):
            chi_modes(cavity, CouplingSpec(0.5), traj, 1.0, k_max=256)

    @pytest.mark.parametrize("fn,tau,tol", [
        (chi_mode_sum, [1.0], DEFAULT_TOL),
        (chi_modes, np.array([0.5, 1.0]), DEFAULT_TOL),
        (chi_modes, np.array([0.5, 1.0]), 1e-300),
    ])
    def test_non_scalar_tau_is_refused(self, small_cavity, fn, tau, tol):
        # An array of times, also where every mode stalls.
        traj = TrajectorySpec.accelerated(1.0, small_cavity.x0, small_cavity.L)
        with pytest.raises(InvalidParameterError, match="tau=.* must be a scalar"):
            fn(small_cavity, CouplingSpec(0.5), traj, tau, k_max=8, tol=tol)

    def test_k_max_is_checked_first(self, small_cavity):
        traj = TrajectorySpec.static(small_cavity.x0, small_cavity.L)
        for k_max in (0, -3, 2.5, 3.0, math.nan, math.inf):
            with pytest.raises(InvalidParameterError, match="k_max"):
                chi_mode_sum(small_cavity, CouplingSpec(0.0), traj, 1.0, k_max=k_max)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
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
            abs(chi(small_cavity.mode(k), coup, traj, 1.0, force_quadrature=True).value) ** 2
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
        # Every mode stalls at once, in the first block, which holds all 20
        # modes: the partial sum is their 20 best estimates.
        reachable = chi_mode_sum(small_cavity, coup, traj, 1.0, k_max=20)
        assert best == pytest.approx(reachable, rel=1e-9)

    def test_stall_across_two_blocks_is_raised_after_both(self, small_cavity):
        # Modes 1..1.5 * _MODE_BLOCK fill one block and half of a second;
        # every mode stalls. The raise names the first stalled mode and
        # counts the stalls of both blocks, and ``best`` sums the best
        # estimates of all modes. With 256-mode blocks the second block adds
        # 2.2e-3 of the first one's sum; 16 modes past the first block would
        # add 3.9e-4, under the 1e-3 asserted below.
        coup = CouplingSpec(0.5)
        traj = TrajectorySpec.accelerated(1.0, small_cavity.x0, small_cavity.L)
        k_max = _MODE_BLOCK + _MODE_BLOCK // 2
        assert _MODE_BLOCK < k_max < 2 * _MODE_BLOCK
        with pytest.raises(NumericalFailure, match="mode k=1: ") as exc_info:
            chi_mode_sum(small_cavity, coup, traj, 1.0, k_max=k_max, tol=1e-300)
        assert f"{k_max} of modes 1..{k_max} stalled" in str(exc_info.value)
        reachable = chi_mode_sum(small_cavity, coup, traj, 1.0, k_max=k_max)
        first_block = chi_mode_sum(small_cavity, coup, traj, 1.0, k_max=_MODE_BLOCK)
        assert exc_info.value.best == pytest.approx(reachable, rel=1e-9)
        assert reachable > first_block * (1.0 + 1e-3)

    def test_accelerated_sum_memory_stays_block_sized(self):
        # One 256-mode sum is one block of edge and prefix-sum tables:
        # 1.33 MB traced peak (1.08 MB with 64-mode blocks, 0.47 MB with
        # 16-mode blocks).
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
        # 1..40 ends inside a block. The early time starts some modes from
        # a single panel.
        cavity = CavityConfig(L=L, m=1.0, k0=2)
        coup = CouplingSpec(0.4)
        traj = TrajectorySpec.accelerated(a, cavity.x0, L)
        ks = np.arange(1, 41)
        assert ks.size % _MODE_BLOCK != 0
        for tau in (0.05, wall_time(traj) + 1.0):
            got = [abs(c) ** 2 for c in chi_modes(cavity, coup, traj, tau, ks.size).tolist()]
            ref = [abs(chi(cavity.mode(int(k)), coup, traj, tau).value) ** 2 for k in ks]
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("L", [4.0, 40.0])
    @pytest.mark.parametrize("a", [0.2, 2.0])
    def test_block_size_changes_no_bits(self, L, a, monkeypatch):
        # 256 modes in one block, and in four blocks of 64.
        cavity = CavityConfig(L=L, m=1.0, k0=2)
        coup = CouplingSpec(0.4)
        traj = TrajectorySpec.accelerated(a, cavity.x0, L)
        for tau in (0.05, wall_time(traj) + 1.0):
            whole = chi_modes(cavity, coup, traj, tau, 256)
            with monkeypatch.context() as m:
                m.setattr(response, "_MODE_BLOCK", 64)
                quarters = chi_modes(cavity, coup, traj, tau, 256)
            np.testing.assert_array_equal(whole, quarters)

    def test_one_kernel_call_per_rule_and_round(self, monkeypatch):
        # A block of modes refines as one pass: each round evaluates the
        # split K61 panels of all modes in one panel_integrals call and the
        # split x-panels in one filon_integrals call. The pass takes one
        # error sum per round (a float _segment_sums); the split counts are
        # boolean. A tolerance under the rounding floor keeps both rules
        # splitting for several rounds before modes stall.
        events = []
        k61, x_rule, sums = kernels.panel_integrals, kernels.filon_integrals, response._segment_sums
        monkeypatch.setattr(kernels, "panel_integrals", lambda *p: events.append("k61") or k61(*p))
        monkeypatch.setattr(kernels, "filon_integrals", lambda *p: events.append("x") or x_rule(*p))

        def error_sums(x, counts):
            if x.dtype != bool:
                events.append("round")
            return sums(x, counts)

        monkeypatch.setattr(response, "_segment_sums", error_sums)
        cavity = CavityConfig(L=4.0, m=1.0, k0=2)
        traj = TrajectorySpec.accelerated(2.0, cavity.x0, cavity.L)
        with pytest.raises(NumericalFailure, match=f"of modes 1..{_MODE_BLOCK} stalled"):
            chi_modes(cavity, CouplingSpec(0.4), traj, 1.0, _MODE_BLOCK, tol=1e-17)
        rounds = events.count("round")
        assert rounds >= 3
        assert events == ["k61", "x", "round"] * rounds

    @pytest.mark.parametrize("kind", ["accelerated", "inertial", "static"])
    def test_plan_column_is_the_mode_planned_alone(self, kind):
        # Column j of a 256-mode plan is the plan of mode j alone, bit for
        # bit; at t_end = 0.8 the accelerated modes switch on both sides of it.
        cavity = CavityConfig(L=4.0, m=1.0, k0=2)
        traj = {
            "accelerated": TrajectorySpec.accelerated(2.0, cavity.x0, cavity.L),
            "inertial": TrajectorySpec.inertial(0.6, cavity.x0, cavity.L),
            "static": TrajectorySpec.static(cavity.x0, cavity.L),
        }[kind]
        ks, omega = np.arange(1, 257), mode_frequencies(256, cavity.L, cavity.m)
        for t_end in (0.05, 0.8):
            plan = _plan(ks, omega, traj, t_end)
            assert plan.shape == (6, 256)
            if kind == "accelerated" and t_end == 0.8:
                assert plan[2, 0] == t_end and plan[2, -1] < t_end
            for j in range(256):
                alone = _plan(ks[j:j + 1], omega[j:j + 1], traj, t_end)
                np.testing.assert_array_equal(plan[:, j:j + 1], alone)

    @pytest.mark.parametrize("L", [4.0, 40.0])
    @pytest.mark.parametrize("a", [0.2, 2.0])
    def test_block_edges_equal_single_mode_edges(self, L, a):
        # Slice j of a block's edges is the same mode built alone, grid
        # times and the mode's own switch time included.
        traj = TrajectorySpec.accelerated(a, L / 4, L)
        ks = np.arange(1, 41)
        omega = np.array([ModeSpec(int(k), L, 1.0).omega for k in ks])
        for t_end in (0.05, wall_time(traj)):
            plan = _plan(ks, omega, traj, t_end)
            switch = plan[2]
            times = np.array([t_end / 3, t_end / 2, t_end])
            lo, hi, counts = _block_edges(traj, plan, t_end, times)
            assert len(counts) == ks.size and sum(counts) == lo.size == hi.size
            offsets = np.concatenate([[0], np.cumsum(counts)])
            for j in range(ks.size):
                own = panel_edges(lo[offsets[j]:offsets[j + 1]], hi[offsets[j]:offsets[j + 1]])
                one = slice(j, j + 1)
                alone = _block_edges(traj, _plan(ks[one], omega[one], traj, t_end), t_end, times)
                assert alone[2] == [counts[j]]
                np.testing.assert_array_equal(own, panel_edges(*alone[:2]))
                assert own[0] == 0.0 and own[-1] == t_end and np.all(np.diff(own) > 0.0)
                assert np.all(np.isin(times, own))
                assert switch[j] >= t_end or switch[j] in own

    def test_segments_refine_as_they_would_alone(self):
        # Two modes with different tolerances in one pass: each segment's
        # panels equal those of its own single-segment pass.
        L, traj = 10.0, TrajectorySpec.accelerated(0.9, 2.5, 10.0)
        t_end = wall_time(traj)
        modes = [ModeSpec(k, L, 1.0) for k in (3, 11)]
        tols = np.array([1e-13, 1e-6])
        omega = np.array([md.omega for md in modes])
        ks = np.array([3, 11])
        panels = _block_edges(traj, _plan(ks, omega, traj, t_end), t_end, np.array([t_end]))
        offsets = np.concatenate([[0], np.cumsum(panels[2])])
        plan = k61_plan(ks, omega, traj, t_end)
        lo, hi, vals, errs, counts, stalls = _adaptive_panels(traj, plan, panels, t_end, tols)
        assert stalls == [None, None]
        assert sum(counts) == lo.size
        for j in range(ks.size):
            own = slice(offsets[j], offsets[j + 1])
            edges = panel_edges(panels[0][own], panels[1][own])
            alone = one_segment(traj, plan[:, j], edges, tols[j])
            own = slice(sum(counts[:j]), sum(counts[:j + 1]))
            for got, ref in zip((lo, hi, vals, errs), alone[:4]):
                np.testing.assert_array_equal(got[own], ref)

    def test_block_over_the_table_cap_is_split_without_changing_bits(self, monkeypatch):
        # With the cap between the widest 64-mode table and the 256-mode
        # one, the 256 modes are planned as several blocks, each one edge
        # build, and the sum equals the unsplit one bit for bit.
        cavity = CavityConfig(L=4.0, m=1.0, k0=2)
        coup = CouplingSpec(0.4)
        traj = TrajectorySpec.accelerated(2.0, cavity.x0, cavity.L)
        tau = wall_time(traj) + 1.0
        ks, omega = np.arange(1, 257), mode_frequencies(256, 4.0, 1.0)
        # The sum integrates up to the wall, where chi freezes.
        plan = _plan(ks, omega, traj, wall_time(traj))
        whole = table_size(plan, slice(None))
        quarter = max(table_size(plan, slice(i, i + 64)) for i in range(0, 256, 64))
        assert quarter < whole
        unsplit = chi_modes(cavity, coup, traj, tau, 256)
        blocks = []
        real = response._block_edges

        def spy(traj, plan, *args):
            # A block's first and last modes, by their frequencies.
            blocks.append(tuple(plan[1, [0, -1]]))
            return real(traj, plan, *args)

        monkeypatch.setattr(response, "_block_edges", spy)
        monkeypatch.setattr(response, "_MAX_EDGE_TABLE", quarter)
        planned = response._mode_blocks(plan)
        assert_planned(planned, plan, 256)
        assert len(planned) > 1
        split = chi_modes(cavity, coup, traj, tau, 256)
        assert blocks == [(omega[b.start], omega[b.stop - 1]) for b in planned]
        np.testing.assert_array_equal(split, unsplit)
        blocks.clear()
        monkeypatch.setattr(response, "_MAX_EDGE_TABLE", whole)
        np.testing.assert_array_equal(chi_modes(cavity, coup, traj, tau, 256), unsplit)
        assert blocks == [(omega[0], omega[255])]

    def test_sum_over_the_table_cap_in_one_block_runs_in_planned_blocks(self, monkeypatch):
        # 256 modes at a = 1e-7 up to the wall make a padded table of 7.94M,
        # over the cap: the sum is planned as blocks that each fit, and
        # starts its first block's quadrature instead of being refused.
        # The quadrature itself is stopped there.
        class Reached(Exception):
            pass

        passes = []

        def stop(traj, plan, *args, **kwargs):
            passes.append(plan.shape[1])
            raise Reached

        monkeypatch.setattr(response, "_adaptive_panels", stop)
        cavity = CavityConfig(L=4.0, m=1.0, k0=2)
        traj = TrajectorySpec.accelerated(1e-7, cavity.x0, cavity.L)
        ks = np.arange(1, 257)
        plan = _plan(ks, mode_frequencies(256, 4.0, 1.0), traj, 7745.0)
        assert table_size(plan, slice(None)) > response._MAX_EDGE_TABLE
        blocks = response._mode_blocks(plan)
        assert_planned(blocks, plan, 256)
        assert len(blocks) > 1
        with pytest.raises(Reached):
            chi_mode_sum(cavity, CouplingSpec(0.4), traj, 7745.0, k_max=256)
        assert passes == [blocks[0].stop]

    def test_large_sum_is_planned_from_one_count(self):
        # Up to the wall at a = 1e-7, every one of modes 1..1000 starts
        # under the panel cap, while their padded tables are far over the
        # edge-table cap: the sum is cut into contiguous blocks covering
        # them all, each within _MODE_BLOCK and the cap.
        cavity = CavityConfig(L=4.0, m=1.0, k0=2)
        traj = TrajectorySpec.accelerated(1e-7, cavity.x0, cavity.L)
        ks = np.arange(1, 1001)
        plan = _plan(ks, mode_frequencies(1000, 4.0, 1.0), traj, 7745.9)
        blocks = response._mode_blocks(plan)
        assert_planned(blocks, plan, 1000)
        assert blocks[0] == slice(0, 229)

    def test_mode_over_the_panel_cap_is_refused_before_any_quadrature(self, monkeypatch):
        # Modes 1..4000 at a = 1e-7: the high modes start from over
        # 400,000 panels each. The sum is refused from the starting
        # counts, before the first block's pass.
        def no_pass(*args):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(response, "_adaptive_panels", no_pass)
        cavity = CavityConfig(L=4.0, m=1.0, k0=2)
        traj = TrajectorySpec.accelerated(1e-7, cavity.x0, cavity.L)
        with pytest.raises(NumericalFailure, match=r"mode k=\d+ up to tau=7745\.9 .* panel cap 400000"):
            chi_mode_sum(cavity, CouplingSpec(0.4), traj, 7745.9, k_max=4000)


def seg(mu, tau):
    """Integral of exp(i*mu*t) over [0, tau] as its (real, imaginary) parts,
    the one-term _exp_integrals with coefficient 1."""
    value = _exp_integrals([(mu, 1.0, 0.0)], tau)
    return value.real, value.imag


class TestExpIntegrals:
    """Integral of exp(i*mu*t) over [0, tau] at and near mu = 0."""

    TAUS = np.array([0.0, 0.5, 3.0, 1e6])

    @pytest.mark.parametrize("mu", [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2e-308])
    def test_zero_and_subnormal_rate_give_the_limit(self, mu):
        re, im = seg(mu, self.TAUS)
        np.testing.assert_array_equal(re, self.TAUS)
        np.testing.assert_array_equal(im, 0.0)

    def test_rates_per_row(self):
        mu = np.array([0.0, 5e-324, 1e-300, 2.0])[:, None]
        re, im = seg(mu, self.TAUS)
        np.testing.assert_array_equal(re[:2], np.broadcast_to(self.TAUS, (2, 4)))
        np.testing.assert_array_equal(im[:2], 0.0)
        # A tiny normal rate divides by mu and lands on the limit to rounding.
        np.testing.assert_allclose(re[2], self.TAUS, rtol=1e-15)
        assert (0.0 <= im[2]).all() and (im[2] <= 1e-300 * self.TAUS**2).all()
        with mpmath.workdps(40):
            for tau, r, i in zip(self.TAUS.tolist(), re[3], im[3]):
                assert r == pytest.approx(float(mpmath.sin(2 * tau) / 2), abs=5e-16)
                assert i == pytest.approx(float((1 - mpmath.cos(2 * tau)) / 2), abs=5e-16)


def two_seg_closed_form(lam, mode, traj, taus):
    """chi of ``mode`` on a static or inertial worldline as the closed form
    assembled it before _exp_integrals: sin and 1 - cos of each phase
    from one tan, divided by the rate, then combined in real arithmetic."""

    def sin_versin(x):
        t = np.tan(0.5 * x)
        d = t * t + 1.0
        return 2.0 * t / d, 2.0 * (t * t) / d

    def parts(mu, tau):
        sin, versin = sin_versin(mu * tau)
        return sin * (1.0 / mu), versin * (1.0 / mu)

    k, omega = mode.k, mode.omega
    phi = k * math.pi * traj.x0 / traj.L
    if traj.v == 0.0:
        sin, versin = sin_versin(omega * taus)
        return -(lam * (math.sin(phi) / math.sqrt(k * math.pi))) * (-versin + 1j * sin) / omega
    omega_l = k * math.pi * traj.v * (1.0 / math.sqrt(1.0 - traj.v**2)) / traj.L
    t_eff = np.minimum(taus, wall_time(traj))
    re_fast, im_fast = parts(omega + omega_l, t_eff)
    re_slow, im_slow = parts(omega - omega_l, t_eff)
    half = 0.5 * lam / math.sqrt(k * math.pi)
    c, s = half * math.cos(phi), half * math.sin(phi)
    return (s * (im_fast + im_slow) - c * (re_fast - re_slow)) - 1j * (
        s * (re_fast + re_slow) + c * (im_fast - im_slow)
    )


class TestClosedFormAssembly:
    """The one-helper assembly of the closed forms against the two-seg form
    it replaced, on the velocity-average workload's grid and velocities."""

    TAUS = np.linspace(0.0, 500.0, 6000)

    @staticmethod
    def _velocities(mode):
        # The workload's draws at seed 1: 80 stratified over [0.5, 0.95]
        # and a 20-point band of step 5e-4 around v_c, plus v_c itself.
        rng = np.random.default_rng(1)
        wide = 0.5 + 0.45 * (np.arange(80) + rng.random(80)) / 80
        vc = critical_velocity(mode)
        band = vc + (np.arange(20) - 10 + rng.random()) * 5e-4
        return [None, vc, *wide.tolist(), *band.tolist()]

    def test_within_eight_ulps_of_the_largest_chi(self, fig_cavity, fig_coupling):
        mode = fig_cavity.mode()
        for v in self._velocities(mode):
            if v is None:
                traj = TrajectorySpec.static(fig_cavity.x0, fig_cavity.L)
            else:
                traj = TrajectorySpec.inertial(v, fig_cavity.x0, fig_cavity.L)
            got, _, _ = chi_series(mode, fig_coupling, traj, self.TAUS)
            ref = two_seg_closed_form(fig_coupling.lam, mode, traj, self.TAUS)
            bound = 8.0 * np.finfo(float).eps * np.abs(ref).max()
            assert np.abs(got - ref).max() <= bound, v


class TestSinVersin:
    """sin x and 1 - cos x of the closed forms, the parts of
    Integral_0^x exp(i*t) dt from _exp_integrals, against 40 digits."""

    #: The panel kernel's bound on its tan-based sin and cos.
    BOUND = 4.5e-16
    #: Relative bound for |x| <= 1e-3, where 1 - cos x is of order x^2.
    REL_BOUND = 4.0 * np.finfo(float).eps

    @staticmethod
    def _reference(x):
        with mpmath.workdps(40):
            ref = [(mpmath.sin(mpmath.mpf(v)), 1 - mpmath.cos(mpmath.mpf(v))) for v in x]
            return np.array([[float(s), float(c)] for s, c in ref]).T

    def _check(self, x):
        s, v = seg(1.0, x)
        ref_s, ref_v = self._reference(x)
        assert np.abs(s - ref_s).max() <= self.BOUND
        assert np.abs(v - ref_v).max() <= self.BOUND
        return s, v, ref_s, ref_v

    def test_log_uniform_from_1e_minus_8_to_1e15(self):
        rng = np.random.default_rng(21)
        x = 10.0 ** rng.uniform(-8.0, 15.0, 3000) * rng.choice([-1.0, 1.0], 3000)
        self._check(x)

    def test_near_odd_multiples_of_pi(self):
        # t = tan(x/2) grows without bound there and 1 - cos x is near 2.
        rng = np.random.default_rng(22)
        m = rng.integers(0, 10**6, 1500)
        self._check((2 * m + 1) * math.pi + rng.uniform(-1e-9, 1e-9, m.size))
        self._check(np.array([math.pi, -math.pi, 3.0 * math.pi, 1001.0 * math.pi]))

    def test_near_multiples_of_half_pi(self):
        rng = np.random.default_rng(23)
        m = rng.integers(0, 4 * 10**6, 1500)
        self._check(m * (0.5 * math.pi) + rng.uniform(-1e-6, 1e-6, m.size))

    def test_relative_accuracy_near_zero(self):
        rng = np.random.default_rng(24)
        x = 10.0 ** rng.uniform(-8.0, -3.0, 2000) * rng.choice([-1.0, 1.0], 2000)
        x = np.concatenate([x, 2.0 * math.pi + x, [1e-3, -1e-3, 1e-8]])
        s, v, ref_s, ref_v = self._check(x)
        small = np.abs(x) <= 1e-3
        assert (np.abs(s - ref_s) / np.abs(ref_s))[small].max() <= self.REL_BOUND
        assert (np.abs(v - ref_v) / ref_v)[small].max() <= self.REL_BOUND

    def test_zero_scalar_and_nan(self):
        assert seg(1.0, 0.0) == (0.0, 0.0)
        s, v = seg(1.0, np.float64(0.7))
        assert (s, v) == tuple(a[0] for a in seg(1.0, np.array([0.7])))
        with np.errstate(invalid="ignore"):
            s, v = seg(1.0, np.array([np.nan, np.inf, -np.inf]))
        assert np.isnan(s).all() and np.isnan(v).all()


class TestNonFinitePhase:
    """A finite omega whose phase omega*tau overflows is rejected, naming both."""

    @pytest.mark.parametrize("kind", ["static", "inertial", "accelerated"])
    def test_rejected_on_every_worldline(self, kind):
        cavity = CavityConfig(L=4.0, m=1e308, k0=2)
        x0, L = cavity.x0, cavity.L
        traj = {
            "static": TrajectorySpec.static(x0, L),
            "inertial": TrajectorySpec.inertial(0.3, x0, L),
            "accelerated": TrajectorySpec.accelerated(1.0, x0, L),
        }[kind]
        match = r"phase omega\*tau is not finite for omega=1e\+308 at tau=2\.0"
        with pytest.raises(InvalidParameterError, match=match):
            chi_series(cavity.mode(), CouplingSpec(0.5), traj, [0.0, 2.0])
        with pytest.raises(InvalidParameterError, match=match):
            chi_mode_sum(cavity, CouplingSpec(0.5), traj, 2.0, k_max=4)

    def test_rejected_with_frequency_given_directly(self):
        with pytest.raises(InvalidParameterError, match=r"omega=1e\+308 at tau=2\.0"):
            witness_series_from_omega(StateSpec.fock(1), 1.0, 1e308, [0.0, 2.0])


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
