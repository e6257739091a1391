import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_laguerre

from udwitness.errors import InvalidParameterError, NumericalFailure
from udwitness.field import CavityConfig
from udwitness.response import (
    ChiBranch, ChiValue, CouplingSpec, chi, chi_series, chi_static_amplitude,
)
from udwitness.trajectory import TrajectorySpec, wall_time
from udwitness.witness import (
    BOUND_EPS,
    StateFamily,
    StateSpec,
    WitnessSeries,
    asymptote_value,
    extract_witness,
    laguerre,
    time_averaged_witness,
    violation_metrics,
    witness_series,
    witness_series_from_omega,
    witness_value,
)

TANH_1 = 0.76159415595576489  # frozen from 30-digit arithmetic
EXP_M1 = 0.36787944117144233

INTRO_LAM = 1.7
INTRO_OMEGA = 4.0 / math.sqrt(math.pi)
# |1 - 16*(lam/omega)^2| at the oscillation maximum, frozen: 2.89*pi - 1
INTRO_MAX_W = 8.07920276887450246
# root of 16*(lam/omega)^2 * sin^2(omega*t/2) = 2, frozen from 30-digit arithmetic
INTRO_FIRST_VIOLATION = 0.43296400466886052


class TestLaguerre:
    def test_degree_zero(self):
        assert laguerre(0, 17.3) == 1.0

    def test_degree_one(self):
        assert laguerre(1, 2.0) == -1.0

    def test_degree_two(self):
        # 1 - 2x + x^2/2 at x=2
        assert laguerre(2, 2.0) == pytest.approx(-1.0, abs=1e-14)

    def test_array_input(self):
        xs = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(laguerre(1, xs), 1.0 - xs, atol=1e-15)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(min_value=0, max_value=14),
        x=st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
    )
    def test_matches_scipy(self, n, x):
        assert laguerre(n, x) == pytest.approx(eval_laguerre(n, x), rel=1e-9, abs=1e-9)

    def test_rejects_negative_degree(self):
        with pytest.raises(InvalidParameterError):
            laguerre(-1, 0.5)

    def test_degree_over_the_cap_fails_before_the_loop(self, fails_fast):
        fails_fast(
            lambda: laguerre(2_000_000_000, np.zeros(2000)),
            NumericalFailure,
            "the Laguerre degree N is 2000000000, over the degree cap 1000000",
        )


class TestClosedForms:
    def test_fock_at_zero_response(self):
        for n in (1, 2, 5):
            assert witness_value(StateSpec.fock(n), 0j) == 1.0

    def test_fock_one_quarter(self):
        assert witness_value(StateSpec.fock(1), 0.5 + 0j) == pytest.approx(0.0, abs=1e-14)

    def test_fock_one_unit_response_violates(self):
        w = witness_value(StateSpec.fock(1), 1j)
        assert w == pytest.approx(-3.0, abs=1e-14)
        assert abs(w) > 1.0 + BOUND_EPS

    def test_fock_one_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = complex(rng.normal(), rng.normal())
            assert witness_value(StateSpec.fock(1), c) == 1.0 - 4.0 * abs(c) ** 2

    def test_cat_at_zero_response(self):
        assert witness_value(StateSpec.cat(1.0), 0j) == pytest.approx(1.0, abs=1e-15)

    def test_cat_degenerates_to_vacuum(self):
        assert witness_value(StateSpec.cat(1e-7), 0.3 - 0.2j) == pytest.approx(1.0, abs=1e-6)

    def test_cat_quarter_period_point(self):
        assert witness_value(StateSpec.cat(1.0), 1j * math.pi / 4) == pytest.approx(-TANH_1, abs=1e-14)

    def test_cat_overflow_reported(self):
        with pytest.raises(NumericalFailure):
            witness_value(StateSpec.cat(200.0), 1.0 + 0j)

    def test_coherent_pure_phase(self):
        assert witness_value(StateSpec.coherent(0j), 0.7 + 0.1j) == 1.0
        assert witness_value(StateSpec.coherent(1.5 - 0.3j), 0j) == 1.0
        w = witness_value(StateSpec.coherent(1.0), 1j)
        assert w == pytest.approx(cmath.exp(4j), abs=1e-15)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        ar=st.floats(-3, 3, allow_nan=False),
        ai=st.floats(-3, 3, allow_nan=False),
        cr=st.floats(-3, 3, allow_nan=False),
        ci=st.floats(-3, 3, allow_nan=False),
    )
    def test_coherent_modulus_one(self, ar, ai, cr, ci):
        assert abs(witness_value(StateSpec.coherent(complex(ar, ai)), complex(cr, ci))) == pytest.approx(
            1.0, abs=1e-13
        )

    def test_thermal_examples(self):
        assert witness_value(StateSpec.thermal(0.0), 0.9 + 0.2j) == 1.0
        assert witness_value(StateSpec.thermal(3.0), 0j) == 1.0
        assert witness_value(StateSpec.thermal(1.0), 0.5 + 0j) == pytest.approx(EXP_M1, abs=1e-15)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        nbar=st.floats(0, 50, allow_nan=False),
        cr=st.floats(-3, 3, allow_nan=False),
        ci=st.floats(-3, 3, allow_nan=False),
    )
    def test_thermal_never_violates(self, nbar, cr, ci):
        # underflow to exactly 0.0 is fine; the bound is what matters
        w = witness_value(StateSpec.thermal(nbar), complex(cr, ci))
        assert w.imag == 0.0
        assert 0.0 <= w.real <= 1.0

    def test_accepts_chi_value_objects(self):
        cv = chi(
            CavityConfig(L=4.0, m=1.0, k0=2).mode(), CouplingSpec(0.5),
            TrajectorySpec.static(1.0, 4.0), 2.0,
        )
        assert witness_value(StateSpec.fock(1), cv) == 1.0 - 4.0 * abs(cv.value) ** 2

    @pytest.mark.parametrize(
        "state", [StateSpec.fock(2), StateSpec.cat(1.2), StateSpec.coherent(0.6 + 0.3j), StateSpec.thermal(0.7)], ids=lambda s: s.label()
    )
    def test_witness_value_matches_series(self, small_cavity, state):
        traj = TrajectorySpec.inertial(0.3, small_cavity.x0, small_cavity.L)
        s = witness_series(state, small_cavity, CouplingSpec(0.4), traj, np.linspace(0.0, 4.0, 41))
        assert s.ok.all()
        for c, w in zip(s.chi, s.w):
            got = witness_value(state, ChiValue(complex(c), s.branch))
            if state.family in (StateFamily.CAT, StateFamily.COHERENT):
                assert got == w
            else:
                # |chi|^2 of a single chi is Python's abs and **, which
                # differ from numpy's array abs and square in the last bit.
                assert abs(got - w) <= 16 * np.finfo(float).eps * max(1.0, 4 * abs(c) ** 2)


class TestExtractWitness:
    def test_no_decoherence(self):
        assert extract_witness(0.5 + 0j, 0.0) == 0.5 + 0j

    def test_exact_cancellation(self):
        assert extract_witness(math.exp(-2.0), 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_overflow(self):
        with pytest.raises(NumericalFailure):
            extract_witness(1.0, 400.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameterError):
            extract_witness(complex(math.inf, 0.0), 0.0)
        with pytest.raises(InvalidParameterError):
            extract_witness(1.0, -0.1)

    @pytest.mark.parametrize("chi_sum", [math.nan, math.inf])
    def test_rejects_non_finite_mode_sum(self, chi_sum):
        with pytest.raises(InvalidParameterError, match="must be non-negative and finite"):
            extract_witness(1.0, chi_sum)


class TestStateSpec:
    def test_fock_validation(self):
        with pytest.raises(InvalidParameterError):
            StateSpec.fock(-1)

    def test_cat_validation(self):
        with pytest.raises(InvalidParameterError):
            StateSpec.cat(0.0)
        with pytest.raises(InvalidParameterError):
            StateSpec(StateFamily.CAT, alpha0=1j)

    def test_thermal_validation(self):
        with pytest.raises(InvalidParameterError):
            StateSpec.thermal(-0.5)

    @pytest.mark.parametrize("make,x", [
        (StateSpec.thermal, math.nan),
        (StateSpec.thermal, math.inf),
        (StateSpec.cat, math.nan),
        (StateSpec.cat, math.inf),
        (StateSpec.coherent, complex(math.nan, 0.0)),
        (StateSpec.coherent, complex(0.5, math.inf)),
    ])
    def test_non_finite_parameters_rejected(self, make, x):
        with pytest.raises(InvalidParameterError, match="finite"):
            make(x)

    def test_labels(self):
        assert StateSpec.fock(1).label() == "fock:1"
        assert StateSpec.cat(1.5).label() == "cat:1.5"
        assert StateSpec.coherent(0.5 + 0.25j).label() == "coherent:0.5,0.25"
        assert StateSpec.thermal(2.0).label() == "thermal:2"


class TestWitnessSeries:
    def test_coherent_never_violates(self, fig_cavity, fig_coupling):
        taus = np.linspace(0.0, 40.0, 500)
        traj = TrajectorySpec.inertial(0.6, fig_cavity.x0, fig_cavity.L)
        s = witness_series(StateSpec.coherent(1.0 + 0.5j), fig_cavity, fig_coupling, traj, taus)
        np.testing.assert_allclose(s.w_abs, 1.0, atol=1e-12)
        assert not s.violates.any()
        assert s.ok.all()

    def test_static_consistency_with_laguerre(self):
        # resting detector at the antinode reproduces the Laguerre form with
        # effective coupling lam * F(x0)
        cav = CavityConfig(L=7.0, m=0.5, k0=3, x0=7.0 / 6.0)
        coup = CouplingSpec(0.8)
        traj = TrajectorySpec.static(cav.x0, cav.L)
        taus = np.linspace(0.0, 20.0, 500)
        for n in (1, 2, 4):
            s = witness_series(StateSpec.fock(n), cav, coup, traj, taus)
            mode = cav.mode()
            lam_f = coup.lam * mode.profile(cav.x0)
            arg = 16.0 * (lam_f / mode.omega) ** 2 * np.sin(0.5 * mode.omega * taus) ** 2
            expected = np.array([laguerre(n, x) for x in arg])
            np.testing.assert_allclose(s.w.real, expected, atol=1e-12)
            np.testing.assert_allclose(s.w.imag, 0.0, atol=1e-12)

    def test_real_families_have_real_witness(self, fig_cavity, fig_coupling):
        taus = np.linspace(0.0, 30.0, 300)
        traj = TrajectorySpec.accelerated(0.8, fig_cavity.x0, fig_cavity.L)
        for state in (StateSpec.fock(1), StateSpec.cat(1.0), StateSpec.thermal(0.5)):
            s = witness_series(state, fig_cavity, fig_coupling, traj, taus)
            assert np.max(np.abs(s.w.imag)) < 1e-12

    def test_violation_flags_match_bound(self, fig_cavity, fig_coupling):
        taus = np.linspace(0.0, 30.0, 400)
        traj = TrajectorySpec.static(fig_cavity.x0, fig_cavity.L)
        s = witness_series(StateSpec.fock(1), fig_cavity, fig_coupling, traj, taus)
        assert s.violates.any()
        np.testing.assert_array_equal(s.violates, s.w_abs > 1.0 + BOUND_EPS)
        # A cat witness whose cosh overflows at some samples: those are
        # invalid, hold NaN and flag no violation.
        s = witness_series(StateSpec.cat(200.0), fig_cavity, fig_coupling, traj, taus)
        assert s.ok.any() and not s.ok.all()
        assert np.isnan(s.w_abs[~s.ok]).all()
        np.testing.assert_array_equal(s.violates, s.w_abs > 1.0 + BOUND_EPS)
        assert not s.violates[~s.ok].any()

    def test_post_wall_constant(self, fig_cavity, fig_coupling):
        traj = TrajectorySpec.accelerated(0.8, fig_cavity.x0, fig_cavity.L)
        tw = wall_time(traj)
        taus = np.linspace(0.0, 3 * tw, 600)
        s = witness_series(StateSpec.fock(1), fig_cavity, fig_coupling, traj, taus)
        frozen = s.w_abs[taus >= tw]
        assert np.max(frozen) - np.min(frozen) < 1e-12

    def test_grid_validation(self, small_cavity):
        traj = TrajectorySpec.static(small_cavity.x0, small_cavity.L)
        state = StateSpec.fock(1)
        with pytest.raises(InvalidParameterError):
            witness_series(state, small_cavity, CouplingSpec(0.4), traj, [])
        with pytest.raises(InvalidParameterError):
            witness_series(state, small_cavity, CouplingSpec(0.4), traj, [1.0, 0.5])
        with pytest.raises(InvalidParameterError):
            witness_series(state, small_cavity, CouplingSpec(0.4), traj, [-1.0, 0.5])
        with pytest.raises(InvalidParameterError, match="strictly increasing"):
            witness_series(state, small_cavity, CouplingSpec(0.4), traj, [0.5, 0.5])

    def test_time_checks_and_their_messages(self, small_cavity):
        # The grid check reads the sign at the first time only (a strictly
        # increasing grid has no NaN); chi's own check scans every time,
        # and rejects an infinite time on a static worldline.
        traj = TrajectorySpec.static(small_cavity.x0, small_cavity.L)
        coupling, state = CouplingSpec(0.4), StateSpec.fock(1)
        for taus in ([-1.0, 0.5], [math.nan]):
            with pytest.raises(InvalidParameterError, match=r"time grid must be non-negative \(and not NaN\)"):
                witness_series(state, small_cavity, coupling, traj, taus)
        with pytest.raises(InvalidParameterError, match="time grid must be strictly increasing"):
            witness_series(state, small_cavity, coupling, traj, [0.0, math.nan])
        with pytest.raises(InvalidParameterError, match="tau=inf must be non-negative and finite"):
            witness_series(state, small_cavity, coupling, traj, [0.0, math.inf])
        with pytest.raises(InvalidParameterError, match="proper time tau=-1.0 must be non-negative"):
            chi_series(small_cavity.mode(), coupling, traj, [0.5, -1.0])

    def test_mismatched_specs_rejected(self, small_cavity):
        for other, match in [
            (TrajectorySpec.static(small_cavity.x0, 5.0), "clamps at L=5.0"),
            (TrajectorySpec.static(1.5, small_cavity.L), "starts at x0=1.5"),
        ]:
            with pytest.raises(InvalidParameterError, match=match):
                witness_series(StateSpec.fock(1), small_cavity, CouplingSpec(0.4), other, [0.0, 1.0])


class TestIntroModelSeries:
    def test_matches_laguerre_form(self):
        taus = np.linspace(0.0, 10.0, 2000)
        s = witness_series_from_omega(StateSpec.fock(1), INTRO_LAM, INTRO_OMEGA, taus)
        arg = 16.0 * (INTRO_LAM / INTRO_OMEGA) ** 2 * np.sin(0.5 * INTRO_OMEGA * taus) ** 2
        np.testing.assert_allclose(s.w.real, 1.0 - arg, atol=1e-12)

    def test_oscillation_maximum(self):
        taus = np.linspace(0.0, 12.0, 120001)
        s = witness_series_from_omega(StateSpec.fock(1), INTRO_LAM, INTRO_OMEGA, taus)
        assert np.max(s.w_abs) == pytest.approx(INTRO_MAX_W, abs=1e-4)

    def test_periodicity_by_interpolation(self):
        period = 2 * math.pi / INTRO_OMEGA
        taus = np.linspace(0.0, 12.0, 120001)
        s = witness_series_from_omega(StateSpec.fock(1), INTRO_LAM, INTRO_OMEGA, taus)
        probe = np.linspace(0.5, 12.0 - period, 500)
        w1 = np.interp(probe, taus, s.w_abs)
        w2 = np.interp(probe + period, taus, s.w_abs)
        np.testing.assert_allclose(w1, w2, atol=1e-6)

    def test_decoherence_exponent_identity(self):
        # the resting-detector decoherence factor exp(-2*|chi|^2) equals
        # exp(-8*(lam/omega)^2 * sin^2(omega*t/2))
        from udwitness.response import chi_static_amplitude

        rng = np.random.default_rng(11)
        for _ in range(25):
            lam, omega, tau = rng.uniform(0.1, 3.0, size=3)
            c = chi_static_amplitude(lam, omega, tau)
            assert 2.0 * abs(c) ** 2 == pytest.approx(
                8.0 * (lam / omega) ** 2 * math.sin(0.5 * omega * tau) ** 2, abs=1e-12
            )

    def test_one_point_chi_equals_every_series_element(self):
        rng = np.random.default_rng(12)
        taus = np.sort(np.concatenate([np.linspace(0.0, 50.0, 401), rng.uniform(0.0, 50.0, 200)]))
        state = StateSpec.cat(1.3)
        s = witness_series_from_omega(state, INTRO_LAM, INTRO_OMEGA, taus)
        for tau, c, w in zip(taus.tolist(), s.chi.tolist(), s.w.tolist()):
            one = complex(chi_static_amplitude(INTRO_LAM, INTRO_OMEGA, tau))
            assert one.real == c.real and one.imag == c.imag
            assert witness_value(state, one) == w

    def test_violation_needs_coupling_above_threshold(self):
        # Fock-1 at rest violates the bound iff 16*(lam/omega)^2 > 2
        taus = np.linspace(0.0, 20.0, 4000)
        lam_thresh = INTRO_OMEGA * math.sqrt(2.0 / 16.0)
        below = witness_series_from_omega(
            StateSpec.fock(1), 0.99 * lam_thresh, INTRO_OMEGA, taus
        )
        above = witness_series_from_omega(
            StateSpec.fock(1), 1.05 * lam_thresh, INTRO_OMEGA, taus
        )
        assert not below.violates.any()
        assert above.violates.any()

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            witness_series_from_omega(StateSpec.fock(1), 1.0, 0.0, [0.0, 1.0])
        with pytest.raises(InvalidParameterError):
            witness_series_from_omega(StateSpec.fock(1), -1.0, 1.0, [0.0, 1.0])
        with pytest.raises(InvalidParameterError, match="NaN"):
            witness_series_from_omega(StateSpec.fock(1), 1.0, 1.0, [math.nan])
        for lam, omega in ((math.nan, 2.0), (math.inf, 2.0), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(InvalidParameterError, match="finite"):
                witness_series_from_omega(StateSpec.fock(1), lam, omega, [0.0, 1.0])


def _synthetic_series(taus, w_abs):
    taus = np.asarray(taus, dtype=float)
    w_abs = np.asarray(w_abs, dtype=float)
    w = w_abs.astype(complex)
    return WitnessSeries(
        taus=taus,
        chi=np.zeros_like(w),
        chi_err=np.zeros_like(w_abs),
        branch=ChiBranch.STATIC_CLOSED_FORM,
        w=w,
        w_abs=w_abs,
        violates=w_abs > 1.0 + BOUND_EPS,
        ok=np.ones_like(w_abs, dtype=bool),
    )


class TestTimeAveragedWitness:
    def test_constant_series(self):
        taus = np.linspace(0.0, 10.0, 101)
        s = _synthetic_series(taus, np.full(101, 0.7))
        assert time_averaged_witness(s, 0.0, 10.0) == pytest.approx(0.7, rel=1e-14)

    def test_rectified_sine_mean(self):
        # |sin| over whole periods averages to 2/pi
        taus = np.linspace(0.0, 8 * math.pi, 32001)
        s = _synthetic_series(taus, np.abs(np.sin(taus)))
        assert time_averaged_witness(s, 0.0, 8 * math.pi) == pytest.approx(
            2.0 / math.pi, abs=1e-4
        )

    def test_partial_window(self):
        taus = np.linspace(0.0, 2.0, 2001)
        s = _synthetic_series(taus, taus)  # |W| = tau
        assert time_averaged_witness(s, 0.5, 1.5) == pytest.approx(1.0, rel=1e-12)

    @staticmethod
    def _full_grid_average(series, t1, t2):
        """The average with every grid point interpolated, as a reference."""
        taus = series.taus
        xs = np.concatenate([[t1], taus[(taus > t1) & (taus < t2)], [t2]])
        ys = np.interp(xs, taus, series.w_abs)
        return float(np.trapezoid(ys, xs) / (t2 - t1))

    def test_equals_full_grid_interpolation_bit_for_bit(self):
        rng = np.random.default_rng(13)
        taus = np.cumsum(rng.uniform(0.01, 0.2, 3000))
        s = _synthetic_series(taus, rng.uniform(0.0, 3.0, taus.size))
        n = taus.size
        windows = []
        for _ in range(300):
            i, j = np.sort(rng.choice(n, 2, replace=False))
            windows.append((taus[i], taus[j]))  # on the grid
            a, b = np.sort(rng.uniform(taus[0], taus[-1], 2))
            windows.append((a, b))  # off the grid
            windows.append((taus[i], b) if taus[i] < b else (a, taus[j]))  # one end on it
            lo, hi = np.sort(rng.uniform(taus[i], taus[i + 1], 2))
            windows.append((lo, hi))  # inside one interval
        windows += [(taus[0], taus[-1]), (taus[0], taus[1]), (taus[-2], taus[-1])]
        for t1, t2 in windows:
            assert t1 < t2
            got = time_averaged_witness(s, float(t1), float(t2))
            assert got == self._full_grid_average(s, float(t1), float(t2))

    def test_window_validation(self):
        taus = np.linspace(0.0, 1.0, 11)
        s = _synthetic_series(taus, np.ones(11))
        with pytest.raises(InvalidParameterError):
            time_averaged_witness(s, 0.8, 0.2)
        with pytest.raises(InvalidParameterError):
            time_averaged_witness(s, 0.0, 1.5)


class TestViolationMetrics:
    def test_coherent_series(self, fig_cavity, fig_coupling):
        taus = np.linspace(0.0, 20.0, 200)
        traj = TrajectorySpec.static(fig_cavity.x0, fig_cavity.L)
        s = witness_series(StateSpec.coherent(1.0), fig_cavity, fig_coupling, traj, taus)
        m = violation_metrics(s)
        assert m.first_violation_tau is None
        assert m.max_abs_w == pytest.approx(1.0, abs=1e-12)

    def test_intro_model_first_violation(self):
        taus = np.linspace(0.0, 2.7842, 2000)
        s = witness_series_from_omega(StateSpec.fock(1), INTRO_LAM, INTRO_OMEGA, taus)
        m = violation_metrics(s)
        step = taus[1] - taus[0]
        assert m.first_violation_tau is not None
        assert 0.0 <= m.first_violation_tau - INTRO_FIRST_VIOLATION <= 2 * step
        assert m.argmax_tau == pytest.approx(math.pi / INTRO_OMEGA, abs=2 * step)

    def test_thermal_never_flags(self, fig_cavity, fig_coupling):
        taus = np.linspace(0.0, 20.0, 200)
        traj = TrajectorySpec.accelerated(1.0, fig_cavity.x0, fig_cavity.L)
        s = witness_series(StateSpec.thermal(5.0), fig_cavity, fig_coupling, traj, taus)
        assert violation_metrics(s).first_violation_tau is None


class TestAsymptoteValue:
    def test_no_coupling_gives_unity(self, fig_cavity):
        traj = TrajectorySpec.accelerated(0.8, fig_cavity.x0, fig_cavity.L)
        val = asymptote_value(StateSpec.fock(1), fig_cavity, CouplingSpec(0.0), traj, 500.0)
        assert val == 1.0

    def test_matches_wall_value(self, small_cavity):
        coup = CouplingSpec(0.5)
        traj = TrajectorySpec.accelerated(1.0, small_cavity.x0, small_cavity.L)
        tw = wall_time(traj)
        val = asymptote_value(StateSpec.fock(1), small_cavity, coup, traj, 2 * tw)
        s = witness_series(StateSpec.fock(1), small_cavity, coup, traj, [tw])
        assert val == pytest.approx(s.w_abs[0], abs=1e-12)

    @pytest.mark.parametrize("state", [StateSpec.fock(1), StateSpec.cat(1.0)], ids=["fock1", "cat1"])
    def test_equals_series_at_wall_exactly(self, fig_cavity, fig_coupling, state):
        # Past the wall every chi_k is frozen, so T only has to reach the wall.
        traj = TrajectorySpec.accelerated(0.8, fig_cavity.x0, fig_cavity.L)
        tw = wall_time(traj)
        s = witness_series(state, fig_cavity, fig_coupling, traj, [tw])
        assert s.ok[0]
        for t_eval in (tw, 500.0):
            assert asymptote_value(state, fig_cavity, fig_coupling, traj, t_eval) == s.w_abs[0]

    def test_rejects_early_evaluation(self, fig_cavity, fig_coupling):
        traj = TrajectorySpec.accelerated(0.4, fig_cavity.x0, fig_cavity.L)
        tw = wall_time(traj)
        with pytest.raises(InvalidParameterError) as exc_info:
            asymptote_value(StateSpec.fock(1), fig_cavity, fig_coupling, traj, 0.5 * tw)
        assert f"{tw}" in str(exc_info.value)

    def test_nan_evaluation_time_is_named(self, fig_cavity, fig_coupling):
        # NaN < t_wall is False: the check must not pass it on to the grid.
        traj = TrajectorySpec.accelerated(0.8, fig_cavity.x0, fig_cavity.L)
        with pytest.raises(InvalidParameterError) as exc_info:
            asymptote_value(StateSpec.fock(1), fig_cavity, fig_coupling, traj, math.nan)
        message = str(exc_info.value)
        assert message.startswith("evaluation time T=nan ")
        assert f"{wall_time(traj)}" in message

    def test_infinite_evaluation_time_reads_the_wall(self, fig_cavity, fig_coupling):
        traj = TrajectorySpec.accelerated(0.8, fig_cavity.x0, fig_cavity.L)
        state = StateSpec.cat(1.0)
        at_wall = asymptote_value(state, fig_cavity, fig_coupling, traj, wall_time(traj))
        assert asymptote_value(state, fig_cavity, fig_coupling, traj, math.inf) == at_wall

    def test_mismatched_geometry_is_named_before_the_wall_time(self, small_cavity):
        # T = 4 lies past the wall of the L=4 cavity but before this
        # trajectory's, which clamps at L=8.
        traj = TrajectorySpec.accelerated(0.5, small_cavity.x0, 8.0)
        with pytest.raises(InvalidParameterError, match="clamps at L=8.0 but the cavity has L=4.0"):
            asymptote_value(StateSpec.fock(1), small_cavity, CouplingSpec(0.4), traj, 4.0)

    def test_requires_accelerated(self, fig_cavity, fig_coupling):
        traj = TrajectorySpec.inertial(0.5, fig_cavity.x0, fig_cavity.L)
        with pytest.raises(InvalidParameterError):
            asymptote_value(StateSpec.fock(1), fig_cavity, fig_coupling, traj, 500.0)


class TestClassicalBoundSweep:
    def test_classical_states_respect_bound(self):
        rng = np.random.default_rng(20240817)
        for _ in range(40):
            k0 = int(rng.integers(1, 7))
            L = float(rng.uniform(2.0, 20.0))
            m = float(rng.uniform(0.0, 2.0))
            lam = float(rng.uniform(0.0, 1.5))
            cav = CavityConfig(L=L, m=m, k0=k0)
            kind = rng.integers(0, 3)
            if kind == 0:
                traj = TrajectorySpec.static(cav.x0, L)
            elif kind == 1:
                traj = TrajectorySpec.inertial(float(rng.uniform(0.05, 0.95)), cav.x0, L)
            else:
                traj = TrajectorySpec.accelerated(float(rng.uniform(0.1, 4.0)), cav.x0, L)
            if rng.integers(0, 2) == 0:
                state = StateSpec.coherent(complex(rng.normal(), rng.normal()))
            else:
                state = StateSpec.thermal(float(rng.uniform(0.0, 4.0)))
            taus = np.sort(rng.uniform(0.0, 30.0, size=4))
            taus[0] = 0.0
            s = witness_series(state, cav, CouplingSpec(lam), traj, np.unique(taus))
            assert np.all(s.w_abs[s.ok] <= 1.0 + 1e-12)


class TestSeriesScalingInvariance:
    def test_witness_series_invariant_at_m_zero(self):
        k0, L, lam, x0 = 5000, 10000.0, 2 * math.sqrt(5000.0), 1.0
        s = 2
        taus = np.linspace(0.0, 25.0, 400)
        base_cav = CavityConfig(L=L, m=0.0, k0=k0)
        scaled_cav = CavityConfig(L=s * L, m=0.0, k0=s * k0)
        assert base_cav.x0 == scaled_cav.x0 == x0
        base = witness_series(
            StateSpec.fock(1), base_cav, CouplingSpec(lam),
            TrajectorySpec.inertial(0.5, x0, L), taus,
        )
        scaled = witness_series(
            StateSpec.fock(1), scaled_cav, CouplingSpec(math.sqrt(s) * lam),
            TrajectorySpec.inertial(0.5, x0, s * L), taus,
        )
        np.testing.assert_allclose(scaled.w_abs, base.w_abs, atol=1e-9)
        mb = violation_metrics(base)
        ms = violation_metrics(scaled)
        assert mb.argmax_tau == ms.argmax_tau
        assert mb.max_abs_w == pytest.approx(ms.max_abs_w, abs=1e-9)
