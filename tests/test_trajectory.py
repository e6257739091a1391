import math
import warnings

import mpmath
import numpy as np
import pytest

from udwitness.errors import InvalidParameterError
from udwitness.trajectory import TrajectoryKind, TrajectorySpec, position, wall_time

ACOSH_2 = 1.3169578969248166  # frozen from 30-digit arithmetic


class TestPosition:
    def test_static_stays_put(self):
        traj = TrajectorySpec.static(1.0, 2.0)
        assert position(traj, 37.5) == 1.0

    def test_inertial_lorentz_factor(self):
        traj = TrajectorySpec.inertial(0.6, 1.0, 100.0)
        assert position(traj, 1.0) == pytest.approx(1.75, abs=1e-12)

    def test_accelerated_start(self):
        traj = TrajectorySpec.accelerated(1.0, 1.0, 2.0)
        assert position(traj, 0.0) == 1.0

    def test_clamps_at_wall_forever(self):
        traj = TrajectorySpec.inertial(0.9, 0.0, 5.0)
        tw = wall_time(traj)
        for tau in (tw, 1.1 * tw, 10 * tw):
            assert position(traj, tau) == 5.0

    def test_monotone_non_decreasing(self):
        taus = np.linspace(0.0, 50.0, 400)
        for traj in (
            TrajectorySpec.static(0.3, 2.0),
            TrajectorySpec.inertial(0.4, 0.3, 2.0),
            TrajectorySpec.accelerated(0.7, 0.3, 2.0),
        ):
            xs = position(traj, taus)
            assert np.all(np.diff(xs) >= 0)

    def test_inertial_affine_before_wall(self):
        traj = TrajectorySpec.inertial(0.5, 0.0, 1e6)
        taus = np.linspace(0.0, 10.0, 101)
        xs = position(traj, taus)
        second = np.diff(xs, n=2)
        assert np.max(np.abs(second)) < 1e-9

    def test_accelerated_velocity_is_sinh(self):
        a = 0.8
        traj = TrajectorySpec.accelerated(a, 0.0, 1e9)
        h = 1e-6
        for tau in (0.5, 1.0, 2.0, 3.0):
            num = (position(traj, tau + h) - position(traj, tau - h)) / (2 * h)
            assert num == pytest.approx(math.sinh(a * tau), rel=1e-6)

    def test_rejects_negative_tau(self):
        with pytest.raises(InvalidParameterError):
            position(TrajectorySpec.static(0.0, 1.0), -0.5)

    @pytest.mark.parametrize(
        "traj",
        [TrajectorySpec.static(0.0, 1.0), TrajectorySpec.accelerated(1.0, 0.0, 1.0)],
        ids=["static", "accelerated"],
    )
    def test_rejects_nan_tau(self, traj):
        with pytest.raises(InvalidParameterError, match="nan"):
            position(traj, math.nan)
        with pytest.raises(InvalidParameterError):
            position(traj, np.array([0.5, math.nan]))

    def test_past_the_wall_is_the_wall_without_overflow(self):
        # cosh(a*tau) overflows at a*tau = 710; the position does not.
        traj = TrajectorySpec.accelerated(1.0, 0.0, 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert position(traj, 1000.0) == 10.0
            np.testing.assert_array_equal(position(traj, np.array([5.0, 1e3, 1e308])), 10.0)

    def test_tiny_acceleration_moves_by_a_tau_squared_over_two(self):
        # (cosh(a*tau) - 1)/a cancels to 0 at a*tau = 3e-20; 2*sinh(a*tau/2)**2/a does not.
        traj = TrajectorySpec.accelerated(1e-21, 0.0, 1e4)
        assert position(traj, 30.0) == pytest.approx(0.5e-21 * 900.0, rel=1e-15, abs=0.0)

    def test_array_input(self):
        traj = TrajectorySpec.accelerated(1.0, 0.0, 3.0)
        xs = position(traj, np.array([0.0, 1.0, 10.0]))
        assert xs.shape == (3,)
        assert xs[2] == 3.0


class TestWallTime:
    def test_static_never_arrives(self):
        assert wall_time(TrajectorySpec.static(1.0, 2.0)) is None

    def test_inertial_value(self):
        traj = TrajectorySpec.inertial(0.6, 1.0, 2.0)
        assert wall_time(traj) == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_accelerated_value(self):
        traj = TrajectorySpec.accelerated(1.0, 1.0, 2.0)
        assert wall_time(traj) == pytest.approx(ACOSH_2, abs=1e-12)

    @pytest.mark.parametrize("a", [1e-21, 1e-12, 1e-4])
    def test_tiny_acceleration_is_far_from_the_wall(self, a):
        # cosh(a*t) = 1 + a*d with 1 + a*d rounding to 1 below a*d ~ 1.1e-16:
        # the arrival is near sqrt(2*d/a), never at 0.
        traj = TrajectorySpec.accelerated(a, 1.0, 10.0)
        with mpmath.workdps(40):
            exact = float(mpmath.acosh(1 + mpmath.mpf(a) * 9) / a)
        assert wall_time(traj) == pytest.approx(exact, rel=1e-15)

    @pytest.mark.parametrize("ad", [0.3, 0.5, 1.1, 1e3, 1e12])
    def test_matches_40_digit_acosh_at_any_acceleration(self, ad):
        # One form, 2*asinh(sqrt(a*d/2))/a, at small and large a*d alike.
        traj = TrajectorySpec.accelerated(ad / 9.0, 1.0, 10.0)
        with mpmath.workdps(40):
            exact = float(mpmath.acosh(1 + mpmath.mpf(traj.a) * 9) / traj.a)
        assert wall_time(traj) == pytest.approx(exact, rel=1e-15)

    def test_position_at_wall_time(self):
        for traj in (
            TrajectorySpec.inertial(0.37, 0.2, 7.0),
            TrajectorySpec.accelerated(2.1, 0.2, 7.0),
        ):
            assert position(traj, wall_time(traj)) == pytest.approx(7.0, abs=1e-12 * 7.0)

    def test_wall_time_decreases_with_speed(self):
        L = 10.0
        tws = [wall_time(TrajectorySpec.inertial(v, 1.0, L)) for v in (0.2, 0.5, 0.9)]
        assert tws[0] > tws[1] > tws[2]
        tws_a = [wall_time(TrajectorySpec.accelerated(a, 1.0, L)) for a in (0.4, 0.8, 1.6)]
        assert tws_a[0] > tws_a[1] > tws_a[2]


class TestValidation:
    def test_inertial_velocity_range(self):
        for v in (0.0, 1.0, 1.2, -0.3):
            with pytest.raises(InvalidParameterError):
                TrajectorySpec.inertial(v, 0.0, 1.0)

    def test_accelerated_positive(self):
        for a in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidParameterError):
                TrajectorySpec.accelerated(a, 0.0, 1.0)

    def test_start_position_range(self):
        with pytest.raises(InvalidParameterError):
            TrajectorySpec.static(-0.1, 1.0)
        with pytest.raises(InvalidParameterError):
            TrajectorySpec.inertial(0.5, 1.0, 1.0)  # x0 == L not allowed for movers

    def test_kind_enum(self):
        assert TrajectorySpec.static(0.0, 1.0).kind is TrajectoryKind.STATIC
        assert TrajectorySpec.inertial(0.5, 0.0, 1.0).kind is TrajectoryKind.INERTIAL
        assert TrajectorySpec.accelerated(1.0, 0.0, 1.0).kind is TrajectoryKind.ACCELERATED
