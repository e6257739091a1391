import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udwitness.errors import InvalidParameterError
from udwitness.field import CavityConfig, ModeSpec, mode_frequencies, mode_frequency, mode_function

# sqrt((pi/2)^2 + 1), frozen from 30-digit arithmetic
OMEGA_5000_10000_1 = 1.8620958891185866
# sin(pi/3)/sqrt(pi), frozen from 30-digit arithmetic
F_1_1_THIRD = 0.48860251190291992


class TestModeFrequency:
    def test_unit_cases(self):
        assert mode_frequency(1, math.pi, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert mode_frequency(1, 1.0, 0.0) == pytest.approx(math.pi, abs=1e-15)

    def test_figure_scale_value(self):
        assert mode_frequency(5000, 10000.0, 1.0) == pytest.approx(
            OMEGA_5000_10000_1, abs=1e-12
        )

    def test_monotonicity(self):
        assert mode_frequency(2, 3.0, 0.5) > mode_frequency(1, 3.0, 0.5)
        assert mode_frequency(2, 3.0, 0.9) > mode_frequency(2, 3.0, 0.5)
        assert mode_frequency(2, 4.0, 0.5) < mode_frequency(2, 3.0, 0.5)

    def test_massless_scaling(self):
        for s in (0.5, 2.0, 7.3):
            assert mode_frequency(3, s * 5.0, 0.0) * s == pytest.approx(
                mode_frequency(3, 5.0, 0.0), rel=1e-14
            )

    def test_massless_dispersion_exact(self):
        for k in (1, 2, 17, 4096):
            assert mode_frequency(k, 3.7, 0.0) * 3.7 / (k * math.pi) == pytest.approx(
                1.0, rel=1e-14
            )

    def test_lower_bounds(self):
        w = mode_frequency(4, 2.5, 1.3)
        assert w >= 4 * math.pi / 2.5
        assert w >= 1.3

    @pytest.mark.parametrize("k,L,m", [(0, 1.0, 0.0), (-2, 1.0, 0.0), (1, 0.0, 0.0), (1, -1.0, 0.0), (1, 1.0, -0.1),
                                       (1, math.inf, 0.0), (1, math.nan, 0.0), (1, 1.0, math.nan), (1, 1.0, math.inf)])
    def test_rejects_bad_parameters(self, k, L, m):
        with pytest.raises(InvalidParameterError):
            mode_frequency(k, L, m)


class TestModeFrequencies:
    @pytest.mark.parametrize("L,m", [(4.0, 1.0), (40.0, 0.0), (1e4, 1.0)])
    def test_bits_of_mode_frequency(self, L, m):
        k_max = 6000
        got = mode_frequencies(k_max, L, m)
        assert got.shape == (k_max,)
        np.testing.assert_array_equal(got, [mode_frequency(k, L, m) for k in range(1, k_max + 1)])

    @pytest.mark.parametrize("L,m,name", [(0.0, 0.0, "cavity length L"), (math.inf, 0.0, "cavity length L"),
                                          (math.nan, 0.0, "cavity length L"), (1.0, -0.1, "field mass m"),
                                          (1.0, math.inf, "field mass m"), (1.0, math.nan, "field mass m")])
    def test_rejects_bad_cavity(self, L, m, name):
        with pytest.raises(InvalidParameterError, match=name):
            mode_frequencies(4, L, m)


class TestModeFunction:
    def test_wall_node(self):
        assert mode_function(7, 3.0, 0.0) == 0.0

    def test_antinode(self):
        for k0, L in [(1, 1.0), (4, 9.0), (5000, 10000.0)]:
            assert mode_function(k0, L, L / (2 * k0)) == pytest.approx(
                1.0 / math.sqrt(k0 * math.pi), rel=1e-13
            )

    def test_interior_value(self):
        assert mode_function(1, 1.0, 1.0 / 3.0) == pytest.approx(F_1_1_THIRD, abs=1e-15)

    def test_right_wall_node_to_machine_precision(self):
        for k in (1, 2, 37, 5000):
            assert abs(mode_function(k, 10000.0, 10000.0)) < 1e-12

    def test_amplitude_bound(self):
        rng = np.random.default_rng(7)
        for k in (1, 3, 50):
            xs = rng.uniform(0.0, 2.0, size=200)
            assert np.all(np.abs(mode_function(k, 2.0, xs)) <= 1.0 / math.sqrt(k * math.pi) + 1e-15)

    def test_rejects_out_of_cavity(self):
        with pytest.raises(InvalidParameterError):
            mode_function(1, 2.0, -0.1)
        with pytest.raises(InvalidParameterError):
            mode_function(1, 2.0, 2.1)

    @pytest.mark.parametrize("L", [math.inf, math.nan, 0.0, -2.0])
    def test_rejects_bad_length_as_the_cavity_does(self, L):
        with pytest.raises(InvalidParameterError, match="cavity length L must be positive and finite"):
            mode_function(1, L, 0.5)

    @pytest.mark.parametrize("x", [math.nan, [0.5, math.nan, 1.0]])
    def test_rejects_nan_position(self, x):
        with pytest.raises(InvalidParameterError, match="position x=.*nan"):
            mode_function(1, 2.0, x)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        k=st.integers(min_value=1, max_value=500),
        frac=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_sign_structure(self, k, frac):
        # mode k changes sign exactly at interior nodes j*L/k
        L = 3.0
        x = frac * L
        val = mode_function(k, L, x)
        phase = k * x / L
        if abs(phase - round(phase)) > 1e-9:
            assert (val > 0) == (math.floor(phase) % 2 == 0)


class TestSpecs:
    def test_mode_spec_derives_omega(self):
        ms = ModeSpec(5, 2.0, 0.7)
        assert ms.omega == mode_frequency(5, 2.0, 0.7)

    def test_mode_spec_profile(self):
        ms = ModeSpec(2, 4.0, 1.0)
        assert ms.profile(1.0) == mode_function(2, 4.0, 1.0)

    def test_cavity_default_antinode(self):
        cav = CavityConfig(L=10000.0, m=1.0, k0=5000)
        assert cav.x0 == 1.0

    def test_cavity_explicit_x0(self):
        cav = CavityConfig(L=4.0, m=0.0, k0=2, x0=0.5)
        assert cav.x0 == 0.5

    def test_cavity_rejects_x0_outside(self):
        with pytest.raises(InvalidParameterError):
            CavityConfig(L=4.0, m=0.0, k0=2, x0=4.5)

    def test_cavity_mode_factory(self):
        cav = CavityConfig(L=4.0, m=1.0, k0=2)
        assert cav.mode().k == 2
        assert cav.mode(7).k == 7
