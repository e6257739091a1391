import cmath
import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from udwitness import oracle
from udwitness.errors import InvalidParameterError, TruncationTooSmall
from udwitness.field import ModeSpec, mode_function
from udwitness.oracle import (
    UNITARITY_TOL,
    EndToEndReport,
    TruncatedMode,
    displacement_matrix,
    end_to_end_check,
    evolve_closed_form,
    evolve_trotter,
    expm,
    overlap_trace,
    phase_beta,
    run_oracle_suite,
    state_density,
    trusted_block,
    unitarity_defect,
)
from udwitness.response import CouplingSpec, chi_quadrature, chi_static_amplitude
from udwitness.trajectory import TrajectorySpec, position
from udwitness.witness import StateSpec, witness_value

EXP_M_HALF = 0.60653065971263342  # frozen from 30-digit arithmetic


@functools.cache
def exact_displacement(beta: complex, rows: int = 60, cols: int = 20) -> np.ndarray:
    """<m|D(beta)|n> from the associated Laguerre closed form in 40-digit
    arithmetic: sqrt(j!/(j+k)!) z^k e^(-|beta|^2/2) L_j^(k)(|beta|^2) with
    j = min(m, n), k = |m - n|, z = beta below the diagonal and
    -conj(beta) above it. For each k, L_j^(k) comes from its three-term
    recurrence in j. The elements do not depend on a cutoff, so one
    60 x 20 corner serves every cutoff up to 60."""
    out = np.empty((rows, cols), dtype=complex)
    with mpmath.workdps(40):
        b = mpmath.mpc(beta.real, beta.imag)
        x = abs(b) ** 2
        pre = mpmath.exp(-x / 2)
        for k in range(rows):
            lag_prev, lag = mpmath.mpf(0), mpmath.mpf(1)
            norm = 1 / mpmath.sqrt(mpmath.factorial(k))  # sqrt(j!/(j+k)!) at j=0
            for j in range(min(rows, cols)):
                if j > 0:
                    lag_prev, lag = lag, ((2 * j - 1 + k - x) * lag - (j - 1 + k) * lag_prev) / j
                    norm *= mpmath.sqrt(mpmath.mpf(j) / (j + k))
                if j + k < rows:
                    out[j + k, j] = complex(pre * norm * b**k * lag)
                if k > 0 and j + k < cols:
                    out[j, j + k] = complex(pre * norm * (-mpmath.conj(b)) ** k * lag)
    return out


def padded_expm_displacement(cutoff: int, beta: complex) -> np.ndarray:
    """The padded displacement by scipy's matrix exponential of the generator."""
    pad = cutoff + 25 + math.ceil(4.0 * abs(beta) * math.sqrt(cutoff))
    a = np.diag(np.sqrt(np.arange(1, pad)), 1).astype(complex)
    return expm(beta * a.conj().T - np.conj(beta) * a)[:cutoff, :cutoff]


class TestDisplacement:
    def test_zero_displacement_is_identity(self):
        d = displacement_matrix(TruncatedMode(20, 1.0), 0j)
        np.testing.assert_allclose(d, np.eye(20), atol=1e-14)

    def test_vacuum_overlap(self):
        d = displacement_matrix(TruncatedMode(40, 1.0), 1.0)
        assert d[0, 0].real == pytest.approx(EXP_M_HALF, abs=1e-12)
        assert abs(d[0, 0].imag) < 1e-14

    def test_coherent_column(self):
        # column 0 of D(beta) is the coherent state |beta>
        beta = 0.6 - 0.2j
        cutoff = 30
        d = displacement_matrix(TruncatedMode(cutoff, 1.0), beta)
        n = np.arange(cutoff)
        norms = np.sqrt(np.array([float(math.factorial(int(i))) for i in n]))
        expected = np.exp(-0.5 * abs(beta) ** 2) * beta**n / norms
        np.testing.assert_allclose(d[:, 0], expected, atol=1e-12)

    def test_inverse_displacement(self):
        cutoff = 40
        tm = TruncatedMode(cutoff, 1.0)
        h = trusted_block(cutoff)
        prod = displacement_matrix(tm, 0.7 + 0.3j) @ displacement_matrix(tm, -0.7 - 0.3j)
        assert np.linalg.norm((prod - np.eye(cutoff))[:, :h], ord=2) < 1e-10

    def test_screened_unitarity(self):
        tm = TruncatedMode(40, 1.0)
        d = displacement_matrix(tm, 1.2 + 0.4j)
        assert unitarity_defect(d, block=trusted_block(40)) <= 1e-8

    @pytest.mark.parametrize("cutoff", [30, 40, 60])
    @pytest.mark.parametrize(
        "beta, bound",
        [
            (0.05 + 0.02j, 5e-15),
            (0.3 - 0.1j, 5e-15),
            (0.7 + 0.3j, 5e-15),
            (1.2 + 0.4j, 5e-15),
            # a nearly undisplaced (vacuum-mode) factor keeps an error of
            # order eps*|beta|; exp(-i*theta) - 1 summed over the spectrum
            # without the identity split off measured 1.0e-15 to 1.9e-15 here
            (0.05, 1e-15),
            (0.03 - 0.04j, 1e-15),
            (0.01 + 0.005j, 1e-15),
        ],
    )
    def test_trusted_block_matches_laguerre_elements(self, cutoff, beta, bound):
        h = trusted_block(cutoff)
        d = displacement_matrix(TruncatedMode(cutoff, 1.0), beta)
        ref = exact_displacement(beta)[:cutoff, :h]
        assert np.abs(d[:, :h] - ref).max() <= bound

    def test_matches_scipy_expm(self):
        betas = (0.01 + 0.005j, 0.3 - 0.1j, 0.7 + 0.3j, -1.1j)
        for cutoff in range(4, 61):
            beta = betas[cutoff % len(betas)]
            ref = padded_expm_displacement(cutoff, beta)
            if unitarity_defect(ref, block=trusted_block(cutoff)) > UNITARITY_TOL:
                with pytest.raises(TruncationTooSmall):
                    displacement_matrix(TruncatedMode(cutoff, 1.0), beta)
                continue
            d = displacement_matrix(TruncatedMode(cutoff, 1.0), beta)
            assert np.abs(d - ref).max() <= 1e-13, (cutoff, beta)

    def test_cached_eigendecomposition_is_read_only(self):
        for arr in oracle._quadrature_eigh(20):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_truncation_too_small(self):
        with pytest.raises(TruncationTooSmall):
            displacement_matrix(TruncatedMode(4, 1.0), 0.8)

    def test_cutoff_validation(self):
        with pytest.raises(InvalidParameterError):
            TruncatedMode(1, 1.0)


class TestEvolveClosedForm:
    def test_identity_cases(self):
        tm = TruncatedMode(25, 1.3)
        np.testing.assert_allclose(
            evolve_closed_form(tm, 0j, 0.0, +1), np.eye(25), atol=1e-14
        )
        full_period = 2 * math.pi / tm.omega
        np.testing.assert_allclose(
            evolve_closed_form(tm, 0j, full_period, +1), np.eye(25), atol=1e-12
        )

    def test_sign_validation(self):
        with pytest.raises(InvalidParameterError):
            evolve_closed_form(TruncatedMode(10, 1.0), 0.1j, 1.0, 2)

    def test_propagators_unitary_on_trusted_block(self):
        tm = TruncatedMode(40, 1.86)
        for sign in (+1, -1):
            u = evolve_closed_form(tm, 0.3 - 0.4j, 2.0, sign)
            assert unitarity_defect(u, block=trusted_block(40)) <= 1e-8


class TestEvolveTrotter:
    def test_zero_drive_is_identity(self):
        tm = TruncatedMode(20, 1.0)
        u = evolve_trotter(tm, lambda t: np.zeros_like(t), 2.0, 64)
        np.testing.assert_allclose(u, np.eye(20), atol=1e-13)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("steps", [32, 64])
    def test_matches_product_of_step_exponentials(self, sign, steps):
        # the definition: a time-ordered product of scipy step exponentials
        tm = TruncatedMode(20, 1.3)
        tau = 1.9

        def drive(t):
            return 0.4 + 0.3 * np.sin(2.3 * t)

        dt = tau / steps
        a = np.diag(np.sqrt(np.arange(1, 20)), 1).astype(complex)
        ref = np.eye(20, dtype=complex)
        for j in range(steps):
            t_j = (j + 0.5) * dt
            phase = cmath.exp(-1j * tm.omega * t_j)
            g = (-1j * dt * sign * drive(t_j)) * (a * phase + a.conj().T * np.conj(phase))
            ref = expm(g) @ ref
        u = evolve_trotter(tm, drive, tau, steps, sign=sign)
        assert np.linalg.norm(u - ref, ord=2) <= 1e-11

    def test_constant_drive_matches_factorized_form(self):
        tm = TruncatedMode(40, 1.0)
        f0, t_end = 0.4, math.pi
        u = evolve_trotter(tm, lambda t: np.full_like(t, f0), t_end, 2048)
        zeta = complex(chi_static_amplitude(f0, tm.omega, t_end))
        beta = phase_beta(lambda t: np.full_like(t, f0), tm.omega, 0.0, t_end)
        ref = cmath.exp(1j * beta) * displacement_matrix(tm, zeta)
        h = trusted_block(40)
        assert np.linalg.norm((u - ref)[:, :h], ord=2) < 1e-5

    def test_moving_drive_matches_factorized_form(self):
        # a genuinely time-dependent drive from an inertial worldline
        mode = ModeSpec(1, 4.0, 1.0)
        lam = 0.5
        traj = TrajectorySpec.inertial(0.3, 1.0, 4.0)
        tau = 2.0

        def drive(t):
            return lam * mode_function(mode.k, mode.L, position(traj, t))

        tm = TruncatedMode(30, mode.omega)
        zeta = chi_quadrature(mode, CouplingSpec(lam), traj, tau).value
        beta = phase_beta(drive, mode.omega, 0.0, tau)
        u = evolve_trotter(tm, drive, tau, 2048)
        ref = cmath.exp(1j * beta) * displacement_matrix(tm, zeta)
        h = trusted_block(30)
        assert np.linalg.norm((u - ref)[:, :h], ord=2) < 1e-6

    def test_schrodinger_picture_correspondence(self):
        # e^{-i*omega*tau*n} (trotter product) == e^{i*beta} (closed form)
        tm = TruncatedMode(30, 1.4)
        f0, t_end = 0.3, 2.0
        u_int = evolve_trotter(tm, lambda t: np.full_like(t, f0), t_end, 1024)
        rot = np.diag(np.exp(-1j * tm.omega * t_end * np.arange(30)))
        zeta = complex(chi_static_amplitude(f0, tm.omega, t_end))
        beta = phase_beta(lambda t: np.full_like(t, f0), tm.omega, 0.0, t_end)
        ref = cmath.exp(1j * beta) * evolve_closed_form(tm, zeta, t_end, +1)
        h = trusted_block(30)
        assert np.linalg.norm((rot @ u_int - ref)[:, :h], ord=2) < 2e-5

    def test_convergence_order_at_least_one(self):
        tm = TruncatedMode(30, 1.0)
        f0, t_end = 0.4, math.pi
        zeta = complex(chi_static_amplitude(f0, tm.omega, t_end))
        beta = phase_beta(lambda t: np.full_like(t, f0), tm.omega, 0.0, t_end)
        ref = cmath.exp(1j * beta) * displacement_matrix(tm, zeta)
        h = trusted_block(30)
        errs = []
        for steps in (128, 256, 512):
            u = evolve_trotter(tm, lambda t: np.full_like(t, f0), t_end, steps)
            errs.append(np.linalg.norm((u - ref)[:, :h], ord=2))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(o >= 1.0 for o in orders)

    def test_drive_as_array(self):
        tm = TruncatedMode(20, 1.0)
        steps = 128
        dt = 1.5 / steps
        mids = (np.arange(steps) + 0.5) * dt
        u_arr = evolve_trotter(tm, np.full(steps, 0.3), 1.5, steps)
        u_fn = evolve_trotter(tm, lambda t: np.full_like(t, 0.3), 1.5, steps)
        np.testing.assert_allclose(u_arr, u_fn, atol=1e-14)
        with pytest.raises(InvalidParameterError):
            evolve_trotter(tm, np.full(steps - 1, 0.3), 1.5, steps)


class TestStateDensity:
    def test_fock_fits(self):
        rho = state_density(StateSpec.fock(1), 10)
        assert rho[1, 1] == 1.0
        assert np.trace(rho).real == pytest.approx(1.0)

    def test_fock_too_big(self):
        with pytest.raises(TruncationTooSmall):
            state_density(StateSpec.fock(12), 10)

    def test_thermal_tail_screen(self):
        with pytest.raises(TruncationTooSmall):
            state_density(StateSpec.thermal(5.0), 10)

    def test_coherent_tail_screen(self):
        with pytest.raises(TruncationTooSmall):
            state_density(StateSpec.coherent(3.0 + 0j), 12)

    def test_traces_are_one(self):
        for state in (
            StateSpec.fock(2),
            StateSpec.cat(1.0),
            StateSpec.coherent(0.5 + 0.5j),
            StateSpec.thermal(0.5),
        ):
            rho = state_density(state, 40)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(rho - rho.conj().T) < 1e-14


class TestOverlapTrace:
    def test_vacuum_no_response(self):
        tm = TruncatedMode(30, 1.0)
        assert overlap_trace(StateSpec.coherent(0j), tm, 0j, 0.0) == pytest.approx(1.0)

    def test_vacuum_decoherence_factor(self):
        tm = TruncatedMode(40, 1.0)
        chi = math.sqrt(0.5)  # |chi|^2 = 0.5
        val = overlap_trace(StateSpec.coherent(0j), tm, chi, 1.0)
        assert val == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_fock_one_zero_crossing(self):
        tm = TruncatedMode(60, 1.0)
        val = overlap_trace(StateSpec.fock(1), tm, 0.5, 1.3)
        assert abs(val) < 1e-12  # (1 - 4*0.25) * exp(-0.5) == 0

    def test_coherent_closed_form(self):
        tm = TruncatedMode(40, 1.7)
        alpha, chi, tau = 0.7 + 0.4j, 0.31 - 0.22j, 2.1
        val = overlap_trace(StateSpec.coherent(alpha), tm, chi, tau)
        expected = cmath.exp(4j * (alpha.conjugate() * chi).imag - 2 * abs(chi) ** 2)
        assert val == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize(
        "state",
        [
            StateSpec.fock(1),
            StateSpec.fock(2),
            StateSpec.fock(3),
            StateSpec.cat(1.0),
            StateSpec.coherent(0.7 + 0.4j),
            StateSpec.thermal(0.5),
        ],
        ids=lambda s: s.label(),
    )
    def test_overlap_reproduces_closed_form_witness(self, state):
        # the central identity: overlap * exp(2*|chi|^2) == witness closed form
        tm = TruncatedMode(40, 1.3)
        for chi, tau in [(0.31 - 0.22j, 2.1), (0.1 + 0.45j, 0.7)]:
            val = overlap_trace(state, tm, chi, tau) * math.exp(2 * abs(chi) ** 2)
            assert val == pytest.approx(witness_value(state, chi), abs=1e-12)

    @pytest.mark.parametrize(
        "state",
        [StateSpec.fock(2), StateSpec.cat(1.0), StateSpec.coherent(0.7 + 0.4j), StateSpec.thermal(0.5)],
        ids=lambda s: s.label(),
    )
    def test_equals_two_propagator_trace(self, state):
        # One displacement D(beta) stands in for U_-^dagger = R^dagger D(-beta)^dagger.
        tm = TruncatedMode(40, 1.3)
        rho = state_density(state, tm.cutoff)
        for chi, tau in [(0.31 - 0.22j, 2.1), (0.1 + 0.45j, 0.7), (1e-9 + 2e-9j, 5.3)]:
            u_plus = evolve_closed_form(tm, chi, tau, +1)
            u_minus = evolve_closed_form(tm, chi, tau, -1)
            reference = np.trace(u_plus @ rho @ u_minus.conj().T)
            assert abs(overlap_trace(state, tm, chi, tau) - reference) <= 1e-14

    def test_one_displacement_per_trace(self, monkeypatch):
        calls = []
        real = oracle.displacement_matrix
        monkeypatch.setattr(oracle, "displacement_matrix", lambda *a: calls.append(a) or real(*a))
        overlap_trace(StateSpec.fock(1), TruncatedMode(30, 1.1), 0.2 - 0.3j, 1.7)
        assert len(calls) == 1

    def test_sign_swap_conjugates(self):
        tm = TruncatedMode(30, 1.1)
        chi, tau = 0.2 - 0.3j, 1.7
        rho = state_density(StateSpec.cat(1.0), tm.cutoff)
        u_plus = evolve_closed_form(tm, chi, tau, +1)
        u_minus = evolve_closed_form(tm, chi, tau, -1)
        forward = np.trace(u_plus @ rho @ u_minus.conj().T)
        swapped = np.trace(u_minus @ rho @ u_plus.conj().T)
        assert swapped == pytest.approx(np.conj(forward), abs=1e-13)


class TestEndToEnd:
    def test_fock_static(self, small_cavity):
        rep = end_to_end_check(
            StateSpec.fock(1), small_cavity, CouplingSpec(0.4),
            TrajectorySpec.static(small_cavity.x0, small_cavity.L),
            1.7, k_max=8, cutoff=30,
        )
        assert isinstance(rep, EndToEndReport)
        assert rep.gap < 1e-6

    def test_cat_inertial(self, small_cavity):
        rep = end_to_end_check(
            StateSpec.cat(1.0), small_cavity, CouplingSpec(0.4),
            TrajectorySpec.inertial(0.3, small_cavity.x0, small_cavity.L),
            1.7, k_max=8, cutoff=30,
        )
        assert rep.gap < 1e-6

    def test_coherent_tight(self, small_cavity):
        rep = end_to_end_check(
            StateSpec.coherent(0.6 + 0.3j), small_cavity, CouplingSpec(0.4),
            TrajectorySpec.static(small_cavity.x0, small_cavity.L),
            1.7, k_max=8, cutoff=30,
        )
        assert rep.gap < 1e-8
        assert abs(abs(rep.extracted) - 1.0) < 1e-8

    def test_probed_mode_must_be_simulated(self, small_cavity):
        with pytest.raises(InvalidParameterError):
            end_to_end_check(
                StateSpec.fock(1), small_cavity, CouplingSpec(0.4),
                TrajectorySpec.static(small_cavity.x0, small_cavity.L),
                1.7, k_max=1, cutoff=30,
            )

    def test_gap_shrinks_with_cutoff(self, small_cavity):
        # parameters chosen so cutoff 30 carries a visible truncation error
        coup = CouplingSpec(0.8)
        state = StateSpec.cat(2.2)
        traj = TrajectorySpec.static(small_cavity.x0, small_cavity.L)
        tau = math.pi / small_cavity.mode().omega
        gaps = [
            end_to_end_check(state, small_cavity, coup, traj, tau, k_max=8, cutoff=c).gap
            for c in (30, 40, 60)
        ]
        assert gaps[0] > gaps[1]
        assert gaps[1] >= gaps[2] - 1e-15


class TestOracleSuite:
    def test_suite_does_not_load_scipy(self):
        src = str(Path(oracle.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import sys; from udwitness.oracle import run_oracle_suite; "
            "checks = run_oracle_suite(states=('coherent',)); "
            "print(len(checks), all(c.passed for c in checks), "
            "any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == ["5", "True", "False"]

    def test_subset_runs_clean(self):
        checks = run_oracle_suite(
            cutoff=40, k_max=8, states=("fock", "coherent"), include_trotter=False
        )
        assert all(c.passed for c in checks)
        names = [c.name for c in checks]
        assert any("fock" in n for n in names)
        assert not any("cat" in n for n in names)

    def test_small_cutoff_reports_truncation(self):
        checks = run_oracle_suite(
            cutoff=4, k_max=4, states=("coherent",), include_trotter=False
        )
        failed = [c for c in checks if not c.passed]
        assert failed
        assert any("defect" in c.note or "outside cutoff" in c.note for c in failed)
