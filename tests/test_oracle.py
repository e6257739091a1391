import cmath
import functools
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, simpson

from udwitness import oracle, response
from udwitness.errors import InvalidParameterError, NumericalFailure, TruncationTooSmall
from udwitness.field import CavityConfig, ModeSpec, mode_function
from udwitness.oracle import (
    UNITARITY_TOL,
    EndToEndReport,
    TruncatedMode,
    displacement_matrix,
    end_to_end_check,
    evolve_trotter,
    expm,
    overlap_trace,
    run_oracle_suite,
    state_vectors,
    trusted_block,
    unitarity_defect,
)
from udwitness.response import CouplingSpec, chi, chi_static_amplitude
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


def constant_drive_phase(f0: float, omega: float, tau: float) -> float:
    """Drive-induced phase of a constant drive f0 over [0, tau]: the double
    integral of f0^2 sin(omega*(t' - t'')) over 0 <= t'' <= t' <= tau."""
    return f0**2 * (tau - math.sin(omega * tau) / omega) / omega


def simpson_phase(drive, omega: float, tau: float, tol: float = 1e-9) -> float:
    """The same double integral for any drive, by scipy's Simpson rules on a
    uniform grid doubled until two results agree to ``tol``: the sine
    addition identity turns the inner integral into running integrals of
    f*cos(omega*t) and f*sin(omega*t)."""
    prev = None
    for n in (512, 1024, 2048, 4096, 8192, 16384):
        t = np.linspace(0.0, tau, n + 1)
        ft = drive(t)
        c = cumulative_simpson(ft * np.cos(omega * t), x=t, initial=0.0)
        s = cumulative_simpson(ft * np.sin(omega * t), x=t, initial=0.0)
        val = float(simpson(ft * (np.sin(omega * t) * c - np.cos(omega * t) * s), x=t))
        if prev is not None and abs(val - prev) <= max(tol, tol * abs(val)):
            return val
        prev = val
    raise AssertionError(f"Simpson phase not converged to tol={tol}")


def factorized_propagator(tm: TruncatedMode, chi: complex, tau: float, sign: int) -> np.ndarray:
    """U = D(sign*chi*e^{-i*omega*tau}) e^{-i*omega*tau*n}, a detector-conditioned
    propagator less the drive-induced phase common to both signs."""
    rot = np.exp(-1j * tm.omega * tau * np.arange(tm.cutoff))
    return displacement_matrix(tm, sign * chi * cmath.exp(-1j * tm.omega * tau)) * rot[None, :]


def density(state: StateSpec, cutoff: int) -> np.ndarray:
    """rho = Psi diag(p) Psi^dagger from the state's vectors."""
    psi, p = state_vectors(state, cutoff)
    return (psi * p) @ psi.conj().T


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

    @pytest.mark.parametrize("cutoff,omega,name", [
        (2.5, 1.0, "cutoff"), (40.0, 1.0, "cutoff"), ("40", 1.0, "cutoff"),
        (40, 0.0, "omega"), (40, -1.0, "omega"), (40, math.nan, "omega"), (40, math.inf, "omega"),
    ])
    def test_bad_mode_is_named(self, cutoff, omega, name):
        with pytest.raises(InvalidParameterError, match=name):
            TruncatedMode(cutoff, omega)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, complex(1.0, -math.inf), complex(math.nan, 0.5)])
    def test_non_finite_beta_is_named(self, beta, fails_fast):
        fails_fast(
            lambda: displacement_matrix(TruncatedMode(40, 1.0), beta),
            InvalidParameterError,
            "displacement beta=.* must be finite",
        )

    def test_basis_over_the_cap_fails_before_allocating(self, fails_fast):
        # Cutoff 20000 pads to 20591 levels: a 3.4 GB eigendecomposition.
        fails_fast(
            lambda: displacement_matrix(TruncatedMode(20000, 1.0), 1.0),
            NumericalFailure,
            "the padded basis size is 20591, over the basis cap 4096",
        )


class TestUnitarityDefect:
    @staticmethod
    def near_unitaries(cutoff):
        rng = np.random.default_rng(cutoff)
        tm = TruncatedMode(cutoff, 1.0)
        for beta in (0.01 + 0.005j, 0.3 - 0.1j, 0.7 + 0.3j):
            yield displacement_matrix(tm, beta)
        for scale in (1e-12, 1e-8, 1e-4, 1e-2):
            z = rng.normal(size=(cutoff, cutoff)) + 1j * rng.normal(size=(cutoff, cutoff))
            q, _ = np.linalg.qr(z)
            e = rng.normal(size=(cutoff, cutoff)) + 1j * rng.normal(size=(cutoff, cutoff))
            yield q + scale * e

    @pytest.mark.parametrize("cutoff", [20, 40, 60])
    def test_equals_spectral_norm(self, cutoff):
        # the eigenvalue form against the SVD it replaced: to 1e-15 on the
        # trusted block the screens use, and to 1e-14 of the defect on the
        # whole matrix, where the cut edge makes it of order one
        for u in self.near_unitaries(cutoff):
            for block, rel in ((trusted_block(cutoff), 0.0), (cutoff, 1e-14)):
                cols = u[:, :block]
                g = cols.conj().T @ cols - np.eye(block)
                ref = np.linalg.norm(g, ord=2)
                assert abs(unitarity_defect(u, block) - ref) <= max(1e-15, rel * ref)

    def test_stack_equals_each_matrix(self):
        # one defect per matrix of a stack, each the bits of the matrix
        # alone; a single matrix gives a float
        for cutoff in (20, 40):
            h = trusted_block(cutoff)
            stack = np.stack(list(self.near_unitaries(cutoff)))
            for block in (h, cutoff):
                alone = [unitarity_defect(u, block) for u in stack]
                assert all(type(d) is float for d in alone)
                stacked = unitarity_defect(stack, block)
                assert stacked.shape == (len(stack),)
                assert stacked.tolist() == alone
            # any leading axes, and only the first ``block`` columns given
            two = unitarity_defect(stack[:6, :, :h].reshape(2, 3, cutoff, h), h)
            assert two.tolist() == np.reshape(unitarity_defect(stack[:6], h), (2, 3)).tolist()

    @pytest.mark.parametrize("two_eps, refused", [(5e-9, False), (2e-8, True)])
    def test_screen_reads_the_spectral_norm(self, two_eps, refused):
        # C = sqrt(1 + 2eps) on the 13 trusted columns of cutoff 40 gives
        # G = 2eps*I: ||G||_F = sqrt(13)*2eps is over the tolerance in both
        # cases, the spectral norm 2eps only in the second
        cutoff = 40
        h = trusted_block(cutoff)
        clean = np.eye(cutoff, h, dtype=complex)
        d = np.stack([clean, math.sqrt(1.0 + two_eps) * clean, clean])
        betas = np.array([0.1, 0.25, 0.3j])
        assert np.linalg.norm(oracle._gram_residual(d, h)[1]) > UNITARITY_TOL
        if refused:
            message = r"\|beta\|=0\.25 has unitarity defect 2\.000e-08 at cutoff 40"
            with pytest.raises(TruncationTooSmall, match=message):
                oracle._screen_displacements(d, betas, cutoff)
        else:
            oracle._screen_displacements(d, betas, cutoff)

    def test_clean_stack_takes_no_eigenvalue_solve(self, monkeypatch):
        # every displacement of a suite-scale batch is within the tolerance
        # in the Frobenius norm, so the exact defect is never computed
        def spy(*args):
            raise AssertionError("unitarity_defect was called")

        monkeypatch.setattr(oracle, "unitarity_defect", spy)
        betas = np.array([0.05, 0.3 - 0.1j, 0.7 + 0.3j, 1.2 + 0.4j])
        traces = oracle._vacuum_traces(40, betas)
        assert np.abs(traces - np.exp(-2.0 * np.abs(betas) ** 2)).max() <= 1e-14

    def test_batched_screen_names_the_displacement(self):
        # the vacuum batch shares displacement_matrix's screen and message
        betas = np.array([0.1, 0.3j, 2.5 + 0j, 0.2])
        message = r"\|beta\|=2\.5 has unitarity defect .* at cutoff 10"
        with pytest.raises(TruncationTooSmall, match=message):
            oracle._vacuum_traces(10, betas)
        with pytest.raises(TruncationTooSmall, match=message):
            displacement_matrix(TruncatedMode(10, 1.0), 2.5)


class TestEvolveTrotter:
    def test_work_over_the_cap_fails_before_allocating(self):
        tm = TruncatedMode(40, 1.0)
        tracemalloc.start()
        try:
            start = time.thread_time()
            with pytest.raises(NumericalFailure, match=(
                r"steps is 2000000000, over the Trotter step cap 100000000"
            )):
                evolve_trotter(tm, lambda t: np.zeros_like(t), 2.0, 2_000_000_000)
            elapsed = time.thread_time() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.01 and peak < 1e5

    def test_steps_at_the_cap_are_accepted(self):
        # The cap lets the largest step count through to the drive check;
        # a one-sample drive array fails there without building the grid.
        steps = oracle._MAX_TROTTER_STEPS
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameterError, match=f"expected \\({steps},\\)"):
                evolve_trotter(TruncatedMode(60, 1.0), np.zeros(1), 2.0, steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e5

    def test_zero_drive_is_identity(self):
        tm = TruncatedMode(20, 1.0)
        u = evolve_trotter(tm, lambda t: np.zeros_like(t), 2.0, 64)
        np.testing.assert_allclose(u, np.eye(20), atol=1e-13)

    @staticmethod
    def step_exponential_product(tm, f, tau, sign):
        """The definition: a time-ordered product of scipy exponentials of
        the step generators at the midpoint samples ``f``."""
        steps = f.size
        dt = tau / steps
        a = np.diag(np.sqrt(np.arange(1, tm.cutoff)), 1).astype(complex)
        ref = np.eye(tm.cutoff, dtype=complex)
        for j in range(steps):
            phase = cmath.exp(-1j * tm.omega * (j + 0.5) * dt)
            g = (-1j * dt * sign * f[j]) * (a * phase + a.conj().T * np.conj(phase))
            ref = expm(g) @ ref
        return ref

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("steps", [32, 64])
    def test_matches_product_of_step_exponentials(self, sign, steps):
        tm = TruncatedMode(20, 1.3)
        tau = 1.9

        def drive(t):
            return 0.4 + 0.3 * np.sin(2.3 * t)

        mids = (np.arange(steps) + 0.5) * (tau / steps)
        ref = self.step_exponential_product(tm, drive(mids), tau, sign)
        u = evolve_trotter(tm, drive, tau, steps, sign=sign)
        assert np.linalg.norm(u - ref, ord=2) <= 1e-11

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("steps", [32, 64])
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_constant_drive_matches_product_of_step_exponentials(self, sign, steps, perturbed):
        # A constant drive is powered by squaring; one sample moved by 1e-3
        # must send the drive back to the step loop, or the product misses it.
        tm = TruncatedMode(20, 1.3)
        tau = 1.9
        f = np.full(steps, 0.4)
        if perturbed:
            f[steps // 3] += 1e-3
        ref = self.step_exponential_product(tm, f, tau, sign)
        u = evolve_trotter(tm, f, tau, steps, sign=sign)
        assert np.linalg.norm(u - ref, ord=2) <= 1e-11

    def test_constant_drive_work_grows_as_log_steps(self):
        # 10^6 steps of a resting detector's drive: about 20 squarings,
        # where the step loop takes about 14 s. At 10^5 steps the product
        # is 2.4e-10 from the factorized form, the midpoint error; at 10^6
        # the rounding of the step factor itself, raised to the 10^6th
        # power, leaves 4.4e-11. At cutoff 20 the basis cut alone leaves 8.3e-7.
        tm = TruncatedMode(40, 1.0)
        f0, t_end = 0.4, math.pi
        h = trusted_block(40)
        start = time.thread_time()
        u = evolve_trotter(tm, lambda t: np.full_like(t, f0), t_end, 10**6, block=h)
        elapsed = time.thread_time() - start
        zeta = complex(chi_static_amplitude(f0, tm.omega, t_end))
        beta = constant_drive_phase(f0, tm.omega, t_end)
        ref = cmath.exp(1j * beta) * displacement_matrix(tm, zeta)
        assert np.linalg.norm(u - ref[:, :h], ord=2) <= 1e-10
        assert elapsed < 2.0

    def test_constant_drive_matches_factorized_form(self):
        tm = TruncatedMode(40, 1.0)
        f0, t_end = 0.4, math.pi
        u = evolve_trotter(tm, lambda t: np.full_like(t, f0), t_end, 2048)
        zeta = complex(chi_static_amplitude(f0, tm.omega, t_end))
        beta = constant_drive_phase(f0, tm.omega, t_end)
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
        zeta = chi(mode, CouplingSpec(lam), traj, tau, force_quadrature=True).value
        beta = simpson_phase(drive, mode.omega, tau)
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
        beta = constant_drive_phase(f0, tm.omega, t_end)
        ref = cmath.exp(1j * beta) * factorized_propagator(tm, zeta, t_end, +1)
        h = trusted_block(30)
        assert np.linalg.norm((rot @ u_int - ref)[:, :h], ord=2) < 2e-5

    def test_convergence_order_at_least_one(self):
        tm = TruncatedMode(30, 1.0)
        f0, t_end = 0.4, math.pi
        zeta = complex(chi_static_amplitude(f0, tm.omega, t_end))
        beta = constant_drive_phase(f0, tm.omega, t_end)
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

    @pytest.mark.parametrize("cutoff, block", [(60, 20), (40, 13), (60, 1), (20, 20)])
    def test_block_is_the_first_columns(self, cutoff, block):
        # not bit for bit: a one-column block goes through gemv, not gemm
        tm = TruncatedMode(cutoff, 1.3)

        def drive(t):
            return 0.4 + 0.3 * np.sin(2.3 * t)

        full = evolve_trotter(tm, drive, 1.9, 256)
        u = evolve_trotter(tm, drive, 1.9, 256, block=block)
        assert u.shape == (cutoff, block)
        assert np.abs(u - full[:, :block]).max() <= 1e-13

    def test_block_none_is_the_full_product(self):
        tm = TruncatedMode(20, 1.0)
        u = evolve_trotter(tm, lambda t: np.full_like(t, 0.3), 1.5, 64, block=None)
        assert u.shape == (20, 20)
        assert np.array_equal(u, evolve_trotter(tm, lambda t: np.full_like(t, 0.3), 1.5, 64))

    @pytest.mark.parametrize("tau", [math.inf, -math.inf, math.nan])
    def test_non_finite_tau_fails_before_any_step(self, tau, fails_fast):
        def drive(t):
            raise AssertionError("the drive was sampled")

        fails_fast(
            lambda: evolve_trotter(TruncatedMode(40, 1.0), drive, tau, 10**6),
            InvalidParameterError,
            f"tau={tau} must be finite",
        )

    @pytest.mark.parametrize("sign", [0, 2])
    def test_bad_sign_fails_before_any_step(self, sign, fails_fast):
        def drive(t):
            raise AssertionError("the drive was sampled")

        fails_fast(
            lambda: evolve_trotter(TruncatedMode(40, 1.0), drive, 2.0, 10**6, sign=sign),
            InvalidParameterError,
            f"sign must be \\+1 or -1, got {sign}",
        )

    @pytest.mark.parametrize("block", [0, -1, 41])
    def test_bad_block_fails_before_any_step(self, block, fails_fast):
        def drive(t):
            raise AssertionError("the drive was sampled")

        fails_fast(
            lambda: evolve_trotter(TruncatedMode(40, 1.0), drive, 2.0, 10**6, block=block),
            InvalidParameterError,
            f"block={block} must be in 1..40",
        )


def mp_coherent_vector(alpha: complex, cutoff: int) -> np.ndarray:
    """alpha^n e^{-|alpha|^2/2} / sqrt(n!) in 40-digit arithmetic."""
    with mpmath.workdps(40):
        a = mpmath.mpc(alpha.real, alpha.imag)
        pre = mpmath.exp(-abs(a) ** 2 / 2)
        return np.array(
            [complex(pre * a**n / mpmath.sqrt(mpmath.factorial(n))) for n in range(cutoff)]
        )


class TestStateDensity:
    @pytest.mark.parametrize("cutoff", [40, 60])
    @pytest.mark.parametrize("alpha", [0j, 0.6 + 0.3j, 1 + 0j, -1 + 0j, 2.5 + 0j])
    def test_coherent_vector_matches_mpmath(self, alpha, cutoff):
        ref = mp_coherent_vector(alpha, cutoff)
        vec = oracle._coherent_vector(alpha, cutoff)
        assert np.abs(vec - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_fock_fits(self):
        psi, p = state_vectors(StateSpec.fock(1), 10)
        assert psi[:, 0].tolist() == [0, 1] + [0] * 8 and p.tolist() == [1.0]

    def test_fock_too_big(self):
        with pytest.raises(TruncationTooSmall):
            state_vectors(StateSpec.fock(12), 10)

    def test_thermal_tail_screen(self):
        with pytest.raises(TruncationTooSmall):
            state_vectors(StateSpec.thermal(5.0), 10)

    def test_coherent_tail_screen(self):
        with pytest.raises(TruncationTooSmall):
            state_vectors(StateSpec.coherent(3.0 + 0j), 12)

    def test_traces_are_one(self):
        for state in (
            StateSpec.fock(2),
            StateSpec.cat(1.0),
            StateSpec.coherent(0.5 + 0.5j),
            StateSpec.thermal(0.5),
        ):
            rho = density(state, 40)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(rho - rho.conj().T) < 1e-14

    @pytest.mark.parametrize(
        "state, columns",
        [(StateSpec.fock(2), 1), (StateSpec.cat(1.0), 1), (StateSpec.coherent(0.5 + 0.5j), 1),
         (StateSpec.thermal(0.5), 40)],
        ids=lambda x: x.label() if isinstance(x, StateSpec) else str(x),
    )
    def test_vectors_carry_the_density(self, state, columns):
        psi, p = state_vectors(state, 40)
        assert psi.shape == (40, columns) and p.shape == (columns,)
        if columns == 1:
            assert p.tolist() == [1.0]
            assert abs(np.vdot(psi[:, 0], psi[:, 0]) - 1.0) < 1e-12
        else:
            assert np.array_equal(psi, np.eye(40))


class TestOverlapTrace:
    @pytest.mark.parametrize("chi,tau,match", [
        (0.3, math.inf, "tau=inf must be finite"),
        (0.3, math.nan, "tau=nan must be finite"),
        (complex(math.nan, 0.0), 1.0, "beta=.* must be finite"),
        (complex(0.0, math.inf), 1.0, "beta=.* must be finite"),
    ])
    def test_non_finite_input_is_named(self, chi, tau, match):
        with pytest.raises(InvalidParameterError, match=match):
            overlap_trace(StateSpec.fock(1), TruncatedMode(30, 1.0), chi, tau)

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
        rho = density(state, tm.cutoff)
        for chi, tau in [(0.31 - 0.22j, 2.1), (0.1 + 0.45j, 0.7), (1e-9 + 2e-9j, 5.3)]:
            u_plus = factorized_propagator(tm, chi, tau, +1)
            u_minus = factorized_propagator(tm, chi, tau, -1)
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
        rho = density(StateSpec.cat(1.0), tm.cutoff)
        u_plus = factorized_propagator(tm, chi, tau, +1)
        u_minus = factorized_propagator(tm, chi, tau, -1)
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

    def test_chi_is_evaluated_once(self, small_cavity, monkeypatch):
        # One chi_modes call feeds both the traces and the mode sum; no
        # scalar chi is evaluated.
        calls = []
        chi_modes = response.chi_modes

        def counted(*args, **kwargs):
            calls.append(args)
            return chi_modes(*args, **kwargs)

        def scalar_chi(*args, **kwargs):
            raise AssertionError("end_to_end_check called response.chi")

        monkeypatch.setattr(response, "chi_modes", counted)
        monkeypatch.setattr(response, "chi", scalar_chi)
        for traj in (
            TrajectorySpec.static(small_cavity.x0, small_cavity.L),
            TrajectorySpec.inertial(0.3, small_cavity.x0, small_cavity.L),
        ):
            rep = end_to_end_check(
                StateSpec.fock(1), small_cavity, CouplingSpec(0.4), traj, 1.7, k_max=8, cutoff=30
            )
            assert rep.gap < 1e-6
        assert len(calls) == 2

    @pytest.mark.parametrize("moving", [False, True], ids=["static", "inertial"])
    def test_every_trace_matches_the_two_propagator_trace(self, small_cavity, moving):
        # The suite's cavity, coupling, tau and cutoff: for each of the 16
        # modes, the batched vacuum trace and the trace of every suite state
        # lie within 1e-14 of Tr{U_+ rho U_-^dagger} from factorized_propagator.
        cutoff, k_max, tau = 40, 16, 1.7
        cav = small_cavity
        traj = (
            TrajectorySpec.inertial(0.3, cav.x0, cav.L) if moving
            else TrajectorySpec.static(cav.x0, cav.L)
        )
        chis = response.chi_modes(cav, CouplingSpec(0.4), traj, tau, k_max=k_max)
        omegas = [cav.mode(k).omega for k in range(1, k_max + 1)]
        betas = np.array([c * cmath.exp(-1j * w * tau) for c, w in zip(chis.tolist(), omegas)])
        vacuum = oracle._vacuum_traces(cutoff, betas)
        for k, (chi_k, omega) in enumerate(zip(chis.tolist(), omegas)):
            tm = TruncatedMode(cutoff, omega)
            u_plus = factorized_propagator(tm, chi_k, tau, +1)
            u_minus = factorized_propagator(tm, chi_k, tau, -1)

            def reference(state):
                rho = density(state, cutoff)
                return np.trace(u_plus @ rho @ u_minus.conj().T)

            assert abs(vacuum[k] - reference(StateSpec.coherent(0j))) <= 1e-14
            for state in oracle._SUITE_STATES.values():
                assert abs(overlap_trace(state, tm, chi_k, tau) - reference(state)) <= 1e-14

    def test_vacuum_modes_are_displaced_in_one_batched_call(self, small_cavity, monkeypatch):
        # Per check: one stack for the k_max - 1 vacuum modes, and the probed
        # mode's own displacement_matrix, a stack of one.
        sizes, probed = [], []
        stack, single = oracle._displacements, oracle.displacement_matrix

        def counted_stack(cutoff, betas, *parts):
            sizes.append(betas.size)
            return stack(cutoff, betas, *parts)

        def counted_single(mode, beta):
            probed.append(mode)
            return single(mode, beta)

        monkeypatch.setattr(oracle, "_displacements", counted_stack)
        monkeypatch.setattr(oracle, "displacement_matrix", counted_single)
        for traj in (
            TrajectorySpec.static(small_cavity.x0, small_cavity.L),
            TrajectorySpec.inertial(0.3, small_cavity.x0, small_cavity.L),
        ):
            sizes.clear()
            probed.clear()
            rep = end_to_end_check(
                StateSpec.cat(1.0), small_cavity, CouplingSpec(0.4), traj, 1.7, k_max=16, cutoff=40
            )
            assert rep.gap < 1e-14
            assert sorted(sizes) == [1, 15]
            assert len(probed) == 1 and probed[0].omega == small_cavity.mode().omega

    def test_probed_mode_alone_leaves_an_empty_batch(self):
        cavity = CavityConfig(L=4.0, m=1.0, k0=1)
        rep = end_to_end_check(
            StateSpec.fock(1), cavity, CouplingSpec(0.4),
            TrajectorySpec.static(cavity.x0, cavity.L), 1.7, k_max=1,
        )
        assert rep.gap < 1e-14
        assert oracle._vacuum_traces(40, np.array([], dtype=complex)).shape == (0,)

    def test_probed_mode_must_be_simulated(self, small_cavity):
        with pytest.raises(InvalidParameterError):
            end_to_end_check(
                StateSpec.fock(1), small_cavity, CouplingSpec(0.4),
                TrajectorySpec.static(small_cavity.x0, small_cavity.L),
                1.7, k_max=1, cutoff=30,
            )

    @pytest.mark.parametrize("tau", [math.inf, math.nan])
    @pytest.mark.parametrize("moving", ["inertial", "accelerated"])
    def test_non_finite_tau_is_named_before_any_chi(self, small_cavity, monkeypatch, moving, tau):
        # On a moving worldline chi freezes at the wall, so chi_modes takes
        # tau = inf; the phases omega*tau of the traces do not.
        def no_chi(*args, **kwargs):
            raise AssertionError("chi_modes called")

        monkeypatch.setattr(response, "chi_modes", no_chi)
        x0, L = small_cavity.x0, small_cavity.L
        traj = (
            TrajectorySpec.inertial(0.3, x0, L) if moving == "inertial"
            else TrajectorySpec.accelerated(0.5, x0, L)
        )
        with pytest.raises(InvalidParameterError, match=f"tau={tau} must be finite"):
            end_to_end_check(StateSpec.fock(1), small_cavity, CouplingSpec(0.4), traj, tau)

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

    @pytest.mark.parametrize("trotter_cutoff", [60, 30])
    def test_product_runs_on_the_trusted_block(self, trotter_cutoff, monkeypatch):
        blocks = []

        def spy(*args, **kwargs):
            blocks.append(kwargs.get("block"))
            return evolve_trotter(*args, **kwargs)

        monkeypatch.setattr(oracle, "evolve_trotter", spy)
        monkeypatch.setattr(oracle, "_TROTTER_CUTOFF", trotter_cutoff)
        checks = run_oracle_suite(states=(), trotter_steps=64)
        assert blocks == [trusted_block(trotter_cutoff)]
        assert checks[-1].name == "time-ordered product vs factorized form"

    def test_trotter_gap_equals_full_product_gap(self):
        steps = 1024
        gap = run_oracle_suite(states=(), trotter_steps=steps)[-1].gap
        tm = TruncatedMode(60, 1.0)
        f0, t_end = 0.4, math.pi
        u = evolve_trotter(tm, lambda t: np.full_like(t, f0), t_end, steps)
        zeta = complex(chi_static_amplitude(f0, tm.omega, t_end))
        beta = constant_drive_phase(f0, tm.omega, t_end)
        ref = cmath.exp(1j * beta) * displacement_matrix(tm, zeta)
        h = trusted_block(60)
        assert abs(gap - np.linalg.norm((u - ref)[:, :h], ord=2)) <= 1e-15

    @pytest.mark.parametrize("states", [("bogus",), ("coherent", "squeezed"), "fock"])
    def test_unknown_state_is_refused_before_any_check(self, states, monkeypatch):
        def no_check(*args):
            raise AssertionError("a check ran")

        monkeypatch.setattr(oracle, "displacement_matrix", no_check)
        with pytest.raises(InvalidParameterError, match="states: unknown families"):
            run_oracle_suite(states=states)

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
