"""Truncated-Fock-space verification of every closed form in the package.

Nothing here reuses the closed-form witness algebra: states and
propagators are explicit matrices in a truncated number basis, the
displacement operator is the exponential of its generator taken through
the eigendecomposition of the quadrature a + a^dagger on a padded basis,
and the detector coherence ratio is an honest product of per-mode
traces. Comparing that pipeline against the closed forms is
the package's end-to-end correctness check; it runs at small mode
indices and short cavities, which is sufficient because the closed
forms are uniform in those parameters.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import response
from .errors import InvalidParameterError, NumericalFailure, TruncationTooSmall
from .field import CavityConfig
from .response import CouplingSpec, chi_static_amplitude
from .trajectory import TrajectorySpec
from .witness import StateFamily, StateSpec, extract_witness, witness_value

#: A propagator whose unitarity defect exceeds this is rejected as truncated
#: too hard; displaced amplitudes must stay well inside the basis.
UNITARITY_TOL = 1e-8

#: Maximum admissible probability weight outside the truncated basis.
STATE_TAIL_TOL = 1e-12


@dataclass(frozen=True)
class TruncatedMode:
    """Number basis 0..cutoff-1 of one mode with angular frequency omega."""

    cutoff: int
    omega: float

    def __post_init__(self):
        if self.cutoff < 2:
            raise InvalidParameterError(f"basis cutoff={self.cutoff} must be >= 2")


def _annihilation(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, cutoff)), 1).astype(complex)


def trusted_block(cutoff: int) -> int:
    """Number of low basis states a cutoff-sized propagator is trusted on.

    The top of any truncated basis is corrupted by the cut itself (for the
    exact displacement as much as for a product formula), so comparisons
    and unitarity screens are restricted to the lower third of the basis.
    """
    return max(2, cutoff // 3)


def unitarity_defect(u: np.ndarray, block: int) -> float:
    """Operator-norm distance of U^dagger U from the identity on its first
    ``block`` columns: the amplitude the operator leaks out of the basis
    when acting on the first ``block`` number states.
    """
    cols = u[:, :block]
    g = cols.conj().T @ cols - np.eye(cols.shape[1])
    return float(np.linalg.norm(g, ord=2))


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential (scipy.linalg.expm, imported on first use).

    Not called by the library, which exponentiates through
    _quadrature_eigh in displacement_matrix and evolve_trotter. The tests
    use it as the independent scipy reference for both, and the benchmark
    tracer wraps it by this name.
    """
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


@functools.lru_cache(maxsize=16)
def _quadrature_eigh(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition X = V diag(x) V^T of X = a + a^dagger on n levels.

    X is real, symmetric and tridiagonal, and depends on n alone, so one
    decomposition per basis size serves every displacement and every
    product-formula step. The cached arrays are shared between callers and
    are therefore read-only.
    """
    a = _annihilation(n).real
    x, v = np.linalg.eigh(a + a.T)
    x.setflags(write=False)
    v.setflags(write=False)
    return x, v


def displacement_matrix(mode: TruncatedMode, beta: complex) -> np.ndarray:
    """exp(beta*a^dagger - conj(beta)*a) restricted to the truncated basis.

    The exponential is computed in a padded space and cut back to
    ``cutoff``, so the retained columns are the true displacement matrix
    elements. With phi = arg(beta) + pi/2 and R(phi) = diag(e^{i*phi*n}),
    the generator is -i*|beta|*R(phi) X R(phi)^dagger for X = a + a^dagger,
    so D = R(phi) V diag(e^{-i*|beta|*x}) V^T R(phi)^dagger from the padded
    X = V diag(x) V^T. It is evaluated as
    I + R V_c diag(e^{-i*|beta|*x} - 1) V_c^T R^dagger with V_c the first
    ``cutoff`` rows of V and e^{-i*theta} - 1 = -2*sin^2(theta/2) - i*sin(theta):
    then the identity is exact rather than V_c V_c^T to rounding, and the
    error stays of order eps*|beta|, which matters for the nearly
    undisplaced vacuum modes of the mode product. Raises
    TruncationTooSmall when the displacement moves more than
    UNITARITY_TOL of amplitude past the basis edge from the trusted block
    (which is what |beta|^2 approaching the cutoff looks like).
    """
    r = abs(beta)
    pad = mode.cutoff + 25 + math.ceil(4.0 * r * math.sqrt(mode.cutoff))
    x, v = _quadrature_eigh(pad)
    vc = v[: mode.cutoff]
    theta = r * x
    d = (vc * np.sin(0.5 * theta) ** 2) @ vc.T * -2.0 - 1j * ((vc * np.sin(theta)) @ vc.T)
    rot = np.exp(1j * (cmath.phase(beta) + 0.5 * math.pi) * np.arange(mode.cutoff))
    d *= rot[:, None] * rot.conj()
    d[np.diag_indices(mode.cutoff)] += 1.0
    defect = unitarity_defect(d, block=trusted_block(mode.cutoff))
    if defect > UNITARITY_TOL:
        raise TruncationTooSmall(
            f"displacement by |beta|={abs(beta):.3g} has unitarity defect "
            f"{defect:.3e} at cutoff {mode.cutoff}; increase the cutoff"
        )
    return d


def evolve_closed_form(mode: TruncatedMode, chi: complex, tau: float, sign: int) -> np.ndarray:
    """Factorized propagator D(sign*chi*e^{-i*omega*tau}) * e^{-i*omega*tau*n}.

    The drive-independent global phase is omitted; it is identical for
    sign = +1 and sign = -1 and cancels in every coherence ratio.
    """
    if sign not in (-1, 1):
        raise InvalidParameterError(f"sign must be +1 or -1, got {sign}")
    rot = np.exp(-1j * mode.omega * tau * np.arange(mode.cutoff))
    d = displacement_matrix(mode, sign * chi * cmath.exp(-1j * mode.omega * tau))
    return d * rot[None, :]


def phase_beta(f, omega: float, tau0: float, tau: float, tol: float = 1e-9) -> float:
    """Accumulated phase of the forced-oscillator evolution.

    Evaluates the triangular double integral

        Integral_tau0^tau dt' Integral_tau0^t' dt'' f(t') f(t'') sin(omega*(t'-t''))

    by nested quadrature: the sine addition identity turns the inner
    integral into cumulative integrals of f*cos(omega*t) and f*sin(omega*t),
    evaluated on a uniform Simpson grid that is doubled until the result is
    stable to ``tol``. ``f`` is a callable drive amplitude.

    This phase is proportional to the squared drive, so it is common to the
    two detector-conditioned evolutions and cancels in the coherence ratio;
    it only matters for cross-checking the factorized evolution operator.
    """
    if tau < tau0:
        raise InvalidParameterError(f"tau={tau} must be >= tau0={tau0}")
    if tau == tau0:
        return 0.0
    prev = None
    for n in (512, 1024, 2048, 4096, 8192, 16384):
        t = np.linspace(tau0, tau, n + 1)
        h = (tau - tau0) / n
        ft = np.asarray(f(t), dtype=float) * np.ones(n + 1)
        c = _cumulative_simpson(ft * np.cos(omega * t), h)
        s = _cumulative_simpson(ft * np.sin(omega * t), h)
        inner = np.sin(omega * t) * c - np.cos(omega * t) * s
        val = float(_cumulative_simpson(ft * inner, h)[-1])
        if prev is not None and abs(val - prev) <= max(tol, tol * abs(val)):
            return val
        prev = val
    raise NumericalFailure(
        f"phase integral not converged to tol={tol}", best=prev
    )


def _cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Running integral of samples ``y`` on a uniform grid of an even number
    of steps ``h``, starting at 0.

    Each pair of steps is one Simpson panel; its two halves are integrated
    on the panel's parabola, h/12*(5, 8, -1) and h/12*(-1, 8, 5), so the
    value at every even node is the composite Simpson rule.
    """
    y0, y1, y2 = y[:-2:2], y[1:-1:2], y[2::2]
    steps = np.empty(y.size - 1)
    steps[0::2] = 5.0 * y0 + 8.0 * y1 - y2
    steps[1::2] = -y0 + 8.0 * y1 + 5.0 * y2
    out = np.empty(y.size)
    out[0] = 0.0
    np.cumsum(steps * (h / 12.0), out=out[1:])
    return out


def evolve_trotter(
    mode: TruncatedMode,
    drive,
    tau: float,
    steps: int,
    sign: int = 1,
) -> np.ndarray:
    """Time-ordered interaction-picture propagator by a midpoint product.

    ``drive`` is the drive amplitude along the worldline, either a callable
    of proper time or an array of per-step midpoint samples. The returned
    operator approximates T exp(-i Integral V_I dt) and carries the full
    drive-induced phase; multiplying the closed form by exp(i*beta) from
    phase_beta and by the free rotation makes the two comparable:

        evolve_trotter ~= exp(i*beta) * e^{+i*omega*tau*n} * evolve_closed_form

    Each factor is the exact exponential of its step generator
    g_j = -i*dt*sign*f_j*(a e^{-i*omega*t_j} + a^dagger e^{+i*omega*t_j}).
    With R(theta) = diag(e^{i*theta*n}), g_j = R(omega*t_j) (-i*dt*sign*f_j*X)
    R(omega*t_j)^dagger for the fixed real tridiagonal X = a + a^dagger, so
    one eigendecomposition X = V diag(x) V^T gives every step exponential:
    exp(g_j) = R(omega*t_j) V diag(e^{-i*dt*sign*f_j*x}) V^T R(omega*t_j)^dagger.
    Between neighbouring steps the rotations combine into the fixed matrix
    V^T R(-omega*dt) V, so the product costs one small matmul per step
    whatever the drive. No scipy routine runs inside the loop: numpy and
    scipy each load their own OpenBLAS runtime, and switching between the
    two thread pools on every step costs far more than the step itself.
    """
    if sign not in (-1, 1):
        raise InvalidParameterError(f"sign must be +1 or -1, got {sign}")
    if steps < 1:
        raise InvalidParameterError(f"steps={steps} must be >= 1")
    dt = tau / steps
    t_mid = (np.arange(steps) + 0.5) * dt
    f = np.asarray(drive(t_mid) if callable(drive) else drive, dtype=float)
    if f.shape != (steps,):
        raise InvalidParameterError(
            f"drive samples have shape {f.shape}, expected ({steps},)"
        )
    x, v = _quadrature_eigh(mode.cutoff)
    n = np.arange(mode.cutoff)
    hop = v.T @ (np.exp(-1j * mode.omega * dt * n)[:, None] * v)
    # u is held in the eigenbasis of X, between the outer rotations
    u = v.T * np.exp(-1j * mode.omega * t_mid[0] * n)[None, :]
    u *= np.exp((-1j * dt * sign * f[0]) * x)[:, None]
    for j in range(1, steps):
        u = hop @ u
        u *= np.exp((-1j * dt * sign * f[j]) * x)[:, None]
    return (np.exp(1j * mode.omega * t_mid[-1] * n)[:, None] * v) @ u


def _coherent_vector(alpha: complex, cutoff: int) -> np.ndarray:
    vec = np.empty(cutoff, dtype=complex)
    vec[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, cutoff):
        vec[n] = vec[n - 1] * alpha / math.sqrt(n)
    return vec


def state_density(state: StateSpec, cutoff: int) -> np.ndarray:
    """Density matrix of ``state`` in the truncated basis, tail-screened."""
    if state.family is StateFamily.FOCK:
        if state.n >= cutoff:
            raise TruncationTooSmall(
                f"Fock state N={state.n} does not fit in cutoff {cutoff}"
            )
        rho = np.zeros((cutoff, cutoff), dtype=complex)
        rho[state.n, state.n] = 1.0
        return rho
    if state.family is StateFamily.COHERENT:
        vec = _coherent_vector(state.alpha0, cutoff)
        _screen_tail(float(np.vdot(vec, vec).real), cutoff, state)
        return np.outer(vec, vec.conj())
    if state.family is StateFamily.CAT:
        a0 = state.alpha0.real
        vec = _coherent_vector(a0, cutoff) + _coherent_vector(-a0, cutoff)
        vec /= math.sqrt(2.0 * (1.0 + math.exp(-2.0 * a0 * a0)))
        _screen_tail(float(np.vdot(vec, vec).real), cutoff, state)
        return np.outer(vec, vec.conj())
    ratio = state.nbar / (1.0 + state.nbar)
    weights = ratio ** np.arange(cutoff) / (1.0 + state.nbar)
    if ratio > 0 and ratio**cutoff > STATE_TAIL_TOL:
        raise TruncationTooSmall(
            f"thermal nbar={state.nbar} has tail {ratio**cutoff:.3e} at cutoff {cutoff}"
        )
    return np.diag(weights).astype(complex)


def _screen_tail(norm_sq: float, cutoff: int, state: StateSpec):
    if abs(1.0 - norm_sq) > STATE_TAIL_TOL:
        raise TruncationTooSmall(
            f"state {state.label()} keeps {abs(1.0 - norm_sq):.3e} probability "
            f"outside cutoff {cutoff}"
        )


def overlap_trace(state: StateSpec, mode: TruncatedMode, chi: complex, tau: float) -> complex:
    """Tr{U_+ rho U_-^dagger} with the two detector-conditioned propagators.

    U_+- = D(+-beta) R (see evolve_closed_form), with R the free evolution
    e^{-i*omega*tau*n} and beta = chi*e^{-i*omega*tau}. Since
    D(-beta)^dagger = D(beta), the trace is Tr{D(beta) R rho R^dagger D(beta)}:
    one displacement serves both propagators.

    For a coherent state |alpha> this must reproduce
    exp(4i*Im(conj(alpha)*chi) - 2*|chi|^2); multiplying any family's value
    by exp(2*|chi|^2) must land on its closed-form witness.
    """
    rot = np.exp(-1j * mode.omega * tau * np.arange(mode.cutoff))
    d = displacement_matrix(mode, chi * cmath.exp(-1j * mode.omega * tau))
    u_plus, u_minus_dagger = d * rot[None, :], rot.conj()[:, None] * d
    return complex(np.trace(u_plus @ state_density(state, mode.cutoff) @ u_minus_dagger))


@dataclass(frozen=True)
class EndToEndReport:
    state_label: str
    trajectory: str
    tau: float
    extracted: complex
    closed_form: complex
    gap: float
    k_max: int
    cutoff: int


def end_to_end_check(
    state: StateSpec,
    cavity: CavityConfig,
    coupling: CouplingSpec,
    traj: TrajectorySpec,
    tau: float,
    k_max: int = 16,
    cutoff: int = 40,
    tol: float = 1e-11,
) -> EndToEndReport:
    """Simulate the coherence ratio mode by mode and compare witnesses.

    w(tau)/w(0) = Prod_k Tr{U_{k,+} rho_k U_{k,-}^dagger} over modes
    1..k_max (the test state in mode k0, vacuum elsewhere), then
    extract_witness with the matched-truncation response sum. The result
    must equal the closed-form witness of the probed mode; the truncation
    tails cancel between the product and the sum, so the gap measures
    genuine disagreement, not the mode cutoff.
    """
    if cavity.k0 > k_max:
        raise InvalidParameterError(
            f"probed mode k0={cavity.k0} is outside the simulated range 1..{k_max}"
        )
    vacuum = StateSpec.coherent(0j)
    w_ratio = 1.0 + 0.0j
    chi_k0 = None
    for k in range(1, k_max + 1):
        mode_k = cavity.mode(k)
        chi_k = response.chi(mode_k, coupling, traj, tau, tol=tol)
        if k == cavity.k0:
            chi_k0 = chi_k
        tmode = TruncatedMode(cutoff, mode_k.omega)
        st = state if k == cavity.k0 else vacuum
        w_ratio *= overlap_trace(st, tmode, chi_k.value, tau)
    chi_sum = response.chi_mode_sum(cavity, coupling, traj, tau, k_max=k_max, tol=tol)
    extracted = extract_witness(w_ratio, chi_sum)
    closed = witness_value(state, chi_k0)
    return EndToEndReport(
        state.label(),
        traj.kind.value,
        tau,
        extracted,
        closed,
        abs(extracted - closed),
        k_max,
        cutoff,
    )


@dataclass(frozen=True)
class OracleCheck:
    name: str
    gap: float | None
    threshold: float
    passed: bool
    note: str = ""


_SUITE_STATES = {
    "fock": StateSpec.fock(1),
    "cat": StateSpec.cat(1.0),
    "coherent": StateSpec.coherent(0.6 + 0.3j),
    "thermal": StateSpec.thermal(0.5),
}


def run_oracle_suite(
    cutoff: int = 40,
    k_max: int = 16,
    states=("fock", "cat", "coherent", "thermal"),
    include_trotter: bool = True,
    trotter_cutoff: int = 60,
    trotter_steps: int = 4096,
) -> list[OracleCheck]:
    """Desk-scale verification suite: small cavity, every state family.

    Cavity k0=2, L=4, m=1, lambda=0.4, both a resting and an inertial
    v=0.3 detector; plus displacement identities and the time-ordered
    product cross-check of the factorized propagator.
    """
    checks: list[OracleCheck] = []
    cavity = CavityConfig(L=4.0, m=1.0, k0=2)
    coupling = CouplingSpec(0.4)
    tau = 1.7
    trajs = [
        TrajectorySpec.static(cavity.x0, cavity.L),
        TrajectorySpec.inertial(0.3, cavity.x0, cavity.L),
    ]

    def guarded(name, threshold, fn):
        try:
            gap = fn()
        except NumericalFailure as exc:
            checks.append(OracleCheck(name, None, threshold, False, str(exc)))
            return
        checks.append(OracleCheck(name, gap, threshold, gap < threshold))

    mode0 = TruncatedMode(cutoff, 1.0)
    guarded(
        "displacement vacuum overlap",
        1e-10,
        lambda: abs(displacement_matrix(mode0, 1.0)[0, 0] - math.exp(-0.5)),
    )
    h0 = trusted_block(cutoff)
    guarded(
        "displacement inverse",
        1e-10,
        lambda: float(
            np.linalg.norm(
                (
                    displacement_matrix(mode0, 0.7 + 0.3j)
                    @ displacement_matrix(mode0, -0.7 - 0.3j)
                    - np.eye(cutoff)
                )[:, :h0],
                ord=2,
            )
        ),
    )

    for name in states:
        state = _SUITE_STATES[name]
        threshold = 1e-8 if name == "coherent" else 1e-6
        for traj in trajs:
            guarded(
                f"end-to-end {name} ({traj.kind.value})",
                threshold,
                lambda s=state, t=traj: end_to_end_check(
                    s, cavity, coupling, t, tau, k_max=k_max, cutoff=cutoff
                ).gap,
            )

    if include_trotter:

        def trotter_gap():
            tmode = TruncatedMode(trotter_cutoff, 1.0)
            f0, t_end = 0.4, math.pi
            u_prod = evolve_trotter(tmode, lambda t: np.full_like(t, f0), t_end, trotter_steps)
            zeta = complex(chi_static_amplitude(f0, tmode.omega, t_end))
            beta = phase_beta(lambda t: np.full_like(t, f0), tmode.omega, 0.0, t_end)
            u_ref = cmath.exp(1j * beta) * displacement_matrix(tmode, zeta)
            h = trusted_block(trotter_cutoff)
            return float(np.linalg.norm((u_prod - u_ref)[:, :h], ord=2))

        guarded("time-ordered product vs factorized form", 1e-5, trotter_gap)

    return checks
