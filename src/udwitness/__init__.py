"""Operational nonclassicality witness for cavity field states probed by
a moving two-level detector, with a truncated-basis oracle for every
closed form."""

import numpy as _np

# glibc's malloc gives the top of the heap back to the kernel whenever more
# than its trim threshold (128 KiB until raised) is free there, and raises
# the threshold to twice the largest mmapped block freed so far. A W(tau)
# series on a few thousand samples frees ~400 KiB of numpy temporaries per
# call, every block below the mmap limit, so a process that never freed a
# larger block can return and re-fault them on every call (97 minor faults
# per call, +25% on a 6000-sample inertial series, 2-vCPU x86-64 VM).
# Freeing one mmapped 1 MiB block here raises the threshold to 2 MiB; a
# scipy import used to do the same as a side effect. Elsewhere than glibc
# this is one short-lived allocation.
_np.empty(1 << 17)

from .errors import InvalidParameterError, NumericalFailure, TruncationTooSmall
from .field import CavityConfig, ModeSpec, mode_frequency, mode_function
from .oracle import run_oracle_suite
from .response import (
    DEFAULT_TOL,
    DELTA_RES,
    ChiBranch,
    ChiValue,
    CouplingSpec,
    chi,
    chi_inertial_analytic,
    chi_mode_sum,
    chi_quadrature,
    chi_series,
    chi_static,
    chi_static_amplitude,
    critical_velocity,
)
from .trajectory import TrajectoryKind, TrajectorySpec, position, wall_time
from .witness import (
    BOUND_EPS,
    StateFamily,
    StateSpec,
    ViolationMetrics,
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

__version__ = "0.1.0"
