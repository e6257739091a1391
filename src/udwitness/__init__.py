"""Operational nonclassicality witness for cavity field states probed by
a moving two-level detector, with a truncated-basis oracle for every
closed form."""

import numpy as _np

# glibc's malloc gives the top of the heap back to the kernel whenever more
# than its trim threshold (128 KiB until raised) is free there, and raises
# the threshold to twice the largest mmapped block freed so far. Freeing one
# mmapped 1 MiB block here raises it to 2 MiB, so a process that never freed
# a larger block does not return and re-fault its numpy temporaries on
# every call. The benchmark's accel-mode-sum workload (256-mode sums of
# accelerated chi, one adaptive pass per block of modes) pays for it:
# without this allocation a pass took 1.26-1.34 times the thread CPU time,
# while velocity-average (6000-sample W(tau) series) was flat (thread CPU
# medians of 40 passes in three alternated pairs of processes and of 60 in
# two, 2-vCPU x86-64 VM, numpy 2.4).
# A scipy import used to do the same as a side effect. Elsewhere than glibc
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
    chi_mode_sum,
    chi_series,
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
