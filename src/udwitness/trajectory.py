"""Detector worldlines parametrized by proper time.

Three families: at rest, constant coordinate velocity, constant proper
acceleration. A moving detector that reaches the right wall stays there;
the mode functions vanish at x = L, so parking the detector at the wall
switches the interaction off exactly. That clamp is what freezes the
detector response after the wall-arrival time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameterError


class TrajectoryKind(Enum):
    STATIC = "static"
    INERTIAL = "inertial"
    ACCELERATED = "accelerated"


@dataclass(frozen=True)
class TrajectorySpec:
    """Worldline family with start position and the cavity length used for clamping."""

    kind: TrajectoryKind
    x0: float
    L: float
    v: float = 0.0
    a: float = 0.0

    def __post_init__(self):
        if not 0 <= self.x0 < self.L:
            raise InvalidParameterError(
                f"start position x0={self.x0} must satisfy 0 <= x0 < L={self.L}"
            )
        if self.kind is TrajectoryKind.INERTIAL and not 0 < self.v < 1:
            raise InvalidParameterError(f"velocity v={self.v} must satisfy 0 < v < 1")
        if self.kind is TrajectoryKind.ACCELERATED and not 0 < self.a < math.inf:
            raise InvalidParameterError(
                f"proper acceleration a={self.a} must be positive and finite"
            )

    @classmethod
    def static(cls, x0: float, L: float) -> "TrajectorySpec":
        return cls(TrajectoryKind.STATIC, x0, L)

    @classmethod
    def inertial(cls, v: float, x0: float, L: float) -> "TrajectorySpec":
        return cls(TrajectoryKind.INERTIAL, x0, L, v=v)

    @classmethod
    def accelerated(cls, a: float, x0: float, L: float) -> "TrajectorySpec":
        return cls(TrajectoryKind.ACCELERATED, x0, L, a=a)


def position(traj: TrajectorySpec, tau):
    """Detector position x(tau), clamped to the right wall after arrival.

    Static:       x0
    Inertial:     x0 + v*tau/sqrt(1-v^2)
    Accelerated:  x0 + 2*sinh(a*tau/2)**2/a, up to the wall-arrival time only

    ``tau`` may be a scalar or an array of proper times >= 0.
    """
    t = np.asarray(tau, dtype=float)
    if not np.all(t >= 0):
        raise InvalidParameterError(f"proper time tau={tau} must be non-negative")
    if traj.kind is TrajectoryKind.STATIC:
        x = np.full_like(t, traj.x0)
    elif traj.kind is TrajectoryKind.INERTIAL:
        x = traj.x0 + traj.v * t / math.sqrt(1.0 - traj.v**2)
    else:
        t_wall = wall_time(traj)
        s = np.sinh(0.5 * traj.a * np.minimum(t, t_wall))
        x = np.where(t < t_wall, traj.x0 + 2.0 * s * (s / traj.a), traj.L)
    x = np.minimum(x, traj.L)
    return float(x) if np.isscalar(tau) or t.ndim == 0 else x


def wall_time(traj: TrajectorySpec) -> float | None:
    """Proper time of arrival at the right wall; None for a static detector."""
    if traj.kind is TrajectoryKind.STATIC:
        return None
    d = traj.L - traj.x0
    if traj.kind is TrajectoryKind.INERTIAL:
        return d * math.sqrt(1.0 - traj.v**2) / traj.v
    # cosh(a*t) - 1 = 2*sinh(a*t/2)**2 = a*d; acosh(1 + a*d) would lose a*d
    # below 1.1e-16, where 1 + a*d rounds to 1.
    return 2.0 * math.asinh(math.sqrt(0.5 * traj.a * d)) / traj.a
