"""Cavity geometry of a 1-D scalar field with Dirichlet walls.

Mode k of a cavity of length L has the spatial profile
sin(k*pi*x/L)/sqrt(k*pi) and angular frequency sqrt((k*pi/L)^2 + m^2),
m being the field mass. Natural units (c = hbar = 1) throughout the
package; no unit conversions exist anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError


def mode_frequency(k: int, L: float, m: float) -> float:
    """Angular frequency of cavity mode k: sqrt((k*pi/L)^2 + m^2).

    Strictly increasing in k and m, strictly decreasing in L.
    """
    if k != int(k) or k < 1:
        raise InvalidParameterError(f"mode index k must be a positive integer, got {k}")
    if not 0 < L < math.inf:
        raise InvalidParameterError(f"cavity length L must be positive and finite, got {L}")
    if not 0 <= m < math.inf:
        raise InvalidParameterError(f"field mass m must be non-negative and finite, got {m}")
    return math.hypot(int(k) * math.pi / L, m)


def mode_function(k: int, L: float, x) -> float:
    """Mode profile sin(k*pi*x/L)/sqrt(k*pi), zero at both walls.

    ``x`` may be a scalar or an array; every entry must lie in [0, L].
    """
    if k != int(k) or k < 1:
        raise InvalidParameterError(f"mode index k must be a positive integer, got {k}")
    if not L > 0:
        raise InvalidParameterError(f"cavity length L must be positive, got {L}")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0) or np.any(x_arr > L):
        raise InvalidParameterError(f"position x={x} outside the cavity [0, {L}]")
    k = int(k)
    out = np.sin(k * math.pi * x_arr / L) / math.sqrt(k * math.pi)
    return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


@dataclass(frozen=True)
class ModeSpec:
    """One cavity mode; ``omega`` is always derived from (k, L, m)."""

    k: int
    L: float
    m: float
    omega: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "omega", mode_frequency(self.k, self.L, self.m))

    def profile(self, x):
        return mode_function(self.k, self.L, x)


@dataclass(frozen=True)
class CavityConfig:
    """Cavity geometry plus the probed mode and the detector start position.

    ``x0`` defaults to L/(2*k0), the leftmost antinode of the probed mode,
    which maximizes the detector-field coupling at tau=0.
    """

    L: float
    m: float
    k0: int
    x0: float | None = None

    def __post_init__(self):
        mode_frequency(self.k0, self.L, self.m)  # validates k0, L, m
        if self.x0 is None:
            object.__setattr__(self, "x0", self.L / (2 * self.k0))
        if not 0 <= self.x0 <= self.L:
            raise InvalidParameterError(
                f"detector start x0={self.x0} outside the cavity [0, {self.L}]"
            )

    def mode(self, k: int | None = None) -> ModeSpec:
        """ModeSpec for mode ``k`` (default: the probed mode k0)."""
        return ModeSpec(self.k0 if k is None else k, self.L, self.m)
