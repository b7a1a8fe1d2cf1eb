"""Switch power model.

A switch that carries no load costs nothing (it can sleep); an active
switch pays a fixed startup cost plus a superadditive load-dependent
term.  All loads are fluid values in Gbps.  The scenario engine sums
this power into watt-timeslots (one timeslot of horizon = one unit of
time), with the conversion to joules left to presentation code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ConfigError

# Relative slack on capacity checks; fluid splitting can hit C exactly.
CAPACITY_RTOL = 1e-9


@dataclass(frozen=True)
class PowerParams:
    """Parameters of the per-switch power curve f(x) = sigma + mu * x**alpha.

    sigma:    fixed active power in watts
    mu:       watts per (Gbps)**alpha
    alpha:    superadditivity exponent, > 1
    capacity: maximum load per switch in Gbps
    """

    sigma: float = 200.0
    mu: float = 1e-4
    alpha: float = 2.0
    capacity: float = 1000.0

    def __post_init__(self):
        for name in ("sigma", "mu", "alpha", "capacity"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.sigma < 0:
            raise ConfigError(f"sigma must be >= 0, got {self.sigma}")
        if self.mu <= 0:
            raise ConfigError(f"mu must be > 0, got {self.mu}")
        if self.alpha <= 1:
            raise ConfigError(f"alpha must be > 1, got {self.alpha}")
        if self.capacity <= 0:
            raise ConfigError(f"capacity must be > 0, got {self.capacity}")

    def max_load(self) -> float:
        return self.capacity * (1.0 + CAPACITY_RTOL)


def switch_power(load: float, params: PowerParams) -> float:
    """Power draw in watts of one switch at the given load (Gbps)."""
    return float(switch_powers(np.array([load], dtype=float), params)[0])


def switch_powers(loads: np.ndarray, params: PowerParams) -> np.ndarray:
    """Power draw in watts of each switch at the given loads (Gbps), as an array.

    Each load**alpha is Python's float power, one load at a time:
    numpy's `power` can differ from it in the last bit (at alpha = 2 it
    did on 826 of 10**6 loads), and every report's totals would follow.
    The affine part rounds the same in numpy as in Python floats.
    """
    raised = np.fromiter(map(pow, loads.tolist(), repeat(params.alpha)),
                         dtype=float, count=len(loads))
    watts = params.sigma + params.mu * raised
    watts[loads == 0] = 0.0
    return watts


def optimal_rate(params: PowerParams) -> tuple[float, bool]:
    """Load that minimizes the power rate, and whether it exceeds capacity.

    Returns (r_star, exceeds_capacity).  In the realistic high-startup
    regime r_star > capacity, so the best a switch can do is run full.
    """
    r_star = (params.sigma / (params.mu * (params.alpha - 1.0))) ** (1.0 / params.alpha)
    return r_star, r_star > params.capacity
