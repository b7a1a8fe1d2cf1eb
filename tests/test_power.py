"""Power curve, power rate and energy accounting."""

import math

import numpy as np
import pytest

from dcnsim.errors import ConfigError, DomainError
from dcnsim.power import PowerParams, optimal_rate, switch_power
from oracles import power_rate

BENCH = PowerParams(sigma=200.0, mu=1e-4, alpha=2.0, capacity=1000.0)


def test_switch_power_anchors():
    assert switch_power(0.0, BENCH) == 0.0
    assert math.isclose(switch_power(1000.0, BENCH), 300.0, rel_tol=1e-9)
    assert math.isclose(switch_power(500.0, BENCH), 225.0, rel_tol=1e-9)


def test_switch_power_jump_at_zero():
    # The curve is discontinuous at 0 by exactly sigma.
    eps = 1e-9
    assert math.isclose(switch_power(eps, BENCH), BENCH.sigma, rel_tol=1e-6)
    assert switch_power(0.0, BENCH) == 0.0


def test_switch_power_monotone_and_convex():
    rng = np.random.default_rng(7)
    for _ in range(500):
        params = PowerParams(
            sigma=float(rng.uniform(0, 400)),
            mu=float(rng.uniform(1e-5, 1e-2)),
            alpha=float(rng.uniform(1.01, 3.0)),
            capacity=1000.0,
        )
        a, b = sorted(rng.uniform(1e-6, params.capacity, size=2))
        if a == b:
            continue
        lam = float(rng.uniform(0.01, 0.99))
        mid = lam * a + (1 - lam) * b
        fa, fb = switch_power(a, params), switch_power(b, params)
        assert fa < fb
        assert switch_power(mid, params) <= lam * fa + (1 - lam) * fb + 1e-9


def test_power_rate_values():
    assert math.isclose(power_rate(1000.0, BENCH), 0.3, rel_tol=1e-9)
    assert math.isclose(power_rate(500.0, BENCH), 0.45, rel_tol=1e-9)
    with pytest.raises(DomainError):
        power_rate(0.0, BENCH)
    with pytest.raises(DomainError):
        power_rate(-3.0, BENCH)


def test_optimal_rate_formula():
    r_star, exceeds = optimal_rate(BENCH)
    assert math.isclose(r_star, math.sqrt(200.0 / 1e-4), rel_tol=1e-12)
    assert math.isclose(r_star, 1414.2135, rel_tol=1e-5)
    assert exceeds  # the realistic regime for these constants

    small, exceeds = optimal_rate(PowerParams(sigma=1.0, mu=1.0, alpha=2.0, capacity=10.0))
    assert math.isclose(small, 1.0, rel_tol=1e-12)
    assert not exceeds

    # r* -> 0 as the startup cost vanishes
    tiny, _ = optimal_rate(PowerParams(sigma=1e-12, mu=1.0, alpha=2.0, capacity=10.0))
    assert tiny < 1e-5


def test_rate_minimized_at_r_star():
    rng = np.random.default_rng(11)
    for _ in range(200):
        alpha = float(rng.uniform(1.1, 3.0))
        mu = float(rng.uniform(1e-4, 1e-1))
        capacity = float(rng.uniform(100, 2000))
        # choose sigma so that r* lands inside (0, capacity)
        r_target = float(rng.uniform(0.05, 0.95)) * capacity
        sigma = mu * (alpha - 1) * r_target**alpha
        params = PowerParams(sigma=sigma, mu=mu, alpha=alpha, capacity=capacity)
        r_star, exceeds = optimal_rate(params)
        assert not exceeds
        best = power_rate(r_star, params)
        for x in rng.uniform(1e-3, capacity, size=50):
            assert best <= power_rate(float(x), params) + 1e-12 * best


def test_balanced_split_minimizes_total_power():
    # With all n switches carrying positive load, the even split of a
    # fixed total minimizes the summed power.
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        params = PowerParams(
            sigma=float(rng.uniform(0, 300)),
            mu=float(rng.uniform(1e-5, 1e-3)),
            alpha=float(rng.uniform(1.05, 3.0)),
            capacity=1000.0,
        )
        total = float(rng.uniform(1.0, n * params.capacity * 0.99))
        even = total / n
        even_power = n * switch_power(even, params)
        for _ in range(20):
            split = rng.dirichlet(np.ones(n)) * total
            if (split > params.capacity).any() or (split <= 0).any():
                continue
            sampled = sum(switch_power(float(x), params) for x in split)
            assert even_power <= sampled + 1e-9 * max(1.0, sampled)


def test_fewer_switches_beats_more_when_startup_dominates():
    # Balanced P(n) = n*sigma + n*mu*(L/n)**alpha is non-decreasing in n
    # once sigma >= mu*(alpha-1)*C**alpha.
    rng = np.random.default_rng(17)
    for _ in range(500):
        alpha = float(rng.uniform(1.05, 3.0))
        mu = float(rng.uniform(1e-5, 1e-3))
        capacity = float(rng.uniform(100, 2000))
        sigma = mu * (alpha - 1) * capacity**alpha * float(rng.uniform(1.0, 3.0))
        n_min = int(rng.integers(1, 20))
        load = float(rng.uniform(0.01, 1.0)) * n_min * capacity
        n_min = max(n_min, math.ceil(load / capacity))
        for n in range(n_min, n_min + 10):
            p_n = n * sigma + n * mu * (load / n) ** alpha
            p_n1 = (n + 1) * sigma + (n + 1) * mu * (load / (n + 1)) ** alpha
            assert p_n1 >= p_n - 1e-9 * p_n


def test_params_validation_and_regime_flag():
    with pytest.raises(ConfigError):
        PowerParams(sigma=-1)
    with pytest.raises(ConfigError):
        PowerParams(mu=0)
    with pytest.raises(ConfigError):
        PowerParams(alpha=1.0)
    with pytest.raises(ConfigError):
        PowerParams(capacity=0)
    # high-startup regime: 200 > 1e-4 * 1 * 1000**2 = 100, so r* > capacity
    assert optimal_rate(BENCH)[1]
    low = PowerParams(sigma=50.0, mu=1e-4, alpha=2.0, capacity=1000.0)
    assert not optimal_rate(low)[1]
