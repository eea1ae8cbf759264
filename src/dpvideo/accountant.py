"""Renyi-DP accounting for subsampled Gaussian training.

Per-step privacy loss of the Poisson-subsampled Gaussian mechanism is tracked
as Renyi divergence over a fixed grid of integer orders, composed additively
across steps, and converted to (epsilon, delta) by minimizing over orders.

For integer order a, the divergence of the sampled mechanism has the exact
binomial closed form

    (1/(a-1)) * log( sum_{k=0}^{a} C(a,k) (1-q)^(a-k) q^k exp(k(k-1)/(2 sigma^2)) )

evaluated here in log space to stay finite for large orders or small sigma.
At q=1 it reduces to the plain Gaussian value a / (2 sigma^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import gammaln, logsumexp

ORDER_GRID: tuple[int, ...] = tuple(range(2, 257))
SIGMA_BRACKET: tuple[float, float] = (0.3, 100.0)  # calibrate_sigma's search range


class CalibrationError(ValueError):
    """Target epsilon unreachable within SIGMA_BRACKET."""


@dataclass(frozen=True)
class PrivacyBudget:
    epsilon: float
    delta: float

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")


def noise_variance(noise_multiplier: float) -> float:
    """sigma**2 of a positive sigma, as inf when it overflows; a sigma whose
    square underflows to 0 is rejected, since no divergence of it is finite."""
    if noise_multiplier <= 0:
        raise ValueError("noise multiplier must be positive")
    try:
        variance = noise_multiplier**2  # not sigma * sigma, which rounds differently
    except OverflowError:
        return math.inf
    if variance == 0.0:
        raise ValueError(f"noise multiplier {noise_multiplier!r} is too small: its square underflows to 0")
    return variance


def rdp_gaussian(order: float, noise_multiplier: float) -> float:
    """Renyi divergence of the unit-sensitivity Gaussian mechanism: a/(2 sigma^2)."""
    if order <= 1:
        raise ValueError(f"order must exceed 1, got {order}")
    return order / (2.0 * noise_variance(noise_multiplier))


def rdp_subsampled_gaussian(sampling_rate: float, noise_multiplier: float, order: int) -> float:
    """Per-step Renyi divergence of the Poisson-subsampled Gaussian mechanism."""
    if not 0 < sampling_rate <= 1:
        raise ValueError(f"sampling rate must lie in (0, 1], got {sampling_rate}")
    variance = noise_variance(noise_multiplier)
    if not isinstance(order, (int, np.integer)) or order < 2:
        raise ValueError(f"order must be an integer >= 2, got {order!r}")
    if sampling_rate == 1.0:
        return rdp_gaussian(order, noise_multiplier)
    k = np.arange(order + 1, dtype=np.float64)
    log_binom = gammaln(order + 1) - gammaln(k + 1) - gammaln(order - k + 1)
    with np.errstate(over="ignore"):  # a term that overflows is +inf: the divergence is infinite
        log_terms = (
            log_binom
            + k * math.log(sampling_rate)
            + (order - k) * math.log1p(-sampling_rate)
            + k * (k - 1) / (2.0 * variance)
        )
    return float(logsumexp(log_terms)) / (order - 1)


@dataclass(frozen=True)
class AccountantState:
    sampling_rate: float
    noise_multiplier: float
    steps: int = 0
    orders: tuple[int, ...] = ORDER_GRID
    rdp_per_step: tuple[float, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if len(self.rdp_per_step) != len(self.orders):
            raise ValueError("rdp_per_step must hold one value per order; build states with create()")

    @classmethod
    def create(cls, sampling_rate: float, noise_multiplier: float, steps: int = 0) -> AccountantState:
        if steps < 0:
            raise ValueError("steps must be non-negative")
        if noise_multiplier < 0:
            raise ValueError("noise multiplier must be non-negative")
        if noise_multiplier == 0.0:
            # a noiseless mechanism offers no privacy: every order diverges
            if not 0 < sampling_rate <= 1:
                raise ValueError(f"sampling rate must lie in (0, 1], got {sampling_rate}")
            per_step = (math.inf,) * len(ORDER_GRID)
        else:
            per_step = tuple(
                rdp_subsampled_gaussian(sampling_rate, noise_multiplier, a) for a in ORDER_GRID
            )
        return cls(sampling_rate, noise_multiplier, steps, ORDER_GRID, per_step)

    def advance(self, steps: int = 1) -> AccountantState:
        """Compose additional steps; composition is additive per order."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        return replace(self, steps=self.steps + steps)

    def epsilon_with_order(self, delta: float) -> tuple[float, int]:
        """(epsilon, minimizing order) for the accumulated steps at this delta."""
        if not 0 < delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.steps == 0:
            return 0.0, self.orders[0]
        log_inv_delta = math.log(1.0 / delta)
        best_eps = math.inf
        best_order = self.orders[0]
        for a, r in zip(self.orders, self.rdp_per_step):
            eps = self.steps * r + log_inv_delta / (a - 1)
            if eps < best_eps:
                best_eps = eps
                best_order = a
        return best_eps, best_order


def to_epsilon(state: AccountantState, delta: float) -> float:
    """(epsilon, delta)-DP spend: min over orders of steps*rdp(a) + log(1/delta)/(a-1)."""
    return state.epsilon_with_order(delta)[0]


def calibrate_sigma(
    target_epsilon: float,
    delta: float,
    sampling_rate: float,
    steps: int,
) -> float:
    """Smallest-noise sigma whose spend lands in [target*(1-1e-4), target].

    Bisection on sigma; the spend is continuous and monotone decreasing in
    sigma over SIGMA_BRACKET.
    """
    if not 0 < target_epsilon < math.inf:
        raise ValueError("target epsilon must be positive and finite")
    if steps < 1:
        raise ValueError("steps must be positive")
    lo, hi = SIGMA_BRACKET

    def spend(sigma: float) -> float:
        return to_epsilon(AccountantState.create(sampling_rate, sigma, steps), delta)

    eps_lo, eps_hi = spend(lo), spend(hi)
    if not eps_hi <= target_epsilon <= eps_lo:
        raise CalibrationError(
            f"target epsilon {target_epsilon} is unreachable for sigma in [{lo}, {hi}]; "
            f"achievable range is [{eps_hi:.6g}, {eps_lo:.6g}]"
        )
    if eps_lo == target_epsilon:
        return lo
    for _ in range(200):
        if eps_hi >= target_epsilon * (1.0 - 1e-4):
            return hi
        mid = 0.5 * (lo + hi)
        eps_mid = spend(mid)
        if eps_mid > target_epsilon:
            lo = mid
        else:
            hi, eps_hi = mid, eps_mid
    raise CalibrationError("bisection failed to converge; epsilon may be discontinuous in sigma")


def group_privacy(budget: PrivacyBudget, group_size: int) -> PrivacyBudget:
    """Translate per-entry DP to groups of k entries: (k*eps, k*e^((k-1)*eps)*delta).

    This is the cost of covering a k-clip video through clip-level accounting;
    the multi-clip step avoids it by making each video a single entry.
    """
    if group_size < 1:
        raise ValueError("group size must be at least 1")
    k = group_size
    return PrivacyBudget(k * budget.epsilon, k * math.exp((k - 1) * budget.epsilon) * budget.delta)
