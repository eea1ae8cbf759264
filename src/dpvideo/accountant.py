"""Renyi-DP accounting for subsampled Gaussian training.

Per-step privacy loss of the Poisson-subsampled Gaussian mechanism is tracked
as Renyi divergence over a fixed grid of integer orders, composed additively
across steps, and converted to (epsilon, delta) by minimizing over orders.

For integer order a, the divergence of the sampled mechanism has the exact
binomial closed form (Mironov, Talwar & Zhang, arXiv:1908.10530)

    (1/(a-1)) * log( sum_{k=0}^{a} C(a,k) (1-q)^(a-k) q^k exp(k(k-1)/(2 sigma^2)) )

evaluated here in log space to stay finite for large orders or small sigma.
At q=1 it reduces to the plain Gaussian value a / (2 sigma^2).

The log binomials come from LOG_FACTORIAL, a table of log(n!) for n in
0..ORDER_GRID[-1], which is every value the curve asks for. It is built the
way Cephes lgam (scipy.special.gammaln) evaluates log Gamma(n + 1), so each
entry is bit for bit gammaln(n + 1): below 13, the log of the exact product
n!; from there on, Stirling's series with Cephes' coefficients.

The whole curve is one numpy pass over the order grid, ORDER_BLOCK orders at
a time, so the transient stays a few hundred KiB. The log-sum-exp replays
scipy.special.logsumexp step for step: every maximum of a row leaves the sum,
and each order sums only its own a+1 terms, so numpy's pairwise grouping and
every bit of the curve are those of one logsumexp call per order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

ORDER_GRID: tuple[int, ...] = tuple(range(2, 257))
SIGMA_BRACKET: tuple[float, float] = (0.3, 100.0)  # calibrate_sigma's search range
ORDER_BLOCK = 32  # orders per pass; a whole-grid pass holds about 2 MiB of temporaries

_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
             -2.77777777730099687205e-3, 8.33333333333331927722e-2)  # Cephes lgam's A, highest power first


def _log_factorial(n: int) -> float:
    """log(n!) = log Gamma(x) at x = n + 1, in Cephes lgam's operations and order."""
    x = float(n + 1)
    if x < 13.0:
        return math.log(math.factorial(n))  # n! <= 12! is exact in a double
    p = 1.0 / (x * x)
    series = _STIRLING[0]
    for c in _STIRLING[1:]:
        series = series * p + c
    return (x - 0.5) * math.log(x) - x + _LS2PI + series / x


LOG_FACTORIAL = np.array([_log_factorial(n) for n in range(ORDER_GRID[-1] + 1)])


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
    if not noise_multiplier > 0:
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


def _check_sampling_rate(sampling_rate: float) -> None:
    if not 0 < sampling_rate <= 1:
        raise ValueError(f"sampling rate must lie in (0, 1], got {sampling_rate}")


def _rdp_curve(sampling_rate: float, variance: float, orders: np.ndarray) -> np.ndarray:
    """Per-step divergence at each of the ascending integer orders (>= 2)."""
    if sampling_rate == 1.0:
        with np.errstate(over="ignore"):  # a tiny variance gives an infinite divergence
            return orders / (2.0 * variance)
    log_q, log_1mq = math.log(sampling_rate), math.log1p(-sampling_rate)
    curve = np.empty(len(orders))
    for start in range(0, len(orders), ORDER_BLOCK):
        block = orders[start : start + ORDER_BLOCK]
        a_int = block[:, None]
        k_int = np.arange(block[-1] + 1)
        # past k = a the binomial has a pole: clamping keeps those padding terms finite until they are masked
        log_binom = LOG_FACTORIAL[a_int] - LOG_FACTORIAL[k_int] - LOG_FACTORIAL[np.maximum(a_int - k_int, 0)]
        a, k = a_int.astype(np.float64), k_int.astype(np.float64)
        with np.errstate(over="ignore"):  # a term that overflows is +inf: the divergence is infinite
            terms = log_binom + k * log_q + (a - k) * log_1mq + k * (k - 1) / (2.0 * variance)
        terms[k > a] = -np.inf
        # as scipy's logsumexp: every maximum leaves the sum and comes back as log(count)
        top = terms.max(axis=1, keepdims=True)
        at_top = terms == top
        terms[at_top] = -np.inf
        shifted = np.exp(terms - top)
        tied = np.count_nonzero(at_top, axis=1).astype(np.float64)
        # each order sums only its own a+1 terms, so numpy's pairwise grouping is logsumexp's
        sums = np.array([shifted[r, : n + 1].sum() for r, n in enumerate(block.tolist())]) / tied
        curve[start : start + len(block)] = (np.log1p(sums) + np.log(tied) + top[:, 0]) / (block - 1)
    return curve


def rdp_subsampled_gaussian(sampling_rate: float, noise_multiplier: float, order: int) -> float:
    """Per-step Renyi divergence of the Poisson-subsampled Gaussian mechanism at
    one order of ORDER_GRID."""
    _check_sampling_rate(sampling_rate)
    variance = noise_variance(noise_multiplier)
    if not isinstance(order, (int, np.integer)) or not ORDER_GRID[0] <= order <= ORDER_GRID[-1]:
        raise ValueError(f"order must be an integer in [{ORDER_GRID[0]}, {ORDER_GRID[-1]}], got {order!r}")
    return float(_rdp_curve(sampling_rate, variance, np.array([order]))[0])


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
        if not noise_multiplier >= 0:
            raise ValueError("noise multiplier must be non-negative")
        _check_sampling_rate(sampling_rate)
        if noise_multiplier == 0.0:  # a noiseless mechanism offers no privacy: every order diverges
            per_step = (math.inf,) * len(ORDER_GRID)
        else:
            variance = noise_variance(noise_multiplier)
            per_step = tuple(_rdp_curve(sampling_rate, variance, np.array(ORDER_GRID)).tolist())
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
        orders = np.array(self.orders)
        with np.errstate(over="ignore"):  # a huge divergence times the steps is an infinite spend
            epsilons = self.steps * np.array(self.rdp_per_step) + math.log(1.0 / delta) / (orders - 1)
        best = int(np.argmin(epsilons))  # the first minimizing order
        return float(epsilons[best]), self.orders[best]


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
