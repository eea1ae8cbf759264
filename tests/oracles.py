"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the code paths they check: finite differences for
analytic gradients, stabilized adaptive quadrature for the closed-form Renyi
divergence, exhaustive scans for grid minimizations, and scipy's special
functions for the numpy ports that dpvideo runs on. Only the tests need scipy.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, logsumexp, ndtri
from scipy.stats import norm

from dpvideo.autodiff import Tape, forward
from dpvideo.models import ParameterStore


def finite_difference(
    tape: Tape, inputs: dict, params: ParameterStore, name: str, index: tuple, h: float = 1e-5
) -> float:
    """Central difference (f(p+h) - f(p-h)) / 2h for one parameter coordinate,
    where f is the summed clip loss of the inputs' clip stack."""
    original = params.value(name).copy()
    bumped = original.copy()
    bumped[index] = original[index] + h
    params.set_value(name, bumped)
    up = float(forward(tape, inputs, params)[0].sum())
    bumped[index] = original[index] - h
    params.set_value(name, bumped)
    down = float(forward(tape, inputs, params)[0].sum())
    params.set_value(name, original)
    return (up - down) / (2.0 * h)


def grad_close(analytic: float, numeric: float, rel: float = 1e-4, abs_floor: float = 1e-8) -> bool:
    """Relative agreement, with an absolute floor for near-zero coordinates."""
    if abs(analytic - numeric) < abs_floor:
        return True
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric)) < rel


def log_factorial(n: np.ndarray) -> np.ndarray:
    """log(n!) as scipy's gammaln(n + 1), the reference for the accountant's table."""
    return gammaln(np.asarray(n, dtype=np.float64) + 1.0)


def inverse_normal_cdf(u: np.ndarray) -> np.ndarray:
    """scipy.special.ndtri, the reference for the noise sampler's inverse CDF."""
    return ndtri(u)


def renyi_divergence_quadrature(q: float, sigma: float, alpha: int) -> float:
    """Order-alpha Renyi divergence of (1-q)N(0,s^2)+qN(1,s^2) from N(0,s^2).

    Integrates p(z)^alpha base(z)^(1-alpha) directly; the integrand is shifted
    by its log maximum so the quadrature stays finite even when the divergence
    is in the hundreds. The mass sits near z=0 and (for the dominant binomial
    term) near z=alpha, hence the integration window.
    """
    log_q = math.log(q)
    log_1mq = math.log1p(-q) if q < 1.0 else -math.inf

    def log_integrand(z):
        log_p = np.logaddexp(
            log_1mq + norm.logpdf(z, loc=0.0, scale=sigma),
            log_q + norm.logpdf(z, loc=1.0, scale=sigma),
        )
        return alpha * log_p + (1.0 - alpha) * norm.logpdf(z, loc=0.0, scale=sigma)

    lo, hi = -40.0 * sigma, alpha + 40.0 * sigma
    grid = np.linspace(lo, hi, 20001)
    shift = float(np.max(log_integrand(grid)))
    value, _ = quad(
        lambda z: math.exp(log_integrand(z) - shift),
        lo,
        hi,
        points=[0.0, 1.0, float(alpha)],
        limit=500,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return (shift + math.log(value)) / (alpha - 1.0)


def rdp_curve_per_order(q: float, sigma: float, orders=range(2, 257)) -> list[float]:
    """The closed-form per-step divergence, one scipy logsumexp call per order.

    This is the scalar reference that the accountant's vectorised curve must
    equal bit for bit. sigma = 0 diverges at every order; a sigma whose square
    overflows has infinite variance.
    """
    if sigma == 0.0:
        return [math.inf] * len(orders)
    try:
        variance = sigma**2
    except OverflowError:
        variance = math.inf
    curve = []
    for a in orders:
        if q == 1.0:
            curve.append(a / (2.0 * variance))
            continue
        k = np.arange(a + 1, dtype=np.float64)
        log_binom = gammaln(a + 1) - gammaln(k + 1) - gammaln(a - k + 1)
        with np.errstate(over="ignore"):
            log_terms = log_binom + k * math.log(q) + (a - k) * math.log1p(-q) + k * (k - 1) / (2.0 * variance)
        curve.append(float(logsumexp(log_terms)) / (a - 1))
    return curve


def epsilon_grid_scan(rdp_at_order, steps: int, delta: float, orders=range(2, 257)) -> tuple[float, int]:
    """Exhaustive minimization of steps*rdp(a) + log(1/delta)/(a-1)."""
    best = (math.inf, None)
    for a in orders:
        eps = steps * rdp_at_order(a) + math.log(1.0 / delta) / (a - 1)
        if eps < best[0]:
            best = (eps, a)
    return best


def bisect_sigma(epsilon_of_sigma, target: float, lo: float = 0.3, hi: float = 100.0, iters: int = 120) -> float:
    """Plain bisection on a monotone-decreasing epsilon(sigma)."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if epsilon_of_sigma(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi
