"""Counter-based random streams.

Every source of randomness in the package is a Philox stream keyed by
(seed, domain, step).  Philox is a counter-based generator, so a stream is a
pure function of its key: runs are reproducible regardless of worker count or
call interleaving, and independent streams never share state.

Normal draws invert the standard normal CDF with `ndtri`, a numpy port of the
Cephes routine of that name (the one scipy.special.ndtri evaluates), so the
package needs numpy alone at run time.
"""

from __future__ import annotations

import math

import numpy as np

# Domain tags keep streams for different purposes disjoint under one user seed.
INIT = 1
DATA = 2
TEMPLATE = 3
POISSON = 4
NOISE = 5
CLIP_SAMPLE = 6
SHUFFLE = 7

_MASK64 = (1 << 64) - 1
_MASK48 = (1 << 48) - 1
_U_MAX = 1.0 - 2.0**-53  # the largest double below 1

# Cephes ndtri's rational approximations, highest power first. P0/Q0 serve
# |u - 0.5| < 0.5 - exp(-2); P1/Q1 and P2/Q2 serve the tails, where
# x = sqrt(-2 log(min(u, 1-u))) is below 8 or not. Cephes leaves each Q's
# leading 1 implicit (its p1evl); here it is written out.
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def check_seed(seed: int, name: str = "seed") -> None:
    """A seed is an unsigned 64-bit integer, so that distinct seeds key distinct streams."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {seed}")


def stream(seed: int, domain: int, step: int = 0) -> np.random.Generator:
    """Independent generator for (seed, domain, step)."""
    check_seed(seed)
    if not 0 <= domain < (1 << 16):
        raise ValueError(f"domain tag out of range: {domain}")
    key = np.array(
        [seed, ((domain << 48) | (step & _MASK48)) & _MASK64],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def _ratio(a: np.ndarray, p: tuple[float, ...], q: tuple[float, ...]) -> np.ndarray:
    """a * P(a) / Q(a), each polynomial by Cephes polevl's Horner rule, highest
    power first; with a leading 1.0, Q's rule is also Cephes p1evl, since 1.0 * a is a."""
    polys = []
    for coefs in (p, q):
        acc = coefs[0]
        for c in coefs[1:]:
            acc = acc * a + c
        polys.append(acc)
    return a * polys[0] / polys[1]


def _libm_log(x: np.ndarray) -> np.ndarray:
    # math.log is the C library's log, which Cephes calls; np.log may use a
    # vectorised log that differs from it in the last bit
    return np.fromiter(map(math.log, x.tolist()), dtype=np.float64, count=x.size)


def ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of each u in the open interval (0, 1).

    The same operations in the same order as Cephes ndtri, so every result is
    bit for bit scipy.special.ndtri's. Each branch is evaluated only on its own
    entries.
    """
    u = np.asarray(u, dtype=np.float64)
    x = np.empty_like(u)
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    central = y > _EXP_M2

    c = y[central] - 0.5
    x[central] = (c + c * _ratio(c * c, _P0, _Q0)) * _S2PI

    tail = ~central
    t = np.sqrt(-2.0 * _libm_log(y[tail]))
    z = 1.0 / t
    x1 = np.empty_like(t)
    near = t < 8.0
    x1[near] = _ratio(z[near], _P1, _Q1)
    if not near.all():  # t >= 8 only where min(u, 1 - u) < exp(-32): the lowest and highest ~114 words
        x1[~near] = _ratio(z[~near], _P2, _Q2)
    d = t - _libm_log(t) / t - x1
    x[tail] = np.where(upper[tail], d, -d)
    return x


def uniforms(words: np.ndarray) -> np.ndarray:
    """Uniforms in (0, 1) from 53-bit words: fl(word + 0.5) * 2^-53, at most 1 - 2^-53.

    Below 2^52, word + 0.5 is exact, so u = (word + 0.5) / 2^53. Above it the
    sum rounds to an integer, and for the top word, 2^53 - 1, to 2^53, so that
    u would be 1 and its normal draw infinite; the cap keeps it below 1.
    """
    return np.minimum((words.astype(np.float64) + 0.5) * 2.0**-53, _U_MAX)


def standard_normal(seed: int, domain: int, step: int, n: int) -> np.ndarray:
    """n standard-normal draws, one counter position per coordinate.

    Draw i is ndtri(uniforms(word_i)), where word_i is the stream's i-th
    53-bit integer, so coordinate i is a fixed function of (seed, domain,
    step, i) and every draw is finite.
    """
    words = stream(seed, domain, step).integers(0, 1 << 53, size=n, dtype=np.uint64)
    return ndtri(uniforms(words))
