"""Closed-form point-process and distribution math.

The gap model is an exponential-affine intensity lam(g) = exp(a + wt * g)
over the elapsed absence gap g >= 0.  For wt < 0 the gap distribution is
defective: total mass 1 - exp(-exp(a)/|wt|), the remainder being "never
returns".  The mean gap is a scaled exponential integral of c = exp(a)/|wt|,
read from a Chebyshev table that numpy builds at import where 1 <= c <= 200
and from series outside it.  Sampling is exact inverse-CDF inversion, with
no thinning, by one array inverse per law: ``gap_at`` and ``zt_poisson_at``.
Generation runs them on a step's rows, each row drawing from its own stream
its eps, then one (gap, duration) pair of uniforms.  scipy is imported only
where it runs: by a CDF walk from the mode (rates above about 715).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from ._kernels import WT_ZERO_EPS
from .errors import NumericalError


_ASYMPTOTIC_C_MIN = 200.0  # c above this: asymptotic series in 1/c
_ASYMPTOTIC_TERMS = 10  # truncation error below 10!/200**10 < 4e-17 relative
_SERIES_C_MAX = 1.0  # c below this: power series of Ein(c), no cancellation
_SERIES_TERMS = 18  # truncation error below 1/(19 * 19!) < 5e-19 relative
_TABLE_DEGREE = 10  # Chebyshev degree of each piece of the mid-range table
_TABLE_PIECES = 4  # pieces per octave of c; the table spans the octaves of [1, 256)


def _ein_over(x, terms):
    """Ein(x) / x = sum_k x^(k-1) / (k k!) over k = 1..terms; Ein(x) = Ei(x) - euler_gamma - ln|x|."""
    term, total = np.ones_like(x), np.zeros_like(x)  # term = x^(k-1) / k!
    for k in range(1, terms + 1):
        total += term / k
        term = term * x / (k + 1)
    return total


def _mean_table():
    """Chebyshev coefficients of f- and f+ (see _closed_mean), shape
    (2, degree + 1, pieces), interpolated at the Chebyshev nodes of the pieces
    [2^j (1 + q/P), 2^j (1 + (q+1)/P)) of c in [1, 256), P = _TABLE_PIECES: f-
    from Ein's series, f+ = c / (c + 1 - 1/(c + 3 - 4/(c + 5 - ...))) from E1's."""
    n = _TABLE_DEGREE + 1
    theta = np.pi * (np.arange(n) + 0.5) / n
    to_coef = np.cos(np.outer(theta, np.arange(n))) * (2.0 / n)
    to_coef[:, 0] *= 0.5
    piece = np.arange(8 * _TABLE_PIECES)
    width = 2.0 ** (piece // _TABLE_PIECES) / _TABLE_PIECES
    # each piece's start plus width (1 + cos theta) / 2
    c = width[:, None] * (_TABLE_PIECES + piece[:, None] % _TABLE_PIECES + 0.5 + 0.5 * np.cos(theta))
    fraction = c + 201  # E1's continued fraction to depth 100, converged within 5e-16 from c = 1
    for k in range(100, 0, -1):
        fraction = c + (2 * k - 1) - k * k / fraction
    f_minus = c * np.exp(-c) * (c * _ein_over(c, 420))  # to c = 256, the omitted tail is below 1e-20
    return np.ascontiguousarray((np.stack([f_minus, c / fraction]) @ to_coef).swapaxes(1, 2))


_MEAN_TABLE = _mean_table()


def _table_factor(c, rising):
    """f+(c) if rising else f-(c) for an array of c in [1, 256), by Clenshaw's recurrence, in
    place, on the table piece that np.frexp finds for each value, a coefficient row at a time."""
    m, e = np.frexp(c)  # c = m 2^e with m in [0.5, 1)
    s = (m - 0.5) * (2 * _TABLE_PIECES)  # piece q within the octave, plus the offset in it
    q = s.astype(np.intp)
    t = 2.0 * (s - q) - 1.0  # exact, in [-1, 1)
    table, piece = _MEAN_TABLE[int(rising)], (e - 1) * _TABLE_PIECES + q
    t2, tb, coef = t + t, np.empty_like(t), np.empty_like(t)
    b1, b2 = table[-1].take(piece), np.zeros_like(t)
    for k in range(_TABLE_DEGREE - 1, 0, -1):
        np.subtract(np.multiply(t2, b1, out=tb), b2, out=b2)
        b2 += table[k].take(piece, out=coef, mode="clip")  # clip: unbuffered, and piece is in range
        b1, b2 = b2, b1
    return t * b1 - b2 + table[0].take(piece, out=coef, mode="clip")


def _closed_mean(a, wt):
    """Exact mean of the (returned) gap for an array of a and a scalar wt, by numpy alone.

    With c = exp(a)/|wt|, wt > 0 gives exp(-a) f+(c), f+(c) = c e^c E1(c), and
    wt < 0, conditional on returning, exp(-a) f-(c) / (1 - e^-c), where
    f-(c) = c e^-c Ein(c) and Ein(c) = Ei(c) - euler_gamma - ln c
    = sum_k c^k / (k k!).  By range of c:

    - c < 1: the power series of Ein(c), where Ei(c) - ln c would cancel,
      and E1(c) = -euler_gamma - ln c - Ein(-c), where f+ is not smooth at 0;
    - 1 <= c <= 200: _MEAN_TABLE, degree-10 Chebyshev pieces of f- and f+,
      four to an octave of c (see _mean_table), within 1e-14 of scipy's;
    - c > 200: the asymptotic series exp(-a) * sum_k k! x^k with
      x = -wt exp(-a), which is -1/c for wt > 0 and 1/c for wt < 0.  It takes
      over before E1(c) goes subnormal near c = 703, and e^c overflows at 709.8.
    """
    a = np.asarray(a, dtype=np.float64)
    if abs(wt) < WT_ZERO_EPS:
        return np.exp(-a)
    b = abs(wt)
    c = np.exp(a) / b
    mean = np.full_like(c, np.nan)  # a nan c falls in no range and stays nan

    # each series is skipped where it has no values: its loop costs more than the table
    big = c > _ASYMPTOTIC_C_MIN
    if big.any():
        x = -wt * np.exp(-a[big])
        series = np.ones_like(x)
        for k in range(_ASYMPTOTIC_TERMS - 1, 0, -1):
            series = 1.0 + k * x * series
        mean[big] = np.exp(-a[big]) * series

    low = c < _SERIES_C_MAX
    if low.any():
        cl = c[low]
        if wt > 0.0:  # ln 0 is -inf, so c = 0 gives an infinite mean
            log_c = np.log(cl, out=np.full_like(cl, -np.inf), where=cl > 0.0)
            mean[low] = np.exp(cl) * (cl * _ein_over(-cl, _SERIES_TERMS) - np.euler_gamma - log_c) / wt
        else:  # (1 - e^-c) / c, taken as its limit 1 at c = 0, where it would divide 0 / 0
            exprel = np.divide(-np.expm1(-cl), cl, out=np.ones_like(cl), where=cl > 0.0)
            mean[low] = np.exp(-cl) * _ein_over(cl, _SERIES_TERMS) / (b * exprel)

    mid = (c >= _SERIES_C_MAX) & (c <= _ASYMPTOTIC_C_MIN)
    cm = c[mid]
    factor = _table_factor(cm, wt > 0.0)
    mean[mid] = np.exp(-a[mid]) * (factor if wt > 0.0 else factor / -np.expm1(-cm))
    return mean


def gap_at(a, wt, y):
    """Gap at which the cumulative intensity of exp(a + wt * g) reaches y >= 0,
    elementwise over arrays of a and y with a scalar wt.  It is inf where a
    defective law never reaches y: the log1p argument is clipped at -1,
    where log1p is -inf, and wt < 0 turns that into +inf.
    """
    if abs(wt) < WT_ZERO_EPS:
        return y * np.exp(-a)
    with np.errstate(divide="ignore"):
        return np.log1p(np.maximum(y * wt * np.exp(-a), -1.0)) / wt


def expected_gap(a, wt):
    """Mean next gap under the intensity exp(a + wt * g); for wt < 0 the
    mean is conditional on returning.

    Exact for every slope (see _closed_mean).  Accepts an array of a with a
    scalar wt and returns an array of the same shape.
    """
    mean = _closed_mean(a, float(wt))
    if not np.all(np.isfinite(mean) & (mean > 0.0)):
        raise NumericalError(f"expected_gap: no finite positive mean at wt={wt}")
    return float(mean) if mean.ndim == 0 else mean


_LOG_WALK_START_MIN = math.log(sys.float_info.min)  # pmf(1) stays a normal float
WALK_RATE_MAX = 1e12  # a walk from the mode takes about sqrt(rate) steps


def zt_poisson_at(rate, u):
    """Smallest k >= 1 whose zero-truncated Poisson CDF reaches u in [0, 1),
    elementwise over arrays of rate > 0 and u: the inverse-CDF draw.  All
    elements walk from k = 1 in lock step, each ending where its CDF reaches
    u or stops growing (it can top out just below 1); where pmf(1) is not a
    normal float (rate above about 715) the walk starts at the mode.
    """
    rate, u = np.broadcast_arrays(np.asarray(rate, dtype=np.float64), u)
    shape, rate, u = rate.shape, rate.ravel(), u.ravel()
    if not np.all(rate > 0.0):
        raise ValueError("zt_poisson_at: rates must be positive")
    log_pmf1 = np.log(rate) - rate - np.log(-np.expm1(-rate))
    k, pmf = np.ones(rate.size, dtype=np.int64), np.exp(log_pmf1)
    mode = np.flatnonzero(log_pmf1 < _LOG_WALK_START_MIN)
    k[mode] = [_walk_from_mode(float(rate[j]), float(u[j])) for j in mode]
    run = np.flatnonzero((log_pmf1 >= _LOG_WALK_START_MIN) & (pmf < u))
    r, pmf, cdf, u, step = rate[run], pmf[run], pmf[run], u[run], 1
    while run.size:
        step += 1
        k[run] = step
        pmf = pmf * (r / step)
        grown = cdf + pmf
        go = (grown < u) & (grown != cdf)
        run, r, pmf, cdf, u = run[go], r[go], pmf[go], grown[go], u[go]
    return k.reshape(shape)


def _walk_from_mode(rate, u):
    """Smallest k >= 1 with truncated CDF(k) >= u, searched from the mode."""
    if rate > WALK_RATE_MAX:
        raise NumericalError(f"zt_poisson_at: rate {rate:.3g} too large for a CDF walk")
    from scipy import special  # only rates above about 715 come here, and it is slow to import
    k = math.floor(rate)
    pmf = math.exp(k * math.log(rate) - rate - math.lgamma(k + 1.0) - math.log(-math.expm1(-rate)))
    cdf = (special.pdtr(k, rate) - math.exp(-rate)) / -math.expm1(-rate)
    while k > 1 and cdf - pmf >= u:
        cdf -= pmf
        pmf *= k / rate
        k -= 1
    # pmf underflows to 0 only far in the upper tail, where cdf rounds to 1
    while cdf < u and pmf > 0.0:
        k += 1
        pmf *= rate / k
        cdf += pmf
    return k

