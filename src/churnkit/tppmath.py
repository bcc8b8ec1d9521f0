"""Closed-form point-process and distribution math.

The gap model is an exponential-affine intensity lam(g) = exp(a + wt * g)
over the elapsed absence gap g >= 0.  For wt < 0 the gap distribution is
defective: total mass 1 - exp(-exp(a)/|wt|), the remainder being "never
returns".  The mean gap is a scaled exponential integral of c = exp(a)/|wt|,
read from a Chebyshev table built at import where 1 <= c <= 200 and from
series outside it.  Sampling is exact inverse-CDF inversion, with no
thinning, by one array inverse per law: ``gap_at`` and ``zt_poisson_at``.  Generation
runs them on a step's rows, each row drawing from its own stream its eps,
then one (gap, duration) pair of uniforms.  The Gaussian KL and the
logit-normal draw wrap the cell's own formulas in churnkit._kernels with
argument checks.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np
from scipy import special

from . import _kernels as K
from ._kernels import EXP_ARG_MAX, WT_ZERO_EPS
from .errors import NumericalError


class IntensitySpec(NamedTuple):
    """Evaluated intensity parameters: lam(g) = exp(a + wt * g)."""

    a: float
    wt: float = 0.0


class GaussianParams(NamedTuple):
    """Mean / std of a Gaussian in logit space (prior or posterior of z)."""

    mu: float
    sigma: float


def cumulative_intensity(spec, g):
    """Integral of lam over [0, g]; nonnegative and increasing in g."""
    if g < 0.0:
        raise ValueError(f"cumulative_intensity: negative gap {g}")
    a, wt = spec
    ea = math.exp(a)
    if abs(wt) < WT_ZERO_EPS:
        return ea * g
    x = wt * g
    if x > EXP_ARG_MAX:
        raise NumericalError("cumulative_intensity: exp overflow")
    return ea * math.expm1(x) / wt


def total_mass(spec):
    """Probability that a next gap occurs at all (< 1 only when wt < 0)."""
    a, wt = spec
    if wt >= -WT_ZERO_EPS:
        return 1.0
    return -math.expm1(-math.exp(a) / abs(wt))


_LOG_DENSITY_FLOOR = -1e308  # stands in for log(0) while staying finite


def log_gap_density(spec, g):
    """log f*(g) = a + wt*g - cumulative_intensity(g).

    For a rising intensity the density decays super-exponentially; once the
    cumulative intensity exceeds float range the true log density is below
    anything representable and the finite floor -1e308 is returned (its exp
    is exactly 0.0), which keeps tail quadrature well defined.
    """
    if g < 0.0:
        raise ValueError(f"log_gap_density: negative gap {g}")
    a, wt = spec
    if wt > WT_ZERO_EPS and wt * g > EXP_ARG_MAX:
        return _LOG_DENSITY_FLOOR
    val = a + (0.0 if abs(wt) < WT_ZERO_EPS else wt * g) - cumulative_intensity(spec, g)
    if not math.isfinite(val):
        raise NumericalError(f"log_gap_density: non-finite at g={g}")
    return max(val, _LOG_DENSITY_FLOOR)


_ASYMPTOTIC_C_MIN = 200.0  # c above this: asymptotic series in 1/c
_ASYMPTOTIC_TERMS = 10  # truncation error below 10!/200**10 < 4e-17 relative
_SERIES_C_MAX = 1.0  # c below this: power series of Ein(c), no cancellation
_SERIES_TERMS = 18  # truncation error below 1/(19 * 19!) < 5e-19 relative
_TABLE_DEGREE = 10  # Chebyshev degree of each piece of the mid-range table
_TABLE_PIECES = 4  # pieces per octave of c; the table spans the octaves of [1, 256)


def _mean_table():
    """Chebyshev coefficients of f- and f+ (see _closed_mean), shape
    (2, pieces, degree + 1), interpolated at the Chebyshev nodes of the pieces
    [2^j (1 + q/P), 2^j (1 + (q+1)/P)) of c in [1, 256), P = _TABLE_PIECES."""
    n = _TABLE_DEGREE + 1
    theta = np.pi * (np.arange(n) + 0.5) / n
    to_coef = np.cos(np.outer(theta, np.arange(n))) * (2.0 / n)
    to_coef[:, 0] *= 0.5
    piece = np.arange(8 * _TABLE_PIECES)
    width = 2.0 ** (piece // _TABLE_PIECES) / _TABLE_PIECES
    # each piece's start plus width (1 + cos theta) / 2
    c = width[:, None] * (_TABLE_PIECES + piece[:, None] % _TABLE_PIECES + 0.5 + 0.5 * np.cos(theta))
    ein = special.expi(c) - np.euler_gamma - np.log(c)
    return np.stack([c * np.exp(-c) * ein, c * np.exp(c) * special.exp1(c)]) @ to_coef


_MEAN_TABLE = _mean_table()


def _table_factor(c, rising):
    """f+(c) if rising else f-(c) for an array of c in [1, 256), by Clenshaw's
    recurrence on the table piece that np.frexp finds for each value."""
    m, e = np.frexp(c)  # c = m 2^e with m in [0.5, 1)
    s = (m - 0.5) * (2 * _TABLE_PIECES)  # piece q within the octave, plus the offset in it
    q = s.astype(np.intp)
    t = 2.0 * (s - q) - 1.0  # exact, in [-1, 1)
    coef = np.take(_MEAN_TABLE[int(rising)], (e - 1) * _TABLE_PIECES + q, axis=0)
    t2 = t + t
    b1, b2 = coef[:, -1].copy(), np.zeros_like(t)
    for k in range(_TABLE_DEGREE - 1, 0, -1):
        np.subtract(t2 * b1, b2, out=b2)
        b2 += coef[:, k]
        b1, b2 = b2, b1
    return t * b1 - b2 + coef[:, 0]


def _closed_mean(a, wt):
    """Exact mean of the (returned) gap for an array of a and a scalar wt.

    With c = exp(a)/|wt|, wt > 0 gives exp(-a) f+(c), f+(c) = c e^c E1(c), and
    wt < 0, conditional on returning, exp(-a) f-(c) / (1 - e^-c), where
    f-(c) = c e^-c Ein(c) and Ein(c) = Ei(c) - euler_gamma - ln c
    = sum_k c^k / (k k!).  By range of c:

    - c < 1: the power series of Ein(c), where Ei(c) - ln c would cancel, or
      scipy's exp1, where f+ is not smooth at 0;
    - 1 <= c <= 200: _MEAN_TABLE, degree-10 Chebyshev pieces of f- and f+,
      four to an octave of c, built at import from scipy's expi and exp1.  It
      matches the scipy formula within 1e-14 relative;
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
    cl = c[low]
    if wt > 0.0:
        mean[low] = np.exp(cl) * special.exp1(cl) / wt
    elif cl.size:
        term = np.ones_like(cl)  # c^(k-1) / k!
        ein_c = np.zeros_like(cl)  # Ein(c) / c
        for k in range(1, _SERIES_TERMS + 1):
            ein_c += term / k
            term = term * cl / (k + 1)
        # exprel(-c) = (1 - e^-c) / c, so nothing divides 0 / 0 as c -> 0
        mean[low] = np.exp(-cl) * ein_c / (b * special.exprel(-cl))

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


def _gap_quantile(spec, prob):
    """Gap g with P(next gap <= g) = prob; inf from prob = total_mass(spec) on."""
    a, wt = spec
    return float(gap_at(a, wt, -np.log1p(-prob)))


# conditional probabilities splitting [0, inf) for the quadrature reference
_QUAD_SPLITS = (0.5,) + tuple(1.0 - 10.0**-k for k in range(1, 16))


def _quadrature_mean(spec):
    """Mean of the (returned) gap by adaptive quadrature of g f(g).

    The range is split at quantiles of the gap law, so every piece holds a
    known share of the mass however narrow or wide the law is, and the last
    piece runs to infinity.
    """
    from scipy import integrate  # only this test reference needs it, and it is slow to import

    mass = total_mass(spec)
    edges = [0.0] + [_gap_quantile(spec, p * mass) for p in _QUAD_SPLITS] + [math.inf]

    def integrand(g):
        return g * math.exp(log_gap_density(spec, g))

    total = err = 0.0
    for lo, hi in zip(edges, edges[1:]):
        if not hi > lo:
            continue
        # full_output also keeps quad from warning; convergence is checked
        # on the summed error estimate below
        val, piece_err = integrate.quad(
            integrand, lo, hi, epsabs=0.0, epsrel=1e-10, limit=200, full_output=1
        )[:2]
        total += val
        err += piece_err
    if not (math.isfinite(total) and total > 0.0) or err > 1e-8 * total:
        raise NumericalError(f"_quadrature_mean: quadrature failed for {tuple(spec)}")
    return total / mass


def expected_gap(spec):
    """Mean next gap; for wt < 0 the mean is conditional on returning.

    Exact for every slope (see _closed_mean).  Accepts an array of a with a
    scalar wt and returns an array of the same shape.  _quadrature_mean is
    the reference it is tested against.
    """
    a, wt = spec
    mean = _closed_mean(a, float(wt))
    if not np.all(np.isfinite(mean) & (mean > 0.0)):
        raise NumericalError(f"expected_gap: no finite positive mean at wt={wt}")
    return float(mean) if mean.ndim == 0 else mean


def sample_gap(spec, rng):
    """Inverse-CDF draw of the next gap at one rng.random(); when wt < 0 it
    is math.inf, "never returns", with probability exp(-exp(a)/|wt|)."""
    return _gap_quantile(spec, rng.random())


def poisson_log_pmf(rate, k):
    """log Poisson pmf via log-gamma; rate > 0, integer k >= 0."""
    if rate <= 0.0:
        raise ValueError(f"poisson_log_pmf: rate must be positive, got {rate}")
    if k < 0 or k != int(k):
        raise ValueError(f"poisson_log_pmf: k must be a nonnegative integer, got {k}")
    return k * math.log(rate) - rate - math.lgamma(k + 1.0)


def zt_poisson_log_pmf(rate, k):
    """log pmf of a zero-truncated Poisson (support k >= 1)."""
    if k < 1:
        raise ValueError(f"zt_poisson_log_pmf: k must be >= 1, got {k}")
    return poisson_log_pmf(rate, k) - math.log(-math.expm1(-rate))


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
    k = math.floor(rate)
    pmf = math.exp(zt_poisson_log_pmf(rate, k))
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


def gaussian_kl(q, p):
    """Closed-form KL(q || p) between univariate Gaussians; >= 0, 0 iff q == p.

    Because logit-normal variables are deterministic bijections of their
    underlying Gaussians, this is also the KL between the matching
    logit-normal laws.
    """
    if q.sigma <= 0.0 or p.sigma <= 0.0:
        raise ValueError(f"gaussian_kl: non-positive std ({q.sigma}, {p.sigma})")
    return float(K.gaussian_kl(q.mu, q.sigma, p.mu, p.sigma))


def sample_logit_normal(params, eps):
    """Reparameterized draw z = sigmoid(mu + sigma * eps), strictly in (0, 1)."""
    if params.sigma <= 0.0:
        raise ValueError(f"sample_logit_normal: non-positive std {params.sigma}")
    return float(K.draw_z(params.mu, params.sigma, eps))
