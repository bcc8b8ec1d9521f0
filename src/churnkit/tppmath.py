"""Closed-form point-process and distribution math.

The gap model is an exponential-affine intensity lam(g) = exp(a + wt * g)
over the elapsed absence gap g >= 0.  For wt < 0 the gap distribution is
defective: total mass 1 - exp(-exp(a)/|wt|), the remainder being "never
returns".  Sampling is exact inverse-CDF inversion, with no thinning, by
one array inverse per law: ``gap_at`` and ``zt_poisson_at``.  Generation
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


def _closed_mean(a, wt):
    """Exact mean of the (returned) gap for an array of a and a scalar wt.

    With c = exp(a)/|wt|: wt > 0 gives e^c E1(c)/wt, and wt < 0, conditional
    on returning, gives e^-c Ein(c) / (|wt| (1 - e^-c)) where
    Ein(c) = Ei(c) - euler_gamma - ln c = sum_k c^k / (k k!).  For large c
    both have the asymptotic series exp(-a) * sum_k k! x^k with
    x = -wt exp(-a), which is -1/c for wt > 0 and 1/c for wt < 0.  The series
    takes over from c = 200 because E1(c) goes subnormal near c = 703, before
    e^c overflows at 709.8.
    """
    a = np.asarray(a, dtype=np.float64)
    if abs(wt) < WT_ZERO_EPS:
        return np.exp(-a)
    b = abs(wt)
    c = np.exp(a) / b
    mean = np.empty_like(c)

    big = c > _ASYMPTOTIC_C_MIN
    x = -wt * np.exp(-a[big])
    series = np.ones_like(x)
    for k in range(_ASYMPTOTIC_TERMS - 1, 0, -1):
        series = 1.0 + k * x * series
    mean[big] = np.exp(-a[big]) * series

    cm = c[~big]
    if wt > 0.0:
        mean[~big] = np.exp(cm) * special.exp1(cm) / wt
    else:
        # Ein(c) / c, by its power series where Ei(c) - ln c would cancel
        ein_c = np.empty_like(cm)
        low = cm < _SERIES_C_MAX
        cl = cm[low]
        term = np.ones_like(cl)  # c^(k-1) / k!
        acc = np.zeros_like(cl)
        for k in range(1, _SERIES_TERMS + 1):
            acc += term / k
            term = term * cl / (k + 1)
        ein_c[low] = acc
        ch = cm[~low]
        ein_c[~low] = (special.expi(ch) - np.euler_gamma - np.log(ch)) / ch
        # exprel(-c) = (1 - e^-c) / c, so nothing divides 0 / 0 as c -> 0
        mean[~big] = np.exp(-cm) * ein_c / (b * special.exprel(-cm))
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
