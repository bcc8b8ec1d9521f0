"""Closed-form point-process and distribution math.

The gap model is an exponential-affine intensity lam(g) = exp(a + wt * g)
over the elapsed absence gap g >= 0.  For wt < 0 the gap distribution is
defective: total mass 1 - exp(-exp(a)/|wt|), the remainder being "never
returns".  Samplers use exact inverse-CDF inversion; there is no thinning.
The Gaussian KL and the logit-normal draw wrap the cell's own formulas in
churnkit._kernels with argument checks.
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


def _gap_quantile(spec, prob):
    """Gap g with P(next gap <= g) = prob (prob below total_mass(spec))."""
    a, wt = spec
    y = -math.log1p(-prob)  # cumulative intensity reached at that gap
    if abs(wt) < WT_ZERO_EPS:
        return y * math.exp(-a)
    return math.log1p(y * wt * math.exp(-a)) / wt


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
    """Inverse-CDF draw of the next gap; returns math.inf for "never returns".

    Solves cumulative_intensity(g) = -log(u) with u uniform on (0, 1].  When
    wt < 0 the inversion has no solution with probability exp(-exp(a)/|wt|)
    and the caller gets math.inf, a distinct value it must handle.
    """
    a, wt = spec
    u = 1.0 - rng.random()  # in (0, 1]; u == 1 maps to g == 0
    e = -math.log(u)
    if abs(wt) < WT_ZERO_EPS:
        return e * math.exp(-a)
    arg = 1.0 + e * wt * math.exp(-a)
    if arg <= 0.0:
        return math.inf
    return math.log(arg) / wt


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
_WALK_RATE_MAX = 1e12  # a walk from the mode takes about sqrt(rate) steps


def sample_zt_poisson(rate, rng):
    """Inverse-CDF draw from a zero-truncated Poisson.

    The CDF walk starts at k = 1 while pmf(1) is a normal float (rate up to
    about 715).  Above that pmf(1) is subnormal or zero, so the walk starts
    at the mode with the CDF there from scipy and steps down or up.
    """
    if rate <= 0.0:
        raise ValueError(f"sample_zt_poisson: rate must be positive, got {rate}")
    u = rng.random()
    log_norm = math.log(-math.expm1(-rate))
    log_pmf1 = math.log(rate) - rate - log_norm
    if log_pmf1 < _LOG_WALK_START_MIN:
        return _walk_from_mode(rate, u)
    # walk the truncated CDF starting at k = 1
    k = 1
    pmf = math.exp(log_pmf1)
    cdf = pmf
    while cdf < u:
        k += 1
        pmf *= rate / k
        cdf += pmf
        if k > 10_000_000:
            raise NumericalError("sample_zt_poisson: runaway CDF walk")
    return k


def _walk_from_mode(rate, u):
    """Smallest k >= 1 with truncated CDF(k) >= u, searched from the mode."""
    if rate > _WALK_RATE_MAX:
        raise NumericalError(f"sample_zt_poisson: rate {rate:.3g} too large for a CDF walk")
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
