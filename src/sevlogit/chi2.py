"""Chi-square survival function via the regularized upper incomplete gamma function.

Classic two-regime evaluation: lower-tail power series for x < a + 1,
upper-tail continued fraction (modified Lentz) otherwise. Absolute error is
well inside 1e-12 over the degrees of freedom this package uses.
"""

import math

_EPS = 2.220446049250313e-16
_TINY = 1e-300
_MAX_ITER = 600


def _lower_series(a: float, x: float) -> float:
    """P(a, x) without its factor x^a e^-x / Gamma(a), by power series; needs 0 < x < a + 1."""
    term = 1.0 / a
    total = term
    rank = a
    for _ in range(_MAX_ITER):
        rank += 1.0
        term *= x / rank
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total


def _upper_continued_fraction(a: float, x: float) -> float:
    """Q(a, x) without its factor x^a e^-x / Gamma(a), by continued fraction; needs x >= a + 1."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def regularized_gamma_q(a: float, x: float) -> float:
    """Q(a, x) = Gamma(a, x) / Gamma(a), the normalized upper tail."""
    if a <= 0.0:
        raise ValueError(f"shape parameter must be positive, got {a}")
    if x < 0.0:
        raise ValueError(f"argument must be non-negative, got {x}")
    if x == 0.0:
        return 1.0
    log_scale = a * math.log(x) - x - math.lgamma(a)  # log of x^a e^-x / Gamma(a)
    scale = 0.0 if log_scale < -700.0 else math.exp(log_scale)
    if x < a + 1.0:
        return min(1.0, max(0.0, 1.0 - _lower_series(a, x) * scale))
    return min(1.0, max(0.0, _upper_continued_fraction(a, x) * scale))


def chi_square_sf(x: float, df: int) -> float:
    """P(X >= x) for a chi-square variable with the given degrees of freedom."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be a positive integer, got {df}")
    if x < 0.0:
        raise ValueError(f"chi-square statistic must be non-negative, got {x}")
    return regularized_gamma_q(df / 2.0, x / 2.0)
