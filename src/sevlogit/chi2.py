"""Chi-square survival function at integer degrees of freedom, as a finite sum.

With h = x / 2 the upper tail is the regularized incomplete gamma Q(df / 2, h),
and Q steps up in its first argument by the recurrence
Q(a + 1, h) = Q(a, h) + h^a e^-h / Gamma(a + 1) (Abramowitz and Stegun,
Handbook of Mathematical Functions, 1964, section 26.4). df is an integer, so
starting from Q(1/2, h) = erfc(sqrt(h)) for odd df, or Q(1, h) = e^-h for
even df, it reaches df / 2 in (df - 1) // 2 steps. Every term is positive and
formed in log space: there is no series to truncate and nothing overflows.
"""

import math

from .data import checked_count


def chi_square_sf(x: float, df: int) -> float:
    """P(X >= x) for a chi-square variable with df degrees of freedom, df a positive integer."""
    df = checked_count("degrees of freedom", df)
    if not x >= 0.0:
        raise ValueError(f"chi-square statistic must be a non-negative number, got {x}")
    h = x / 2.0
    if h == 0.0 or h == math.inf:
        return 1.0 if h == 0.0 else 0.0
    a, first = (0.5, math.erfc(math.sqrt(h))) if df % 2 else (1.0, math.exp(-h))
    log_h = math.log(h)
    log_terms = ((a + i) * log_h - h - math.lgamma(a + i + 1.0) for i in range((df - 1) // 2))
    return min(1.0, first + sum(map(math.exp, log_terms)))
