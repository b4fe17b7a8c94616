"""Paired t-testing with an in-repo Student-t tail probability.

The two-tailed p-value comes from the regularized incomplete beta function
I_x(df/2, 1/2) at x = df / (df + t^2), evaluated with a modified-Lentz
continued fraction. No external statistics package is involved, so results
are identical on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ALPHA = 0.10  # significance level of the paired t-test, for run and report alike


def _betacf(a, b, x, max_iter=300, eps=1e-15):
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a} b={b} x={x}")


def regularized_incomplete_beta(a, b, x):
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError(f"shape parameters must be positive, got a={a} b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # use the representation that converges fast, mirror via symmetry otherwise
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_two_tailed_p(t, df):
    """P(|T_df| >= |t|) for a Student-t variable with df degrees of freedom."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


@dataclass
class TTestResult:
    t_stat: float
    p_value: float
    significant: bool
    direction: int  # sign of mean(a - b)
    degenerate: bool = False


def paired_t_test(a, b, alpha=ALPHA):
    """Two-tailed paired t-test on matched result vectors.

    Entries must be ordered identically in both vectors (same fold/trial per
    position). Zero-variance differences with nonzero mean are significant
    by convention and flagged degenerate; all-zero differences are not
    significant.
    """
    if len(a) != len(b):
        raise ValueError(f"paired vectors differ in length: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise ValueError(f"need at least 2 pairs, got {n}")
    diffs = [float(x) - float(y) for x, y in zip(a, b)]
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    if var == 0.0:
        if mean == 0.0:
            return TTestResult(0.0, 1.0, False, 0)
        return TTestResult(math.copysign(math.inf, mean), 0.0, True, _sign(mean), degenerate=True)
    t = mean / math.sqrt(var / n)
    p = t_two_tailed_p(t, n - 1)
    return TTestResult(t, p, p < alpha, _sign(mean))


def _sign(v):
    return (v > 0) - (v < 0)
