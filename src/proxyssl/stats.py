"""Paired t-testing with an in-repo Student-t tail probability.

A paired test over n matched runs has n - 1 degrees of freedom, always an
integer, so the two-tailed p-value comes from the finite series of
Abramowitz & Stegun 26.7.3-26.7.4 in theta = atan(|t| / sqrt(df)). No
external statistics package is involved, so results are identical on every
platform.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

ALPHA = 0.10  # significance level of the paired t-test, for run and report alike


def t_two_tailed_p(t, df):
    """P(|T_df| >= |t|) for a Student-t variable with integer df >= 1."""
    try:
        df = operator.index(df)
    except TypeError:
        raise ValueError(f"degrees of freedom must be an integer, got {df!r}") from None
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if math.isinf(t):
        return 0.0
    theta = math.atan(abs(t) / math.sqrt(df))
    odd = df % 2
    # P(|T| < |t|) is sin(theta) * sum_j c_j for even df and (2/pi)(theta + sin(theta)
    # * sum_j c_j) for odd df, over df // 2 terms from c_0 = 1 (even) or cos(theta) (odd),
    # with c_j = c_{j-1} cos^2(theta) (2j - 1 + odd) / (2j + odd)
    cos = math.cos(theta)
    term, total = (cos if odd else 1.0), 0.0
    for j in range(df // 2):
        total += term
        term *= cos * cos * (2 * j + 1 + odd) / (2 * j + 2 + odd)
    inside = math.sin(theta) * total
    if odd:
        inside = 2.0 / math.pi * (theta + inside)
    return max(1.0 - inside, 0.0)


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
