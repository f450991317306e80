"""Self-contained normal and Student-t critical values, and ordered sums.

Kept free of scipy on purpose: the normal inverse CDF uses a rational
approximation polished with one Halley step against erfc, and the t tail is
evaluated through the regularized incomplete beta continued fraction and
inverted by bisection. Both are accurate well beyond the 1e-6 contract.
"""

from __future__ import annotations

import math

import numpy as np

_MAX_CF_ITER = 300
_CF_EPS = 1e-15


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_ppf(p: float) -> float:
    """Inverse standard normal CDF for p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")

    # rational approximation (relative error ~1e-9), then one Halley step
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    elif p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )

    err = normal_cdf(x) - p
    pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    if pdf > 0.0:
        u = err / pdf
        x -= u / (1.0 + 0.5 * x * u)  # Halley
    return x


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < 1e-300:
        d = 1e-300
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_CF_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_sf(t: float, dof: float) -> float:
    """Upper-tail probability P(T > t) for Student-t with dof degrees of freedom."""
    if dof <= 0:
        raise ValueError("dof must be positive")
    if t == 0.0:
        return 0.5
    x = dof / (dof + t * t)
    tail = 0.5 * regularized_incomplete_beta(dof / 2.0, 0.5, x)
    return tail if t > 0 else 1.0 - tail


def student_t_upper(alpha: float, dof: float) -> float:
    """t with P(T > t) = alpha, alpha in (0, 0.5], by monotone bisection."""
    if not 0.0 < alpha <= 0.5:
        raise ValueError("alpha must lie in (0, 0.5]")
    if dof < 1:
        raise ValueError("dof must be at least 1")
    if alpha == 0.5:
        return 0.0
    lo, hi = 0.0, 1.0
    while student_t_sf(hi, dof) > alpha:
        hi *= 2.0
        if hi > 1e12:
            raise ArithmeticError("t critical value out of range")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if student_t_sf(mid, dof) > alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def normal_upper(alpha: float) -> float:
    """z with P(Z > z) = alpha, alpha in (0, 0.5]."""
    if not 0.0 < alpha <= 0.5:
        raise ValueError("alpha must lie in (0, 0.5]")
    return -normal_ppf(alpha)  # 1 - alpha would round away a small alpha


def critical_values(alpha: float, dof: int) -> tuple[float, float]:
    """Upper-tail Student-t and standard-normal critical values."""
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie strictly inside (0, 0.5)")
    if dof < 1:
        raise ValueError("dof must be at least 1")
    return student_t_upper(alpha, dof), normal_upper(alpha)


def ordered_sum(terms, start=0.0, axis=0):
    """Sum along `axis` one term at a time after `start`, as a `+=` loop would.

    np.sum adds a contiguous run pairwise, which rounds differently; the
    cut terms, the retained-export total and the evaluation totals are
    accumulated in this fixed order so every artifact stays reproducible.
    """
    terms = np.asarray(terms, dtype=float)
    if axis:
        terms = np.moveaxis(terms, axis, 0)
    stacked = np.empty((len(terms) + 1,) + terms.shape[1:])
    stacked[0] = start
    stacked[1:] = terms
    return np.add.accumulate(stacked, axis=0)[-1]


def ordered_total(values):
    """`values` added one at a time from the integer 0, as `sum()` adds them
    before Python 3.12: from 3.12 on `sum()` compensates float rounding, so
    every float total of the package is added here to keep one set of bits."""
    total = 0
    for value in values:
        total += value
    return total
