"""Special-function kernel: the operator normalization constant, terminating
2F1 sums, Kummer 1F1, skewed-operator coefficients and the gamma-ratio
tables feeding the series path.

Kummer 1F1 is evaluated on the nonpositive axis (the erf reference's -x^2
kernels) by one of two scalar sums: the Kummer-transformed series up to
-x = 50 and the large-argument expansion beyond.  For the erf reference's
parameters each is within about 3e-15 relative of 40-digit values, away
from the zeros of 1F1.

Everything here is pure and deterministic: sums run in fixed ascending index
order and tables are plain immutable arrays.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import NumericError

_KUMMER_MAX_TERMS = 20000
# -x above which kummer_1f1 takes the large-argument expansion instead of the
# transformed series (see its docstring for why 50).
_TRANSFORM_CUT = 50.0


class RatioKind(Enum):
    V1 = "v1"
    V2 = "v2"


def check_order(alpha: float) -> None:
    """Raise ValueError unless the order alpha lies in (0, 2)."""
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"order must lie in (0, 2), got {alpha}")


def c_alpha(alpha: float) -> float:
    """Normalization constant of the symmetric fractional operator,
    alpha * 2^(alpha-1) * Gamma(1/2 + alpha/2) / (sqrt(pi) * Gamma(1 - alpha/2))."""
    check_order(alpha)
    return (
        alpha
        * 2.0 ** (alpha - 1.0)
        * math.gamma(0.5 + 0.5 * alpha)
        / (math.sqrt(math.pi) * math.gamma(1.0 - 0.5 * alpha))
    )


def check_skewness(alpha: float, gamma_skew: float) -> None:
    """Validate alpha in (0,2) and |gamma| <= min(alpha, 2 - alpha)."""
    check_order(alpha)
    bound = min(alpha, 2.0 - alpha)
    if not abs(gamma_skew) <= bound + 1e-15:
        raise ValueError(
            f"skewness |{gamma_skew}| exceeds min(alpha, 2-alpha) = {bound}"
        )


def rf_coeffs(alpha: float, gamma_skew: float) -> tuple[float, float]:
    """Left/right weights (c1, c2): c1 = Gamma(1+a) sin((a-g) pi/2) / pi and
    c2 = Gamma(1+a) sin((a+g) pi/2) / pi."""
    check_skewness(alpha, gamma_skew)
    g1a = math.gamma(1.0 + alpha) / math.pi
    c1 = g1a * math.sin((alpha - gamma_skew) * math.pi / 2.0)
    c2 = g1a * math.sin((alpha + gamma_skew) * math.pi / 2.0)
    return c1, c2


def hyp2f1_terminating(m: int, alpha: float, z: complex, c: float = 2.0) -> complex:
    """Terminating Gauss sum 2F1(-m, 1 + alpha; c; z), m >= 0.

    Summed in ascending n with the term recurrence, so results are exactly
    reproducible and conjugate-symmetric in z.
    """
    if m < 0:
        raise ValueError(f"m must be a nonnegative integer, got {m}")
    total = complex(1.0, 0.0)
    term = complex(1.0, 0.0)
    for n in range(m):
        term *= (-m + n) * (1.0 + alpha + n) / ((c + n) * (n + 1.0)) * z
        total += term
    return total


def _kummer_series(a: float, b: float, x: float, max_terms: int) -> float:
    total = 1.0
    term = 1.0
    small = 0
    for n in range(max_terms):
        term *= (a + n) / ((b + n) * (n + 1.0)) * x
        total += term
        if abs(term) <= 1e-17 * abs(total):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
    raise NumericError(
        f"Kummer series did not converge within {max_terms} terms "
        f"(a={a}, b={b}, x={x})"
    )


def _kummer_transformed(a: float, b: float, x: float) -> float:
    # 1F1(a,b,x) = exp(x) 1F1(b-a, b, -x); for x < 0 the transformed series
    # has positive argument and no cancellation, and below the cut its
    # partial sums stay under about exp(_TRANSFORM_CUT), far inside range.
    try:
        return math.exp(x) * _kummer_series(b - a, b, -x, _KUMMER_MAX_TERMS)
    except NumericError:
        raise NumericError(
            f"Kummer transformed series did not converge within "
            f"{_KUMMER_MAX_TERMS} terms (a={a}, b={b}, x={x})"
        ) from None


def _kummer_asymptotic(a: float, b: float, x: float) -> float:
    # Large negative argument: 1F1(a,b,-y) ~ Gamma(b)/Gamma(b-a) * y^(-a)
    # * sum_s (a)_s (a-b+1)_s / (s! y^s); the exp(-y) branch is negligible.
    y = -x
    total = 1.0
    term = 1.0
    prev = math.inf
    for s in range(60):
        term *= (a + s) * (a - b + 1.0 + s) / ((s + 1.0) * y)
        if abs(term) >= prev:
            break
        total += term
        prev = abs(term)
        if abs(term) <= 1e-17 * abs(total):
            break
    prefac = math.gamma(b) / math.gamma(b - a) * y ** (-a)
    return prefac * total


def kummer_1f1(a: float, b: float, x: float) -> float:
    """Confluent hypergeometric 1F1(a; b; x) for real parameters, tuned for
    the nonpositive arguments arising from -x^2 kernels.

    Positive arguments sum the series directly.  For -50 <= x < 0 the sum
    goes through the Kummer transformation 1F1(a,b,x) = exp(x)
    1F1(b-a,b,-x): the transformed series has a single sign change at most,
    so the cancellation that ruins the direct alternating series (error
    ~ eps * exp(|x|)) never appears, and its partial sums stay below about
    e^50.  For x < -50 the large-argument expansion (DLMF 13.7(i)) takes
    over in about 30 terms.  The cut at 50 lies past the crossover: for the
    erf parameter pairs (alpha/2, 1/2) and ((1+alpha)/2, 3/2), alpha in
    [0.05, 1.95], the expansion is within about 2e-12 of 40-digit values
    on -x in [36, 42], 5e-15 on [42, 46] and 1.2e-15 from 46 on, while the
    transformed series drifts to 9e-15 on [50, 80] and 7e-14 on [80, 700]
    as its terms grow.
    """
    if b <= 0.0 and b == math.floor(b):
        raise ValueError(f"b must not be a nonpositive integer, got {b}")
    if x == 0.0:
        return 1.0
    ap = b - a
    if ap <= 0.0 and ap == math.floor(ap):
        # (b-a)_n vanishes for n > -(b-a): the transformed series terminates.
        return math.exp(x) * _kummer_series(ap, b, -x, max_terms=int(-ap) + 2)
    if x > 0.0:
        return _kummer_series(a, b, x, _KUMMER_MAX_TERMS)
    if -x <= _TRANSFORM_CUT:
        return _kummer_transformed(a, b, x)
    return _kummer_asymptotic(a, b, x)


def ratio_table(alpha: float, kind: RatioKind, p_max: int) -> np.ndarray:
    """Gamma((-1 +/- alpha)/2 + p) / Gamma((3 -/+ alpha)/2 + p) for
    p = 0..p_max as a read-only array, built by the one-step recurrence from
    the p = 0 value, so consecutive entries satisfy the exact one-step
    ratio."""
    if not (0.0 < alpha < 2.0) or alpha == 1.0:
        raise ValueError(f"order must lie in (0,1) or (1,2), got {alpha}")
    if p_max < 0:
        raise ValueError(f"p_max must be nonnegative, got {p_max}")
    if kind is RatioKind.V1:
        num0 = (-1.0 + alpha) / 2.0
        den0 = (3.0 - alpha) / 2.0
    else:
        num0 = (-1.0 - alpha) / 2.0
        den0 = (3.0 + alpha) / 2.0
    v0 = math.gamma(num0) / math.gamma(den0)
    p = np.arange(p_max, dtype=np.float64)
    ratios = (num0 + p) / (den0 + p)
    values = np.empty(p_max + 1, dtype=np.float64)
    values[0] = v0
    np.cumprod(ratios, out=ratios)
    values[1:] = v0 * ratios
    values.setflags(write=False)
    return values

