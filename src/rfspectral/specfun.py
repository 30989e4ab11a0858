"""Special-function kernel: the operator normalization constant, terminating
2F1 sums, Kummer 1F1, skewed-operator coefficients and the gamma-ratio
tables feeding the series path.

Kummer 1F1 is evaluated on the nonpositive axis (the erf reference's -x^2
kernels) by one of two scalar sums: the Kummer-transformed series up to
-x = 50 and the large-argument expansion beyond.  For the erf reference's
parameters each is within about 3e-15 relative of 40-digit values, away
from the zeros of 1F1.  Each sum picks one of two loops per call.  Where
every term is >= 0 (series: a >= 0, b > 0, x > 0; expansion: a >= 0,
a - b + 1 >= 0), its stop tests compare terms and partial sums as they
are; otherwise, and in the series past its cached table, they compare
their abs().  The two loops return the same double wherever both apply.

Everything here is pure and deterministic: sums run in fixed ascending index
order, and tables are immutable: the gamma-ratio tables are read-only
arrays, and the Kummer sums' term-ratio tables, cached per (a, b), are
tuples of Python floats.
"""

from __future__ import annotations

import functools
import math
from enum import Enum

import numpy as np

from .errors import NumericError

_KUMMER_MAX_TERMS = 20000
# -x above which kummer_1f1 takes the large-argument expansion instead of the
# transformed series (see its docstring for why 50).
_TRANSFORM_CUT = 50.0
# Term ratios per cached series table.  For the erf reference's parameters
# the transformed series stops within 122 terms for -x <= _TRANSFORM_CUT
# over alpha in (0, 2); longer sums go on past the table with the same
# recurrence.
_TABLE_TERMS = 128
_ASYMPTOTIC_TERMS = 60
# (a, b) pairs kept per table kind: the erf reference uses two of each kind
# per alpha, so eight hold four alphas.  A caller may draw a fresh alpha for
# every operator (the benchmark's matrix-build gate does); the caches then
# evict the least recently used pair, and hold about 0.1 MB at most.
_TABLE_PAIRS = 8


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


@functools.lru_cache(maxsize=_TABLE_PAIRS)
def _series_ratios(a: float, b: float) -> tuple[float, ...]:
    # Term ratios (a + n) / ((b + n)(n + 1)) of the 1F1 series,
    # n = 0.._TABLE_TERMS-1, each the double the per-term recurrence computes.
    a, b = float(a), float(b)
    return tuple(
        (a + n) / ((b + n) * (n + 1.0)) for n in map(float, range(_TABLE_TERMS))
    )


@functools.lru_cache(maxsize=_TABLE_PAIRS)
def _asymptotic_table(
    a: float, b: float
) -> tuple[float, tuple[tuple[float, float], ...]]:
    # Gamma(b) / Gamma(b - a), and the numerator and denominator factors
    # ((a + s)(a - b + 1 + s), s + 1) of the large-argument expansion's term
    # ratios, s = 0.._ASYMPTOTIC_TERMS-1.
    a, b = float(a), float(b)
    factors = tuple(
        ((a + s) * (a - b + 1.0 + s), s + 1.0)
        for s in map(float, range(_ASYMPTOTIC_TERMS))
    )
    return math.gamma(b) / math.gamma(b - a), factors


def _kummer_series(a: float, b: float, x: float, max_terms: int) -> float:
    # Sum until two terms in a row are below 1e-17 of the partial sum; the
    # first _TABLE_TERMS ratios come from the cached table, the rest from
    # the same recurrence, so every term is the same double either way.
    ratios = _series_ratios(a, b)[:max_terms]
    total = term = 1.0
    small = False
    if a >= 0.0 and b > 0.0 and x > 0.0:
        # Every ratio, term and partial sum is >= 0 (or nan), so abs() is
        # the identity in the stop test and is left out.
        for r in ratios:
            term *= r * x
            total += term
            if term <= 1e-17 * total:
                if small:
                    return total
                small = True
            else:
                small = False
    else:
        for r in ratios:
            term *= r * x
            total += term
            if abs(term) <= 1e-17 * abs(total):
                if small:
                    return total
                small = True
            else:
                small = False
    n = float(len(ratios))
    for _ in range(max_terms - len(ratios)):
        term *= (a + n) / ((b + n) * (n + 1.0)) * x
        n += 1.0
        total += term
        if abs(term) <= 1e-17 * abs(total):
            if small:
                return total
            small = True
        else:
            small = False
    raise NumericError(
        f"Kummer series did not converge within {max_terms} terms "
        f"(a={a}, b={b}, x={x})"
    )


def _kummer_asymptotic(a: float, b: float, x: float) -> float:
    # Large negative argument: 1F1(a,b,-y) ~ Gamma(b)/Gamma(b-a) * y^(-a)
    # * sum_s (a)_s (a-b+1)_s / (s! y^s); the exp(-y) branch is negligible.
    gamma_ratio, factors = _asymptotic_table(a, b)
    y = -x
    total = term = 1.0
    prev = math.inf
    if a >= 0.0 and a - b + 1.0 >= 0.0:
        # (a)_s and (a-b+1)_s are >= 0 and y > 0, so every term and partial
        # sum is >= 0 (or nan), and the stop tests need no abs().
        for num, den in factors:
            term *= num / (den * y)
            if term >= prev:
                break
            total += term
            prev = term
            if term <= 1e-17 * total:
                break
    else:
        for num, den in factors:
            term *= num / (den * y)
            size = abs(term)
            if size >= prev:
                break
            total += term
            prev = size
            if size <= 1e-17 * abs(total):
                break
    return gamma_ratio * y ** (-a) * total


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

    This is a Python-float scalar kernel: each call sums its series in a
    Python loop.  The loops read their term ratios, which depend on (a, b)
    only, from tuples of Python floats cached per (a, b) (the 8 pairs last
    used by each of the two sums), so a caller evaluating many x at a few
    (a, b) builds them once; each term is the double the per-term recurrence
    gives.

    The series stops after two terms in a row at most 1e-17 of the partial
    sum; the expansion stops before a term no smaller than the one before
    it, or after one at most 1e-17 of the partial sum.  Where every term is
    >= 0 these tests compare the terms and sums as they are: the series at
    a >= 0, b > 0, x > 0 (for the erf pairs, the transformed series of the
    first at alpha <= 1 and of the second at every alpha) and the expansion
    at a >= 0, a - b + 1 >= 0 (both erf pairs, every alpha).  Every other
    (a, b, x), and the series past its cached table, compares their abs().
    Both loops give the same double wherever both apply.

    Pass x as a Python float (`ndarray.tolist()`, not iteration over an
    array): a numpy scalar x makes every step of the loop numpy scalar
    arithmetic, about three times as slow, for the same value.  Numpy scalar
    a and b cost only their few scalar steps.
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
    if -x > _TRANSFORM_CUT:
        return _kummer_asymptotic(a, b, x)
    # 1F1(a,b,x) = exp(x) 1F1(b-a, b, -x); for x < 0 the transformed series
    # has positive argument and no cancellation, and below the cut its
    # partial sums stay under about exp(_TRANSFORM_CUT), far inside range.
    try:
        return math.exp(x) * _kummer_series(ap, b, -x, _KUMMER_MAX_TERMS)
    except NumericError:
        raise NumericError(
            f"Kummer transformed series did not converge within "
            f"{_KUMMER_MAX_TERMS} terms (a={a}, b={b}, x={x})"
        ) from None


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

