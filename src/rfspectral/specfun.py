"""Special-function kernel: the operator normalization constant, Kummer 1F1,
skewed-operator coefficients and the gamma-ratio tables feeding the series
path.

Kummer 1F1 takes what the erf reference passes, the arguments x <= 0 of its
-x^2 kernels: down to x = -50 it sums the Kummer-transformed series over at
most a cached table's terms, and beyond it the large-argument expansion,
for a >= 0 and a - b + 1 >= 0 only.  For the erf reference's parameters
each is within about 3e-15 relative of 40-digit values, away from the
zeros of 1F1.

Everything here is pure and deterministic: sums run in fixed ascending index
order, and tables are immutable: the gamma-ratio tables are read-only
arrays, and the Kummer sums' term-ratio tables, cached per (a, b), are
tuples of Python floats.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NumericError

# -x above which kummer_1f1 takes the large-argument expansion instead of the
# transformed series (see its docstring for why 50).
_TRANSFORM_CUT = 50.0
# Term ratios per cached series table, and the most terms a series sums.
# For the erf reference's parameters the transformed series stops within
# 122 terms for -x <= _TRANSFORM_CUT over alpha in (0, 2).
_TABLE_TERMS = 128
_ASYMPTOTIC_TERMS = 60
# (a, b) pairs kept per table kind: the erf reference uses two of each kind
# per alpha, so eight hold four alphas.  A caller may draw a fresh alpha for
# every operator (the benchmark's matrix-build gate does); the caches then
# evict the least recently used pair, and hold about 0.1 MB at most.
_TABLE_PAIRS = 8


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
    # Sum at x >= 0 until two terms in a row are below 1e-17 of the partial
    # sum, over at most max_terms ratios of the cached table.
    ratios = _series_ratios(a, b)[:max_terms]
    total = term = 1.0
    small = False
    if a >= 0.0 and b > 0.0:
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
    raise NumericError(
        f"Kummer series did not converge within {len(ratios)} terms "
        f"(a={a}, b={b}, x={x})"
    )


def _kummer_asymptotic(a: float, b: float, x: float) -> float:
    # Large negative argument: 1F1(a,b,-y) ~ Gamma(b)/Gamma(b-a) * y^(-a)
    # * sum_s (a)_s (a-b+1)_s / (s! y^s); the exp(-y) branch is negligible.
    # With a >= 0 and a - b + 1 >= 0, every term and partial sum is >= 0 (or
    # nan), and the stop tests need no abs().
    if not (a >= 0.0 and a - b + 1.0 >= 0.0):
        raise ValueError(
            f"the large-argument expansion takes a >= 0 and a - b + 1 >= 0, "
            f"got a={a}, b={b}"
        )
    gamma_ratio, factors = _asymptotic_table(a, b)
    y = -x
    total = term = 1.0
    prev = math.inf
    for num, den in factors:
        term *= num / (den * y)
        if term >= prev:
            break
        total += term
        prev = term
        if term <= 1e-17 * total:
            break
    return gamma_ratio * y ** (-a) * total


@functools.lru_cache(maxsize=1)
def kummer_1f1(a: float, b: float, x: float) -> float:
    """Confluent hypergeometric 1F1(a; b; x) for real parameters at x <= 0,
    the erf reference's -x^2 arguments; x > 0, +inf and nan raise ValueError.

    Down to x = -50 it sums the Kummer transformation exp(x) 1F1(b-a, b, -x),
    whose terms change sign once at most, so the direct series' cancellation
    (error ~ eps * exp(|x|)) never appears.  It reads at most _TABLE_TERMS
    term ratios, cached per (a, b), and raises NumericError past them (both
    erf pairs stop within 122 terms).  Where b - a is a nonpositive integer
    it terminates, and 1F1(a; b; -inf) = 0.  Beyond x = -50 the
    large-argument expansion (DLMF 13.7(i)) takes about 30 terms, for
    a >= 0 and a - b + 1 >= 0 only (ValueError otherwise).  The cut lies
    past the crossover: for the erf pairs (alpha/2, 1/2) and
    ((1+alpha)/2, 3/2), alpha in [0.05, 1.95], the expansion is within
    1.2e-15 of 40-digit values from -x = 46 on, and the series drifts to
    9e-15 on [50, 80].

    The series stops after two terms in a row at most 1e-17 of the partial
    sum, the expansion before a term no smaller than the last or after one
    at most 1e-17 of the sum.  Only a series whose terms can be negative
    (b - a < 0 or b < 0; for the erf pairs, the first at alpha > 1)
    compares their abs().

    Pass x as a Python float (`ndarray.tolist()`): a numpy scalar x makes
    every step of the loop numpy scalar arithmetic, about three times as
    slow, for the same value.

    It keeps its last (a, b, x) and result, and no exception: the erf
    reference passes the mirrored nodes of its antisymmetric grid in turn,
    so the second call of each pair returns the double just computed.
    After a call with numpy-scalar arguments, an equal call returns that
    call's `numpy.float64`, with the same value.
    """
    if b <= 0.0 and b == math.floor(b):
        raise ValueError(f"b must not be a nonpositive integer, got {b}")
    if not x <= 0.0:
        raise ValueError(f"x must be <= 0, got {x}")
    if x == 0.0:
        return 1.0
    ap = b - a
    if ap <= 0.0 and ap == math.floor(ap):
        # (b-a)_n vanishes for n > -(b-a): the transformed series terminates,
        # so 1F1 is exp(x) times a polynomial, which is 0 at x = -inf.
        if x == -math.inf:
            return 0.0
        return math.exp(x) * _kummer_series(ap, b, -x, int(-ap) + 2)
    if -x > _TRANSFORM_CUT:
        return _kummer_asymptotic(a, b, x)
    # Below the cut the transformed series' partial sums stay under about
    # exp(_TRANSFORM_CUT), far inside range.
    try:
        return math.exp(x) * _kummer_series(ap, b, -x, _TABLE_TERMS)
    except NumericError:
        raise NumericError(
            f"Kummer transformed series did not converge within "
            f"{_TABLE_TERMS} terms (a={a}, b={b}, x={x})"
        ) from None


def ratio_table(order: float, p_max: int) -> np.ndarray:
    """Gamma((-1 + a)/2 + p) / Gamma((3 - a)/2 + p) at the signed order a,
    for p = 0..p_max as a read-only array, built by the one-step recurrence
    from the p = 0 value, so consecutive entries satisfy the exact one-step
    ratio.  The series path's V1 is the order alpha and its V2 the order
    -alpha; |a| must lie in (0, 1) or (1, 2)."""
    if not 0.0 < abs(order) < 2.0 or abs(order) == 1.0:
        raise ValueError(f"|order| must lie in (0,1) or (1,2), got {order}")
    if p_max < 0:
        raise ValueError(f"p_max must be nonnegative, got {p_max}")
    num0 = (-1.0 + order) / 2.0
    den0 = (3.0 - order) / 2.0
    v0 = math.gamma(num0) / math.gamma(den0)
    # Built in place: entry p + 1 holds num0 + p, then the ratio over
    # den0 + p, then the running product times v0, one IEEE operation at a
    # time in that order.
    values = np.empty(p_max + 1, dtype=np.float64)
    values[0] = v0
    den = np.arange(p_max, dtype=np.float64)
    ratios = np.add(num0, den, out=values[1:])
    den += den0
    ratios /= den
    np.cumprod(ratios, out=ratios)
    ratios *= v0
    values.setflags(write=False)
    return values
