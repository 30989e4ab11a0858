"""Reference formulas that only the tests check the package against: the
Christov-type basis functions and their operator values, the order-1
odd-index formulas, the x = 0 anchors for odd indices, the full-spectrum
analysis, fast nodal synthesis, the full matrix as RFM1 writes it, the
gamma-ratio tables as plain array expressions and Kummer 1F1 by its
per-term recurrences.

Imported by the test modules; pytest does not collect it.
"""

from __future__ import annotations

import cmath
import io
import math

import numpy as np

from rfspectral.basis import KRASNY_EPS, CoeffVector, lambda_k, mode_numbers
from rfspectral.closedform import OperatorKind, phase_factor, validate_kind
from rfspectral.errors import NumericError
from rfspectral.opmatrix import serialize


def full_payload(matrix):
    """The full N x N matrix as RFM1 writes it, implied columns included."""
    buf = io.BytesIO()
    serialize(matrix, buf)
    payload = buf.getvalue()[-16 * matrix.n * matrix.n :]
    return np.frombuffer(payload, dtype=np.complex128).reshape(matrix.n, matrix.n)


# --- Basis ----------------------------------------------------------------


def phi_k(x, k: int):
    """Half-index variant ((ix - 1)/(ix + 1))^(k/2) = exp(i k arccot(x))."""
    theta = np.arctan2(1.0, x)
    return np.exp(1j * k * theta)


def mu_k(x, k: int):
    """(ix - 1)^k / (ix + 1)^(k+1), identically (lambda_k - lambda_{k+1})/2."""
    return 0.5 * (lambda_k(x, k) - lambda_k(x, k + 1))


def full_analysis(samples) -> np.ndarray:
    """All N coefficients u_k = (exp(-i pi k / N) / N) * DFT(samples) in DFT
    mode order, with the same relative Krasny filter as `basis.analyze`."""
    samples = np.asarray(samples)
    n = len(samples)
    k = mode_numbers(n)
    coeffs = np.fft.fft(samples) * np.exp(-1j * math.pi * k / n) / n
    magnitude = np.abs(coeffs)
    coeffs[magnitude <= KRASNY_EPS * magnitude.max()] = 0.0
    return coeffs


def synthesize_nodes(coeffs: CoeffVector) -> np.ndarray:
    """Fast evaluation of the real mode sum at the grid nodes via the
    inverse real FFT."""
    n = coeffs.n
    k = np.arange(n // 2 + 1)
    return np.fft.irfft(coeffs.coeffs * np.exp(1j * math.pi * k / n), n) * n


_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def unit_imag_power(n: int) -> complex:
    """i**n for integer n, exact."""
    return _I_POWERS[n % 4]


# --- Christov-type functions ----------------------------------------------


def _hyp2f1_sum(m: int, alpha: float, z: complex) -> complex:
    # 2F1(-m, 1 + alpha; 1; z), m >= 0, summed term by term in ascending n.
    # The terms cancel as m grows, so the tests use it at small m only.
    total = complex(1.0, 0.0)
    term = complex(1.0, 0.0)
    for n in range(m):
        term *= (-m + n) * (1.0 + alpha + n) / ((1.0 + n) * (n + 1.0)) * z
        total += term
    return total


def frac_lap_mu(alpha: float, k: int, x: float) -> complex:
    """Symmetric fractional operator on the k-th Christov-type basis
    function, via the terminating hypergeometric form with third parameter 1."""
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"order must lie in (0, 2), got {alpha}")
    ga = math.gamma(1.0 + alpha)
    if k >= 0:
        base = 1.0 + 1j * x
        return ga / base ** (1.0 + alpha) * _hyp2f1_sum(k, alpha, 2.0 / base)
    base = 1.0 - 1j * x
    return -ga / base ** (1.0 + alpha) * _hyp2f1_sum(-(1 + k), alpha, 2.0 / base)


def op_mu(
    kind: OperatorKind, alpha: float, k: int, x: float, gamma: float = 0.0
) -> complex:
    """Any supported operator applied to the k-th Christov-type function.

    The mode-sign convention follows the (lambda_k - lambda_{k+1})/2
    decomposition: the k = 0 term takes the sign of k + 1 because the
    lambda_0 contribution vanishes.
    """
    validate_kind(kind, alpha, gamma)
    phase = phase_factor(kind, alpha, gamma)
    return (phase if k >= 0 else phase.conjugate()) * frac_lap_mu(alpha, k, x)


# --- Odd-index half-basis functions ---------------------------------------


def _odd_k_bracket(k: int, s: float) -> complex:
    sgn = 1 if k > 0 else -1
    log_cot_half = math.log(math.cos(0.5 * s)) - math.log(math.sin(0.5 * s))
    total = math.cos(s) + math.sin(s) ** 2 * log_cot_half + 0.0j
    for n in range((abs(k) - 1) // 2 + 1):
        total += 4.0 * cmath.exp(-1j * sgn * (2 * n + 1) * s) / (
            (2 * n - 1.0) * (2 * n + 1.0) * (2 * n + 3.0)
        )
    return total


def half_lap_phi_odd(k: int, s: float) -> complex:
    """Order-1 symmetric operator on the odd-index half-basis function,
    expressed in s. Diverges logarithmically at the interval endpoints."""
    if k % 2 == 0:
        raise ValueError(f"k must be odd, got {k}")
    if not 0.0 < s < math.pi:
        raise ValueError(f"s must lie in (0, pi), got {s}")
    sgn = 1 if k > 0 else -1
    return -2j * sgn / (math.pi * (2.0 + abs(k))) - (
        2j * k * cmath.exp(1j * k * s) / math.pi
    ) * _odd_k_bracket(k, s)


def d1gamma_phi_odd(k: int, gamma: float, s: float) -> complex:
    """Order-1 skewed operator on the odd-index half-basis function:
    -cos(g pi/2) times the symmetric value plus sin(g pi/2) times the
    mapped derivative -i k sin^2(s) exp(i k s)."""
    if k % 2 == 0:
        raise ValueError(f"k must be odd, got {k}")
    if abs(gamma) > 1.0:
        raise ValueError(f"skewness must satisfy |gamma| <= 1, got {gamma}")
    half_pi = math.pi / 2.0
    deriv = -1j * k * math.sin(s) ** 2 * cmath.exp(1j * k * s)
    return -math.cos(gamma * half_pi) * half_lap_phi_odd(k, s) + math.sin(
        gamma * half_pi
    ) * deriv


def weyl_phi_at_zero(alpha: float, k: int) -> tuple[complex, complex, complex]:
    """Values at x = 0 of the right, minus-left and symmetric operators on
    the odd-index half-basis function, as finite gamma sums."""
    if k % 2 == 0 or k <= 0:
        raise ValueError(f"k must be a positive odd integer, got {k}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"order must lie in (0, 1), got {alpha}")
    sum_right = 0.0 + 0.0j
    sum_left = 0.0 + 0.0j
    sum_sym = 0.0
    for n in range(k + 1):
        g = (
            math.comb(k, n)
            * math.gamma((1.0 + alpha + k - n) / 2.0)
            * math.gamma((1.0 - alpha + n) / 2.0)
        )
        i_n = unit_imag_power(n)
        sum_right += i_n * g
        sum_left += i_n.conjugate() * g
        sum_sym += math.sin(n * math.pi / 2.0) * g
    front = -unit_imag_power(1 + k) * k / (
        2.0 * math.gamma(1.0 - alpha) * math.gamma(1.0 + k / 2.0)
    )
    d_right = front * sum_right
    d_left_neg = front * sum_left
    lap = (
        unit_imag_power(k)
        * 2.0 ** alpha
        * math.gamma((1.0 + alpha) / 2.0)
        / (math.sqrt(math.pi) * math.gamma(k / 2.0) * math.gamma(1.0 - alpha / 2.0))
        * sum_sym
    )
    return d_right, d_left_neg, lap


# --- Gamma-ratio tables ---------------------------------------------------


def ratio_table_reference(order: float, p_max: int) -> np.ndarray:
    """`specfun.ratio_table`'s entries as the formula it builds in place:
    the ratios (num0 + p) / (den0 + p), their running product by
    `np.cumprod`, then v0 times it, behind v0 = Gamma(num0) / Gamma(den0)."""
    num0 = (-1.0 + order) / 2.0
    den0 = (3.0 - order) / 2.0
    v0 = math.gamma(num0) / math.gamma(den0)
    p = np.arange(p_max, dtype=np.float64)
    return np.concatenate(([v0], v0 * np.cumprod((num0 + p) / (den0 + p))))


# --- Kummer 1F1 -----------------------------------------------------------


def _kummer_series_by_recurrence(a: float, b: float, x: float, max_terms: int) -> float:
    total = 1.0
    term = 1.0
    small = 0
    n = 0.0
    for _ in range(max_terms):
        term *= (a + n) / ((b + n) * (n + 1.0)) * x
        n += 1.0
        total += term
        if abs(term) <= 1e-17 * abs(total):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
    raise NumericError(f"no convergence within {max_terms} terms")


def _kummer_asymptotic_by_recurrence(a: float, b: float, x: float) -> float:
    y = -x
    total = 1.0
    term = 1.0
    prev = math.inf
    s = 0.0
    for _ in range(60):
        term *= (a + s) * (a - b + 1.0 + s) / ((s + 1.0) * y)
        s += 1.0
        if abs(term) >= prev:
            break
        total += term
        prev = abs(term)
        if abs(term) <= 1e-17 * abs(total):
            break
    prefac = math.gamma(b) / math.gamma(b - a) * y ** (-a)
    return prefac * total


def kummer_1f1_by_recurrence(a: float, b: float, x: float) -> float:
    """`specfun.kummer_1f1`'s branches at x <= 0 with every term ratio
    computed in the loop: the Kummer-transformed series exp(x)
    1F1(b-a, b, -x) for -50 <= x < 0 (terminating when b - a is a
    nonpositive integer, and then 0 at x = -inf) and the large-argument
    expansion for x < -50.  Each term is the same double as the kernel's
    table-driven loops compute, and the stop tests compare abs() of terms
    and sums, whatever their signs.  The series is not bounded by the
    kernel's table; it raises NumericError where it does not converge within
    20000 terms."""
    if x == 0.0:
        return 1.0
    ap = b - a
    if ap <= 0.0 and ap == math.floor(ap):
        if x == -math.inf:
            return 0.0
        return math.exp(x) * _kummer_series_by_recurrence(ap, b, -x, int(-ap) + 2)
    if -x > 50.0:
        return _kummer_asymptotic_by_recurrence(a, b, x)
    return math.exp(x) * _kummer_series_by_recurrence(ap, b, -x, 20000)
