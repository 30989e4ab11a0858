"""Analytic operator formulas.

Covers the six supported operators applied to the rational basis functions
in their x-domain hypergeometric forms (the s-domain gamma-ratio series is
summed only in `opmatrix`) and the exact reference solutions for arctan,
erf and ln(1+x^2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .basis import lambda_k
from .specfun import check_order, check_skewness, hyp2f1_terminating, kummer_1f1


class OperatorKind(Enum):
    WEYL_RIGHT = "dr"
    WEYL_LEFT_NEG = "dl"
    DX_WEYL_RIGHT = "dxr"
    DX_WEYL_LEFT_NEG = "dxl"
    RIESZ_FELLER = "rf"
    FRAC_LAPLACIAN = "fl"


def validate_kind(kind: OperatorKind, alpha: float, gamma: float = 0.0) -> None:
    """Check the (kind, alpha, gamma) compatibility rules: only rf takes a
    skewness, every other kind needs gamma == 0."""
    if kind is not OperatorKind.RIESZ_FELLER and gamma != 0.0:
        raise ValueError(f"{kind.name} takes no skewness, got gamma = {gamma}")
    if kind in (OperatorKind.WEYL_RIGHT, OperatorKind.WEYL_LEFT_NEG):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"{kind.name} requires alpha in (0,1), got {alpha}")
    elif kind in (OperatorKind.DX_WEYL_RIGHT, OperatorKind.DX_WEYL_LEFT_NEG):
        if not 1.0 < alpha < 2.0:
            raise ValueError(f"{kind.name} requires alpha in (1,2), got {alpha}")
    elif kind is OperatorKind.RIESZ_FELLER:
        check_skewness(alpha, gamma)
    else:
        check_order(alpha)


def phase_factor(kind: OperatorKind, alpha: float, gamma: float) -> complex:
    """Multiplier turning the symmetric-operator value of a basis function
    of positive mode into the requested operator's value; negative modes
    take its conjugate."""
    half_pi = math.pi / 2.0
    if kind is OperatorKind.WEYL_RIGHT or kind is OperatorKind.DX_WEYL_RIGHT:
        return cmath.exp(-1j * alpha * half_pi)
    if kind is OperatorKind.WEYL_LEFT_NEG:
        return -cmath.exp(1j * alpha * half_pi)
    if kind is OperatorKind.DX_WEYL_LEFT_NEG:
        return cmath.exp(1j * alpha * half_pi)
    if kind is OperatorKind.RIESZ_FELLER:
        return -cmath.exp(1j * gamma * half_pi)
    return 1.0 + 0.0j


def frac_lap_lambda(alpha: float, k: int, x: float) -> complex:
    """Symmetric fractional operator applied to the k-th rational basis
    function at x, via the terminating hypergeometric form.

    The finite sum cancels as |k| grows.  Against the matrix columns
    (N = 1024, L = 1, alpha = 0.62) it departs, relative to the column's
    largest entry, by about 3e-13 at k = 8, 1e-9 at k = 16 and 4e-2 at
    k = 32, so past |k| of about 8 use the s-domain series of the operator
    matrix (`opmatrix.build_base_matrix`) instead.
    """
    check_order(alpha)
    if k == 0:
        return 0.0 + 0.0j
    if alpha == 1.0:
        return 2.0 * abs(k) * complex(lambda_k(x, k)) / (1.0 + x * x)
    sgn = 1 if k > 0 else -1
    base = 1.0 + 1j * sgn * x
    z = 2.0 / base
    front = -2.0 * abs(k) * math.gamma(1.0 + alpha) / base ** (1.0 + alpha)
    return front * hyp2f1_terminating(abs(k) - 1, alpha, z)


def op_lambda(
    kind: OperatorKind, alpha: float, k: int, x: float, gamma: float = 0.0
) -> complex:
    """Any supported operator applied to the k-th rational basis function."""
    validate_kind(kind, alpha, gamma)
    if k == 0:
        return 0.0 + 0.0j
    phase = phase_factor(kind, alpha, gamma)
    return (phase if k > 0 else phase.conjugate()) * frac_lap_lambda(alpha, k, x)


# --- Reference solutions --------------------------------------------------
#
# Every supported operator of a reference function u is
# Re(phase_factor(kind, alpha, gamma) * A(x)) for one complex amplitude
# A: the same phases the matrix columns of positive modes pick up, so the
# symmetric operator is Re A and the other five kinds are rotations of it.


def _power_amplitude(alpha, x):
    # Gamma(alpha) (1 + x^2)^(-alpha/2) exp(-i alpha atan x)
    return (
        math.gamma(alpha)
        * (1.0 + x * x) ** (-alpha / 2.0)
        * np.exp(-1j * alpha * np.arctan(x))
    )


def _arctan_amplitude(alpha, x):
    return 1j * _power_amplitude(alpha, x)


def _log1psq_amplitude(alpha, x):
    return -2.0 * _power_amplitude(alpha, x)


def _erf_terms(alpha, x):
    x = np.asarray(x, dtype=np.float64)
    f1 = np.array([kummer_1f1(alpha / 2.0, 0.5, -t * t) for t in x.ravel()])
    f2 = np.array(
        [kummer_1f1((1.0 + alpha) / 2.0, 1.5, -t * t) for t in x.ravel()]
    )
    a_term = 2.0 ** alpha / math.pi * math.gamma(alpha / 2.0) * f1.reshape(x.shape)
    b_term = (
        2.0 ** (1.0 + alpha)
        / math.pi
        * math.gamma((1.0 + alpha) / 2.0)
        * x
        * f2.reshape(x.shape)
    )
    return a_term, b_term


def _erf_values(x):
    # Imported on first use, so that only runs that evaluate erf load it.
    from scipy.special import erf

    return erf(x)


def _erf_amplitude(alpha, x):
    a_term, b_term = _erf_terms(alpha, x)
    return b_term + 1j * a_term


@dataclass(frozen=True)
class ClosedFormFunction:
    """A reference function: its value, its derivative (scalar, for the
    quadrature oracle), a bound on |u| and the complex amplitude whose phase
    rotations give every supported operator exactly."""

    name: str
    value: Callable
    derivative: Callable
    sup: float
    amplitude: Callable


ARCTAN = ClosedFormFunction(
    name="arctan",
    value=np.arctan,
    derivative=lambda x: 1.0 / (1.0 + x * x),
    sup=math.pi / 2.0,
    amplitude=_arctan_amplitude,
)

ERF = ClosedFormFunction(
    name="erf",
    value=_erf_values,
    derivative=lambda x: 2.0 / math.sqrt(math.pi) * math.exp(-x * x),
    sup=1.0,
    amplitude=_erf_amplitude,
)

LOG1PSQ = ClosedFormFunction(
    name="log1psq",
    value=lambda x: np.log1p(np.asarray(x) ** 2),
    derivative=lambda x: 2.0 * x / (1.0 + x * x),
    sup=30.0,
    amplitude=_log1psq_amplitude,
)

CLOSED_FORMS = {f.name: f for f in (ARCTAN, ERF, LOG1PSQ)}


def reference_operator(
    func: ClosedFormFunction | str,
    kind: OperatorKind,
    alpha: float,
    gamma: float,
    x,
):
    """Exact operator value of a registered reference function."""
    if isinstance(func, str):
        try:
            func = CLOSED_FORMS[func]
        except KeyError:
            raise ValueError(f"no closed form registered under {func!r}") from None
    validate_kind(kind, alpha, gamma)
    return np.real(phase_factor(kind, alpha, gamma) * func.amplitude(alpha, x))
