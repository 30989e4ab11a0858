"""Analytic operator formulas.

Covers the six supported operators applied to the rational basis functions
in their x-domain hypergeometric forms (the s-domain gamma-ratio series is
summed only in `opmatrix`), the exact reference solutions for arctan,
erf and ln(1+x^2) and the arctan split that makes a function's mapped
image periodic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .basis import lambda_k
from .specfun import check_order, check_skewness, kummer_1f1


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
    function at x, -2|k| Gamma(b) (1 + i sgn(k) x)^(-b) F_{|k|-1} with
    b = 1 + alpha and F_m = 2F1(-m, b; 2; 2/(1 + i sgn(k) x)).

    F_m comes from Gauss's contiguous relation in the first parameter
    (DLMF 15.5.11), (j + 2) F_{j+1} = (2j + 2 - (b + j) z) F_j
    + j (z - 1) F_{j-1}, stepped up from F_0 = 1 in complex double; the
    term-by-term sum cancels as |k| grows.  Against 40-digit values over
    |k| <= 511 and |x| <= 300 it is within about 2e-12 (alpha = 0.05 to
    1.37) and 3e-11 (alpha = 1.95) of 2|k| Gamma(b) (1 + x^2)^(-b/2).  At
    alpha = 1, where F_m = (1 - z)^m, it takes that closed form.
    """
    check_order(alpha)
    if k == 0:
        return 0.0 + 0.0j
    if alpha == 1.0:
        return 2.0 * abs(k) * complex(lambda_k(x, k)) / (1.0 + x * x)
    sgn = 1 if k > 0 else -1
    base = 1.0 + 1j * sgn * x
    z = 2.0 / base
    b = 1.0 + alpha
    # F_{-1} is multiplied by j = 0 in the first step, so any value starts it.
    f_prev, f = 0.0, 1.0 + 0.0j
    for j in range(abs(k) - 1):
        step = (2 * j + 2 - (b + j) * z) * f + j * (z - 1.0) * f_prev
        f_prev, f = f, step / (j + 2)
    return -2.0 * abs(k) * math.gamma(b) / base ** b * f


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


# Past |x| = 2^511, 1 + x^2 rounds to x^2, and from |x| ~ 1.34e154 on x^2
# overflows to inf.
_POWER_TAIL = 2.0 ** 511


def _tail_rule(x, near, far):
    # near(x) for |x| <= _POWER_TAIL and far(|x|) past it.  Each form sees
    # only its own nodes: x^(-alpha) at x = 0 would divide by zero.
    x = np.asarray(x, dtype=np.float64)
    size = np.abs(x)
    tail = size > _POWER_TAIL
    values = np.empty(x.shape)
    values[~tail] = near(x[~tail])
    values[tail] = far(size[tail])
    return values


def _power_amplitude(alpha, x):
    # Gamma(alpha) (1 + x^2)^(-alpha/2) exp(-i alpha atan x), with the power
    # taken as |x|^(-alpha) past _POWER_TAIL.
    x = np.asarray(x, dtype=np.float64)
    power = _tail_rule(
        x, lambda t: (1.0 + t * t) ** (-alpha / 2.0), lambda t: t ** (-alpha)
    )
    return math.gamma(alpha) * power * np.exp(-1j * alpha * np.arctan(x))


def _arctan_amplitude(alpha, x):
    return 1j * _power_amplitude(alpha, x)


def _log1psq_amplitude(alpha, x):
    return -2.0 * _power_amplitude(alpha, x)


def _log1psq_values(x):
    # ln(1 + x^2), taken as 2 ln|x| past _POWER_TAIL, as _power_amplitude
    # takes its power.
    return _tail_rule(x, lambda t: np.log1p(t * t), lambda t: 2.0 * np.log(t))


def _mirror_order(n):
    idx = np.arange(n)
    pairs = np.column_stack((idx[: n // 2], idx[::-1][: n // 2])).ravel()
    return np.concatenate((pairs, idx[n // 2 : n - n // 2]))


def _erf_terms(alpha, x):
    x = np.asarray(x, dtype=np.float64)
    # Nodes j, N-1-j, ... and the odd-N middle one: on an antisymmetric grid
    # each second call repeats the first's argument, which kummer_1f1's memo
    # holds.  Python floats, not numpy scalars, go in (see its docstring).
    order = _mirror_order(x.size)
    y = [-t * t for t in x.ravel()[order].tolist()]
    f1 = np.empty(x.size)
    f1[order] = [kummer_1f1(alpha / 2.0, 0.5, v) for v in y]
    f2 = np.empty(x.size)
    f2[order] = [kummer_1f1((1.0 + alpha) / 2.0, 1.5, v) for v in y]
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
class AuxDecomposition:
    """Split u = w + offset + scale * arctan, with scale and offset chosen so
    that w has equal limits at both infinities."""

    scale: float
    offset: float = 0.0

    def aux_values(self, x):
        return self.offset + self.scale * ARCTAN.value(x)

    def aux_operator(self, kind: OperatorKind, alpha: float, gamma: float, x):
        # The additive offset is annihilated by every supported operator.
        return self.scale * reference_operator(ARCTAN, kind, alpha, gamma, x)


@dataclass(frozen=True)
class ClosedFormFunction:
    """A reference function: its value, its derivative (scalar, for the
    quadrature oracle), a bound on |u|, the complex amplitude whose phase
    rotations give every supported operator exactly, and the auxiliary split
    that makes its mapped image periodic (None when its limits at both
    infinities already agree)."""

    name: str
    value: Callable
    derivative: Callable
    sup: float
    amplitude: Callable
    aux: AuxDecomposition | None


ARCTAN = ClosedFormFunction(
    name="arctan",
    value=np.arctan,
    derivative=lambda x: 1.0 / (1.0 + x * x),
    sup=math.pi / 2.0,
    amplitude=_arctan_amplitude,
    aux=AuxDecomposition(scale=1.0),
)

# erf shares arctan's +-limits up to the factor 2/pi.
ERF = ClosedFormFunction(
    name="erf",
    value=_erf_values,
    derivative=lambda x: 2.0 / math.sqrt(math.pi) * math.exp(-x * x),
    sup=1.0,
    amplitude=_erf_amplitude,
    aux=AuxDecomposition(scale=2.0 / math.pi),
)

LOG1PSQ = ClosedFormFunction(
    name="log1psq",
    value=_log1psq_values,
    derivative=lambda x: 2.0 * x / (1.0 + x * x),
    sup=30.0,
    amplitude=_log1psq_amplitude,
    aux=None,
)

CLOSED_FORMS = {f.name: f for f in (ARCTAN, ERF, LOG1PSQ)}


def reference_operator(
    func: ClosedFormFunction,
    kind: OperatorKind,
    alpha: float,
    gamma: float,
    x,
):
    """Exact operator value of a reference function, given as its
    `ClosedFormFunction` entry (look a name up in `CLOSED_FORMS`)."""
    validate_kind(kind, alpha, gamma)
    return np.real(phase_factor(kind, alpha, gamma) * func.amplitude(alpha, x))
