"""Independent ground truth by adaptive quadrature of the defining singular
integrals.  Slow by design; used in tests and the `oracle` CLI command only.

Each operator reduces to one or two half-line integrals with a weakly
singular weight.  The window [0, split] is regularized by the substitution
z = t^(1/(1-beta)); the outer window [split, T] by z = exp(w); both then go
to an adaptive Gauss-Kronrod integrator.  The order-(1,2) increment kernels
carry a z^-2 division whose rounding noise (~eps/z^2) derails adaptive error
estimation near zero, so their singular window is integrated by parts first,
leaving a boundary term plus a u'-increment kernel whose noise is only
~eps/z.  The truncation point T comes from the uniform bound
|u(x +/- z) - u(x)| <= 2 sup|u|.
"""

from __future__ import annotations

import math
import warnings

from .closedform import OperatorKind, validate_kind
from .errors import ConvergenceError
from .specfun import c_alpha, rf_coeffs


# The singular window is [0, _SPLIT]; each adaptive integral stops after
# _MAX_SUBDIVISIONS intervals.
_SPLIT = 1.0
_MAX_SUBDIVISIONS = 200

# Absolute and relative tolerance of `quad_operator` and `oracle --quad-tol`.
DEFAULT_TOL = 1e-9
# The error estimate each integral must meet, as `oracle` reports it: the
# tolerance is absolute below |value| = 1, so a far smaller operator value
# may come back as 0.
BUDGET_RULE = "quad_tol * max(1, |value|)"


def check_tolerance(tol: float) -> None:
    """Raise ValueError unless the quadrature tolerance is finite and > 0."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"quadrature tolerance must be finite and > 0, got {tol}")


def _tail_cut(alpha: float, u_sup: float, tol: float) -> float:
    """Truncation point at which the |z|^(-1-alpha) tail of a function
    bounded by u_sup contributes less than tol / 10."""
    tail_cut = (20.0 * u_sup / (alpha * tol)) ** (1.0 / alpha)
    return max(tail_cut, 10.0 * _SPLIT)


class _Accumulator:
    """Sums weighted quadrature pieces and their error estimates."""

    def __init__(self, tol: float, tail_cut: float, complex_valued: bool):
        self.tol = tol
        self.tail_cut = tail_cut
        self.complex_valued = complex_valued
        self.value = 0.0j if complex_valued else 0.0
        self.err = 0.0

    def _quad(self, f, a, b):
        # Imported on first use, so that only runs that integrate load it.
        from scipy.integrate import IntegrationWarning, quad

        # The returned error estimate is checked in result(); scipy's own
        # warning on a hit subdivision cap would only duplicate that.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            val, err = quad(
                f,
                a,
                b,
                epsabs=self.tol / 8.0,
                epsrel=self.tol,
                limit=_MAX_SUBDIVISIONS,
                complex_func=self.complex_valued,
            )
        return val, abs(err)

    def add_exact(self, weight, value):
        self.value += weight * value

    def add_singular(self, weight, h, beta):
        """weight * integral_0^split z^(-beta) h(z) dz, h smooth, beta < 1."""
        if beta > 0.0:
            power = 1.0 / (1.0 - beta)
            val, err = self._quad(
                lambda t: h(t ** power) * power, 0.0, _SPLIT ** (1.0 - beta)
            )
        else:
            val, err = self._quad(lambda z: h(z) * z ** (-beta), 0.0, _SPLIT)
        self.value += weight * val
        self.err += abs(weight) * err

    def add_outer(self, weight, h, beta):
        """weight * integral_split^tail z^(-beta) h(z) dz via z = exp(w)."""
        val, err = self._quad(
            lambda w: h(math.exp(w)) * math.exp((1.0 - beta) * w),
            math.log(_SPLIT),
            math.log(self.tail_cut),
        )
        self.value += weight * val
        self.err += abs(weight) * err

    def result(self, label):
        # The rule BUDGET_RULE states.
        budget = self.tol * max(1.0, abs(self.value))
        if self.err > budget:
            raise ConvergenceError(
                f"quadrature error estimate {self.err:.3g} exceeds tolerance "
                f"{budget:.3g} for {label}",
                achieved=self.value,
            )
        return self.value


def _need_du(du, kind):
    if du is None:
        raise ValueError(
            f"{kind.name} needs the derivative of u for this representation"
        )
    return du


def _weyl_first_order(acc, u, du, x, sgn, alpha, weight, representation, kind):
    """weight * integral_0^T kernel dz for the order-(0,1) one-sided kinds;
    sgn = -1 looks left (x - z), sgn = +1 looks right (x + z)."""
    if representation in ("default", "derivative"):
        d = _need_du(du, kind)
        acc.add_singular(weight, lambda z: d(x + sgn * z), alpha)
        acc.add_outer(weight, lambda z: d(x + sgn * z), alpha)
    else:
        ux = u(x)
        h = lambda z: (u(x + sgn * z) - ux) / z
        acc.add_singular(weight, h, alpha)
        acc.add_outer(weight, h, alpha)


def _increment_second_order(acc, u, du, x, sgn, alpha, weight):
    """weight * integral_0^inf (u(x + sgn z) - u(x) - sgn u'(x) z) z^(-1-alpha) dz
    for alpha in (1,2).

    The singular window is integrated by parts; on [split, inf) the u'(x) z
    moment, which decays only like z^-alpha, is integrated exactly, so only
    the bounded increment u(x + sgn z) - u(x) is truncated at the tail cut.
    """
    ux = u(x)
    dx_u = du(x)
    f_split = u(x + sgn * _SPLIT) - ux - sgn * dx_u * _SPLIT
    acc.add_exact(weight, -f_split * _SPLIT ** (-alpha) / alpha)
    acc.add_singular(
        weight / alpha,
        lambda z: sgn * (du(x + sgn * z) - dx_u) / z,
        alpha - 1.0,
    )
    acc.add_exact(
        weight, -sgn * dx_u * _SPLIT ** (1.0 - alpha) / (alpha - 1.0)
    )
    acc.add_outer(
        weight,
        lambda z: (u(x + sgn * z) - ux) / (z * z),
        alpha - 1.0,
    )


def _frac_lap(acc, u, du, x, alpha, weight, representation):
    ux = u(x)
    if representation == "derivative":
        d = _need_du(du, OperatorKind.FRAC_LAPLACIAN)
        h = lambda z: (d(x - z) - d(x + z)) / z
        acc.add_singular(weight / alpha, h, alpha - 1.0)
        acc.add_outer(weight / alpha, h, alpha - 1.0)
        return
    if alpha > 1.0 and du is not None:
        # Stabilize the singular window by parts, as in the one-sided case.
        f_split = 2.0 * ux - u(x + _SPLIT) - u(x - _SPLIT)
        acc.add_exact(weight, -f_split * _SPLIT ** (-alpha) / alpha)
        acc.add_singular(
            weight / alpha,
            lambda z: (du(x - z) - du(x + z)) / z,
            alpha - 1.0,
        )
    else:
        acc.add_singular(
            weight,
            lambda z: (2.0 * ux - u(x + z) - u(x - z)) / (z * z),
            alpha - 1.0,
        )
    acc.add_outer(
        weight,
        lambda z: (2.0 * ux - u(x + z) - u(x - z)) / (z * z),
        alpha - 1.0,
    )


def quad_operator(
    kind: OperatorKind,
    alpha: float,
    gamma: float,
    u,
    x: float,
    du=None,
    representation: str = "default",
    *,
    tol: float = DEFAULT_TOL,
    u_sup: float = 1.0,
):
    """Operator value at x by adaptive quadrature of a defining integral.

    `representation` picks between the equivalent forms where both exist:
    "difference" uses the increment kernels, "derivative" the u'-weighted
    kernels (requires du).  "default" is the increment form for the
    order-(1,2) kinds and for the symmetric operator, and the derivative
    form for the one-sided order-(0,1) kinds.  The Riesz-Feller kind has
    the default form only.

    `tol` is both the absolute and the relative tolerance; the integrals are
    cut where the tail of a function bounded by `u_sup` falls below tol / 10.
    """
    validate_kind(kind, alpha, gamma)
    check_tolerance(tol)
    if representation not in ("default", "difference", "derivative"):
        raise ValueError(f"unknown representation {representation!r}")
    if kind is OperatorKind.RIESZ_FELLER and representation != "default":
        raise ValueError(
            f"{kind.name} has only the default representation, "
            f"got {representation!r}"
        )
    # np.complex128 subclasses complex, so this covers numpy-valued u too.
    complex_valued = isinstance(u(x), complex)
    acc = _Accumulator(tol, _tail_cut(alpha, u_sup, tol), complex_valued)

    if kind is OperatorKind.WEYL_RIGHT or kind is OperatorKind.WEYL_LEFT_NEG:
        right = kind is OperatorKind.WEYL_RIGHT
        if representation == "difference":
            weight = 1.0 / math.gamma(-alpha)
            if not right:
                weight = -weight
        else:
            weight = 1.0 / math.gamma(1.0 - alpha)
        _weyl_first_order(
            acc, u, du, x, -1 if right else 1, alpha, weight, representation, kind
        )
    elif kind is OperatorKind.DX_WEYL_RIGHT or kind is OperatorKind.DX_WEYL_LEFT_NEG:
        sgn = -1 if kind is OperatorKind.DX_WEYL_RIGHT else 1
        d = _need_du(du, kind)
        if representation in ("default", "difference"):
            _increment_second_order(
                acc, u, d, x, sgn, alpha, 1.0 / math.gamma(-alpha)
            )
        else:
            weight = 1.0 / math.gamma(1.0 - alpha)
            if kind is OperatorKind.DX_WEYL_LEFT_NEG:
                weight = -weight
            dx_u = d(x)
            acc.add_singular(
                weight, lambda z: (d(x + sgn * z) - dx_u) / z, alpha - 1.0
            )
            # Exact z^(1-alpha) moment of the constant -u'(x) on [split, inf).
            acc.add_exact(
                weight, -dx_u * _SPLIT ** (1.0 - alpha) / (alpha - 1.0)
            )
            acc.add_outer(
                weight, lambda z: d(x + sgn * z) / z, alpha - 1.0
            )
    elif kind is OperatorKind.FRAC_LAPLACIAN:
        _frac_lap(acc, u, du, x, alpha, c_alpha(alpha), representation)
    else:  # Riesz-Feller
        if alpha == 1.0:
            d = _need_du(du, kind)
            half = math.pi / 2.0
            _frac_lap(acc, u, du, x, 1.0, -math.cos(gamma * half) * c_alpha(1.0),
                      "difference")
            acc.add_exact(math.sin(gamma * half), d(x))
        else:
            c1, c2 = rf_coeffs(alpha, gamma)
            if alpha < 1.0:
                _weyl_first_order(acc, u, du, x, -1, alpha, c1, "difference", kind)
                _weyl_first_order(acc, u, du, x, 1, alpha, c2, "difference", kind)
            else:
                d = _need_du(du, kind)
                _increment_second_order(acc, u, d, x, -1, alpha, c1)
                _increment_second_order(acc, u, d, x, 1, alpha, c2)
    return acc.result(f"{kind.name} at x={x}")
