"""Apply a supported operator to a function on the real line.

Functions whose limits at -inf and +inf differ are handled by subtracting a
multiple of arctan first, so that the remainder maps to a periodic function
of s; the operator of the auxiliary is added back exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import SpectralGrid, analyze, make_grid
from .closedform import ARCTAN, CLOSED_FORMS, OperatorKind, reference_operator
from .errors import NumericError
from .opmatrix import OperatorMatrix, apply as matrix_apply, build_base_matrix, scale_to_operator


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
class ApplyReport:
    grid: SpectralGrid
    approx: np.ndarray
    exact: np.ndarray | None = None
    linf_error: float | None = None


# Aux decompositions making U(s) periodic for the shipped reference
# functions: erf shares arctan's +-limits up to the factor 2/pi; the even
# log function needs no correction.
DEFAULT_AUX: dict[str, AuxDecomposition | None] = {
    "erf": AuxDecomposition(scale=2.0 / math.pi),
    "arctan": AuxDecomposition(scale=1.0),
    "log1psq": None,
}


def apply_with_aux(
    u,
    decomp: AuxDecomposition | None,
    matrix: OperatorMatrix,
    exact: str | None = None,
) -> ApplyReport:
    """Operator of u, a callable on x, via the auxiliary split, on the nodes
    of the matrix's N and L.  `exact`, a registered closed form's name,
    fills the report's exact values and error field.  Raises NumericError if
    the operator values, or the exact values asked for, are not all
    finite."""
    grid = make_grid(matrix.n, matrix.l_scale)
    x = grid.x_nodes
    samples = u(x)
    if decomp is not None:
        samples = samples - decomp.aux_values(x)
    approx = matrix_apply(matrix, analyze(samples))
    if decomp is not None:
        approx += decomp.aux_operator(matrix.kind, matrix.alpha, matrix.gamma, x)
    _check_finite(approx, "operator", matrix)
    if exact is None:
        return ApplyReport(grid=grid, approx=approx)
    exact_values = reference_operator(
        exact, matrix.kind, matrix.alpha, matrix.gamma, x
    )
    _check_finite(exact_values, f"exact {exact}", matrix)
    linf = float(np.max(np.abs(approx - exact_values)))
    return ApplyReport(grid=grid, approx=approx, exact=exact_values, linf_error=linf)


def _check_finite(values, what, matrix) -> None:
    if not np.all(np.isfinite(values)):
        raise NumericError(
            f"non-finite {what} values at N = {matrix.n}, L = {matrix.l_scale}"
        )


def apply_reference(
    func_name: str,
    kind: OperatorKind,
    alpha: float,
    gamma: float,
    n: int,
    l_scale: float,
    l_lim: int,
    base: OperatorMatrix | None = None,
) -> ApplyReport:
    """Full pipeline for one of the registered reference functions, returning
    nodal approximation, exact values and the max-norm error.  A given base
    must match alpha, n and l_lim."""
    func = CLOSED_FORMS[func_name]
    if base is None:
        base = build_base_matrix(alpha, n, l_lim)
    elif (base.alpha, base.n, base.l_lim) != (alpha, n, l_lim):
        raise ValueError(
            f"base matrix (alpha, N, l_lim) = {(base.alpha, base.n, base.l_lim)} "
            f"does not match {(alpha, n, l_lim)}"
        )
    matrix = scale_to_operator(base, kind, gamma, l_scale)
    return apply_with_aux(func.value, DEFAULT_AUX[func_name], matrix, exact=func_name)


def sweep_errors(
    func_name: str,
    kind: OperatorKind,
    alpha: float,
    gamma: float,
    n_list,
    l_list,
    l_lim: int,
    jobs: int = 1,
):
    """Max-norm error for every (N, L) cell; returns an array of shape
    (len(l_list), len(n_list)) with rows indexed by L.  One base per N, built
    on `jobs` threads and released before the next build."""
    n_list = list(n_list)
    l_list = list(l_list)
    errors = np.empty((len(l_list), len(n_list)))
    for col, n in enumerate(n_list):
        base = build_base_matrix(alpha, n, l_lim, jobs=jobs)
        for row, l_scale in enumerate(l_list):
            report = apply_reference(
                func_name, kind, alpha, gamma, n, l_scale, l_lim, base=base
            )
            errors[row, col] = report.linf_error
        del base
    return errors
