"""Operational matrix mapping basis coefficients to nodal operator values.

The base matrix holds the symmetric fractional operator at map scale 1; any
of the six operator kinds is obtained from it by a 1/L^alpha scaling plus
column phase multipliers.  The series entries come from the gamma-ratio sum
folded onto the grid through the aliasing identity, truncated at |l1| <=
l_lim, with only the nonnegative modes and the top half of the rows computed
directly and the rest filled by conjugation.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._fanout import fan_out
from .basis import CoeffVector, make_grid, mode_numbers
from .closedform import OperatorKind, phase_factor, validate_kind
from .errors import BudgetError, FormatError, NumericError, StateError
from .specfun import RatioKind, c_alpha, ratio_table

_MAGIC = b"RFM1"
_HEADER = struct.Struct("<IIdddI")

_KIND_TAGS = {
    OperatorKind.FRAC_LAPLACIAN: 0,
    OperatorKind.WEYL_RIGHT: 1,
    OperatorKind.WEYL_LEFT_NEG: 2,
    OperatorKind.DX_WEYL_RIGHT: 3,
    OperatorKind.DX_WEYL_LEFT_NEG: 4,
    OperatorKind.RIESZ_FELLER: 5,
}
_TAG_KINDS = {tag: kind for kind, tag in _KIND_TAGS.items()}


@dataclass(frozen=True)
class OperatorMatrix:
    """N x N complex matrix taking DFT-ordered coefficients to nodal values."""

    kind: OperatorKind
    alpha: float
    gamma: float
    l_scale: float
    l_lim: int
    n: int
    entries: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)

    @property
    def is_base(self) -> bool:
        return self.kind is OperatorKind.FRAC_LAPLACIAN and self.l_scale == 1.0


def _nodal_transform(coeff_l2: np.ndarray, phase: np.ndarray, n: int) -> np.ndarray:
    # sum_{l2} a(l2) e^{i 2 l2 s_j} over the midpoint nodes, as a phased IFFT.
    return np.fft.ifft(coeff_l2 * phase) * n


def _mirror_fill(col: np.ndarray, n: int) -> np.ndarray:
    # Row j and row n-1-j see conjugate node phases; overwrite the bottom
    # rows so the symmetry holds exactly.
    half_down = n // 2
    col[n - half_down :] = np.conj(col[half_down - 1 :: -1])
    return col


def build_base_matrix(
    alpha: float, n: int, l_lim: int, max_work: float | None = None,
    jobs: int = 1,
) -> OperatorMatrix:
    """Base matrix (symmetric operator, map scale 1) of size N x N.

    max_work caps the series workload n*n*(2*l_lim + 1); exceeding it raises
    BudgetError before any allocation.  jobs > 1 spreads the independent
    columns over a thread pool; each column's summation order is unchanged,
    so the result is identical to the serial build.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"order must lie in (0, 2), got {alpha}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if alpha != 1.0 and l_lim < 1:
        raise ValueError(f"need l_lim >= 1, got {l_lim}")
    if max_work is not None:
        work = float(n) * float(n) * (2.0 * l_lim + 1.0)
        if work > max_work:
            raise BudgetError(
                f"series build needs {work:.3g} work units, budget is {max_work:.3g}"
            )
    grid = make_grid(n, 1.0)
    s = grid.s_nodes
    half_up = (n + 1) // 2
    entries = np.zeros((n, n), dtype=np.complex128)
    if alpha == 1.0:
        sin2 = np.sin(s) ** 2
        for k in range(1, half_up):
            col = 2.0 * k * sin2 * np.exp(2j * k * s)
            _mirror_fill(col, n)
            entries[:, k] = col
            entries[:, n - k] = np.conj(col)
    else:
        _series_columns(entries, alpha, n, l_lim, s, jobs)
    if not np.all(np.isfinite(entries)):
        raise NumericError(
            f"non-finite matrix entries for alpha={alpha}, n={n}, l_lim={l_lim}"
        )
    return OperatorMatrix(
        kind=OperatorKind.FRAC_LAPLACIAN,
        alpha=float(alpha),
        gamma=0.0,
        l_scale=1.0,
        l_lim=int(l_lim),
        n=n,
        entries=entries,
    )


def _series_columns(entries, alpha, n, l_lim, s, jobs=1):
    assert alpha != 1.0, "series path is undefined at alpha = 1"
    p_max = l_lim * n + n - 1
    v1 = ratio_table(alpha, RatioKind.V1, p_max).values
    v2 = ratio_table(alpha, RatioKind.V2, p_max).values
    l2 = mode_numbers(n)
    l1 = np.arange(-l_lim, l_lim + 1, dtype=np.int64)
    folded = l1[:, None] * n + l2[None, :]
    signed_v1 = np.where(l1[:, None] % 2 == 0, 1.0, -1.0) * v1[np.abs(folded)]
    prefac = (
        c_alpha(alpha)
        * np.sin(s) ** (alpha - 1.0)
        / (2.0 * math.tan(alpha * math.pi / 2.0))
    )
    phase = np.exp(1j * math.pi * l2 / n)
    half_up = (n + 1) // 2
    folded_f = folded.astype(np.float64)

    def fill_column(k):
        poly = (1.0 - alpha) * k * k - 2.0 * k * folded_f
        coeff_l2 = (signed_v1 * poly * v2[np.abs(k - folded)]).sum(axis=0)
        col = prefac * _nodal_transform(coeff_l2, phase, n)
        _mirror_fill(col, n)
        entries[:, k] = col
        entries[:, n - k] = np.conj(col)

    fan_out(fill_column, range(1, half_up), jobs)


def scale_to_operator(
    base: OperatorMatrix,
    kind: OperatorKind,
    gamma: float = 0.0,
    l_scale: float = 1.0,
) -> OperatorMatrix:
    """Turn a base matrix into the matrix of an operator kind at map scale L:
    every entry is divided by L^alpha and the k > 0 / k < 0 columns pick up
    the kind's phase multiplier / its conjugate."""
    if not base.is_base:
        raise StateError("matrix has already been scaled; start from a base matrix")
    validate_kind(kind, base.alpha, gamma)
    if not l_scale > 0.0:
        raise ValueError(f"map scale must be positive, got {l_scale}")
    entries = base.entries / l_scale ** base.alpha
    if kind is not OperatorKind.FRAC_LAPLACIAN:
        k = mode_numbers(base.n)
        pos = phase_factor(kind, base.alpha, gamma, 1)
        mult = np.ones(base.n, dtype=np.complex128)
        mult[k > 0] = pos
        mult[k < 0] = np.conj(pos)
        entries *= mult[None, :]
    return OperatorMatrix(
        kind=kind,
        alpha=base.alpha,
        gamma=float(gamma) if kind is OperatorKind.RIESZ_FELLER else 0.0,
        l_scale=float(l_scale),
        l_lim=base.l_lim,
        n=base.n,
        entries=entries,
    )


def apply(matrix: OperatorMatrix, coeffs: CoeffVector) -> np.ndarray:
    """Nodal operator values: plain matrix-vector product."""
    if coeffs.n != matrix.n:
        raise ValueError(
            f"coefficient length {coeffs.n} does not match matrix size {matrix.n}"
        )
    return matrix.entries @ coeffs.coeffs


def serialize(matrix: OperatorMatrix, sink) -> None:
    """Write the bit-exact binary form: magic, little-endian header
    (u32 n, u32 kind, f64 alpha, f64 gamma, f64 l_scale, u32 l_lim), then
    n^2 row-major (re, im) f64 pairs."""
    if isinstance(sink, (str, Path)):
        with open(sink, "wb") as fh:
            serialize(matrix, fh)
        return
    sink.write(_MAGIC)
    sink.write(
        _HEADER.pack(
            matrix.n,
            _KIND_TAGS[matrix.kind],
            matrix.alpha,
            matrix.gamma,
            matrix.l_scale,
            matrix.l_lim,
        )
    )
    sink.write(np.ascontiguousarray(matrix.entries, dtype=np.complex128).tobytes())


def _bytes_left(source) -> int | None:
    # Bytes between the read position and the end, or None if the source
    # cannot seek.
    try:
        pos = source.tell()
        end = source.seek(0, io.SEEK_END)
        source.seek(pos)
    except (AttributeError, OSError):
        return None
    return end - pos


def deserialize(source) -> OperatorMatrix:
    """Read back a serialized matrix; raises FormatError on bad magic or a
    truncated payload.  On a seekable source the payload size the header
    asks for is checked against the bytes left before anything is read."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return deserialize(fh)
    if isinstance(source, (bytes, bytearray)):
        return deserialize(io.BytesIO(source))
    magic = source.read(len(_MAGIC))
    if magic != _MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {_MAGIC!r}")
    header = source.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise FormatError("truncated header")
    n, tag, alpha, gamma, l_scale, l_lim = _HEADER.unpack(header)
    try:
        kind = _TAG_KINDS[tag]
    except KeyError:
        raise FormatError(f"unknown operator kind tag {tag}") from None
    size = 16 * n * n
    left = _bytes_left(source)
    if left is not None and left < size:
        raise FormatError(
            f"truncated payload: header asks for {size} bytes, source holds {left}"
        )
    payload = source.read(size)
    if len(payload) != size:
        raise FormatError(
            f"truncated payload: expected {size} bytes, got {len(payload)}"
        )
    entries = np.frombuffer(payload, dtype=np.complex128).reshape(n, n).copy()
    return OperatorMatrix(
        kind=kind,
        alpha=alpha,
        gamma=gamma,
        l_scale=l_scale,
        l_lim=l_lim,
        n=n,
        entries=entries,
    )
