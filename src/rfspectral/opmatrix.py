"""Operational matrix mapping basis coefficients to nodal operator values.

The base matrix holds the symmetric fractional operator at map scale 1; any
of the six operator kinds is obtained from it by a 1/L^alpha scaling plus
column phase multipliers.  The series entries come from the gamma-ratio sum
folded onto the grid through the aliasing identity, truncated at |l1| <=
l_lim, with the top half of the rows computed directly and the rest filled
by conjugation.

Every matrix is kept as its positive-mode columns k = 1..ceil(N/2)-1 only.
The rest of the full N x N matrix is implied: the mode-0 column and, for
even N, the Nyquist column are zero, and the column of mode -k is the
conjugate of the column of k.  The RFM1 file holds the full matrix.
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

# Size of one row block of the full matrix streamed to or from a file.
_BLOCK_BYTES = 1 << 22


def stored_columns(n: int) -> int:
    """Number of stored positive-mode columns, ceil(n/2) - 1."""
    return (n + 1) // 2 - 1


@dataclass(frozen=True)
class OperatorMatrix:
    """Complex operator matrix taking DFT-ordered coefficients to nodal
    values.

    `entries` is N x (ceil(N/2) - 1): column k - 1 holds the column of mode
    k = 1..ceil(N/2)-1 of the full N x N matrix.  The mode-0 column and the
    even-N Nyquist column are zero and the column of -k is the conjugate of
    the column of k, so they are not stored.
    """

    kind: OperatorKind
    alpha: float
    gamma: float
    l_scale: float
    l_lim: int
    n: int
    entries: np.ndarray

    def __post_init__(self):
        shape = (self.n, stored_columns(self.n))
        if self.entries.shape != shape:
            raise ValueError(
                f"entries must have shape {shape} (positive modes), "
                f"got {self.entries.shape}"
            )
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
    """Base matrix (symmetric operator, map scale 1) of size N x N, stored
    as its positive-mode columns.

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
    entries = np.zeros((n, stored_columns(n)), dtype=np.complex128)
    if alpha == 1.0:
        sin2 = np.sin(s) ** 2
        for k in range(1, entries.shape[1] + 1):
            col = 2.0 * k * sin2 * np.exp(2j * k * s)
            entries[:, k - 1] = _mirror_fill(col, n)
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
    folded_f = folded.astype(np.float64)

    def fill_column(k):
        poly = (1.0 - alpha) * k * k - 2.0 * k * folded_f
        coeff_l2 = (signed_v1 * poly * v2[np.abs(k - folded)]).sum(axis=0)
        col = prefac * _nodal_transform(coeff_l2, phase, n)
        entries[:, k - 1] = _mirror_fill(col, n)

    fan_out(fill_column, range(1, entries.shape[1] + 1), jobs)


def scale_to_operator(
    base: OperatorMatrix,
    kind: OperatorKind,
    gamma: float = 0.0,
    l_scale: float = 1.0,
) -> OperatorMatrix:
    """Turn a base matrix into the matrix of an operator kind at map scale L:
    every entry is divided by L^alpha and the stored k > 0 columns pick up
    the kind's phase multiplier (the implied k < 0 columns its conjugate)."""
    if not base.is_base:
        raise StateError("matrix has already been scaled; start from a base matrix")
    validate_kind(kind, base.alpha, gamma)
    if not l_scale > 0.0:
        raise ValueError(f"map scale must be positive, got {l_scale}")
    entries = base.entries / l_scale ** base.alpha
    if kind is not OperatorKind.FRAC_LAPLACIAN:
        entries *= phase_factor(kind, base.alpha, gamma, 1)
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
    """Nodal operator values, the full matrix times the coefficients.

    Coefficients of real samples have u_{-k} = conj(u_k), so the product is
    the real vector 2 Re(M+ u+) over the stored k >= 1 columns M+.  Any other
    vector gets the complex M+ u+ + conj(M+ conj(u-)), with u- the modes
    -1..-(ceil(N/2)-1).  Modes 0 and -N/2 meet zero columns either way."""
    if coeffs.n != matrix.n:
        raise ValueError(
            f"coefficient length {coeffs.n} does not match matrix size {matrix.n}"
        )
    half = matrix.entries.shape[1]
    c = coeffs.coeffs
    if coeffs.real_samples:
        return 2.0 * (matrix.entries @ c[1 : half + 1]).real
    neg = c[: -half - 1 : -1]
    return matrix.entries @ c[1 : half + 1] + np.conj(matrix.entries @ np.conj(neg))


def _nyquist_entry(matrix: OperatorMatrix) -> complex:
    # The implied Nyquist column is zero, with the signs of zero that scaling
    # the full matrix leaves there: +0 times the conjugate phase.
    zero = np.zeros(1, dtype=np.complex128)
    if matrix.kind is not OperatorKind.FRAC_LAPLACIAN:
        zero *= np.conj(phase_factor(matrix.kind, matrix.alpha, matrix.gamma, 1))
    return zero[0]


def _rows_per_block(n: int) -> int:
    return max(1, _BLOCK_BYTES // (16 * n))


def serialize(matrix: OperatorMatrix, sink) -> None:
    """Write the bit-exact binary form: magic, little-endian header
    (u32 n, u32 kind, f64 alpha, f64 gamma, f64 l_scale, u32 l_lim), then
    n^2 row-major (re, im) f64 pairs of the full matrix, implied columns
    included.  The payload is written in row blocks of a few MiB."""
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
    n, half = matrix.n, matrix.entries.shape[1]
    rows = _rows_per_block(n)
    block = np.zeros((min(rows, n), n), dtype=np.complex128)
    if n % 2 == 0:
        block[:, n // 2] = _nyquist_entry(matrix)
    for start in range(0, n, rows):
        part = matrix.entries[start : start + rows]
        out = block[: len(part)]
        out[:, 1 : half + 1] = part
        neg = out[:, n - half :]
        neg[:] = np.conj(part[:, ::-1])
        if not matrix.is_base:
            # Scaling the full matrix divided the conjugated base columns by
            # L^alpha, and complex division by a real leaves b - a*0 in the
            # imaginary part: where that part is zero (odd N, middle row)
            # the file carries this sign of zero.
            neg.imag -= neg.real * 0.0
        sink.write(out.data)


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


def _first_unimplied_column(block: np.ndarray, half: int) -> int | None:
    # First column of a full-matrix row block that the positive-mode columns
    # cannot represent: a nonzero mode-0 or Nyquist entry, or a -k column
    # that is not bitwise conj(column k).  A zero matches a zero of either
    # sign, since scaling leaves both signs in those places.
    n = block.shape[1]
    bad = np.zeros(n, dtype=bool)
    bad[0] = np.any(block[:, 0] != 0.0)
    if n % 2 == 0:
        bad[n // 2] = np.any(block[:, n // 2] != 0.0)
    # Adding 0.0 clears the sign of zero and keeps every other bit pattern.
    mirrored = np.conj(block[:, half:0:-1]) + 0.0
    neg = block[:, n - half :] + 0.0
    bad[n - half :] = np.any(
        neg.view(np.uint64) != mirrored.view(np.uint64), axis=0
    ).reshape(half, 2).any(axis=1)
    cols = np.flatnonzero(bad)
    return int(cols[0]) if cols.size else None


def deserialize(source) -> OperatorMatrix:
    """Read back a serialized matrix and keep its positive-mode columns.

    Raises FormatError on bad magic, a truncated payload, or a payload the
    positive-mode columns cannot represent: a nonzero mode-0 or Nyquist
    column, or a column of -k other than the conjugate of that of k.  On a
    seekable source the payload size the header asks for is checked against
    the bytes left before anything is read."""
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
    if n < 2:
        raise FormatError(f"matrix size must be >= 2, header says {n}")
    size = 16 * n * n
    left = _bytes_left(source)
    if left is not None and left < size:
        raise FormatError(
            f"truncated payload: header asks for {size} bytes, source holds {left}"
        )
    half = stored_columns(n)
    entries = np.empty((n, half), dtype=np.complex128)
    rows = _rows_per_block(n)
    for start in range(0, n, rows):
        count = min(rows, n - start)
        chunk = source.read(16 * n * count)
        if len(chunk) != 16 * n * count:
            raise FormatError(
                f"truncated payload: expected {size} bytes, "
                f"got {16 * n * start + len(chunk)}"
            )
        block = np.frombuffer(chunk, dtype=np.complex128).reshape(count, n)
        col = _first_unimplied_column(block, half)
        if col is not None:
            raise FormatError(
                f"payload column {col} (mode {int(mode_numbers(n)[col])}) is not "
                "implied by the positive modes: modes 0 and -N/2 must be zero "
                "and the column of -k the conjugate of that of k"
            )
        entries[start : start + count] = block[:, 1 : half + 1]
    return OperatorMatrix(
        kind=kind,
        alpha=alpha,
        gamma=gamma,
        l_scale=l_scale,
        l_lim=l_lim,
        n=n,
        entries=entries,
    )
