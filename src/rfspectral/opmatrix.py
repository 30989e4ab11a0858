"""Operational matrix mapping basis coefficients to nodal operator values.

The base matrix holds the symmetric fractional operator at map scale 1; any
of the six operator kinds at map scale L is the base with its k > 0 columns
times one complex number, the kind's phase over L^alpha (its k < 0 columns
times the conjugate).  Every OperatorMatrix stores the base entries.  The
series entries come from the gamma-ratio sum folded onto the grid through
the aliasing identity, truncated at |l1| <= l_lim, with the top half of the
rows computed directly and the rest filled by conjugation.

Every matrix is kept as its positive-mode columns k = 1..ceil(N/2)-1 only.
The rest of the full N x N matrix is implied: the mode-0 column and, for
even N, the Nyquist column are zero, and the column of mode -k is the
conjugate of the column of k.  The RFM1 file holds the full matrix.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._fanout import fan_out
from .basis import CoeffVector, make_grid, mode_numbers
from .closedform import OperatorKind, phase_factor, validate_kind
from .errors import FormatError, NumericError
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

# Default number of aliasing shells |l1| <= l_lim summed per matrix entry.
DEFAULT_L_LIM = 100

# Size of one row block of the full matrix streamed to or from a file.
_BLOCK_BYTES = 1 << 22


def stored_columns(n: int) -> int:
    """Number of stored positive-mode columns, ceil(n/2) - 1."""
    return (n + 1) // 2 - 1


def _stored_rows(n: int) -> int:
    # The top ceil(n/2) rows; for odd n the middle row (x = 0) is its own
    # mirror and is stored.
    return (n + 1) // 2


def _is_base(kind: OperatorKind, l_scale: float) -> bool:
    return kind is OperatorKind.FRAC_LAPLACIAN and l_scale == 1.0


@dataclass(frozen=True)
class OperatorMatrix:
    """Complex operator matrix taking DFT-ordered coefficients to nodal
    values.

    `entries` always holds the base matrix: the symmetric operator at map
    scale 1.  The matrix of (kind, gamma, l_scale) is `factor` times its
    k > 0 columns and conj(factor) times its k < 0 columns.

    `entries` is a float64 array of shape (2, ceil(N/2), ceil(N/2) - 1), the
    real and the imaginary plane of the top ceil(N/2) rows of the base
    matrix's positive-mode columns: entries[:, j, k - 1] holds row j of the
    column of mode k = 1..ceil(N/2)-1 of the full N x N base matrix.  The
    mode-0 column and the even-N Nyquist column are zero, the column of -k is
    the conjugate of the column of k, and row N-1-j is the conjugate of row
    j for j < N//2, so none of these are stored.
    """

    kind: OperatorKind
    alpha: float
    gamma: float
    l_scale: float
    l_lim: int
    n: int
    entries: np.ndarray

    def __post_init__(self):
        shape = (2, _stored_rows(self.n), stored_columns(self.n))
        if self.entries.shape != shape or self.entries.dtype != np.float64:
            raise ValueError(
                f"entries must be float64 of shape {shape} (real and imaginary "
                f"planes of the top rows of the positive modes), got "
                f"{self.entries.dtype} {self.entries.shape}"
            )
        self.entries.setflags(write=False)

    @property
    def factor(self) -> complex:
        """Multiplier of the k > 0 columns: the kind's phase over L^alpha."""
        phase = phase_factor(self.kind, self.alpha, self.gamma, 1)
        return phase / self.l_scale ** self.alpha


def _nodal_transform(coeff_l2: np.ndarray, phase: np.ndarray, n: int) -> np.ndarray:
    # sum_{l2} a(l2) e^{i 2 l2 s_j} over the midpoint nodes, as a phased IFFT.
    return np.fft.ifft(coeff_l2 * phase) * n


def _store_column(entries: np.ndarray, k: int, col: np.ndarray) -> None:
    # The top rows of the full column of mode k; the bottom rows see the
    # conjugate node phases and are implied.
    top = col[: entries.shape[1]]
    entries[0, :, k - 1] = top.real
    entries[1, :, k - 1] = top.imag


def build_base_matrix(
    alpha: float, n: int, l_lim: int, jobs: int = 1
) -> OperatorMatrix:
    """Base matrix (symmetric operator, map scale 1) of size N x N, stored
    as the top rows of its positive-mode columns.

    jobs > 1 spreads the independent columns over a thread pool; each
    column's summation order is unchanged, so the result is identical to the
    serial build.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"order must lie in (0, 2), got {alpha}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if alpha != 1.0 and l_lim < 1:
        raise ValueError(f"need l_lim >= 1, got {l_lim}")
    grid = make_grid(n, 1.0)
    s = grid.s_nodes
    entries = np.zeros((2, _stored_rows(n), stored_columns(n)))
    if alpha == 1.0:
        sin2 = np.sin(s) ** 2
        for k in range(1, entries.shape[2] + 1):
            _store_column(entries, k, 2.0 * k * sin2 * np.exp(2j * k * s))
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
        _store_column(entries, k, prefac * _nodal_transform(coeff_l2, phase, n))

    fan_out(fill_column, range(1, entries.shape[2] + 1), jobs)


def scale_to_operator(
    base: OperatorMatrix,
    kind: OperatorKind,
    gamma: float = 0.0,
    l_scale: float = 1.0,
) -> OperatorMatrix:
    """The matrix of an operator kind at map scale L: the same read-only
    base entries under the new labels, whose `factor` is the kind's phase
    over L^alpha.  Nothing is copied, and rescaling a scaled matrix just
    relabels it."""
    validate_kind(kind, base.alpha, gamma)
    if not l_scale > 0.0:
        raise ValueError(f"map scale must be positive, got {l_scale}")
    return replace(
        base,
        kind=kind,
        gamma=float(gamma) if kind is OperatorKind.RIESZ_FELLER else 0.0,
        l_scale=float(l_scale),
    )


def apply(matrix: OperatorMatrix, coeffs: CoeffVector) -> np.ndarray:
    """Nodal operator values, the full matrix times the coefficients.

    With f = matrix.factor, re and im the stored planes (top rows of the
    base columns k >= 1) and g = f u+, coefficients of real samples
    (u_{-k} = conj(u_k)) give the real vector with top rows 2(a - b) and
    bottom rows 2(a + b) reversed, where a = re g.real and b = im g.imag.
    Any other vector, with h = conj(f) u- and u- the modes -1..-(ceil(N/2)-1),
    gets p + i q on the top rows and p - i q reversed on the bottom rows,
    where p = re (g + h) and q = im (g - h).  Modes 0 and -N/2 meet zero
    columns either way.  Every product is a real plane times real vectors:
    a real matrix times a complex vector would copy the plane to complex."""
    if coeffs.n != matrix.n:
        raise ValueError(
            f"coefficient length {coeffs.n} does not match matrix size {matrix.n}"
        )
    re, im = matrix.entries
    half = re.shape[1]
    c = coeffs.coeffs
    f = matrix.factor
    g = f * c[1 : half + 1]
    if coeffs.real_samples:
        a = re @ g.real
        b = im @ g.imag
        return _mirror_rows(2.0 * (a - b), 2.0 * (a + b), matrix.n)
    h = np.conj(f) * c[: -half - 1 : -1]
    p = _plane_product(re, g + h)
    q = _plane_product(im, g - h)
    iq = 1j * q
    return _mirror_rows(p + iq, p - iq, matrix.n)


def _plane_product(plane: np.ndarray, v: np.ndarray) -> np.ndarray:
    # plane @ v for a real plane and a complex v, as one real product with
    # the real and imaginary parts of v as two columns.
    prod = plane @ np.stack((v.real, v.imag), axis=1)
    return prod[:, 0] + 1j * prod[:, 1]


def _mirror_rows(top: np.ndarray, bottom: np.ndarray, n: int) -> np.ndarray:
    # Rows 0..ceil(n/2)-1 from `top`; row n-1-j from bottom[j], j < n//2.
    return np.concatenate((top, bottom[n // 2 - 1 :: -1]))


def _rows_per_block(n: int) -> int:
    return max(1, _BLOCK_BYTES // (16 * n))


def serialize(matrix: OperatorMatrix, sink) -> None:
    """Write the bit-exact binary form: magic, little-endian header
    (u32 n, u32 kind, f64 alpha, f64 gamma, f64 l_scale, u32 l_lim), then
    n^2 row-major (re, im) f64 pairs of the full matrix, implied rows and
    columns included.  A scaled matrix is written as the full base matrix
    divided by L^alpha, then, except for the fractional Laplacian, with its
    columns of modes k > 0 (k < 0, including -N/2) multiplied by the kind's
    phase (its conjugate).  The payload is written in row blocks of a few
    MiB."""
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
    n = matrix.n
    re, im = matrix.entries
    top, half = re.shape
    scaled = not _is_base(matrix.kind, matrix.l_scale)
    phase = phase_factor(matrix.kind, matrix.alpha, matrix.gamma, 1)
    rows = _rows_per_block(n)
    block = np.zeros((min(rows, n), n), dtype=np.complex128)
    for start in range(0, n, rows):
        r = np.arange(start, min(start + rows, n))
        mirrored = r >= top
        src = np.where(mirrored, n - 1 - r, r)
        out = block[: len(r)]
        # Row n-1-j is conj(row j), written part by part: forming
        # re + 1j * im would turn a -0.0 real part into +0.0.
        pos = out[:, 1 : half + 1]
        pos.real = re[src]
        pos.imag = im[src]
        pos.imag[mirrored] *= -1.0
        out[:, n - half :] = np.conj(pos[:, ::-1])
        if scaled:
            out = out / matrix.l_scale ** matrix.alpha
            if matrix.kind is not OperatorKind.FRAC_LAPLACIAN:
                out[:, 1 : half + 1] *= phase
                out[:, half + 1 :] *= np.conj(phase)
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


def _bits_differ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Elementwise a != b bit for bit, except that a zero matches either
    # sign: adding 0.0 clears the sign of zero and keeps every other bit
    # pattern.
    return (a + 0.0).view(np.uint64) != (b + 0.0).view(np.uint64)


def _first_unimplied_column(block: np.ndarray, half: int) -> int | None:
    # First column of a full-matrix row block that the positive-mode columns
    # cannot represent: a nonzero mode-0 or Nyquist entry, or a -k column
    # that is not bitwise conj(column k).
    n = block.shape[1]
    bad = np.zeros(n, dtype=bool)
    bad[0] = np.any(block[:, 0] != 0.0)
    if n % 2 == 0:
        bad[n // 2] = np.any(block[:, n // 2] != 0.0)
    pos = block[:, half:0:-1]
    neg = block[:, n - half :]
    bad[n - half :] = np.any(
        _bits_differ(neg.real, pos.real) | _bits_differ(neg.imag, -pos.imag),
        axis=0,
    )
    cols = np.flatnonzero(bad)
    return int(cols[0]) if cols.size else None


def _first_unmirrored_row(
    block: np.ndarray, start: int, entries: np.ndarray
) -> int | None:
    # First bottom row of a full-matrix row block, starting at row `start`,
    # whose positive-mode columns are not bitwise the conjugate of the
    # stored row n-1-r.
    n = block.shape[1]
    re, im = entries
    top, half = re.shape
    r = np.arange(max(start, top), start + len(block))
    got = block[r - start, 1 : half + 1]
    src = n - 1 - r
    bad = _bits_differ(got.real, re[src]) | _bits_differ(got.imag, -im[src])
    rows = r[np.any(bad, axis=1)]
    return int(rows[0]) if rows.size else None


def deserialize(source) -> OperatorMatrix:
    """Read back a serialized base matrix and keep the top rows of its
    positive-mode columns.

    Only base files (kind fl, map scale 1) are read: a scaled header raises
    FormatError before any payload is read.  FormatError is also raised on
    bad magic, a truncated payload, or a payload the stored entries cannot
    represent: a bottom row N-1-j other than the conjugate of row j, a
    nonzero mode-0 or Nyquist column, or a column of -k other than the
    conjugate of that of k (a zero matches either sign).  On a seekable
    source the payload size the header asks for is checked against the
    bytes left before anything is read."""
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
    if not _is_base(kind, l_scale):
        raise FormatError(
            f"only base matrices (kind fl, L = 1) can be read, header says "
            f"kind {kind.value}, L = {l_scale!r}"
        )
    if n < 2:
        raise FormatError(f"matrix size must be >= 2, header says {n}")
    size = 16 * n * n
    left = _bytes_left(source)
    if left is not None and left < size:
        raise FormatError(
            f"truncated payload: header asks for {size} bytes, source holds {left}"
        )
    top, half = _stored_rows(n), stored_columns(n)
    entries = np.empty((2, top, half))
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
        kept = block[: max(0, top - start), 1 : half + 1]
        entries[0, start : start + len(kept)] = kept.real
        entries[1, start : start + len(kept)] = kept.imag
        row = _first_unmirrored_row(block, start, entries)
        if row is not None:
            raise FormatError(
                f"payload row {row} is not implied by the top rows: it must be "
                f"the conjugate of row {n - 1 - row}"
            )
        col = _first_unimplied_column(block, half)
        if col is not None:
            raise FormatError(
                f"payload column {col} (mode {int(mode_numbers(n)[col])}) is not "
                "implied by the positive modes: modes 0 and -N/2 must be zero "
                "and the column of -k the conjugate of that of k"
            )
    return OperatorMatrix(
        kind=kind,
        alpha=alpha,
        gamma=gamma,
        l_scale=l_scale,
        l_lim=l_lim,
        n=n,
        entries=entries,
    )
