"""Operational matrix mapping basis coefficients to nodal operator values.

The base matrix holds the symmetric fractional operator at map scale 1; any
of the six operator kinds at map scale L is the base with its k > 0 columns
times one complex number, the kind's phase over L^alpha (its k < 0 columns
times the conjugate).  Every OperatorMatrix stores the base entries.  The
series entries come from the gamma-ratio sum folded onto the grid through
the aliasing identity, truncated at |l1| <= l_lim.  One rule gives every
shell's weights S = (-1)^l1 V1(|m|) and S m.  The three near shells
|l1| <= 1 are summed for each fold column as one small product of a stack,
its weights against a view of a two-sided table of the V2 ratios; the far
shells, analytic over the grid, are interpolated from their exact sums at a
few integer nodes per axis.  Both run one chunk of columns at a time, and
each chunk of columns is one IFFT over all N rows.

Only the top ceil(N/2) rows of the positive-mode columns k = 1..ceil(N/2)-1
are kept.  The rest of the full N x N matrix is implied, as `_full_rows`
builds it: row N-1-j is the conjugate of row j, the column of -k is the
conjugate of that of k, and the mode-0 and even-N Nyquist columns are zero.
The RFM1 file holds the full matrix.
"""

from __future__ import annotations

import contextlib
import io
import math
import operator
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._fanout import fan_out
from .basis import CoeffVector, check_grid, make_grid, mode_numbers
from .closedform import OperatorKind, phase_factor, validate_kind
from .errors import FormatError, NumericError
from .specfun import c_alpha, check_order, ratio_table

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

# Columns k per chunk of the build, and fold columns l2 per tile of a
# chunk's matrix products.  Each entry's near and far sums are dot products
# that no tile or chunk bound splits, so the result depends on neither
# (except that numpy gives a one-column chunk or a one-row tile to BLAS's
# matrix-vector kernel, which may round differently); they bound only memory
# and each thread's work.
_FOLD_CHUNK = 256
_FOLD_TILE = 64

# Interpolation nodes per axis, l2 and k, of the far shells 2 <= |l1| <= l_lim.
_FAR_NODES = 20

# Size of one row block of the full matrix streamed to or from a file.
_BLOCK_BYTES = 1 << 19


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
    """Operator matrix taking the coefficients of real samples
    (`basis.analyze`) to nodal values.

    `entries` always holds the base matrix: the symmetric operator at map
    scale 1.  The matrix of (kind, gamma, l_scale) is `factor` times its
    k > 0 columns and conj(factor) times its k < 0 columns.

    `entries` is a float64 array of shape (2, ceil(N/2), ceil(N/2) - 1), the
    real and the imaginary plane of the top ceil(N/2) rows of the base
    matrix's positive-mode columns: entries[:, j, k - 1] holds row j of the
    column of mode k = 1..ceil(N/2)-1 of the full N x N base matrix.  The
    other entries are implied (see the module docstring).
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
        phase = phase_factor(self.kind, self.alpha, self.gamma)
        return phase / self.l_scale ** self.alpha


def check_integer(what: str, value) -> None:
    """Raise ValueError unless value is an integer; numpy integers pass."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def check_base(alpha, n, l_lim) -> None:
    """Raise ValueError unless (alpha, n, l_lim) are labels a build accepts,
    which a base file's header and an evolution's configuration must also
    carry (`deserialize` re-raises it as FormatError).  The alpha = 1 closed
    form ignores l_lim, but the matrix and its file record it."""
    check_order(alpha)
    check_integer("matrix size", n)
    check_integer("l_lim", l_lim)
    if n < 2:
        raise ValueError(f"matrix size must be >= 2, got {n}")
    if l_lim < 1:
        raise ValueError(f"need l_lim >= 1, got {l_lim}")


def check_operator(kind: OperatorKind, alpha, gamma, n, l_scale, l_lim) -> None:
    """Raise ValueError unless these label an operator matrix: base labels a
    build accepts, a kind that fits alpha and gamma, finite outer nodes and
    an L^alpha finite and > 0 in Python floats, as `factor` and `serialize`
    compute it.  Every entry point runs it before it builds."""
    check_base(alpha, n, l_lim)
    validate_kind(kind, alpha, gamma)
    check_grid(n, l_scale)
    try:
        power = float(l_scale) ** float(alpha)
    except OverflowError:
        power = math.inf
    if not (math.isfinite(power) and power > 0.0):
        raise ValueError(
            f"L^alpha must be finite and > 0, got {l_scale}^{alpha} = {power}"
        )


def build_base_matrix(
    alpha: float, n: int, l_lim: int, jobs: int = 1
) -> OperatorMatrix:
    """Base matrix (symmetric operator, map scale 1) of size N x N, stored
    as the top rows of its positive-mode columns.

    jobs > 1 spreads the column chunks over a thread pool.  The chunk bounds
    are fixed, so every entry is summed in the same order and the result is
    identical to the serial build.
    """
    check_base(alpha, n, l_lim)
    # The nodes of the stored top rows, as a column.
    s = make_grid(n, 1.0).s_nodes[: _stored_rows(n), None]
    entries = np.empty((2, len(s), stored_columns(n)))
    half = entries.shape[2]
    if alpha == 1.0:
        columns = lambda k: 2.0 * k * np.sin(s) ** 2 * np.exp(2j * k * s)
    else:
        columns = _series_columns(alpha, n, l_lim, s)

    def store(k0):
        # The top rows of the columns of modes k0..k0+c-1 as one row block;
        # the bottom rows see the conjugate node phases and are implied.
        # Each chunk is checked on its own, with no N^2 mask of the planes.
        c = min(_FOLD_CHUNK, half + 1 - k0)
        top = columns(np.arange(k0, k0 + c, dtype=np.float64))
        if not np.all(np.isfinite(top)):
            raise NumericError(
                f"non-finite matrix entries for alpha={alpha}, n={n}, l_lim={l_lim}"
            )
        entries[0, :, k0 - 1 : k0 - 1 + c] = top.real
        entries[1, :, k0 - 1 : k0 - 1 + c] = top.imag

    fan_out(store, range(1, half + 1, _FOLD_CHUNK), jobs)
    return OperatorMatrix(
        kind=OperatorKind.FRAC_LAPLACIAN,
        alpha=float(alpha),
        gamma=0.0,
        l_scale=1.0,
        l_lim=int(l_lim),
        n=n,
        entries=entries,
    )


def _series_columns(alpha, n, l_lim, s):
    # The top rows, at the nodes s, of a chunk of columns k, as a function
    # of k.  Entry (l2, k) of the folded coefficients is the sum over
    # |l1| <= l_lim of S ((1 - alpha) k^2 - 2 k m) V2(|k - m|), with
    # m = l1 n + l2 and S = (-1)^l1 V1(|m|), so it is (1 - alpha) k^2 A - 2 k B
    # with A = sum S V2(|k - m|) and B = sum S m V2(|k - m|).  The near
    # shells |l1| <= 1 give A and B of each fold column l2 as one (2, 3) by
    # (3, c) product in a stack: the weights S and S m of its three shells
    # against a view of the two-sided V2 table whose entry (q, r, kk) is
    # V2(|k - m|).  For |l1| >= 2, |k - m| >= n and |m| >= n, so the far
    # sums are analytic in (l2, k) over the whole grid: they are sampled at
    # a few integer nodes per axis and carried to every (l2, k) by the
    # barycentric Lagrange matrices of those nodes.
    assert alpha != 1.0, "series path is undefined at alpha = 1"
    l2_nodes, u_l = _interpolant(np.arange(-(n // 2), (n + 1) // 2))
    k_nodes, u_k = _interpolant(np.arange(1, stored_columns(n) + 1))
    w, weights, far_a, far_b = _fold_tables(alpha, n, l_lim, l2_nodes, k_nodes)
    scale = n * (
        c_alpha(alpha)
        * np.sin(s) ** (alpha - 1.0)
        / (2.0 * math.tan(alpha * math.pi / 2.0))
    )
    phase = np.exp(1j * math.pi * mode_numbers(n) / n)[:, None]
    # Tiles of the fold columns q (l2 = q - n//2, ascending), split at
    # l2 = 0 so that each is one slice in DFT order too.
    h = n // 2
    tiles = [
        (a, min(a + _FOLD_TILE, end))
        for start, end in ((0, h), (h, n))
        for a in range(start, end, _FOLD_TILE)
    ]

    def fold_chunk(k):
        k0, c = int(k[0]), len(k)
        a_weight, b_weight = (1.0 - alpha) * k * k, 2.0 * k
        # near[q, r, j] = w[2 n - 1 + m - k] = V2(|k - m|), with m the fold
        # index of shell r and column q, and k = k0 + c - 1 - j: m moves by n
        # per shell and q - k by 1 per column and per mode.  Its rows run
        # forwards through w, so each (3, c) matrix is one BLAS operand.
        start = (n + 1) // 2 - k0 - c
        near = sliding_window_view(sliding_window_view(w, c), 2 * n + 1, axis=0)
        near = near[start : start + n, :, ::n].swapaxes(1, 2)
        # The far sums of the chunk's columns at the l2 nodes, weighted.
        u = u_k[k0 - 1 : k0 - 1 + c].T
        far = (far_a @ u) * a_weight - (far_b @ u) * b_weight
        # Row l2 in DFT order, column k: each tile's coefficients are
        # weighted, combined and phased where they are folded.
        col = np.empty((n, c), dtype=np.complex128)
        for a, b in tiles:
            ab = (weights[a:b] @ near[a:b])[:, :, ::-1]
            coef = ab[:, 0] * a_weight - ab[:, 1] * b_weight
            coef += u_l[a:b] @ far
            rows = slice((a - h) % n, (a - h) % n + b - a)
            np.multiply(coef, phase.real[rows], out=col.real[rows])
            np.multiply(coef, phase.imag[rows], out=col.imag[rows])
        # sum_{l2} a(l2) e^{i 2 l2 s_j} over the midpoint nodes, as a phased
        # IFFT in place.
        np.fft.ifft(col, axis=0, out=col)
        top = col[: len(scale)]
        top *= scale
        return top

    return fold_chunk


def _fold_tables(alpha, n, l_lim, l2_nodes, k_nodes):
    # The near shells' two-sided V2 table w, w[2 n - 1 + d] = V2(|d|), and
    # their weights: weights[q, 0, r] = S and weights[q, 1, r] = S m at
    # shell l1 = r - 1 and fold column l2 = q - n//2.  Then the far sums A
    # and B at the nodes, row l2 and column k.  V1 and V2 are dropped on
    # return.
    p_max = l_lim * n + n - 1
    v2 = ratio_table(-alpha, p_max)
    w = np.concatenate((v2[2 * n - 1 : 0 : -1], v2[: 2 * n]))
    v1 = ratio_table(alpha, p_max)

    def shells(l1, l2):
        # m = l1 n + l2 and S = (-1)^l1 V1(|m|), row l1 and column l2.
        m = l1[:, None] * n + l2
        return m, np.where(l1 % 2 == 0, 1.0, -1.0)[:, None] * v1[np.abs(m)]

    m, s = shells(np.arange(-1, 2), np.arange(-(n // 2), (n + 1) // 2))
    weights = np.stack((s.T, (s * m).T), axis=1)
    m, s = shells(np.r_[-l_lim:-1, 2 : l_lim + 1], l2_nodes)
    v2_far = v2[np.abs(k_nodes - m[:, :, None])]
    far_a = np.einsum("lq,lqk->qk", s, v2_far)
    far_b = np.einsum("lq,lqk->qk", s * m, v2_far)
    return w, weights, far_a, far_b


def _interpolant(points):
    # Interpolation over a range of consecutive integers: the nodes, the
    # distinct integers nearest _FAR_NODES Chebyshev extrema of the range
    # (all of them if it holds no more), and the matrix whose row i is the
    # Lagrange basis of the nodes at points[i] in the second (barycentric)
    # form, with a unit row where the point is a node.  The weights
    # 1 / prod (x_j - x_i) take the gaps over the points' count, a common
    # factor that cancels, so that they stay in range.
    nodes = points
    if len(points) > _FAR_NODES:
        lo, hi = points[0], points[-1]
        x = np.cos(math.pi * np.arange(_FAR_NODES) / (_FAR_NODES - 1))
        nodes = np.unique(np.rint(0.5 * (lo + hi) + 0.5 * (hi - lo) * x)).astype(np.int64)
    gaps = (nodes[:, None] - nodes[None, :]) / max(1, len(points))
    np.fill_diagonal(gaps, 1.0)
    weights = 1.0 / np.prod(gaps, axis=1)
    d = points[:, None] - nodes[None, :]
    hit = d == 0
    u = hit.astype(np.float64)
    off = ~hit.any(axis=1)
    terms = weights / d[off]
    u[off] = terms / terms.sum(axis=1, keepdims=True)
    return nodes, u


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
    check_operator(kind, base.alpha, gamma, base.n, l_scale, base.l_lim)
    return replace(
        base,
        kind=kind,
        gamma=float(gamma) if kind is OperatorKind.RIESZ_FELLER else 0.0,
        l_scale=float(l_scale),
    )


def apply(matrix: OperatorMatrix, coeffs: CoeffVector) -> np.ndarray:
    """Nodal operator values of real samples from their coefficients.

    With f = matrix.factor and M+ the base columns of the modes
    k = 1..ceil(N/2)-1, the values are 2 Re(M+ f u+): the modes -k add the
    conjugates of the modes k, and modes 0 and N/2 meet zero columns."""
    if coeffs.n != matrix.n:
        raise ValueError(
            f"coefficient length {coeffs.n} does not match matrix size {matrix.n}"
        )
    g = matrix.factor * coeffs.coeffs[1 : stored_columns(matrix.n) + 1]
    # Both products are a real plane times a real vector: a real matrix
    # times a complex vector would copy the plane to complex.
    re, im = matrix.entries
    a = re @ g.real
    b = im @ g.imag
    # Row N-1-j is the conjugate of row j: it gives 2 (a + b) where row j
    # gives 2 (a - b).
    return np.concatenate((2.0 * (a - b), 2.0 * (a + b)[matrix.n // 2 - 1 :: -1]))


def _rows_per_block(n: int) -> int:
    return max(1, _BLOCK_BYTES // (16 * n))


def _full_rows(entries: np.ndarray, start: int, block: np.ndarray) -> None:
    # Rows start.. of the full N x N base matrix into `block`: row N-1-j is
    # conj(row j), the column of -k is conj(that of k), and the mode-0 and
    # Nyquist columns are zero.  The parts are written one at a time:
    # forming re + 1j * im would turn a -0.0 real part into +0.0.
    re, im = entries
    top, half = re.shape
    n = block.shape[1]
    stop = start + len(block)
    # The first t rows are stored; the rest mirror rows n-1-r, which run
    # backwards down the planes.
    t = max(0, min(top, stop) - start)
    mirror = slice(n - stop, n - start - t)
    pos = block[:, 1 : half + 1]
    pos.real[:t] = re[start : start + t]
    pos.imag[:t] = im[start : start + t]
    pos.real[t:] = re[mirror][::-1]
    np.negative(im[mirror][::-1], out=pos.imag[t:])
    np.conjugate(pos[:, ::-1], out=block[:, n - half :])
    block[:, 0] = 0.0
    block[:, half + 1 : n - half] = 0.0


def serialize(matrix: OperatorMatrix, sink) -> None:
    """Write the bit-exact binary form: magic, little-endian header
    (u32 n, u32 kind, f64 alpha, f64 gamma, f64 l_scale, u32 l_lim), then
    n^2 row-major (re, im) f64 pairs of the full matrix, implied rows and
    columns included.  A scaled matrix is written as the full base matrix
    divided by L^alpha, then, except for the fractional Laplacian, with its
    columns of modes k > 0 (k < 0, including -N/2) multiplied by the kind's
    phase (its conjugate).  The payload is written in row blocks of 512
    KiB.  A field the header cannot hold raises ValueError, and a scaled
    matrix with an entry that would not be finite raises NumericError,
    before anything is opened or written."""
    try:
        header = _HEADER.pack(
            matrix.n,
            _KIND_TAGS[matrix.kind],
            matrix.alpha,
            matrix.gamma,
            matrix.l_scale,
            matrix.l_lim,
        )
    except struct.error as exc:
        raise ValueError(
            f"the header cannot hold N = {matrix.n}, l_lim = {matrix.l_lim}: {exc}"
        ) from None
    scaled = not _is_base(matrix.kind, matrix.l_scale)
    phase = phase_factor(matrix.kind, matrix.alpha, matrix.gamma)
    if scaled:
        # A bound on every entry written: numpy divides by L^alpha as a
        # product with its reciprocal, and the phase moves at most
        # |Re| + |Im| of its unit modulus into either part.  Base entries
        # were checked finite when built or read; N = 2 stores none.
        entries = matrix.entries
        largest = (float(max(entries.max(initial=0.0), -entries.min(initial=0.0)))
                   * (1.0 / matrix.l_scale ** matrix.alpha)
                   * (abs(phase.real) + abs(phase.imag)))
        if not math.isfinite(largest):
            raise NumericError(
                f"non-finite matrix entries: the base over L^alpha = "
                f"{matrix.l_scale}^{matrix.alpha} overflows"
            )
    n = matrix.n
    half = stored_columns(n)
    rows = _rows_per_block(n)
    block = np.empty((min(rows, n), n), dtype=np.complex128)
    # A path is opened only once every check has passed.
    with (open(sink, "wb") if isinstance(sink, (str, Path))
          else contextlib.nullcontext(sink)) as fh:
        fh.write(_MAGIC + header)
        for start in range(0, n, rows):
            out = block[: min(rows, n - start)]
            _full_rows(matrix.entries, start, out)
            if scaled:
                out = out / matrix.l_scale ** matrix.alpha
                if matrix.kind is not OperatorKind.FRAC_LAPLACIAN:
                    out[:, 1 : half + 1] *= phase
                    out[:, half + 1 :] *= np.conj(phase)
            fh.write(out.data)


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


def _read_into(source, out: np.ndarray) -> int:
    # Fill `out` with the next bytes of the source, looping on short reads;
    # returns the number of bytes read, short only at the end of the source.
    view = memoryview(out).cast("B")
    got = 0
    while got < len(view):
        step = source.readinto(view[got:])
        if not step:
            break
        got += step
    return got


def _payload_error(block: np.ndarray, start: int, bad: np.ndarray) -> FormatError:
    # The first flagged entry of a full-matrix row block from row `start`.
    n = block.shape[1]
    j, col = np.argwhere(bad)[0]
    row, mode = start + j, int(mode_numbers(n)[col])
    where = f"payload row {row} column {col} (mode {mode})"
    if not np.isfinite(block[j, col]):
        return FormatError(f"{where} is not finite")
    if mode == 0 or abs(mode) > stored_columns(n):
        return FormatError(f"{where} must be zero")
    mirrored = row >= _stored_rows(n)
    rule = "equal" if mirrored and mode < 0 else "be the conjugate of"
    src = n - 1 - row if mirrored else row
    return FormatError(f"{where} must {rule} row {src}, mode {abs(mode)}")


def deserialize(source) -> OperatorMatrix:
    """Read back a serialized base matrix and keep the top rows of its
    positive-mode columns.

    Only base files (kind fl, map scale 1) are read: a scaled header, or one
    with labels no build makes (alpha outside (0, 2), N < 2, l_lim < 1 or a
    nonzero skewness), raises FormatError before any payload is read.
    FormatError is also raised on bad magic, a truncated payload, a
    non-finite entry, or any entry other than the one the kept top rows
    imply (a zero matches either sign).  On a seekable source the payload
    size the header asks for is checked against the bytes left before
    anything is read."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return deserialize(fh)
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
    try:
        check_base(alpha, n, l_lim)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    if gamma != 0.0:
        raise FormatError(f"a base matrix has skewness 0, header says {gamma!r}")
    size = 16 * n * n
    left = _bytes_left(source)
    if left is not None and left < size:
        raise FormatError(
            f"truncated payload: header asks for {size} bytes, source holds {left}"
        )
    top, half = _stored_rows(n), stored_columns(n)
    entries = np.empty((2, top, half))
    rows = _rows_per_block(n)
    payload = np.empty((min(rows, n), n), dtype=np.complex128)
    implied = np.empty_like(payload)
    for start in range(0, n, rows):
        count = min(rows, n - start)
        block = payload[:count]
        got = _read_into(source, block)
        if got != block.nbytes:
            raise FormatError(
                f"truncated payload: expected {size} bytes, "
                f"got {16 * n * start + got}"
            )
        kept = block[: max(0, top - start), 1 : half + 1]
        stored = entries[:, start : start + len(kept)]
        stored[0] = kept.real
        stored[1] = kept.imag
        expected = implied[:count]
        _full_rows(entries, start, expected)
        # A non-finite entry either differs from its implied value (NaN
        # does from itself) or is a stored one.  The float64 views compare
        # part by part with the complex verdicts (-0 equals +0); the complex
        # mask is built only to name the first bad entry.
        if (np.not_equal(block.view(np.float64), expected.view(np.float64)).any()
                or not np.isfinite(stored).all()):
            bad = block != expected
            bad[: len(kept), 1 : half + 1] |= ~np.isfinite(kept)
            raise _payload_error(block, start, bad)
    return OperatorMatrix(
        kind=kind,
        alpha=alpha,
        gamma=gamma,
        l_scale=l_scale,
        l_lim=l_lim,
        n=n,
        entries=entries,
    )
