"""Operational matrix construction, scaling, application and serialization."""

import cmath
import io
import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from reference_formulas import full_payload
from rfspectral import opmatrix
from rfspectral.basis import CoeffVector, analyze, make_grid, mode_numbers
from rfspectral.closedform import OperatorKind, frac_lap_lambda, phase_factor
from rfspectral.errors import FormatError, NumericError
from rfspectral.opmatrix import (
    _FOLD_CHUNK,
    OperatorMatrix,
    apply,
    build_base_matrix,
    deserialize,
    scale_to_operator,
    serialize,
    stored_columns,
)
from rfspectral.specfun import RatioKind, c_alpha, ratio_table


class RecordingStream(io.BytesIO):
    """BytesIO that records (requested size, bytes left) for every read,
    including reads into a caller's buffer."""

    def __init__(self, data):
        super().__init__(data)
        self.reads = []

    def read(self, size=-1):
        self.reads.append((size, len(self.getvalue()) - self.tell()))
        return super().read(size)

    def readinto(self, buffer):
        self.reads.append((len(buffer), len(self.getvalue()) - self.tell()))
        return super().readinto(buffer)


class TrickleStream(io.RawIOBase):
    """Unseekable stream that returns at most 1000 bytes per read."""

    def __init__(self, data):
        self.inner = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, buffer):
        return self.inner.readinto(memoryview(buffer)[:1000])


def reference_base_matrix(alpha, n, l_lim):
    """Slow direct build: every row and every column entry evaluated from the
    folded series on its own, with no conjugation copying.  For k < 0 the
    fold runs over the mirrored bins (the series of lambda_{-|k|} is the
    conjugate-symmetric one), matching the truncation convention of the
    production fill at the even-N boundary bin.  The node phase
    e^{2i l2 s_j}, s_j = pi (2j + 1) / (2N), takes its angle reduced modulo
    2 pi in integers: rounding the unreduced angle (up to ~50 rad at N = 16)
    puts about 1e-13 of error into the largest columns, more than the build
    has against a 40-digit evaluation of the same sum."""
    grid = make_grid(n, 1.0)
    p_max = l_lim * n + n - 1
    v1 = ratio_table(alpha, RatioKind.V1, p_max)
    v2 = ratio_table(alpha, RatioKind.V2, p_max)
    k_modes = mode_numbers(n)
    entries = np.zeros((n, n), dtype=np.complex128)
    for col, k in enumerate(k_modes):
        if k == 0 or (n % 2 == 0 and col == n // 2):
            continue
        sgn, m = (1, k) if k > 0 else (-1, -k)
        for j in range(n):
            s = grid.s_nodes[j]
            total = 0.0j
            for l2 in range(-(n // 2), (n + 1) // 2):
                inner = 0.0
                for l1 in range(-l_lim, l_lim + 1):
                    l = l1 * n + l2
                    inner += (
                        (-1.0) ** l1
                        * v1[abs(l)]
                        * ((1.0 - alpha) * m * m - 2.0 * m * l)
                        * v2[abs(m - l)]
                    )
                turns = (sgn * l2 * (2 * j + 1)) % (2 * n)
                total += inner * cmath.exp(1j * math.pi * turns / n)
            prefac = (
                c_alpha(alpha)
                * math.sin(s) ** (alpha - 1.0)
                / (2.0 * math.tan(alpha * math.pi / 2.0))
            )
            entries[j, col] = prefac * total
    return entries


def per_column_base_entries(alpha, n, l_lim):
    """The stored planes from the per-column fold: for each column k the
    (2 l_lim + 1) x N block of folded terms, summed over l1 and taken
    through one phased IFFT."""
    p_max = l_lim * n + n - 1
    v1 = ratio_table(alpha, RatioKind.V1, p_max)
    v2 = ratio_table(alpha, RatioKind.V2, p_max)
    l2 = mode_numbers(n)
    l1 = np.arange(-l_lim, l_lim + 1)
    folded = l1[:, None] * n + l2[None, :]
    signed_v1 = np.where(l1[:, None] % 2 == 0, 1.0, -1.0) * v1[np.abs(folded)]
    s = make_grid(n, 1.0).s_nodes
    prefac = (
        c_alpha(alpha)
        * np.sin(s) ** (alpha - 1.0)
        / (2.0 * math.tan(alpha * math.pi / 2.0))
    )
    phase = np.exp(1j * math.pi * l2 / n)
    top = (n + 1) // 2
    entries = np.zeros((2, top, stored_columns(n)))
    for k in range(1, stored_columns(n) + 1):
        poly = (1.0 - alpha) * k * k - 2.0 * k * folded
        coeff = (signed_v1 * poly * v2[np.abs(k - folded)]).sum(axis=0)
        col = (prefac * (np.fft.ifft(coeff * phase) * n))[:top]
        entries[:, :, k - 1] = col.real, col.imag
    return entries


def column_relative_error(got, want):
    """Largest |got - want| over the largest |want| in the same column, for
    full matrices or stored planes; all-zero columns must match exactly."""
    if got.ndim == 3:
        got, want = got[0] + 1j * got[1], want[0] + 1j * want[1]
    err = np.abs(got - want)
    scale = np.max(np.abs(want), axis=0)
    assert np.all(err[:, scale == 0.0] == 0.0)
    return np.max(err[:, scale > 0.0] / scale[scale > 0.0], initial=0.0)


class TestBuild:
    def test_zero_columns(self):
        full = full_payload(build_base_matrix(0.62, 16, 10))
        assert np.all(full[:, 0] == 0.0)
        assert np.all(full[:, 8] == 0.0)

    def test_odd_n_has_no_nyquist_column(self):
        full = full_payload(build_base_matrix(0.62, 9, 10))
        assert np.all(full[:, 0] == 0.0)
        assert np.count_nonzero(np.all(full == 0.0, axis=0)) == 1

    @pytest.mark.parametrize("n", [2, 3, 16, 17])
    def test_only_positive_modes_are_stored(self, n):
        # Real and imaginary planes of the top ceil(N/2) rows.
        base = build_base_matrix(0.62, n, 5)
        top = (n + 1) // 2
        assert base.entries.shape == (2, top, stored_columns(n)) == (2, top, top - 1)
        assert base.entries.dtype == np.float64

    def test_alpha_one_entries(self):
        grid = make_grid(8, 1.0)
        base = build_base_matrix(1.0, 8, 1)
        expected = 2.0 * np.sin(grid.s_nodes) ** 2 * np.exp(2j * grid.s_nodes)
        assert np.max(np.abs(full_payload(base)[:, 1] - expected)) < 1e-13

    def test_column_matches_hypergeometric_form(self):
        base = build_base_matrix(0.62, 32, 100)
        grid = make_grid(32, 1.0)
        exact = np.array([frac_lap_lambda(0.62, 2, x) for x in grid.x_nodes])
        assert np.max(np.abs(full_payload(base)[:, 2] - exact)) < 1e-10

    def test_x_domain_consistency_random(self):
        # Seeded columns of both signs against the hypergeometric form at
        # every node; mode -k is column N - k of the full matrix.
        rng = np.random.default_rng(12)
        grid = make_grid(32, 1.0)
        full = {}
        for _ in range(20):
            alpha = float(rng.choice([0.3, 0.62, 1.12, 1.37, 1.8]))
            k = int(rng.integers(1, 9)) * int(rng.choice([-1, 1]))
            rng.uniform(0.15, math.pi - 0.15)  # keeps the seed's (alpha, k) stream
            if alpha not in full:
                full[alpha] = full_payload(build_base_matrix(alpha, 32, 100))
            exact = np.array([frac_lap_lambda(alpha, k, x) for x in grid.x_nodes])
            assert np.max(np.abs(full[alpha][:, k % 32] - exact)) < 1e-9

    @pytest.mark.parametrize("alpha", [0.62, 1.37])
    @pytest.mark.parametrize("n", [8, 16])
    def test_symmetric_fill_equals_direct_build(self, alpha, n):
        l_lim = 10
        fast = full_payload(build_base_matrix(alpha, n, l_lim))
        slow = reference_base_matrix(alpha, n, l_lim)
        assert np.max(np.abs(fast - slow)) < 1e-13

    @pytest.mark.parametrize("l_lim", [1, 10])
    @pytest.mark.parametrize("alpha", [0.05, 0.62, 1.37, 1.95])
    @pytest.mark.parametrize("n", [2, 3, 8, 9, 16, 17])
    def test_fill_equals_direct_build_column_relative(self, n, alpha, l_lim):
        # Measured at most 4.0e-15 (N = 16, alpha = 0.05).
        fast = full_payload(build_base_matrix(alpha, n, l_lim))
        slow = reference_base_matrix(alpha, n, l_lim)
        assert column_relative_error(fast, slow) < 2e-14

    @pytest.mark.parametrize("alpha", [0.05, 0.62, 1.37, 1.95])
    @pytest.mark.parametrize("n", [64, 65])
    def test_matrix_products_equal_the_per_column_fold(self, n, alpha):
        # The two forms sum in different orders; measured at most 4.6e-14
        # (N = 65, alpha = 0.05), 1.2e-15 at alpha >= 1.37.
        base = build_base_matrix(alpha, n, 100)
        oracle = per_column_base_entries(alpha, n, 100)
        assert column_relative_error(base.entries, oracle) < 2e-13

    def test_row_and_column_conjugation(self):
        base = full_payload(build_base_matrix(1.37, 16, 20))
        # row mirror: row n-1-j is the conjugate of row j
        assert np.array_equal(base[::-1, :], np.conj(base))
        # column mirror: column for -k is the conjugate of column for k
        k = mode_numbers(16)
        for kk in range(1, 8):
            pos = np.flatnonzero(k == kk)[0]
            neg = np.flatnonzero(k == -kk)[0]
            assert np.array_equal(base[:, neg], np.conj(base[:, pos]))

    def test_l_lim_monotone_refinement(self):
        mats = {
            l: full_payload(build_base_matrix(1.37, 32, l)) for l in (10, 20, 40, 80)
        }
        gaps = [
            np.max(np.abs(mats[10] - mats[20])),
            np.max(np.abs(mats[20] - mats[40])),
            np.max(np.abs(mats[40] - mats[80])),
        ]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_alpha_near_one_continuity(self):
        exact = full_payload(build_base_matrix(1.0, 16, 100))
        for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
            near = full_payload(build_base_matrix(alpha, 16, 100))
            assert np.max(np.abs(near - exact)) < 1e-2

    def test_threaded_build_is_identical(self):
        serial = build_base_matrix(1.37, 64, 20)
        threaded = build_base_matrix(1.37, 64, 20, jobs=4)
        assert np.array_equal(serial.entries, threaded.entries)

    def test_threaded_build_over_several_chunks_is_identical(self):
        # Two full column chunks and a partial one.
        n = 4 * _FOLD_CHUNK + 7
        assert stored_columns(n) > 2 * _FOLD_CHUNK
        serial = build_base_matrix(0.62, n, 10)
        threaded = build_base_matrix(0.62, n, 10, jobs=2)
        assert np.array_equal(serial.entries, threaded.entries)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            build_base_matrix(2.1, 8, 10)
        with pytest.raises(ValueError):
            build_base_matrix(0.62, 8, 0)
        with pytest.raises(ValueError):
            build_base_matrix(0.62, 1, 10)
        # The alpha = 1 closed form ignores l_lim, but the matrix records it.
        with pytest.raises(ValueError, match="l_lim >= 1"):
            build_base_matrix(1.0, 8, -5)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_non_finite_entries_raise(self, monkeypatch, jobs):
        # Only the last of three column chunks holds the poisoned mode.
        n = 4 * _FOLD_CHUNK + 7
        last = stored_columns(n)
        fold = opmatrix._series_columns

        def poisoned(*args):
            columns = fold(*args)
            return lambda k: columns(k) * np.where(k == last, np.nan, 1.0)

        monkeypatch.setattr(opmatrix, "_series_columns", poisoned)
        with pytest.raises(NumericError, match="non-finite matrix entries"):
            build_base_matrix(0.62, n, 5, jobs=jobs)


class TestScale:
    @pytest.mark.parametrize("kind, gamma", [
        (OperatorKind.FRAC_LAPLACIAN, 0.0),
        (OperatorKind.WEYL_RIGHT, 0.0),
        (OperatorKind.WEYL_LEFT_NEG, 0.0),
        (OperatorKind.RIESZ_FELLER, 0.3),
    ], ids=["fl", "dr", "dl", "rf"])
    def test_scaling_shares_the_base_entries(self, kind, gamma):
        base = build_base_matrix(0.62, 16, 10)
        scaled = scale_to_operator(base, kind, gamma, 1.5)
        assert np.shares_memory(scaled.entries, base.entries)
        assert not scaled.entries.flags.writeable
        assert scaled.factor == phase_factor(kind, 0.62, gamma, 1) / 1.5 ** 0.62

    def test_symmetric_gamma_zero_is_minus_base(self):
        base = build_base_matrix(0.62, 16, 10)
        scaled = scale_to_operator(base, OperatorKind.RIESZ_FELLER, 0.0, 1.5)
        expected = -full_payload(base) / 1.5 ** 0.62
        assert np.max(np.abs(full_payload(scaled) - expected)) < 1e-15

    def test_weyl_right_column_rotation(self):
        alpha = 0.62
        base = build_base_matrix(alpha, 16, 10)
        scaled = full_payload(scale_to_operator(base, OperatorKind.WEYL_RIGHT, 0.0, 1.0))
        base = full_payload(base)
        k = mode_numbers(16)
        pos = cmath.exp(-1j * alpha * math.pi / 2.0)
        for col in np.flatnonzero(k > 0):
            assert np.allclose(scaled[:, col], pos * base[:, col])
        for col in np.flatnonzero(k < 0):
            assert np.allclose(scaled[:, col], np.conj(pos) * base[:, col])

    def test_alpha_one_scaling_halves_magnitudes(self):
        base = build_base_matrix(1.0, 8, 1)
        scaled = scale_to_operator(base, OperatorKind.FRAC_LAPLACIAN, 0.0, 2.0)
        assert np.allclose(np.abs(full_payload(scaled)), np.abs(full_payload(base)) / 2.0)

    def test_rescaling_equals_scaling_the_base(self):
        base = build_base_matrix(0.62, 8, 5)
        scaled = scale_to_operator(base, OperatorKind.RIESZ_FELLER, 0.3, 2.0)
        again = scale_to_operator(scaled, OperatorKind.WEYL_RIGHT, 0.0, 1.3)
        direct = scale_to_operator(base, OperatorKind.WEYL_RIGHT, 0.0, 1.3)
        assert (again.kind, again.alpha, again.gamma, again.l_scale, again.l_lim) == (
            direct.kind, direct.alpha, direct.gamma, direct.l_scale, direct.l_lim
        )
        assert again.factor == direct.factor
        assert full_payload(again).tobytes() == full_payload(direct).tobytes()

    def test_kind_constraints_enforced(self):
        base = build_base_matrix(0.62, 8, 5)
        with pytest.raises(ValueError):
            scale_to_operator(base, OperatorKind.DX_WEYL_RIGHT, 0.0, 1.0)
        with pytest.raises(ValueError):
            scale_to_operator(base, OperatorKind.RIESZ_FELLER, 0.9, 1.0)


class TestApply:
    def test_constant_maps_to_zero(self):
        base = build_base_matrix(0.62, 16, 10)
        c = np.zeros(16, dtype=np.complex128)
        c[0] = 3.7
        out = apply(base, CoeffVector(c))
        assert np.max(np.abs(out)) == 0.0

    def test_basis_vector_extracts_column(self):
        base = build_base_matrix(0.62, 16, 10)
        c = np.zeros(16, dtype=np.complex128)
        c[1] = 1.0
        out = apply(base, CoeffVector(c))
        assert np.array_equal(out, full_payload(base)[:, 1])

    @pytest.mark.parametrize("scaled", [False, True], ids=["base", "rf"])
    @pytest.mark.parametrize("alpha", [0.62, 1.0, 1.37])
    @pytest.mark.parametrize("n", [16, 17])
    def test_equals_full_product(self, n, alpha, scaled):
        # Both paths (real samples and generic complex coefficients) against
        # the full matrix rebuilt from the serialized payload.
        matrix = build_base_matrix(alpha, n, 20)
        if scaled:
            gamma = 0.5 * min(alpha, 2.0 - alpha)
            matrix = scale_to_operator(matrix, OperatorKind.RIESZ_FELLER, gamma, 1.7)
        full = full_payload(matrix)
        rng = np.random.default_rng(n)
        real = analyze(rng.normal(size=n), make_grid(n, 1.7))
        generic = CoeffVector(rng.normal(size=n) + 1j * rng.normal(size=n))
        assert real.real_samples and not generic.real_samples
        for coeffs in (real, generic):
            expected = full @ coeffs.coeffs
            out = apply(matrix, coeffs)
            assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))
        assert np.isrealobj(apply(matrix, real))

    @pytest.mark.parametrize("path", ["real", "complex"])
    def test_no_matrix_sized_temporaries(self, path):
        # A real plane times a complex vector would make a complex copy of
        # the plane (N^2/2 bytes here) on every call.
        n = 512
        matrix = scale_to_operator(
            build_base_matrix(1.37, n, 5), OperatorKind.RIESZ_FELLER, 0.3, 2.0
        )
        rng = np.random.default_rng(7)
        if path == "real":
            coeffs = analyze(rng.normal(size=n), make_grid(n, 2.0))
        else:
            coeffs = CoeffVector(rng.normal(size=n) + 1j * rng.normal(size=n))
        apply(matrix, coeffs)
        tracemalloc.start()
        try:
            apply(matrix, coeffs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n / 4

    def test_dimension_mismatch(self):
        base = build_base_matrix(0.62, 16, 10)
        with pytest.raises(ValueError):
            apply(base, CoeffVector(np.zeros(8, dtype=np.complex128)))


def random_matrix(n, rng):
    """Random real and imaginary planes of the top rows of the positive-mode
    columns under base labels (fl, L = 1); the implied rows and columns make
    the full matrix row- and column-conjugate-symmetric with zero mode-0 and
    Nyquist columns."""
    entries = rng.normal(size=(2, (n + 1) // 2, stored_columns(n)))
    return OperatorMatrix(
        kind=OperatorKind.FRAC_LAPLACIAN,
        alpha=1.37,
        gamma=0.0,
        l_scale=1.0,
        l_lim=77,
        n=n,
        entries=entries,
    )


class TestSerialization:
    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(42)
        matrix = random_matrix(8, rng)
        buf = io.BytesIO()
        serialize(matrix, buf)
        back = deserialize(io.BytesIO(buf.getvalue()))
        assert back.kind is matrix.kind
        assert back.alpha == matrix.alpha
        assert back.gamma == matrix.gamma
        assert back.l_scale == matrix.l_scale
        assert back.l_lim == matrix.l_lim
        assert np.array_equal(back.entries, matrix.entries)

    @pytest.mark.parametrize("kind, gamma, l_scale", [
        (OperatorKind.FRAC_LAPLACIAN, 0.0, 2.0),
        (OperatorKind.RIESZ_FELLER, 0.0, 1.5),
        (OperatorKind.RIESZ_FELLER, 0.3, 1.5),
    ], ids=["fl", "rf0", "rf"])
    @pytest.mark.parametrize("alpha", [0.62, 1.37])
    @pytest.mark.parametrize("n", [16, 17])
    def test_scaled_payload_is_the_scaled_full_matrix(self, n, alpha, kind, gamma, l_scale):
        # Byte for byte what scaling the full base matrix column by column
        # gives, signs of zero included: at odd N the middle row has entries
        # with zero imaginary parts.
        base = build_base_matrix(alpha, n, 10)
        if n % 2:
            assert np.any(base.entries[1] == 0.0)
        full = full_payload(base) / l_scale ** alpha
        if kind is not OperatorKind.FRAC_LAPLACIAN:
            k = mode_numbers(n)
            pos = phase_factor(kind, alpha, gamma, 1)
            mult = np.ones(n, dtype=np.complex128)
            mult[k > 0] = pos
            mult[k < 0] = np.conj(pos)
            full *= mult[None, :]
        scaled = scale_to_operator(base, kind, gamma, l_scale)
        buf = io.BytesIO()
        serialize(scaled, buf)
        assert buf.getvalue()[-16 * n * n :] == full.tobytes()
        with pytest.raises(FormatError, match="only base matrices"):
            deserialize(io.BytesIO(buf.getvalue()))

    @pytest.mark.parametrize("kind, gamma, l_scale", [
        (OperatorKind.FRAC_LAPLACIAN, 0.0, 2.0),
        (OperatorKind.RIESZ_FELLER, 0.3, 1.0),
    ], ids=["fl", "rf"])
    def test_scaled_header_rejected_before_payload(self, kind, gamma, l_scale):
        scaled = scale_to_operator(build_base_matrix(0.62, 16, 5), kind, gamma, l_scale)
        buf = io.BytesIO()
        serialize(scaled, buf)
        stream = RecordingStream(buf.getvalue())
        with pytest.raises(FormatError, match="only base matrices"):
            deserialize(stream)
        assert sum(size for size, _ in stream.reads) == 4 + 36

    @pytest.mark.parametrize("field, value, message", [
        ("gamma", 0.3, "skewness 0"),
        ("gamma", math.nan, "skewness 0"),
        ("alpha", 5.0, r"order must lie in \(0, 2\)"),
        ("alpha", math.nan, r"order must lie in \(0, 2\)"),
        ("l_lim", 0, "l_lim >= 1"),
    ], ids=["gamma", "gamma-nan", "alpha", "alpha-nan", "l_lim"])
    def test_unbuildable_header_rejected_before_payload(self, field, value,
                                                        message):
        buf = io.BytesIO()
        serialize(random_matrix(4, np.random.default_rng(10)), buf)
        labels = dict(zip(("n", "tag", "alpha", "gamma", "l_scale", "l_lim"),
                          struct.unpack_from("<IIdddI", buf.getvalue(), 4)))
        labels[field] = value
        data = b"RFM1" + struct.pack("<IIdddI", *labels.values())
        stream = RecordingStream(data + buf.getvalue()[40:])
        with pytest.raises(FormatError, match=message):
            deserialize(stream)
        assert sum(size for size, _ in stream.reads) == 4 + 36

    @pytest.mark.parametrize("l_lim", [-5, 2 ** 32], ids=["negative", "u32-overflow"])
    def test_unwritable_header_leaves_no_file(self, tmp_path, l_lim):
        matrix = replace(random_matrix(4, np.random.default_rng(11)), l_lim=l_lim)
        path = tmp_path / "m.rfm"
        with pytest.raises(ValueError, match="header cannot hold"):
            serialize(matrix, path)
        assert not path.exists()

    def test_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        matrix = random_matrix(5, rng)
        path = tmp_path / "m.rfm"
        serialize(matrix, path)
        back = deserialize(path)
        assert np.array_equal(back.entries, matrix.entries)

    def test_empty_payload(self):
        with pytest.raises(FormatError):
            deserialize(io.BytesIO(b""))

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            deserialize(io.BytesIO(b"NOPE" + b"\x00" * 64))

    def test_truncated_payload(self):
        rng = np.random.default_rng(2)
        buf = io.BytesIO()
        serialize(random_matrix(4, rng), buf)
        data = buf.getvalue()
        with pytest.raises(FormatError):
            deserialize(io.BytesIO(data[:-8]))

    def test_short_reads_are_continued(self):
        matrix = random_matrix(64, np.random.default_rng(10))
        buf = io.BytesIO()
        serialize(matrix, buf)
        back = deserialize(TrickleStream(buf.getvalue()))
        assert np.array_equal(back.entries, matrix.entries)
        with pytest.raises(FormatError, match="expected 65536 bytes, got 65528"):
            deserialize(TrickleStream(buf.getvalue()[:-8]))

    def test_payload_size_checked_before_read(self):
        # A header claiming n = 64 followed by only 10 payload bytes must be
        # rejected without ever asking the source for more than it holds.
        matrix = random_matrix(64, np.random.default_rng(5))
        buf = io.BytesIO()
        serialize(matrix, buf)
        header_end = len(buf.getvalue()) - 16 * 64 * 64
        stream = RecordingStream(buf.getvalue()[: header_end + 10])
        with pytest.raises(FormatError, match=r"65536 bytes.*holds 10"):
            deserialize(stream)
        assert stream.reads
        assert all(0 <= size <= left for size, left in stream.reads)

    def test_payload_without_conjugate_columns_rejected(self):
        # One flipped byte in the column of mode -3 leaves a payload that
        # the positive-mode columns cannot represent.
        n = 16
        buf = io.BytesIO()
        serialize(build_base_matrix(0.62, n, 10), buf)
        data = bytearray(buf.getvalue())
        header_end = len(data) - 16 * n * n
        data[header_end + 16 * (5 * n + n - 3) + 3] ^= 0x10
        with pytest.raises(FormatError, match=r"column 13 \(mode -3\)"):
            deserialize(io.BytesIO(data))

    @pytest.mark.parametrize("modes", [(3,), (3, -3)], ids=["one", "both"])
    def test_payload_without_conjugate_rows_rejected(self, modes):
        # One flipped byte in the real part of row 12 at mode 3 (and, for
        # "both", the same byte at mode -3, so the column of -3 stays the
        # conjugate of that of 3) leaves a bottom row that is not the
        # conjugate of row 3.
        n = 16
        buf = io.BytesIO()
        serialize(build_base_matrix(0.62, n, 10), buf)
        data = bytearray(buf.getvalue())
        header_end = len(data) - 16 * n * n
        for mode in modes:
            data[header_end + 16 * (12 * n + mode % n) + 3] ^= 0x10
        with pytest.raises(FormatError, match=r"row 12 .*row 3"):
            deserialize(io.BytesIO(data))

    @pytest.mark.parametrize("col", [0, 8])
    def test_zero_columns_checked(self, col):
        # Mode 0 and the Nyquist mode must hold zeros; either sign passes.
        n = 16
        matrix = build_base_matrix(0.62, n, 10)
        buf = io.BytesIO()
        serialize(matrix, buf)
        offset = len(buf.getvalue()) - 16 * n * n + 16 * (4 * n + col)
        data = bytearray(buf.getvalue())
        data[offset : offset + 16] = np.array([-0.0, -0.0]).tobytes()
        assert np.array_equal(deserialize(io.BytesIO(data)).entries, matrix.entries)
        data[offset : offset + 8] = np.array([1e-300]).tobytes()
        with pytest.raises(FormatError, match=rf"column {col} "):
            deserialize(io.BytesIO(data))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "minus-inf"])
    def test_non_finite_payload_rejected(self, value):
        # serialize writes the implied copies of a non-finite stored entry
        # consistently, so an inf passes every implied-entry comparison.
        matrix = random_matrix(16, np.random.default_rng(8))
        entries = matrix.entries.copy()
        entries[1, 3, 2] = value
        buf = io.BytesIO()
        serialize(replace(matrix, entries=entries), buf)
        with pytest.raises(FormatError, match=r"column 3 \(mode 3\) is not finite"):
            deserialize(io.BytesIO(buf.getvalue()))

    @pytest.mark.parametrize("n", [0, 1])
    def test_size_below_two_rejected(self, n):
        buf = io.BytesIO()
        serialize(random_matrix(2, np.random.default_rng(6)), buf)
        data = bytearray(buf.getvalue()[:40])
        data[4:8] = n.to_bytes(4, "little")
        with pytest.raises(FormatError, match="size must be >= 2"):
            deserialize(io.BytesIO(bytes(data) + b"\x00" * (16 * n * n)))

    def test_unknown_kind_tag(self):
        rng = np.random.default_rng(3)
        buf = io.BytesIO()
        serialize(random_matrix(2, rng), buf)
        data = bytearray(buf.getvalue())
        data[8] = 250
        with pytest.raises(FormatError):
            deserialize(io.BytesIO(data))

    def test_deserialize_reuses_its_row_blocks(self):
        # The planes (4 MiB at N = 1024), one payload block read in place
        # and one block of implied rows (4 MiB each) peak at 14.4 MiB.  A
        # new bytes object per block keeps two payload blocks alive during
        # each read: 16.2 MiB.
        n = 1024
        buf = io.BytesIO()
        serialize(random_matrix(n, np.random.default_rng(9)), buf)
        buf.seek(0)
        tracemalloc.start()
        try:
            deserialize(buf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 15 * 2 ** 20

    def test_byte_accounting_256(self):
        rng = np.random.default_rng(4)
        matrix = random_matrix(256, rng)
        buf = io.BytesIO()
        serialize(matrix, buf)
        header = 4 + 4 + 4 + 8 + 8 + 8 + 4
        assert len(buf.getvalue()) == header + 256 * 256 * 16
