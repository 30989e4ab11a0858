"""Operational matrix construction, scaling, application and serialization."""

import cmath
import io
import math

import numpy as np
import pytest

from rfspectral.basis import CoeffVector, analyze, make_grid, mode_numbers
from rfspectral.closedform import OperatorKind, frac_lap_lambda, phase_factor
from rfspectral.errors import BudgetError, FormatError, StateError
from rfspectral.opmatrix import (
    OperatorMatrix,
    apply,
    build_base_matrix,
    deserialize,
    scale_to_operator,
    serialize,
    stored_columns,
)
from rfspectral.specfun import RatioKind, c_alpha, ratio_table


def full_payload(matrix):
    """The full N x N matrix as RFM1 writes it, implied columns included."""
    buf = io.BytesIO()
    serialize(matrix, buf)
    payload = buf.getvalue()[-16 * matrix.n * matrix.n :]
    return np.frombuffer(payload, dtype=np.complex128).reshape(matrix.n, matrix.n)


def reference_base_matrix(alpha, n, l_lim):
    """Slow direct build: every row and every column entry evaluated from the
    folded series on its own, with no conjugation copying.  For k < 0 the
    fold runs over the mirrored bins (the series of lambda_{-|k|} is the
    conjugate-symmetric one), matching the truncation convention of the
    production fill at the even-N boundary bin."""
    grid = make_grid(n, 1.0)
    p_max = l_lim * n + n - 1
    v1 = ratio_table(alpha, RatioKind.V1, p_max).values
    v2 = ratio_table(alpha, RatioKind.V2, p_max).values
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
                total += inner * cmath.exp(2j * sgn * l2 * s)
            prefac = (
                c_alpha(alpha)
                * math.sin(s) ** (alpha - 1.0)
                / (2.0 * math.tan(alpha * math.pi / 2.0))
            )
            entries[j, col] = prefac * total
    return entries


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
        base = build_base_matrix(0.62, n, 5)
        assert base.entries.shape == (n, stored_columns(n)) == (n, (n + 1) // 2 - 1)

    def test_alpha_one_entries(self):
        grid = make_grid(8, 1.0)
        base = build_base_matrix(1.0, 8, 1)
        expected = 2.0 * np.sin(grid.s_nodes) ** 2 * np.exp(2j * grid.s_nodes)
        assert np.max(np.abs(base.entries[:, 0] - expected)) < 1e-13

    def test_column_matches_hypergeometric_form(self):
        base = build_base_matrix(0.62, 32, 100)
        grid = make_grid(32, 1.0)
        exact = np.array([frac_lap_lambda(0.62, 2, x) for x in grid.x_nodes])
        assert np.max(np.abs(base.entries[:, 1] - exact)) < 1e-10

    @pytest.mark.parametrize("alpha", [0.62, 1.37])
    @pytest.mark.parametrize("n", [8, 16])
    def test_symmetric_fill_equals_direct_build(self, alpha, n):
        l_lim = 10
        fast = full_payload(build_base_matrix(alpha, n, l_lim))
        slow = reference_base_matrix(alpha, n, l_lim)
        assert np.max(np.abs(fast - slow)) < 1e-13

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
            l: build_base_matrix(1.37, 32, l).entries for l in (10, 20, 40, 80)
        }
        gaps = [
            np.max(np.abs(mats[10] - mats[20])),
            np.max(np.abs(mats[20] - mats[40])),
            np.max(np.abs(mats[40] - mats[80])),
        ]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_alpha_near_one_continuity(self):
        exact = build_base_matrix(1.0, 16, 100).entries
        for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
            near = build_base_matrix(alpha, 16, 100).entries
            assert np.max(np.abs(near - exact)) < 1e-2

    def test_threaded_build_is_identical(self):
        serial = build_base_matrix(1.37, 64, 20)
        threaded = build_base_matrix(1.37, 64, 20, jobs=4)
        assert np.array_equal(serial.entries, threaded.entries)

    def test_work_budget(self):
        with pytest.raises(BudgetError):
            build_base_matrix(0.62, 64, 100, max_work=1e3)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            build_base_matrix(2.1, 8, 10)
        with pytest.raises(ValueError):
            build_base_matrix(0.62, 8, 0)
        with pytest.raises(ValueError):
            build_base_matrix(0.62, 1, 10)


class TestScale:
    def test_symmetric_gamma_zero_is_minus_base(self):
        base = build_base_matrix(0.62, 16, 10)
        scaled = scale_to_operator(base, OperatorKind.RIESZ_FELLER, 0.0, 1.5)
        expected = -base.entries / 1.5 ** 0.62
        assert np.max(np.abs(scaled.entries - expected)) < 1e-15

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
        assert np.allclose(np.abs(scaled.entries), np.abs(base.entries) / 2.0)

    def test_double_scaling_rejected(self):
        base = build_base_matrix(0.62, 8, 5)
        scaled = scale_to_operator(base, OperatorKind.RIESZ_FELLER, 0.3, 2.0)
        with pytest.raises(StateError):
            scale_to_operator(scaled, OperatorKind.WEYL_RIGHT, 0.0, 1.0)

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
        assert np.array_equal(out, base.entries[:, 0])

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
        real = analyze(rng.normal(size=n), make_grid(n, 1.7), krasny_eps=0.0)
        generic = CoeffVector(rng.normal(size=n) + 1j * rng.normal(size=n))
        assert real.real_samples and not generic.real_samples
        for coeffs in (real, generic):
            expected = full @ coeffs.coeffs
            out = apply(matrix, coeffs)
            assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))
        assert np.isrealobj(apply(matrix, real))

    def test_dimension_mismatch(self):
        base = build_base_matrix(0.62, 16, 10)
        with pytest.raises(ValueError):
            apply(base, CoeffVector(np.zeros(8, dtype=np.complex128)))


def random_matrix(n, rng):
    """Random positive-mode columns; the implied ones make the full matrix
    column-conjugate-symmetric with zero mode-0 and Nyquist columns."""
    shape = (n, stored_columns(n))
    entries = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return OperatorMatrix(
        kind=OperatorKind.RIESZ_FELLER,
        alpha=1.37,
        gamma=-0.63,
        l_scale=2.5,
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
        back = deserialize(buf.getvalue())
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
            assert np.any(base.entries.imag == 0.0)
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
        back = deserialize(buf.getvalue())
        assert back.entries.tobytes() == scaled.entries.tobytes()

    def test_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        matrix = random_matrix(5, rng)
        path = tmp_path / "m.rfm"
        serialize(matrix, path)
        back = deserialize(path)
        assert np.array_equal(back.entries, matrix.entries)

    def test_empty_payload(self):
        with pytest.raises(FormatError):
            deserialize(b"")

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            deserialize(b"NOPE" + b"\x00" * 64)

    def test_truncated_payload(self):
        rng = np.random.default_rng(2)
        buf = io.BytesIO()
        serialize(random_matrix(4, rng), buf)
        data = buf.getvalue()
        with pytest.raises(FormatError):
            deserialize(data[:-8])

    def test_payload_size_checked_before_read(self):
        # A header claiming n = 64 followed by only 10 payload bytes must be
        # rejected without ever asking the source for more than it holds.
        reads = []

        class RecordingStream(io.BytesIO):
            def read(self, size=-1):
                reads.append((size, len(self.getvalue()) - self.tell()))
                return super().read(size)

        matrix = random_matrix(64, np.random.default_rng(5))
        buf = io.BytesIO()
        serialize(matrix, buf)
        header_end = len(buf.getvalue()) - 16 * 64 * 64
        stream = RecordingStream(buf.getvalue()[: header_end + 10])
        with pytest.raises(FormatError, match=r"65536 bytes.*holds 10"):
            deserialize(stream)
        assert reads
        assert all(0 <= size <= left for size, left in reads)

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
            deserialize(bytes(data))

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
        assert np.array_equal(deserialize(bytes(data)).entries, matrix.entries)
        data[offset : offset + 8] = np.array([1e-300]).tobytes()
        with pytest.raises(FormatError, match=rf"column {col} "):
            deserialize(bytes(data))

    @pytest.mark.parametrize("n", [0, 1])
    def test_size_below_two_rejected(self, n):
        buf = io.BytesIO()
        serialize(random_matrix(2, np.random.default_rng(6)), buf)
        data = bytearray(buf.getvalue()[:40])
        data[4:8] = n.to_bytes(4, "little")
        with pytest.raises(FormatError, match="size must be >= 2"):
            deserialize(bytes(data) + b"\x00" * (16 * n * n))

    def test_unknown_kind_tag(self):
        rng = np.random.default_rng(3)
        buf = io.BytesIO()
        serialize(random_matrix(2, rng), buf)
        data = bytearray(buf.getvalue())
        data[8] = 250
        with pytest.raises(FormatError):
            deserialize(bytes(data))

    def test_byte_accounting_256(self):
        rng = np.random.default_rng(4)
        matrix = random_matrix(256, rng)
        buf = io.BytesIO()
        serialize(matrix, buf)
        header = 4 + 4 + 4 + 8 + 8 + 8 + 4
        assert len(buf.getvalue()) == header + 256 * 256 * 16
