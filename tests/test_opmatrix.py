"""Operational matrix construction, scaling, application and serialization."""

import cmath
import io
import math
import struct
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from reference_formulas import full_analysis, full_payload
from rfspectral import opmatrix
from rfspectral.basis import CoeffVector, analyze, make_grid, mode_numbers
from rfspectral.closedform import CLOSED_FORMS, OperatorKind, frac_lap_lambda, phase_factor
from rfspectral.errors import FormatError, NumericError
from rfspectral.operators import apply_reference
from rfspectral.opmatrix import (
    _FOLD_APPLY_MIN,
    _FOLD_CHUNK,
    OperatorMatrix,
    apply,
    build_base_matrix,
    deserialize,
    scale_to_operator,
    serialize,
    stored_columns,
)
from rfspectral.specfun import c_alpha, ratio_table


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
    v1 = ratio_table(alpha, p_max)
    v2 = ratio_table(-alpha, p_max)
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


def per_column_base_entries(alpha, n, l_lim, dtype=np.float64):
    """The stored planes from the per-column fold: for each column k the
    (2 l_lim + 1) x N block of folded terms, summed over l1 and taken
    through one phased IFFT, in `dtype` from the double ratio tables and
    nodes."""
    p_max = l_lim * n + n - 1
    v1 = ratio_table(alpha, p_max).astype(dtype)
    v2 = ratio_table(-alpha, p_max).astype(dtype)
    l2 = mode_numbers(n)
    l1 = np.arange(-l_lim, l_lim + 1)
    folded = l1[:, None] * n + l2[None, :]
    signed_v1 = np.where(l1[:, None] % 2 == 0, 1.0, -1.0).astype(dtype) * v1[np.abs(folded)]
    s = make_grid(n, 1.0).s_nodes.astype(dtype)
    a, pi = dtype(alpha), dtype(math.pi)
    prefac = c_alpha(alpha) * np.sin(s) ** (a - 1) / (2 * np.tan(a * pi / 2))
    phase = np.exp(1j * pi * l2.astype(dtype) / n)
    top = (n + 1) // 2
    entries = np.zeros((2, top, stored_columns(n)), dtype=dtype)
    for k in range(1, stored_columns(n) + 1):
        poly = (1 - a) * k * k - 2 * k * folded
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


def poison_last_column(monkeypatch, n):
    """Make the series build's column of the last stored mode at size n NaN."""
    last = stored_columns(n)
    fold = opmatrix._series_columns

    def poisoned(*args):
        columns, operator = fold(*args)
        return lambda k: columns(k) * np.where(k == last, np.nan, 1.0), operator

    monkeypatch.setattr(opmatrix, "_series_columns", poisoned)


def count_chunks(monkeypatch):
    """The column chunks the build stores from now on, one entry per chunk."""
    chunks = []
    fan_out = opmatrix.fan_out

    def counting(store, items, jobs):
        return fan_out(lambda k0: (chunks.append(k0), store(k0))[1], items, jobs)

    monkeypatch.setattr(opmatrix, "fan_out", counting)
    return chunks


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

    # Twice the worst column-relative gap measured at N = 64 and 65 with
    # l_lim = 100; below alpha = 1 the fold's shell truncation sets it.
    COLUMN_BOUNDS = {
        0.05: 6.3e-10, 0.3: 1.3e-10, 0.62: 7.4e-12,
        1.0: 4.4e-14, 1.37: 6.5e-14, 1.95: 2.3e-14,
    }

    @pytest.mark.parametrize("alpha", sorted(COLUMN_BOUNDS))
    @pytest.mark.parametrize("n", [64, 65])
    def test_column_matches_hypergeometric_form(self, n, alpha):
        # Every stored column k = 1..ceil(N/2) - 1 and its mode -k, column
        # N - k of the full matrix, against the paper's formula at the nodes.
        full = full_payload(build_base_matrix(alpha, n, 100))
        grid = make_grid(n, 1.0)
        bound = self.COLUMN_BOUNDS[alpha]
        modes = np.arange(1, (n + 1) // 2)
        for k in (modes, -modes):
            exact = np.array(
                [[frac_lap_lambda(alpha, int(j), x) for j in k] for x in grid.x_nodes]
            )
            assert column_relative_error(full[:, k % n], exact) < bound

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

    @pytest.mark.parametrize("alpha", [0.05, 0.62, 1.37, 1.95])
    @pytest.mark.parametrize("n", [2, 3, 8, 9, 64, 65, 256])
    @pytest.mark.parametrize("l_lim", [1, 2, 3, 10, 100])
    def test_near_shells_and_far_interpolant_equal_the_per_column_fold(
        self, l_lim, n, alpha
    ):
        # The build sums |l1| <= 1 and interpolates the far shells; the
        # per-column fold sums every shell at every entry.  Measured at most
        # 9.8e-14 (N = 256, alpha = 0.05, l_lim = 100).
        base = build_base_matrix(alpha, n, l_lim)
        oracle = per_column_base_entries(alpha, n, l_lim)
        assert column_relative_error(base.entries, oracle) < 2e-13

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
        reason="np.longdouble is no wider than double here",
    )
    @pytest.mark.parametrize("alpha, bound", [(0.05, 8e-14), (0.3, 2.5e-14)])
    def test_small_alpha_rounding_against_an_extended_fold(self, alpha, bound):
        # Against the same tables folded in 80 bits, N = 256: measured
        # 4.3e-14 (alpha = 0.05) and 1.1e-14 (0.3); summing all 201 shells
        # in every matrix product read 1.7e-13 and 4.0e-14.
        base = build_base_matrix(alpha, 256, 100)
        oracle = per_column_base_entries(alpha, 256, 100, np.longdouble)
        assert column_relative_error(base.entries, oracle) < bound

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

    @pytest.mark.parametrize("tile, chunk", [(16, 100), (16, _FOLD_CHUNK), (128, 100)])
    @pytest.mark.parametrize("alpha", [0.05, 1.37])
    @pytest.mark.parametrize("n", [64, 65, 257])
    def test_entries_do_not_depend_on_tiles_or_chunks(
        self, monkeypatch, n, alpha, tile, chunk
    ):
        # Each near and far sum is one dot product of a stacked product,
        # whatever tile or chunk holds it.  None of these sizes makes a
        # one-column chunk, which BLAS's matrix-vector kernel would sum.
        default = build_base_matrix(alpha, n, 100).entries
        monkeypatch.setattr(opmatrix, "_FOLD_TILE", tile)
        monkeypatch.setattr(opmatrix, "_FOLD_CHUNK", chunk)
        assert np.array_equal(build_base_matrix(alpha, n, 100).entries, default)

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

    @pytest.mark.parametrize("n, l_lim", [(16.0, 5), (16, 5.0)], ids=["n", "l_lim"])
    def test_labels_must_be_integers(self, n, l_lim):
        with pytest.raises(ValueError, match="must be an integer"):
            build_base_matrix(0.62, n, l_lim)

    def test_numpy_integer_labels_pass(self):
        got = build_base_matrix(0.62, np.int64(16), np.int32(5))
        assert np.array_equal(got.entries, build_base_matrix(0.62, 16, 5).entries)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_non_finite_entries_raise(self, monkeypatch, jobs):
        # Only the last of three column chunks holds the poisoned mode.
        n = 4 * _FOLD_CHUNK + 7
        poison_last_column(monkeypatch, n)
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
        assert scaled.factor == phase_factor(kind, 0.62, gamma) / 1.5 ** 0.62

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
        c = np.zeros(9, dtype=np.complex128)
        c[0] = 3.7
        out = apply(base, CoeffVector(c, 16))
        assert np.max(np.abs(out)) == 0.0

    def test_basis_vector_extracts_column(self):
        # u_1 = 1 stands for u_1 = u_{-1} = 1.
        base = build_base_matrix(0.62, 16, 10)
        c = np.zeros(9, dtype=np.complex128)
        c[1] = 1.0
        out = apply(base, CoeffVector(c, 16))
        full = full_payload(base)
        assert np.array_equal(out, full[:, 1] + full[:, -1])

    @pytest.mark.parametrize("scaled", [False, True], ids=["base", "rf"])
    @pytest.mark.parametrize("alpha", [0.62, 1.0, 1.37])
    @pytest.mark.parametrize("n", [16, 17])
    def test_equals_full_product(self, n, alpha, scaled):
        # The half-spectrum product against the full matrix, rebuilt from
        # the serialized payload, times the full-spectrum coefficients.
        matrix = build_base_matrix(alpha, n, 20)
        if scaled:
            gamma = 0.5 * min(alpha, 2.0 - alpha)
            matrix = scale_to_operator(matrix, OperatorKind.RIESZ_FELLER, gamma, 1.7)
        samples = np.random.default_rng(n).normal(size=n)
        expected = full_payload(matrix) @ full_analysis(samples)
        out = apply(matrix, analyze(samples))
        assert np.isrealobj(out)
        assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_no_matrix_sized_temporaries(self):
        # A real plane times a complex vector would make a complex copy of
        # the plane (N^2/2 bytes here) on every call.
        n = 512
        matrix = scale_to_operator(
            build_base_matrix(1.37, n, 5), OperatorKind.RIESZ_FELLER, 0.3, 2.0
        )
        coeffs = analyze(np.random.default_rng(7).normal(size=n))
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
            apply(base, CoeffVector(np.zeros(5, dtype=np.complex128), 8))


# Largest |fold - dense| over max |dense| allowed per alpha, about twice the
# worst measured over the grid of test_fold_equals_dense (2.5e-12, 7.6e-15,
# 1.8e-15 and 2.0e-15, all on white noise).  At alpha = 0.05 the FFT's
# rounding of the near-shell Toeplitz products is amplified by the
# cancellation of the fold coefficients at the nodes.
FOLD_BOUNDS = {0.05: 5e-12, 0.62: 1.5e-14, 1.37: 4e-15, 1.95: 4e-15}

# The erf battery's max-norm error through the fold at N = 4096 (rf at
# gamma = 0 and at the cusp, L = 1.5, l_lim = 100), per alpha: about twice
# the values measured before these bounds were set (1.58e-13 and 3.93e-14,
# 7.94e-15 and 1.07e-14, 2.11e-15 and 2.44e-15, 4.93e-14 and 4.93e-14,
# 6.29e-13 and 6.29e-13).  Dense gives 3.99e-14 at alpha = 0.05, gamma = 0
# and 4.22e-15 at alpha = 0.3, gamma = 0; in the other cells the fold is
# within 1.01x of dense.
FOLD_ERF_BOUNDS_4096 = {
    0.05: (3.2e-13, 8e-14),
    0.3: (1.6e-14, 2.2e-14),
    0.62: (4.2e-15, 5e-15),
    1.37: (1e-13, 1e-13),
    1.95: (1.3e-12, 1.3e-12),
}


def dense_values(matrix, coeffs):
    """2 Re(M+ f u+) as the two plane products, top rows then the mirrored
    bottom rows."""
    g = matrix.factor * coeffs.coeffs[1 : stored_columns(matrix.n) + 1]
    a = matrix.entries[0] @ g.real
    b = matrix.entries[1] @ g.imag
    return np.concatenate((2.0 * (a - b), 2.0 * (a + b)[matrix.n // 2 - 1 :: -1]))


def fold_inputs(n, l_scale):
    """White-noise samples and the smooth erf samples less their arctan
    split, on the nodes of map scale L."""
    x = make_grid(n, l_scale).x_nodes
    erf = CLOSED_FORMS["erf"]
    return [np.random.default_rng(n).normal(size=n), erf.value(x) - erf.aux.aux_values(x)]


class TestFoldApply:
    @pytest.mark.parametrize("alpha", list(FOLD_BOUNDS))
    @pytest.mark.parametrize("n", [16, 17, 64, 65, 256, 257, 2048, 2049])
    def test_fold_equals_dense(self, monkeypatch, n, alpha):
        # The same build applied through its fold and through its planes,
        # for fl and for rf at gamma = 0 and at the cusp; below the size
        # rule only with the rule lowered.
        if n < _FOLD_APPLY_MIN:
            monkeypatch.setattr(opmatrix, "_FOLD_APPLY_MIN", 16)
        base = build_base_matrix(alpha, n, 100)
        assert base.fold is not None
        cusp = min(alpha, 2.0 - alpha)
        for kind, gamma, l_scale in [
            (OperatorKind.FRAC_LAPLACIAN, 0.0, 1.0),
            (OperatorKind.RIESZ_FELLER, 0.0, 1.5),
            (OperatorKind.RIESZ_FELLER, cusp, 1.5),
        ]:
            matrix = scale_to_operator(base, kind, gamma, l_scale)
            dense = replace(matrix, fold=None)
            for samples in fold_inputs(n, l_scale):
                coeffs = analyze(samples)
                expected = apply(dense, coeffs)
                out = apply(matrix, coeffs)
                assert np.isrealobj(out) and out.shape == (n,)
                gap = np.max(np.abs(out - expected))
                assert gap <= FOLD_BOUNDS[alpha] * np.max(np.abs(expected))

    @pytest.mark.parametrize("alpha", list(FOLD_ERF_BOUNDS_4096))
    def test_fold_erf_battery_at_4096(self, alpha):
        # The small-alpha cells lose accuracy above N = 2048, where no other
        # test applies a fold.
        base = build_base_matrix(alpha, 4096, 100)
        assert base.fold is not None
        cusp = min(alpha, 2.0 - alpha)
        for gamma, bound in zip((0.0, cusp), FOLD_ERF_BOUNDS_4096[alpha]):
            report = apply_reference("erf", OperatorKind.RIESZ_FELLER, alpha, gamma,
                                     4096, 1.5, 100, base=base)
            assert report.linf_error <= bound

    def test_fold_only_at_or_above_the_size_rule(self):
        coeffs = analyze(np.random.default_rng(3).normal(size=_FOLD_APPLY_MIN - 1))
        below = build_base_matrix(0.62, _FOLD_APPLY_MIN - 1, 5)
        assert below.fold is None
        assert np.array_equal(apply(below, coeffs), dense_values(below, coeffs))
        assert build_base_matrix(0.62, _FOLD_APPLY_MIN, 5).fold is not None

    def test_alpha_one_has_no_fold(self, monkeypatch):
        monkeypatch.setattr(opmatrix, "_FOLD_APPLY_MIN", 16)
        matrix = build_base_matrix(1.0, 64, 10)
        assert matrix.fold is None
        coeffs = analyze(np.random.default_rng(4).normal(size=64))
        assert np.array_equal(apply(matrix, coeffs), dense_values(matrix, coeffs))

    def test_read_back_matrix_has_no_fold(self, monkeypatch):
        # An RFM1 file holds only the dense matrix: the read-back applies
        # through its planes, bit for bit as the build's planes do.
        monkeypatch.setattr(opmatrix, "_FOLD_APPLY_MIN", 16)
        built = build_base_matrix(1.37, 65, 20)
        buf = io.BytesIO()
        serialize(built, buf)
        buf.seek(0)
        read = deserialize(buf)
        assert built.fold is not None and read.fold is None
        coeffs = analyze(np.random.default_rng(5).normal(size=65))
        out = apply(read, coeffs)
        assert np.array_equal(out, apply(replace(built, fold=None), coeffs))
        assert np.array_equal(out, dense_values(read, coeffs))

    def test_fold_apply_allocates_o_of_n(self):
        # The fold's products hold O(N) numbers: at most a (2, P) and a
        # (3, P) complex FFT array at once, P < 2 N, so under 256 N bytes
        # (N^2 / 4.5 here).
        n = _FOLD_APPLY_MIN
        matrix = scale_to_operator(
            build_base_matrix(1.37, n, 5), OperatorKind.RIESZ_FELLER, 0.3, 2.0
        )
        coeffs = analyze(np.random.default_rng(7).normal(size=n))
        apply(matrix, coeffs)
        tracemalloc.start()
        try:
            apply(matrix, coeffs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * n

    def test_scaling_keeps_the_fold(self, monkeypatch):
        monkeypatch.setattr(opmatrix, "_FOLD_APPLY_MIN", 16)
        base = build_base_matrix(0.62, 64, 10)
        scaled = scale_to_operator(base, OperatorKind.RIESZ_FELLER, 0.3, 2.0)
        assert scaled.fold is base.fold
        assert "fold" not in repr(scaled)


class TestDeferredPlanes:
    def test_fold_build_makes_no_planes_until_read(self, monkeypatch):
        # At N = 4096 the planes take 4 N^2 bytes (64 MiB).  A build with
        # l_lim = 5 and one apply peaked at 4.6 MiB under tracemalloc, so
        # N^2 / 2 bytes (8 MiB, a quarter of one plane) bounds them.
        n = 4096
        chunks = count_chunks(monkeypatch)
        coeffs = analyze(np.random.default_rng(8).normal(size=n))
        tracemalloc.start()
        try:
            base = build_base_matrix(1.37, n, 5)
            apply(base, coeffs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert base.fold is not None
        assert peak < n * n / 2
        copies = [
            scale_to_operator(base, OperatorKind.RIESZ_FELLER, 0.3, 2.0),
            scale_to_operator(base, OperatorKind.DX_WEYL_RIGHT, 0.0, 1.5),
        ]
        repr(copies[0])
        assert chunks == []
        # The first read makes the planes once, for the build and every copy.
        entries = copies[0].entries
        made = len(chunks)
        assert made == -(-stored_columns(n) // _FOLD_CHUNK)
        for matrix in (base, *copies, replace(copies[1], fold=None)):
            assert np.shares_memory(matrix.entries, entries)
        assert len(chunks) == made
        assert not entries.flags.writeable
        monkeypatch.setattr(opmatrix, "_FOLD_APPLY_MIN", n + 1)
        eager = build_base_matrix(1.37, n, 5)
        assert eager.fold is None
        assert entries.tobytes() == eager.entries.tobytes()

    def test_concurrent_first_reads_make_the_planes_once(self, monkeypatch):
        # More readers than cores, switching every microsecond: a lost
        # check-then-make would build the planes twice or hand out two
        # arrays.
        monkeypatch.setattr(opmatrix, "_FOLD_APPLY_MIN", 16)
        chunks = count_chunks(monkeypatch)
        n = 2 * _FOLD_CHUNK + 3
        base = build_base_matrix(0.62, n, 5)
        got = []
        readers = [
            threading.Thread(target=lambda m: got.append(m.entries), args=(matrix,))
            for matrix in [base] * 4 + [
                scale_to_operator(base, OperatorKind.RIESZ_FELLER, 0.3, l_scale)
                for l_scale in (1.5, 2.0, 2.5, 3.0)
            ]
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert len(got) == len(readers)
        assert all(entries is got[0] for entries in got)
        assert len(chunks) == -(-stored_columns(n) // _FOLD_CHUNK)

    def test_paper_scale_apply_makes_no_n2_object(self):
        # At N = 65536 the planes would take 16 GiB.  The build and one
        # apply peaked at 170 MiB under tracemalloc.
        n = 65536
        coeffs = analyze(np.random.default_rng(9).normal(size=n))
        tracemalloc.start()
        try:
            out = apply(build_base_matrix(1.37, n, 100), coeffs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (n,) and np.all(np.isfinite(out))
        assert peak < 512 * 2**20

    @pytest.mark.parametrize("table", range(4), ids=["w", "weights", "far_a", "far_b"])
    def test_non_finite_fold_tables_raise_at_build(self, monkeypatch, table):
        # The planes are not made at build time, so the tables of the fold
        # carry the check.
        monkeypatch.setattr(opmatrix, "_FOLD_APPLY_MIN", 16)
        tables = opmatrix._fold_tables

        def poisoned(*args):
            got = [array.copy() for array in tables(*args)]
            got[table].flat[-1] = np.nan
            return tuple(got)

        monkeypatch.setattr(opmatrix, "_fold_tables", poisoned)
        with pytest.raises(NumericError, match="non-finite matrix entries"):
            build_base_matrix(0.62, 64, 5)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_non_finite_planes_raise_when_read(self, monkeypatch, tmp_path, jobs):
        # Only the last of three column chunks holds the poisoned mode: the
        # fold build passes, and its planes fail when they are made, before
        # serialize opens its path.
        monkeypatch.setattr(opmatrix, "_FOLD_APPLY_MIN", 16)
        n = 4 * _FOLD_CHUNK + 7
        poison_last_column(monkeypatch, n)
        base = build_base_matrix(0.62, n, 5, jobs=jobs)
        assert base.fold is not None
        path = tmp_path / "m.rfm"
        for matrix in (base, scale_to_operator(base, OperatorKind.RIESZ_FELLER, 0.3, 2.0)):
            with pytest.raises(NumericError, match="non-finite matrix entries"):
                serialize(matrix, path)
            assert not path.exists()
        with pytest.raises(NumericError, match="non-finite matrix entries"):
            base.entries

    def test_entries_given_as_an_array(self, monkeypatch):
        # An array given as entries, to a fold build's copy too, is checked
        # and made read-only on construction.
        monkeypatch.setattr(opmatrix, "_FOLD_APPLY_MIN", 16)
        base = build_base_matrix(0.62, 64, 5)
        planes = np.random.default_rng(10).normal(size=(2, 32, stored_columns(64)))
        matrix = replace(base, entries=planes)
        assert matrix.entries is planes and not planes.flags.writeable
        assert matrix.fold is base.fold
        for bad in (planes[:, 1:], planes.astype(np.float32)):
            with pytest.raises(ValueError, match="entries must be float64"):
                replace(base, entries=bad)


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


def deserialize_peak(n):
    """Peak tracemalloc bytes of reading back a serialized random matrix."""
    buf = io.BytesIO()
    serialize(random_matrix(n, np.random.default_rng(9)), buf)
    buf.seek(0)
    tracemalloc.start()
    try:
        deserialize(buf)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


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
    @pytest.mark.parametrize("n", [2, 16, 17])
    def test_scaled_payload_is_the_scaled_full_matrix(self, n, alpha, kind, gamma, l_scale):
        # Byte for byte what scaling the full base matrix column by column
        # gives, signs of zero included: at odd N the middle row has entries
        # with zero imaginary parts, and N = 2 stores no entries at all.
        base = build_base_matrix(alpha, n, 10)
        if n % 2:
            assert np.any(base.entries[1] == 0.0)
        full = full_payload(base) / l_scale ** alpha
        if kind is not OperatorKind.FRAC_LAPLACIAN:
            k = mode_numbers(n)
            pos = phase_factor(kind, alpha, gamma)
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

    @pytest.mark.parametrize("row, col, part", [(12, 3, 0), (3, 13, 1)],
                             ids=["mirrored-row", "minus-k-column"])
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_implied_entry_rejected(self, value, row, col, part):
        # Row 12 mirrors row 3, and column 13 holds mode -3; each is
        # named at its own row and column.
        n = 16
        buf = io.BytesIO()
        serialize(build_base_matrix(0.62, n, 10), buf)
        data = bytearray(buf.getvalue())
        offset = len(data) - 16 * n * n + 16 * (row * n + col) + 8 * part
        data[offset : offset + 8] = np.array([value]).tobytes()
        mode = mode_numbers(n)[col]
        with pytest.raises(FormatError,
                           match=rf"row {row} column {col} \(mode {mode}\) is not finite"):
            deserialize(io.BytesIO(data))

    def test_implied_zero_sign_in_middle_row_passes(self):
        # At odd N the middle row (x = 0) holds entries whose imaginary
        # part is exactly zero; the flipped sign of the zero in their
        # implied -k copies still matches, and the planes read back the same.
        n = 17
        matrix = build_base_matrix(0.62, n, 10)
        mid = n // 2
        modes = 1 + np.flatnonzero(matrix.entries[1, mid] == 0.0)
        assert len(modes)
        buf = io.BytesIO()
        serialize(matrix, buf)
        data = bytearray(buf.getvalue())
        for mode in modes:
            # The sign bit of the imaginary part of row mid, column n - k.
            data[len(data) - 16 * n * n + 16 * (mid * n + n - mode) + 15] ^= 0x80
        assert bytes(data) != buf.getvalue()
        back = deserialize(io.BytesIO(data))
        assert back.entries.tobytes() == matrix.entries.tobytes()

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
        # and one block of implied rows (512 KiB each) peak at 5.3 MiB.  A
        # new bytes object per block keeps two payload blocks alive during
        # each read: 5.5 MiB.
        assert deserialize_peak(1024) < 15 * 2 ** 20

    def test_deserialize_reads_its_payload_in_place(self):
        # At N = 256 the planes are 254 KiB, so the blocks set the peak:
        # 1.53 MiB read in place, 1.78 MiB with a bytes object per block.
        assert deserialize_peak(256) < 1.65 * 2 ** 20

    def test_byte_accounting_256(self):
        rng = np.random.default_rng(4)
        matrix = random_matrix(256, rng)
        buf = io.BytesIO()
        serialize(matrix, buf)
        header = 4 + 4 + 4 + 8 + 8 + 8 + 4
        assert len(buf.getvalue()) == header + 256 * 256 * 16
