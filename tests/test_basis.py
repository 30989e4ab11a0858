"""Grid, basis functions and the phase-corrected DFT pair."""

import cmath
import math

import numpy as np
import pytest

from reference_formulas import mu_k, phi_k, synthesize_nodes
from rfspectral.basis import (
    CoeffVector,
    analyze,
    lambda_k,
    make_grid,
    mode_numbers,
    synthesize,
)


class TestGrid:
    def test_two_nodes(self):
        grid = make_grid(2, 1.0)
        assert np.allclose(grid.s_nodes, [math.pi / 4.0, 3.0 * math.pi / 4.0])
        assert np.allclose(grid.x_nodes, [1.0, -1.0])

    def test_first_node_formula(self):
        assert make_grid(4, 1.0).s_nodes[0] == pytest.approx(math.pi / 8.0)

    @pytest.mark.parametrize("n,l_scale", [(8, 1.0), (256, 1.1), (33, 4.2)])
    def test_invariants(self, n, l_scale):
        grid = make_grid(n, l_scale)
        assert np.all(np.diff(grid.s_nodes) > 0.0)
        assert grid.s_nodes[0] > 0.0 and grid.s_nodes[-1] < math.pi
        assert np.all(np.diff(grid.x_nodes) < 0.0)
        assert np.max(np.abs(grid.x_nodes + grid.x_nodes[::-1])) < 1e-12

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            make_grid(1, 1.0)
        with pytest.raises(ValueError):
            make_grid(8, 0.0)

    @pytest.mark.parametrize("l_scale", [math.inf, math.nan, 0.0, -2.0])
    @pytest.mark.parametrize("entry", ["make_grid", "scale_to_operator",
                                       "EvolutionConfig"])
    def test_map_scale_must_be_finite_and_positive(self, entry, l_scale):
        from rfspectral.closedform import OperatorKind
        from rfspectral.evolve import EvolutionConfig
        from rfspectral.opmatrix import build_base_matrix, scale_to_operator

        calls = {
            "make_grid": lambda: make_grid(8, l_scale),
            "scale_to_operator": lambda: scale_to_operator(
                build_base_matrix(0.62, 8, 5), OperatorKind.RIESZ_FELLER, 0.3,
                l_scale,
            ),
            "EvolutionConfig": lambda: EvolutionConfig(
                alpha=1.37, gamma=0.0, n=8, l_scale=l_scale
            ),
        }
        with pytest.raises(ValueError, match="finite and > 0"):
            calls[entry]()


class TestBasisFunctions:
    def test_lambda_zero_mode(self):
        assert lambda_k(0.37, 0, 2.0) == 1.0

    @pytest.mark.parametrize("k", [1, 3, -2, 40, -173])
    def test_lambda_cot_identity(self, k):
        l_scale = 1.3
        for s in (0.2, 1.0, math.pi / 2.0, 2.9):
            x = l_scale / math.tan(s)
            assert abs(lambda_k(x, k, l_scale) - cmath.exp(2j * k * s)) < 1e-12

    def test_lambda_conjugate_symmetry(self):
        got = lambda_k(0.7, -3, 1.0)
        assert got == pytest.approx(complex(lambda_k(0.7, 3, 1.0)).conjugate())

    def test_phi_even_equals_lambda(self):
        rng = np.random.default_rng(11)
        for k in range(-5, 6):
            x = rng.normal(scale=2.0)
            assert abs(phi_k(x, 2 * k) - lambda_k(x, k)) < 1e-14

    def test_mu_zero(self):
        for x in (-1.4, 0.0, 0.9):
            assert abs(mu_k(x, 0) - (1.0 - lambda_k(x, 1)) / 2.0) < 1e-15

    def test_phi_cot_identity(self):
        for s in (0.4, 1.3, 2.2):
            assert abs(phi_k(1.0 / math.tan(s), 1) - cmath.exp(1j * s)) < 1e-13


class TestAnalyzeSynthesize:
    def test_constant_is_dc_only(self):
        grid = make_grid(16, 1.0)
        coeffs = analyze(np.full(16, 2.5 + 0.0j), grid)
        assert coeffs.coeffs[0] == pytest.approx(2.5)
        assert np.max(np.abs(coeffs.coeffs[1:])) == 0.0

    def test_single_mode(self):
        grid = make_grid(32, 1.0)
        samples = np.exp(2j * grid.s_nodes)
        coeffs = analyze(samples, grid).coeffs
        assert abs(coeffs[1] - 1.0) < 1e-14
        rest = np.delete(coeffs, 1)
        assert np.max(np.abs(rest)) < 1e-14

    def test_length_mismatch(self):
        grid = make_grid(8, 1.0)
        with pytest.raises(ValueError):
            analyze(np.zeros(9), grid)

    def test_synthesize_constant(self):
        coeffs = CoeffVector(np.array([1.0 + 0.0j] + [0.0j] * 7))
        for s in (0.1, 1.0, 3.0):
            assert synthesize(coeffs, s) == pytest.approx(1.0)

    def test_synthesize_single_mode(self):
        c = np.zeros(8, dtype=np.complex128)
        c[1] = 1.0
        coeffs = CoeffVector(c)
        for s in (0.3, 2.0):
            assert synthesize(coeffs, s) == pytest.approx(cmath.exp(2j * s))

    def test_nodal_synthesis_matches_samples(self):
        rng = np.random.default_rng(3)
        grid = make_grid(64, 2.0)
        samples = rng.normal(size=64) + 1j * rng.normal(size=64)
        coeffs = analyze(samples, grid)
        values = synthesize(coeffs, grid.s_nodes)
        assert np.max(np.abs(values - samples)) < 1e-13
        fast = synthesize_nodes(coeffs)
        assert np.max(np.abs(fast - samples)) < 1e-13

    def test_krasny_filter_zeroes_small_entries(self):
        grid = make_grid(8, 1.0)
        samples = np.ones(8) + 1e-17 * np.sin(grid.s_nodes)
        coeffs = analyze(samples, grid)
        assert np.count_nonzero(coeffs.coeffs) == 1

    def test_krasny_filter_is_relative(self):
        # The threshold scales with the largest coefficient: scaling the
        # samples by a power of 2 scales the result exactly, zeros included.
        # u(s) = 1/(2 - cos 2s) has coefficients decaying like 0.27^|k|.
        grid = make_grid(64, 1.0)
        x2 = grid.x_nodes ** 2
        u = (1.0 + x2) / (3.0 + x2)
        coeffs = analyze(u, grid).coeffs
        scaled = analyze(2.0 ** -70 * u, grid).coeffs
        assert np.count_nonzero(coeffs) < 64
        assert np.array_equal(scaled, 2.0 ** -70 * coeffs)
        assert np.count_nonzero(analyze(np.zeros(64), grid).coeffs) == 0
        with_nan = u.copy()
        with_nan[5] = math.nan
        assert not np.any(analyze(with_nan, grid).coeffs == 0.0)

    @pytest.mark.parametrize("n", [8, 16, 33, 128, 1024])
    def test_roundtrip_band_limited(self, n):
        rng = np.random.default_rng(n)
        original = rng.normal(size=n) + 1j * rng.normal(size=n)
        coeffs = CoeffVector(original.copy())
        grid = make_grid(n, 1.0)
        samples = synthesize_nodes(coeffs)
        back = analyze(samples, grid)
        assert np.max(np.abs(back.coeffs - original)) < 1e-13 * max(
            1.0, np.max(np.abs(original))
        )

    def test_hermitian_symmetry_for_real_samples(self):
        rng = np.random.default_rng(5)
        for n in (8, 15, 64):
            grid = make_grid(n, 1.0)
            coeffs = analyze(rng.normal(size=n), grid).coeffs
            k = mode_numbers(n)
            for kk in range(1, (n - 1) // 2 + 1):
                pos = np.flatnonzero(k == kk)[0]
                neg = np.flatnonzero(k == -kk)[0]
                assert abs(coeffs[neg] - coeffs[pos].conjugate()) < 1e-12
            if n % 2 == 0:
                # With the e^(-i pi k / N) phase folded in, the unpaired
                # k = -N/2 coefficient of a real vector is pure imaginary
                # (the raw DFT bin is the real quantity).
                nyquist = np.flatnonzero(k == -(n // 2))[0]
                assert abs(coeffs[nyquist].real) < 1e-12

    def test_real_samples_are_tagged(self):
        grid = make_grid(8, 1.0)
        samples = np.linspace(-1.0, 1.0, 8)
        assert analyze(samples, grid).real_samples
        assert not analyze(samples + 0j, grid).real_samples
        assert not CoeffVector(np.zeros(8, dtype=np.complex128)).real_samples

    def test_lambda_orthogonality_on_grid(self):
        n = 64
        grid = make_grid(n, 1.0)
        rng = np.random.default_rng(17)
        for _ in range(20):
            k, m = rng.integers(-n // 2 + 1, n // 2, size=2)
            inner = np.mean(
                lambda_k(grid.x_nodes, int(k)) * np.conj(lambda_k(grid.x_nodes, int(m)))
            )
            expected = 1.0 if k == m else 0.0
            assert abs(inner - expected) < 1e-12
