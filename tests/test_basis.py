"""Grid, basis functions and the phase-corrected DFT pair."""

import cmath
import math
import sys

import numpy as np
import pytest

from reference_formulas import full_analysis, mu_k, phi_k, synthesize_nodes
from rfspectral import basis
from rfspectral.basis import (
    KRASNY_EPS,
    CoeffVector,
    analyze,
    lambda_k,
    make_grid,
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
        with pytest.raises(ValueError, match="outer nodes"):
            make_grid(64, 1e308)

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

    @pytest.mark.parametrize("l_scale", [1e300, 1e-300])
    @pytest.mark.parametrize("entry", ["scale_to_operator", "EvolutionConfig"])
    def test_scale_power_must_be_finite_and_positive(self, entry, l_scale):
        # The nodes are finite, but L^1.5 overflows a float at L = 1e300 and
        # rounds to 0 at L = 1e-300; a matrix divides its base by it.
        from rfspectral.closedform import OperatorKind
        from rfspectral.evolve import EvolutionConfig
        from rfspectral.opmatrix import build_base_matrix, scale_to_operator

        calls = {
            "scale_to_operator": lambda: scale_to_operator(
                build_base_matrix(1.5, 8, 5), OperatorKind.RIESZ_FELLER, 0.3,
                l_scale,
            ),
            "EvolutionConfig": lambda: EvolutionConfig(
                alpha=1.5, gamma=0.0, n=8, l_scale=l_scale
            ),
        }
        with pytest.raises(ValueError, match=r"L\^alpha must be finite and > 0"):
            calls[entry]()

    @pytest.mark.parametrize("n", [2, 3, 64, 204, 363, 1025])
    def test_outer_nodes_must_be_finite(self, n):
        # Within a few ulps of the largest L whose outer nodes L cot(pi/(2N))
        # are finite, the grid either holds only finite nodes or is refused,
        # with no warning.  (At N = 204 and 363 math.tan and numpy's tan
        # differ in the last bit at the outer node.)
        edge = sys.float_info.max * math.tan(math.pi / (2.0 * n))
        below = above = edge
        scales = [edge]
        for _ in range(4):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            scales += [below, above]
        refused = 0
        for l_scale in scales:
            try:
                grid = make_grid(n, l_scale)
            except ValueError:
                refused += 1
                continue
            assert np.all(np.isfinite(grid.x_nodes))
        assert 0 < refused < len(scales)


class TestBasisFunctions:
    def test_lambda_zero_mode(self):
        assert lambda_k(0.37 / 2.0, 0) == 1.0

    @pytest.mark.parametrize("k", [1, 3, -2, 40, -173])
    def test_lambda_cot_identity(self, k):
        l_scale = 1.3
        for s in (0.2, 1.0, math.pi / 2.0, 2.9):
            x = l_scale / math.tan(s)
            assert abs(lambda_k(x / l_scale, k) - cmath.exp(2j * k * s)) < 1e-12

    def test_lambda_conjugate_symmetry(self):
        got = lambda_k(0.7, -3)
        assert got == pytest.approx(complex(lambda_k(0.7, 3)).conjugate())

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
        coeffs = analyze(np.full(16, 2.5))
        assert coeffs.coeffs[0] == pytest.approx(2.5)
        assert np.max(np.abs(coeffs.coeffs[1:])) == 0.0

    def test_single_mode(self):
        # cos 2s = (e^{2is} + e^{-2is}) / 2: u_1 = 1/2, and u_{-1} is implied.
        grid = make_grid(32, 1.0)
        coeffs = analyze(np.cos(2.0 * grid.s_nodes)).coeffs
        assert len(coeffs) == 17
        assert abs(coeffs[1] - 0.5) < 1e-14
        rest = np.delete(coeffs, 1)
        assert np.max(np.abs(rest)) < 1e-14

    def test_samples_must_be_one_dimensional(self):
        # N is the number of samples; nothing else can disagree with it.
        for samples in (np.zeros((8, 1)), np.zeros((2, 8)), 1.0):
            with pytest.raises(ValueError, match="1-D"):
                analyze(samples)

    def test_complex_samples_are_refused(self):
        # The half spectrum would drop their negative modes without a word.
        samples = np.linspace(-1.0, 1.0, 8)
        with pytest.raises(ValueError, match="real samples"):
            analyze(samples + 0j)
        with pytest.raises(ValueError, match="takes 5 coefficients"):
            CoeffVector(np.zeros(8, dtype=np.complex128), 8)
        with pytest.raises(ValueError, match="takes 4 coefficients"):
            CoeffVector(np.zeros(5, dtype=np.complex128), 7)

    def test_is_the_half_of_the_full_analysis(self):
        # Modes 0..N//2 of the full transform; the even-N mode N/2 is the
        # conjugate of the full analysis's -N/2.  The real transform rounds
        # otherwise: at most 2.5 eps of max|u_k| over 50 seeds of these N
        # and 1024, 1025 and 4096.
        rng = np.random.default_rng(5)
        for n in (8, 15, 16, 33, 2048):
            samples = rng.normal(size=n)
            full = full_analysis(samples)
            half = full[: n // 2 + 1].copy()
            if n % 2 == 0:
                half[-1] = np.conj(full[n // 2])
            coeffs = analyze(samples)
            assert coeffs.n == n
            bound = 4.0 * np.finfo(np.float64).eps * np.max(np.abs(half))
            assert np.max(np.abs(coeffs.coeffs - half)) <= bound

    @pytest.mark.parametrize("n", [2, 3, 16, 17, 2048, 2049])
    def test_cached_phase_is_the_formula(self, n):
        # The phase exp(-i pi k / N) is kept per N; the coefficients are the
        # uncached formula's bit for bit, Krasny cut included, on the first
        # call and on a repeat.
        samples = np.random.default_rng(n).normal(size=n)
        k = np.arange(n // 2 + 1)
        expected = np.fft.rfft(samples) * np.exp(-1j * math.pi * k / n) / n
        magnitude = np.abs(expected)
        expected[magnitude <= KRASNY_EPS * magnitude.max()] = 0.0
        for _ in range(2):
            coeffs = analyze(samples).coeffs
            assert coeffs.tobytes() == expected.tobytes()

    def test_cached_phase_is_read_only(self):
        # Threads (`--jobs`) share one phase per N: no caller may write it.
        phase = basis._analysis_phase(16)
        assert basis._analysis_phase(16) is phase
        with pytest.raises(ValueError, match="read-only"):
            phase[0] = 0.0
        assert not np.shares_memory(analyze(np.ones(16)).coeffs, phase)

    def test_synthesize_constant(self):
        coeffs = CoeffVector(np.array([1.0 + 0.0j] + [0.0j] * 4), 8)
        for s in (0.1, 1.0, 3.0):
            assert synthesize(coeffs, s) == pytest.approx(1.0)

    def test_synthesize_single_mode(self):
        # u_1 = 1 stands for u_1 = u_{-1} = 1: the sum is 2 cos 2s.
        c = np.zeros(5, dtype=np.complex128)
        c[1] = 1.0
        coeffs = CoeffVector(c, 8)
        for s in (0.3, 2.0):
            value = synthesize(coeffs, s)
            assert isinstance(value, float)
            assert value == pytest.approx(2.0 * math.cos(2.0 * s))

    @pytest.mark.parametrize("n", [8, 16])
    def test_synthesize_nyquist_mode(self, n):
        # (-1)^j holds only the mode N/2, which has no partner -N/2 of its
        # own: a doubled or a dropped weight misses the samples by 1.
        samples = (-1.0) ** np.arange(n)
        coeffs = analyze(samples)
        assert np.count_nonzero(coeffs.coeffs) == 1 and coeffs.coeffs[-1] != 0.0
        grid = make_grid(n, 1.0)
        values = [synthesize(coeffs, s) for s in grid.s_nodes]
        assert np.max(np.abs(values - samples)) < 1e-14

    def test_nodal_synthesis_matches_samples(self):
        rng = np.random.default_rng(3)
        grid = make_grid(64, 2.0)
        samples = rng.normal(size=64)
        coeffs = analyze(samples)
        values = np.array([synthesize(coeffs, s) for s in grid.s_nodes])
        assert np.max(np.abs(values - samples)) < 1e-13
        fast = synthesize_nodes(coeffs)
        assert np.max(np.abs(fast - samples)) < 1e-13

    def test_krasny_filter_zeroes_small_entries(self):
        grid = make_grid(8, 1.0)
        samples = np.ones(8) + 1e-17 * np.sin(grid.s_nodes)
        coeffs = analyze(samples)
        assert np.count_nonzero(coeffs.coeffs) == 1

    def test_krasny_filter_is_relative(self):
        # The threshold scales with the largest coefficient: scaling the
        # samples by a power of 2 scales the result exactly, zeros included.
        # u(s) = 1/(2 - cos 2s) has coefficients decaying like 0.27^|k|.
        grid = make_grid(64, 1.0)
        x2 = grid.x_nodes ** 2
        u = (1.0 + x2) / (3.0 + x2)
        coeffs = analyze(u).coeffs
        scaled = analyze(2.0 ** -70 * u).coeffs
        assert np.count_nonzero(coeffs) < 33
        assert np.array_equal(scaled, 2.0 ** -70 * coeffs)
        assert np.count_nonzero(analyze(np.zeros(64)).coeffs) == 0
        with_nan = u.copy()
        with_nan[5] = math.nan
        assert not np.any(analyze(with_nan).coeffs == 0.0)

    @pytest.mark.parametrize("n", [8, 16, 33, 128, 1024])
    def test_roundtrip_band_limited(self, n):
        # Random coefficients of real samples: u_0 is real, and the even-N
        # u_{N/2} is imaginary (the raw DFT bin is the real quantity).
        rng = np.random.default_rng(n)
        original = rng.normal(size=n // 2 + 1) + 1j * rng.normal(size=n // 2 + 1)
        original[0] = original[0].real
        if n % 2 == 0:
            original[-1] = 1j * original[-1].imag
        samples = synthesize_nodes(CoeffVector(original.copy(), n))
        back = analyze(samples)
        assert np.max(np.abs(back.coeffs - original)) < 1e-13 * max(
            1.0, np.max(np.abs(original))
        )

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
