"""Analytic operator formulas: hypergeometric forms, odd-index order-1
formulas, x = 0 anchors and the reference solutions."""

import cmath
import math

import numpy as np
import pytest

from reference_formulas import (
    d1gamma_phi_odd,
    frac_lap_mu,
    half_lap_phi_odd,
    mu_k,
    op_mu,
    phi_k,
    weyl_phi_at_zero,
)
from rfspectral import oracle
from rfspectral.basis import lambda_k
from rfspectral.closedform import (
    ARCTAN,
    ERF,
    LOG1PSQ,
    OperatorKind,
    frac_lap_lambda,
    op_lambda,
    phase_factor,
    reference_operator,
    validate_kind,
)

ALL_KINDS_ALPHAS = [
    (OperatorKind.WEYL_RIGHT, 0.62),
    (OperatorKind.WEYL_LEFT_NEG, 0.62),
    (OperatorKind.DX_WEYL_RIGHT, 1.37),
    (OperatorKind.DX_WEYL_LEFT_NEG, 1.37),
    (OperatorKind.RIESZ_FELLER, 0.62),
    (OperatorKind.FRAC_LAPLACIAN, 1.37),
]


def lambda_deriv(x, k):
    return -2j * k * complex(lambda_k(x, k)) / (1.0 + x * x)


class TestFracLapLambda:
    def test_zero_mode(self):
        for alpha in (0.3, 1.0, 1.7):
            assert frac_lap_lambda(alpha, 0, 1.3) == 0.0

    def test_alpha_one_anchor(self):
        assert frac_lap_lambda(1.0, 1, 0.0) == pytest.approx(-2.0, abs=1e-14)

    def test_against_quadrature(self):
        u = lambda x: complex(lambda_k(x, 3))
        got = oracle.quad_operator(OperatorKind.FRAC_LAPLACIAN, 0.62, 0.0, u, 0.4)
        assert abs(got - frac_lap_lambda(0.62, 3, 0.4)) < 1e-8

    def test_domain(self):
        with pytest.raises(ValueError):
            frac_lap_lambda(2.3, 1, 0.0)


class TestOpLambda:
    def test_riesz_feller_symmetric_is_minus_laplacian(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            k = int(rng.integers(-6, 7))
            x = rng.normal(scale=2.0)
            got = op_lambda(OperatorKind.RIESZ_FELLER, 0.62, k, x, gamma=0.0)
            assert got == pytest.approx(-frac_lap_lambda(0.62, k, x), abs=1e-13)

    def test_weyl_right_phase(self):
        alpha = 0.62
        got = op_lambda(OperatorKind.WEYL_RIGHT, alpha, 2, 1.0)
        expected = cmath.exp(-1j * alpha * math.pi / 2.0) * frac_lap_lambda(alpha, 2, 1.0)
        assert got == expected

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("x", [-2.0, 0.0, 0.7])
    def test_weyl_right_against_quadrature(self, k, x):
        u = lambda t: complex(lambda_k(t, k))
        du = lambda t: lambda_deriv(t, k)
        got = oracle.quad_operator(OperatorKind.WEYL_RIGHT, 0.62, 0.0, u, x, du=du)
        assert abs(got - op_lambda(OperatorKind.WEYL_RIGHT, 0.62, k, x)) < 1e-7

    def test_single_point_quadrature_example(self):
        u = lambda t: complex(lambda_k(t, 1))
        du = lambda t: lambda_deriv(t, 1)
        got = oracle.quad_operator(OperatorKind.WEYL_RIGHT, 0.3, 0.0, u, 0.5, du=du)
        assert abs(got - op_lambda(OperatorKind.WEYL_RIGHT, 0.3, 1, 0.5)) < 1e-8

    def test_conjugation_pairing(self):
        rng = np.random.default_rng(4)
        for kind, alpha in ALL_KINDS_ALPHAS:
            for _ in range(10):
                k = int(rng.integers(1, 9))
                x = rng.normal(scale=1.5)
                skew = 0.4 if kind is OperatorKind.RIESZ_FELLER else 0.0
                neg = op_lambda(kind, alpha, -k, x, gamma=skew)
                pos = op_lambda(kind, alpha, k, x, gamma=skew)
                assert neg == pytest.approx(pos.conjugate(), abs=1e-13)

    def test_kind_alpha_mismatch(self):
        with pytest.raises(ValueError):
            op_lambda(OperatorKind.WEYL_RIGHT, 1.37, 1, 0.0)
        with pytest.raises(ValueError):
            op_lambda(OperatorKind.DX_WEYL_RIGHT, 0.62, 1, 0.0)
        with pytest.raises(ValueError):
            op_lambda(OperatorKind.RIESZ_FELLER, 0.62, 1, 0.0, gamma=0.9)

    @pytest.mark.parametrize("kind, alpha", [
        ka for ka in ALL_KINDS_ALPHAS if ka[0] is not OperatorKind.RIESZ_FELLER
    ], ids=lambda v: getattr(v, "value", v))
    def test_skewness_only_for_riesz_feller(self, kind, alpha):
        # A skewness the other kinds ignore would label an unskewed result.
        validate_kind(kind, alpha, 0.0)
        validate_kind(kind, alpha, -0.0)
        for gamma in (0.4, -1e-300, math.nan):
            with pytest.raises(ValueError):
                validate_kind(kind, alpha, gamma)
        with pytest.raises(ValueError):
            reference_operator(ERF, kind, alpha, 0.4, 0.5)


class TestOpMu:
    def test_decomposition_identity(self):
        rng = np.random.default_rng(31)
        for kind, alpha in ALL_KINDS_ALPHAS:
            skew = 0.3 if kind is OperatorKind.RIESZ_FELLER else 0.0
            for _ in range(5):
                k = int(rng.integers(1, 7)) * int(rng.choice([-1, 1]))
                if k == -1:
                    k = -2
                x = rng.normal(scale=1.2)
                got = op_mu(kind, alpha, k, x, gamma=skew)
                expected = (
                    op_lambda(kind, alpha, k, x, gamma=skew)
                    - op_lambda(kind, alpha, k + 1, x, gamma=skew)
                ) / 2.0
                assert got == pytest.approx(expected, abs=1e-12)

    def test_k_zero_sign_convention(self):
        # lambda_0 contributes nothing, so the k = 0 value carries the
        # mode-sign of lambda_1.
        alpha, x = 0.62, 0.8
        got = op_mu(OperatorKind.WEYL_RIGHT, alpha, 0, x)
        expected = -op_lambda(OperatorKind.WEYL_RIGHT, alpha, 1, x) / 2.0
        assert got == pytest.approx(expected, abs=1e-13)

    def test_riesz_feller_combination(self):
        alpha, skew, k, x = 0.62, 0.3, 4, 0.2
        got = op_mu(OperatorKind.RIESZ_FELLER, alpha, k, x, gamma=skew)
        phase = -cmath.exp(1j * skew * math.pi / 2.0)
        combo = (frac_lap_lambda(alpha, k, x) - frac_lap_lambda(alpha, k + 1, x)) / 2.0
        assert got == pytest.approx(phase * combo, abs=1e-13)

    def test_mu_sampling_identity(self):
        # mu_k itself decomposes as (lambda_k - lambda_{k+1}) / 2
        rng = np.random.default_rng(8)
        for _ in range(20):
            k = int(rng.integers(-6, 6))
            x = rng.normal()
            assert abs(
                mu_k(x, k) - (lambda_k(x, k) - lambda_k(x, k + 1)) / 2.0
            ) < 1e-14

    def test_frac_lap_mu_negative_index(self):
        got = frac_lap_mu(0.62, -3, 0.5)
        expected = (
            frac_lap_lambda(0.62, -3, 0.5) - frac_lap_lambda(0.62, -2, 0.5)
        ) / 2.0
        assert got == pytest.approx(expected, abs=1e-13)


class TestOddIndexOrderOne:
    def test_gamma_zero_is_minus_half_laplacian(self):
        for k, s in ((1, 0.7), (3, 2.1), (-5, 1.3)):
            got = d1gamma_phi_odd(k, 0.0, s)
            assert got == pytest.approx(-half_lap_phi_odd(k, s), abs=1e-14)

    @pytest.mark.parametrize("skew", [1.0, -1.0])
    def test_gamma_extreme_is_derivative(self, skew):
        k, s = 3, 1.4
        got = d1gamma_phi_odd(k, skew, s)
        deriv = -1j * k * math.sin(s) ** 2 * cmath.exp(1j * k * s)
        assert got == pytest.approx(skew * deriv, abs=1e-13)

    def test_against_quadrature(self):
        k, skew, s = 3, 0.5, 1.1
        x = 1.0 / math.tan(s)
        u = lambda t: complex(phi_k(t, k))
        du = lambda t: -1j * k * complex(phi_k(t, k)) / (1.0 + t * t)
        got = oracle.quad_operator(OperatorKind.RIESZ_FELLER, 1.0, skew, u, x, du=du)
        assert abs(got - d1gamma_phi_odd(k, skew, s)) < 1e-7

    def test_half_lap_against_quadrature(self):
        k, s = 5, 0.8
        x = 1.0 / math.tan(s)
        u = lambda t: complex(phi_k(t, k))
        du = lambda t: -1j * k * complex(phi_k(t, k)) / (1.0 + t * t)
        got = oracle.quad_operator(OperatorKind.FRAC_LAPLACIAN, 1.0, 0.0, u, x, du=du)
        assert abs(got - half_lap_phi_odd(k, s)) < 1e-7

    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            half_lap_phi_odd(2, 1.0)
        with pytest.raises(ValueError):
            d1gamma_phi_odd(4, 0.3, 1.0)


class TestWeylPhiAtZero:
    def test_k1_displays(self):
        alpha = 0.37
        d_right, d_left, lap = weyl_phi_at_zero(alpha, 1)
        ref_right = (
            math.gamma(1.0 + alpha / 2.0) * math.gamma((1.0 - alpha) / 2.0)
            + 1j * math.gamma(1.0 - alpha / 2.0) * math.gamma((1.0 + alpha) / 2.0)
        ) / (math.sqrt(math.pi) * math.gamma(1.0 - alpha))
        ref_lap = 1j * 2.0 ** alpha * math.gamma((1.0 + alpha) / 2.0) ** 2 / math.pi
        assert abs(d_right - ref_right) < 1e-12 * abs(ref_right)
        assert abs(d_left - ref_right.conjugate()) < 1e-12 * abs(ref_right)
        assert abs(lap - ref_lap) < 1e-12 * abs(ref_lap)

    def test_k1_imaginary_part_relation(self):
        # Im D[phi_1](0) = -i cos(alpha pi/2) (-Lap)^(a/2) phi_1(0): the
        # one-sided operators do NOT reduce to phase times the symmetric one
        # for odd indices.
        alpha = 0.5
        d_right, _, lap = weyl_phi_at_zero(alpha, 1)
        rel = -1j * math.cos(alpha * math.pi / 2.0) * lap
        assert d_right.imag == pytest.approx(rel.real, abs=1e-13)
        phase_value = cmath.exp(-1j * alpha * math.pi / 2.0) * lap
        assert abs(d_right - phase_value) > 0.1

    def test_k3_against_quadrature(self):
        alpha, k = 0.62, 3
        u = lambda t: complex(phi_k(t, k))
        du = lambda t: -1j * k * complex(phi_k(t, k)) / (1.0 + t * t)
        d_right, d_left, lap = weyl_phi_at_zero(alpha, k)
        got_r = oracle.quad_operator(OperatorKind.WEYL_RIGHT, alpha, 0.0, u, 0.0, du=du)
        got_l = oracle.quad_operator(OperatorKind.WEYL_LEFT_NEG, alpha, 0.0, u, 0.0, du=du)
        got_lap = oracle.quad_operator(OperatorKind.FRAC_LAPLACIAN, alpha, 0.0, u, 0.0)
        assert abs(got_r - d_right) < 1e-7
        assert abs(got_l - d_left) < 1e-7
        assert abs(got_lap - lap) < 1e-7

    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            weyl_phi_at_zero(0.5, 2)


class TestReferenceOperator:
    def test_arctan_laplacian_at_zero(self):
        assert reference_operator(ARCTAN, OperatorKind.FRAC_LAPLACIAN, 0.62, 0.0, 0.0) == 0.0

    def test_erf_riesz_feller_at_zero(self):
        alpha, skew = 0.62, 0.49
        got = reference_operator(ERF, OperatorKind.RIESZ_FELLER, alpha, skew, 0.0)
        expected = 2.0 ** alpha / math.pi * math.gamma(alpha / 2.0) * math.sin(
            skew * math.pi / 2.0
        )
        assert got == pytest.approx(expected, rel=1e-13)

    def test_log_weyl_right_at_one(self):
        alpha = 0.62
        got = reference_operator(LOG1PSQ, OperatorKind.WEYL_RIGHT, alpha, 0.0, 1.0)
        expected = (
            -2.0
            * math.gamma(alpha)
            * 2.0 ** (-alpha / 2.0)
            * math.cos(alpha * math.pi / 2.0 + alpha * math.pi / 4.0)
        )
        assert got == pytest.approx(expected, rel=1e-13)

    def test_right_and_dx_right_share_one_expression(self):
        # At any order the right-sided and dx-right-sided operators rotate by
        # one and the same phase; the dx-minus-left phase is minus the
        # minus-left one.
        rng = np.random.default_rng(55)
        for alpha in np.concatenate([[0.73, 1.0, 1.73], rng.uniform(0.0, 2.0, 20)]):
            right, dx_right, left, dx_left = (
                phase_factor(kind, alpha, 0.0)
                for kind in (OperatorKind.WEYL_RIGHT, OperatorKind.DX_WEYL_RIGHT,
                             OperatorKind.WEYL_LEFT_NEG, OperatorKind.DX_WEYL_LEFT_NEG)
            )
            assert dx_right == right
            assert dx_left == -left

    def test_symmetric_case_consistency(self):
        # gamma = 0 reduces the skewed operator to minus the symmetric one.
        x = np.linspace(-3.0, 3.0, 11)
        for func in (ARCTAN, ERF, LOG1PSQ):
            rf = reference_operator(func, OperatorKind.RIESZ_FELLER, 1.12, 0.0, x)
            lap = reference_operator(func, OperatorKind.FRAC_LAPLACIAN, 1.12, 0.0, x)
            assert np.max(np.abs(rf + lap)) < 1e-13
