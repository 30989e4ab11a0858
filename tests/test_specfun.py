"""Special-function kernel tests.

High-precision reference values were generated with 50-digit arithmetic
(mpmath) and frozen here as literals.
"""

import cmath
import math

import numpy as np
import pytest
from scipy.special import hyp1f1 as scipy_hyp1f1

from rfspectral import basis, oracle
from rfspectral.closedform import OperatorKind
from rfspectral.errors import NumericError
from rfspectral.specfun import (
    RatioKind,
    c_alpha,
    gamma,
    hyp2f1_terminating,
    kummer_1f1,
    ratio_table,
    rf_coeffs,
)

SQRT_PI = math.sqrt(math.pi)


class TestGamma:
    def test_identity_values(self):
        assert gamma(1.0) == 1.0
        assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-15)
        assert gamma(-0.5) == pytest.approx(-2.0 * SQRT_PI, rel=1e-15)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0])
    def test_poles_rejected(self, x):
        with pytest.raises(ValueError):
            gamma(x)

    def test_euler_reflection(self):
        # Gamma(w) Gamma(1-w) sin(pi w) = pi on (0,1) u (1,2) \ {1}
        rng = np.random.default_rng(20240817)
        count = 0
        while count < 100:
            w = rng.uniform(0.0, 2.0)
            if w in (0.0, 1.0) or abs(w - 1.0) < 1e-3:
                continue
            count += 1
            lhs = gamma(w) * gamma(1.0 - w) * math.sin(w * math.pi)
            assert lhs == pytest.approx(math.pi, rel=1e-12)

    def test_legendre_duplication(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            w = rng.uniform(1e-2, 5.0)
            lhs = gamma(w) * gamma(w + 0.5)
            rhs = 2.0 ** (1.0 - 2.0 * w) * SQRT_PI * gamma(2.0 * w)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestCAlpha:
    def test_alpha_one(self):
        assert c_alpha(1.0) == pytest.approx(1.0 / math.pi, rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.62, 0.9, 1.1, 1.37, 1.7, 1.9])
    def test_sine_identity(self, alpha):
        rhs = gamma(1.0 + alpha) * math.sin(alpha * math.pi / 2.0) / math.pi
        assert c_alpha(alpha) == pytest.approx(rhs, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.0, 2.0, -0.3, 2.5])
    def test_domain(self, alpha):
        with pytest.raises(ValueError):
            c_alpha(alpha)

    def test_quadrature_cross_check(self):
        # The symmetric operator applied to the first basis function at 0
        # equals -2 Gamma(1 + alpha); the quadrature route exercises c_alpha.
        alpha = 1.37
        u = lambda x: complex(basis.lambda_k(x, 1))
        du = lambda x: -2j * complex(basis.lambda_k(x, 1)) / (1.0 + x * x)
        got = oracle.quad_operator(OperatorKind.FRAC_LAPLACIAN, alpha, 0.0, u, 0.0, du=du)
        assert abs(got - (-2.0 * gamma(1.0 + alpha))) < 1e-7


class TestRieszFellerCoeffs:
    def test_symmetric_case(self):
        for alpha in (0.3, 1.0, 1.7):
            co = rf_coeffs(alpha, 0.0)
            assert co.c1 == co.c2

    def test_positive_sum(self):
        co = rf_coeffs(0.62, 0.49)
        assert co.c1 + co.c2 > 0.0

    def test_fourier_symbol(self):
        alpha, skew = 1.37, -0.63
        co = rf_coeffs(alpha, skew)
        for xi in (1.0, -1.0):
            lhs = math.gamma(-alpha) * (
                co.c1 * (1j * xi) ** alpha + co.c2 * (-1j * xi) ** alpha
            )
            rhs = -abs(xi) ** alpha * cmath.exp(
                -1j * math.copysign(1.0, xi) * skew * math.pi / 2.0
            )
            assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("alpha,skew", [(0.5, 0.9), (1.8, 0.5), (0.62, -0.7)])
    def test_skewness_constraint(self, alpha, skew):
        with pytest.raises(ValueError):
            rf_coeffs(alpha, skew)


class TestHyp2F1:
    def test_m_zero(self):
        for z in (0.3 + 0.1j, -2.0 + 0.0j, 5.0j):
            assert hyp2f1_terminating(0, 0.77, z) == 1.0

    def test_m_one(self):
        alpha, z = 0.62, 0.4 - 0.9j
        assert hyp2f1_terminating(1, alpha, z) == pytest.approx(
            1.0 - (1.0 + alpha) * z / 2.0, rel=1e-15
        )

    def test_frozen_high_precision_value(self):
        # 2F1(-5, 1.62; 2; 2/(0.3i + 1)), 50-digit series summation
        got = hyp2f1_terminating(5, 0.62, 2.0 / (0.3j + 1.0))
        ref = 0.4455311159091846529783936 + 0.0576851161568936521696683j
        assert abs(got - ref) < 1e-13 * abs(ref)

    def test_conjugate_symmetry_exact(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            m = int(rng.integers(0, 12))
            alpha = rng.uniform(0.05, 1.95)
            z = complex(rng.normal(), rng.normal())
            assert hyp2f1_terminating(m, alpha, z.conjugate()) == complex(
                hyp2f1_terminating(m, alpha, z)
            ).conjugate()

    def test_negative_m(self):
        with pytest.raises(ValueError):
            hyp2f1_terminating(-1, 0.5, 1.0)


class TestKummer:
    def test_at_zero(self):
        assert kummer_1f1(0.31, 0.5, 0.0) == 1.0

    def test_equal_parameters_collapse(self):
        for x in (-40.0, -3.0, 0.7):
            assert kummer_1f1(0.5, 0.5, x) == pytest.approx(math.exp(x), rel=1e-13)

    def test_frozen_high_precision_value(self):
        # 1F1(0.31; 0.5; -4), 50-digit series summation
        got = kummer_1f1(0.31, 0.5, -4.0)
        assert got == pytest.approx(0.267650683800827945692495, rel=1e-13)

    @pytest.mark.parametrize("a,b", [(0.31, 0.5), (0.685, 0.5), (1.185, 1.5), (0.31, 1.5)])
    def test_negative_axis_against_scipy(self, a, b):
        for x in np.linspace(-2500.0, -0.5, 41):
            got = kummer_1f1(a, b, float(x))
            ref = float(scipy_hyp1f1(a, b, float(x)))
            assert got == pytest.approx(ref, rel=1e-11)

    def test_bad_b(self):
        with pytest.raises(ValueError):
            kummer_1f1(0.3, 0.0, -1.0)

    def test_nonconvergence_reports_terms(self, monkeypatch):
        from rfspectral import specfun

        monkeypatch.setattr(specfun, "_KUMMER_MAX_TERMS", 3)
        with pytest.raises(NumericError, match="3 terms"):
            kummer_1f1(0.31, 0.5, 80.0)


class TestRatioTable:
    def test_v1_at_zero(self):
        table = ratio_table(1.37, RatioKind.V1, 0)
        assert table[0] == pytest.approx(
            gamma(0.185) / gamma(0.815), rel=1e-14
        )

    def test_v2_one_step(self):
        alpha = 1.37
        table = ratio_table(alpha, RatioKind.V2, 1)
        expected = table[0] * ((-1.0 - alpha) / 2.0) / ((3.0 + alpha) / 2.0)
        assert table[1] == pytest.approx(expected, rel=1e-14)

    def test_recurrence_ratio_invariant(self):
        for alpha, kind in ((0.62, RatioKind.V1), (1.37, RatioKind.V2)):
            table = ratio_table(alpha, kind, 500)
            up = 1.0 if kind is RatioKind.V1 else -1.0
            num0 = (-1.0 + up * alpha) / 2.0
            den0 = (3.0 - up * alpha) / 2.0
            p = np.arange(500)
            expected = (num0 + p) / (den0 + p)
            ratios = table[1:] / table[:-1]
            assert np.max(np.abs(ratios / expected - 1.0)) < 1e-14

    def test_deep_entry_against_log_gamma(self):
        alpha, p = 0.62, 300
        table = ratio_table(alpha, RatioKind.V1, p)
        # Both arguments are positive at this depth, so Gamma has no sign.
        num = math.lgamma((-1.0 + alpha) / 2.0 + p)
        den = math.lgamma((3.0 - alpha) / 2.0 + p)
        assert table[p] == pytest.approx(math.exp(num - den), rel=1e-12)

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            ratio_table(1.0, RatioKind.V1, 10)

    def test_values_immutable(self):
        table = ratio_table(0.62, RatioKind.V2, 5)
        with pytest.raises(ValueError):
            table[0] = 0.0
