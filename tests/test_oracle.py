"""Quadrature oracle: equivalence of the defining representations and
agreement with closed forms."""

import math

import pytest
from scipy.special import erf

from rfspectral import oracle
from rfspectral.closedform import CLOSED_FORMS, OperatorKind, reference_operator
from rfspectral.errors import ConvergenceError
from rfspectral.oracle import quad_operator
from rfspectral.specfun import rf_coeffs


def derf(x):
    return 2.0 / math.sqrt(math.pi) * math.exp(-x * x)


def datan(x):
    return 1.0 / (1.0 + x * x)


class TestRepresentations:
    @pytest.mark.parametrize("x", [-1.0, 0.0, 2.0])
    def test_weyl_difference_vs_derivative(self, x):
        a = quad_operator(
            OperatorKind.WEYL_RIGHT, 0.4, 0.0, erf, x, du=derf,
            representation="difference",
        )
        b = quad_operator(
            OperatorKind.WEYL_RIGHT, 0.4, 0.0, erf, x, du=derf,
            representation="derivative",
        )
        assert abs(a - b) < 1e-6

    def test_dx_weyl_difference_vs_derivative(self):
        a = quad_operator(
            OperatorKind.DX_WEYL_RIGHT, 1.4, 0.0, erf, 0.5, du=derf,
            representation="difference",
        )
        b = quad_operator(
            OperatorKind.DX_WEYL_RIGHT, 1.4, 0.0, erf, 0.5, du=derf,
            representation="derivative",
        )
        assert abs(a - b) < 1e-6

    def test_frac_lap_difference_vs_derivative(self):
        a = quad_operator(
            OperatorKind.FRAC_LAPLACIAN, 0.62, 0.0, erf, 0.3,
            representation="difference",
        )
        b = quad_operator(
            OperatorKind.FRAC_LAPLACIAN, 0.62, 0.0, erf, 0.3, du=derf,
            representation="derivative",
        )
        assert abs(a - b) < 1e-6

    def test_unknown_representation(self):
        with pytest.raises(ValueError):
            quad_operator(
                OperatorKind.WEYL_RIGHT, 0.4, 0.0, erf, 0.0, representation="exact"
            )

    def test_derivative_representation_needs_du(self):
        with pytest.raises(ValueError):
            quad_operator(OperatorKind.WEYL_RIGHT, 0.4, 0.0, erf, 0.0)

    @pytest.mark.parametrize("representation", ["difference", "derivative"])
    def test_riesz_feller_has_one_representation(self, representation):
        with pytest.raises(ValueError, match="RIESZ_FELLER"):
            quad_operator(
                OperatorKind.RIESZ_FELLER, 0.62, 0.3, erf, 0.4, du=derf,
                representation=representation,
            )


_KIND_CASES = [
    (OperatorKind.WEYL_RIGHT, 0.62, 0.0),
    (OperatorKind.WEYL_LEFT_NEG, 0.62, 0.0),
    (OperatorKind.DX_WEYL_RIGHT, 1.37, 0.0),
    (OperatorKind.DX_WEYL_LEFT_NEG, 1.37, 0.0),
    (OperatorKind.FRAC_LAPLACIAN, 1.12, 0.0),
]
_RF_CASES = [
    (OperatorKind.RIESZ_FELLER, 0.62, 0.4),
    (OperatorKind.RIESZ_FELLER, 1.37, -0.5),
]
# The erf cases keep their original ids; the others are prefixed by name.
BATTERY = [
    pytest.param("erf", kind, alpha, skew, id=f"{kind}-{alpha}")
    for kind, alpha, skew in _KIND_CASES
] + [
    pytest.param(func, kind, alpha, skew, id=f"{func}-{kind}-{alpha}-{skew}")
    for func in ("erf", "arctan", "log1psq")
    for kind, alpha, skew in (_RF_CASES if func == "erf" else _KIND_CASES + _RF_CASES)
]


class TestClosedFormAgreement:
    def test_weyl_right_arctan(self):
        got = quad_operator(OperatorKind.WEYL_RIGHT, 0.3, 0.0, math.atan, 1.0, du=datan)
        expected = (
            math.gamma(0.3)
            * 2.0 ** (-0.15)
            * math.sin(0.3 * math.pi / 2.0 + 0.3 * math.atan(1.0))
        )
        assert abs(got - expected) < 1e-7

    @pytest.mark.parametrize("func,kind,alpha,skew", BATTERY)
    def test_erf_battery(self, func, kind, alpha, skew):
        # The references and the matrix share phase_factor, so this is where
        # a wrong phase shows: each reference is checked against quadrature.
        ref = CLOSED_FORMS[func]
        got = quad_operator(kind, alpha, skew, ref.value, -0.6, du=ref.derivative)
        expected = reference_operator(func, kind, alpha, skew, -0.6)
        assert abs(got - expected) < 1e-7

    def test_riesz_feller_gamma_zero(self):
        a = quad_operator(OperatorKind.RIESZ_FELLER, 0.62, 0.0, erf, 0.3, du=derf)
        b = quad_operator(OperatorKind.FRAC_LAPLACIAN, 0.62, 0.0, erf, 0.3)
        assert abs(a + b) < 1e-7

    def test_riesz_feller_alpha_one(self):
        got = quad_operator(OperatorKind.RIESZ_FELLER, 1.0, 0.5, math.atan, 0.7, du=datan)
        expected = reference_operator("arctan", OperatorKind.RIESZ_FELLER, 1.0, 0.5, 0.7)
        assert abs(got - expected) < 1e-7


class TestCombination:
    def test_rf_from_one_sided_operators(self):
        alpha, skew, x = 0.55, 0.3, 0.7
        c1, c2 = rf_coeffs(alpha, skew)
        q_right = quad_operator(OperatorKind.WEYL_RIGHT, alpha, 0.0, erf, x, du=derf)
        q_left = quad_operator(OperatorKind.WEYL_LEFT_NEG, alpha, 0.0, erf, x, du=derf)
        q_rf = quad_operator(OperatorKind.RIESZ_FELLER, alpha, skew, erf, x, du=derf)
        combo = math.gamma(-alpha) * (c1 * q_right - c2 * q_left)
        assert abs(combo - q_rf) < 1e-6


class TestConfig:
    def test_tail_cut_formula(self):
        tail_cut = oracle._tail_cut(0.5, 2.0, 1e-8)
        assert tail_cut == pytest.approx((20.0 * 2.0 / (0.5 * 1e-8)) ** 2.0)

    def test_convergence_error_carries_estimate(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_SUBDIVISIONS", 2)
        with pytest.raises(ConvergenceError) as err:
            quad_operator(
                OperatorKind.WEYL_RIGHT, 0.4, 0.0, erf, 0.0, du=derf,
                representation="difference", tol=1e-13,
            )
        assert err.value.achieved is not None

    def test_complex_valued_integrands(self):
        from rfspectral.basis import lambda_k
        from rfspectral.closedform import frac_lap_lambda

        u = lambda x: complex(lambda_k(x, 2))
        got = quad_operator(OperatorKind.FRAC_LAPLACIAN, 0.62, 0.0, u, -0.8)
        assert abs(got - frac_lap_lambda(0.62, 2, -0.8)) < 1e-7
