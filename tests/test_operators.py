"""End-to-end operator application with the auxiliary-subtraction path."""

import math
import weakref

import numpy as np
import pytest
from scipy.special import erf

from rfspectral import operators
from rfspectral.basis import lambda_k, make_grid
from rfspectral.closedform import OperatorKind, frac_lap_lambda, reference_operator
from rfspectral.errors import NumericError
from rfspectral.operators import (
    DEFAULT_AUX,
    AuxDecomposition,
    apply_reference,
    apply_with_aux,
    sweep_errors,
)
from rfspectral.opmatrix import build_base_matrix, scale_to_operator


@pytest.fixture(scope="module")
def base_62():
    return build_base_matrix(0.62, 64, 50)


class TestApplyPeriodic:
    """apply_with_aux without an auxiliary: analyze, filter, multiply."""

    def test_constant_function(self, base_62):
        matrix = scale_to_operator(base_62, OperatorKind.RIESZ_FELLER, 0.3, 1.0)
        out = apply_with_aux(np.ones_like, None, matrix).approx
        assert np.max(np.abs(out)) == 0.0

    def test_single_mode(self, base_62):
        l_scale = 1.7
        grid = make_grid(64, l_scale)
        matrix = scale_to_operator(base_62, OperatorKind.RIESZ_FELLER, 0.0, l_scale)
        report = apply_with_aux(
            lambda x: np.real(lambda_k(x / l_scale, 1)), None, matrix
        )
        # The nodes come from the matrix's N and L.
        assert report.grid.x_nodes.tobytes() == grid.x_nodes.tobytes()
        out = report.approx
        g1 = make_grid(64, 1.0)
        expected = -np.array(
            [frac_lap_lambda(0.62, 1, x).real for x in g1.x_nodes]
        ) / l_scale ** 0.62
        assert np.max(np.abs(out.real - expected)) < 1e-11
        assert np.max(np.abs(out.imag)) < 1e-11

    def test_dimension_mismatch(self, base_62):
        matrix = scale_to_operator(base_62, OperatorKind.FRAC_LAPLACIAN, 0.0, 1.0)
        with pytest.raises(ValueError):
            apply_with_aux(lambda x: np.ones(32), None, matrix)

    def test_node_samples_are_refused(self):
        # Samples carry no grid, so those taken at another L used to pass
        # (linf_error 1.33 here); u is evaluated on the matrix's own nodes.
        matrix = scale_to_operator(build_base_matrix(0.62, 16, 5),
                                   OperatorKind.FRAC_LAPLACIAN, 0.0, 1.0)
        with pytest.raises(TypeError):
            apply_with_aux(np.arctan(make_grid(16, 5.0).x_nodes),
                           DEFAULT_AUX["arctan"], matrix, exact="arctan")


class TestApplyWithAux:
    def test_erf_riesz_feller(self):
        report = apply_reference("erf", OperatorKind.RIESZ_FELLER, 0.62, 0.49, 256, 1.1, 100)
        assert report.linf_error < 1e-12

    def test_erf_battery_edge_op(self):
        # The benchmark battery's op closest to its 1e-12 gate; with an
        # absolute Krasny threshold it sat at 1.02e-12.
        report = apply_reference(
            "erf", OperatorKind.DX_WEYL_RIGHT, 1.37, 0.0, 1024, 1.0193434694465962, 100
        )
        assert report.linf_error <= 5e-13

    @pytest.mark.parametrize("alpha, l_lim", [(1.37, 50), (0.62, 100)],
                             ids=["alpha", "l_lim"])
    def test_base_of_another_config_rejected(self, base_62, monkeypatch,
                                             alpha, l_lim):
        def no_values(*args, **kwargs):
            raise AssertionError("erf evaluated with a mismatched base")

        monkeypatch.setattr(operators, "apply_with_aux", no_values)
        with pytest.raises(ValueError, match="does not match"):
            apply_reference("erf", OperatorKind.FRAC_LAPLACIAN, alpha, 0.0, 64,
                            1.1, l_lim, base=base_62)

    def test_arctan_self_aux_is_exact(self, base_62):
        matrix = scale_to_operator(base_62, OperatorKind.WEYL_RIGHT, 0.0, 1.3)
        report = apply_with_aux(np.arctan, DEFAULT_AUX["arctan"], matrix, exact="arctan")
        # w vanishes identically, so the numeric part contributes nothing.
        assert report.linf_error < 1e-14

    def test_log_growth_function(self):
        report = apply_reference(
            "log1psq", OperatorKind.RIESZ_FELLER, 1.12, 0.83, 256, 30.0, 100
        )
        assert report.linf_error < 1.2e-3

    def test_linearity(self, base_62):
        l_scale = 1.4
        matrix = scale_to_operator(base_62, OperatorKind.WEYL_LEFT_NEG, 0.0, l_scale)
        u = lambda x: np.exp(-((x - 0.3) ** 2))
        w = lambda x: np.cos(x) / (1.0 + x * x)
        a, b = 1.7, -0.4
        combined = apply_with_aux(lambda x: a * u(x) + b * w(x), None, matrix).approx
        parts = (
            a * apply_with_aux(u, None, matrix).approx
            + b * apply_with_aux(w, None, matrix).approx
        )
        scale = max(1.0, np.max(np.abs(parts)))
        assert np.max(np.abs(combined - parts)) < 1e-12 * scale

    def test_realness(self):
        report = apply_reference("erf", OperatorKind.FRAC_LAPLACIAN, 1.37, 0.0, 128, 2.0, 100)
        assert np.max(np.abs(report.approx.imag)) < 1e-11

    def test_oracle_agreement_interior_nodes(self):
        from rfspectral.oracle import quad_operator

        report = apply_reference("erf", OperatorKind.RIESZ_FELLER, 0.4, 0.2, 128, 1.5, 100)
        grid = report.grid
        du = lambda x: 2.0 / math.sqrt(math.pi) * math.exp(-x * x)
        for j in np.linspace(40, 88, 5).astype(int):
            x = float(grid.x_nodes[j])
            quad_val = quad_operator(
                OperatorKind.RIESZ_FELLER, 0.4, 0.2, lambda t: float(erf(t)), x,
                du=du, tol=1e-8,
            )
            assert abs(report.approx[j].real - quad_val) < 1e-6


# Samples or closed forms that overflow at a huge map scale.
@pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning",
)
class TestNonFiniteValues:
    @pytest.mark.parametrize("func, l_scale, what", [
        ("log1psq", 1e200, "operator"),
    ])
    def test_apply_raises_numeric_error(self, func, l_scale, what):
        with pytest.raises(NumericError, match=f"non-finite {what} values"):
            apply_reference(func, OperatorKind.FRAC_LAPLACIAN, 0.62, 0.0, 64,
                            l_scale, 10)

    def test_non_finite_exact_values_raise(self, base_62, monkeypatch):
        # No registered closed form overflows on a grid with finite nodes, so
        # the exact values are made non-finite here.
        monkeypatch.setattr(operators, "reference_operator",
                            lambda *args: np.full(64, np.nan))
        matrix = scale_to_operator(base_62, OperatorKind.FRAC_LAPLACIAN, 0.0, 1.0)
        with pytest.raises(NumericError, match="non-finite exact log1psq values"):
            apply_with_aux(np.ones_like, None, matrix, exact="log1psq")

    def test_sweep_raises_numeric_error(self):
        with pytest.raises(NumericError):
            sweep_errors("log1psq", OperatorKind.FRAC_LAPLACIAN, 0.62, 0.0,
                         [16], [1.0, 1e200], 10)


class TestAuxDecomposition:
    def test_limits_balance(self):
        decomp = DEFAULT_AUX["erf"]
        for x in (1e8, -1e8):
            w = erf(x) - decomp.aux_values(x)
            assert abs(w) < 1e-6

    def test_custom_aux_operator_scaling(self):
        decomp = AuxDecomposition(scale=-2.0, offset=5.0)
        x = np.array([0.3, -1.2])
        got = decomp.aux_operator(OperatorKind.FRAC_LAPLACIAN, 0.62, 0.0, x)
        expected = -2.0 * reference_operator(
            "arctan", OperatorKind.FRAC_LAPLACIAN, 0.62, 0.0, x
        )
        assert np.allclose(got, expected, rtol=1e-15)


class TestSweep:
    def test_underresolved_basis_has_large_errors(self):
        errors = sweep_errors(
            "erf", OperatorKind.RIESZ_FELLER, 1.37, 0.58, [8],
            [0.5 * i for i in range(1, 11)], 100,
        )
        assert np.min(errors) > 1e-3

    def test_shape_and_threading(self):
        serial = sweep_errors(
            "erf", OperatorKind.FRAC_LAPLACIAN, 0.62, 0.0, [16, 32], [1.0, 2.0], 20
        )
        threaded = sweep_errors(
            "erf", OperatorKind.FRAC_LAPLACIAN, 0.62, 0.0, [16, 32], [1.0, 2.0], 20,
            jobs=2,
        )
        assert serial.shape == (2, 2)
        assert np.array_equal(serial, threaded)

    def test_builds_are_threaded_and_one_at_a_time(self, monkeypatch):
        calls, building, previous = [], [], []

        def build(alpha, n, l_lim, jobs=1):
            assert not building, "two base builds overlap"
            assert all(ref() is None for ref in previous), "an earlier base is alive"
            building.append(n)
            calls.append((n, jobs))
            base = build_base_matrix(alpha, n, l_lim, jobs=jobs)
            building.pop()
            previous.append(weakref.ref(base.entries))
            return base

        monkeypatch.setattr(operators, "build_base_matrix", build)
        sweep_errors(
            "erf", OperatorKind.FRAC_LAPLACIAN, 0.62, 0.0, [16, 24, 32],
            [1.0, 2.0], 20, jobs=2,
        )
        assert calls == [(16, 2), (24, 2), (32, 2)]
