"""End-to-end operator application with the auxiliary-subtraction path."""

import math
import weakref

import numpy as np
import pytest
from scipy.special import erf

from rfspectral import operators, opmatrix
from rfspectral.basis import lambda_k, make_grid
from rfspectral.closedform import (
    ARCTAN,
    CLOSED_FORMS,
    AuxDecomposition,
    OperatorKind,
    frac_lap_lambda,
    reference_operator,
)
from rfspectral.errors import NumericError
from rfspectral.operators import apply_reference, apply_with_aux, sweep_errors
from rfspectral.evolve import EvolutionConfig
from rfspectral.opmatrix import OperatorMatrix, build_base_matrix, scale_to_operator


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
                           ARCTAN.aux, matrix, exact=ARCTAN)


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
        report = apply_with_aux(np.arctan, ARCTAN.aux, matrix, exact=ARCTAN)
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
            apply_with_aux(np.ones_like, None, matrix, exact=CLOSED_FORMS["log1psq"])

    def test_sweep_raises_numeric_error(self):
        with pytest.raises(NumericError):
            sweep_errors("log1psq", OperatorKind.FRAC_LAPLACIAN, 0.62, 0.0,
                         [16], [1.0, 1e200], 10)


class TestAuxDecomposition:
    def test_limits_balance(self):
        decomp = CLOSED_FORMS["erf"].aux
        for x in (1e8, -1e8):
            w = erf(x) - decomp.aux_values(x)
            assert abs(w) < 1e-6

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_each_entry_split_equalizes_the_limits(self, name):
        # The remainder w = u - aux must take one value at both infinities;
        # an entry without a split must already do so.
        func = CLOSED_FORMS[name]
        x = np.array([-1e8, 1e8])
        w = func.value(x)
        if func.aux is not None:
            w = w - func.aux.aux_values(x)
        assert abs(w[1] - w[0]) <= 1e-7 * max(1.0, abs(w[0]))

    def test_custom_aux_operator_scaling(self):
        decomp = AuxDecomposition(scale=-2.0, offset=5.0)
        x = np.array([0.3, -1.2])
        got = decomp.aux_operator(OperatorKind.FRAC_LAPLACIAN, 0.62, 0.0, x)
        expected = -2.0 * reference_operator(
            ARCTAN, OperatorKind.FRAC_LAPLACIAN, 0.62, 0.0, x
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


RF = OperatorKind.RIESZ_FELLER

# One row per fault: (kind, alpha, gamma, n, l_scale, l_lim) with one bad
# label, and a fragment of the rule that refuses it.
FAULTS = [
    pytest.param(OperatorKind.WEYL_RIGHT, 1.37, 0.0, 16, 1.0, 5,
                 "requires alpha in (0,1)", id="kind-against-alpha"),
    pytest.param(RF, 0.6, 0.9, 16, 1.0, 5,
                 "exceeds min(alpha, 2-alpha)", id="skewness-too-large"),
    pytest.param(RF, 1.37, math.nan, 16, 1.0, 5, "skewness |nan|", id="skewness-nan"),
    pytest.param(OperatorKind.FRAC_LAPLACIAN, 0.62, 0.4, 16, 1.0, 5,
                 "takes no skewness", id="fl-skewness"),
    pytest.param(RF, 1.37, 0.3, 16, 0.0, 5, "map scale must be finite", id="scale-zero"),
    pytest.param(RF, 1.37, 0.3, 16, math.inf, 5, "map scale must be finite",
                 id="scale-inf"),
    pytest.param(RF, 1.37, 0.3, 16, 1e308, 5, "outer nodes", id="outer-nodes"),
    pytest.param(RF, 1.5, 0.3, 16, 1e300, 5, "L^alpha", id="power-overflow"),
    pytest.param(RF, 1.5, 0.3, 16, 1e-300, 5, "L^alpha", id="power-underflow"),
    pytest.param(RF, 1.37, 0.3, 16, 1.0, 0, "l_lim >= 1", id="l-lim-zero"),
    pytest.param(RF, 1.37, 0.3, 1, 1.0, 5, "matrix size must be >= 2", id="n-one"),
    pytest.param(RF, 1.37, 0.3, 16.5, 1.0, 5, "matrix size must be an integer",
                 id="n-not-integer"),
]


def _labels_only(alpha, n, l_lim):
    # A base with these labels and zero entries, made without a build (which
    # would refuse the labels itself): scale_to_operator reads only labels.
    rows = (int(n) + 1) // 2
    return OperatorMatrix(OperatorKind.FRAC_LAPLACIAN, alpha, 0.0, 1.0, l_lim, n,
                          np.zeros((2, rows, rows - 1)))


class TestRefusals:
    """Every entry point refuses a bad operator label with one text, before
    any build."""

    @pytest.mark.parametrize("kind, alpha, gamma, n, l_scale, l_lim, fragment", FAULTS)
    def test_one_refusal_per_fault(self, monkeypatch, kind, alpha, gamma, n,
                                   l_scale, l_lim, fragment):
        def no_build(*args, **kwargs):
            raise AssertionError("base matrix built before the labels were checked")

        monkeypatch.setattr(operators, "build_base_matrix", no_build)
        monkeypatch.setattr(opmatrix, "build_base_matrix", no_build)
        entry_points = {
            "apply_reference": lambda: apply_reference(
                "erf", kind, alpha, gamma, n, l_scale, l_lim),
            # The fault sits in the last cell, after a sound one at N = 16, L = 1.
            "sweep_errors": lambda: sweep_errors(
                "erf", kind, alpha, gamma, [16, n], [1.0, l_scale], l_lim),
            "scale_to_operator": lambda: scale_to_operator(
                _labels_only(alpha, n, l_lim), kind, gamma, l_scale),
        }
        if kind is RF:
            entry_points["EvolutionConfig"] = lambda: EvolutionConfig(
                alpha=alpha, gamma=gamma, n=n, l_scale=l_scale, l_lim=l_lim)
        texts = {}
        for name, call in entry_points.items():
            with pytest.raises(ValueError) as info:
                call()
            texts[name] = str(info.value)
        assert fragment in texts["apply_reference"]
        assert len(set(texts.values())) == 1, texts
