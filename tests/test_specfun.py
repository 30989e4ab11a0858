"""Special-function kernel tests.

High-precision reference values were generated with 50-digit arithmetic
(mpmath) and frozen here as literals; the Kummer values of the erf reference
(`_ERF_KUMMER_REF`) with 40-digit arithmetic.
"""

import cmath
import math

import numpy as np
import pytest
from scipy.special import hyp1f1 as scipy_hyp1f1

from reference_formulas import kummer_1f1_by_recurrence, ratio_table_reference
from rfspectral import basis, oracle, specfun
from rfspectral.closedform import OperatorKind, frac_lap_lambda, op_lambda, validate_kind
from rfspectral.errors import NumericError
from rfspectral.evolve import initial_condition
from rfspectral.opmatrix import check_base
from rfspectral.specfun import (
    c_alpha,
    check_skewness,
    kummer_1f1,
    ratio_table,
    rf_coeffs,
)

SQRT_PI = math.sqrt(math.pi)

# 1F1(alpha/2; 1/2; -y) and 1F1((1+alpha)/2; 3/2; -y), the two Kummer values
# per node of the erf reference, on both sides of the switch from the
# transformed series to the large-argument expansion at y = 50.
_ERF_KUMMER_Y = (0.5, 10.0, 49.9, 50.1, 80.0, 300.0, 699.0, 701.0, 2500.0)
_ERF_KUMMER_REF = {
    0.05: (
        (9.787513864049494018246e-1, 8.487687192801610569866e-1),
        (8.987053124192800728946e-1, 2.610196408581188224272e-1),
        (8.622943282559580801446e-1, 1.121153746344160238113e-1),
        (8.622071680839178840325e-1, 1.118800577585589612544e-1),
        (8.520923796503341622334e-1, 8.749870060945983527003e-2),
        (8.242956206659933310346e-1, 4.371014839359185301505e-2),
        (8.070272670364152636803e-1, 2.803557942768400138564e-2),
        (8.069695809244301453765e-1, 2.799355605124957428568e-2),
        (7.817101565703572409783e-1, 1.435937925447231060209e-2),
    ),
    0.62: (
        (7.483831345859384083852e-1, 7.729665084421830928226e-1),
        (1.843435847078799812038e-1, 1.074844269437751801911e-1),
        (1.093820157400534039498e-1, 2.855378977589564510979e-2),
        (1.092441717365926670192e-1, 2.846082739406039102666e-2),
        (9.430765289541237893673e-2, 1.944330330396078364457e-2),
        (6.245688641398635199022e-2, 6.649481939901119515409e-3),
        (4.802766184616250140112e-2, 3.349816090984927866179e-3),
        (4.798509253450054851416e-2, 3.342069182242357409034e-3),
        (3.234486607012151088419e-2, 1.192898413373211366175e-3),
    ),
    1.37: (
        (4.770342881594110222708e-1, 6.796064239588969146132e-1),
        (-6.506446246855804403591e-2, 2.24952304578311726e-2),
        (-1.995098821713008080651e-2, 3.082572044276712883404e-3),
        (-1.989502420348281033937e-2, 3.06778348438902331521e-3),
        (-1.434680026595442058387e-2, 1.750689612172157782893e-3),
        (-5.757525637834735655598e-3, 3.628059069579006713271e-4),
        (-3.220487959869848978739e-3, 1.329481162410059039649e-4),
        (-3.214180471386482236888e-3, 1.324983119355876440833e-4),
        (-1.344111696803171221302e-3, 2.93402933901742686901e-5),
    ),
    1.95: (
        (2.904062132230223295175e-1, 6.121576437105280993373e-1),
        (-6.35195206293507379295e-2, 9.489642024648726712548e-4),
        (-1.134208469657092063536e-2, 7.241245100474878759028e-5),
        (-1.12965372528287057223e-2, 7.197755836214716739027e-5),
        (-7.07669946869153643214e-3, 3.568259193686444574814e-5),
        (-1.924250291287661063448e-3, 5.01039041691814919868e-6),
        (-8.41184517645960454336e-4, 1.434905556251704726889e-6),
        (-8.38839528816525496581e-4, 1.428862745447364641011e-6),
        (-2.424483734376433526973e-4, 2.186854581732499035585e-7),
    ),
}


class TestGamma:
    def test_identity_values(self):
        assert math.gamma(1.0) == 1.0
        assert math.gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-15)
        assert math.gamma(-0.5) == pytest.approx(-2.0 * SQRT_PI, rel=1e-15)

    def test_euler_reflection(self):
        # Gamma(w) Gamma(1-w) sin(pi w) = pi on (0,1) u (1,2) \ {1}
        rng = np.random.default_rng(20240817)
        count = 0
        while count < 100:
            w = rng.uniform(0.0, 2.0)
            if w in (0.0, 1.0) or abs(w - 1.0) < 1e-3:
                continue
            count += 1
            lhs = math.gamma(w) * math.gamma(1.0 - w) * math.sin(w * math.pi)
            assert lhs == pytest.approx(math.pi, rel=1e-12)

    def test_legendre_duplication(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            w = rng.uniform(1e-2, 5.0)
            lhs = math.gamma(w) * math.gamma(w + 0.5)
            rhs = 2.0 ** (1.0 - 2.0 * w) * SQRT_PI * math.gamma(2.0 * w)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestCAlpha:
    def test_alpha_one(self):
        assert c_alpha(1.0) == pytest.approx(1.0 / math.pi, rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.62, 0.9, 1.1, 1.37, 1.7, 1.9])
    def test_sine_identity(self, alpha):
        rhs = math.gamma(1.0 + alpha) * math.sin(alpha * math.pi / 2.0) / math.pi
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
        assert abs(got - (-2.0 * math.gamma(1.0 + alpha))) < 1e-7


class TestOrderRule:
    ENTRIES = {
        "c_alpha": c_alpha,
        "check_skewness": lambda alpha: check_skewness(alpha, 0.0),
        "check_base": lambda alpha: check_base(alpha, 16, 5),
        "frac_lap_lambda": lambda alpha: frac_lap_lambda(alpha, 1, 0.3),
        "validate_kind-fl": lambda alpha: validate_kind(
            OperatorKind.FRAC_LAPLACIAN, alpha
        ),
        "initial_condition": lambda alpha: initial_condition(0.3, alpha),
    }

    @pytest.mark.parametrize("alpha", [0.0, 2.0, math.nan], ids=["0", "2", "nan"])
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_one_order_rule(self, entry, alpha):
        with pytest.raises(ValueError, match=r"order must lie in \(0, 2\), got"):
            self.ENTRIES[entry](alpha)


class TestRieszFellerCoeffs:
    def test_symmetric_case(self):
        for alpha in (0.3, 1.0, 1.7):
            c1, c2 = rf_coeffs(alpha, 0.0)
            assert c1 == c2

    def test_positive_sum(self):
        c1, c2 = rf_coeffs(0.62, 0.49)
        assert c1 + c2 > 0.0

    def test_fourier_symbol(self):
        alpha, skew = 1.37, -0.63
        c1, c2 = rf_coeffs(alpha, skew)
        for xi in (1.0, -1.0):
            lhs = math.gamma(-alpha) * (
                c1 * (1j * xi) ** alpha + c2 * (-1j * xi) ** alpha
            )
            rhs = -abs(xi) ** alpha * cmath.exp(
                -1j * math.copysign(1.0, xi) * skew * math.pi / 2.0
            )
            assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("alpha,skew", [
        (0.5, 0.9), (1.8, 0.5), (0.62, -0.7), (1.37, math.nan),
    ])
    def test_skewness_constraint(self, alpha, skew):
        with pytest.raises(ValueError):
            rf_coeffs(alpha, skew)


class TestHyp2F1:
    # The paper's 2F1(1 - |k|, 1 + alpha; 2; z) through frac_lap_lambda,
    # which multiplies it by the front factor.

    @staticmethod
    def front(alpha, k, x):
        # -2|k| Gamma(1 + alpha) (1 + i sgn(k) x)^-(1 + alpha), and z.
        base = 1.0 + 1j * (1 if k > 0 else -1) * x
        return -2.0 * abs(k) * math.gamma(1.0 + alpha) / base ** (1.0 + alpha), 2.0 / base

    def test_m_zero(self):
        for k in (1, -1):
            for x in (-2.0, 0.0, 0.3, 5.0):
                assert frac_lap_lambda(0.77, k, x) == self.front(0.77, k, x)[0]

    def test_m_one(self):
        alpha = 0.62
        for k in (2, -2):
            for x in (-1.7, 0.45):
                front, z = self.front(alpha, k, x)
                assert frac_lap_lambda(alpha, k, x) == pytest.approx(
                    front * (1.0 - (1.0 + alpha) * z / 2.0), rel=1e-15
                )

    def test_frozen_high_precision_value(self):
        # 2F1(-5, 1.62; 2; 2/(0.3i + 1)), 50-digit series summation
        got = frac_lap_lambda(0.62, 6, 0.3) / self.front(0.62, 6, 0.3)[0]
        ref = 0.4455311159091846529783936 + 0.0576851161568936521696683j
        assert abs(got - ref) < 1e-13 * abs(ref)

    def test_conjugate_symmetry_exact(self):
        # Mode -k is the bitwise conjugate of mode k, for every kind.
        rng = np.random.default_rng(99)
        ranges = {"dr": (0.05, 0.95), "dl": (0.05, 0.95),
                  "dxr": (1.05, 1.95), "dxl": (1.05, 1.95)}
        for kind in OperatorKind:
            for _ in range(100):
                alpha = float(rng.uniform(*ranges.get(kind.value, (0.05, 1.95))))
                skew = 0.0
                if kind is OperatorKind.RIESZ_FELLER:
                    skew = float(rng.uniform(-1.0, 1.0)) * min(alpha, 2.0 - alpha)
                k = int(rng.integers(1, 64))
                x = float(rng.normal(scale=3.0))
                assert op_lambda(kind, alpha, -k, x, skew) == op_lambda(
                    kind, alpha, k, x, skew
                ).conjugate()


# Arguments outside kummer_1f1's contract, x <= 0.
_REFUSED_X = (1e-300, 0.5, 10.0, 49.9, 80.0, 300.0, math.inf, math.nan)


def _outcome(kernel, a, b, x):
    # The value's float.hex, or the type of the error the sum raised.
    try:
        return kernel(a, b, x).hex()
    except NumericError as exc:
        return type(exc)


@pytest.fixture
def short_tables(monkeypatch):
    # Series tables of three ratios; the caches (and kummer_1f1's memo) are
    # cleared on both sides, so no short table, and no value summed over
    # one, outlives the test.
    monkeypatch.setattr(specfun, "_TABLE_TERMS", 3)
    specfun._series_ratios.cache_clear()
    specfun.kummer_1f1.cache_clear()
    yield
    specfun._series_ratios.cache_clear()
    specfun.kummer_1f1.cache_clear()


class TestKummer:
    def test_at_zero(self):
        assert kummer_1f1(0.31, 0.5, 0.0) == 1.0

    def test_equal_parameters_collapse(self):
        # b - a = 0: the transformed series terminates at exp(x).
        for x in (-40.0, -3.0, -0.7):
            assert kummer_1f1(0.5, 0.5, x) == pytest.approx(math.exp(x), rel=1e-13)
        assert kummer_1f1(0.5, 0.5, -math.inf) == 0.0

    def test_frozen_high_precision_value(self):
        # 1F1(0.31; 0.5; -4), 50-digit series summation
        got = kummer_1f1(0.31, 0.5, -4.0)
        assert got == pytest.approx(0.267650683800827945692495, rel=1e-13)

    @pytest.mark.parametrize("a,b", [(0.31, 0.5), (0.685, 0.5), (1.185, 1.5), (0.31, 1.5)])
    def test_negative_axis_against_scipy(self, a, b):
        # (0.31, 1.5) has a - b + 1 < 0, outside the expansion's contract,
        # so it is checked on the transformed series' range only.
        lo = -2500.0 if a - b + 1.0 >= 0.0 else -50.0
        for x in np.linspace(lo, -0.5, 41):
            got = kummer_1f1(a, b, float(x))
            ref = float(scipy_hyp1f1(a, b, float(x)))
            assert got == pytest.approx(ref, rel=1e-11)

    def test_bad_b(self):
        with pytest.raises(ValueError):
            kummer_1f1(0.3, 0.0, -1.0)

    @pytest.mark.parametrize("alpha", [0.05, 0.62, 0.999, 1.0, 1.37, 1.95])
    def test_tables_give_the_recurrence_bit_for_bit(self, alpha):
        # The erf reference's arguments -x^2 at the battery's N = 1024 nodes
        # (-x up to about 6.8e6 at L = 4), both sides of the cut at 50, and
        # -inf (0 where the first pair terminates, at alpha = 1).  Both
        # pairs take the series and expansion loops without abs(), except
        # the first pair's transformed series at alpha > 1 (b - a < 0).
        ys = [-t * t for L in (1.0, 1.75, 2.5, 3.25, 4.0)
              for t in basis.make_grid(1024, L).x_nodes.tolist()]
        ys += [-0.0, -1e-300, -49.9, -50.0, -50.1, -1e300, -math.inf]
        for a, b in ((alpha / 2.0, 0.5), ((1.0 + alpha) / 2.0, 1.5)):
            for y in ys:
                assert _outcome(kummer_1f1, a, b, y) == _outcome(
                    kummer_1f1_by_recurrence, a, b, y), (a, b, y)

    @pytest.mark.parametrize("a,b", [(-0.4, 0.5), (0.31, 1.5)])
    def test_signed_terms_give_the_recurrence_bit_for_bit(self, a, b):
        # Pairs whose expansion terms change sign (a < 0, and a - b + 1 < 0):
        # the transformed series covers them down to x = -50, and the
        # expansion refuses them beyond.
        ys = [-50.0, -49.9, -10.0, -0.5, -1e-300, -0.0]
        for y in ys:
            assert _outcome(kummer_1f1, a, b, y) == _outcome(
                kummer_1f1_by_recurrence, a, b, y), (a, b, y)
        for y in (-50.1, -80.0, -1e300, -math.inf):
            with pytest.raises(ValueError, match="large-argument expansion"):
                kummer_1f1(a, b, y)

    @pytest.mark.parametrize("alpha", [0.05, 0.62, 0.999, 1.0, 1.37, 1.95])
    def test_refused_arguments_raise_at_once(self, alpha):
        # x > 0, +inf and nan raise before any table is built, so the nan
        # argument no longer sums a series to its term bound.
        pairs = [(alpha / 2.0, 0.5), ((1.0 + alpha) / 2.0, 1.5)]
        specfun._series_ratios.cache_clear()
        specfun._asymptotic_table.cache_clear()
        for a, b in pairs:
            for x in _REFUSED_X:
                with pytest.raises(ValueError, match="x must be <= 0"):
                    kummer_1f1(a, b, x)
        assert specfun._series_ratios.cache_info().currsize == 0
        assert specfun._asymptotic_table.cache_info().currsize == 0

    def test_numpy_scalar_arguments(self):
        alpha = 0.4321  # a pair no other test caches
        for a, b in ((alpha / 2.0, 0.5), ((1.0 + alpha) / 2.0, 1.5)):
            for y in (-80.0, -20.0, -3.0):
                got = kummer_1f1(np.float64(a), np.float64(b), np.float64(y))
                # Equal keys: the memo would hand back the numpy result.
                kummer_1f1.cache_clear()
                assert float(got).hex() == kummer_1f1(a, b, y).hex()
            # Cached from numpy-scalar (a, b) first, yet Python floats only.
            gamma_ratio, factors = specfun._asymptotic_table(a, b)
            values = [gamma_ratio, *(v for pair in factors for v in pair)]
            values += specfun._series_ratios(b - a, b)
            assert {type(v) for v in values} == {float}

    def test_table_caches_stay_bounded(self):
        for alpha in np.linspace(0.01, 1.99, 200).tolist():
            kummer_1f1(alpha / 2.0, 0.5, -20.0)
            kummer_1f1(alpha / 2.0, 0.5, -80.0)
        for table in (specfun._series_ratios, specfun._asymptotic_table):
            assert table.cache_info().currsize == specfun._TABLE_PAIRS

    def test_nonconvergence_reports_terms(self, short_tables):
        # b - a = -5 terminates after 6 terms, past a table of 3.
        with pytest.raises(NumericError, match="within 3 terms") as info:
            kummer_1f1(5.5, 0.5, -30.0)
        assert "a=-5.0, b=0.5, x=30.0" in str(info.value)

    def test_transformed_nonconvergence_names_caller_arguments(self, short_tables):
        with pytest.raises(NumericError, match="transformed series") as info:
            kummer_1f1(0.31, 0.5, -30.0)
        assert "within 3 terms (a=0.31, b=0.5, x=-30.0)" in str(info.value)

    def test_series_stops_at_the_table(self):
        # b - a = 200 at -x = 50: the terms still grow at the table's end,
        # and the series raises instead of running on.
        with pytest.raises(NumericError, match=f"within {specfun._TABLE_TERMS} terms"):
            kummer_1f1(-199.5, 0.5, -50.0)

    @pytest.mark.parametrize("alpha", sorted(_ERF_KUMMER_REF))
    def test_erf_parameters_across_branch_switch(self, alpha):
        for y, (f1, f2) in zip(_ERF_KUMMER_Y, _ERF_KUMMER_REF[alpha]):
            got1 = kummer_1f1(alpha / 2.0, 0.5, -y)
            got2 = kummer_1f1((1.0 + alpha) / 2.0, 1.5, -y)
            assert abs(got1 / f1 - 1.0) <= 4e-15, (y, got1, f1)
            assert abs(got2 / f2 - 1.0) <= 4e-15, (y, got2, f2)


class TestRatioTable:
    def test_v1_at_zero(self):
        table = ratio_table(1.37, 0)
        assert table[0] == pytest.approx(
            math.gamma(0.185) / math.gamma(0.815), rel=1e-14
        )

    def test_v2_one_step(self):
        alpha = 1.37
        table = ratio_table(-alpha, 1)
        expected = table[0] * ((-1.0 - alpha) / 2.0) / ((3.0 + alpha) / 2.0)
        assert table[1] == pytest.approx(expected, rel=1e-14)

    def test_recurrence_ratio_invariant(self):
        for order in (0.62, -1.37):
            table = ratio_table(order, 500)
            p = np.arange(500)
            expected = ((-1.0 + order) / 2.0 + p) / ((3.0 - order) / 2.0 + p)
            ratios = table[1:] / table[:-1]
            assert np.max(np.abs(ratios / expected - 1.0)) < 1e-14

    @pytest.mark.parametrize("order", [0.62, -0.62])
    def test_deep_entry_against_log_gamma(self, order):
        p = 300
        table = ratio_table(order, p)
        # Both arguments are positive at this depth for either sign of the
        # order, so Gamma has no sign.
        num = math.lgamma((-1.0 + order) / 2.0 + p)
        den = math.lgamma((3.0 - order) / 2.0 + p)
        assert table[p] == pytest.approx(math.exp(num - den), rel=1e-12)

    @pytest.mark.parametrize("order", [1.0, -1.0, 0.0, 2.0, -2.0, math.nan])
    def test_alpha_one_rejected(self, order):
        with pytest.raises(ValueError):
            ratio_table(order, 10)

    def test_values_immutable(self):
        table = ratio_table(-0.62, 5)
        with pytest.raises(ValueError):
            table[0] = 0.0

    @pytest.mark.parametrize("p_max", [0, 1, 7, 103423])
    @pytest.mark.parametrize("order", [0.05, 0.62, 1.37, 1.95,
                                       -0.05, -0.62, -1.37, -1.95])
    def test_bitwise_the_reference_formula(self, order, p_max):
        # Built in place, the table holds the same doubles as the array
        # expressions; 103423 is l_lim N + N - 1 at N = 1024, l_lim = 100.
        table = ratio_table(order, p_max)
        expected = ratio_table_reference(order, p_max)
        assert table.shape == (p_max + 1,)
        assert np.array_equal(table.view(np.uint64), expected.view(np.uint64))
        assert not table.flags.writeable
