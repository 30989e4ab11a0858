"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 4's full-size configuration (N = 16384, L = 2100,
t in [0, 22]) only runs when RF_SPECTRAL_FULL_FISHER=1.  It takes about
4 minutes on one core (a 15 s set-up, most of it the matrix build, plus
1760 right-hand sides at about 123 ms each, 1261 MiB peak resident, on a
2-core x86 VM with one BLAS thread) and fails its slope bound:
|sigma - 1/alpha| = 1.665e-4 > 1e-4.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy.special import erf

from reference_formulas import full_payload, synthesize_nodes, weyl_phi_at_zero
from rfspectral.basis import analyze, make_grid, mode_numbers
from rfspectral.closedform import OperatorKind, frac_lap_lambda
from rfspectral.evolve import EvolutionConfig, fit_exponential, rk4_evolve
from rfspectral.operators import apply_reference, sweep_errors
from rfspectral.opmatrix import build_base_matrix
from rfspectral.oracle import quad_operator
from rfspectral.specfun import c_alpha, rf_coeffs


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_erf_operator_battery():
    alpha, skew, n, l_scale, l_lim = 0.62, 0.49, 256, 1.1, 100
    start = time.monotonic()
    base = build_base_matrix(alpha, n, l_lim)
    errors = {}
    for kind, g in [
        (OperatorKind.WEYL_RIGHT, 0.0),
        (OperatorKind.WEYL_LEFT_NEG, 0.0),
        (OperatorKind.RIESZ_FELLER, skew),
        (OperatorKind.FRAC_LAPLACIAN, 0.0),
    ]:
        rep = apply_reference("erf", kind, alpha, g, n, l_scale, l_lim, base=base)
        errors[kind.value] = rep.linf_error
    elapsed = time.monotonic() - start
    worst = max(errors.values())
    ok = worst <= 1e-12 and elapsed <= 30.0
    report(
        "1 erf battery",
        ok,
        f"errors {', '.join(f'{k}={v:.3e}' for k, v in errors.items())}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_log_growth_battery():
    alpha, skew, n, l_scale, l_lim = 1.12, 0.83, 256, 30.0, 100
    start = time.monotonic()
    base = build_base_matrix(alpha, n, l_lim)
    errors = {}
    for kind, g in [
        (OperatorKind.DX_WEYL_RIGHT, 0.0),
        (OperatorKind.DX_WEYL_LEFT_NEG, 0.0),
        (OperatorKind.RIESZ_FELLER, skew),
        (OperatorKind.FRAC_LAPLACIAN, 0.0),
    ]:
        rep = apply_reference("log1psq", kind, alpha, g, n, l_scale, l_lim, base=base)
        errors[kind.value] = rep.linf_error
    elapsed = time.monotonic() - start
    worst = max(errors.values())
    ok = worst <= 1.2e-3 and elapsed <= 30.0
    report(
        "2 log growth battery",
        ok,
        f"errors {', '.join(f'{k}={v:.3e}' for k, v in errors.items())}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_sweep_reproduction():
    start = time.monotonic()
    l_list = [0.5 * i for i in range(1, 11)]
    errors = sweep_errors(
        "erf", OperatorKind.RIESZ_FELLER, 1.37, 0.58, [128], l_list, 100
    )
    elapsed = time.monotonic() - start
    best = float(np.min(errors))
    ok = best <= 1e-12 and elapsed <= 120.0
    report(
        "3 sweep N=128",
        ok,
        f"best error {best:.3e} at L={l_list[int(np.argmin(errors[:, 0]))]}, "
        f"{elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def front_2048():
    """The criterion-4 march, run once for both tests that read it: its
    slope fit over (8, 11.5) and its wall time."""
    start = time.monotonic()
    config = EvolutionConfig(
        alpha=1.37, gamma=-0.63, n=2048, l_scale=300.0, l_lim=100, dt=0.05,
        t_end=12.0, snapshot_stride=10,
    )
    fit = fit_exponential(rk4_evolve(config).trace, (8.0, 11.5))
    return fit, time.monotonic() - start


def test_criterion_4_front_speed_slope(front_2048):
    alpha = 1.37
    fit, elapsed = front_2048
    slope_err = abs(fit.slope - 1.0 / alpha)
    rho_gap = 1.0 - fit.pearson_rho
    ok = slope_err <= 5e-3 and rho_gap <= 1e-4 and elapsed <= 600.0
    report(
        "4 front speed",
        ok,
        f"|sigma - 1/alpha| = {slope_err:.3e}, 1 - rho = {rho_gap:.3e}, "
        f"{elapsed:.1f}s",
    )


# sigma - 1/alpha of the same march on a finer grid: N = 8192, L = 600, with
# alpha = 1.37, gamma = -0.63, l_lim = 100, dt = 0.05, t_end = 12, stride 10,
# fit window (8, 11.5), one BLAS thread.  Recorded with
#   EvolutionConfig(alpha=1.37, gamma=-0.63, n=8192, l_scale=600.0, l_lim=100,
#                   dt=0.05, t_end=12.0, snapshot_stride=10)
#   fit_exponential(rk4_evolve(config).trace, (8.0, 11.5)).slope - 1 / 1.37
# in 24 s (358 MiB peak) on a 2-core x86 VM.  N = 4096, L = 300 gives
# -2.2505972e-3, so the reference is converged to about 4e-7.  Most of the
# offset from 1/alpha is the continuum's finite-time approach to 1/alpha,
# so against the 5e-3 bound a solver change barely shows; against this
# reference it does.
C4_REFERENCE_OFFSET = -2.2502334e-3
# Fixed in advance: about twice the N = 2048 gap of 4.34e-5, so that
# roundoff-level changes pass, and 50 times tighter than the 5e-3 bound.
C4_REFERENCE_BOUND = 1e-4


def test_criterion_4_slope_matches_converged_reference(front_2048):
    fit, _ = front_2048
    offset = fit.slope - 1.0 / 1.37
    gap = offset - C4_REFERENCE_OFFSET
    report(
        "4 front speed vs converged reference",
        abs(gap) <= C4_REFERENCE_BOUND,
        f"sigma - 1/alpha = {offset:.4e}, sigma - sigma_ref = {gap:.3e} "
        f"(N = 8192, L = 600 reference)",
    )


@pytest.mark.skipif(
    os.environ.get("RF_SPECTRAL_FULL_FISHER") != "1",
    reason="full-size run takes about 3 min (176 s); set RF_SPECTRAL_FULL_FISHER=1",
)
def test_criterion_4_full_paper_configuration():
    alpha, skew = 1.37, -0.63
    config = EvolutionConfig(
        alpha=alpha, gamma=skew, n=16384, l_scale=2100.0, l_lim=100, dt=0.05,
        t_end=22.0, snapshot_stride=10,
    )
    result = rk4_evolve(config)
    fit = fit_exponential(result.trace, (15.0, 21.0))
    slope_err = abs(fit.slope - 1.0 / alpha)
    rho_gap = 1.0 - fit.pearson_rho
    ok = slope_err <= 1e-4 and rho_gap <= 1e-6
    report(
        "4b full front speed",
        ok,
        f"|sigma - 1/alpha| = {slope_err:.3e}, 1 - rho = {rho_gap:.3e}",
    )


def test_criterion_5_oracle_equivalence():
    worst_pair = 0.0
    derf = lambda x: 2.0 / math.sqrt(math.pi) * math.exp(-x * x)
    for alpha, skew in ((0.4, 0.2), (1.37, -0.63)):
        rep = apply_reference(
            "erf", OperatorKind.RIESZ_FELLER, alpha, skew, 128, 1.5, 100
        )
        for j in np.linspace(32, 96, 5).astype(int):
            x = float(rep.grid.x_nodes[j])
            quad_val = quad_operator(
                OperatorKind.RIESZ_FELLER, alpha, skew,
                lambda t: float(erf(t)), x, du=derf, tol=1e-8,
            )
            worst_pair = max(worst_pair, abs(float(rep.approx[j].real) - quad_val))
    worst_lemma = 0.0
    for x in (-1.0, 0.0, 2.0):
        diff_form = quad_operator(
            OperatorKind.WEYL_RIGHT, 0.4, 0.0, erf, x, du=derf,
            representation="difference",
        )
        deriv_form = quad_operator(
            OperatorKind.WEYL_RIGHT, 0.4, 0.0, erf, x, du=derf,
            representation="derivative",
        )
        worst_lemma = max(worst_lemma, abs(diff_form - deriv_form))
    ok = worst_pair <= 1e-6 and worst_lemma <= 1e-6
    report(
        "5 oracle equivalence",
        ok,
        f"spectral vs quadrature {worst_pair:.3e}, representations "
        f"{worst_lemma:.3e}",
    )


def test_criterion_6_closed_form_identities():
    rng = np.random.default_rng(2026)
    worst_euler = 0.0
    count = 0
    while count < 100:
        w = rng.uniform(0.0, 2.0)
        if abs(w - 1.0) < 1e-3 or w < 1e-3:
            continue
        count += 1
        lhs = math.gamma(w) * math.gamma(1.0 - w) * math.sin(w * math.pi)
        worst_euler = max(worst_euler, abs(lhs / math.pi - 1.0))
    worst_legendre = 0.0
    for _ in range(100):
        w = rng.uniform(1e-2, 5.0)
        lhs = math.gamma(w) * math.gamma(w + 0.5)
        rhs = 2.0 ** (1.0 - 2.0 * w) * math.sqrt(math.pi) * math.gamma(2.0 * w)
        worst_legendre = max(worst_legendre, abs(lhs / rhs - 1.0))
    worst_c = 0.0
    for alpha in np.arange(0.1, 2.0, 0.1):
        if abs(alpha - 1.0) < 1e-12:
            continue
        worst_c = max(
            worst_c, abs(rf_coeffs(float(alpha), 0.0)[0] / c_alpha(float(alpha)) - 1.0)
        )
    full = full_payload(build_base_matrix(0.62, 32, 100))
    grid = make_grid(32, 1.0)
    worst_col = 0.0
    for k in range(1, 9):
        exact = np.array([frac_lap_lambda(0.62, k, x) for x in grid.x_nodes])
        worst_col = max(worst_col, float(np.max(np.abs(full[:, k] - exact))))
    alpha = 0.37
    d_right, d_left, lap = weyl_phi_at_zero(alpha, 1)
    ref_right = (
        math.gamma(1.0 + alpha / 2.0) * math.gamma((1.0 - alpha) / 2.0)
        + 1j * math.gamma(1.0 - alpha / 2.0) * math.gamma((1.0 + alpha) / 2.0)
    ) / (math.sqrt(math.pi) * math.gamma(1.0 - alpha))
    ref_lap = 1j * 2.0 ** alpha * math.gamma((1.0 + alpha) / 2.0) ** 2 / math.pi
    worst_anchor = max(
        abs(d_right - ref_right) / abs(ref_right),
        abs(d_left - ref_right.conjugate()) / abs(ref_right),
        abs(lap - ref_lap) / abs(ref_lap),
    )
    ok = (
        worst_euler <= 1e-12
        and worst_legendre <= 1e-12
        and worst_c <= 1e-13
        and worst_col <= 1e-10
        and worst_anchor <= 1e-12
    )
    report(
        "6 closed-form identities",
        ok,
        f"euler {worst_euler:.2e}, legendre {worst_legendre:.2e}, "
        f"c-identity {worst_c:.2e}, columns {worst_col:.2e}, "
        f"anchors {worst_anchor:.2e}",
    )


def test_criterion_7_structural_invariants():
    rng = np.random.default_rng(77)
    # zero columns + conjugate fills over 100 random builds
    fills_ok = True
    for _ in range(100):
        n = int(rng.choice([8, 12, 16, 24, 32]))
        alpha = float(rng.uniform(0.1, 1.9))
        if abs(alpha - 1.0) < 1e-3:
            alpha = 1.0
        full = full_payload(build_base_matrix(alpha, n, 10))
        k = mode_numbers(n)
        fills_ok &= bool(np.all(full[:, 0] == 0.0))
        if n % 2 == 0:
            fills_ok &= bool(np.all(full[:, n // 2] == 0.0))
        fills_ok &= bool(np.array_equal(full[::-1, :], np.conj(full)))
        for kk in (1, n // 2 - 1):
            pos = int(np.flatnonzero(k == kk)[0])
            neg = int(np.flatnonzero(k == -kk)[0])
            fills_ok &= bool(np.array_equal(full[:, neg], np.conj(full[:, pos])))
    # analyze/synthesize roundtrips over 100 random real sample vectors
    round_ok = True
    for _ in range(100):
        n = int(rng.choice([8, 16, 33, 128]))
        samples = rng.normal(size=n)
        back = synthesize_nodes(analyze(samples))
        round_ok &= bool(np.max(np.abs(back - samples)) < 1e-12 * max(1.0, np.max(np.abs(samples))))
    ok = fills_ok and round_ok
    report(
        "7 structural invariants",
        ok,
        f"fills {fills_ok}, roundtrips {round_ok}",
    )
