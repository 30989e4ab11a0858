"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 4's full-size configuration (N = 16384, L = 2100,
t in [0, 22]) takes hours and only runs when RF_SPECTRAL_FULL_FISHER=1.
"""

import io
import math
import os
import time

import numpy as np
import pytest
from scipy.special import erf

from rfspectral.basis import CoeffVector, analyze, make_grid, mode_numbers, synthesize_nodes
from rfspectral.closedform import (
    OperatorKind,
    frac_lap_lambda,
    reference_operator,
    weyl_phi_at_zero,
)
from rfspectral.evolve import EvolutionConfig, fit_exponential, rk4_evolve
from rfspectral.operators import apply_reference, sweep_errors
from rfspectral.opmatrix import build_base_matrix, serialize
from rfspectral.oracle import QuadratureConfig, quad_operator
from rfspectral.specfun import c_alpha, gamma, rf_coeffs


def full_payload(matrix):
    """The full N x N matrix as RFM1 writes it, implied columns included."""
    buf = io.BytesIO()
    serialize(matrix, buf)
    payload = buf.getvalue()[-16 * matrix.n * matrix.n :]
    return np.frombuffer(payload, dtype=np.complex128).reshape(matrix.n, matrix.n)


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


def test_criterion_4_front_speed_slope():
    alpha, skew = 1.37, -0.63
    start = time.monotonic()
    config = EvolutionConfig(
        alpha=alpha, gamma=skew, n=2048, l_scale=300.0, l_lim=100, dt=0.05,
        t_end=12.0, snapshot_stride=10,
    )
    result = rk4_evolve(config)
    fit = fit_exponential(result.trace, (8.0, 11.5))
    elapsed = time.monotonic() - start
    slope_err = abs(fit.slope - 1.0 / alpha)
    rho_gap = 1.0 - fit.pearson_rho
    ok = slope_err <= 5e-3 and rho_gap <= 1e-4 and elapsed <= 600.0
    report(
        "4 front speed",
        ok,
        f"|sigma - 1/alpha| = {slope_err:.3e}, 1 - rho = {rho_gap:.3e}, "
        f"{elapsed:.1f}s",
    )


@pytest.mark.skipif(
    os.environ.get("RF_SPECTRAL_FULL_FISHER") != "1",
    reason="full-size run takes hours; set RF_SPECTRAL_FULL_FISHER=1",
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
        cfg = QuadratureConfig.for_function(alpha, u_sup=1.0, abs_tol=1e-8,
                                            rel_tol=1e-8)
        for j in np.linspace(32, 96, 5).astype(int):
            x = float(rep.grid.x_nodes[j])
            quad_val = quad_operator(
                OperatorKind.RIESZ_FELLER, alpha, skew,
                lambda t: float(erf(t)), x, cfg, du=derf,
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
        lhs = gamma(w) * gamma(1.0 - w) * math.sin(w * math.pi)
        worst_euler = max(worst_euler, abs(lhs / math.pi - 1.0))
    worst_legendre = 0.0
    for _ in range(100):
        w = rng.uniform(1e-2, 5.0)
        lhs = gamma(w) * gamma(w + 0.5)
        rhs = 2.0 ** (1.0 - 2.0 * w) * math.sqrt(math.pi) * gamma(2.0 * w)
        worst_legendre = max(worst_legendre, abs(lhs / rhs - 1.0))
    worst_c = 0.0
    for alpha in np.arange(0.1, 2.0, 0.1):
        if abs(alpha - 1.0) < 1e-12:
            continue
        worst_c = max(
            worst_c, abs(rf_coeffs(float(alpha), 0.0).c1 / c_alpha(float(alpha)) - 1.0)
        )
    base = build_base_matrix(0.62, 32, 100)
    grid = make_grid(32, 1.0)
    worst_col = 0.0
    for k in range(1, 9):
        exact = np.array([frac_lap_lambda(0.62, k, x) for x in grid.x_nodes])
        worst_col = max(worst_col, float(np.max(np.abs(base.entries[:, k - 1] - exact))))
    alpha = 0.37
    d_right, d_left, lap = weyl_phi_at_zero(alpha, 1)
    ref_right = (
        gamma(1.0 + alpha / 2.0) * gamma((1.0 - alpha) / 2.0)
        + 1j * gamma(1.0 - alpha / 2.0) * gamma((1.0 + alpha) / 2.0)
    ) / (math.sqrt(math.pi) * gamma(1.0 - alpha))
    ref_lap = 1j * 2.0 ** alpha * gamma((1.0 + alpha) / 2.0) ** 2 / math.pi
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
    # Hermitian coefficient symmetry over 100 random real sample vectors
    herm_ok = True
    for _ in range(100):
        n = int(rng.choice([8, 16, 31, 64]))
        grid = make_grid(n, float(rng.uniform(0.5, 3.0)))
        coeffs = analyze(rng.normal(size=n), grid, krasny_eps=0.0).coeffs
        k = mode_numbers(n)
        for kk in range(1, (n - 1) // 2 + 1):
            pos = int(np.flatnonzero(k == kk)[0])
            neg = int(np.flatnonzero(k == -kk)[0])
            herm_ok &= bool(abs(coeffs[neg] - coeffs[pos].conjugate()) < 1e-12)
    # analyze/synthesize roundtrips over 100 random coefficient vectors
    round_ok = True
    for _ in range(100):
        n = int(rng.choice([8, 16, 33, 128]))
        original = rng.normal(size=n) + 1j * rng.normal(size=n)
        grid = make_grid(n, 1.0)
        samples = synthesize_nodes(CoeffVector(original.copy()))
        back = analyze(samples, grid, krasny_eps=0.0).coeffs
        round_ok &= bool(np.max(np.abs(back - original)) < 1e-12 * max(1.0, np.max(np.abs(original))))
    ok = fills_ok and herm_ok and round_ok
    report(
        "7 structural invariants",
        ok,
        f"fills {fills_ok}, hermitian {herm_ok}, roundtrips {round_ok}",
    )
