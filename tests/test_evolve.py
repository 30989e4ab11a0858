"""Fisher evolution: right-hand side structure, RK4, front tracking and the
slope regression."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from rfspectral import evolve
from rfspectral.basis import lambda_k, make_grid
from rfspectral.errors import BudgetError, DivergenceError, TrackingError
from rfspectral.evolve import (
    FISHER_AUX,
    EvolutionConfig,
    FisherSystem,
    FrontTrace,
    fit_exponential,
    front_position,
    initial_condition,
    rk4_evolve,
    rk4_step,
)
from rfspectral.closedform import OperatorKind
from rfspectral.opmatrix import build_base_matrix, scale_to_operator


@pytest.fixture(scope="module")
def small_system():
    config = EvolutionConfig(
        alpha=1.37, gamma=-0.63, n=64, l_scale=10.0, l_lim=20, dt=0.05,
        t_end=1.0, snapshot_stride=5,
    )
    return config, FisherSystem.from_config(config)


class TestInitialCondition:
    def test_at_zero(self):
        assert initial_condition(0.0, 1.37) == pytest.approx(0.5 ** 0.685)

    def test_at_one(self):
        expected = (0.5 - 1.0 / (2.0 * math.sqrt(2.0))) ** 0.685
        assert initial_condition(1.0, 1.37) == pytest.approx(expected, rel=1e-15)

    def test_limits(self):
        assert initial_condition(-1e12, 0.7) == pytest.approx(1.0, abs=1e-10)
        assert initial_condition(1e12, 0.7) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("x", [1e200, 1e308])
    def test_exact_limits_where_x_squared_overflows(self, x):
        # x * x overflows past |x| = 1.34e154; it used to give 0.622 at both
        # ends for alpha = 1.37.
        assert initial_condition(np.array([-x, x]), 1.37).tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("n, l_scale", [
        (256, 1.1), (128, 1.5), (2048, 300.0), (8, 0.5), (64, 2.5), (128, 5.0),
        (1024, 0.5), (1024, 4.0), (1024, 60.0),
    ])
    @pytest.mark.parametrize("alpha", [0.62, 1.37])
    def test_unchanged_where_x_squared_is_finite(self, n, l_scale, alpha):
        # The README and benchmark grids: the clip leaves every node's value
        # bit for bit as the plain formula gives it.
        x = make_grid(n, l_scale).x_nodes
        plain = (0.5 - x / (2.0 * np.sqrt(1.0 + x * x))) ** (alpha / 2.0)
        assert initial_condition(x, alpha).tobytes() == plain.tobytes()

    def test_huge_map_scale_config_accepted_without_a_build(self, monkeypatch):
        # The outer nodes, about +-1e201, straddle the front at x = 0.284.
        # The config used to warn and refuse: "does not cross 1/2".
        def no_build(*args, **kwargs):
            raise AssertionError("a config check built a base matrix")

        monkeypatch.setattr(evolve, "build_base_matrix", no_build)
        EvolutionConfig(alpha=1.37, gamma=0.0, n=16, l_scale=1e200)


class TestRhs:
    def test_equilibria_are_fixed_points(self, small_system):
        _, system = small_system
        assert np.max(np.abs(system.rhs(np.zeros(64)))) == 0.0
        assert np.max(np.abs(system.rhs(np.ones(64)))) == 0.0

    def test_front_state_moves_right(self, small_system):
        _, system = small_system
        u0 = initial_condition(system.grid.x_nodes, 1.37)
        rhs = system.rhs(u0)
        j0 = int(np.argmin(np.abs(system.grid.x_nodes)))
        assert np.isfinite(rhs[j0]) and rhs[j0] > 0.0

    def test_requires_riesz_feller_matrix(self):
        with pytest.raises(ValueError):
            FisherSystem(build_base_matrix(0.62, 16, 10))

    def test_nodes_come_from_the_matrix(self):
        base = build_base_matrix(1.37, 33, 10)
        matrix = scale_to_operator(base, OperatorKind.RIESZ_FELLER, -0.3, 7.5)
        grid = FisherSystem(matrix).grid
        expected = make_grid(33, 7.5)
        assert (grid.n, grid.l_scale) == (expected.n, expected.l_scale)
        assert grid.s_nodes.tobytes() == expected.s_nodes.tobytes()
        assert grid.x_nodes.tobytes() == expected.x_nodes.tobytes()


class TestRk4:
    def test_equilibrium_preserved_100_steps(self, small_system):
        _, system = small_system
        u = np.ones(64)
        for _ in range(100):
            u = rk4_step(system, u, 0.05)
        assert np.max(np.abs(u - 1.0)) < 1e-12

    def test_order_against_refined_steps(self, small_system):
        _, system = small_system
        u0 = initial_condition(system.grid.x_nodes, 1.37)
        t_step = 0.2

        def march(k):
            u = u0.copy()
            for _ in range(k):
                u = rk4_step(system, u, t_step / k)
            return u

        reference = march(16)
        err_coarse = np.max(np.abs(march(1) - reference))
        err_fine = np.max(np.abs(march(2) - reference))
        ratio = err_coarse / err_fine
        assert 8.0 < ratio < 32.0

    def test_linearized_single_mode_matches_exponential(self):
        # Build the linearized RHS matrix at u = 0 (A u = rhs(u) + u^2 by
        # the quadratic reaction), diagonalize it numerically, and check one
        # RK4 step against exp(lambda dt) on an eigenvector: the one-step
        # defect of classical RK4 is the O(z^5) remainder of the quartic
        # Taylor polynomial of exp(z).
        config = EvolutionConfig(
            alpha=1.37, gamma=-0.63, n=16, l_scale=5.0, l_lim=10, dt=0.05,
            t_end=1.0,
        )
        system = FisherSystem.from_config(config)
        n = config.n
        a_matrix = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            a_matrix[:, j] = system.rhs(e) + e * e
        eigvals, eigvecs = np.linalg.eig(a_matrix)
        idx = int(np.argmax(np.abs(eigvals)))
        lam, vec = eigvals[idx], eigvecs[:, idx]

        def rk4_linear(state, dt):
            k1 = a_matrix @ state
            k2 = a_matrix @ (state + 0.5 * dt * k1)
            k3 = a_matrix @ (state + 0.5 * dt * k2)
            k4 = a_matrix @ (state + dt * k3)
            return state + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        peak = np.max(np.abs(vec))
        for dt in (0.02, 0.01):
            z = lam * dt
            stepped = rk4_linear(vec, dt)
            exact = np.exp(z) * vec
            defect = np.max(np.abs(stepped - exact))
            remainder = abs(
                np.exp(z) - (1.0 + z + z ** 2 / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0)
            )
            assert defect == pytest.approx(peak * remainder, rel=1e-6, abs=1e-18)
            assert defect < abs(z) ** 5

    def test_snapshots_and_times(self, small_system):
        config, system = small_system
        result = rk4_evolve(config, system=system)
        assert result.trace.times[0] == 0.0
        assert result.trace.times[-1] == pytest.approx(1.0)
        assert len(result.snapshots) == len(result.trace.times)

    @pytest.mark.parametrize("t_end, dt, stride", [
        (1.0, 0.05, 5), (1.0, 0.05, 3), (1.0, 0.05, 1), (1.0, 0.05, 40),
        (0.0, 0.05, 10), (22.0, 0.05, 10), (12.0, 0.05, 7), (0.3, 0.1, 2),
        (12.0, 0.05, 10),
    ])
    def test_sample_schedule(self, t_end, dt, stride):
        config = EvolutionConfig(alpha=1.37, gamma=0.0, n=8, l_scale=1.0,
                                 dt=dt, t_end=t_end, snapshot_stride=stride)
        steps = round(t_end / dt)
        listed = [i for i in range(steps + 1) if i % stride == 0 or i == steps]
        sampled = evolve.sampled_steps(config)
        assert sampled.tolist() == listed
        assert (sampled * dt).tobytes() == (np.asarray(listed) * dt).tobytes()

    @pytest.mark.parametrize("steps, stride", [
        (0, 1), (1, 1), (5, 7), (9, 3), (20, 10), (20, 3),
    ])
    def test_last_step_sampled_off_the_stride(self, small_system, monkeypatch,
                                              steps, stride):
        config, system = small_system
        config = EvolutionConfig(**{**config.__dict__, "t_end": steps * config.dt,
                                    "snapshot_stride": stride})
        # March by hand, keeping the state after step 0, every stride-th
        # step and the last.
        u = initial_condition(system.grid.x_nodes, config.alpha)
        expected = [u]
        for i in range(1, steps + 1):
            u = rk4_step(system, u, config.dt)
            if i % stride == 0 or i == steps:
                expected.append(u)
        marched = []

        def counted(*args):
            marched.append(args)
            return rk4_step(*args)

        monkeypatch.setattr(evolve, "rk4_step", counted)
        result = rk4_evolve(config, system=system)
        trace = result.trace
        assert len(marched) == steps
        assert len(result.snapshots) == len(trace.times) == len(trace.x_half)
        assert len(result.snapshots) == len(expected)
        for got, want in zip(result.snapshots, expected):
            assert np.array_equal(got, want)
        assert trace.times[0] == 0.0
        assert trace.times[-1] == steps * config.dt

    @pytest.mark.parametrize("dt, t_end", [(0.3, 1.0), (0.05, 0.02), (1e-10, 1e300)])
    def test_t_end_off_the_step_grid_rejected(self, dt, t_end):
        # Rounding t_end / dt would cut these runs short: 3 steps to t = 0.9
        # for t_end = 1, no step for t_end = 0.02.
        with pytest.raises(ValueError, match="whole number"):
            EvolutionConfig(alpha=1.37, gamma=0.0, n=8, l_scale=1.0, dt=dt,
                            t_end=t_end)

    def test_wall_budget(self, small_system):
        config, system = small_system
        with pytest.raises(BudgetError, match="at t = 0.050"):
            rk4_evolve(dataclasses.replace(config, wall_budget=1e-9), system=system)

    @pytest.mark.parametrize("budget", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_wall_budget_rejected_before_any_step(self, small_system,
                                                       monkeypatch, budget):
        config, system = small_system

        def no_step(*args):
            raise AssertionError("marched with an invalid wall budget")

        monkeypatch.setattr(evolve, "rk4_step", no_step)
        with pytest.raises(ValueError, match="wall budget"):
            rk4_evolve(dataclasses.replace(config, wall_budget=budget), system=system)

    def test_divergence_reported_at_the_step(self, small_system, monkeypatch):
        # Step 2 puts inf at node 10; the march names t, the node and its x
        # before that step is sampled (stride 1 samples every step).
        config, system = small_system
        config = dataclasses.replace(config, snapshot_stride=1)
        steps, tracked = [], []

        def poisoned(*args):
            u = rk4_step(*args)
            steps.append(u)
            if len(steps) == 2:
                u[10] = np.inf
            return u

        def counted(u, grid):
            tracked.append(u)
            return front_position(u, grid)

        monkeypatch.setattr(evolve, "rk4_step", poisoned)
        monkeypatch.setattr(evolve, "front_position", counted)
        x = system.grid.x_nodes[10]
        with pytest.raises(DivergenceError) as info:
            rk4_evolve(config, system=system)
        assert str(info.value) == (
            f"non-finite state at t = {2 * config.dt:.6g}, node 10 (x = {x:.6g})"
        )
        assert len(steps) == 2 and len(tracked) == 2  # steps 0 and 1 only

    def test_divergence_on_absurd_dt(self):
        # Three steps, sampled at steps 0 and 3 only: the state after step 1
        # has no front to track, and step 2 diverges.
        config = EvolutionConfig(
            alpha=1.37, gamma=-0.63, n=64, l_scale=2.0, l_lim=10, dt=1e4,
            t_end=3e4, snapshot_stride=3,
        )
        with pytest.raises(DivergenceError):
            rk4_evolve(config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvolutionConfig(alpha=1.37, gamma=0.9, n=8, l_scale=1.0)
        with pytest.raises(ValueError):
            EvolutionConfig(alpha=1.37, gamma=0.0, n=8, l_scale=1.0, dt=-0.1)

    @pytest.mark.parametrize("field, value", [
        ("n", 32.0), ("l_lim", 5.0), ("snapshot_stride", 1.5),
        ("snapshot_stride", 2.0),
    ])
    def test_integer_fields_must_be_integers(self, field, value):
        # A stride of 1.5 used to give 5 front positions for 9 sample times.
        kwargs = dict(alpha=1.37, gamma=0.0, n=32, l_scale=10.0, l_lim=5,
                      dt=0.05, t_end=0.5)
        kwargs[field] = value
        with pytest.raises(ValueError, match="must be an integer"):
            EvolutionConfig(**kwargs)

    def test_numpy_integer_stride_passes(self):
        config = EvolutionConfig(alpha=1.37, gamma=0.0, n=32, l_scale=10.0,
                                 dt=0.05, t_end=0.5, snapshot_stride=np.int64(4))
        sampled = evolve.sampled_steps(config)
        assert sampled[-1] == 10 and len(sampled) == 4

    @pytest.mark.parametrize("l_lim", [0, -3])
    def test_l_lim_checked_by_the_build_rule(self, l_lim):
        with pytest.raises(ValueError, match="l_lim >= 1"):
            EvolutionConfig(alpha=1.37, gamma=0.0, n=16, l_scale=10.0, l_lim=l_lim)

    @pytest.mark.parametrize("field, value", [
        ("gamma", math.nan), ("dt", math.nan), ("dt", math.inf),
        ("t_end", math.nan), ("t_end", math.inf), ("t_end", -1.0),
    ])
    def test_non_finite_config_rejected(self, field, value):
        kwargs = dict(alpha=1.37, gamma=0.0, n=8, l_scale=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError):
            EvolutionConfig(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("alpha", 1.2), ("gamma", 0.3), ("n", 32), ("l_scale", 5.0),
        ("l_lim", 10),
    ])
    def test_system_of_another_config_rejected(self, small_system, monkeypatch,
                                               field, value):
        config, system = small_system
        other = EvolutionConfig(**{**config.__dict__, field: value})

        def no_step(*args):
            raise AssertionError("marched a system of another configuration")

        monkeypatch.setattr(evolve, "rk4_step", no_step)
        with pytest.raises(ValueError, match="system built for"):
            rk4_evolve(other, system=system)

    @pytest.mark.parametrize("n, l_scale", [
        (1, 1.0), (0, 1.0), (8, 0.0), (8, -1.0), (8, math.nan), (16, 1e-20),
        (16, 1e-15),
    ], ids=["n1", "n0", "L0", "L-neg", "L-nan", "L-no-aux-jump",
            "L-front-outside-nodes"])
    def test_config_rejected_before_any_build(self, monkeypatch, n, l_scale):
        def no_build(*args, **kwargs):
            raise AssertionError("base matrix built for an invalid config")

        monkeypatch.setattr(evolve, "build_base_matrix", no_build)
        with pytest.raises(ValueError):
            FisherSystem.from_config(
                EvolutionConfig(alpha=1.37, gamma=0.0, n=n, l_scale=l_scale)
            )


class TestFrontPosition:
    def test_initial_profile_against_root_find(self):
        # Independent oracle: solve the closed-form profile equation for the
        # 0.5 level directly.
        alpha = 1.37
        root = brentq(
            lambda x: initial_condition(x, alpha) - 0.5, -5.0, 5.0, xtol=1e-14
        )
        grid = make_grid(2048, 300.0)
        got = front_position(initial_condition(grid.x_nodes, alpha), grid)
        assert got == pytest.approx(root, abs=5e-4)
        assert root == pytest.approx(0.2837124499494512, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.95])
    def test_config_accepts_exactly_the_grids_that_track_step_0(self, alpha):
        # EvolutionConfig's initial-front rule reads only the two outer
        # nodes; the tracker searches every adjacent pair.
        refused = 0
        for n in (16, 17, 64):
            for l_scale in np.logspace(-16, 2, 37):
                grid = make_grid(n, l_scale)
                try:
                    front_position(initial_condition(grid.x_nodes, alpha), grid)
                    tracked = True
                except TrackingError:
                    tracked = False
                try:
                    EvolutionConfig(alpha=alpha, gamma=0.0, n=n, l_scale=l_scale)
                except ValueError as exc:
                    assert not tracked and "does not cross 1/2" in str(exc)
                    refused += 1
                else:
                    assert tracked, (n, l_scale)
        assert refused > 0

    def test_single_mode_analytic_crossing(self):
        # u = v + 0.4 Re lambda_1(x/L), v the Fisher auxiliary: u - v is a
        # single mode pair, so the interpolant is u itself, and its only
        # crossing of 1/2 is the root of the closed form.
        l_scale = 3.0
        grid = make_grid(256, l_scale)

        def u(x):
            return FISHER_AUX.aux_values(x) + 0.4 * np.real(lambda_k(x / l_scale, 1))

        root = brentq(lambda x: u(x) - 0.5, -10.0, 0.0, xtol=1e-15)
        got = front_position(u(grid.x_nodes), grid)
        assert got == pytest.approx(root, abs=1e-10)

    def test_exact_node_level(self):
        # The profile shifted to cross 1/2 exactly at node j.
        grid = make_grid(128, 2.0)
        u = initial_condition(grid.x_nodes, 1.37)
        j = 40
        u = (u - u[j]) + 0.5
        assert u[j] == 0.5
        assert front_position(u, grid) == grid.x_nodes[j]

    def test_no_bracket(self):
        grid = make_grid(32, 1.0)
        with pytest.raises(TrackingError):
            front_position(np.full(32, 0.7), grid)

    # Relative error of the tracker on the paper's grid (N = 16384, L = 2100)
    # with the front at fractional node p, i.e. at x_h = L cot(pi (2p+1)/(2N)),
    # for a profile with an x^-alpha tail (alpha = 1.37) and one with a 1/x
    # tail.  Each bound is twice the error measured when the table was made.
    @pytest.mark.parametrize("p, alpha_tail_bound, arctan_tail_bound", [
        (1.5, 3.40e-2, 2.08e-2),
        (3.7, 4.98e-3, 1.748e-4),
        (8.6, 8.60e-4, 9.30e-8),
        (16.4, 1.922e-4, 3.08e-10),
        (64.3, 6.50e-6, 1.004e-9),
    ])
    def test_error_by_node_band(self, p, alpha_tail_bound, arctan_tail_bound):
        n, l_scale, alpha = 16384, 2100.0, 1.37
        grid = make_grid(n, l_scale)
        x = grid.x_nodes
        x_h = l_scale / math.tan(math.pi * (2.0 * p + 1.0) / (2.0 * n))
        # (sqrt(x^2 + 1) + x) / 2 grows like x on the right and decays like
        # 1/(4|x|) on the left; X is its value at x_h.
        big_x = (x_h + math.sqrt(x_h * x_h + 1.0)) / 2.0
        alpha_tail = 1.0 / (1.0 + ((np.sqrt(x * x + 1.0) + x) / (2.0 * big_x)) ** alpha)
        arctan_tail = 0.5 - np.arctan((x - x_h) / x_h) / math.pi
        for u, bound in ((alpha_tail, alpha_tail_bound),
                         (arctan_tail, arctan_tail_bound)):
            assert abs(front_position(u, grid) - x_h) / x_h <= bound


class TestFitExponential:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 10.0, 21)
        trace = FrontTrace(times=t, x_half=np.exp(0.7 * t))
        fit = fit_exponential(trace, (0.0, 10.0))
        assert fit.slope == pytest.approx(0.7, abs=1e-12)
        assert fit.pearson_rho == pytest.approx(1.0, abs=1e-12)

    def test_perturbed_exponential(self):
        t = np.linspace(0.0, 10.0, 41)
        sigma = 0.73
        trace = FrontTrace(
            times=t, x_half=2.0 * np.exp(sigma * t) * (1.0 + 0.001 * np.sin(t))
        )
        fit = fit_exponential(trace, (0.0, 10.0))
        assert abs(fit.slope - sigma) < 2e-3

    def test_window_and_positivity_errors(self):
        t = np.linspace(0.0, 5.0, 6)
        trace = FrontTrace(times=t, x_half=np.exp(t))
        with pytest.raises(ValueError):
            fit_exponential(trace, (4.0, 4.5))
        bad = FrontTrace(times=t, x_half=np.array([1.0, 2.0, -1.0, 3.0, 4.0, 5.0]))
        with pytest.raises(ValueError):
            fit_exponential(bad, (0.0, 5.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_positions_must_be_finite_and_positive(self, bad):
        trace = FrontTrace(np.arange(5.0), np.array([1.0, 2.0, bad, 4.0, 5.0]))
        with pytest.raises(ValueError, match="finite and > 0"):
            fit_exponential(trace, (0.0, 4.0))


class TestFrontMonotonicity:
    def test_front_nondecreasing_after_transient(self):
        config = EvolutionConfig(
            alpha=1.37, gamma=-0.63, n=256, l_scale=50.0, l_lim=50, dt=0.05,
            t_end=4.0, snapshot_stride=10,
        )
        result = rk4_evolve(config)
        mask = result.trace.times >= 1.0
        assert np.all(np.diff(result.trace.x_half[mask]) >= 0.0)


class TestFoldMarch:
    def test_criterion_4_march_does_not_tell_fold_from_dense(self):
        # The criterion-4 march at N = 2048 through the build's fold and
        # through the same planes' dense products.  The bounds were fixed
        # before the test was first run, about ten times the differences an
        # earlier evaluation of the fold showed (7.2e-15 in the slope,
        # 4.8e-14 in the final state).
        config = EvolutionConfig(
            alpha=1.37, gamma=-0.63, n=2048, l_scale=300.0, l_lim=100, dt=0.05,
            t_end=12.0, snapshot_stride=10,
        )
        fold_system = FisherSystem.from_config(config)
        assert fold_system.matrix.fold is not None
        dense_system = FisherSystem(dataclasses.replace(fold_system.matrix, fold=None))
        fold_run, dense_run = (rk4_evolve(config, s) for s in (fold_system, dense_system))
        fold_fit, dense_fit = (
            fit_exponential(r.trace, (8.0, 11.5)) for r in (fold_run, dense_run)
        )
        assert abs(fold_fit.slope - dense_fit.slope) <= 1e-13
        assert abs(fold_fit.pearson_rho - dense_fit.pearson_rho) <= 1e-13
        state_gap = np.max(np.abs(fold_run.snapshots[-1] - dense_run.snapshots[-1]))
        assert state_gap <= 5e-13
