"""Time integration of the fractional Fisher equation u_t = D u + u(1 - u)
with skewed fractional diffusion, plus front tracking and front-speed
regression.

The state is the real nodal vector u.  Each right-hand side evaluation
subtracts the fixed auxiliary v(x) = 1/2 - arctan(x)/pi so the mapped
remainder is periodic, applies the operator matrix to its coefficients and
adds the closed-form operator of v back.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .basis import SpectralGrid, analyze, make_grid, synthesize
from .closedform import AuxDecomposition, OperatorKind
from .errors import BudgetError, DivergenceError, TrackingError
from .opmatrix import (
    DEFAULT_L_LIM,
    OperatorMatrix,
    apply as matrix_apply,
    build_base_matrix,
    check_integer,
    check_operator,
    scale_to_operator,
)
from .specfun import check_order

# 1/2 - arctan(x)/pi
FISHER_AUX = AuxDecomposition(scale=-1.0 / math.pi, offset=0.5)

# Width in s at which the front bisection stops.
_FRONT_S_TOL = 1e-14


@dataclass(frozen=True)
class EvolutionConfig:
    alpha: float
    gamma: float
    n: int
    l_scale: float
    l_lim: int = DEFAULT_L_LIM
    dt: float = 0.05
    t_end: float = 22.0
    snapshot_stride: int = 10
    wall_budget: float | None = None  # seconds; None runs to t_end

    def __post_init__(self):
        check_operator(OperatorKind.RIESZ_FELLER, self.alpha, self.gamma,
                       self.n, self.l_scale, self.l_lim)
        grid = make_grid(self.n, self.l_scale)
        _auxiliary(grid)
        # Step 0 tracks the front, so the initial profile must meet 1/2
        # between the outer nodes.
        ends = initial_condition(grid.x_nodes[[0, -1]], self.alpha) - 0.5
        if np.sign(ends[0]) == np.sign(ends[1]) != 0.0:
            raise ValueError(f"initial profile does not cross 1/2 between the "
                             f"outer nodes of N = {self.n}, L = {self.l_scale}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"need a finite dt > 0, got {self.dt}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ValueError(f"need a finite t_end >= 0, got {self.t_end}")
        # A whole number of steps up to roundoff: 12 / 0.05 = 239.99999999999997.
        steps = self.t_end / self.dt
        if not (math.isfinite(steps)
                and math.isclose(steps, round(steps), rel_tol=1e-9)):
            raise ValueError(f"t_end = {self.t_end} is not a whole number "
                             f"of dt = {self.dt} steps")
        check_integer("snapshot_stride", self.snapshot_stride)
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        if self.wall_budget is not None and not 0.0 < self.wall_budget < math.inf:
            raise ValueError(f"wall budget must be finite and > 0 s, "
                             f"got {self.wall_budget}")


def _auxiliary(grid: SpectralGrid) -> tuple[np.ndarray, float]:
    # FISHER_AUX at the nodes and its jump between the extreme nodes (-> 1 as
    # L or N grows), which normalizes the state's; at a tiny L there is none.
    v_nodes = FISHER_AUX.aux_values(grid.x_nodes)
    v_jump = float(v_nodes[-1] - v_nodes[0])
    if v_jump == 0.0:
        raise ValueError(f"auxiliary profile has no jump between the extreme "
                         f"nodes of N = {grid.n}, L = {grid.l_scale}")
    return v_nodes, v_jump


@dataclass(frozen=True)
class FrontTrace:
    times: np.ndarray
    x_half: np.ndarray


@dataclass(frozen=True)
class RegressionResult:
    slope: float
    intercept: float
    pearson_rho: float


@dataclass(frozen=True)
class EvolutionResult:
    snapshots: list
    trace: FrontTrace


def initial_condition(x, alpha: float):
    """Slowly decaying front profile (1/2 - x / (2 sqrt(1 + x^2)))^(alpha/2),
    tending to 1 on the left and 0 on the right."""
    check_order(alpha)
    # The fraction is exactly +-1/2 past |x| = 2^27; the clip only keeps x*x finite.
    x = np.clip(np.asarray(x, dtype=np.float64), -2.0**64, 2.0**64)
    return (0.5 - x / (2.0 * np.sqrt(1.0 + x * x))) ** (alpha / 2.0)


class FisherSystem:
    """Precomputed machinery for one Riesz-Feller matrix, on its N and L nodes.

    The auxiliary profile is rescaled every evaluation by the sampled
    far-field jump u(x_last) - u(x_first) of the state, so the subtracted
    function always matches the state's own limits: front states reduce to
    the plain u - v split (their jump is 1 up to the tail decay), while
    states with equal limits, the equilibria in particular, pass through
    with a zero auxiliary and are fixed points of the discrete system
    exactly.
    """

    def __init__(self, matrix: OperatorMatrix):
        if matrix.kind is not OperatorKind.RIESZ_FELLER:
            raise ValueError("evolution expects a Riesz-Feller matrix")
        self.matrix = matrix
        self.grid = grid = make_grid(matrix.n, matrix.l_scale)
        self.v_nodes, self.v_jump = _auxiliary(grid)
        self.dv_nodes = FISHER_AUX.aux_operator(
            matrix.kind, matrix.alpha, matrix.gamma, grid.x_nodes
        )

    @classmethod
    def from_config(cls, config: EvolutionConfig) -> "FisherSystem":
        base = build_base_matrix(config.alpha, config.n, config.l_lim)
        matrix = scale_to_operator(
            base, OperatorKind.RIESZ_FELLER, config.gamma, config.l_scale
        )
        return cls(matrix)

    def rhs(self, u: np.ndarray) -> np.ndarray:
        jump = (u[-1] - u[0]) / self.v_jump
        w = u - jump * self.v_nodes
        diffusion = matrix_apply(self.matrix, analyze(w))
        return diffusion + jump * self.dv_nodes + u * (1.0 - u)


def rk4_step(system: FisherSystem, u: np.ndarray, dt: float) -> np.ndarray:
    k1 = system.rhs(u)
    k2 = system.rhs(u + 0.5 * dt * k1)
    k3 = system.rhs(u + 0.5 * dt * k2)
    k4 = system.rhs(u + dt * k3)
    return u + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def front_position(u_nodes, grid: SpectralGrid) -> float:
    """x where the interpolated solution crosses 1/2, taking the rightmost
    crossing.  The interpolant is the spectral synthesis of u - v plus the
    closed-form v = FISHER_AUX, evaluated through bisection in s."""
    u = np.asarray(u_nodes, dtype=np.float64)
    d = u - 0.5
    exact = np.flatnonzero(d == 0.0)
    crossings = np.flatnonzero(d[:-1] * d[1:] < 0.0)
    if exact.size and (not crossings.size or exact[0] <= crossings[0]):
        return float(grid.x_nodes[exact[0]])
    if not crossings.size:
        raise TrackingError("no crossing of level 0.5 inside the node range")
    j = int(crossings[0])  # x decreases with j, so the first bracket is rightmost
    coeffs = analyze(u - FISHER_AUX.aux_values(grid.x_nodes))

    def interp(s):
        x = grid.l_scale / math.tan(s)
        return synthesize(coeffs, s) + FISHER_AUX.aux_values(x) - 0.5

    lo, hi = grid.s_nodes[j], grid.s_nodes[j + 1]
    f_lo = interp(lo)
    if f_lo == 0.0:
        return float(grid.x_nodes[j])
    while hi - lo > _FRONT_S_TOL:
        mid = 0.5 * (lo + hi)
        f_mid = interp(mid)
        if f_mid == 0.0:
            lo = hi = mid
            break
        if (f_lo > 0.0) == (f_mid > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    s_star = 0.5 * (lo + hi)
    return grid.l_scale / math.tan(s_star)


def sampled_steps(config: EvolutionConfig) -> np.ndarray:
    """Step indices of the samples rk4_evolve records: 0, every
    snapshot_stride-th step and the last, t_end / dt.  Times dt, they are the
    sample times."""
    steps = round(config.t_end / config.dt)
    return np.append(np.arange(0, steps, config.snapshot_stride), steps)


def rk4_evolve(
    config: EvolutionConfig, system: FisherSystem | None = None
) -> EvolutionResult:
    """Classical fourth-order Runge-Kutta march of the Fisher problem,
    recording a snapshot and the front position after sampled_steps(config).
    A given system must have been built for the config's alpha, gamma, N, L
    and l_lim.  Raises DivergenceError at the first step whose state is not
    all finite, and BudgetError past config.wall_budget seconds."""
    if system is None:
        system = FisherSystem.from_config(config)
    else:
        m = system.matrix
        built = (m.alpha, m.gamma, m.n, m.l_scale, m.l_lim)
        wanted = (config.alpha, config.gamma, config.n, config.l_scale, config.l_lim)
        if built != wanted:
            raise ValueError(
                f"system built for (alpha, gamma, N, L, l_lim) = {built}, not {wanted}"
            )
    grid = system.grid
    u = initial_condition(grid.x_nodes, config.alpha)
    sampled = sampled_steps(config)
    wall_budget = config.wall_budget
    start = time.monotonic()
    snapshots = [u.copy()]
    fronts = [front_position(u, grid)]
    # A non-finite stage value reaches the new state (inf and nan survive the
    # RK4 sums), so the per-step check below is the report, not numpy's.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, sampled[-1] + 1):
            u = rk4_step(system, u, config.dt)
            if not np.all(np.isfinite(u)):
                bad = int(np.flatnonzero(~np.isfinite(u))[0])
                raise DivergenceError(
                    f"non-finite state at t = {i * config.dt:.6g}, node {bad} "
                    f"(x = {grid.x_nodes[bad]:.6g})"
                )
            if i == sampled[len(fronts)]:  # the next sampled step
                snapshots.append(u.copy())
                fronts.append(front_position(u, grid))
            if wall_budget is not None and time.monotonic() - start > wall_budget:
                raise BudgetError(f"evolution exceeded wall budget of "
                                  f"{wall_budget} s at t = {i * config.dt:.3f}")
    trace = FrontTrace(times=sampled * config.dt, x_half=np.asarray(fronts))
    return EvolutionResult(snapshots=snapshots, trace=trace)


def fit_exponential(trace: FrontTrace, t_window) -> RegressionResult:
    """Least-squares slope of ln x_half against t inside the window, with the
    Pearson correlation of the fitted pairs."""
    mask = fit_mask(trace.times, t_window)
    x = trace.x_half[mask]
    if not np.all(np.isfinite(x) & (x > 0.0)):
        raise ValueError("front positions must be finite and > 0 inside the window")
    t = trace.times[mask]
    y = np.log(x)
    slope, intercept = np.polyfit(t, y, 1)
    rho = float(np.corrcoef(t, y)[0, 1])
    return RegressionResult(slope=float(slope), intercept=float(intercept),
                            pearson_rho=rho)


def fit_mask(times: np.ndarray, t_window) -> np.ndarray:
    """Samples inside the closed window [t0, t1]; at least 3 are needed."""
    t0, t1 = t_window
    mask = (times >= t0) & (times <= t1)
    if np.count_nonzero(mask) < 3:
        raise ValueError("need at least 3 front samples inside the window")
    return mask
