"""One benchmark workload in one fresh interpreter.

Started by run.py, which measures set-up time from the moment it launches
this process.  BLAS is pinned to one thread before numpy is imported, every
build uses jobs=1, and the op order is fixed by the seed.  After set-up the
process runs whole batches of ops for about --seconds (at least one batch).
A batch returns its ops in windows: short runs of consecutive ops, each
with its op latencies, its wall time (the ops plus the work between them
that the workload does per op, such as the Fisher front tracking) and the
HostProbe time measured around it.  The last line of standard output is one
JSON object with the windows, the environment and, with --trace 1, the
per-layer span statistics.

Usage: python3 perfbench/workloads.py --workload NAME --seed N --seconds S
       --trace 0|1 [--part I]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import rfspectral  # noqa: E402
from rfspectral import evolve, operators, opmatrix  # noqa: E402
from rfspectral.closedform import OperatorKind  # noqa: E402

from tracer import SPANS, Tracer, per_layer_metrics, wrapper_cost_ns  # noqa: E402

JOBS = 1
L_LIM = 100


class FisherFront:
    """Acceptance criterion 4 at N = 2048: one op is one RK4 step, one batch
    one full march from t = 0 to 12, gated on the fitted front speed.  The
    configuration is the criterion's own, so the seed changes nothing here."""

    config = evolve.EvolutionConfig(
        alpha=1.37, gamma=-0.63, n=2048, l_scale=300.0, l_lim=L_LIM,
        dt=0.05, t_end=12.0, snapshot_stride=10,
    )
    # The RHS is one N x N matvec plus Python-level FFT and RK4 glue.  The
    # windows are short, and a stall between two probes skews a few of
    # them, so the metrics take the quickest quarter (see run.py).
    probe = ("matvec", "python")
    quiet_share = 0.25
    window = (8.0, 11.5)
    steps = 240
    snapshots = 25  # t = 0 plus every 10th of the 240 steps
    steps_per_window = 40  # six windows per march, four front fits in each

    def __init__(self, rng, tracer):
        self.marches = 0

    def setup(self):
        self.system = evolve.FisherSystem.from_config(self.config)

    def batch(self, probe):
        # The host probe runs before the march, after every 40th step but the
        # last, and after the march.  A window's wall time runs from the
        # probe at its start to the probe at its end, so it holds the front
        # tracking between its steps but no probe.
        k = self.steps_per_window
        latencies, marks, probes = [], [], [probe.measure()]
        timed = evolve.rk4_step

        def step(*args):
            t0 = time.perf_counter()
            result = timed(*args)
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            if len(latencies) % k == 0 and len(latencies) < self.steps:
                marks.append(t1)
                probes.append(probe.measure())
                marks.append(time.perf_counter())
            return result

        evolve.rk4_step = step
        try:
            marks.append(time.perf_counter())
            result = evolve.rk4_evolve(self.config, system=self.system)
            marks.append(time.perf_counter())
        finally:
            evolve.rk4_step = timed
        probes.append(probe.measure())
        self.marches += 1
        fit = evolve.fit_exponential(result.trace, self.window)
        ok = (
            len(latencies) == self.steps
            and abs(fit.slope - 1.0 / self.config.alpha) <= 5e-3
            and 1.0 - fit.pearson_rho <= 1e-4
        )
        return [
            ([(lat, ok) for lat in latencies[i * k:(i + 1) * k]],
             marks[2 * i + 1] - marks[2 * i], (probes[i] + probes[i + 1]) / 2)
            for i in range(len(probes) - 1)
        ]

    def expected_calls(self):
        steps = self.steps * self.marches
        fronts = self.snapshots * self.marches
        return {
            "opmatrix.build_base_matrix": 1,
            "opmatrix.scale_to_operator": 1,
            "specfun.ratio_table": 2,
            "closedform.reference_operator": 1,
            "evolve.rk4_step": steps,
            "evolve.rhs": 4 * steps,
            "opmatrix.apply": 4 * steps,
            "evolve.front_position": fronts,
            "basis.analyze": 4 * steps + fronts,
            "basis.synthesize": None,  # bisection length depends on the state
        }


class OperatorBattery:
    """Seeded (function, kind, gamma, L) ops through apply_reference on two
    prebuilt N = 1024 base matrices, gated on each function's tolerance."""

    probe = ("python",)  # bound by Python-level closed forms
    quiet_share = 1.0  # few windows, whose work differs with the draws
    n = 1024
    kinds = {
        0.62: (OperatorKind.WEYL_RIGHT, OperatorKind.WEYL_LEFT_NEG,
               OperatorKind.RIESZ_FELLER, OperatorKind.FRAC_LAPLACIAN),
        1.37: (OperatorKind.DX_WEYL_RIGHT, OperatorKind.DX_WEYL_LEFT_NEG,
               OperatorKind.RIESZ_FELLER, OperatorKind.FRAC_LAPLACIAN),
    }
    # Acceptance criteria 1 and 2; arctan is its own auxiliary, so exact.
    tolerance = {"erf": 1e-12, "log1psq": 1.2e-3, "arctan": 0.0}

    def __init__(self, rng, tracer):
        self.rng = rng
        self.done = {"erf": 0, "arctan": 0, "log1psq": 0}

    def setup(self):
        self.bases = {
            alpha: opmatrix.build_base_matrix(alpha, self.n, L_LIM, jobs=JOBS)
            for alpha in self.kinds
        }

    def _op(self, func, alpha, l_scale):
        kind = self.kinds[alpha][self.rng.integers(4)]
        gamma = 0.0
        if kind is OperatorKind.RIESZ_FELLER:
            bound = min(alpha, 2.0 - alpha)
            gamma = float(self.rng.uniform(-bound, bound))
        return func, kind, alpha, gamma, float(l_scale)

    def _block(self):
        # Twelve ops: 8 erf (4 per alpha, L stratified over [1, 4]), one
        # arctan per alpha (L log-uniform over [0.5, 50]) and two log1psq at
        # alpha 1.37 (L over [20, 60]).  Erf, at 2/3 of the mix, holds the
        # median; stratifying L keeps the mix alike from seed to seed.
        rng = self.rng
        ops = []
        for alpha in self.kinds:
            for stratum in range(4):
                ops.append(self._op("erf", alpha, 1.0 + 0.75 * (stratum + rng.random())))
            ops.append(self._op("arctan", alpha, 0.5 * 100.0 ** rng.random()))
        for stratum in range(2):
            ops.append(self._op("log1psq", 1.37, 20.0 + 20.0 * (stratum + rng.random())))
        return [ops[i] for i in rng.permutation(len(ops))]

    def batch(self, probe):
        # The whole block is one window.
        before = probe.measure()
        results = []
        busy = 0.0
        for func, kind, alpha, gamma, l_scale in self._block():
            t0 = time.perf_counter()
            report = operators.apply_reference(
                func, kind, alpha, gamma, self.n, l_scale, L_LIM,
                base=self.bases[alpha],
            )
            elapsed = time.perf_counter() - t0
            busy += elapsed
            self.done[func] += 1
            err = report.linf_error
            results.append((elapsed, bool(np.isfinite(err) and err <= self.tolerance[func])))
        return [(results, busy, (before + probe.measure()) / 2)]

    def expected_calls(self):
        ops = sum(self.done.values())
        return {
            "opmatrix.build_base_matrix": 2,
            "specfun.ratio_table": 4,
            "opmatrix.scale_to_operator": ops,
            "operators.apply_with_aux": ops,
            "opmatrix.apply": ops,
            "basis.analyze": ops,
            # The exact operator for every op, plus the auxiliary's for
            # erf and arctan.
            "closedform.reference_operator": ops + self.done["erf"] + self.done["arctan"],
            "specfun.kummer_1f1": 2 * self.n * self.done["erf"],
        }


class MatrixBuild:
    """One op builds an N = 1024 base matrix at a seeded alpha and round-trips
    it through RFM1 in memory; gated on a bit-exact round trip and on the
    erf fractional-Laplacian error of the restored matrix."""

    probe = ("matvec", "python")  # N^2 array passes and Python-level ratio tables
    quiet_share = 1.0  # few windows, whose work differs with alpha
    n = 1024
    gate_scale = 1.1
    gate_tolerance = 1e-11

    def __init__(self, rng, tracer):
        self.rng = rng
        self.tracer = tracer
        self.builds = 0

    def _draw(self):
        return float(self.rng.uniform(0.05, 1.95))

    def _build_round_trip(self, alpha):
        matrix = opmatrix.build_base_matrix(alpha, self.n, L_LIM, jobs=JOBS)
        buffer = io.BytesIO()
        opmatrix.serialize(matrix, buffer)
        buffer.seek(0)
        restored = opmatrix.deserialize(buffer)
        self.builds += 1
        return matrix, restored

    def setup(self):
        # The first build in a process pays the allocator's page-fault
        # churn; the timed builds follow a warmed allocator.
        self._build_round_trip(self._draw())

    def batch(self, probe):
        before = probe.measure()
        alpha = self._draw()
        t0 = time.perf_counter()
        matrix, restored = self._build_round_trip(alpha)
        elapsed = time.perf_counter() - t0
        same = (
            restored.entries.tobytes() == matrix.entries.tobytes()
            and (restored.kind, restored.alpha, restored.gamma, restored.l_scale,
                 restored.l_lim, restored.n)
            == (matrix.kind, matrix.alpha, matrix.gamma, matrix.l_scale,
                matrix.l_lim, matrix.n)
        )
        paused = self.tracer.paused() if self.tracer else nullcontext()
        with paused:
            report = operators.apply_reference(
                "erf", OperatorKind.FRAC_LAPLACIAN, alpha, 0.0, self.n,
                self.gate_scale, L_LIM, base=restored,
            )
        ok = same and report.linf_error <= self.gate_tolerance
        return [([(elapsed, ok)], elapsed, (before + probe.measure()) / 2)]

    def expected_calls(self):
        return {
            "opmatrix.build_base_matrix": self.builds,
            "specfun.ratio_table": 2 * self.builds,
            "opmatrix.serialize": self.builds,
            "opmatrix.deserialize": self.builds,
        }


class HostProbe:
    """How fast the host runs right now, from fixed kernels outside
    rfspectral: four complex matvecs over a 16 MiB matrix (memory traffic
    through the cache) and a pure-Python loop (the interpreter).

    On a shared machine the same code runs up to 1.5-2x slower for seconds
    to minutes while other tenants load it, with no steal time to show for
    it, and the two kernels slow down apart from each other.  Each workload
    names the kernels its op is bound by; run.py scales the times of each
    window by reference_ms over the probe time around it.  The kernels are
    the benchmark's own, so a change to the program leaves them as they are.

    REFERENCE_MS are the kernels' times on the 2-core Xeon host the benchmark
    was written on, in a quiet stretch."""

    REFERENCE_MS = {"matvec": 2.5, "python": 1.7}

    def __init__(self, kernels):
        self.kernels = kernels
        self.reference_ms = sum(self.REFERENCE_MS[k] for k in kernels)
        if "matvec" in kernels:
            self.matrix = np.full((1024, 1024), 0.5 + 0.25j)
            self.vector = np.full(1024, 1.0 - 0.5j)

    def measure(self) -> float:
        """Median of three timings of the kernels together, in ms."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            if "matvec" in self.kernels:
                for _ in range(4):
                    self.matrix @ self.vector
            if "python" in self.kernels:
                total = 0
                for i in range(50000):
                    total += i
            times.append(time.perf_counter() - t0)
        return sorted(times)[1] * 1e3


WORKLOADS = {
    "fisher_front": FisherFront,
    "operator_battery": OperatorBattery,
    "matrix_build": MatrixBuild,
}


def environment() -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "jobs": JOBS,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
    }


def count_mismatches(workload, tracer) -> dict:
    """Spans whose traced call count differs from the exact expected count;
    spans a workload does not name must not be called at all."""
    expected = workload.expected_calls()
    wrong = {}
    for name in SPANS:
        want = expected.get(name, 0)
        got = tracer.stats[name].calls
        if want is not None and got != want:
            wrong[name] = {"expected": want, "traced": got}
    return wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--part", type=int, default=0,
                        help="index of this process within the run; seeds its own stream")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload = WORKLOADS[args.workload](np.random.default_rng((args.seed, args.part)), tracer)
    workload.setup()
    first_op = time.monotonic()
    probe = HostProbe(workload.probe)
    # Whole batches only, so every op passes through its gate: start another
    # batch while one more of the last one's length fits in --seconds.
    windows, failed = [], 0
    start = time.perf_counter()
    elapsed = batch_s = 0.0
    while not windows or elapsed + batch_s <= args.seconds:
        t0 = time.perf_counter()
        batch = workload.batch(probe)
        now = time.perf_counter()
        batch_s, elapsed = now - t0, now - start
        for results, wall, probe_ms in batch:
            windows.append({
                "op_ms": [lat * 1e3 for lat, _ in results],
                "wall_ms": wall * 1e3,
                "probe_ms": probe_ms,
            })
            failed += sum(1 for _, ok in results if not ok)
    out = {
        "first_op_monotonic": first_op,
        "rfspectral": rfspectral.__file__,
        "windows": windows,
        "probe_kernels": workload.probe,
        "probe_reference_ms": probe.reference_ms,
        "quiet_share": workload.quiet_share,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if tracer:
        tracer.uninstall()
        out["count_mismatches"] = count_mismatches(workload, tracer)
        out["per_layer"] = per_layer_metrics(tracer)
        out["span_cost_ns"] = wrapper_cost_ns()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
