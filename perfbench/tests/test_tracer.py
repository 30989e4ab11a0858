"""Tests for the benchmark's span tracer, at sizes that run in seconds.

    python3 -m pytest perfbench/tests -q -s

The -s flag shows the reported tracing overhead: the wrapper's own cost per
call, and traced against untraced ops_per_s on a Fisher march and on an
operator battery.
"""

import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from rfspectral import evolve, operators, opmatrix  # noqa: E402
from rfspectral.closedform import OperatorKind  # noqa: E402

import run  # noqa: E402
from tracer import (  # noqa: E402
    PER_LAYER, RUSAGE_SPANS, SPANS, Tracer, bindings, resolve, wrapper_cost_ns,
)

SMALL = evolve.EvolutionConfig(
    alpha=1.37, gamma=-0.63, n=512, l_scale=60.0, l_lim=20, dt=0.05,
    t_end=1.0, snapshot_stride=5,
)
SMALL_STEPS = 20
SMALL_FRONTS = 5  # t = 0 and every 5th step


def _march(system):
    t0 = time.perf_counter()
    evolve.rk4_evolve(SMALL, system=system)
    return time.perf_counter() - t0


def test_fisher_step_counts_are_exact():
    system = evolve.FisherSystem.from_config(SMALL)
    tracer = Tracer()
    with tracer.installed():
        _march(system)
    calls = {name: stats.calls for name, stats in tracer.stats.items()}
    assert calls["evolve.rk4_step"] == SMALL_STEPS
    assert calls["evolve.rhs"] == 4 * SMALL_STEPS
    assert calls["opmatrix.apply"] == 4 * SMALL_STEPS
    assert calls["evolve.front_position"] == SMALL_FRONTS
    assert calls["basis.analyze"] == 4 * SMALL_STEPS + SMALL_FRONTS
    assert calls["opmatrix.build_base_matrix"] == 0
    rk4 = tracer.stats["evolve.rk4_step"]
    assert 0.0 < rk4.self_s < rk4.busy_s
    n2 = SMALL.n * SMALL.n
    apply_counters = tracer.stats["opmatrix.apply"].counters
    assert apply_counters["bytes_computed"] == 16 * n2 * 4 * SMALL_STEPS
    assert apply_counters["flops_computed"] == 8 * n2 * 4 * SMALL_STEPS


def test_battery_counts_are_exact():
    n = 64
    base = opmatrix.build_base_matrix(0.62, n, 10)
    tracer = Tracer()
    with tracer.installed():
        for func in ("erf", "arctan", "log1psq"):
            operators.apply_reference(
                func, OperatorKind.RIESZ_FELLER, 0.62, 0.3, n, 1.5, 10, base=base
            )
        with tracer.paused():
            operators.apply_reference(
                "erf", OperatorKind.FRAC_LAPLACIAN, 0.62, 0.0, n, 1.5, 10, base=base
            )
    calls = {name: stats.calls for name, stats in tracer.stats.items()}
    assert calls["opmatrix.scale_to_operator"] == 3
    assert calls["operators.apply_with_aux"] == 3
    assert calls["opmatrix.apply"] == 3
    # One exact operator per op, plus the auxiliary's for erf and arctan.
    assert calls["closedform.reference_operator"] == 5
    assert calls["specfun.kummer_1f1"] == 2 * n
    assert tracer.stats["opmatrix.scale_to_operator"].counters["bytes_computed"] == 3 * 64 * n * n


def test_round_trip_bytes_are_measured():
    import io

    base = opmatrix.build_base_matrix(0.62, 16, 5)
    tracer = Tracer()
    with tracer.installed():
        buffer = io.BytesIO()
        opmatrix.serialize(base, buffer)
        buffer.seek(0)
        opmatrix.deserialize(buffer)
    size = len(buffer.getvalue())
    assert size == 4 + 36 + 16 * 16 * 16
    assert tracer.stats["opmatrix.serialize"].counters["bytes"] == size
    assert tracer.stats["opmatrix.deserialize"].counters["bytes"] == size


def test_install_patches_every_binding_and_uninstall_restores_them():
    before = {}
    for name, (module, path, _) in SPANS.items():
        owner, attr = resolve(module, path)
        before[name] = [(ns, b, getattr(ns, b)) for ns, b in bindings(owner, attr)]
    found = {(getattr(ns, "__name__", None), b) for ns, b, _ in before["opmatrix.apply"]}
    assert {("rfspectral.evolve", "matrix_apply"), ("rfspectral.operators", "matrix_apply"),
            ("rfspectral.opmatrix", "apply"), ("rfspectral", "apply")} <= found
    found = {getattr(ns, "__name__", None) for ns, _, _ in before["basis.analyze"]}
    assert {"rfspectral.evolve", "rfspectral.operators", "rfspectral.basis"} <= found
    found = {getattr(ns, "__name__", None) for ns, _, _ in before["specfun.kummer_1f1"]}
    assert "rfspectral.closedform" in found

    tracer = Tracer()
    with tracer.installed():
        for bound in before.values():
            for ns, b, original in bound:
                assert getattr(ns, b) is not original, (ns, b)
    for bound in before.values():
        for ns, b, original in bound:
            assert getattr(ns, b) is original, (ns, b)
    assert evolve.FisherSystem.__dict__["rhs"] is before["evolve.rhs"][0][2]


def test_getrusage_only_on_spans_that_report_it():
    reported = {span for span, field, _ in PER_LAYER if field in ("minflt", "sys_ms")}
    assert reported == RUSAGE_SPANS
    base = opmatrix.build_base_matrix(0.62, 32, 5)
    tracer = Tracer()
    with tracer.installed():
        operators.apply_reference(
            "erf", OperatorKind.FRAC_LAPLACIAN, 0.62, 0.0, 32, 1.5, 5, base=base
        )
    assert tracer.stats["specfun.kummer_1f1"].calls == 2 * 32
    assert tracer.stats["specfun.kummer_1f1"].minflt == 0
    assert tracer.stats["specfun.kummer_1f1"].sys_s == 0.0


def test_wrapper_cost_per_call_is_reported():
    cost = wrapper_cost_ns()
    # Part of this cost lands in the caller's self time: kummer_1f1 runs
    # 2 N times per erf op, inside closedform.reference_operator.
    print(
        f"\nwrapper cost per call: {cost['lean']:.0f} ns, "
        f"{cost['getrusage']:.0f} ns with getrusage; "
        f"{2 * 1024 * cost['lean'] / 1e6:.2f} ms per N=1024 erf op"
    )
    assert cost["lean"] > 0.0 and cost["getrusage"] > cost["lean"]


def _overhead(label, run_once, ops, repeats=3):
    run_once()  # warm-up
    untraced, traced = [], []
    tracer = Tracer()
    for _ in range(repeats):
        untraced.append(run_once())
        with tracer.installed():
            traced.append(run_once())
    plain = ops / statistics.median(untraced)
    with_spans = ops / statistics.median(traced)
    print(
        f"\ntracing overhead, {label}: untraced {plain:.1f} ops/s, "
        f"traced {with_spans:.1f} ops/s, ratio {with_spans / plain:.3f}"
    )
    assert plain > 0.0 and with_spans > 0.0
    return tracer


def test_tracing_overhead_is_reported_for_a_march():
    system = evolve.FisherSystem.from_config(SMALL)
    tracer = _overhead(f"Fisher march at N={SMALL.n}", lambda: _march(system), SMALL_STEPS)
    assert tracer.stats["evolve.rk4_step"].calls == 3 * SMALL_STEPS


def test_tracing_overhead_is_reported_for_a_battery():
    n = 512
    base = opmatrix.build_base_matrix(1.37, n, 20)
    ops = [("erf", OperatorKind.RIESZ_FELLER, 0.4, 2.0), ("erf", OperatorKind.FRAC_LAPLACIAN, 0.0, 3.0),
           ("arctan", OperatorKind.DX_WEYL_RIGHT, 0.0, 5.0), ("log1psq", OperatorKind.RIESZ_FELLER, -0.3, 30.0)]

    def battery():
        t0 = time.perf_counter()
        for func, kind, gamma, l_scale in ops:
            operators.apply_reference(func, kind, 1.37, gamma, n, l_scale, 20, base=base)
        return time.perf_counter() - t0

    tracer = _overhead(f"operator battery at N={n}", battery, len(ops))
    assert tracer.stats["opmatrix.scale_to_operator"].calls == 3 * len(ops)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (f"{span}.{field}", unit) for span, field, unit in PER_LAYER
    ]
