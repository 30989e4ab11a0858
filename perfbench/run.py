"""rfspectral benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from the
checkout's `src/`.  Each workload runs in fresh interpreters started by
perfbench/workloads.py.

With --trace 0 three interpreters run one after another.  Each sets the
workload up and then runs whole batches of ops for about a third of
--seconds, so the measured ops are spread over the whole run.  Every op is
timed and gated.  The ops come in windows of consecutive ops (40 RK4 steps,
one 12-op battery block, one build), and a fixed probe kernel outside the
program is timed before and after each window (workloads.HostProbe).

On a shared machine the same code runs up to 1.5-2x slower for seconds to
minutes, and two sets of runs a quarter of an hour apart can differ by that
much.  So every time metric is reported at a reference host speed: each
window's times are multiplied by the probe's reference time over its time
around that window, and each set-up time by the reference over the median
probe time of its interpreter.  A change to the program moves these metrics
in full; a slower host moves the probe with them.  The unscaled figures are
in the second-last output line.  The end-to-end metrics pool the three
interpreters:

- setup_s: median over the three of the time from launching the interpreter
  to its first timed op (imports and the first matrix build included),
  scaled;
- ops_per_s: ops per second of scaled window wall time;
- op_ms_p50: median scaled op latency;
- peak_rss_mb: median over the three of the peak resident memory
  (ru_maxrss) of the process, which holds the 16 MiB probe matrix too on
  fisher_front and matrix_build.

ops_per_s and op_ms_p50 take the windows of the workload's quiet_share: all
of them, except on fisher_front the quickest quarter by scaled throughput,
as `timeit` takes the best of its repeats.

With --trace 1 a single interpreter runs for --seconds with the span tracer
installed and the per-layer metrics are printed; the run fails its
correctness check if a span's call count differs from the exact count the
workload implies.

The second-last output line is a JSON object describing the run (thread
settings, CPU, library versions, the window counts, the probe times, and the
unscaled setup_s, ops_per_s and p50 and p90 latency; for a traced run too,
whose ops_per_s over the untraced one is the tracing overhead, with the time
a span adds to each call); the last
line is the result object.  Exits non-zero without a result if the checkout
has no package or a workload process fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fisher_front", "operator_battery", "matrix_build")
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}
PARTS = 3
# Time allowed per interpreter beyond twice its share of --seconds (the
# last batch may overrun it): start-up and set-up, about 10 s for the
# N = 2048 Fisher build on a slow stretch.
SETUP_ALLOWANCE_S = 35.0


def launch(args, part: int, seconds: float, deadline: float) -> tuple[dict, float]:
    """Run one workload interpreter; returns its report and its set-up time."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(args.trace), "--part", str(part),
    ]
    launched = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - launched),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(report["rfspectral"]).resolve().parent != ROOT / "src" / "rfspectral":
        raise RuntimeError(f"imported rfspectral from {report['rfspectral']}, not this checkout")
    return report, report["first_op_monotonic"] - launched


def scale(window, reference_ms) -> float:
    """Factor taking a window's times to the reference host speed; 1 with no
    reference."""
    return reference_ms / window["probe_ms"] if reference_ms else 1.0


def ops_per_s(windows, reference_ms=None) -> float:
    ops = sum(len(w["op_ms"]) for w in windows)
    return ops / sum(w["wall_ms"] * scale(w, reference_ms) for w in windows) * 1e3


def p50_ms(windows, reference_ms=None) -> float:
    return statistics.median(
        lat * scale(w, reference_ms) for w in windows for lat in w["op_ms"]
    )


def quickest(windows, share, reference_ms) -> list:
    """The quickest `share` of the windows by scaled throughput, at least one."""
    ranked = sorted(windows, key=lambda w: w["wall_ms"] * scale(w, reference_ms) / len(w["op_ms"]))
    return ranked[:max(1, round(share * len(ranked)))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rfspectral benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rfspectral" / "__init__.py").is_file():
        print(f"no rfspectral package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    parts = 1 if args.trace else PARTS
    deadline = time.monotonic() + parts * (SETUP_ALLOWANCE_S + 2.0 * args.seconds / parts)
    reports, setups = [], []
    try:
        for part in range(parts):
            report, setup = launch(args, part, args.seconds / parts, deadline)
            reports.append(report)
            setups.append(setup)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    windows = [w for report in reports for w in report["windows"]]
    op_ms = [lat for w in windows for lat in w["op_ms"]]
    reference = reports[-1]["probe_reference_ms"]
    quiet = quickest(windows, reports[-1]["quiet_share"], reference)
    probe_ms = [statistics.median(w["probe_ms"] for w in r["windows"]) for r in reports]
    failed = sum(report["failed"] for report in reports)
    mismatches = reports[-1].get("count_mismatches", {})
    if args.trace:
        metrics = reports[-1]["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(s * reference / p for s, p in zip(setups, probe_ms)),
            "ops_per_s": ops_per_s(quiet, reference),
            "op_ms_p50": p50_ms(quiet, reference),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": reports[-1]["environment"],
        "windows_per_part": [len(r["windows"]) for r in reports],
        "probe_kernels": reports[-1]["probe_kernels"],
        "probe_reference_ms": reference,
        "probe_ms_per_part": probe_ms,
        "quiet_windows": len(quiet),
        "setup_s_unscaled": setups,
        "ops_per_s_unscaled": ops_per_s(windows),
        "op_ms_p50_unscaled": p50_ms(windows),
        "op_ms_p90_unscaled": statistics.quantiles(op_ms, n=10)[-1] if len(op_ms) > 1 else op_ms[0],
        "count_mismatches": mismatches,
        "span_cost_ns": reports[-1].get("span_cost_ns"),
    }))
    print(json.dumps({
        "correct": failed == 0 and not mismatches,
        "attempted": len(op_ms),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
