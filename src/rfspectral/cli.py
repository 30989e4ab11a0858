"""Command-line interface: operator application, matrix build/save, L x N
error sweeps, Fisher evolution runs and oracle comparisons.

Exit codes: 0 success, 2 usage or file error, 3 numeric failure.  Identical
flags produce byte-identical CSV outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import evolve as ev
from ._fanout import fan_out
from .closedform import CLOSED_FORMS, OperatorKind
from .errors import NumericError
from .operators import apply_reference, sweep_errors
from .opmatrix import (
    DEFAULT_L_LIM,
    build_base_matrix,
    check_operator,
    deserialize,
    scale_to_operator,
    serialize,
)
from .oracle import DEFAULT_TOL, check_tolerance, quad_operator

# Parsed arguments left out of a manifest's parameters: the subcommand and
# its handler, where the outputs go and how many threads made them.  Every
# other flag, defaults included, is recorded.
_UNRECORDED = {"command", "run", "out", "out_dir", "jobs"}


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path, header: str, rows) -> None:
    """The header line, then one comma-joined line per row of numbers at
    full double precision."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


# A comma-separated list whose first value is negative, e.g. "-0.63,0.3".
_NEGATIVE_LIST = re.compile(r"-\.?\d[^,]*,")


def _bind_negative_lists(argv: list[str]) -> list[str]:
    """argv with each negative list joined to the flag before it, as in
    "--gamma=-0.63,0.3": argparse reads a token that starts with "-" and is
    not one plain number as an option."""
    out: list[str] = []
    for token in argv:
        if (
            out
            and _NEGATIVE_LIST.match(token)
            and out[-1].startswith("--")
            and "=" not in out[-1]
        ):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _parse_range(text: str) -> list[float]:
    """start:stop:step, inclusive of stop up to roundoff."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--L-range expects start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not (all(map(math.isfinite, (start, stop, step)))
            and start > 0.0 and step > 0.0):
        raise ValueError(
            f"--L-range needs a finite start > 0, step > 0 and stop, got {text!r}"
        )
    span = (stop - start) / step + 1e-9
    if not math.isfinite(span):
        raise ValueError(f"--L-range {text!r} has no finite number of values")
    count = int(math.floor(span)) + 1
    if count < 1:
        raise ValueError(f"--L-range {text!r} is empty: start exceeds stop")
    return [start + i * step for i in range(count)]


def cmd_apply(args) -> tuple[Path, list, dict]:
    kind = OperatorKind(args.op)
    check_operator(kind, args.alpha, args.gamma, args.N, args.L, args.llim)
    out = Path(args.out)
    base = deserialize(args.matrix_in) if args.matrix_in else None
    report = apply_reference(
        args.func, kind, args.alpha, args.gamma, args.N, args.L, args.llim,
        base=base,
    )
    csv_path = out.with_suffix(".csv")
    approx, exact = report.approx, report.exact
    _write_csv(
        csv_path, "x,approx_re,approx_im,exact_re,exact_im,abs_err",
        zip(report.grid.x_nodes, approx.real, approx.imag, exact.real,
            exact.imag, np.abs(approx - exact)),
    )
    print(f"linf_error {report.linf_error:.6e}  ->  {csv_path}")
    json_path = out.with_suffix(".json")
    return json_path, [csv_path, json_path], {"linf_error": report.linf_error}


def cmd_matrix(args) -> tuple[Path, list, dict]:
    kind = OperatorKind(args.op)
    check_operator(kind, args.alpha, args.gamma, args.N, args.L, args.llim)
    base = build_base_matrix(args.alpha, args.N, args.llim, jobs=args.jobs)
    matrix = scale_to_operator(base, kind, args.gamma, args.L)
    serialize(matrix, args.out)
    out = Path(args.out)
    print(f"matrix ({matrix.n}x{matrix.n}, kind {matrix.kind.value}) -> {out}")
    return out.with_suffix(out.suffix + ".json"), [out], {}


def cmd_sweep(args) -> tuple[Path, list, dict]:
    n_list = args.N_list
    if not n_list:
        raise ValueError("--N-list needs at least one value")
    l_list = _parse_range(args.L_range)
    errors = sweep_errors(
        args.func, OperatorKind(args.op), args.alpha, args.gamma, n_list, l_list,
        args.llim, jobs=args.jobs,
    )
    out = Path(args.out)
    _write_csv(out, "L," + ",".join(str(n) for n in n_list),
               ([l_scale, *errors[row]] for row, l_scale in enumerate(l_list)))
    print(f"min error {np.min(errors):.6e} -> {out}")
    return (out.with_suffix(out.suffix + ".json"), [out],
            {"min_error": float(np.min(errors))})


def _run_evolution(args, base, config, out_dir: Path) -> dict:
    matrix = scale_to_operator(base, OperatorKind.RIESZ_FELLER, config.gamma,
                               config.l_scale)
    system = ev.FisherSystem(matrix)
    result = ev.rk4_evolve(config, system=system, wall_budget=args.budget)
    outputs = []
    for i, snap in enumerate(result.snapshots):
        path = out_dir / f"snapshot_{i:04d}.csv"
        _write_csv(path, "x,u", zip(system.grid.x_nodes, snap))
        outputs.append(path)
    fit = ev.fit_exponential(result.trace, (args.fit_window[0], args.fit_window[1]))
    summary = {
        "alpha": config.alpha, "gamma": config.gamma, "N": config.n,
        "L": config.l_scale, "dt": config.dt,
        "slope": fit.slope, "pearson_rho": fit.pearson_rho,
        "samples": [
            [float(t), float(x)]
            for t, x in zip(result.trace.times, result.trace.x_half)
        ],
    }
    summary_path = out_dir / "summary.json"
    _write_json(summary_path, summary)
    outputs.append(summary_path)
    return {"summary": summary, "outputs": outputs}


def cmd_evolve(args) -> tuple[Path, list, dict]:
    if len(args.fit_window) != 2 or args.fit_window[0] >= args.fit_window[1]:
        raise ValueError("--fit-window expects t0,t1 with t0 < t1")
    ev.check_wall_budget(args.budget)
    gammas = args.gamma
    if not gammas:
        raise ValueError("--gamma needs at least one value")
    out_dir = Path(args.out_dir)
    # Every input is checked before the one base build that all gammas share.
    targets = [
        (
            ev.EvolutionConfig(
                alpha=args.alpha, gamma=g, n=args.N, l_scale=args.L,
                l_lim=args.llim, dt=args.dt, t_end=args.t_end,
                snapshot_stride=args.stride,
            ),
            out_dir if len(gammas) == 1
            else out_dir / f"gamma_{g:+.4f}".replace("+", "p").replace("-", "m"),
        )
        for g in gammas
    ]
    if len({run_dir for _, run_dir in targets}) < len(targets):
        raise ValueError(f"--gamma {gammas}: two values round to one output directory")
    # All gammas share the sample times; the fit needs 3 inside the window.
    config = targets[0][0]
    ev.fit_mask(ev.sampled_steps(config) * config.dt, args.fit_window)
    for _, run_dir in targets:
        run_dir.mkdir(parents=True, exist_ok=True)
    base = build_base_matrix(args.alpha, args.N, args.llim, jobs=args.jobs)
    runs = fan_out(
        lambda target: _run_evolution(args, base, *target), targets, args.jobs
    )
    for run in runs:
        s = run["summary"]
        print(
            f"gamma {s['gamma']:+.4f}: slope {s['slope']:.6f} "
            f"(1/alpha = {1.0 / args.alpha:.6f}), 1-rho {1.0 - s['pearson_rho']:.3e}"
        )
    return out_dir / "manifest.json", [p for r in runs for p in r["outputs"]], {}


def cmd_oracle(args) -> tuple[Path, list, dict]:
    check_tolerance(args.quad_tol)
    if args.num_points < 1:
        raise ValueError(f"--num-points must be >= 1, got {args.num_points}")
    kind = OperatorKind(args.op)
    func = CLOSED_FORMS[args.func]
    report = apply_reference(
        args.func, kind, args.alpha, args.gamma, args.N, args.L, args.llim
    )
    grid = report.grid
    # Distinct nodes only: past about N/2 points the spacing rounds onto
    # repeated nodes.
    idx = np.unique(
        np.linspace(grid.n * 0.25, grid.n * 0.75, args.num_points).astype(int)
    )
    value = lambda x: float(func.value(x))
    rows = []
    for j in idx:
        x = float(grid.x_nodes[j])
        spectral = float(report.approx[j])
        quad_val = float(quad_operator(
            kind, args.alpha, args.gamma, value, x, du=func.derivative,
            tol=args.quad_tol, u_sup=func.sup,
        ))
        closed = float(report.exact[j])
        rows.append((x, spectral, quad_val, closed))
    out = Path(args.out)
    _write_csv(out, "x,spectral,quadrature,closed_form", rows)
    max_diff = max(abs(r[1] - r[2]) for r in rows)
    print(f"max |spectral - quadrature| = {max_diff:.6e} -> {out}")
    return (out.with_suffix(out.suffix + ".json"), [out],
            {"max_spectral_vs_quadrature": max_diff})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfspectral",
        description="Pseudospectral fractional operators on the real line",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    kinds = [k.value for k in OperatorKind]
    # Flags that several commands share, each declared once.
    order, operator, grid, jobs, out = (
        argparse.ArgumentParser(add_help=False) for _ in range(5)
    )
    order.add_argument("--alpha", type=float, required=True)
    order.add_argument("--llim", type=int, default=DEFAULT_L_LIM)
    operator.add_argument("--op", required=True, choices=kinds)
    operator.add_argument("--gamma", type=float, default=0.0)
    operator.add_argument("--func", required=True, choices=sorted(CLOSED_FORMS))
    grid.add_argument("--N", type=int, required=True)
    grid.add_argument("--L", type=float, required=True)
    jobs.add_argument("--jobs", type=int, default=1)
    out.add_argument("--out", required=True)

    p = sub.add_parser("apply", parents=[order, operator, grid],
                       help="apply an operator to a reference function")
    p.add_argument("--out", required=True, help="output prefix (.csv/.json)")
    p.add_argument("--matrix-in", help="reuse a serialized base matrix")
    p.set_defaults(run=cmd_apply)

    p = sub.add_parser("matrix", parents=[order, jobs, out],
                       help="build and serialize an operator matrix")
    p.add_argument("--op", default="fl", choices=kinds)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--L", type=float, default=1.0)
    p.set_defaults(run=cmd_matrix)

    p = sub.add_parser("sweep", parents=[order, operator, jobs, out],
                       help="L x N error sweep against a closed form")
    p.add_argument("--N-list", type=_parse_int_list, required=True, dest="N_list",
                   help="comma-separated node counts, e.g. 8,16,32")
    p.add_argument("--L-range", required=True, dest="L_range",
                   help="start:stop:step map scales, e.g. 0.5:5:0.5")
    p.set_defaults(run=cmd_sweep)

    p = sub.add_parser("evolve", parents=[order, grid, jobs],
                       help="run the Fisher front experiment")
    p.add_argument("--gamma", type=_parse_float_list, required=True,
                   help="skewness, or comma-separated list for a fan-out")
    p.add_argument("--dt", type=float, default=ev.EvolutionConfig.dt)
    p.add_argument("--t-end", type=float, required=True, dest="t_end")
    p.add_argument("--stride", type=int, default=ev.EvolutionConfig.snapshot_stride)
    p.add_argument("--fit-window", type=_parse_float_list, required=True,
                   dest="fit_window", help="t0,t1 for the slope fit")
    p.add_argument("--budget", type=float, default=None,
                   help="wall-time budget in seconds")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.set_defaults(run=cmd_evolve)

    p = sub.add_parser("oracle", parents=[order, operator, grid, out],
                       help="spectral vs quadrature vs closed form")
    p.add_argument("--num-points", type=int, default=5, dest="num_points")
    p.add_argument("--quad-tol", type=float, default=DEFAULT_TOL, dest="quad_tol")
    p.set_defaults(run=cmd_oracle)
    return parser


def main(argv=None) -> int:
    """Parse the flags, check the shared ones, run the command and write the
    manifest at the path it returns: the parsed flags, the outputs and extra
    fields it returns and its wall time after those checks."""
    try:
        if argv is None:
            argv = sys.argv[1:]
        args = build_parser().parse_args(_bind_negative_lists(argv))
        # Checked before any file is read or matrix built.
        if hasattr(args, "out") and not Path(args.out).parent.is_dir():
            raise ValueError(f"--out {args.out} is not inside an existing directory")
        if hasattr(args, "jobs") and args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        t0 = time.monotonic()
        path, outputs, extra = args.run(args)
        _write_json(path, {
            "command": args.command,
            "parameters": {
                k: v for k, v in vars(args).items() if k not in _UNRECORDED
            },
            "outputs": [str(p) for p in outputs],
            "wall_time": time.monotonic() - t0,
            **extra,
        })
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
