"""Command-line interface: outputs, determinism and exit codes."""

import io
import json

import numpy as np
import pytest

from rfspectral import cli, operators
from rfspectral.cli import main
from rfspectral.closedform import OperatorKind
from rfspectral.opmatrix import build_base_matrix, serialize


def run(args):
    return main([str(a) for a in args])


class TestApply:
    def test_erf_battery_cell(self, tmp_path, capsys):
        out = tmp_path / "rf_erf"
        code = run([
            "apply", "--op", "rf", "--alpha", "0.62", "--gamma", "0.49",
            "--func", "erf", "--N", "128", "--L", "1.1", "--llim", "100",
            "--out", out,
        ])
        assert code == 0
        summary = json.loads(out.with_suffix(".json").read_text())
        assert summary["command"] == "apply"
        assert summary["linf_error"] < 1e-11
        assert summary["parameters"]["alpha"] == 0.62
        assert set(summary["parameters"]) == {
            "op", "alpha", "gamma", "func", "N", "L", "llim", "matrix_in"
        }
        for produced in summary["outputs"]:
            assert (tmp_path / produced).exists() or out.with_suffix(".csv").exists()
        header = out.with_suffix(".csv").read_text().splitlines()[0]
        assert header == "x,approx_re,approx_im,exact_re,exact_im,abs_err"

    def test_deterministic_csv(self, tmp_path):
        args = [
            "apply", "--op", "fl", "--alpha", "0.62", "--gamma", "0",
            "--func", "erf", "--N", "64", "--L", "1.1", "--llim", "30",
        ]
        run(args + ["--out", tmp_path / "a"])
        run(args + ["--out", tmp_path / "b"])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_usage_error_on_bad_skewness(self, tmp_path, capsys):
        code = run([
            "apply", "--op", "rf", "--alpha", "0.5", "--gamma", "0.9",
            "--func", "erf", "--N", "32", "--L", "1", "--out", tmp_path / "x",
        ])
        assert code == 2
        assert "skewness" in capsys.readouterr().err

    def test_matrix_reuse_is_identical(self, tmp_path):
        matrix_file = tmp_path / "base.rfm"
        assert run([
            "matrix", "--alpha", "0.62", "--N", "64", "--llim", "30",
            "--out", matrix_file,
        ]) == 0
        direct = tmp_path / "direct"
        reused = tmp_path / "reused"
        common = [
            "apply", "--op", "dr", "--alpha", "0.62", "--gamma", "0",
            "--func", "erf", "--N", "64", "--L", "1.3", "--llim", "30",
        ]
        run(common + ["--out", direct])
        run(common + ["--matrix-in", matrix_file, "--out", reused])
        assert direct.with_suffix(".csv").read_bytes() == reused.with_suffix(
            ".csv"
        ).read_bytes()

    @pytest.mark.parametrize(
        "alpha,llim", [("0.9", "10"), ("0.62", "20")], ids=["alpha", "llim"]
    )
    def test_matrix_mismatch_rejected(self, tmp_path, capsys, alpha, llim):
        matrix_file = tmp_path / "base.rfm"
        run(["matrix", "--alpha", "0.62", "--N", "32", "--llim", "10",
             "--out", matrix_file])
        code = run([
            "apply", "--op", "fl", "--alpha", alpha, "--gamma", "0",
            "--func", "erf", "--N", "32", "--L", "1", "--llim", llim,
            "--matrix-in", matrix_file, "--out", tmp_path / "y",
        ])
        assert code == 2
        assert "does not match" in capsys.readouterr().err
        assert not (tmp_path / "y.json").exists()

    def test_scaled_matrix_in_rejected(self, tmp_path, capsys):
        matrix_file = tmp_path / "rf.rfm"
        assert run(["matrix", "--op", "rf", "--alpha", "0.62", "--gamma", "0.3",
                    "--N", "32", "--L", "2", "--llim", "10",
                    "--out", matrix_file]) == 0
        code = run([
            "apply", "--op", "rf", "--alpha", "0.62", "--gamma", "0.3",
            "--func", "erf", "--N", "32", "--L", "2", "--llim", "10",
            "--matrix-in", matrix_file, "--out", tmp_path / "y",
        ])
        assert code == 2
        assert "only base matrices" in capsys.readouterr().err
        assert not (tmp_path / "y.json").exists()


@pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning",
)
class TestNonFiniteResults:
    @pytest.mark.parametrize("argv", [
        ["apply", "--op", "fl", "--alpha", "0.62", "--func", "log1psq",
         "--N", "64", "--L", "1e200", "--out", "a"],
        ["apply", "--op", "fl", "--alpha", "0.62", "--func", "erf",
         "--N", "64", "--L", "1e308", "--out", "a"],
        ["sweep", "--op", "fl", "--alpha", "0.62", "--func", "log1psq",
         "--N-list", "16", "--L-range", "1e200:1e200:1", "--out", "s.csv"],
    ], ids=["apply-nodal", "apply-exact", "sweep"])
    def test_exit_3_and_no_output(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 3
        assert "non-finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestMatrix:
    @pytest.mark.parametrize("n", [16, 17])
    def test_fl_at_unit_scale_writes_the_base(self, tmp_path, n):
        out = tmp_path / "fl.rfm"
        assert run(["matrix", "--op", "fl", "--alpha", "1.37", "--N", n,
                    "--L", "1", "--llim", "10", "--out", out]) == 0
        buf = io.BytesIO()
        serialize(build_base_matrix(1.37, n, 10), buf)
        assert out.read_bytes() == buf.getvalue()

    def test_unwritable_header_leaves_no_file(self, tmp_path, capsys):
        # The alpha = 1 build ignores l_lim, which the u32 header field
        # cannot hold.
        out = tmp_path / "big.rfm"
        assert run(["matrix", "--alpha", "1", "--N", "8",
                    "--llim", "5000000000", "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_refused_allocation_exits_2(self, tmp_path, capsys, monkeypatch):
        def refused(*args, **kwargs):
            raise MemoryError("Unable to allocate 596. GiB for an array")

        monkeypatch.setattr(cli, "build_base_matrix", refused)
        assert run(["matrix", "--alpha", "0.62", "--N", "400000",
                    "--out", tmp_path / "big.rfm"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "596. GiB" in err
        assert list(tmp_path.iterdir()) == []


class TestUsageErrors:
    APPLY = ["apply", "--op", "fl", "--alpha", "0.62", "--func", "erf",
             "--N", "16", "--L", "1"]
    SWEEP_GRID = ["sweep", "--op", "fl", "--alpha", "0.62", "--func", "erf",
                  "--llim", "5"]
    SWEEP = SWEEP_GRID + ["--N-list", "16"]
    ORACLE = ["oracle", "--op", "fl", "--alpha", "0.62", "--func", "erf",
              "--N", "16", "--L", "1", "--llim", "5"]
    MATRIX = ["matrix", "--alpha", "0.62", "--N", "16", "--llim", "5"]
    EVOLVE = ["evolve", "--alpha", "1.37", "--N", "16", "--L", "10",
              "--llim", "5", "--fit-window", "0,1"]

    @pytest.mark.parametrize("jobs_env, argv", [
        ("two", MATRIX),
        (None, SWEEP + ["--L-range", "1:2"]),
        (None, SWEEP + ["--L-range", "1:2:0"]),
        (None, SWEEP + ["--L-range", "1:2:-0.5"]),
        (None, SWEEP + ["--L-range", "2:1:0.5"]),
        (None, SWEEP + ["--L-range", "0:1:0.5"]),
        (None, ["matrix", "--op", "dr", "--alpha", "1.37", "--N", "256"]),
        (None, ["apply", "--op", "dr", "--alpha", "1.37", "--func", "erf",
                "--N", "16", "--L", "1"]),
        (None, ["oracle", "--op", "dxr", "--alpha", "0.6", "--func", "erf",
                "--N", "16", "--L", "1"]),
        (None, ["sweep", "--op", "rf", "--alpha", "0.6", "--gamma", "0.9",
                "--func", "erf", "--N-list", "16", "--L-range", "1:2:0.5"]),
        (None, ["apply", "--op", "fl", "--alpha", "0.62", "--func", "erf",
                "--N", "16", "--L", "-1"]),
        (None, ["matrix", "--alpha", "0.62", "--N", "16", "--L", "0"]),
        (None, ORACLE + ["--quad-tol", "0"]),
        (None, ORACLE + ["--quad-tol", "inf"]),
        (None, ORACLE + ["--num-points", "0"]),
        (None, ["evolve", "--alpha", "1.37", "--gamma", "0", "--N", "16",
                "--L", "10", "--t-end", "0.2", "--fit-window", "0,0.2"]),
        (None, ["evolve", "--alpha", "1.37", "--gamma", ",", "--N", "16",
                "--L", "10", "--t-end", "1", "--fit-window", "0,1"]),
        (None, SWEEP_GRID + ["--N-list", ",", "--L-range", "1:2:0.5"]),
        (None, SWEEP_GRID + ["--N-list", "16,1", "--L-range", "1:2:0.5"]),
        (None, ["matrix", "--alpha", "0.62", "--N", "16", "--jobs", "-3"]),
        (None, SWEEP + ["--L-range", "1:2:0.5", "--jobs", "0"]),
        (None, ["evolve", "--alpha", "1.37", "--gamma", "0", "--N", "16",
                "--L", "10", "--t-end", "1", "--fit-window", "0,1",
                "--jobs", "0"]),
        ("0", ["matrix", "--alpha", "0.62", "--N", "16"]),
        ("-2", MATRIX),
        (None, ["apply", "--op", "rf", "--alpha", "1.37", "--gamma", "nan",
                "--func", "erf", "--N", "16", "--L", "1"]),
        (None, APPLY + ["--gamma", "0.4"]),
        (None, MATRIX + ["--gamma", "0.4"]),
        (None, SWEEP + ["--L-range", "1:2:0.5", "--gamma", "-0.4"]),
        (None, ORACLE + ["--gamma", "0.4"]),
        (None, EVOLVE + ["--gamma", "nan", "--t-end", "1"]),
        (None, EVOLVE + ["--gamma", "0", "--t-end", "inf"]),
        (None, EVOLVE + ["--gamma", "0", "--t-end", "-1"]),
        (None, EVOLVE + ["--gamma", "0", "--t-end", "1", "--dt", "nan"]),
        (None, EVOLVE + ["--gamma", "0", "--t-end", "1", "--dt", "inf"]),
        (None, EVOLVE + ["--gamma", "0", "--t-end", "1", "--budget", "-1"]),
        (None, EVOLVE + ["--gamma", "0", "--t-end", "1", "--budget", "0"]),
        (None, EVOLVE + ["--gamma", "0", "--t-end", "1", "--budget", "nan"]),
        (None, EVOLVE + ["--gamma", "0", "--t-end", "1", "--budget", "inf"]),
        (None, EVOLVE + ["--gamma", "0.30001,0.30002", "--t-end", "1"]),
        (None, ["matrix", "--alpha", "1", "--N", "8", "--llim", "-5"]),
        (None, ["apply", "--op", "fl", "--alpha", "1", "--func", "erf",
                "--N", "16", "--L", "1", "--llim", "-5"]),
        (None, ["evolve", "--alpha", "1", "--gamma", "0", "--N", "16",
                "--L", "10", "--llim", "-3", "--t-end", "1",
                "--fit-window", "0,1"]),
        (None, APPLY + ["--matrix-in", "missing.rfm"]),
        (None, APPLY + ["--out", "missing/out"]),
        (None, MATRIX + ["--out", "missing/m.rfm"]),
        (None, SWEEP + ["--L-range", "1:2:0.5", "--out", "missing/s.csv"]),
        (None, ORACLE + ["--out", "missing/o.csv"]),
        (None, EVOLVE + ["--gamma", "0", "--t-end", "1",
                         "--out-dir", f"{__file__}/run"]),
        (None, APPLY + ["--L", "inf"]),
        (None, MATRIX + ["--L", "inf"]),
        (None, ORACLE + ["--L", "inf"]),
        (None, EVOLVE + ["--gamma", "0", "--t-end", "1", "--L", "inf"]),
        (None, EVOLVE + ["--gamma", "0", "--t-end", "1e12", "--dt", "1e-6"]),
    ], ids=["jobs-env", "range-parts", "step-zero", "step-negative",
            "range-empty", "scale-zero", "matrix-kind-alpha", "apply-kind-alpha",
            "oracle-kind-alpha", "sweep-skewness", "apply-scale-negative",
            "matrix-scale-zero", "quad-tol-zero", "quad-tol-inf",
            "num-points-zero", "fit-window-samples", "no-gamma",
            "n-list-empty", "n-list-below-two", "matrix-jobs-negative",
            "sweep-jobs-zero", "evolve-jobs-zero", "jobs-env-zero",
            "jobs-env-negative", "apply-skewness-nan", "apply-fl-skewness",
            "matrix-fl-skewness", "sweep-fl-skewness", "oracle-fl-skewness",
            "evolve-skewness-nan", "t-end-inf", "t-end-negative", "dt-nan",
            "dt-inf", "budget-negative", "budget-zero", "budget-nan",
            "budget-inf", "gammas-share-a-directory", "matrix-alpha-1-llim",
            "apply-alpha-1-llim", "evolve-alpha-1-llim", "matrix-in-missing",
            "apply-out-no-directory", "matrix-out-no-directory",
            "sweep-out-no-directory", "oracle-out-no-directory",
            "evolve-out-dir-below-a-file", "apply-scale-inf",
            "matrix-scale-inf", "oracle-scale-inf", "evolve-scale-inf",
            "evolve-samples-out-of-memory"])
    def test_exit_2_before_any_build(self, tmp_path, capsys, monkeypatch,
                                     jobs_env, argv):
        def no_build(*args, **kwargs):
            raise AssertionError("matrix built before the inputs were checked")

        monkeypatch.setattr(cli, "build_base_matrix", no_build)
        monkeypatch.setattr(operators, "build_base_matrix", no_build)
        if jobs_env is not None:
            monkeypatch.setenv("RF_SPECTRAL_JOBS", jobs_env)
        # Relative paths in argv name entries of tmp_path.
        monkeypatch.chdir(tmp_path)
        out_flag = "--out-dir" if argv[0] == "evolve" else "--out"
        if out_flag not in argv:
            argv = argv + [out_flag, tmp_path / "out"]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("jobs_env, argv", [
        ("0", APPLY),
        ("x", MATRIX + ["--jobs", "2"]),
    ], ids=["command-without-jobs", "jobs-given"])
    def test_jobs_env_read_only_as_the_jobs_default(self, tmp_path, monkeypatch,
                                                    jobs_env, argv):
        monkeypatch.setenv("RF_SPECTRAL_JOBS", jobs_env)
        assert run(argv + ["--out", tmp_path / "out"]) == 0


class TestSweep:
    def test_grid_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run([
            "sweep", "--op", "fl", "--alpha", "0.62", "--func", "erf",
            "--N-list", "16,32", "--L-range", "1:2:0.5", "--llim", "20",
            "--out", out, "--jobs", "2",
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "L,16,32"
        assert len(lines) == 4
        grid = np.array(
            [[float(v) for v in line.split(",")[1:]] for line in lines[1:]]
        )
        assert grid.shape == (3, 2)
        assert np.all(grid > 0.0)


class TestEvolve:
    def test_run_outputs(self, tmp_path):
        out_dir = tmp_path / "evo"
        code = run([
            "evolve", "--alpha", "1.37", "--gamma", "-0.63", "--N", "128",
            "--L", "20", "--llim", "20", "--dt", "0.05", "--t-end", "2",
            "--stride", "10", "--fit-window", "1,2", "--out-dir", out_dir,
        ])
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert set(summary) >= {"alpha", "gamma", "N", "L", "dt", "slope",
                                "pearson_rho", "samples"}
        manifest = json.loads((out_dir / "manifest.json").read_text())
        for path in manifest["outputs"]:
            assert (tmp_path / path).exists() or (out_dir / path).exists() or \
                __import__("pathlib").Path(path).exists()
        first = (out_dir / "snapshot_0000.csv").read_text().splitlines()
        assert first[0] == "x,u"

    def test_multi_gamma_fanout(self, tmp_path):
        out_dir = tmp_path / "fan"
        code = run([
            "evolve", "--alpha", "1.37", "--gamma=-0.2,0.2", "--N", "64",
            "--L", "10", "--llim", "10", "--dt", "0.05", "--t-end", "1",
            "--stride", "10", "--fit-window", "0,1", "--out-dir", out_dir,
            "--jobs", "2",
        ])
        assert code == 0
        subdirs = sorted(p.name for p in out_dir.iterdir() if p.is_dir())
        assert subdirs == ["gamma_m0.2000", "gamma_p0.2000"]

    def test_gammas_share_one_base(self, tmp_path, monkeypatch):
        builds = []

        def counted(*args, **kwargs):
            builds.append(args)
            return build_base_matrix(*args, **kwargs)

        monkeypatch.setattr(cli, "build_base_matrix", counted)
        common = ["evolve", "--alpha", "1.37", "--N", "64", "--L", "10",
                  "--llim", "10", "--dt", "0.05", "--t-end", "1",
                  "--stride", "10", "--fit-window", "0,1"]
        assert run(common + ["--gamma=-0.2,0.2", "--out-dir", tmp_path / "fan",
                             "--jobs", "2"]) == 0
        assert len(builds) == 1
        for gamma, name in (("-0.2", "gamma_m0.2000"), ("0.2", "gamma_p0.2000")):
            single = tmp_path / f"single_{name}"
            assert run(common + [f"--gamma={gamma}", "--out-dir", single]) == 0
            assert (single / "summary.json").read_bytes() == (
                tmp_path / "fan" / name / "summary.json"
            ).read_bytes()

    def test_negative_gamma_list_as_its_own_argument(self, tmp_path):
        common = ["evolve", "--alpha", "1.37", "--N", "64", "--L", "10",
                  "--llim", "10", "--dt", "0.05", "--t-end", "1",
                  "--stride", "10", "--fit-window", "0,1"]
        assert run(common + ["--gamma", "-0.2,0.2", "--out-dir", tmp_path / "spaced"]) == 0
        assert run(common + ["--gamma=-0.2,0.2", "--out-dir", tmp_path / "joined"]) == 0
        for name in ("gamma_m0.2000", "gamma_p0.2000"):
            assert (tmp_path / "spaced" / name / "summary.json").read_bytes() == (
                tmp_path / "joined" / name / "summary.json"
            ).read_bytes()

    def test_bad_fit_window(self, tmp_path, capsys):
        code = run([
            "evolve", "--alpha", "1.37", "--gamma", "0", "--N", "64",
            "--L", "10", "--llim", "10", "--dt", "0.05", "--t-end", "1",
            "--stride", "10", "--fit-window", "1", "--out-dir", tmp_path / "w",
        ])
        assert code == 2
        assert "fit-window" in capsys.readouterr().err

    def test_budget_exit_code(self, tmp_path):
        code = run([
            "evolve", "--alpha", "1.37", "--gamma", "0", "--N", "64",
            "--L", "10", "--llim", "10", "--dt", "0.05", "--t-end", "5",
            "--stride", "10", "--fit-window", "1,5", "--budget", "1e-9",
            "--out-dir", tmp_path / "b",
        ])
        assert code == 3


class TestCsv:
    def test_nodal_csv_layout(self, tmp_path):
        assert run(["apply", "--op", "fl", "--alpha", "0.62", "--func", "erf",
                    "--N", "16", "--L", "1", "--llim", "10",
                    "--out", tmp_path / "a"]) == 0
        lines = (tmp_path / "a.csv").read_text().splitlines()
        assert lines[0] == "x,approx_re,approx_im,exact_re,exact_im,abs_err"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        report = operators.apply_reference(
            "erf", OperatorKind.FRAC_LAPLACIAN, 0.62, 0.0, 16, 1.0, 10
        )
        assert rows.shape == (16, 6)
        assert np.array_equal(rows[:, 0], report.grid.x_nodes)
        assert np.array_equal(rows[:, 1], report.approx)
        assert np.array_equal(rows[:, 3], report.exact)
        assert not np.any(rows[:, [2, 4]])
        assert np.array_equal(rows[:, 5], np.abs(rows[:, 1] - rows[:, 3]))

    def test_rows_keep_every_bit(self, tmp_path):
        path = tmp_path / "rows.csv"
        values = [0.1, -0.0, 1.0 / 3.0, -2.5e-300, 7.0]
        cli._write_csv(path, "a,b", [values[:2], values[2:4], np.array(values[4:])])
        lines = path.read_text().split("\n")
        assert lines == ["a,b", "0.10000000000000001,-0", "0.33333333333333331,-2.5e-300",
                         "7", ""]
        read = [float(v) for line in lines[1:-1] for v in line.split(",")]
        assert [v.hex() for v in read] == [v.hex() for v in values]


class TestOracle:
    def test_side_by_side(self, tmp_path):
        out = tmp_path / "oracle.csv"
        code = run([
            "oracle", "--op", "rf", "--alpha", "0.4", "--gamma", "0.2",
            "--func", "erf", "--N", "64", "--L", "1.5", "--llim", "30",
            "--num-points", "3", "--quad-tol", "1e-8", "--out", out,
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,spectral,quadrature,closed_form"
        assert len(lines) == 4
        for line in lines[1:]:
            _, spectral, quadrature, closed = (float(v) for v in line.split(","))
            assert abs(quadrature - closed) < 1e-6

    def test_repeated_nodes_are_computed_once(self, tmp_path, monkeypatch):
        # 100 points over the middle half of N = 16 nodes round onto 9
        # distinct nodes; each gets one row and one quadrature.
        calls = []
        quad_operator = cli.quad_operator

        def counted(*args, **kwargs):
            calls.append(args)
            return quad_operator(*args, **kwargs)

        monkeypatch.setattr(cli, "quad_operator", counted)
        out = tmp_path / "oracle.csv"
        assert run([
            "oracle", "--op", "fl", "--alpha", "0.62", "--func", "erf",
            "--N", "16", "--L", "1", "--llim", "5", "--num-points", "100",
            "--out", out,
        ]) == 0
        xs = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
        assert len(xs) == 9 == len(set(xs))
        assert len(calls) == 9
