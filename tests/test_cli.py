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
        ["sweep", "--op", "fl", "--alpha", "0.62", "--func", "log1psq",
         "--N-list", "16", "--L-range", "1e200:1e200:1", "--out", "s.csv"],
        # L^alpha = 7.9e-309 passes the map-scale rule, but the base over it
        # overflows: the file used to hold 156 non-finite entries of 256.
        ["matrix", "--op", "fl", "--alpha", "1.95", "--N", "16",
         "--L", "1e-158", "--out", "m.rfm"],
        ["matrix", "--op", "rf", "--alpha", "1.95", "--gamma", "0.05",
         "--N", "16", "--L", "1e-158", "--out", "m.rfm"],
    ], ids=["apply-nodal", "sweep", "matrix-scaled-fl", "matrix-scaled-rf"])
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

    @pytest.mark.parametrize("argv, fragment", [
        pytest.param(SWEEP + ["--L-range", "1:2"],
                     "expects start:stop:step", id="range-parts"),
        pytest.param(SWEEP + ["--L-range", "1:2:0"],
                     "--L-range needs a finite", id="step-zero"),
        pytest.param(SWEEP + ["--L-range", "1:2:-0.5"],
                     "--L-range needs a finite", id="step-negative"),
        pytest.param(SWEEP + ["--L-range", "2:1:0.5"],
                     "is empty: start exceeds stop", id="range-empty"),
        pytest.param(SWEEP + ["--L-range", "0:1:0.5"],
                     "--L-range needs a finite", id="scale-zero"),
        pytest.param(["matrix", "--op", "dr", "--alpha", "1.37", "--N", "256"],
                     "requires alpha in (0,1)", id="matrix-kind-alpha"),
        pytest.param(["apply", "--op", "dr", "--alpha", "1.37", "--func", "erf",
                      "--N", "16", "--L", "1"],
                     "requires alpha in (0,1)", id="apply-kind-alpha"),
        pytest.param(["oracle", "--op", "dxr", "--alpha", "0.6", "--func", "erf",
                      "--N", "16", "--L", "1"],
                     "requires alpha in (1,2)", id="oracle-kind-alpha"),
        pytest.param(["sweep", "--op", "rf", "--alpha", "0.6", "--gamma", "0.9",
                      "--func", "erf", "--N-list", "16", "--L-range", "1:2:0.5"],
                     "exceeds min(alpha, 2-alpha)", id="sweep-skewness"),
        pytest.param(["apply", "--op", "fl", "--alpha", "0.62", "--func", "erf",
                      "--N", "16", "--L", "-1"],
                     "map scale must be finite", id="apply-scale-negative"),
        pytest.param(["matrix", "--alpha", "0.62", "--N", "16", "--L", "0"],
                     "map scale must be finite", id="matrix-scale-zero"),
        pytest.param(ORACLE + ["--quad-tol", "0"],
                     "quadrature tolerance", id="quad-tol-zero"),
        pytest.param(ORACLE + ["--quad-tol", "inf"],
                     "quadrature tolerance", id="quad-tol-inf"),
        pytest.param(ORACLE + ["--num-points", "0"],
                     "--num-points", id="num-points-zero"),
        pytest.param(["evolve", "--alpha", "1.37", "--gamma", "0", "--N", "16",
                      "--L", "10", "--t-end", "0.2", "--fit-window", "0,0.2"],
                     "front samples inside the window", id="fit-window-samples"),
        pytest.param(["evolve", "--alpha", "1.37", "--gamma", ",", "--N", "16",
                      "--L", "10", "--t-end", "1", "--fit-window", "0,1"],
                     "--gamma needs at least one value", id="no-gamma"),
        pytest.param(SWEEP_GRID + ["--N-list", ",", "--L-range", "1:2:0.5"],
                     "--N-list", id="n-list-empty"),
        pytest.param(SWEEP_GRID + ["--N-list", "16,1", "--L-range", "1:2:0.5"],
                     "matrix size must be >= 2", id="n-list-below-two"),
        pytest.param(["matrix", "--alpha", "0.62", "--N", "16", "--jobs", "-3"],
                     "--jobs", id="matrix-jobs-negative"),
        pytest.param(SWEEP + ["--L-range", "1:2:0.5", "--jobs", "0"],
                     "--jobs", id="sweep-jobs-zero"),
        pytest.param(["evolve", "--alpha", "1.37", "--gamma", "0", "--N", "16",
                      "--L", "10", "--t-end", "1", "--fit-window", "0,1",
                      "--jobs", "0"], "--jobs", id="evolve-jobs-zero"),
        pytest.param(["apply", "--op", "rf", "--alpha", "1.37", "--gamma", "nan",
                      "--func", "erf", "--N", "16", "--L", "1"],
                     "skewness |nan|", id="apply-skewness-nan"),
        pytest.param(APPLY + ["--gamma", "0.4"],
                     "takes no skewness", id="apply-fl-skewness"),
        pytest.param(MATRIX + ["--gamma", "0.4"],
                     "takes no skewness", id="matrix-fl-skewness"),
        pytest.param(SWEEP + ["--L-range", "1:2:0.5", "--gamma", "-0.4"],
                     "takes no skewness", id="sweep-fl-skewness"),
        pytest.param(ORACLE + ["--gamma", "0.4"],
                     "takes no skewness", id="oracle-fl-skewness"),
        pytest.param(EVOLVE + ["--gamma", "nan", "--t-end", "1"],
                     "skewness |nan|", id="evolve-skewness-nan"),
        pytest.param(EVOLVE + ["--gamma", "0", "--t-end", "inf"],
                     "t_end", id="t-end-inf"),
        pytest.param(EVOLVE + ["--gamma", "0", "--t-end", "-1"],
                     "t_end", id="t-end-negative"),
        pytest.param(EVOLVE + ["--gamma", "0", "--t-end", "1", "--dt", "nan"],
                     "dt > 0", id="dt-nan"),
        pytest.param(EVOLVE + ["--gamma", "0", "--t-end", "1", "--dt", "inf"],
                     "dt > 0", id="dt-inf"),
        pytest.param(EVOLVE + ["--gamma", "0", "--t-end", "1", "--budget", "-1"],
                     "wall budget", id="budget-negative"),
        pytest.param(EVOLVE + ["--gamma", "0", "--t-end", "1", "--budget", "0"],
                     "wall budget", id="budget-zero"),
        pytest.param(EVOLVE + ["--gamma", "0", "--t-end", "1", "--budget", "nan"],
                     "wall budget", id="budget-nan"),
        pytest.param(EVOLVE + ["--gamma", "0", "--t-end", "1", "--budget", "inf"],
                     "wall budget", id="budget-inf"),
        pytest.param(EVOLVE + ["--gamma", "0.30001,0.30002", "--t-end", "1"],
                     "one output directory", id="gammas-share-a-directory"),
        pytest.param(["matrix", "--alpha", "1", "--N", "8", "--llim", "-5"],
                     "l_lim >= 1", id="matrix-alpha-1-llim"),
        pytest.param(["apply", "--op", "fl", "--alpha", "1", "--func", "erf",
                      "--N", "16", "--L", "1", "--llim", "-5"],
                     "l_lim >= 1", id="apply-alpha-1-llim"),
        pytest.param(["evolve", "--alpha", "1", "--gamma", "0", "--N", "16",
                      "--L", "10", "--llim", "-3", "--t-end", "1",
                      "--fit-window", "0,1"], "l_lim >= 1", id="evolve-alpha-1-llim"),
        pytest.param(APPLY + ["--matrix-in", "missing.rfm"],
                     "missing.rfm", id="matrix-in-missing"),
        pytest.param(APPLY + ["--out", "missing/out"],
                     "not inside an existing directory", id="apply-out-no-directory"),
        pytest.param(MATRIX + ["--out", "missing/m.rfm"],
                     "not inside an existing directory", id="matrix-out-no-directory"),
        pytest.param(SWEEP + ["--L-range", "1:2:0.5", "--out", "missing/s.csv"],
                     "not inside an existing directory", id="sweep-out-no-directory"),
        pytest.param(ORACLE + ["--out", "missing/o.csv"],
                     "not inside an existing directory", id="oracle-out-no-directory"),
        pytest.param(EVOLVE + ["--gamma", "0", "--t-end", "1",
                               "--out-dir", f"{__file__}/run"],
                     "Not a directory", id="evolve-out-dir-below-a-file"),
        pytest.param(APPLY + ["--L", "inf"],
                     "map scale must be finite", id="apply-scale-inf"),
        pytest.param(MATRIX + ["--L", "inf"],
                     "map scale must be finite", id="matrix-scale-inf"),
        pytest.param(ORACLE + ["--L", "inf"],
                     "map scale must be finite", id="oracle-scale-inf"),
        pytest.param(EVOLVE + ["--gamma", "0", "--t-end", "1", "--L", "inf"],
                     "map scale must be finite", id="evolve-scale-inf"),
        pytest.param(EVOLVE + ["--gamma", "0", "--t-end", "1e12", "--dt", "1e-6"],
                     "not enough memory", id="evolve-samples-out-of-memory"),
        pytest.param(EVOLVE + ["--gamma", "0", "--t-end", "1", "--dt", "0.3",
                              "--stride", "1"],
                     "whole number of dt", id="t-end-off-the-step-grid"),
        pytest.param(APPLY + ["--L", "1e308"],
                     "outer nodes", id="apply-scale-overflow"),
        pytest.param(MATRIX + ["--L", "1e308"],
                     "outer nodes", id="matrix-scale-overflow"),
        pytest.param(ORACLE + ["--L", "1e308"],
                     "outer nodes", id="oracle-scale-overflow"),
        pytest.param(EVOLVE + ["--gamma", "0", "--t-end", "1", "--L", "1e308"],
                     "outer nodes", id="evolve-scale-overflow"),
        pytest.param(SWEEP_GRID + ["--N-list", "16,64",
                                   "--L-range", "1e306:1e307:1e306"],
                     "outer nodes", id="sweep-scale-overflow"),
        pytest.param(["apply", "--op", "fl", "--alpha", "1.5", "--func", "erf",
                      "--N", "16", "--L", "1e300"],
                     "L^alpha", id="apply-power-overflow"),
        pytest.param(["matrix", "--op", "fl", "--alpha", "1.5", "--N", "16",
                      "--L", "1e300"],
                     "L^alpha", id="matrix-power-overflow"),
        pytest.param(["sweep", "--op", "fl", "--alpha", "1.6", "--func", "erf",
                      "--N-list", "16", "--L-range", "1e200:1e200:1"],
                     "L^alpha", id="sweep-largest-power-overflow"),
        pytest.param(["evolve", "--alpha", "1.5", "--gamma", "0", "--N", "16",
                      "--L", "1e300", "--t-end", "1", "--fit-window", "0,1"],
                     "L^alpha", id="evolve-power-overflow"),
        pytest.param(["apply", "--op", "fl", "--alpha", "1.5", "--func", "erf",
                      "--N", "16", "--L", "1e-300"],
                     "L^alpha", id="apply-power-underflow"),
        pytest.param(["oracle", "--op", "fl", "--alpha", "1.5", "--func", "erf",
                      "--N", "16", "--L", "1e-300"],
                     "L^alpha", id="oracle-power-underflow"),
        pytest.param(["matrix", "--op", "fl", "--alpha", "1.5", "--N", "16",
                      "--L", "1e-300"],
                     "L^alpha", id="matrix-power-underflow"),
        pytest.param(["sweep", "--op", "fl", "--alpha", "1.6", "--func", "erf",
                      "--N-list", "16", "--L-range", "1e-300:1:0.5"],
                     "L^alpha", id="sweep-smallest-power-underflow"),
        pytest.param(["evolve", "--alpha", "1.5", "--gamma", "0", "--N", "16",
                      "--L", "1e-300", "--t-end", "1", "--fit-window", "0,1"],
                     "L^alpha", id="evolve-power-underflow"),
        pytest.param(["evolve", "--alpha", "1.37", "--gamma", "0", "--N", "16",
                      "--L", "1e-20", "--t-end", "1", "--fit-window", "0,1"],
                     "no jump", id="evolve-scale-no-aux-jump"),
        pytest.param(["evolve", "--alpha", "1.37", "--gamma", "0", "--N", "16",
                      "--L", "1e-15", "--t-end", "1", "--fit-window", "0,1"],
                     "does not cross 1/2", id="evolve-front-outside-nodes"),
        pytest.param(["evolve", "--alpha", "1.37", "--gamma", "0", "--N", "16",
                      "--L", "1e-17", "--t-end", "1", "--fit-window", "0,1"],
                     "does not cross 1/2", id="evolve-front-outside-nodes-smaller"),
        pytest.param(SWEEP + ["--L-range", "inf:5:1"],
                     "--L-range needs a finite", id="range-start-inf"),
        pytest.param(SWEEP + ["--L-range", "1:1e308:1e-308"],
                     "no finite number of values", id="range-count-inf"),
        pytest.param(SWEEP + ["--L-range", "1:5:inf"],
                     "--L-range needs a finite", id="range-step-inf"),
    ])
    def test_exit_2_before_any_build(self, tmp_path, capsys, monkeypatch, argv,
                                     fragment):
        def no_build(*args, **kwargs):
            raise AssertionError("matrix built before the inputs were checked")

        monkeypatch.setattr(cli, "build_base_matrix", no_build)
        monkeypatch.setattr(operators, "build_base_matrix", no_build)
        # Relative paths in argv name entries of tmp_path.
        monkeypatch.chdir(tmp_path)
        out_flag = "--out-dir" if argv[0] == "evolve" else "--out"
        if out_flag not in argv:
            argv = argv + [out_flag, tmp_path / "out"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        # The fragment names the flag or rule, so a row cannot pass on
        # another check's refusal.
        assert err.startswith("error: ") and fragment in err
        assert list(tmp_path.iterdir()) == []


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
