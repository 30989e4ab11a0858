"""The Python examples and the CLI commands of README.md run as written."""

import argparse
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from rfspectral import cli

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                    flags=re.MULTILINE | re.DOTALL)
# Each `rfspectral ...` command of the sh blocks, its continuation lines
# joined, as an argv.
COMMANDS = [
    shlex.split(line)[1:]
    for block in re.findall(r"^```sh\n(.*?)^```$", README.read_text(),
                            flags=re.MULTILINE | re.DOTALL)
    for line in block.replace("\\\n", " ").splitlines()
    if line.startswith("rfspectral ")
]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block, tmp_path, monkeypatch):
    # A fresh namespace per block, in an empty directory, so an example
    # cannot lean on another one or on files of the checkout.
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {"__name__": "__readme__"})


# The `parameters` each README command's manifest records, in README order:
# every parsed flag, defaults included, but not --out, --out-dir or --jobs.
RECORDED = [
    {"op": "rf", "alpha": 0.62, "gamma": 0.49, "func": "erf", "N": 256,
     "L": 1.1, "llim": 100, "matrix_in": None},
    {"op": "fl", "alpha": 0.62, "gamma": 0.0, "N": 256, "L": 1.0, "llim": 100},
    {"op": "fl", "alpha": 0.62, "gamma": 0.0, "func": "erf", "N": 256,
     "L": 1.1, "llim": 100, "matrix_in": "base.rfm"},
    {"op": "rf", "alpha": 1.37, "gamma": 0.58, "func": "erf",
     "N_list": [8, 16, 32, 64, 128], "L_range": "0.5:5:0.5", "llim": 100},
    {"alpha": 1.37, "gamma": [-0.63], "N": 2048, "L": 300.0, "llim": 100,
     "dt": 0.05, "t_end": 12.0, "stride": 10, "fit_window": [8.0, 11.5],
     "budget": None},
    {"op": "rf", "alpha": 1.37, "gamma": -0.63, "func": "erf", "N": 128,
     "L": 1.5, "llim": 100, "num_points": 5, "quad_tol": 1e-9},
]


def test_readme_cli_commands_run(tmp_path, monkeypatch):
    # In order, in one empty directory: a command may read what an earlier
    # one wrote (`apply --matrix-in base.rfm`).
    assert {argv[0] for argv in COMMANDS} == {
        "apply", "matrix", "sweep", "evolve", "oracle"}
    assert len(COMMANDS) == len(RECORDED)
    monkeypatch.chdir(tmp_path)
    seen = set()
    for argv, recorded in zip(COMMANDS, RECORDED):
        assert cli.main(argv) == 0, argv
        manifests = {
            path for path in tmp_path.rglob("*.json")
            if path not in seen and "outputs" in json.loads(path.read_text())
        }
        assert len(manifests) == 1, (argv, manifests)
        manifest = manifests.pop()
        seen.add(manifest)
        payload = json.loads(manifest.read_text())
        assert payload["command"] == argv[0]
        assert payload["parameters"] == recorded, argv
        wall_time = payload["wall_time"]
        assert isinstance(wall_time, float) and 0.0 <= wall_time < math.inf
        for output in payload["outputs"]:
            assert Path(output).exists(), (argv, output)


def test_readme_names_every_flag():
    # A flag added or renamed without its docs fails here.
    text = README.read_text()
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    flags = {
        flag
        for parser in commands.choices.values()
        for action in parser._actions
        for flag in action.option_strings if flag not in ("-h", "--help")
    }
    assert len(flags) >= 20
    missing = [flag for flag in sorted(flags)
               if not re.search(re.escape(flag) + r"(?![\w-])", text)]
    assert missing == []
