"""The Python examples and the CLI commands of README.md run as written."""

import json
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


def test_readme_cli_commands_run(tmp_path, monkeypatch):
    # In order, in one empty directory: a command may read what an earlier
    # one wrote (`apply --matrix-in base.rfm`).
    assert {argv[0] for argv in COMMANDS} == {
        "apply", "matrix", "sweep", "evolve", "oracle"}
    monkeypatch.chdir(tmp_path)
    seen = set()
    for argv in COMMANDS:
        assert cli.main(argv) == 0, argv
        manifests = {
            path for path in tmp_path.rglob("*.json")
            if path not in seen and "outputs" in json.loads(path.read_text())
        }
        assert len(manifests) == 1, (argv, manifests)
        manifest = manifests.pop()
        seen.add(manifest)
        for output in json.loads(manifest.read_text())["outputs"]:
            assert Path(output).exists(), (argv, output)
