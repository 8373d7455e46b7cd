import re
import shlex
from pathlib import Path

from spinloc import load_config
from spinloc.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_library_example_runs():
    # the documented API must not drift from the package
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})


def test_readme_commands_run(tmp_path, monkeypatch):
    # every documented command line runs on the shipped data, writing to tmp
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    commands = [shlex.split(line)[1:] for block in blocks
                for line in block.splitlines() if line.startswith("spinloc ")]
    assert {argv[0] for argv in commands} == {"calibrate", "localize", "simulate",
                                              "dft-residuals"}
    monkeypatch.chdir(ROOT)
    for k, argv in enumerate(commands):
        if "--out" in argv:
            del argv[argv.index("--out"):argv.index("--out") + 2]
        assert main(argv + ["--out", str(tmp_path / str(k))]) == 0, argv


def test_readme_config_example_loads(tmp_path):
    # the documented config is one the reader accepts, with the frame it adds
    (block,) = re.findall(r"```yaml\n(.*?)```", README.read_text(), flags=re.S)
    path = tmp_path / "config.yaml"
    path.write_text(block)
    constants, registry = load_config(path)
    assert constants.gamma_n == 10.6e6
    assert "probe" in registry
