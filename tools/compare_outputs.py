"""Check that two source trees write the same bytes on the example inputs.

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC

Each argument is a checkout (a directory holding ``src/spinloc``) or its
``src`` directory. For each tree the script copies this repository's
``data/`` into a fresh work directory and runs, from there and with the
same relative paths, ``spinloc simulate``, ``calibrate``, ``dft-residuals``
and ``localize`` on the example files: ``calibrate`` and ``dft-residuals``
in both report formats, ``localize`` at ``--samples 4000 --seed 3`` under
``--fix-a-iso auto``, ``0`` and ``free`` in both report formats. Every
file a command writes is compared byte for byte, and so are its exit
status, standard output and standard error (with the source path replaced
by a placeholder). The first differing file is printed, and the exit
status is 1 if any file differs, 0 if none does. Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "data"


def _runs():
    """(name, spinloc arguments) of every run, outputs under ``out/<name>``."""
    runs = [("simulate", ["simulate", "data/truth_example.txt"])]
    for fmt in ("json", "text"):
        runs += [(f"calibrate_{fmt}", ["calibrate", "data/odmr_example.txt",
                                       "--format", fmt]),
                 (f"dft_{fmt}", ["dft-residuals", "data/dft_couplings_example.txt",
                                 "--format", fmt])]
        for fix in ("auto", "0", "free"):
            runs.append((f"localize_{fix}_{fmt}",
                         ["localize", "data/measurements_example.txt",
                          "--samples", "4000", "--seed", "3",
                          "--fix-a-iso", fix, "--format", fmt]))
    return runs


def _src(tree: str) -> Path:
    path = Path(tree).resolve()
    src = path / "src" if (path / "src" / "spinloc").is_dir() else path
    if not (src / "spinloc").is_dir():
        sys.exit(f"error: no spinloc package under {tree}")
    return src


def _outputs(src: Path, work: Path) -> dict[str, bytes]:
    """{relative path: bytes} of every file the runs write, plus each run's
    exit status and output streams."""
    shutil.copytree(DATA, work / "data")
    env = {k: v for k, v in os.environ.items() if k != "SPINLOC_CONFIG"}
    env["PYTHONPATH"] = str(src)
    files = {}
    for name, args in _runs():
        out = Path("out") / name
        proc = subprocess.run([sys.executable, "-m", "spinloc.cli", *args,
                               "--out", str(out)], cwd=work, env=env,
                              capture_output=True)
        log = (f"exit {proc.returncode}\n".encode() + proc.stdout + b"\n--\n"
               + proc.stderr.replace(os.fsencode(src), b"<src>"))
        files[f"{name}.log"] = log
        for path in sorted((work / out).rglob("*")):
            if path.is_file():
                files[path.relative_to(work).as_posix()] = path.read_bytes()
    return files


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    old_src, new_src = map(_src, argv)
    with tempfile.TemporaryDirectory() as tmp:
        old = _outputs(old_src, Path(tmp, "old"))
        new = _outputs(new_src, Path(tmp, "new"))
    differ = [name for name in sorted(old.keys() | new.keys())
              if old.get(name) != new.get(name)]
    if differ:
        print(f"differs: {differ[0]} ({len(differ)} of "
              f"{len(old.keys() | new.keys())} files differ)")
        return 1
    print(f"identical: {len(old)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
