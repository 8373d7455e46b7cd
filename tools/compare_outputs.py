"""Check that two source trees write the same bytes on the example inputs.

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC

Each argument is a checkout (a directory holding ``src/spinloc``) or its
``src`` directory. For each tree the script copies this repository's
``data/`` into a fresh work directory and runs, from there and with the
same relative paths, ``spinloc simulate``, ``calibrate``,
``dft-residuals`` and ``localize`` on the example files: ``calibrate`` and
``dft-residuals`` in both report formats, ``localize`` at ``--samples 4000
--seed 3`` under ``--fix-a-iso auto``, ``0`` and ``free`` in both report
formats. With a config file that sets ``gamma_n`` and adds one frame by
its axis, it runs ``calibrate`` (with that frame as ``--target``) and
``localize --samples 4000 --seed 3`` once more. It also writes its own
truth file of five nuclei under the example's three coil fields, three of
them beyond 10 A and one near the axis, and runs ``simulate`` on it and
``localize --samples 4000 --seed 3 --fix-a-iso auto`` on the result, so
that one lane pool solves fixed and free a_iso samples together, samples
at linear starts and at the point fit, once with the default
``--parallel`` and once with ``--parallel 3``. On the example truth file
with every ``[noise]`` sigma 0, the one input on which ``simulate`` writes
its sigma floors, it runs ``simulate`` and ``localize --samples 4000
--seed 3`` as well. On the example measurements file with a copy of its
nucleus, under a second label, that lacks the last record, it runs
``localize --samples 4000 --seed 3`` so that one run solves two lane
pools, one per record count. Every file a command writes is compared
byte for byte, and so are its exit status, standard output and standard
error (with the source path replaced by a placeholder). Every differing
file is printed, a JSON file with the first key path at which the two
differ, and the exit status is 1 if any file differs, 0 if none does.
Standard library only.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "data"

# (label, r_A, theta_deg, phi_deg, a_iso_kHz): the last three lie beyond the
# 10 A at which ``--fix-a-iso auto`` fixes a_iso = 0; N5, near the axis,
# has a zero sensitivity matrix, so its samples start at the point fit
MULTI_NUCLEI = (("N1", 7.5, 40, 100, 12), ("N2", 9.0, 70, 300, -6),
                ("N3", 11.5, 35, 20, 0), ("N4", 13.0, 65, 190, 0),
                ("N5", 11.0, 8, 300, -8))

# a config with both sections: gamma_n inside its band, and one frame
# given by its crystal axis
CONFIG = "constants:\n  gamma_n: 10.6e6\nframes:\n  probe:\n    axis: [1, -1, -1]\n"


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
    runs += [("calibrate_config", ["calibrate", "data/odmr_example.txt",
                                   "--config", "data/config.yaml", "--target", "probe"]),
             ("localize_config", ["localize", "data/measurements_example.txt",
                                  "--samples", "4000", "--seed", "3",
                                  "--config", "data/config.yaml"]),
             ("simulate_multi", ["simulate", "data/truth_multi.txt"]),
             ("localize_multi", ["localize", "out/simulate_multi/measurements.txt",
                                 "--samples", "4000", "--seed", "3",
                                 "--fix-a-iso", "auto"]),
             ("localize_multi_parallel3",
              ["localize", "out/simulate_multi/measurements.txt", "--samples", "4000",
               "--seed", "3", "--fix-a-iso", "auto", "--parallel", "3"]),
             ("simulate_exact", ["simulate", "data/truth_exact.txt"]),
             ("localize_exact", ["localize", "out/simulate_exact/measurements.txt",
                                 "--samples", "4000", "--seed", "3"]),
             ("localize_two_pools", ["localize", "data/measurements_two_pools.txt",
                                     "--samples", "4000", "--seed", "3"])]
    return runs


def _multi_truth() -> str:
    """The example truth file with its one nucleus replaced by
    MULTI_NUCLEI, under the same fields, noise and seed."""
    text = (DATA / "truth_example.txt").read_text()
    nuclei = "".join(f"[nucleus {label}]\nr_A = {r}\ntheta_deg = {theta}\n"
                     f"phi_deg = {phi}\na_iso_kHz = {a_iso}\n\n"
                     for label, r, theta, phi, a_iso in MULTI_NUCLEI)
    return "kind = truth\nversion = 1\n\n" + nuclei + text[text.index("[fields"):]


def _two_pool_measurements() -> str:
    """The example measurements file with a second nucleus: C1 copied as C2
    without its last record."""
    text = (DATA / "measurements_example.txt").read_text()
    body = text[text.index("[nucleus C1]"):]
    return text + "\n" + body[:body.rindex("[record")].replace(" C1", " C2")


def _exact_truth() -> str:
    """The example truth file with every key of its [noise] section 0."""
    lines, section = [], ""
    for line in (DATA / "truth_example.txt").read_text().splitlines():
        if line.startswith("["):
            section = line
        elif section == "[noise]" and "=" in line:
            line = line.partition("=")[0] + "= 0"
        lines.append(line)
    return "\n".join(lines) + "\n"


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
    (work / "data" / "truth_multi.txt").write_text(_multi_truth())
    (work / "data" / "truth_exact.txt").write_text(_exact_truth())
    (work / "data" / "measurements_two_pools.txt").write_text(_two_pool_measurements())
    (work / "data" / "config.yaml").write_text(CONFIG)
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


def _first_difference(old, new, path="$"):
    """The key path of the first place where two JSON values differ, keys in
    sorted order, with the two values there; None where they are equal."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            if key not in old or key not in new:
                return f"{path}.{key} is only in {'old' if key in old else 'new'}"
            found = _first_difference(old[key], new[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(old, list) and isinstance(new, list):
        for k, (a, b) in enumerate(zip(old, new)):
            found = _first_difference(a, b, f"{path}[{k}]")
            if found:
                return found
        return (None if len(old) == len(new)
                else f"{path} has {len(old)} items, then {len(new)}")
    return None if old == new else f"{path}: {old!r}, then {new!r}"


def _describe(name: str, old, new) -> str:
    """One line naming a differing file, with a JSON file's first
    difference."""
    if old is None or new is None:
        return f"  {name}: only in {'new' if old is None else 'old'}"
    if not name.endswith(".json"):
        return f"  {name}"
    try:
        old, new = json.loads(old), json.loads(new)
    except ValueError:
        return f"  {name}: not JSON"
    return f"  {name}: {_first_difference(old, new) or 'same value, other bytes'}"


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
        print(f"{len(differ)} of {len(old.keys() | new.keys())} files differ:")
        for name in differ:
            print(_describe(name, old.get(name), new.get(name)))
        return 1
    print(f"identical: {len(old)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
