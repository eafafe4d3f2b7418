"""Check that a revision and the working tree give byte-identical outputs.

    python tools/same_outputs.py REV

Exports ``src/`` of the git revision REV with ``git archive`` into a
temporary directory, then runs a fixed list of ``aek`` commands
(``python -m aek.cli``) once against that copy and once against the
working tree's ``src/``, each with its own ``src`` first on
``PYTHONPATH``.  Both runs read the same spec files.  For every command
it compares the exit code, stdout and every file the command writes,
byte for byte; stderr is not compared, since it carries the timing.  It
prints one line per command and exits 1 on any difference.

Only the standard library is used, and every file goes to a temporary
directory.
"""

from __future__ import annotations

import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (file name, source, rotation in rad) of the spec inputs; the source
#: is a file under ``specs/`` or the spec body itself
SPECS = (
    ("paraboloid.json", "paraboloid.json", None),
    ("cubic_six.json", "cubic_six.json", None),
    ("sphere.json", "sphere.json", None),
    ("cubic_six_turned.json", "cubic_six.json", 0.77),
    # finite coefficients whose frames overflow floats, some of them in
    # the center solve's rank test
    ("huge_float.json", {
        "coefficients": {"2,0": 0.5, "0,2": 0.5, "3,0": 1e160,
                         "4,0": 1e300, "0,4": 1e300},
        "patch": [-1, 1, -1, 1], "mode": "float"}, None),
    ("huge_rational.json", {
        "coefficients": {"2,0": "1/2", "0,2": "1/2", "3,0": "1e200",
                         "4,0": "1e300"},
        "patch": [-1, 1, -1, 1], "mode": "rational"}, None),
    # phi = v^2/2 + F(u), F'' = 1 - 1000 prod (u - c)^2 over
    # c in {0, +-0.4, +-0.8}: convex at the load screen's cell centres,
    # not at u = +-0.6 and u = +-1
    ("interior_pocket.json", {
        "coefficients": {"2,0": 0.5, "4,0": -0.8738133333333341,
                         "6,0": 5.461333333333336, "8,0": -15.08571428571429,
                         "10,0": 17.77777777777778,
                         "12,0": -7.575757575757575, "0,2": 0.5},
        "patch": [-1, 1, -1, 1]}, None),
)

#: the checked commands; the word after ``--spec`` names a file of SPECS
COMMANDS = (
    "verify --spec paraboloid.json --mode rational --seed 1",
    "verify --spec paraboloid.json --mode rational --seed 42",
    "verify --spec paraboloid.json --mode float --seed 7",
    "verify --spec cubic_six.json --point 0.01,0.02 --seed 3",
    "normalize --spec paraboloid.json --mode rational --point 1/3,1/7",
    "invariants --spec paraboloid.json --mode rational --point 1/3,1/7",
    "normalize --spec cubic_six.json --point 0.02,-0.01",
    "invariants --spec cubic_six.json --point 0.02,-0.01 --direction 0.7",
    "normalize --spec sphere.json --point 0.02,-0.01",
    "invariants --spec sphere.json --point 0.02,-0.01 --direction 0.7",
    "evolute --spec cubic_six.json --grid 21 --regularity fast --workers 1",
    "evolute --spec cubic_six.json --grid 21 --regularity fast --workers 2",
    "evolute --spec cubic_six_turned.json --grid 11 --regularity fast "
    "--workers 1",
    "evolute --spec cubic_six.json --grid 11 --regularity off --workers 1",
    "evolute --spec sphere.json --grid 9 --regularity fast --workers 1",
    "evolute --spec sphere.json --grid 9 --regularity off --workers 1",
    "evolute --spec paraboloid.json --grid 9 --workers 1",
    "evolute --spec huge_float.json --grid 3 --workers 1",
    "evolute --spec huge_rational.json --grid 3 --workers 1",
    "evolute --spec interior_pocket.json --grid 11 --workers 1",
    "evolute --spec interior_pocket.json --grid 11 --workers 2",
)


def write_specs(dest: Path) -> None:
    """The spec inputs under ``dest``, each written as JSON; the turned
    spec is rotated with the benchmark's own ``rotate_coefficients``."""
    found = importlib.util.spec_from_file_location(
        "_perfbench_run", ROOT / "perfbench" / "run.py")
    run = sys.modules[found.name] = importlib.util.module_from_spec(found)
    found.loader.exec_module(run)
    for name, source, phi in SPECS:
        body = (dict(source) if isinstance(source, dict)
                else json.loads((ROOT / "specs" / source).read_text()))
        if phi is not None:
            body["coefficients"] = run.rotate_coefficients(
                body["coefficients"], phi)
        (dest / name).write_text(json.dumps(body, indent=2))


def export_src(rev: str, dest: Path) -> Path | None:
    """``src/`` of git revision ``rev``, extracted under ``dest``, or
    None when git cannot export it."""
    git = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                          rev, "src"], capture_output=True)
    if git.returncode:
        print(git.stderr.decode(errors="replace").strip(), file=sys.stderr)
        return None
    with tarfile.open(fileobj=io.BytesIO(git.stdout)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def run_command(src: Path, command: str, specs: Path, out: Path):
    """(exit code, stdout) of one command run on ``src``, writing its
    files to the empty directory ``out``."""
    argv = command.split()
    spec_at = argv.index("--spec") + 1
    argv[spec_at] = str(specs / argv[spec_at])
    path = [str(src.resolve()), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-m", "aek.cli", *argv,
                           "--out", str(out)],
                          cwd=out, env=env, capture_output=True)
    return proc.returncode, proc.stdout


def differing_files(a: Path, b: Path) -> list:
    """Relative paths of the files that are in only one of the two
    directories, or whose bytes differ."""
    def listing(top):
        return {os.path.relpath(os.path.join(d, f), top)
                for d, _, files in os.walk(top) for f in files}

    names_a, names_b = listing(a), listing(b)
    return sorted(
        name for name in names_a | names_b
        if name not in names_a or name not in names_b
        or (a / name).read_bytes() != (b / name).read_bytes())


def compare(base_src: Path, new_src: Path, commands=COMMANDS) -> int:
    """Run every command on both trees, print one line per command and
    return the number of commands whose outputs differ."""
    differences = 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        specs = tmp / "specs"
        specs.mkdir()
        write_specs(specs)
        for n, command in enumerate(commands):
            outs = [tmp / f"{n}-base", tmp / f"{n}-new"]
            runs = []
            for src, out in zip((base_src, new_src), outs):
                out.mkdir()
                runs.append(run_command(src, command, specs, out))
            (code_a, out_a), (code_b, out_b) = runs
            found = []
            if code_a != code_b:
                found.append(f"exit {code_a} != {code_b}")
            if out_a != out_b:
                found.append("stdout")
            found += differing_files(*outs)
            differences += bool(found)
            verdict = "DIFFERENT" if found else "identical"
            detail = f" ({', '.join(found)})" if found else f" (exit {code_a})"
            print(f"{verdict}  {command}{detail}", flush=True)
    return differences


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python tools/same_outputs.py REV", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same-outputs-src-") as tmp:
        base = export_src(argv[0], Path(tmp))
        if base is None:
            return 2
        differences = compare(base, ROOT / "src")
    print(f"{len(COMMANDS) - differences} of {len(COMMANDS)} commands "
          f"identical")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
