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

A command whose bytes differ gets a second report, on the next line:
the parts that must match exactly (statuses, counts, branch ids,
``regular_flag``, messages and every other non-float value of the CSV,
OBJ and JSON outputs, and the root count at each grid point), named
when they differ, and the largest relative change of each float
quantity, taken against the largest magnitude that quantity has.  It
tells round-off apart from a changed result; the exit code stays that
of the byte check.  Each exact CSV column that differs then gets a line
of its own: the number of rows it differs in, and the first three as
(u, v, theta) of REV's row.

Only the standard library is used, and every file goes to a temporary
directory.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (file name, source, rotation in rad) of the spec inputs; the source
#: is a file under ``specs/`` or the spec body itself
SPECS = (
    ("paraboloid.json", "paraboloid.json", None),
    ("cubic_six.json", "cubic_six.json", None),
    ("sphere.json", "sphere.json", None),
    ("cubic_six_turned.json", "cubic_six.json", 0.77),
    # finite coefficients whose frames overflow floats on the column
    # u = 0; at v = 0 off that column the centers sit at z = 1e300
    ("huge_float.json", {
        "coefficients": {"2,0": 0.5, "0,2": 0.5, "3,0": 1e160,
                         "4,0": 1e300, "0,4": 1e300},
        "patch": [-1, 1, -1, 1], "mode": "float"}, None),
    ("huge_rational.json", {
        "coefficients": {"2,0": "1/2", "0,2": "1/2", "3,0": "1e200",
                         "4,0": "1e300"},
        "patch": [-1, 1, -1, 1], "mode": "rational"}, None),
    # normalized cubic about 3e-10 and quartic about 1e-18: the Hessian
    # step scales the parts of each degree across 28 orders of magnitude
    ("small_sextic.json", {
        "coefficients": {"2,0": 0.5, "0,2": 0.5, "3,0": 1e8, "4,0": 1e17},
        "patch": [-1, 1, -1, 1], "mode": "float"}, None),
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
    # fails its curvature-center-match check (exit 3) by a gap that the
    # section route's round-off feeds
    "verify --spec paraboloid.json --mode rational --seed 712893122",
    "verify --spec paraboloid.json --mode float --seed 7",
    "verify --spec cubic_six.json --point 0.01,0.02 --seed 3",
    "normalize --spec paraboloid.json --mode rational --point 1/3,1/7",
    "invariants --spec paraboloid.json --mode rational --point 1/3,1/7",
    "normalize --spec cubic_six.json --point 0.02,-0.01",
    "invariants --spec cubic_six.json --point 0.02,-0.01 --direction 0.7",
    # axis turns, whose zero entries the rotation skips
    "invariants --spec cubic_six.json --point 0.02,-0.01 --direction 0,1",
    "invariants --spec cubic_six.json --point 0.02,-0.01 --direction=-1,0",
    "invariants --spec cubic_six.json --point 0.02,-0.01 --direction 3,4",
    # float section jets with zero slots: at the origin b = 0, so the
    # section along direction 0 scales its jet by lambda = 6b = 0; along
    # direction 2.0, lambda is about -1.676
    "invariants --spec cubic_six.json --point 0,0 --direction 0",
    "invariants --spec cubic_six.json --point 0,0 --direction 2.0",
    "normalize --spec sphere.json --point 0.02,-0.01",
    # a dense shift, off both axes
    "normalize --spec sphere.json --point=-0.031,0.047",
    "invariants --spec sphere.json --point 0.02,-0.01 --direction 0.7",
    "evolute --spec cubic_six.json --grid 21 --regularity fast --workers 1",
    "evolute --spec cubic_six.json --grid 21 --regularity fast --workers 2",
    "evolute --spec cubic_six_turned.json --grid 11 --regularity fast "
    "--workers 1",
    "evolute --spec cubic_six.json --grid 11 --regularity off --workers 1",
    "evolute --spec sphere.json --grid 9 --regularity fast --workers 1",
    "evolute --spec sphere.json --grid 9 --regularity off --workers 1",
    "evolute --spec sphere.json --grid 21 --regularity off --workers 1",
    "evolute --spec paraboloid.json --grid 9 --workers 1",
    "evolute --spec huge_float.json --grid 3 --workers 1",
    "evolute --spec huge_rational.json --grid 3 --workers 1",
    "evolute --spec small_sextic.json --grid 5 --workers 1",
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


#: CSV columns that hold labels or flags, not measurements
EXACT_COLUMNS = ("branch_id", "regular_flag")


class Changes:
    """The float pairs of each quantity, and the exact parts that
    differ, over the outputs of one command on both trees."""

    def __init__(self):
        self.pairs = {}
        self.mismatched = set()
        #: exact CSV column -> (u, v, theta) of the REV rows it differs in
        self.rows = {}

    def add_float(self, name: str, a: float, b: float) -> None:
        self.pairs.setdefault(name, []).append((a, b))

    def exact(self, name: str, a, b) -> None:
        if a != b or type(a) is not type(b):
            self.mismatched.add(name)

    def walk(self, a, b, path: str = "") -> None:
        """Pair the floats of two JSON values; everything else,
        structure included, must match exactly."""
        if isinstance(a, float) and isinstance(b, float):
            self.add_float(path, a, b)
        elif (isinstance(a, dict) and isinstance(b, dict)
              and list(a) == list(b)):
            for key in a:
                self.walk(a[key], b[key], f"{path}.{key}" if path else key)
        elif (isinstance(a, list) and isinstance(b, list)
              and len(a) == len(b)):
            for x, y in zip(a, b):
                self.walk(x, y, path + "[]")
        else:
            self.exact(path or "document", a, b)

    def add_csv(self, a: str, b: str) -> None:
        rows_a, rows_b = (list(csv.DictReader(io.StringIO(t)))
                          for t in (a, b))
        self.exact("csv rows", len(rows_a), len(rows_b))
        self.exact("csv root counts", *(
            Counter((r.get("u"), r.get("v")) for r in rows)
            for rows in (rows_a, rows_b)))
        for ra, rb in zip(rows_a, rows_b):
            self.exact("csv columns", list(ra), list(rb))
            for col in ra.keys() & rb.keys():
                if col in EXACT_COLUMNS or ra[col] == rb[col] == "":
                    self.exact(f"csv {col}", ra[col], rb[col])
                    if ra[col] != rb[col]:
                        self.rows.setdefault(f"csv {col}", []).append(
                            tuple(ra.get(k) for k in ("u", "v", "theta")))
                else:
                    self.add_float(f"csv {col}", float(ra[col]),
                                   float(rb[col]))

    def add_obj(self, a: str, b: str) -> None:
        lines_a, lines_b = a.splitlines(), b.splitlines()
        self.exact("obj lines", len(lines_a), len(lines_b))
        for la, lb in zip(lines_a, lines_b):
            head_a, *rest_a = la.split()
            head_b, *rest_b = lb.split()
            if head_a == head_b == "v" and len(rest_a) == len(rest_b):
                for x, y in zip(rest_a, rest_b):
                    self.add_float("obj v", float(x), float(y))
            else:
                self.exact(f"obj {head_a}", la, lb)

    def add_text(self, name: str, a: str, b: str) -> None:
        if name.endswith(".csv"):
            self.add_csv(a, b)
        elif name.endswith(".obj"):
            self.add_obj(a, b)
        else:
            try:
                docs = json.loads(a), json.loads(b)
            except ValueError:
                self.exact(name, a, b)
            else:
                self.walk(*docs)

    def largest(self) -> dict:
        """Quantity -> largest |a - b| over the largest |a| or |b|."""
        out = {}
        for name, pairs in self.pairs.items():
            scale = max(max(abs(a), abs(b)) for a, b in pairs)
            worst = max(abs(a - b) for a, b in pairs)
            out[name] = worst / scale if worst else 0.0
        return out

    def summary(self) -> str:
        changed = {k: v for k, v in self.largest().items() if v}
        text = ("exact parts differ: " + ", ".join(sorted(self.mismatched))
                if self.mismatched else "exact parts identical")
        return text + "; largest relative change: " + (", ".join(
            f"{k} {v:.1e}" for k, v in sorted(changed.items())) or "none")

    def row_lines(self) -> list:
        """One line per exact CSV column that differs: the number of
        rows it differs in, and the first three as (u, v, theta)."""
        lines = []
        for name, rows in sorted(self.rows.items()):
            first = ", ".join(f"({', '.join(map(str, r))})"
                              for r in rows[:3])
            lines.append(f"{name}: {len(rows)} row(s) differ, first as "
                         f"(u, v, theta): {first}")
        return lines


def close_report(outs, stdouts) -> Changes:
    """The second report on one command: its stdouts and every file
    its two runs wrote under ``outs``."""
    changes = Changes()
    changes.add_text("stdout", *(s.decode() for s in stdouts))
    for name in differing_files(*outs):
        texts = [(top / name).read_text() if (top / name).exists() else ""
                 for top in outs]
        changes.add_text(name, *texts)
    return changes


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
            if found:
                changes = close_report(outs, (out_a, out_b))
                changes.exact("exit code", code_a, code_b)
                for line in [changes.summary(), *changes.row_lines()]:
                    print(f"    {line}", flush=True)
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
