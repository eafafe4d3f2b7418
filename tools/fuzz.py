"""Run aek's commands on seeded random surface specs and check how each
run ends.

    python tools/fuzz.py [--specs N] [--seed S]

Spec number k is drawn from ``random.Random(k)``, for k = S .. S+N-1
(default S = 1, N = 40), so a spec is named by its seed alone:

- a Hessian at the patch centre with eigenvalues from about 1e-3 to
  1e3, log-uniform, along an axis turned by a Pythagorean angle;
- terms of each degree from 3 up to a random top degree of at most 8,
  each present with probability 1/2, with a random sign and a
  magnitude log-uniform from 1e-12 up to the spec's own cap, itself
  log-uniform from 1e-12 to 1e12;
- a square patch from 1e-6 to 1 wide, log-uniform, centred in
  [-1/2, 1/2]^2;
- rational mode in 30% of specs, which take the floats' exact values.

Each spec runs ``normalize`` and ``invariants`` (along a random angle)
at the patch centre and ``evolute --grid 4 --workers 1``, in this
process through ``aek.cli.main``.  A run passes when no exception
escapes ``main``, its exit code is 0, 1 or 2, and every sample that
``evolute`` lists as failed has status ``non_convex`` or ``error`` and a
non-empty message.  The script prints one line per run that does not
pass and a summary line, and exits 1 if any run did not pass.  It needs
only the standard library and ``src/``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import random
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from aek import cli  # noqa: E402
from aek.jets import Jet2  # noqa: E402

#: the exit codes a run may end with: success, usage or spec error,
#: geometric precondition failure
EXIT_CODES = (0, 1, 2)
#: the statuses of a failed evolute sample
FAILURE_STATUSES = ("non_convex", "error")
GRID = 4


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def draw_spec(seed: int) -> tuple[dict, str, str]:
    """The spec of one seed, with the chart point (the patch centre)
    and the direction (an angle in radians) that ``normalize`` and
    ``invariants`` use.

    The height is drawn around the patch centre and moved to the chart
    by an exact shift.  Its Hessian there is R diag(p^2, q^2) R^T, with
    p and q rational and R a rotation by a Pythagorean pair, so that a
    rational spec normalizes exactly at the centre."""
    rng = random.Random(seed)
    mode = "rational" if rng.random() < 0.3 else "float"
    p, q = (Fraction(math.sqrt(_log_uniform(rng, 1e-3, 1e3)))
            .limit_denominator(1000) for _ in range(2))
    m, n = rng.randint(1, 9), rng.randint(0, 9)
    r = m * m + n * n
    c, s = Fraction(m * m - n * n, r), Fraction(2 * m * n, r)
    local = {(2, 0): (c * c * p * p + s * s * q * q) / 2,
             (1, 1): c * s * (p * p - q * q),
             (0, 2): (s * s * p * p + c * c * q * q) / 2}
    top = _log_uniform(rng, 1e-12, 1e12)
    for degree in range(3, rng.randint(3, 8) + 1):
        for i in range(degree + 1):
            if rng.random() < 0.5:
                local[i, degree - i] = Fraction(
                    rng.choice((-1, 1)) * _log_uniform(rng, 1e-12, top))
    width = Fraction(_log_uniform(rng, 1e-6, 1.0))
    centre = tuple(Fraction(rng.uniform(-0.5, 0.5)) for _ in range(2))
    height = Jet2.from_terms(local, max(i + j for i, j in local), mode)
    height = height.shifted(tuple(-x for x in centre))
    angle = repr(rng.uniform(-math.pi, math.pi))

    def number(value):
        return str(value) if mode == "rational" else float(value)

    spec = {
        "coefficients": {f"{i},{j}": number(v)
                         for (i, j), v in height.terms()},
        "patch": [number(x + side * width / 2)
                  for x in centre for side in (-1, 1)],
        "mode": mode,
    }
    return spec, ",".join(str(number(x)) for x in centre), angle


def _run(argv) -> tuple:
    """(exit code, stdout) of ``aek.cli.main`` on ``argv``, or (None,
    the traceback) when an exception escapes it."""
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception:
        return None, traceback.format_exc()
    return code, out.getvalue()


def check_spec(seed: int) -> list[str]:
    """The problems of the three runs on the spec of ``seed``: one line
    each, empty when every run passes."""
    spec, point, angle = draw_spec(seed)
    problems = []
    with tempfile.TemporaryDirectory(prefix="aek-fuzz-") as tmp:
        path = str(Path(tmp) / f"fuzz_{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        for argv in (
                ["normalize", "--spec", path, "--point", point],
                ["invariants", "--spec", path, "--point", point,
                 "--direction", angle],
                ["evolute", "--spec", path, "--grid", str(GRID),
                 "--workers", "1", "--out", tmp]):
            name = f"seed {seed}: {argv[0]}"
            code, out = _run(argv)
            if code is None:
                problems.append(f"{name}: exception escaped main\n{out}")
            elif code not in EXIT_CODES:
                problems.append(f"{name}: exit {code}")
            elif argv[0] == "evolute" and code == 0:
                for failure in json.loads(out)["results"]["failures"]:
                    if (failure["status"] not in FAILURE_STATUSES
                            or not failure["message"]):
                        problems.append(f"{name}: failure {failure}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--specs", type=int, default=40)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    seeds = range(args.seed, args.seed + args.specs)
    problems = [line for seed in seeds for line in check_spec(seed)]
    for line in problems:
        print(line)
    print(f"{len(seeds)} specs, {3 * len(seeds)} runs, "
          f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
