"""Run one ``aek`` command in a fresh interpreter, as the console script does.

    python3 perfbench/launch.py SIDECAR [--trace] -- <aek arguments>
    python3 perfbench/launch.py --setup SPEC

The first form calls ``aek.cli.main`` with the given arguments and, when
it returns, writes SIDECAR: the exit code and the CPU time of the
processes the command started and reaped (its pool workers).  With
``--trace`` it installs the span tracer first and adds the spans.

The second form does the command's set-up and nothing else: import
``aek``, ``load_spec`` and ``build_surface`` (with its convexity
screen).  Its wall time, taken by the caller, is ``setup_s``.
"""

from __future__ import annotations

import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _setup(spec_path: str) -> int:
    from aek.cli import build_surface, load_spec

    build_surface(load_spec(spec_path))
    return 0


def _run(sidecar: str, trace: bool, argv: list) -> int:
    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from aek.cli import main

    code = main(argv)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    info = {
        "exit_code": code,
        "children_cpu_s": children.ru_utime + children.ru_stime,
    }
    if tracer is not None:
        info["trace"] = tracer.report()
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(info, fh)
    return code


def main(argv: list) -> int:
    if len(argv) == 2 and argv[0] == "--setup":
        return _setup(argv[1])
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    head, rest = argv[:split], argv[split + 1:]
    if not head or head[1:] not in ([], ["--trace"]):
        print(__doc__, file=sys.stderr)
        return 2
    return _run(head[0], head[1:] == ["--trace"], rest)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
