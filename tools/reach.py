#!/usr/bin/env python3
"""List the functions of a source tree's ``src/fracmap`` that nothing reaches.

    python3 tools/reach.py TREE      (about 15 s on a 2-vCPU host)

"Reaching" means running under one of two drivers:

* ``tools/cli_tree.sh TREE OUT``, the end-to-end CLI pipeline, into a
  temporary OUT. Its ``python3`` calls go through a shim on ``PATH`` that
  runs the module under this script's tracer;
* each perfbench workload of TREE: one ``setup``, one ``op`` and its
  ``check``, at seed 1, in this process.

Calls are recorded with ``sys.settrace``, and on threads started while
tracing, such as the row-part pool's, with ``threading.settrace`` (standard
library only; Python 3.11 or later, for ``co_qualname``). The output names
every function, method and lambda defined in ``TREE/src/fracmap`` that never
ran, one per line with its line count, and then the totals. A function nested inside
one that never ran is not listed separately. Exits 1 when a driver fails
or a workload check reports a problem, since the list would then be
incomplete.
"""

from __future__ import annotations

import atexit
import inspect
import json
import os
import runpy
import shlex
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 1


def _record_calls(package_dir: str, hits_file: Path):
    """Trace every call from now on; the returned function stops tracing and
    appends the calls into ``package_dir`` to ``hits_file``."""
    seen = set()

    def tracer(frame, event, arg):
        seen.add(frame.f_code)

    def dump():
        sys.settrace(None)
        threading.settrace(None)
        rows = [
            [os.path.realpath(c.co_filename), c.co_firstlineno, c.co_qualname]
            for c in seen
            if os.path.realpath(c.co_filename).startswith(package_dir)
        ]
        with open(hits_file, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rows) + "\n")

    sys.settrace(tracer)
    threading.settrace(tracer)
    return dump


def _child(hits_file: str, argv: list) -> None:
    """Stand-in for ``python3 -m MODULE ARGS...`` that records its calls."""
    if len(argv) < 2 or argv[0] != "-m":
        sys.exit(f"reach: the python3 shim handles only '-m MODULE', got {argv}")
    package_dir = os.environ["REACH_PACKAGE_DIR"]
    atexit.register(_record_calls(package_dir, Path(hits_file)))
    sys.argv = [argv[1], *argv[2:]]
    runpy.run_module(argv[1], run_name="__main__", alter_sys=True)


def _run_cli_tree(tree: Path, package_dir: str, hits: Path, work: Path) -> None:
    shim_dir = work / "bin"
    shim_dir.mkdir()
    shim = shim_dir / "python3"
    shim.write_text(
        "#!/bin/sh\n"
        f"exec {shlex.quote(sys.executable)} {shlex.quote(str(Path(__file__).resolve()))} "
        f"--child {shlex.quote(str(hits))} \"$@\"\n"
    )
    shim.chmod(0o755)
    env = dict(os.environ, PATH=f"{shim_dir}{os.pathsep}{os.environ['PATH']}")
    env["REACH_PACKAGE_DIR"] = package_dir
    subprocess.run(["sh", str(HERE / "cli_tree.sh"), str(tree), str(work / "out")], env=env, check=True)


def _run_workloads(tree: Path, package_dir: str, hits: Path, work: Path) -> list:
    """One setup, op and check per perfbench workload; returns the checks' problems."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads, as perfbench pins it
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    dump = _record_calls(package_dir, hits)
    try:
        import workloads

        problems = []
        for name, cls in sorted(workloads.WORKLOADS.items()):
            ds, model = workloads.setup(SEED, work / name)
            workload = cls(ds, model, SEED, work / name)
            problems += [f"{name}: {p}" for p in workload.check(0, workload.op(0))]
    finally:
        dump()
    return problems


def _functions(code):
    """The function code objects defined directly in ``code`` or in its class bodies."""
    for const in code.co_consts:
        if not hasattr(const, "co_code"):
            continue
        if not const.co_flags & inspect.CO_NEWLOCALS:  # a class body: its methods
            yield from _functions(const)
        elif not const.co_name.startswith("<") or const.co_name == "<lambda>":
            yield const  # a def or a lambda, not a comprehension


def _unreached(code, reached, path):
    for fn in _functions(code):
        if (path, fn.co_firstlineno, fn.co_qualname) not in reached:
            last = max(line for _, _, line in fn.co_lines() if line is not None)
            yield fn.co_firstlineno, fn.co_qualname, last - fn.co_firstlineno + 1
        else:
            yield from _unreached(fn, reached, path)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        _child(argv[1], argv[2:])
        return 0
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    tree = Path(argv[0]).resolve()
    package = tree / "src" / "fracmap"
    package_dir = os.path.realpath(package) + os.sep
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        work = Path(tmp)
        hits = work / "hits.jsonl"
        _run_cli_tree(tree, package_dir, hits, work)
        problems = _run_workloads(tree, package_dir, hits, work)
        reached = {
            tuple(row) for line in hits.read_text().splitlines() for row in json.loads(line)
        }

    total_fns = total_lines = 0
    for path in sorted(package.glob("*.py")):
        real = os.path.realpath(path)
        module = compile(path.read_text(encoding="utf-8"), real, "exec")
        for line, qualname, n_lines in _unreached(module, reached, real):
            print(f"{path.name}:{line} {qualname} ({n_lines} lines)")
            total_fns += 1
            total_lines += n_lines
    print(f"{total_fns} functions never ran, {total_lines} lines")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
