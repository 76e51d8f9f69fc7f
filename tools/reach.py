"""List what of ``src/slowfast`` no entry point reaches.

    python3 tools/reach.py

Entry points are the CLI commands with ``verify`` (``tests/test_cli.py``),
the acceptance criteria (``tests/test_acceptance.py``) and the benchmark
workloads: ``levy-tanh`` at full scale and ``weak-limit`` at smoke scale,
seed 3, which still splits its batches across forked workers.  All run in
this process under a ``sys.settrace`` line tracer limited to the package's
files (``coverage`` is not needed); a forked worker's lines are lost, but
the parent steps the first range of paths through the same lines.

Prints the functions never run, then for each function run in part its
unreached lines.  A lambda or comprehension counts as part of the function
that holds it.  Input-validation branches show up as unreached lines; read
them before deleting anything.  Ends with the package's size: its count of
non-blank lines that are not ``#`` comments.  Takes under a minute on two
cores.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "slowfast")
SEED = 3


def _trace(hits):
    """A global trace function recording (file, line) of package frames."""

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE + os.sep):
            return local
        return None

    return call


def _run_entry_points():
    """Every entry point, in this process; returns the failures seen."""
    import pytest

    failures = []
    with contextlib.redirect_stdout(io.StringIO()):
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            os.path.join(ROOT, "tests", "test_acceptance.py"),
                            os.path.join(ROOT, "tests", "test_cli.py")])
    if code != 0:
        failures.append(f"pytest exited {code}")
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from workloads import WORKLOADS

    for name, scale in (("levy-tanh", "full"), ("weak-limit", "smoke")):
        w = WORKLOADS[name]
        with contextlib.redirect_stdout(io.StringIO()):
            out = w.run(w.setup(SEED, w.params[scale]))
        failures += [f"{name}: {check}" for check, ok, _, _ in out.checks if not ok]
    return failures


def _functions(path):
    """(qualified name, first line) -> executable lines of each function in
    a source file, with nested lambdas and comprehensions folded in."""
    with open(path) as fh:
        module = compile(fh.read(), path, "exec")
    out = {}

    def walk(code, owner):
        if owner is None or not code.co_name.startswith("<"):
            owner = (code.co_qualname, code.co_firstlineno)
            out[owner] = set()
        # a function's own first line is its ``def`` and a module's line 0
        # its start, neither a line event
        out[owner] |= {line for _, _, line in code.co_lines()
                       if line and (code is module or line != code.co_firstlineno)}
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, owner)

    walk(module, None)
    return out


def _ranges(lines):
    """Sorted line numbers as a compact text, runs joined with '-'."""
    spans, lines = [], sorted(lines)
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in spans)


def _line_count():
    """Non-blank lines of the package's sources that are not ``#`` comments."""
    count = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                count += sum(1 for line in fh
                             if line.strip() and not line.lstrip().startswith("#"))
    return count


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    hits = set()
    tracer = _trace(hits)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        failures = _run_entry_points()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    never, partly = [], []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        for (qualname, first), lines in sorted(_functions(path).items(),
                                               key=lambda kv: kv[0][1]):
            missed = {line for line in lines if (path, line) not in hits}
            if missed == lines and lines:
                never.append(f"  {name}:{first} {qualname}")
            elif missed:
                partly.append(f"  {name}:{first} {qualname}: {_ranges(missed)}")
    print("never run:", *never, sep="\n")
    print("unreached lines:", *partly, sep="\n")
    print(f"size: {_line_count()} non-blank, non-comment lines in src/slowfast")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
