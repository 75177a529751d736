"""List the statement lines of ``src/npa`` that the benchmark's workloads
and the demos never run.

    python tools/line_probe.py

Run from the root of a source checkout. Every workload of
``benchmarks/workloads.py`` runs for about ``SECONDS`` with the
benchmark's untraced ``tracing.NullTracer``, then every demo runs in
this process (06 walks through the CLI), all under a line tracer on every
thread (``sys.settrace`` and ``threading.settrace``). The package is
imported under the tracer too, so module-level lines count. A line
is listed when a statement starts on it, the interpreter can stop on it,
and it never ran; ``raise`` statements are left out as error paths.
Nothing under ``benchmarks/`` is changed, and the exit code is 0
whatever the probe finds.
"""

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "npa"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SECONDS = 0.5  # timed seconds per workload

sys.dont_write_bytecode = True  # leave no cache files under benchmarks/
sys.path.insert(0, str(ROOT / "benchmarks"))
import run as bench_run  # noqa: E402  (pins BLAS before numpy loads)

ran = set()  # (file name, line) pairs that ran
_prefix = str(SRC) + os.sep


def _line(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    """Trace the lines of npa's own frames only."""
    return _line if frame.f_code.co_filename.startswith(_prefix) else None


def _code_lines(code):
    """Every line number an instruction of code, or of a code object nested
    in it, carries."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def unreached(path):
    """The lines of path that start a statement other than raise, can stop
    the interpreter and did not run."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    starts = {node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.stmt) and not isinstance(node, ast.Raise)}
    runnable = _code_lines(compile(text, str(path), "exec"))
    return sorted(n for n in starts & runnable if (str(path), n) not in ran)


def main():
    threading.settrace(_call)
    sys.settrace(_call)
    try:
        npa = bench_run.load_npa(ROOT)
        import tracing
        import workloads
        with tempfile.TemporaryDirectory() as tmp:
            for name, w in sorted(workloads.WORKLOADS.items()):
                outcome = workloads.run(npa, w, 1, SECONDS, tracing.NullTracer(), Path(tmp))
                print(f"workload {name} correct {outcome.correct} failed {outcome.failed}",
                      flush=True)
            os.environ["TMPDIR"] = tmp
            tempfile.tempdir = None  # the demos' temporary files go under tmp
            for demo in DEMOS:
                with contextlib.redirect_stdout(io.StringIO()):
                    runpy.run_path(str(demo), run_name="__main__")
                print(f"demo {demo.name} done", flush=True)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = unreached(path)
        total += len(lines)
        source = path.read_text(encoding="utf-8").splitlines()
        for n in lines:
            print(f"{path.relative_to(ROOT)}:{n}: {source[n - 1].strip()}")
    print(f"unreached statement lines: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
