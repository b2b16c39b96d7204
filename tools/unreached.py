"""List the lines of src/qgs that the test suite never runs.

Runs pytest in this process under sys.settrace, tracing only the frames
whose code lives in src/qgs, and prints, for each module, the executable
lines (those its compiled code objects map bytecode to, by co_lines) that
no test reached.  Standard library only, besides pytest itself:

    python tools/unreached.py            # the whole suite
    python tools/unreached.py -k cli     # extra arguments go to pytest

The trace makes the suite about three times slower.  Lines run only in a
child process (a test that starts `python -m qgs.cli`) count as unreached.
"""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qgs"


def executable_lines(path):
    """Line numbers that carry bytecode in the module at path, nested code included."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def _ranges(lines):
    """'3, 7-9' for {3, 7, 8, 9}."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def run_traced(pytest_args):
    """Run pytest under the trace; return its exit code and the lines run per file."""
    import pytest

    ran, inside = {}, {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = Path(name).resolve().parent == PACKAGE
        if not inside[name]:
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_path = {}
    for name, lines in ran.items():
        by_path.setdefault(Path(name).resolve(), set()).update(lines)
    return code, by_path


def main(argv=None):
    args = list(sys.argv[1:] if argv is None else argv)
    code, ran = run_traced(args or [str(ROOT / "tests")])
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missing = executable_lines(path) - ran.get(path, set())
        total += len(missing)
        if missing:
            print(f"{path.relative_to(ROOT)}: {_ranges(missing)}")
    print(f"{total} executable lines in {PACKAGE.relative_to(ROOT)} never ran")
    return code


if __name__ == "__main__":
    sys.exit(main())
