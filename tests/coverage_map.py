"""The lines of `src/gtrees` that the tier-1 suite never runs, per module.

    PYTHONPATH=src python tests/coverage_map.py [pytest arguments]

Runs pytest on `tests/` (or on the arguments given) in this process under a
`sys.settrace` line collector, and prints, for each module of `src/gtrees`,
its executable lines, how many never ran, and those lines as ranges.  The
executable lines are the line starts of the module's code objects (minus a
function's own `def` line, which marks its entry and is never traced).  The
CLI tests that start subprocesses are not seen.  The map is a report: the
exit status is pytest's.  pytest does not collect this file.
"""

from __future__ import annotations

import dis
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gtrees"


def executable_lines(path: Path) -> set[int]:
    """The line starts of every code object compiled from path."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        # a module's code starts with an instruction at line 0
        starts = {line for _, line in dis.findlinestarts(code) if line}
        if code.co_name != "<module>":
            starts.discard(code.co_firstlineno)
        lines |= starts
        todo += [c for c in code.co_consts if hasattr(c, "co_code")]
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs, such as 3-5,9."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ",".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv: list[str]) -> int:
    import pytest  # before the collector starts: only gtrees is traced

    ran: dict[str, set[int]] = {}  # code file name -> lines run
    in_package: dict[str, bool] = {}  # code file name -> whether it is a module of PACKAGE

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def called(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in in_package:
            in_package[name] = Path(name).resolve().parent == PACKAGE
            if in_package[name]:
                ran[name] = set()
        return local if in_package[name] else None

    threading.settrace(called)
    sys.settrace(called)
    try:
        status = pytest.main(argv or [str(PACKAGE.parent.parent / "tests"), "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total_lines = total_missed = 0
    rows = []
    run_by_path: dict[Path, set[int]] = {}
    for name, lines in ran.items():
        run_by_path.setdefault(Path(name).resolve(), set()).update(lines)
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - run_by_path.get(path, set()))
        total_lines += len(lines)
        total_missed += len(missed)
        rows.append(f"{path.name:<20} {len(lines):>5} {len(missed):>6}  {ranges(missed)}")
    print(f"pytest exit status: {int(status)}")
    print(f"{'module':<20} {'lines':>5} {'missed':>6}  never-run lines")
    print("\n".join(rows))
    print(f"{'total':<20} {total_lines:>5} {total_missed:>6}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
