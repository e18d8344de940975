"""Statements of `src/parconv` that the tier-1 tests never run.

Run from the repository root, with any extra pytest arguments:

    PYTHONPATH=src python tests/linetrace.py -q

It runs pytest in-process under a `sys.settrace` / `threading.settrace` line
tracer (fabric workers are threads) that records only frames of
`src/parconv`, then prints each line where a statement of the package's
compiled code begins and that never ran, as `path:line: source`. It needs
no coverage package. Tracing makes the tests several times slower. The exit
status is pytest's.
"""

from __future__ import annotations

import dis
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "parconv"


def statement_lines(path: Path) -> set[int]:
    """Lines where a statement begins in any code object compiled from `path`."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    sources = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename not in sources:
            return None
        return local(frame, event, arg)

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main([str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun = 0
    for name, path in sources.items():
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(statement_lines(path)):
            if (name, line) not in ran:
                unrun += 1
                print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{unrun} line(s) never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
