"""List the executable lines of pairedk that the tier-1 suite never runs.

    python3 tools/unreached.py [--root CHECKOUT] [-- PYTEST_ARGS...]

The script runs tier-1 (``pytest -q --continue-on-collection-errors`` from
the root of the checkout) in this process under a ``sys.settrace`` hook
that records every line of ``src/pairedk`` it runs.  It then prints each
executable line that never ran as ``path:line: source``, and last the
count, ``N of M executable lines never ran``.  A line is executable when
the compiled module maps bytecode to it (``code.co_lines``).  Lines that
run only in subprocesses or pool workers are not recorded, so they are
listed.  ``--root`` names the checkout whose ``src/pairedk`` and tests are
run (by default the one holding this script).  Only the standard library
is used, besides the pytest that runs the suite.  The hook slows the suite
several-fold, so its wall-clock budget tests may fail; their lines still
count.
"""

import argparse
import os
import sys
import threading
from pathlib import Path


def executable_lines(path: Path) -> set:
    """Every line number that a code object compiled from ``path`` maps to."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0 marks artificial code
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(root: Path, pytest_args) -> dict:
    """Run the suite under the line hook: {filename: set of lines run}."""
    package = str(root / "src" / "pairedk") + os.sep
    ran, ours = {}, {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = name.startswith(package)
        if not ours[name]:
            return None
        ran.setdefault(name, set()).add(frame.f_code.co_firstlineno)
        return local

    import pytest

    os.chdir(root)
    sys.path.insert(0, str(root / "src"))
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return ran


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parents[1]), help="checkout to run")
    parser.add_argument("pytest_args", nargs="*", help="extra pytest arguments, after --")
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    ran = run_traced(root, args.pytest_args)
    missed = total = 0
    for path in sorted((root / "src" / "pairedk").glob("*.py")):
        lines = executable_lines(path)
        source = path.read_text().splitlines()
        never = sorted(lines - ran.get(str(path), set()))
        total += len(lines)
        missed += len(never)
        for line in never:
            print(f"{path.relative_to(root)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} of {total} executable lines never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
