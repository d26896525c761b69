"""Compare two files of checked outputs and print the lines that moved.

    python3 tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are files written by ``tools/checked_outputs.py``, one
output per line as ``<section> <key> <JSON value>``.  Lines are matched by
section and key.  For each section the script prints how many lines moved
and, for each moved line, the largest absolute and the largest relative
change of any number on it (relative to the larger of the two moduli).
The last line gives the largest absolute and the largest relative change
over all moved lines, each with its section and key.

A change that is not numeric is flagged: text around the numbers that
differs (a verdict, a reason, a sign), a different count of numbers, an
integer that differs (a rank, a dimension, a count, an exit code), or a key
that only one file has.  The exit code is 1 when anything is flagged and 0
otherwise.  Only the standard library is used.
"""

import argparse
import math
import re
import sys
from typing import Dict, List, Optional, Tuple

# A number standing alone: not a digit inside a word such as ``query12`` or
# ``P_ADJ@0#1``; complex literals keep their ``j``.
NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?j?(?![\w.])")


def read(path: str) -> Dict[str, Dict[str, str]]:
    """{section: {key: value text}}, in file order."""
    out: Dict[str, Dict[str, str]] = {}
    with open(path) as fh:
        for line in fh:
            section, key, value = line.rstrip("\n").split(" ", 2)
            out.setdefault(section, {})[key] = value
    return out


def _is_integer(token: str) -> bool:
    return not any(c in token for c in ".eEj")


def compare(old: str, new: str) -> Tuple[float, float, Optional[str]]:
    """(largest absolute change, largest relative change, flag) of one
    moved line; the flag names a change that is not numeric, else None."""
    a, b = NUMBER.findall(old), NUMBER.findall(new)
    if NUMBER.sub("#", old) != NUMBER.sub("#", new) or len(a) != len(b):
        return math.nan, math.nan, "text changed"
    worst_abs = worst_rel = 0.0
    for x, y in zip(a, b):
        if x == y:
            continue
        if _is_integer(x) and _is_integer(y):
            return math.nan, math.nan, f"integer {x} -> {y}"
        u, v = complex(x), complex(y)
        diff = abs(v - u)
        worst_abs = max(worst_abs, diff)
        worst_rel = max(worst_rel, diff / max(abs(u), abs(v)) if diff else 0.0)
    return worst_abs, worst_rel, None


def report(parent: Dict[str, Dict[str, str]], change: Dict[str, Dict[str, str]]) -> Tuple[List[str], int]:
    """The printed lines and the number of flagged changes."""
    lines: List[str] = []
    flagged = 0
    # (change, "section key") of the largest absolute and relative change
    worst = {"abs": (0.0, None), "rel": (0.0, None)}
    for section in dict.fromkeys([*parent, *change]):
        old, new = parent.get(section, {}), change.get(section, {})
        keys = list(dict.fromkeys([*old, *new]))
        moved = [k for k in keys if old.get(k) != new.get(k)]
        lines.append(f"{section}: {len(moved)} of {len(keys)} lines moved")
        for key in moved:
            if key not in old or key not in new:
                flagged += 1
                lines.append(f"  {key}  FLAG key only in {'change' if key in new else 'parent'}")
                continue
            worst_abs, worst_rel, flag = compare(old[key], new[key])
            if flag:
                flagged += 1
                lines.append(f"  {key}  FLAG {flag}")
                lines.append(f"    parent: {old[key]}")
                lines.append(f"    change: {new[key]}")
            else:
                lines.append(f"  {key}  abs {worst_abs:.3g}  rel {worst_rel:.3g}")
                for name, value in (("abs", worst_abs), ("rel", worst_rel)):
                    if value > worst[name][0]:
                        worst[name] = (value, f"{section} {key}")
    lines.append(f"{flagged} non-numeric changes")
    lines.append(
        "largest change: "
        + ", ".join(f"{name} {value:.3g}" + (f" at {where}" if where else "") for name, (value, where) in worst.items())
    )
    return lines, flagged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checked outputs of the parent")
    parser.add_argument("change", help="checked outputs of the change")
    args = parser.parse_args(argv)
    lines, flagged = report(read(args.parent), read(args.change))
    print("\n".join(lines))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
