"""``tools/compare_outputs.py``: moved lines of checked outputs are measured
by their numbers, and every change that is not numeric is flagged."""

import importlib.util
import math
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_a_moved_residual_gives_its_largest_absolute_and_relative_change():
    old = "\"(True, {'positive_residual': 8.0e-16, 'negative_residual': 0.5})\""
    new = "\"(True, {'positive_residual': 1.0e-15, 'negative_residual': 0.5})\""
    worst_abs, worst_rel, flag = compare_outputs.compare(old, new)
    assert flag is None and math.isclose(worst_abs, 2e-16) and math.isclose(worst_rel, 0.2)


def test_changes_that_are_not_numeric_are_flagged():
    compare = compare_outputs.compare
    assert compare('"(True, {})"', '"(False, {})"')[2] == "text changed"
    assert compare("[\"dimension 2\\n\", \"\", 0]", "[\"dimension 3\\n\", \"\", 0]")[2] == "integer 2 -> 3"
    assert compare("[\"\", \"\", 0]", "[\"\", \"\", 1]")[2] == "integer 0 -> 1"
    # digits inside a word are text, not numbers
    assert compare('"query12"', '"query13"')[2] == "text changed"


def test_report_counts_moved_lines_by_section_and_flags_a_missing_key():
    parent = {"c4": {"a": "1.0", "b": "2.0"}, "kernel": {"q0": "[\"x\", \"\", 0]"}}
    change = {"c4": {"a": "1.0", "b": "2.5"}, "kernel": {"q1": "[\"x\", \"\", 0]"}}
    lines, flagged = compare_outputs.report(parent, change)
    assert lines[0] == "c4: 1 of 2 lines moved" and lines[1].startswith("  b  abs 0.5  rel 0.2")
    assert "kernel: 2 of 2 lines moved" in lines and flagged == 2
