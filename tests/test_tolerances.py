"""Every numerical threshold of the library is named in ``tolerances.py``."""

import ast
from pathlib import Path

import pairedk
from pairedk import tolerances as tol

SRC = Path(pairedk.__file__).resolve().parent
DIVISION_GUARD = 1e-300  # max(x, 1e-300) keeps a scale off zero; it is no threshold


def small_literals(path: Path):
    """(line, value) of every float literal with 0 < |value| <= 1e-3."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and type(node.value) is float:
            if 0 < abs(node.value) <= 1e-3 and node.value != DIVISION_GUARD:
                yield node.lineno, node.value


def test_no_threshold_literal_outside_tolerances():
    found = [
        f"{path.name}:{line}: {value!r}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "tolerances.py"
        for line, value in small_literals(path)
    ]
    assert not found, found


def test_the_scan_sees_a_threshold_literal(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("ok = resid <= 1e-10 * max(scale, 1e-300)\nbig = 0.08\n")
    assert list(small_literals(probe)) == [(1, 1e-10)]


def test_settable_keys_are_the_four_tolerances():
    assert tol.SETTABLE == {
        "eps_eq": "EPS_EQ",
        "eps_circle": "EPS_CIRCLE",
        "eps_cluster": "EPS_CLUSTER",
        "rank_tol": "RANK_TOL",
    }
