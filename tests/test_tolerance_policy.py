"""The tolerance policy: every tolerance is a named constant of one block in
``frustra.linalg``, and every relative scale goes through ``linalg.tol_scale``.

These tests read the package source with ``ast``, so a bare tolerance
literal or a hand-written ``max(1.0, ...)`` scale (or ``np.fmax`` / ``np.maximum``
of 1.0) anywhere else fails them.
"""

import ast
import math
from pathlib import Path

from frustra import linalg

SRC = Path(linalg.__file__).resolve().parent
SMALL = 1e-3  # literals below this in magnitude are tolerances


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_float_constant(node) -> bool:
    return (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name) and node.targets[0].id.isupper()
            and isinstance(node.value, ast.Constant) and type(node.value.value) is float)


def _constants_block(tree: ast.Module) -> tuple[int, int]:
    """Lines of the module-level run of NAME = float statements that starts at STRUCTURAL_TOL."""
    body = tree.body
    start = next(i for i, node in enumerate(body)
                 if _is_float_constant(node) and node.targets[0].id == "STRUCTURAL_TOL")
    end = start
    while end + 1 < len(body) and _is_float_constant(body[end + 1]):
        end += 1
    return body[start].lineno, body[end].end_lineno


def _function_lines(tree: ast.Module, name: str) -> tuple[int, int]:
    fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name)
    return fn.lineno, fn.end_lineno


def _sources():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 8
    return [(path, _parse(path)) for path in paths]


def test_tolerance_literals_live_in_the_linalg_block():
    stray = []
    for path, tree in _sources():
        lo, hi = _constants_block(tree) if path.name == "linalg.py" else (0, -1)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and type(node.value) in (float, complex)
                    and 0 < abs(node.value) < SMALL and not lo <= node.lineno <= hi):
                stray.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not stray, "tolerance literals outside linalg's constants block: " + ", ".join(stray)


def test_every_scale_goes_through_tol_scale():
    hand_written = []
    for path, tree in _sources():
        lo, hi = _function_lines(tree, "tol_scale") if path.name == "linalg.py" else (0, -1)
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            name = getattr(func, "id", getattr(func, "attr", None))  # max, or np.fmax
            if (isinstance(node, ast.Call) and name in ("max", "fmax", "maximum") and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and type(node.args[0].value) is float and node.args[0].value == 1.0
                    and not lo <= node.lineno <= hi):
                hand_written.append(f"{path.name}:{node.lineno}")
    assert not hand_written, "max(1.0, ...) scales outside tol_scale: " + ", ".join(hand_written)


def test_constants_block_is_documented():
    lines = (SRC / "linalg.py").read_text(encoding="utf-8").splitlines()
    lo, hi = _constants_block(_parse(SRC / "linalg.py"))
    for line in lines[lo - 1:hi]:
        assert "  # " in line, f"constant without a comment: {line!r}"


def test_tol_scale():
    assert linalg.tol_scale(0.5) == 1.0
    assert linalg.tol_scale(-3.0, 2.0) == 3.0
    assert linalg.tol_scale(2j) == 2.0
    assert type(linalg.tol_scale(1)) is float
    # 1.0 comes first, so max() passes over a NaN as it always did
    assert linalg.tol_scale(math.nan) == 1.0
    assert linalg.tol_scale(math.nan, 5.0) == 5.0
