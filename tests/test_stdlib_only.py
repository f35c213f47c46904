"""The package imports nothing outside the Python standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hesspairs"


def _absolute_imports(path: Path) -> list[tuple[int, str]]:
    """(line, top-level module name) for every absolute import in the file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    outside = [
        f"{path.name}:{line}: {name}"
        for path in sources
        for line, name in _absolute_imports(path)
        if name not in sys.stdlib_module_names
    ]
    assert outside == []


def test_the_import_scan_sees_a_third_party_import(tmp_path):
    # Guards the scan itself: nested and dotted absolute imports are seen,
    # relative ones are not.
    src = tmp_path / "mod.py"
    src.write_text("import json\nfrom . import x\ndef f():\n    import numpy.linalg\n    from sympy import Matrix\n")
    names = [name for _, name in _absolute_imports(src)]
    assert names == ["json", "numpy", "sympy"]
    assert [n for n in names if n not in sys.stdlib_module_names] == ["numpy", "sympy"]
