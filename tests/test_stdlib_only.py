"""The package imports nothing outside the Python standard library, and nothing it leaves unused."""

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


def _unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, bound name) for every import whose name the module never uses.

    A name counts as used when it is read anywhere in the module, also
    inside a string annotation such as ``-> "FieldElement"``.
    ``from __future__`` imports bind no name.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotations = [getattr(node, "annotation", None), getattr(node, "returns", None)]
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used.update(
                        n.id for n in ast.walk(ast.parse(part.value, mode="eval")) if isinstance(n, ast.Name)
                    )
    return [(line, name) for line, name in imported if name not in used]


def test_package_modules_use_every_name_they_import():
    # __init__.py imports to re-export, so it is exempt.
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert sources, f"no sources under {PACKAGE}"
    unused = [f"{path.name}:{line}: {name}" for path in sources for line, name in _unused_imports(path)]
    assert unused == []


def test_the_unused_import_scan_sees_a_leftover_name(tmp_path):
    # Guards the scan itself: a name left behind in a from-import list, an
    # alias, a relative import and a dotted import are each seen; a name
    # read only in a string annotation, or as an attribute base, is used.
    src = tmp_path / "mod.py"
    src.write_text(
        "from __future__ import annotations\n"
        "import json as j\n"
        "import os.path\n"
        "from typing import Iterable, Iterator, Union\n"
        "from . import x\n"
        "from .y import Z, W\n"
        "Raw = Union[int, str]\n"
        "def f(a: 'Iterable[Z]') -> None:\n"
        "    return None\n"
    )
    assert _unused_imports(src) == [(2, "j"), (3, "os"), (4, "Iterator"), (5, "x"), (6, "W")]
