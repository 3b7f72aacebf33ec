"""No dead names: every import under ``src/repro``, ``tests``,
``benchmarks`` and ``examples`` is used, and every attribute written on
``self`` under ``src/repro`` is read somewhere.  No module under
``src/repro`` imports another ``repro`` module's private name.

Both checks read source with :mod:`ast` and run nothing.  A name is
matched by spelling only, not by the class it belongs to, so a check
can miss a dead name that shares its spelling with a live one; it
never flags a live one.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import repro

SRC = Path(repro.__file__).resolve().parent
ROOT = SRC.parent.parent

#: Where a written attribute may be read.
READERS = ("src", "tests", "benchmarks", "examples", "perfbench")

#: Where every import must be used (``perfbench`` is frozen).
IMPORTERS = ("src", "tests", "benchmarks", "examples")

#: (class, attribute) pairs read by code outside the repository.
EXEMPT_ATTRIBUTES = {
    # ``random.Random.gauss`` caches its second normal deviate here;
    # LazyRandom keeps the slot so the stdlib method works unchanged.
    ("LazyRandom", "gauss_next"),
}


def _modules() -> List[Path]:
    return sorted(SRC.rglob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _strings(tree: ast.AST) -> Iterator[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _used_names(tree: ast.Module) -> Set[str]:
    """Bare names a module loads, including those inside string
    annotations and those it re-exports through ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for text in _strings(tree):
        try:
            expression = ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        used.update(
            node.id for node in ast.walk(expression) if isinstance(node, ast.Name)
        )
    return used


def _imported_names(tree: ast.Module) -> Iterator[Tuple[int, str]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def unused_imports() -> List[str]:
    found = []
    for top in IMPORTERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = _parse(path)
            used = _used_names(tree)
            for lineno, name in _imported_names(tree):
                if name not in used:
                    found.append(f"{path.relative_to(ROOT)}:{lineno}: {name}")
    return found


def private_imports() -> List[str]:
    """``from repro.<module> import _name`` under ``src/repro``: a name
    another module keeps private (dunders aside)."""
    found = []
    for path in _modules():
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.ImportFrom) or not (
                node.module == "repro" or (node.module or "").startswith("repro.")
            ):
                continue
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    found.append(
                        f"{path.relative_to(SRC)}:{node.lineno}: "
                        f"{node.module}.{alias.name}"
                    )
    return found


def _self_writes(tree: ast.Module) -> Iterator[Tuple[str, int, str]]:
    """(class, line, attribute) for each ``self.<attribute>`` store."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                yield cls.name, node.lineno, node.attr


def _reads() -> Set[str]:
    """Every attribute name loaded anywhere, plus every string constant
    (``getattr``-based summaries name attributes that way)."""
    reads: Set[str] = set()
    for top in READERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = _parse(path)
            reads.update(
                node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and not isinstance(node.ctx, ast.Store)
            )
            reads.update(_strings(tree))
    return reads


def unread_attributes() -> List[str]:
    reads = _reads()
    found: Dict[Tuple[str, str], str] = {}
    for path in _modules():
        for cls, lineno, attr in _self_writes(_parse(path)):
            if attr in reads or (cls, attr) in EXEMPT_ATTRIBUTES:
                continue
            found.setdefault(
                (cls, attr), f"{path.relative_to(SRC)}:{lineno}: {cls}.{attr}"
            )
    return sorted(found.values())


def test_every_import_is_used():
    assert unused_imports() == []


def test_every_attribute_written_on_self_is_read():
    assert unread_attributes() == []


def test_no_module_imports_another_modules_private_name():
    assert private_imports() == []
