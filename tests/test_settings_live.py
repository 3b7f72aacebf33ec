"""Every config field is read by the program.

A field of a config object that no code reads is a setting that changes
nothing: a sweep over it reports no effect, and its comment describes a
behaviour the simulator does not have.  This scans ``src/repro`` with
``ast`` for attribute reads (``obj.field``) and ``getattr(obj, "field")``
calls outside the field declarations of the class that owns the field;
the class's own methods count as readers.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: module (relative to ``src/repro``) -> config classes it declares.
CONFIG_CLASSES = {
    "experiments/calibration.py": ("Calibration",),
    "gfw/models.py": ("GFWConfig",),
    "gfw/rules.py": ("RuleSet",),
    "tcp/profiles.py": ("StackProfile",),
    "middlebox/profiles.py": ("MiddleboxProfile",),
}


def _trees():
    return {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}


def _declared_fields(trees):
    """(class name, field name) for every annotated class-body field."""
    fields = []
    for module, classes in CONFIG_CLASSES.items():
        tree = trees[SRC / module]
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name in classes:
                fields.extend(
                    (node.name, statement.target.id)
                    for statement in node.body
                    if isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                )
    return fields


def _reads(tree, skip):
    """Attribute names read in ``tree`` outside the class nodes ``skip``."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            names.add(node.args[1].value)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _declarations(tree, cls):
    """The non-method statements of class ``cls``'s body in ``tree``."""
    return {
        statement
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == cls
        for statement in node.body
        if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def test_every_config_field_is_read():
    trees = _trees()
    fields = _declared_fields(trees)
    config_names = {name for names in CONFIG_CLASSES.values() for name in names}
    assert {cls for cls, _ in fields} == config_names
    read = {
        cls: set().union(
            *(_reads(tree, _declarations(tree, cls)) for tree in trees.values())
        )
        for cls in config_names
    }
    unread = [f"{cls}.{name}" for cls, name in fields if name not in read[cls]]
    assert unread == [], f"config fields nothing reads: {unread}"
