"""Lazy package exports: one helper behind every package ``__init__``.

A package ``__init__`` imports no submodule.  It names what it exports
and where each name lives; the providing module is imported the first
time the name is read (``from repro.gfw import evolved_config``), so
``import repro.experiments`` alone loads nothing but the package.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object]]:
    """``(__all__, __getattr__)`` for ``package``.

    ``exports`` maps a module, relative to ``package`` as in a relative
    import (``".models"``, ``"..experiments.outcomes"``), to the names
    the package exports from it.
    """
    provider = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = provider.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(import_module(module, package), name)

    return list(provider), __getattr__
