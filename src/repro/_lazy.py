"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package lists its public names once, in a ``{submodule: names}``
table; :func:`lazy_exports` turns that table into the package's
``__getattr__``, ``__dir__`` and ``__all__``.  Importing the package
imports none of its submodules: the first read of a name imports its
submodule and caches the value in the package namespace, so later reads
are plain attribute lookups.  A command therefore pays only for the
modules it runs.

The tables serve the public API.  Code inside ``repro`` imports each
name from its defining module (``from repro.core.avrank import
AVRankSeries``), which is also what reprolint's call graph resolves.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable


def lazy_exports(
    package: str, table: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps a submodule path relative to ``package`` (dotted for
    deeper modules) to the names it defines.  An unknown name raises
    :class:`AttributeError`, so ``from package import submodule`` still
    falls through to the submodule import.
    """
    namespace = vars(sys.modules[package])
    origin = {name: module for module, names in table.items()
              for name in names}

    def load(name: str) -> object:
        module = importlib.import_module(f"{package}.{origin[name]}")
        value = namespace[name] = getattr(module, name)
        return value

    def __getattr__(name: str) -> object:
        if name not in origin:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        return load(name)

    def __dir__() -> list[str]:
        return sorted({*namespace, *origin})

    # A name shared with its own submodule (``repro.core.categorize``) is
    # bound now: importing that submodule later would set the package
    # attribute to the module and hide the re-export.
    for name, module in origin.items():
        if name == module:
            load(name)
    return __getattr__, __dir__, list(origin)
