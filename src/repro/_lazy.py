"""Lazy re-exports for the package ``__init__`` modules.

A package names each public symbol's defining module; that module is
imported the first time one of its names is asked for, so importing the
package (or any module inside it) costs only what is used.  The resolved
value is stored on the package, so later lookups are plain attribute reads.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, Sequence


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Callable[[str], Any]:
    """Module ``__getattr__`` for ``package``.

    ``exports`` maps a defining module to the names it re-exports.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
