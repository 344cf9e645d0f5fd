"""Deferred imports of scipy functions.

scipy takes most of the time of `import rdl`, and `rdl simulate`, `rdl gromov`,
and `rdl kernel` and `rdl report` on the catalog spaces and ensembles never
call it.  A module binds `brentq = lazy("scipy.optimize", "brentq")` in place
of the import, so every call site and every patch point stays a module
attribute.
"""

from __future__ import annotations

import importlib


def lazy(module: str, name: str):
    """A callable stand-in for `from <module> import <name>` that imports on its first call."""
    target = None

    def call(*args, **kwargs):
        nonlocal target
        if target is None:
            target = getattr(importlib.import_module(module), name)
        return target(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call
