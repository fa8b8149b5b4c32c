"""Modules that load on first attribute access (the importlib.util.LazyLoader recipe).

A plain `import mpmath` would load even a lazily registered module at once,
because the import statement reads the module's __spec__; the modules that
use mpmath therefore bind it with `lazy_import`.
"""

import importlib.util
import sys
from types import ModuleType


def lazy_import(name: str) -> ModuleType:
    """sys.modules[name]; when absent, registered there first as a module that loads on first use."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        if spec is None:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module
