"""No module of the package keeps mutable state at module level.

A module-level list, dict, set or bytearray is shared by every solver
call in the process; the only ones allowed are tables filled once at
import time and never written afterwards."""

import importlib
import pkgutil

import hounif

#: import-time tables: the oracle registry and the term-class rank
ALLOWED = {("hounif.oracles", "_REGISTRY"), ("hounif.terms", "_RANK")}


def test_no_module_level_mutable_state():
    names = [hounif.__name__] + [
        m.name for m in pkgutil.walk_packages(hounif.__path__, hounif.__name__ + ".")
    ]
    found = []
    for name in names:
        module = importlib.import_module(name)
        for attr, value in vars(module).items():
            if attr.startswith("__") or (name, attr) in ALLOWED:
                continue
            if isinstance(value, (list, dict, set, bytearray)):
                found.append(f"{name}.{attr}")
    assert found == []
