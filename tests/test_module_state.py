"""No module of the package keeps mutable state at module level.

A module-level list, dict, set or bytearray is shared by every solver
call in the process; the only ones allowed are tables filled once at
import time and never written afterwards, and the type table.

`hounif.terms._TYPES` is written after import: it is the hash-consing
memo of the types (one object per type).  Its values are immutable, and
an entry depends on nothing but the type's contents, so what one solver
call adds changes no result of another; it only lets the next call
reuse the object."""

import importlib
import pkgutil

import hounif

#: import-time tables: the oracle registry and the term-class rank; and
#: the intern table of the types
ALLOWED = {
    ("hounif.oracles", "_REGISTRY"), ("hounif.terms", "_RANK"), ("hounif.terms", "_TYPES"),
}


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
