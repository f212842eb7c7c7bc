"""No term traversal of the core or the oracles recurses.

A function that calls itself once per level of a term fails with
RecursionError on a deep enough input, at a depth set by the
interpreter, not by the program.  The term core, the normalizer, the
substitutions, the engine and the oracles walk terms with explicit
stacks; the only functions left that call themselves are listed with
the reason they may."""

import ast
import pathlib

import hounif

PACKAGE = pathlib.Path(hounif.__file__).resolve().parent
MODULES = ["terms.py", "normalize.py", "subst.py", "engine.py", "oracles/*.py"]

ALLOWED = {
    # the benchmark's tracer hooks it, and the tests keep it as the
    # reference order for `terms.term_order`
    "terms.term_key",
    # these recurse on the arity of a type, not on the depth of a term
    "engine._type_size",
    "engine._type_key",
    "engine.signature_types.add",
}


def _own_nodes(fn):
    """The nodes of a function's body, without those of nested functions
    and classes, which are checked on their own."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                todo.append(child)


def _calls_itself(fn, in_class: bool) -> bool:
    for node in _own_nodes(fn):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Name) and callee.id == fn.name and not in_class:
            return True
        if (
            isinstance(callee, ast.Attribute)
            and callee.attr == fn.name
            and isinstance(callee.value, ast.Name)
            and callee.value.id in ("self", "cls")
        ):
            return True
    return False


def _self_calling(tree, module: str) -> list[str]:
    found = []
    todo = [(tree, module, False)]
    while todo:
        node, prefix, in_class = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                if _calls_itself(child, in_class):
                    found.append(name)
                todo.append((child, name, False))
            elif isinstance(child, ast.ClassDef):
                todo.append((child, f"{prefix}.{child.name}", True))
            else:
                todo.append((child, prefix, in_class))
    return found


def test_no_function_calls_itself():
    paths = [p for pattern in MODULES for p in sorted(PACKAGE.glob(pattern))]
    assert len(paths) > len(MODULES)  # the globs found the oracles
    found = []
    for path in paths:
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        found += _self_calling(ast.parse(path.read_text()), module)
    assert sorted(set(found) - ALLOWED) == []
    assert ALLOWED <= set(found)  # every allowance is still needed

