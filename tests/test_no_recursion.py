"""No term traversal of the package recurses.

A function that calls itself once per level of a term fails with
RecursionError on a deep enough input, at a depth set by the
interpreter, not by the program.  The term core, the normalizer, the
substitutions, the binding generators, the engine (its type walks too),
the oracles, the fingerprint index, the problem reader and printers and
the command line walk terms and types with explicit stacks; the only
functions left that call themselves are listed with the reason they
may.  Nor do two or more functions of the package call each other round
in a cycle: such a cycle recurses just the same."""

import ast
import pathlib

import hounif

PACKAGE = pathlib.Path(hounif.__file__).resolve().parent
MODULES = ["terms.py", "normalize.py", "subst.py", "bindings.py", "engine.py", "oracles/*.py",
           "fingerprint.py", "problem_io.py", "cli.py"]

ALLOWED = {
    # the benchmark's tracer hooks it, and the tests keep it as the
    # reference order for `terms.term_order`
    "terms.term_key",
    # the whole first-order image, kept as the tests' reference model and
    # because the benchmark's tracer hooks `encode`; fingerprints sample
    # the image lazily without it
    "fingerprint._encode",
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


def _modules():
    """(module name, syntax tree) of each checked module; a package's
    `__init__` is named after the package."""
    paths = [p for pattern in MODULES for p in sorted(PACKAGE.glob(pattern))]
    assert len(paths) > len(MODULES)  # the globs found the oracles
    for path in paths:
        parts = path.relative_to(PACKAGE).with_suffix("").parts
        yield ".".join(parts[:-1] if parts[-1] == "__init__" else parts), ast.parse(path.read_text())


def test_no_function_calls_itself():
    found = []
    for module, tree in _modules():
        found += _self_calling(tree, module)
    assert sorted(set(found) - ALLOWED) == []
    assert ALLOWED <= set(found)  # every allowance is still needed


def _imported(node, module: str, is_package: bool) -> dict[str, str]:
    """The package functions a `from ... import` statement names: the
    local name of each, mapped to the function's qualified name."""
    if not isinstance(node, ast.ImportFrom) or not node.level:
        return {}
    base = module.split(".") if module else []
    if not is_package:
        base = base[:-1]
    base = base[: len(base) - (node.level - 1)] + (node.module.split(".") if node.module else [])
    return {a.asname or a.name: ".".join(base + [a.name]) for a in node.names}


def _call_graph() -> dict[str, set[str]]:
    """Each function of the package (methods and nested functions too),
    with the package functions its own body calls by bare name; a call of
    an imported or module-level class is not an edge."""
    trees = list(_modules())
    packages = {m.rsplit(".", 1)[0] for m, _ in trees if "." in m}
    graph: dict[str, set[str]] = {}
    for module, tree in trees:
        names = {}
        for node in tree.body:
            names.update(_imported(node, module, module in packages))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names[node.name] = f"{module}.{node.name}"
        todo = [(tree, module, names)]
        while todo:
            node, prefix, scope = todo.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{prefix}.{child.name}"
                    inner = dict(scope)
                    inner.update((c.name, f"{name}.{c.name}") for c in _own_nodes(child)
                                 if isinstance(c, (ast.FunctionDef, ast.AsyncFunctionDef)))
                    graph[name] = {inner[c.func.id] for c in _own_nodes(child)
                                   if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
                                   and c.func.id in inner}
                    todo.append((child, name, inner))
                elif isinstance(child, ast.ClassDef):
                    todo.append((child, f"{prefix}.{child.name}", scope))
                else:
                    todo.append((child, prefix, scope))
    return {fn: calls & graph.keys() for fn, calls in graph.items()}  # no class calls


def _reachable(graph: dict[str, set[str]], start: str) -> set[str]:
    """The functions reached from `start` by one call or more."""
    seen: set[str] = set()
    todo = list(graph.get(start, ()))
    while todo:
        fn = todo.pop()
        if fn not in seen:
            seen.add(fn)
            todo += graph.get(fn, ())
    return seen


def test_no_functions_call_each_other():
    # the strongly connected components of the call graph: a function on
    # a cycle, with every function that it reaches and that reaches it
    graph = _call_graph()
    reach = {fn: _reachable(graph, fn) for fn in graph}
    cycles = {frozenset(g for g in reach[fn] if fn in reach[g]) for fn in graph if fn in reach[fn]}
    assert sorted(sorted(c) for c in cycles if not c <= ALLOWED) == []
    assert ALLOWED <= set().union(*cycles)  # the scan sees bare-name self-calls

