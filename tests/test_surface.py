"""Every name a library module exports is reached by the library itself.

A name in a module's ``__all__`` passes when library code outside its own
definition refers to it, or when ``npa/__init__`` re-exports it as package
API. Anything else is dead surface and should be deleted, or listed below
with the reason it stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "npa"

# (module, name) -> why the export stays although no library code reaches it.
ALLOWED_UNUSED = {
    ("training", "sequence_scores"): "the benchmark tracer spans it by attribute",
}


def _trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p))
            for p in sorted(SRC.glob("*.py"))}


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _bindings(tree):
    """Local names bound by relative imports: module aliases and imported names."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = (node.module, alias.name)
    return modules, names


def _references(mod, tree):
    """(module, name) pairs that code in ``mod`` reads, with the node reading each."""
    modules, names = _bindings(tree)
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append((names.get(node.id, (mod, node.id)), node))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            refs.append(((modules[node.value.id], node.attr), node))
    return refs


def _definition(tree, name):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
    return None


def _inside(node, definition):
    return definition is not None and any(node is sub for sub in ast.walk(definition))


def _unused_exports():
    trees = _trees()
    init_names = _bindings(trees["__init__"])[1]
    package_api = {init_names[n] for n in _exports(trees["__init__"]) if n in init_names}
    reached = set()
    for mod, tree in trees.items():
        for key, node in _references(mod, tree):
            own = _definition(tree, key[1]) if key[0] == mod else None
            if not _inside(node, own):
                reached.add(key)
    return sorted((mod, name) for mod, tree in trees.items() if mod != "__init__"
                  for name in _exports(tree)
                  if (mod, name) not in reached and (mod, name) not in package_api)


def test_every_export_is_reached_or_allowed():
    unused = [key for key in _unused_exports() if key not in ALLOWED_UNUSED]
    assert not unused, f"exports no library code reaches: {unused}"


def test_allowlist_entries_are_still_needed():
    unused = set(_unused_exports())
    stale = [key for key in ALLOWED_UNUSED if key not in unused]
    assert not stale, f"allowlisted exports that are now reached or gone: {stale}"


def test_recursion_is_not_a_use():
    tree = ast.parse("__all__ = ['f']\n\ndef f(n):\n    return f(n - 1) if n else 0\n")
    ((key, node),) = [r for r in _references("m", tree) if r[0][1] == "f"]
    assert key == ("m", "f")
    assert _inside(node, _definition(tree, "f"))
