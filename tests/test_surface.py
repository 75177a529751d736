"""The library's surface: its exports and its prose.

Every name a library module exports is reached by the library itself. A
name in a module's ``__all__`` passes when library code outside its own
definition refers to it, or when ``npa/__init__`` re-exports it as package
API. Anything else is dead surface and should be deleted, or listed below
with the reason it stays.

No docstring or comment in the library quotes a measurement: a duration, a
rate, a memory size or a before/after figure. Those go stale with every
speed-up; README's Performance section and CHANGES.md keep them.
"""

import ast
import io
import re
import tokenize
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


MEASUREMENT = re.compile(
    r"\d(?:[\d.,]*\d)?\s*(?:ns|µs|us|ms|sec|seconds?|minutes?|[KMG]i?B)\b"  # duration, size
    r"|\d\s+s\b"  # "30 s", not "1s" (ones)
    r"|\w/s\b|per second"  # rate
    r"|\d\s+vCPUs?\b"  # the host a figure was taken on
    r"|\bfrom\s+[\d.,]+%?\s+to\s+\d|\bagainst\s+\d|\d\s*(?:→|->)\s*\d"  # before/after
    r"|\d%\s+(?:faster|slower)|(?:faster|slower)\s+in\s+\d+\s+of\s+\d+")


def _prose(path):
    """(line, text) of every docstring line and comment of a module."""
    text = path.read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(text, str(path))):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            doc = node.body[0] if node.body else None
            if (isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant)
                    and isinstance(doc.value.value, str)):
                for i, line in enumerate(doc.value.value.splitlines()):
                    yield doc.lineno + i, line
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            yield tok.start[0], tok.string


def test_library_prose_quotes_no_measurement():
    hits = [f"{p.name}:{line}: {text.strip()}" for p in sorted(SRC.glob("*.py"))
            for line, text in _prose(p) if MEASUREMENT.search(text)]
    assert not hits, "measurements in library docstrings or comments:\n" + "\n".join(hits)


def test_measurement_pattern():
    measured = ["the step went from 273 ms to 189 ms", "that takes 4.9-6.1 ms",
                "7% slower (28.3 against 26.5 ms", "4,979 to 5,652 predictions/s",
                "peak memory from 386 MB to 212 MB", "pairs of 30 s runs", "on 2 vCPUs",
                "faster in 12 of 150 interleaved steps", "from 41% to 24% of rows",
                "about 40 µs a draw", "4.6% slower", "118 -> 107"]
    contracts = ["at least tensor.SPLIT_CELLS (2^18) cells", "160 padded rows",
                 "padded with 1s on the left", "bytes 0..3   magic", "at least 2 rows a half",
                 "u64 64-bit CRC", "within 4 ulp", "u (1.04 n + 11 ln n + 16)",
                 "(contexts x steps x embedding_dim)", "numerators / total"]
    assert [m for m in measured if not MEASUREMENT.search(m)] == []
    assert [c for c in contracts if MEASUREMENT.search(c)] == []
