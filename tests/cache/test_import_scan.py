"""The lexical import scan of :mod:`repro.cache.fingerprint` against
the line slicer it replaced, kept here as the oracle: on the package
and on crafted sources, both must yield the same import statements
and so the same edges, barrier ``__init__``\\ s and opaque ones."""

import ast
import os
import re
from typing import Optional

import pytest

import repro
from repro.cache import fingerprint
from repro.cache.fingerprint import _import_tree, _scan

_IMPORT_LINE = re.compile(rb"^\s*(?:from|import)\s")


def _sliced_import_tree(source: bytes, path: str) -> Optional[ast.Module]:
    """The previous scanner: slice candidate lines one by one, follow
    parenthesised and backslash continuations, parse each statement on
    its own, and fall back to a full parse on any failure."""
    statements = []
    lines = source.splitlines()
    index, total = 0, len(lines)
    while index < total:
        line = lines[index]
        index += 1
        if not _IMPORT_LINE.match(line):
            continue
        statement = [line.strip()]
        depth = line.count(b"(") - line.count(b")")
        while (depth > 0 or statement[-1].endswith(b"\\")) and index < total:
            if statement[-1].endswith(b"\\"):
                statement[-1] = statement[-1][:-1]
            extra = lines[index]
            index += 1
            depth += extra.count(b"(") - extra.count(b")")
            statement.append(extra.strip())
        statements.append(b" ".join(statement))
    nodes = []
    for statement in statements:
        try:
            parsed = ast.parse(statement.decode("utf-8", "replace"))
        except SyntaxError:
            try:
                return ast.parse(source, filename=path)
            except SyntaxError:
                return None
        nodes.extend(parsed.body)
    return ast.Module(body=nodes, type_ignores=[])


def _imports(tree: Optional[ast.Module]):
    """The import statements of a tree as comparable tuples."""
    if tree is None:
        return None
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.append(("import", None, 0, tuple(a.name for a in node.names)))
        elif isinstance(node, ast.ImportFrom):
            found.append(
                ("from", node.module, node.level, tuple(a.name for a in node.names))
            )
    return sorted(found, key=repr)


CRAFTED = {
    "parenthesised": b"from repro.a import (\n    x,\n    y,  # trailing\n)\nimport repro.b\n",
    "nested_indent": b"def f():\n    from repro.c import (\n            z)\n    return z\n",
    "backslash": b"from repro.a import x, \\\n    y\nimport repro.b, \\\n    repro.c\n",
    "docstring_parses": b'"""Notes.\n\nimport repro.ghost\n"""\nimport repro.real\n',
    "docstring_prose": b'"""How it works.\n\nfrom the paper, import what matters.\n"""\nfrom repro.a import x\n',
    "relative": b"from . import sibling\nfrom ..pkg import thing\nfrom .mod import (a,\n    b)\n",
    "syntax_error": b"import repro.a\ndef broken(:\n    pass\n",
    "prose_and_syntax_error": b'"""\nfrom here on\n"""\nimport repro.a\nx = (\n',
    "no_imports": b"x = 1\nfrom_value = 2\nimported = 3\n",
    "semicolon_and_alias": b"import repro.a as a; import repro.b\nfrom repro.c import d as e\n",
    "crlf": b"import repro.a\r\nfrom repro.b import (c,\r\n    d)\r\n",
}


@pytest.mark.parametrize("name", sorted(CRAFTED))
def test_crafted_sources_match_the_slicer(name):
    source = CRAFTED[name]
    assert _imports(_import_tree(source, name)) == _imports(
        _sliced_import_tree(source, name)
    )


def test_unparseable_module_with_prose_yields_no_tree():
    # The prose line fails the fast parse; the full parse fails too.
    assert _import_tree(CRAFTED["prose_and_syntax_error"], "x") is None


def test_docstring_import_lines_only_widen():
    found = _imports(_import_tree(CRAFTED["docstring_parses"], "x"))
    assert ("import", None, 0, ("repro.real",)) in found


def test_package_scan_matches_the_slicer(monkeypatch):
    root = os.path.dirname(os.path.abspath(repro.__file__))
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in filenames:
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                with open(path, "rb") as fh:
                    source = fh.read()
                assert _imports(_import_tree(source, path)) == _imports(
                    _sliced_import_tree(source, path)
                ), path
    new = _scan(root)
    monkeypatch.setattr(fingerprint, "_SCANS", {})
    monkeypatch.setattr(fingerprint, "_import_tree", _sliced_import_tree)
    old = _scan(root)
    assert new.edges == old.edges
    assert new.barrier_inits == old.barrier_inits
    assert new.opaque_inits == old.opaque_inits


def test_no_package_module_falls_back_to_a_full_parse():
    # A comment or docstring line that starts with `from ` or `import `
    # followed by prose fails the fast parse and silently costs that
    # module a full parse on every cold scan: reword the line.
    root = os.path.dirname(os.path.abspath(repro.__file__))
    fallbacks = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in filenames:
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                with open(path, "rb") as fh:
                    statements = fingerprint._import_statements(fh.read())
                try:
                    ast.parse(statements.decode("utf-8", "replace"))
                except SyntaxError:
                    fallbacks.append(os.path.relpath(path, root))
    assert fallbacks == []
