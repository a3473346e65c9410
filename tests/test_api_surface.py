"""Every public top-level function and class of `mlw` has a caller.

A name counts as used when some code outside its own definition refers to
it: a name, an attribute, an import or a string (the benchmark's tracer
looks functions up by name) anywhere in `src/`, `tests/` or `perfbench/`.
API that nothing uses is deleted rather than kept."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mlw"


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    out: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_public_api_has_callers():
    files = sorted(PACKAGE.glob("*.py"))
    files += sorted((ROOT / "tests").rglob("*.py"))
    files += sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {p: ast.parse(p.read_text(), str(p)) for p in files}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            used = any(node.name in _references(tree,
                                                node if p == path else None)
                       for p, tree in trees.items())
            if not used:
                unused.append(f"{path.name}: {node.name}")
    assert not unused, "public API with no caller: " + ", ".join(unused)
