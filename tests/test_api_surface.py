"""Source checks over `mlw`: every public top-level function and class has
a caller, every parameter is read, rationals are compared through one exact
helper, a first hit is taken, an integer type chosen, and rationals
brought to one denominator, through one helper each, and only `structures`
evaluates a plan over bound rows.

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
    refs = {p: _references(tree) for p, tree in trees.items()}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            # the defining file is walked again, without the definition,
            # only when no other file refers to the name
            used = any(node.name in r for p, r in refs.items() if p != path) \
                or node.name in refs[path] and \
                node.name in _references(trees[path], node)
            if not used:
                unused.append(f"{path.name}: {node.name}")
    assert not unused, "public API with no caller: " + ", ".join(unused)


def _scales_by_fraction(node: ast.AST) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) \
        and any(isinstance(x, ast.Attribute)
                and x.attr in ("numerator", "denominator")
                for x in (node.left, node.right))


def test_fractions_are_compared_through_one_helper():
    """`table * q.denominator <= q.numerator * den` wraps around in int64;
    `table <= structures._max_numerator(q, den)` is the exact form."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Compare) and \
                    any(_scales_by_fraction(x) for x in ast.walk(node)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "cross-multiplied comparison: " + ", ".join(found)


def _reads_int64_bound(node: ast.AST) -> bool:
    """`_INT64_MAX` read, or `np.iinfo(np.int64)` called."""
    if isinstance(node, ast.Name):
        return node.id == "_INT64_MAX" and isinstance(node.ctx, ast.Load)
    return isinstance(node, ast.Call) and \
        ast.unparse(node.func) in ("np.iinfo", "numpy.iinfo") and \
        any(ast.unparse(a) in ("np.int64", "numpy.int64") for a in node.args)


def test_integer_types_are_chosen_by_one_helper():
    """`structures._int_type(bound)` alone picks between int64 and Python
    ints: nothing else reads the int64 bound, and no den is refused as a
    "denominator overflow" (evaluation is exact at any den)."""
    found = [str(p) for p in sorted((ROOT / "src").rglob("*.py"))
             if "denominator overflow" in p.read_text()]
    helpers = 0
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [ast.parse(path.read_text(), str(path))]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.FunctionDef) and node.name == "_int_type":
                helpers += 1
                continue
            if _reads_int64_bound(node):
                found.append(f"{path.name}:{node.lineno}")
            stack.extend(ast.iter_child_nodes(node))
    assert helpers == 1
    assert not found, "int64 bound read outside _int_type: " + \
        ", ".join(found)


def _lcm_of_denominators(node: ast.AST) -> bool:
    """`math.lcm(...)` with some `.denominator` among its arguments."""
    return isinstance(node, ast.Call) and \
        ast.unparse(node.func) in ("math.lcm", "lcm") and \
        any(isinstance(x, ast.Attribute) and x.attr == "denominator"
            for a in node.args for x in ast.walk(a))


def test_rationals_go_to_a_table_through_one_helper():
    """`structures._on_one_den(qs)` alone brings rationals to their common
    denominator: no other `math.lcm` reads a `.denominator`."""
    found, helpers = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [ast.parse(path.read_text(), str(path))]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.FunctionDef) and \
                    node.name == "_on_one_den":
                helpers += 1
                continue
            if _lcm_of_denominators(node):
                found.append(f"{path.name}:{node.lineno}")
            stack.extend(ast.iter_child_nodes(node))
    assert helpers == 1
    assert not found, "lcm of denominators outside _on_one_den: " + \
        ", ".join(found)


def test_rows_are_evaluated_in_one_module():
    """A plan's roots are read over bound rows only in `structures`
    (`_satisfying`, `eval_table`): no other module imports `_table` or
    `_bind_rows`, or reads them off the module."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "structures.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = [a.name for a in node.names] \
                if isinstance(node, ast.ImportFrom) else \
                [node.attr] if isinstance(node, ast.Attribute) else []
            found += [f"{path.name}:{node.lineno} {n}" for n in names
                      if n in ("_table", "_bind_rows")]
    assert not found, "row evaluation outside structures: " + \
        ", ".join(found)


def _lists_every_hit(node: ast.AST) -> bool:
    """`np.argwhere(...)[k]` or `np.flatnonzero(...)[k]` with a constant k."""
    if not isinstance(node, ast.Subscript) or \
            not isinstance(node.value, ast.Call):
        return False
    fn = node.value.func
    name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", "")
    k = node.slice.elts[0] if isinstance(node.slice, ast.Tuple) else node.slice
    if isinstance(k, ast.UnaryOp):
        k = k.operand
    return name in ("argwhere", "flatnonzero") and isinstance(k, ast.Constant)


def test_first_hits_are_taken_through_one_helper():
    """`np.argwhere(mask)[0]` lists every hit to use one;
    `structures._first_hit(mask)` finds the first and stops there."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if _lists_every_hit(node):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "first hit from a list of every hit: " + ", ".join(found)


def _parameters(fn: ast.AST) -> list[str]:
    a = fn.args
    params = a.posonlyargs + a.args + a.kwonlyargs + [
        p for p in (a.vararg, a.kwarg) if p is not None]
    return [p.arg for p in params]


def test_parameters_are_read():
    """Every parameter of every `def` and `lambda` in `mlw` is read in its
    body (nested functions included): a parameter nothing reads is an
    option that does nothing."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "lambda")
            unread += [f"{path.name}:{node.lineno} {name}({p})"
                       for p in _parameters(node) if p not in read]
    assert not unread, "parameter never read: " + ", ".join(unread)
