"""Every public name and every function of the package has a reader in the program.

A name in a module's ``__all__`` that only tests call is code no suite runs:
it drifts from the program and can carry claims no report checks.  The scan
reads ``src/ugmt`` and ``perfbench``.  A use of ``module.name`` is an import
of it, an attribute of the module imported as a module (``batteries.UNIT``),
or, inside the module, a read of the name that no local binding shadows
(Python's own scoping, through ``symtable``).  So a method call
(``F.gradient``) does not use a module function of the same name, and a
definition or an assignment is not a use.

Every other function or method (dunders aside) is checked by name only: some
module must read its name as a name, an attribute or an import outside the
function's own definition (a recursive call is not a caller).  A read of a
name that the reading function binds itself, other than by a nested ``def``
or ``class``, or takes from an enclosing function's such binding, reads that
local (``symtable`` again), so a local ``build = ...`` does not call a module
function ``build``.  A string constant counts only where it names a hook that
``perfbench/tracer.py`` wraps by name (its ``_EXTRA`` entry points and
``_KERNEL_FNS``).  A name no module reads at all is code nothing calls.
"""

import ast
import pathlib
import symtable
from collections import Counter

ROOT = pathlib.Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "ugmt"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _public_names() -> list[tuple[str, str]]:
    """(module, name) for each ``__all__`` entry of a module.  The package's
    own ``__all__`` re-exports module names: their import in ``__init__``
    counts as a use of the module's name, so they are not listed twice."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                    for t in node.targets):
                out.extend((path.stem, name) for name in ast.literal_eval(node.value))
    return out


def _imported_module(node: ast.ImportFrom, path: pathlib.Path) -> str | None:
    """The package module an ``from ... import`` statement reads, if any."""
    if node.level == 1 and path.parent == PACKAGE:
        return node.module or "__init__"
    if node.level == 0 and node.module and node.module.split(".")[0] == "ugmt":
        return node.module.partition(".")[2] or "__init__"
    return None


def _global_reads(table: symtable.SymbolTable) -> set[str]:
    """Names read at module level, or as globals in any function or class."""
    names, tables = set(), [table]
    while tables:
        t = tables.pop()
        names.update(sym.get_name() for sym in t.get_symbols()
                      if sym.is_referenced() and (t.get_type() == "module" or sym.is_global()))
        tables.extend(t.get_children())
    return names


def _program_uses() -> set[tuple[str, str]]:
    used = set()
    for path in _program_files():
        text = path.read_text()
        tree = ast.parse(text)
        modules = {}  # local name -> package module imported as a module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (source := _imported_module(node, path)):
                for alias in node.names:
                    if source == "__init__" and alias.name in MODULES:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        used.add((source, alias.name))
        used.update((modules[node.value.id], node.attr) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules)
        if path.parent == PACKAGE:
            table = symtable.symtable(text, str(path), "exec")
            used.update((path.stem, name) for name in _global_reads(table))
    return used


def _program_files() -> list[pathlib.Path]:
    return [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]


def _functions() -> list[tuple[str, ast.FunctionDef]]:
    """(module, definition) for every function and method defined in the
    package, at any depth, dunders excluded."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                out.append((path.stem, node))
    return out


def _function_tables(path: pathlib.Path) -> dict[tuple[str, int], symtable.SymbolTable]:
    """The symbol table of each function in a file, by (name, line of its def)."""
    out, tables = {}, [symtable.symtable(path.read_text(), str(path), "exec")]
    while tables:
        t = tables.pop()
        if t.get_type() == "function":
            out[(t.get_name(), t.get_lineno())] = t
        tables.extend(t.get_children())
    return out


def _local_read(name: str, scopes: list[symtable.SymbolTable]) -> bool:
    """Whether a read of ``name`` inside the innermost of the nested function
    ``scopes`` reads a local binding other than a nested definition."""
    for table in reversed(scopes):
        if name not in table.get_identifiers():
            continue
        sym = table.lookup(name)
        if sym.is_free():
            continue
        return sym.is_local() and not sym.is_namespace()
    return False


def _tracer_hooks() -> set[str]:
    """The private entry points and kernel functions the tracer wraps by name."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    tables = {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets if isinstance(target, ast.Name)}
    return set().union(*ast.literal_eval(tables["_EXTRA"]).values(),
                       ast.literal_eval(tables["_KERNEL_FNS"]))


def _reads(tree: ast.AST, hooks: set[str], tables: dict) -> Counter:
    """Names a syntax tree reads as a name, an attribute or an import, and
    its string constants that name a tracer hook, with their counts; a name
    read as a local (``_local_read``) is left out.  ``tables`` are the
    function symbol tables of the tree's file."""
    names = Counter()

    def visit(node, scopes):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes = scopes + [tables[(node.name, node.lineno)]]
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if not _local_read(node.id, scopes):
                names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and node.value in hooks:
            names[node.value] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, scopes)

    visit(tree, [])
    return names


def _unread_functions() -> set[tuple[str, str]]:
    """(module, name) of each package function whose name no module reads
    outside the function's own definition."""
    hooks = _tracer_hooks()
    tables = {path: _function_tables(path) for path in _program_files()}
    reads = sum((_reads(ast.parse(path.read_text()), hooks, tables[path])
                 for path in _program_files()), Counter())
    return {(module, node.name) for module, node in _functions()
            if reads[node.name]
            == _reads(node, hooks, tables[PACKAGE / f"{module}.py"])[node.name]}


def test_every_function_is_read_by_the_program():
    unread = sorted(f"{module}.{name}" for module, name in _unread_functions())
    assert not unread, f"functions no module reads: {unread}"


def test_every_public_name_has_a_program_caller():
    used = _program_uses()
    test_only = [f"{module}.{name}" for module, name in _public_names()
                 if (module, name) not in used]
    assert not test_only, f"public names that only tests call: {test_only}"


def _union_members(node: ast.AST) -> list[ast.AST]:
    """The members of an ``a | b | ...`` annotation, or the annotation itself."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _union_members(node.left) + _union_members(node.right)
    return [node]


def _one_or_many(annotation: ast.AST) -> bool:
    """Whether an annotation admits both T and tuple[T, ...]."""
    members = {ast.unparse(m) for m in _union_members(annotation)}
    return any(f"tuple[{t}, ...]" in members for t in members)


def _one_or_many_parameters(package: pathlib.Path) -> list[str]:
    """module.function(parameter) for each parameter annotated T | tuple[T, ...]."""
    hits = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                hits.extend(f"{path.stem}.{node.name}({arg.arg})"
                            for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs,
                                        *filter(None, (a.vararg, a.kwarg))]
                            if arg.annotation is not None and _one_or_many(arg.annotation))
    return hits


def test_no_parameter_takes_one_or_a_tuple():
    # a parameter that takes T or tuple[T, ...] lets its type choose the shape
    # of what the function returns; a function takes one form
    assert _one_or_many_parameters(PACKAGE) == []
