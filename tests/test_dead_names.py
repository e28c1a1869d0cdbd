"""Every module-level name and public method of the package is read somewhere.

A module-level name counts as read when some module in ``src/``,
``tests/`` or ``bench/`` loads it as a name, an attribute or an import; a
public method of a public class, when some module loads it as an
attribute.  A string constant counts only in ``bench/`` (``bench/spans.py``
wraps functions by name), and a dotted one such as
``"GaussDiagram.canonical_code"`` counts for each of its parts.  A
top-level definition's reads of its own name do not count, and neither
does a load of a name that the function reading it, or a function around
it, binds itself (a parameter or local of the same spelling).

A name that only the tests read is listed in ``TEST_ONLY`` with the
reason it stays: an oracle, a paper operation, or a report schema.

Every name an import binds in a package module (but ``__init__``, whose
imports are re-exports) or a test module is read in that module; a
``__future__`` import binds nothing.

A defaulted parameter of a package function or method counts as passed
when some package or ``bench/`` module calls a function of that name with
it, by keyword or by position (a call of a class passes to its
``__init__``).  The calls are matched by name, as the reads are.  A
parameter that no such call passes is listed in ``UNPASSED`` with the
reason it stays, unless its function is in ``TEST_ONLY``.

Every module-level function of the tests' shared modules, ``conftest``
and ``oracles``, is read by another test module: by name, or, for a
``pytest.fixture``, by a parameter of its name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vknots"
ALLOWED = {"__version__"}

# Names that no ``bench/`` module and no package module but ``__init__``
# reads, with the reason each may stay.
TEST_ONLY = {
    "arrows.V21_PATTERN": "oracle: the pattern whose pairing the direct v21 count is held to",
    "arrows.V22_PATTERN": "oracle: the pattern whose pairing the direct v22 count is held to",
    "braids.free_reduce": "paper operation: free reduction of a braid word",
    "corpus.figure_eight": "oracle: a named knot whose invariant values the tests pin",
    "corpus.gpv2_trivial": "oracle: the 2-family virtualization-trivial example",
    "corpus.left_trefoil": "oracle: a named knot whose invariant values the tests pin",
    "corpus.right_trefoil": "oracle: a named knot whose invariant values the tests pin",
    "corpus.unknot": "oracle: the trivial diagram every invariant is normalized on",
    "corpus.virtual_trefoil": "oracle: a named virtual knot whose invariant values the tests pin",
    "diagram.concat_long": "paper operation: connected sum of long diagrams",
    "diagram.cut": "paper operation: cutting a closed diagram to a long one",
    "forbidden.lemma3_residual": "oracle: the Lemma 3 similarity identity",
    "schemas.BRAID_REPORT": "report schema of braid, validated by the CLI tests",
    "schemas.LEMMA5_REPORT": "report schema of lemma5, validated by the CLI tests",
}

# Defaulted parameters that no package or ``bench/`` call is seen to pass,
# with the reason each may stay.
UNPASSED = {
    "arrows.v22.containing": "passed through cli.INVARIANTS by gpv-sum, a call the AST does not name",
}


def defined_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
    return names


def public_methods(tree: ast.Module) -> set[str]:
    """``Class.method`` for every public method of a public class."""
    return {
        f"{node.name}.{sub.name}"
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for sub in node.body
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not sub.name.startswith("_")
    }


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
          ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def scope_names(scope: ast.AST) -> tuple[set[str], set[str]]:
    """(bound, declared global) names of a function, lambda or
    comprehension: its parameters, the names it stores to, imports,
    catches or defines, and the names it declares ``global``.  Nested
    scopes bind their own names."""
    bound, declared = set(), set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = scope.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
        bound |= {p.arg for p in params if p is not None}
        stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    else:
        stack = list(scope.generators)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.alias):
            bound.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.Global):
            declared.update(node.names)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return bound - declared, declared


def read_names(tree: ast.AST, strings: bool) -> tuple[set[str], set[str]]:
    """(names, attributes) read in ``tree``: loaded names and imports, and
    attribute names with the dotted parts of string constants when
    ``strings``.  A load of a name bound in an enclosing function scope
    reads that local, not a module-level name."""
    names, attrs = set(), set()

    def visit(node: ast.AST, bound: frozenset) -> None:
        if isinstance(node, SCOPES):
            local, declared = scope_names(node)
            bound = (bound - declared) | local
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            if node.id not in bound:
                names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            attrs.update(node.value.split("."))
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(tree, frozenset())
    return names, attrs


def unread(paths, names: set[str], attrs: set[str]) -> list[str]:
    """``module.name`` and ``module.Class.method`` of the package modules
    ``paths`` that ``names`` and ``attrs`` do not read."""
    out = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        out += [f"{path.stem}.{name}" for name in defined_names(tree) - names - attrs - ALLOWED]
        out += [f"{path.stem}.{m}" for m in public_methods(tree) if m.split(".")[1] not in attrs]
    return sorted(out)


def library_only_dead() -> list[str]:
    """Package names read by no ``bench/`` module and by no package module
    but ``__init__``; a top-level definition that reads its own name does
    not count."""
    names: set[str] = set()
    attrs: set[str] = set()
    for path in (ROOT / "bench").rglob("*.py"):
        n, a = read_names(ast.parse(path.read_text(encoding="utf-8")), strings=True)
        names |= n
        attrs |= a
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    for path in modules:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = defined_names(ast.Module(body=[node], type_ignores=[]))
            n, a = read_names(node, strings=False)
            names |= n - own
            attrs |= a - own
    return unread(modules, names, attrs)


class _Unimported(ast.NodeTransformer):
    """Drops every import, so that a name counts as read only where it
    is loaded."""

    def visit_Import(self, node):
        return None

    visit_ImportFrom = visit_Import


def unused_imports(tree: ast.Module) -> list[str]:
    """The names the imports of ``tree`` bind, at any depth, that the
    module never reads."""
    bound = set()
    for node in ast.walk(tree):
        future = isinstance(node, ast.ImportFrom) and node.module == "__future__"
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not future:
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
    names, _ = read_names(_Unimported().visit(tree), strings=False)
    return sorted(bound - names)


def defaulted_parameters(tree: ast.Module, module: str):
    """``(qualified name, function name, position or None, method)`` for
    every defaulted parameter of a top-level function or class method;
    keyword-only parameters have no position."""
    defs = [(node, f"{module}.{node.name}", False) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    defs += [(sub, f"{module}.{node.name}.{sub.name}", True) for node in tree.body
             if isinstance(node, ast.ClassDef) for sub in node.body
             if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for func, qualname, method in defs:
        a = func.args
        positional = a.posonlyargs + a.args
        for i in range(len(positional) - len(a.defaults), len(positional)):
            yield f"{qualname}.{positional[i].arg}", func.name, i, method
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield f"{qualname}.{arg.arg}", func.name, None, method


def passed_arguments(trees: list[ast.Module]) -> dict[str, tuple[int, set[str]]]:
    """Per called name (a class call as ``__init__``): the most positional
    arguments any call in ``trees`` passes, and the keywords the calls
    pass.  A ``*args`` passes every position and a ``**kwargs`` (spelled
    ``"**"``) every keyword."""
    classes = {node.name for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)}
    out: dict[str, tuple[int, set[str]]] = {}
    for node in (node for tree in trees for node in ast.walk(tree)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        if name in classes:
            name = "__init__"
        most, keywords = out.get(name, (0, set()))
        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        most = max(most, float("inf") if starred else len(node.args))
        out[name] = (most, keywords | {kw.arg or "**" for kw in node.keywords})
    return out


def unpassed(package: dict[str, ast.Module], callers: list[ast.Module]) -> list[str]:
    """Defaulted parameters of the ``package`` modules (by stem) that no
    call in ``callers`` passes, but those of the functions in
    ``TEST_ONLY``."""
    passed = passed_arguments(callers)
    out = []
    for module, tree in package.items():
        for qualname, name, position, method in defaulted_parameters(tree, module):
            function, param = qualname.rsplit(".", 1)
            if function in TEST_ONLY:
                continue
            most, keywords = passed.get(name, (0, set()))
            # a call through an instance, or of a class, passes self itself
            if position is not None and position < most + method:
                continue
            if not keywords & {param, "**"}:
                out.append(qualname)
    return sorted(out)


def unpassed_parameters() -> list[str]:
    package = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}
    bench = [ast.parse(path.read_text(encoding="utf-8")) for path in (ROOT / "bench").rglob("*.py")]
    return unpassed(package, list(package.values()) + bench)


def test_every_unpassed_parameter_is_listed():
    assert sorted(set(unpassed_parameters()) - UNPASSED.keys()) == []


def test_every_listed_unpassed_parameter_is_unpassed():
    # an entry whose parameter is gone, or that some call now passes, is stale
    assert sorted(UNPASSED.keys() - set(unpassed_parameters())) == []


def test_every_test_only_name_is_listed():
    assert sorted(set(library_only_dead()) - TEST_ONLY.keys()) == []


def test_every_listed_test_only_name_is_test_only():
    # an entry whose name is gone, or that the library now reads, is stale
    assert sorted(TEST_ONLY.keys() - set(library_only_dead())) == []


def test_every_test_only_reason_is_an_allowed_one():
    assert [
        name for name, reason in TEST_ONLY.items()
        if not reason.startswith(("oracle:", "paper operation:", "report schema"))
    ] == []


def test_no_module_level_name_is_dead():
    names: set[str] = set()
    attrs: set[str] = set()
    for folder in ("src", "tests", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            n, a = read_names(ast.parse(path.read_text(encoding="utf-8")), strings=folder == "bench")
            names |= n
            attrs |= a
    assert unread(sorted(PACKAGE.glob("*.py")), names, attrs) == []


def unread_shared() -> list[str]:
    """``module.function`` of the module-level functions of ``conftest``
    and ``oracles`` that no other test module reads by name, nor, for a
    fixture, by a parameter of its name."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "tests").glob("*.py"))}
    out = []
    for module in ("conftest", "oracles"):
        names, params = set(), set()
        for stem, tree in trees.items():
            if stem != module:
                n, a = read_names(tree, strings=False)
                names |= n | a
                params |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
        for node in trees[module].body:
            if isinstance(node, ast.FunctionDef):
                fixture = any("fixture" in ast.unparse(dec) for dec in node.decorator_list)
                if node.name not in (params if fixture else names):
                    out.append(f"{module}.{node.name}")
    return out


def test_every_shared_test_function_is_read():
    assert unread_shared() == []


def test_no_import_is_unused():
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    paths += sorted((ROOT / "tests").rglob("*.py"))
    assert [
        f"{path.relative_to(ROOT)}: {name}"
        for path in paths
        for name in unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ] == []


SYNTHETIC = """
def param(): pass
def assigned(): pass
def comp(): pass
def outer_local(): pass
def caught(): pass
def declared(): pass
def plain(): pass

def reads_params(param):
    return param

def reads_locals():
    assigned = 1
    try:
        pass
    except ValueError as caught:
        return caught
    return assigned, [comp for comp in range(3)]

def reads_a_closure():
    outer_local = 1
    def inner():
        return outer_local
    return inner

def reads_module_names():
    global declared
    return declared, plain

readers = (reads_params, reads_locals, reads_a_closure, reads_module_names)
"""


def test_a_local_of_the_same_spelling_is_no_read(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC, encoding="utf-8")
    names, attrs = read_names(ast.parse(SYNTHETIC), strings=False)
    # only the globals the functions read count; ``readers`` is read by nothing
    assert unread([path], names, attrs) == [
        "synthetic.assigned",
        "synthetic.caught",
        "synthetic.comp",
        "synthetic.outer_local",
        "synthetic.param",
        "synthetic.readers",
    ]


SYNTHETIC_CALLS = """
class Box:
    def __init__(self, size=1, *, label=None): pass
    def grow(self, by=1, twice=False): pass

def by_keyword(x, flag=False): pass
def by_position(x, flag=False): pass
def spread(x, flag=False): pass
def never(x, flag=False, *, strict=True): pass

Box(2).grow(3)
by_keyword(1, flag=True)
by_position(1, True)
spread(*[1, True])
"""


def test_a_parameter_counts_as_passed_by_keyword_or_position():
    tree = ast.parse(SYNTHETIC_CALLS)
    # the class call passes size, and grow's call its first argument
    assert unpassed({"synthetic": tree}, [tree]) == [
        "synthetic.Box.__init__.label",
        "synthetic.Box.grow.twice",
        "synthetic.never.flag",
        "synthetic.never.strict",
    ]


SYNTHETIC_IMPORTS = """
from __future__ import annotations
import os.path
import json as j
import shutil
from typing import Iterable, Sequence

def local():
    import re
    return re.compile("x"), j

def shadowed(shutil):
    return shutil

def annotated(x: Sequence) -> None:
    return os.path.join(x)
"""


def test_an_import_counts_as_read_only_where_it_is_loaded():
    # a dotted import binds its first part, ``as`` binds the alias, a
    # parameter of the same spelling hides the module, and the import
    # itself is no read
    assert unused_imports(ast.parse(SYNTHETIC_IMPORTS)) == ["Iterable", "shutil"]
