"""Every module-level name and public method of the package is read somewhere.

A module-level name counts as read when some module in ``src/``,
``tests/`` or ``bench/`` loads it as a name, an attribute or an import; a
public method of a public class, when some module loads it as an
attribute.  A string constant counts only in ``bench/`` (``bench/spans.py``
wraps functions by name), and a dotted one such as
``"GaussDiagram.canonical_code"`` counts for each of its parts.  A
top-level definition's reads of its own name do not count.

A name that only the tests read is listed in ``TEST_ONLY`` with the
reason it stays: an oracle, a paper operation, or a report schema.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vknots"
ALLOWED = {"__version__"}

# Names that no ``bench/`` module and no package module but ``__init__``
# reads, with the reason each may stay.
TEST_ONLY = {
    "arrows.ArrowPattern.labels": "oracle: the chord labels the pairing tests read off a pattern",
    "arrows.subdiagram_expand": "oracle: the 2**n subdiagram expansion the pairing avoids",
    "braids.free_reduce": "paper operation: free reduction of a braid word",
    "corpus.figure_eight": "oracle: a named knot whose invariant values the tests pin",
    "corpus.gpv2_trivial": "oracle: the 2-family virtualization-trivial example",
    "corpus.left_trefoil": "oracle: a named knot whose invariant values the tests pin",
    "corpus.right_trefoil": "oracle: a named knot whose invariant values the tests pin",
    "corpus.unknot": "oracle: the trivial diagram every invariant is normalized on",
    "corpus.virtual_trefoil": "oracle: a named virtual knot whose invariant values the tests pin",
    "diagram.GaussDiagram.swap_slots": "oracle: three chained swaps against apply_move's R3 rewrite",
    "diagram.concat_long": "paper operation: connected sum of long diagrams",
    "diagram.cut": "paper operation: cutting a closed diagram to a long one",
    "forbidden.apply_forbidden": "paper operation: one forbidden move at a site",
    "forbidden.expand_semitriple": "paper operation: a semi-triple point as a formal sum of diagrams",
    "forbidden.lemma3_residual": "oracle: the Lemma 3 similarity identity",
    "khovanov.lemma5_check": "oracle: the Lemma 5 certificate on one state, against lemma5_scan",
    "khovanov.lemma5_gradings": "oracle: the (i, j) of one Lemma 5 state, against lemma5_scan",
    "schemas.BRAID_REPORT": "report schema of braid, validated by the CLI tests",
    "schemas.LEMMA5_REPORT": "report schema of lemma5, validated by the CLI tests",
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


def read_names(tree: ast.AST, strings: bool) -> tuple[set[str], set[str]]:
    """(names, attributes) read in ``tree``: loaded names and imports, and
    attribute names with the dotted parts of string constants when
    ``strings``."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            attrs.update(node.value.split("."))
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


def test_every_test_only_name_is_listed():
    assert sorted(set(library_only_dead()) - TEST_ONLY.keys()) == []


def test_every_listed_test_only_name_is_test_only():
    # an entry whose name is gone, or that the library now reads, is stale
    assert sorted(TEST_ONLY.keys() - set(library_only_dead())) == []


def test_no_module_level_name_is_dead():
    names: set[str] = set()
    attrs: set[str] = set()
    for folder in ("src", "tests", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            n, a = read_names(ast.parse(path.read_text(encoding="utf-8")), strings=folder == "bench")
            names |= n
            attrs |= a
    assert unread(sorted(PACKAGE.glob("*.py")), names, attrs) == []
