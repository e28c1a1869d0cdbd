"""Every module-level ``functools.lru_cache`` or ``functools.cache`` of the
package is a bounded, pure memo, listed below with the reason it may stay.

A cache that holds the last object a call built, or one keyed by a
diagram, is module-global mutable state: what a call costs, or what it
reads, then depends on the calls before it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vknots"
CACHES = {"lru_cache", "cache"}

ALLOWED = {
    "khovanov._x_columns": "the C_x columns and d o d check of one switch map, a pure "
    "function of the switch data and circle count; at most 256 maps",
    "khovanov._bit_order": "the label masks ordered by bit count, a pure function of "
    "the bit count; one entry per circle count up to MAX_CAP_CHORDS + 1",
    "cli._parser": "the argparse parser, built once per process; parsing keeps no "
    "state in it",
}


def is_cache(node: ast.AST) -> bool:
    """``functools.lru_cache`` or ``functools.cache``, called or not, by
    attribute or by imported name."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr in CACHES
    return isinstance(node, ast.Name) and node.id in CACHES


def module_caches(tree: ast.Module) -> set[str]:
    """Module-level names bound to a cache: decorated definitions, and
    assignments whose value applies a cache (``f = lru_cache(...)(g)``)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if any(is_cache(d) for d in node.decorator_list):
                names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            if any(is_cache(sub) for sub in ast.walk(node.value)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names |= {sub.id for t in targets for sub in ast.walk(t)
                          if isinstance(sub, ast.Name)}
    return names


def package_caches() -> set[str]:
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {f"{path.stem}.{name}" for name in module_caches(tree)}
    return found


def test_every_module_cache_is_an_allowed_memo():
    assert sorted(package_caches() - ALLOWED.keys()) == []


def test_every_allowed_memo_exists():
    assert sorted(ALLOWED.keys() - package_caches()) == []


def test_finds_decorated_and_assigned_caches():
    tree = ast.parse(
        "import functools\n"
        "from functools import cache\n"
        "@functools.lru_cache(maxsize=1)\n"
        "def a(): pass\n"
        "@cache\n"
        "def b(): pass\n"
        "c = functools.lru_cache(maxsize=1)(dict)\n"
        "def d(): pass\n"
    )
    assert module_caches(tree) == {"a", "b", "c"}
