"""No code that only tests call.

Every function, method and class defined in src/gridflow must be referenced
from src/gridflow or perfbench/: as a name, an attribute, an imported name or
a string constant equal to it. A method counts as called only through an
attribute or a string constant, since a bare name of the same spelling (a
local variable, say) cannot reach it. A module's own `__all__` does not
count, and dunder methods are called by the language. A name that is
reached another way goes in ALLOWED with the reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gridflow"
CALLERS = [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]

ALLOWED = {}

_DUNDER = re.compile(r"__\w+__")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def defined() -> list[tuple[str, str, bool]]:
    """(name, 'module:line', defined in a class body) of every function, method
    and class under src/gridflow."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for parent in ast.walk(_tree(path)):
            for node in ast.iter_child_nodes(parent):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if not _DUNDER.fullmatch(node.name):
                        method = isinstance(parent, ast.ClassDef)
                        out.append((node.name, f"{path.name}:{node.lineno}", method))
    return out


def referenced() -> tuple[set[str], set[str]]:
    """The names referenced outside the tests, and those among them that an
    attribute or a string constant references."""
    names, attrs = set(), set()
    for path in CALLERS:
        tree = _tree(path)
        exported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported.update(map(id, ast.walk(node.value)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and type(node.value) is str:
                if id(node) not in exported:
                    attrs.add(node.value)
    return names | attrs, attrs


def _uncalled() -> set[tuple[str, str]]:
    refs, attrs = referenced()
    return {(name, where) for name, where, method in defined()
            if name not in (attrs if method else refs)}


def test_every_definition_has_a_caller_outside_the_tests():
    unused = sorted(f"{where} {name}" for name, where in _uncalled() if name not in ALLOWED)
    assert unused == []


def test_allowlist_names_only_definitions_without_callers():
    names = {name for name, _, _ in defined()}
    uncalled = {name for name, _ in _uncalled()}
    assert [n for n in ALLOWED if n not in names or n not in uncalled] == []
