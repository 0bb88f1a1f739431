"""The library holds what the program runs: every public module-level name
of ``src/kgsynth`` is read somewhere in ``src/kgsynth`` or ``bench`` other
than its own definition. A name only tests read belongs in ``tests``."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def references(tree):
    """(name, top-level statement) for each name a module's statements read:
    a bare name, an attribute, or a name imported."""
    for statement in tree.body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                yield node.id, statement
            elif isinstance(node, ast.Attribute):
                yield node.attr, statement
            elif isinstance(node, ast.alias):
                yield node.name.rpartition(".")[2], statement


def public_definitions(tree):
    """(name, statement) for each public function, class or constant a
    module defines at its top level."""
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [statement.name]
        elif isinstance(statement, ast.Assign):
            names = [target.id for target in statement.targets if isinstance(target, ast.Name)]
        elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
            names = [statement.target.id]
        else:
            names = []
        yield from ((name, statement) for name in names if not name.startswith("_"))


def test_every_public_library_name_is_read_by_the_program_or_the_bench():
    library = sorted((ROOT / "src" / "kgsynth").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in [*library, *sorted((ROOT / "bench").glob("*.py"))]}
    readers: dict[str, set] = {}
    for tree in trees.values():
        for name, statement in references(tree):
            readers.setdefault(name, set()).add(statement)
    unread = [f"{path.relative_to(ROOT)}: {name}" for path in library
              for name, statement in public_definitions(trees[path]) if not readers.get(name, set()) - {statement}]
    assert unread == []
