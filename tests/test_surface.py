"""The library holds what the program runs: every public module-level name
of ``src/kgsynth`` is read somewhere in ``src/kgsynth`` or ``bench`` other
than its own definition. A name only tests read belongs in ``tests``. Only
``cli.Stage`` and ``pipeline.JsonlSink`` open a file for writing, and every
name the bench's tracer wraps is defined."""
import ast
import os
import subprocess
import sys
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


# the (module, top-level class) that may open a file for writing
WRITERS = {("cli", "Stage"), ("pipeline", "JsonlSink")}


def file_writes(tree):
    """(line, call) for each call in a module that writes a file: ``open``
    (the builtin, ``io.open`` or a ``Path.open``) with a mode that is not a
    string free of ``w``, ``a``, ``x`` and ``+``, any ``write_text`` or
    ``write_bytes``, and a ``tofile`` not handed a file handle: a name a
    ``with`` statement binds, or a parameter called ``fh``, the name a layer
    gives the handle it writes to."""
    handles = {item.optional_vars.id for node in ast.walk(tree) if isinstance(node, ast.With)
               for item in node.items if isinstance(item.optional_vars, ast.Name)}
    handles |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg) and node.arg == "fh"}
    for node in ast.walk(tree):
        name = isinstance(node, ast.Call) and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
        if name == "open":
            # the mode is the second argument of the builtin and of io.open, the first of a Path.open
            method = isinstance(node.func, ast.Attribute) and getattr(node.func.value, "id", None) != "io"
            args = node.args if method else node.args[1:]
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"), args[0] if args else None)
            if mode is not None and not (isinstance(mode, ast.Constant) and set(str(mode.value)).isdisjoint("wax+")):
                yield node.lineno, ast.unparse(node)
        elif name in ("write_text", "write_bytes") or name == "tofile" and not (
                node.args and isinstance(node.args[0], ast.Name) and node.args[0].id in handles):
            yield node.lineno, ast.unparse(node)


def test_only_the_stage_and_the_sink_open_a_file_for_writing():
    writes = []
    for path in sorted((ROOT / "src" / "kgsynth").rglob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            if (path.stem, getattr(statement, "name", None)) not in WRITERS:
                writes += [f"{path.relative_to(ROOT)}:{line}: {call}" for line, call in file_writes(ast.Module([statement], []))]
    assert writes == []


def test_every_name_the_bench_tracer_wraps_is_defined():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")]))
    run = subprocess.run([sys.executable, "-c", "import spans\nspans.install(spans.Tracer())"],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
