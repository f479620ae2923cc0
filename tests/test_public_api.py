"""No library code that only tests call.

Every public top-level function and module-level constant of
``src/shadowcover``, and every public method and property of its public
classes, must be read outside ``tests/``: from another library module, from
a non-definition position in its own module, from an ``__all__`` list, or
from ``bench/``.  Only loads count, so a constant's own assignment does not.

The scan matches names, not modules: a library name is taken as read when
the bench reads a name of its own that is spelled the same.  So it cannot
see a constant like a ``shadows.BORDERLINE`` while ``bench/workloads.py``
defines and reads its own ``BORDERLINE``.
"""

import ast
from pathlib import Path

import shadowcover

SRC = Path(shadowcover.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "bench"

# public on purpose although only tests call them, each with its reason
ALLOWED = {
    # encodes the paper's mean-width and diameter corollaries
    "widths.corollary_checks",
    # the hull's 1-skeleton; the bench's layer table reads its span by name
    # (bench/spans.py), so it stays public until that metric goes
    "bodies.edges",
    # the point-in-hull LP: the tests' containment reference, and the bench's
    # layer table reads its span by name (bench/spans.py)
    "bodies.point_in_hull",
}


def _used_names(tree: ast.Module) -> set[str]:
    """Names read by the module: loaded bare names and attributes, and
    __all__ entries."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    return used


def _public_defs(tree: ast.Module):
    """(qualified name, name) of each public top-level function and
    module-level constant, and of each public method or property of a
    public top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, t.id) for t in targets
                        if isinstance(t, ast.Name) and not t.id.startswith("_"))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def unreferenced_public_members(src: Path, bench: Path) -> list[str]:
    """``module.name`` of each public function, constant, method or property
    of src/*.py that nothing outside the tests reads."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(src.glob("*.py"))}
    used = {stem: _used_names(tree) for stem, tree in trees.items()}
    bench_used = set().union(*(_used_names(ast.parse(p.read_text(), filename=str(p)))
                               for p in sorted(bench.glob("*.py"))))
    everywhere = set().union(bench_used, *used.values())
    found = []
    for stem, tree in trees.items():
        # a def is not a Name node, nor is an assignment a load, so any hit is a real read
        found += [f"{stem}.{qual}" for qual, name in _public_defs(tree) if name not in everywhere]
    return found


def test_every_public_function_has_a_non_test_caller():
    assert sorted(set(unreferenced_public_members(SRC, BENCH)) - ALLOWED) == []


def test_scanner_flags_a_test_only_function(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "a.py").write_text("def used():\n    pass\n\ndef orphan():\n    used()\n"
                              "\ndef exported():\n    pass\n\n__all__ = ['exported']\n"
                              "\nREAD = 1\nUNREAD = READ\nSTORED: int = 2\nSTORED = 3\n"
                              "_PRIVATE = 4\n")
    (src / "b.py").write_text("from .a import orphan as _o\n\ndef benched():\n    pass\n"
                              "\nclass Report:\n    def read(self):\n        pass\n"
                              "\n    @property\n    def lonely(self):\n        pass\n"
                              "\n    def _private(self):\n        pass\n")
    (bench / "run.py").write_text("import b\nb.benched()\nb.Report().read()\n")
    assert unreferenced_public_members(src, bench) == [
        "a.orphan", "a.UNREAD", "a.STORED", "a.STORED", "b.Report.lonely"]
