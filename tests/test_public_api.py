"""No library code that only tests call.

Every public top-level function of ``src/shadowcover``, and every public
method and property of its public classes, must be referenced outside
``tests/``: from another library module, from a non-definition position in
its own module, from an ``__all__`` list, or from ``bench/``.
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
}


def _used_names(tree: ast.Module) -> set[str]:
    """Names read by the module: bare names, attributes and __all__ entries."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    return used


def _public_defs(tree: ast.Module):
    """(qualified name, name) of each public top-level function and of each
    public method or property of a public top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def unreferenced_public_members(src: Path, bench: Path) -> list[str]:
    """``module.name`` of each public function, method or property of
    src/*.py that nothing outside the tests refers to."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(src.glob("*.py"))}
    used = {stem: _used_names(tree) for stem, tree in trees.items()}
    bench_used = set().union(*(_used_names(ast.parse(p.read_text(), filename=str(p)))
                               for p in sorted(bench.glob("*.py"))))
    everywhere = set().union(bench_used, *used.values())
    found = []
    for stem, tree in trees.items():
        # a def is not a Name node, so any hit is a real reference
        found += [f"{stem}.{qual}" for qual, name in _public_defs(tree) if name not in everywhere]
    return found


def test_every_public_function_has_a_non_test_caller():
    assert sorted(set(unreferenced_public_members(SRC, BENCH)) - ALLOWED) == []


def test_scanner_flags_a_test_only_function(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "a.py").write_text("def used():\n    pass\n\ndef orphan():\n    used()\n"
                              "\ndef exported():\n    pass\n\n__all__ = ['exported']\n")
    (src / "b.py").write_text("from .a import orphan as _o\n\ndef benched():\n    pass\n"
                              "\nclass Report:\n    def read(self):\n        pass\n"
                              "\n    @property\n    def lonely(self):\n        pass\n"
                              "\n    def _private(self):\n        pass\n")
    (bench / "run.py").write_text("import b\nb.benched()\nb.Report().read()\n")
    assert unreferenced_public_members(src, bench) == ["a.orphan", "b.Report.lonely"]
