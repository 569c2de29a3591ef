"""No dead definitions: every public function, class, method and property
of the package, and every private one, has a reader in the package besides
its definition."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Public names that only the benchmark's worker and tracer read
# (perfbench/): kept alive there, not in the package.
READ_ONLY_BY_PERFBENCH = {
    "rings.LaurentPoly.coeff",
    "tensor.PolyMatrix.nnz",
    "tensor.PolyMatrix.partial_trace_first",
    "transfer.build_t_one_boundary",
    "transfer.t_open_inhomogeneous",
}


def _unread_names(package: pathlib.Path, private: bool) -> set[str]:
    """``module.name`` and ``module.Class.name`` of every public (or, with
    ``private``, every ``_``-prefixed) module-level function or class and
    method whose name no ``Name``, attribute or ``from`` import in
    ``package`` reads.  Dunder methods are called by the language."""
    def counted(name):
        return not (name.startswith("__") and name.endswith("__")) and \
            name.startswith("_") == private

    defined, read = {}, set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and counted(node.name):
                defined[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                defined.update((f"{path.stem}.{node.name}.{item.name}", item.name)
                               for item in node.body if isinstance(item, ast.FunctionDef)
                               and counted(item.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return {key for key, name in defined.items() if name not in read}


def test_no_exported_but_unused_api():
    assert _unread_names(ROOT / "src" / "heckeverify", private=False) == READ_ONLY_BY_PERFBENCH
    perfbench = "".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    assert all(key.rsplit(".", 1)[1] in perfbench for key in READ_ONLY_BY_PERFBENCH)
    # a private helper left behind by a deletion is dead code too
    assert _unread_names(ROOT / "src" / "heckeverify", private=True) == set()


def test_orphan_guard_finds_unread_private_definitions(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def _used():\n    pass\n\n\ndef _orphan():\n    _used()\n\n\n"
        "class _Box:\n    def __init__(self):\n        pass\n\n"
        "    def _lost(self):\n        pass\n")
    assert _unread_names(tmp_path, private=True) == {"mod._orphan", "mod._Box", "mod._Box._lost"}
    assert _unread_names(tmp_path, private=False) == set()
