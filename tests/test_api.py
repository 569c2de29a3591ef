"""No exported-but-unused API: every public function, class, method and
property of the package has a reader in the package besides its definition."""

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


def _unread_public_names(package: pathlib.Path) -> set[str]:
    """``module.name`` and ``module.Class.name`` of every public definition
    whose name no ``Name``, attribute or ``from`` import in ``package``
    reads."""
    defined, read = {}, set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                defined.update((f"{path.stem}.{node.name}.{item.name}", item.name)
                               for item in node.body if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return {key for key, name in defined.items() if name not in read}


def test_no_exported_but_unused_api():
    assert _unread_public_names(ROOT / "src" / "heckeverify") == READ_ONLY_BY_PERFBENCH
    perfbench = "".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    assert all(key.rsplit(".", 1)[1] in perfbench for key in READ_ONLY_BY_PERFBENCH)
