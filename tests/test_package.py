"""Package-wide structure: every public name serves the package."""

import ast
from pathlib import Path

import ddpnkit

SRC = Path(ddpnkit.__file__).parent

# the sine-conflation process's ground-truth moments, an oracle for the tests
ORACLES = {"datagen.sine_conflation_true_moments"}


def _references(tree: ast.AST) -> set:
    """Every name tree reads: plain names, attribute names and imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_every_public_name_has_a_caller():
    """A public top-level function or class is used in its own module,
    referenced from another module of the package, or exported in
    ddpnkit.__all__; a checked twin of a kernel that only tests call fails."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = {module: _references(tree) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        elsewhere = set().union(*(names for other, names in used.items() if other != module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name in used[module] | elsewhere or node.name in ddpnkit.__all__:
                continue
            if f"{module}.{node.name}" not in ORACLES:
                unused.append(f"{module}.{node.name}")
    assert not unused, f"public names without a caller: {unused}"
