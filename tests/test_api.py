"""The library is what its callers use: every public function, class and
method of `eisq` is referenced somewhere in the package outside its own
definition, unless the README promises it as library API, and no setting
is read from the environment."""

import ast
from pathlib import Path

import eisq

SRC = Path(eisq.__file__).parent

# README library API with no caller inside the package: composition, the
# cusp constants, the validating divisor constructor, the CLI entry point,
# and the two results no subcommand prints (the cuspidal group of X0(p^2)
# and the general rational-divisor verdict), which the benchmark calls
PROMISED = {
    "classgroup.compose",
    "modforms.delta_cusp_constants",
    "etacusp.CuspDivisor.from_map",
    "cli.main",
    "etacusp.cuspidal_group_invariants",
    "descent.verdict_rational_divisor",
}


def _public_definitions(tree):
    """(qualified name, bare name, first line, last line) of each public
    top-level function or class and each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno


def _references(tree):
    """(name, line) of every name loaded, attribute read or name imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def _unused_public_names():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = [(module, name, line) for module, tree in trees.items() for name, line in _references(tree)]
    unused = []
    for module, tree in trees.items():
        for qual, name, first, last in _public_definitions(tree):
            outside = (m != module or not first <= line <= last for m, n, line in refs if n == name)
            if not any(outside):
                unused.append(f"{module}.{qual}")
    return sorted(unused)


def test_every_public_name_has_a_caller():
    assert [name for name in _unused_public_names() if name not in PROMISED] == []


def test_promised_names_exist():
    defined = {
        f"{path.stem}.{qual}"
        for path in SRC.glob("*.py")
        for qual, *_ in _public_definitions(ast.parse(path.read_text()))
    }
    assert PROMISED <= defined


def test_no_setting_read_from_the_environment():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
    ]
    assert found == []
