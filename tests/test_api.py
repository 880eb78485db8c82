"""The library is what its callers use: every public function, class and
method of `eisq` is referenced somewhere in the package outside its own
definition, unless the README promises it as library API, every field
and property of a class is read, no setting is read from the
environment, and the settable parameters are the pinned ones.

Both scans are one-sided: they match bare names, not the class they
belong to, so a name that several classes or modules share, such as
`.value`, `.p` or `.d`, counts as read when any one of them is read.  A
scan that passes does not prove a name live; one that fails proves it
dead."""

import ast
from pathlib import Path

import eisq

SRC = Path(eisq.__file__).parent

# README library API with no caller inside the package: composition, the
# cusp constants, the validating divisor constructor, the p-exponent of an
# eta-product (the verdict reads it off the checked eta-product of the
# class order), the CLI entry point, and the two results no subcommand
# prints (the cuspidal group of X0(p^2) and the general rational-divisor
# verdict), which the benchmark calls
PROMISED = {
    "classgroup.compose",
    "modforms.delta_cusp_constants",
    "etacusp.CuspDivisor.from_map",
    "etacusp.prime_exponent",
    "cli.main",
    "etacusp.cuspidal_group_invariants",
    "descent.verdict_rational_divisor",
}

# the 20 settable parameters: every function parameter with a default, by
# qualified name, and every CLI option, by subcommand ("*" for the one that
# every subcommand takes); a new knob fails the pin until it is listed here
DEFAULTED = {
    "cli.main": ["argv"],
    "modforms.eisenstein_eigencheck": ["primes"],
}
CLI_OPTIONS = {
    "*": ["--format"],
    "classnum": ["--disc", "--p"],
    "eigencheck": ["--p", "--prec", "--primes"],
    "eta": ["--N", "--r", "--special"],
    "heegner": ["--K", "--ns", "--p", "--p2", "--q"],
    "selmer": ["--d", "--d-range", "--oracle", "--p"],
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
    """(name, line, whether an attribute read) of every name loaded,
    attribute read or name imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, False


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _unused_public_names():
    trees = _trees()
    refs = [(module, *ref) for module, tree in trees.items() for ref in _references(tree)]
    unused = []
    for module, tree in trees.items():
        for qual, name, first, last in _public_definitions(tree):
            # a method or property is called only through an attribute, so
            # a local variable of the same name does not count
            method = "." in qual
            outside = (
                m != module or not first <= line <= last
                for m, n, line, attr in refs
                if n == name and (attr or not method)
            )
            if not any(outside):
                unused.append(f"{module}.{qual}")
    return sorted(unused)


def test_every_public_name_has_a_caller():
    assert [name for name in _unused_public_names() if name not in PROMISED] == []


# the fields no code in the package reads: the cuspidal group that the
# promised `cuspidal_group_invariants` returns, whose invariants the
# benchmark checks and whose fields the `cuspidal-invariants` goldens
# print
UNREAD_FIELDS = {
    "etacusp.CuspidalGroupReport.invariants",
    "etacusp.CuspidalGroupReport.closed_form_12",
}


def _fields(tree):
    """(qualified name, bare name) of each annotated field and each
    property of every class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id
                elif isinstance(item, ast.FunctionDef) and any(
                    isinstance(dec, ast.Name) and dec.id == "property" for dec in item.decorator_list
                ):
                    yield f"{node.name}.{item.name}", item.name


def _unread_fields():
    """The fields and properties whose bare name no attribute read in the
    package matches.  A name that several classes share passes when any one
    of them is read: `descent.NeumannSetzerReport.p` was written and never
    read, and the scan did not see it, because `.p` is read on other
    classes."""
    trees = _trees()
    read = {name for tree in trees.values() for name, _, attr in _references(tree) if attr}
    return sorted(
        f"{module}.{qual}" for module, tree in trees.items() for qual, name in _fields(tree) if name not in read
    )


def test_every_field_is_read():
    # exactly the listed fields go unread, so the list cannot go stale
    assert _unread_fields() == sorted(UNREAD_FIELDS)


# the private names that one module of the package reads off another:
# selmer reads quadfield's local data and square classes, and the general
# verdict in descent reads etacusp's one entry for its eta-product (the
# checked class order, prime exponent and canonical test); a new private
# reach-in fails until it is listed here
PRIVATE_READS = {
    "selmer -> quadfield._local_data",
    "selmer -> quadfield._is_square_class",
    "descent -> etacusp._rational_eta_product",
}


def _private_reads():
    """`importer -> module._name` for each private name that a module reads
    off a sibling, as an attribute of the module or by a relative import."""
    trees = _trees()
    found = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                owner, names = node.value.id, [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                owner, names = node.module, [alias.name for alias in node.names]
            else:
                continue
            if owner in trees and owner != module:
                found.update(f"{module} -> {owner}.{name}" for name in names if name[0] == "_" and name[:2] != "__")
    return sorted(found)


def test_private_reads_across_modules_are_listed():
    # exactly the listed reads happen, so the list cannot go stale
    assert _private_reads() == sorted(PRIVATE_READS)


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


def _functions(body, prefix):
    """(qualified name, node) of every function in body, nested ones included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qual = f"{prefix}.{node.name}"
            if not isinstance(node, ast.ClassDef):
                yield qual, node
            yield from _functions(node.body, qual)


def test_settable_parameters_are_pinned():
    defaulted, options = {}, {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for qual, node in _functions(tree.body, path.stem):
            args = node.args
            positional = args.posonlyargs + args.args
            names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
            names += [a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            if names:
                defaulted[qual] = names
        # the subcommand of each parser variable, then the options added to it
        subcommand = {
            target.id: node.value.args[0].value
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute) and node.value.func.attr == "add_parser"
            for target in node.targets
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument":
                key = subcommand.get(node.func.value.id, "*")
                options.setdefault(key, []).append(node.args[0].value)
    assert defaulted == DEFAULTED
    assert {key: sorted(flags) for key, flags in options.items()} == CLI_OPTIONS
    assert sum(map(len, DEFAULTED.values())) + sum(map(len, CLI_OPTIONS.values())) == 20
