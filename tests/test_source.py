import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import isotypic
from isotypic import branching, characters, cli, errors, fock, lr


def test_library_has_no_assert_statements():
    """Correctness checks must raise typed errors: ``python -O`` strips asserts."""
    root = Path(isotypic.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# The raises a Python protocol dictates, by the definition that holds them.
PROTOCOL_RAISES = {
    "lr.Decomposition.__setattr__": "AttributeError",  # attribute assignment
    "cli.positive_int": "argparse.ArgumentTypeError",  # argparse's type hook
}


def _nodes(tree, prefix, kind=ast.Raise):
    """(qualified name of the enclosing definition, node) for each `kind` node in tree."""
    stack = [(prefix, tree)]
    while stack:
        name, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, kind):
                yield name, child
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                stack.append((f"{name}.{child.name}", child))
            else:
                stack.append((name, child))


def test_library_raises_only_typed_errors():
    """The error contract: every explicit raise names an ``IsotypicError``
    subclass, ``ValueError`` or ``TypeError``, so no bare
    ``ZeroDivisionError`` or ``StopIteration`` leaves the package.  A bare
    re-raise names nothing and fails too; ``PROTOCOL_RAISES`` holds the
    only exceptions, and each of its entries must still exist."""
    root = Path(isotypic.__file__).parent
    bad, protocol = [], set()
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualname, node in _nodes(tree, path.stem):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = ast.unparse(exc) if exc is not None else "(bare raise)"
            cls = getattr(errors, name, None)
            if name in ("ValueError", "TypeError") or (
                isinstance(cls, type) and issubclass(cls, errors.IsotypicError)
            ):
                continue
            if PROTOCOL_RAISES.get(qualname) == name:
                protocol.add(qualname)
            else:
                bad.append(f"{path.name}:{node.lineno} {qualname} raises {name}")
    assert bad == []
    assert protocol == set(PROTOCOL_RAISES)


def test_each_hand_built_value_type_is_made_in_one_function():
    """``object.__new__`` appears only in the one function that makes each
    hand-built value type, so every other route goes through it; an alias
    counts, since any reference is found.  ``tuple.__new__`` in the
    named-tuple types is not this test's business."""
    root = Path(isotypic.__file__).parent
    found = {
        qualname
        for path in sorted(root.glob("*.py"))
        for qualname, node in _nodes(ast.parse(path.read_text(encoding="utf-8")), path.stem, ast.Attribute)
        if node.attr == "__new__" and isinstance(node.value, ast.Name) and node.value.id == "object"
    }
    assert found == {"fock._gauss", "terms.TermMap._new", "lr.Decomposition._wrap"}


def test_every_package_name_is_used_or_exported():
    """API that only tests call does not belong in the package.

    Every top-level function or class must be imported by
    ``isotypic/__init__`` or named (as a Name, an Attribute or an imported
    alias) somewhere in ``src/isotypic`` or ``scripts/`` outside its own
    body.  Every non-dunder method must be reached there as an attribute
    (``x.name``) outside its own body: a bare name or an import alias does
    not call it.  The scripts are users; the tests and the benchmark are
    not, so a name only they reach fails.  An AST check cannot tell apart
    same-name methods of two classes: a method named like another class's
    used one (say, a second ``conj`` beside ``GaussRat.conj``) still passes.
    """
    root = Path(isotypic.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in root.glob("*.py")}
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    users = list(trees.values())
    users += [ast.parse(path.read_text(encoding="utf-8")) for path in scripts.glob("*.py")]
    uses = []  # (name, node, reached as an attribute)
    for tree in users:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((node.id, node, False))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, node, True))
            elif isinstance(node, ast.ImportFrom):
                uses.extend((alias.name, node, False) for alias in node.names)
    definitions = []  # (qualified name, node, is a method)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((f"{module}.{node.name}", node, False))
            if isinstance(node, ast.ClassDef):
                definitions.extend(
                    (f"{module}.{node.name}.{item.name}", item, True)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                )
    unused = []
    for qualname, node, method in definitions:
        body = {id(inner) for inner in ast.walk(node)}
        if not any(
            name == node.name and id(use) not in body and (attribute or not method)
            for name, use, attribute in uses
        ):
            unused.append(qualname)
    assert unused == []


def test_cli_start_up_imports_neither_dataclasses_nor_inspect():
    """The value records are named tuples: no module imports ``dataclasses``,
    and ``import isotypic.cli`` loads neither it nor ``inspect`` (which it
    drags in) beyond what a bare interpreter in the same environment loads."""
    root = Path(isotypic.__file__).parent
    importers = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "dataclasses" for module in modules):
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []
    env = dict(os.environ, PYTHONPATH=str(root.parent))
    probe = "import sys; {}print(sorted({{'dataclasses', 'inspect'}}.intersection(sys.modules)))"
    bare, after_cli = (
        subprocess.run(
            [sys.executable, "-c", probe.format(prefix)],
            capture_output=True, text=True, env=env, check=True,
        ).stdout
        for prefix in ("", "import isotypic.cli; ")
    )
    assert after_cli == bare


def test_cli_imports_no_private_package_name():
    """The CLI stands on the package's public names alone."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "isotypic")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


def test_fock_imports_neither_the_character_oracle_nor_lr():
    """The Fock laboratory stands on the shared term-map core alone."""
    tree = ast.parse(Path(fock.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    assert {"characters", "lr"}.isdisjoint(names)


def _names(module):
    """Every name, attribute and imported alias the module's source mentions."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_characters_never_read_the_lr_table():
    """Side A of reciprocity (the torus character) stays independent of side
    B: the character module names neither the LR table nor the Littlewood
    table, as a name, an attribute or an imported alias."""
    assert callable(lr._lr_table) and callable(branching._littlewood_terms)
    assert {"_lr_table", "_littlewood_terms"}.isdisjoint(_names(characters))


def test_branching_never_reads_the_lr_products():
    """The Littlewood sums fill lam/delta themselves: branching names neither
    the LR product table nor a single LR coefficient, so restrictions never
    fill the products' memo."""
    assert callable(lr._lr_table) and callable(lr.lr_coefficient)
    assert {"_lr_table", "lr_coefficient"}.isdisjoint(_names(branching))


def test_lr_table_is_a_loop():
    """The LR search keeps no call stack: `_lr_table` defines no nested
    function, and the only function of `lr` that calls itself is
    `_lr_table`, once, for its lighter-first swap."""
    tree = ast.parse(Path(lr.__file__).read_text(encoding="utf-8"))
    defs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    self_calls = {
        fn.name: sum(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == fn.name
            for n in ast.walk(fn)
        )
        for fn in defs
    }
    assert {name: count for name, count in self_calls.items() if count} == {"_lr_table": 1}
    (table,) = [fn for fn in defs if fn.name == "_lr_table"]
    assert not [n for n in ast.walk(table) if n is not table and isinstance(n, (ast.FunctionDef, ast.Lambda))]


def test_test_oracles_import_nothing_from_the_package():
    """The oracles are an independent route only while they share no code."""
    path = Path(__file__).resolve().parent / "oracles.py"
    modules = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    assert modules and not [m for m in modules if m.split(".")[0] in ("isotypic", "")]


def test_fock_decides_covariance_without_sampling():
    """Borel covariance is a decision, not a sample: fock draws nothing at random."""
    assert not hasattr(fock, "random")


def test_traced_benchmark_targets_still_resolve():
    """Every function the layer tracer rebinds must exist where it looks."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    targets = [(module, attr) for _, module, attr, _ in layertrace.SPANNED]
    targets += [(module, attr) for _, module, attr in layertrace.COUNTED]
    missing = []
    for module, attr in targets:
        if module is None:
            cls_name, meth = attr.split(".")
            found = callable(getattr(fock, cls_name).__dict__.get(meth))
        else:
            found = callable(getattr(importlib.import_module(f"isotypic.{module}"), attr, None))
        if not found:
            missing.append(f"{module or 'fock'}.{attr}")
    assert missing == []
    assert callable(characters.so_character.cache_info)
    memos = [
        branching._littlewood_terms,
        characters._fold,
        characters._torus_folds,
        characters.schur_poly,
        characters.schur_laurent_on_so_torus,
        characters.so_character,
        lr._lr_table,
    ]
    assert all(memo.cache_parameters()["maxsize"] is not None for memo in memos)
