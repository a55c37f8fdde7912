"""Every module of the package uses each name it imports or keeps private.

No linter runs in the test suite, so this parses each module of
`src/miflab` (except the package's `__init__.py`, which imports to
re-export) and fails on an imported name that the module never reads.
Names in quoted annotations count as read.  A private name (one leading
underscore, not a dunder) defined in a module, as a module-level name,
function, method or class, must also be read there, as a name or as an
attribute: a helper only tests call is dead code.
"""

import ast
import pathlib

import pytest

MODULES = sorted(
    path
    for path in (pathlib.Path(__file__).parent.parent / "src" / "miflab").glob("*.py")
    if path.name != "__init__.py"
)


def _imported(tree):
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns


def _read(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return names


def test_modules_are_found():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = _read(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items() if name not in read)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree):
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.setdefault(node.name, node.lineno)
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name):
                names.setdefault(target.id, node.lineno)
    return {name: line for name, line in names.items() if _private(name)}


def _loaded(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_private_name_is_read_in_its_module(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = _loaded(tree)
    dead = sorted(
        f"{name} (line {line})" for name, line in _private_definitions(tree).items() if name not in read
    )
    assert not dead, f"{path.name} defines private names it never reads: {', '.join(dead)}"


def _imports_numpy(tree):
    return any(
        isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "numpy" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"
        for node in ast.walk(tree)
    )


def test_only_the_table_modules_import_numpy():
    """numpy is imported only where tables are built or read: the coset
    enumerator, the lab's product tables and the window-table cache."""
    importers = {
        path.stem for path in MODULES if _imports_numpy(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert importers == {"coset_enum", "identity_lab", "limit_group"}


def _reads_max_syllables(tree):
    return any(
        isinstance(node, ast.Name) and node.id == "MAX_SYLLABLES"
        or isinstance(node, ast.Attribute) and node.attr == "MAX_SYLLABLES"
        or isinstance(node, ast.ImportFrom) and any(a.name == "MAX_SYLLABLES" for a in node.names)
        for node in ast.walk(tree)
    )


def test_only_the_word_calculus_and_the_limit_group_read_max_syllables():
    """`mixed_words` owns the syllable bound and writes out every syllable
    list under it; `limit_group` reads it for the letters of a t-power.  No
    other module, the parser included, may bound words of its own."""
    readers = {
        path.stem for path in MODULES if _reads_max_syllables(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert readers == {"mixed_words", "limit_group"}


def _init_imports():
    tree = ast.parse((MODULES[0].parent / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_the_package_exports_each_name_once():
    """`miflab.__all__` lists each name once, each resolves, and each is
    imported by the package's `__init__.py`: a deleted function cannot
    linger in it."""
    import miflab

    exported = miflab.__all__
    assert len(set(exported)) == len(exported), sorted(n for n in exported if exported.count(n) > 1)
    assert all(hasattr(miflab, name) for name in exported)
    assert set(exported) <= _init_imports(), sorted(set(exported) - _init_imports())
