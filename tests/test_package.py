"""Every name the package and its modules list in ``__all__`` resolves, so does every name its docs cite, and every
name a source, test or demo file imports is used."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import voxsel

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = [info.name for info in pkgutil.iter_modules(voxsel.__path__)]
MODULES = ["voxsel", *(f"voxsel.{name}" for name in SUBMODULES)]

# `grid.VoxelGrid` or ``voxsel.grid.VoxelGrid``: a dotted name in backticks that starts with a module (`grid.py` does not).
MODULE_REF = re.compile(rf"`(?:voxsel\.)?((?:{'|'.join(SUBMODULES)})\.(?!py\b)[A-Za-z_](?:[\w.]*\w)?)")
# A Sphinx role's target, e.g. :func:`score_view` or :class:`~voxsel.selection.ErrorProjectionMap`.
ROLE_REF = re.compile(r":(?:func|class|mod|meth|data):`~?([\w.]+)`")
# A test id, e.g. tests/test_geometry.py::TestBlasIdentity.
TEST_REF = re.compile(r"tests/(\w+\.py)::(\w+(?:::\w+)*)")
SOURCE_FILES = sorted(path for folder in ("src/voxsel", "tests", "demos") for path in (ROOT / folder).rglob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def _walk(obj, names) -> bool:
    """Whether ``obj.<names...>`` exists; a dataclass field without a class default counts."""
    for name in names:
        if name in getattr(obj, "__dataclass_fields__", {}) and not hasattr(obj, name):
            return True  # no attribute to walk into further
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def _resolves(target: str, scopes) -> bool:
    """Whether dotted ``target`` names something: from its module when it starts with ``voxsel``, else in a scope."""
    parts = target.split(".")
    if parts[0] == "voxsel":
        for i in range(len(parts), 0, -1):  # the longest prefix that is a module
            try:
                module = importlib.import_module(".".join(parts[:i]))
            except ModuleNotFoundError:
                continue
            return _walk(module, parts[i:])
    return any(_walk(scope, parts) for scope in scopes)


def _names_in(path: Path, chain: str) -> bool:
    """Whether ``chain`` (``Class::method`` or ``function``) names a class or function defined in ``path``."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for name in chain.split("::"):
        node = next((n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


def _docstrings(module):
    """(docstring, scopes its relative names resolve in) of ``module`` and of each class, function and method it defines."""
    yield module.__doc__, [module]
    for value in vars(module).values():
        obj = inspect.unwrap(value) if callable(value) else value  # lru_cache wraps some functions
        if not (inspect.isclass(obj) or inspect.isfunction(obj)) or obj.__module__ != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj.__doc__, [module]
            continue
        yield obj.__doc__, [obj, module]
        for member in vars(obj).values():
            func = getattr(member, "fget", None) or getattr(member, "__func__", member)  # property, class/staticmethod
            if inspect.isfunction(func):
                yield func.__doc__, [obj, module]


def _stale(text: str, scopes) -> list[str]:
    """The references in ``text`` that name nothing."""
    stale = [ref for ref in MODULE_REF.findall(text) if not _resolves(f"voxsel.{ref}", scopes)]
    stale += [ref for ref in ROLE_REF.findall(text) if not _resolves(ref, scopes)]
    return stale + [
        f"tests/{file}::{chain}"
        for file, chain in TEST_REF.findall(text)
        if not ((ROOT / "tests" / file).is_file() and _names_in(ROOT / "tests" / file, chain))
    ]


def test_every_reference_in_the_readme_resolves():
    assert _stale((ROOT / "README.md").read_text(encoding="utf-8"), [voxsel]) == []


@pytest.mark.parametrize("name", MODULES)
def test_every_reference_in_a_docstring_resolves(name):
    module = importlib.import_module(name)
    stale = [ref for doc, scopes in _docstrings(module) if doc for ref in _stale(doc, scopes)]
    assert stale == []


def test_a_stale_reference_is_caught():
    text = (
        "`grid.VoxelGrid.is_cubic`, ``harness._VIEWS_PER_PASS``, :func:`no_such_function`, "
        ":class:`~voxsel.grid.NoSuchClass`, tests/test_grid.py::TestNoSuchClass, "
        "tests/test_package.py::test_every_export_resolves::nested and tests/no_such_file.py::test_x; "
        "but not `grid.py`, `grid.VoxelGrid.values`, :mod:`voxsel.io` or tests/test_package.py::test_every_export_resolves"
    )
    assert _stale(text, [voxsel.grid]) == [
        "grid.VoxelGrid.is_cubic",
        "harness._VIEWS_PER_PASS",
        "no_such_function",
        "voxsel.grid.NoSuchClass",
        "tests/test_grid.py::TestNoSuchClass",
        "tests/test_package.py::test_every_export_resolves::nested",
        "tests/no_such_file.py::test_x",
    ]


def _unused_imports(source: str) -> list[str]:
    """The names ``source`` imports (``from __future__`` aside) but neither reads as a name nor lists in ``__all__``."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "__all__" for target in node.targets):
            used |= set(ast.literal_eval(node.value))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    return [name for name in bound if name not in used]


def test_no_file_imports_a_name_it_does_not_use():
    unused = {str(path.relative_to(ROOT)): _unused_imports(path.read_text(encoding="utf-8")) for path in SOURCE_FILES}
    assert {path: names for path, names in unused.items() if names} == {}


def test_an_unused_import_is_caught():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nimport json\n"
        "from .grid import VoxelGrid, iou as score\nfrom .io import canonical_json\n"
        "__all__ = ['canonical_json']\n"
        "def f(): return np.zeros(1), os.path.sep\n"
    )
    assert _unused_imports(source) == ["json", "VoxelGrid", "score"]
