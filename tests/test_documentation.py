"""Documentation hygiene: every public module, class and function in the
library carries a docstring (deliverable (e): doc comments on every
public item)."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

SKIP_MODULES = {"repro.__main__"}


def _walk_modules():
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name in SKIP_MODULES:
            continue
        modules.append(importlib.import_module(info.name))
    return modules


ALL_MODULES = _walk_modules()


@pytest.mark.parametrize(
    "module", ALL_MODULES, ids=[m.__name__ for m in ALL_MODULES]
)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


def _public_members():
    seen = set()
    for module in ALL_MODULES:
        for name, member in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(member) or inspect.isfunction(member)):
                continue
            if getattr(member, "__module__", None) != module.__name__:
                continue  # re-export; documented at its home
            key = f"{member.__module__}.{name}"
            if key not in seen:
                seen.add(key)
                yield key, member


PUBLIC_MEMBERS = list(_public_members())


@pytest.mark.parametrize(
    "key,member", PUBLIC_MEMBERS, ids=[k for k, _m in PUBLIC_MEMBERS]
)
def test_public_member_has_docstring(key, member):
    assert member.__doc__ and member.__doc__.strip(), key


def _inherits_doc(cls, name):
    """A method may rely on the docstring of the method it overrides."""
    for base in cls.__mro__[1:]:
        parent = getattr(base, name, None)
        if parent is not None and parent.__doc__ and parent.__doc__.strip():
            return True
    return False


def test_public_classes_document_public_methods():
    undocumented = []
    for key, member in PUBLIC_MEMBERS:
        if not inspect.isclass(member):
            continue
        for name, method in vars(member).items():
            if name.startswith("_") or not inspect.isfunction(method):
                continue
            if method.__doc__ and method.__doc__.strip():
                continue
            if _inherits_doc(member, name):
                continue
            undocumented.append(f"{key}.{name}")
    assert not undocumented, f"undocumented public methods: {undocumented}"


def _cited_test_ids():
    """Every ``tests/<file>.py::<name>[::<name>]`` a design document
    cites as the test that executes one of its sentences."""
    root = Path(__file__).parent.parent
    pattern = re.compile(r"tests/(test_\w+)\.py((?:::\w+)+)")
    for document in ("DESIGN.md", "README.md"):
        for module, names in pattern.findall((root / document).read_text()):
            yield f"{document}: tests/{module}.py{names}", module, names


@pytest.mark.parametrize(
    "module,names",
    [pytest.param(m, n, id=label) for label, m, n in sorted(set(_cited_test_ids()))],
)
def test_cited_test_exists(module, names):
    """A claim's test id is only evidence while the test exists."""
    target = importlib.import_module(f"tests.{module}")
    for name in names.split("::")[1:]:
        target = getattr(target, name)
