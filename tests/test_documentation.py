"""Documentation hygiene: every public module, class and function in the
library carries a docstring (deliverable (e): doc comments on every
public item)."""

import ast
import functools
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


ROOT = Path(__file__).parent.parent

#: A path starting at one of the repository's top-level directories.
_ROOTED_PATH = re.compile(
    r"(?<![\w./-])((?:src|tests|benchmarks|examples|\.github)/"
    r"[\w./-]*\w\.(?:py|json|jsonl|md|txt|yml|yaml|toml))"
)
#: A bare backticked ``bench_*`` file (it lives under ``benchmarks/``) or
#: top-level document such as ``DESIGN.md`` / ``BENCHMARK.json``.
_BARE_FILE = re.compile(r"`((?:bench_\w+|[A-Z]+)\.\w+)`")


def _cited_files():
    """Every repository file a document names, resolved from the root."""
    for document in ("DESIGN.md", "README.md", "EXPERIMENTS.md"):
        text = (ROOT / document).read_text()
        for path in _ROOTED_PATH.findall(text):
            yield f"{document}: {path}", path
        for name in _BARE_FILE.findall(text):
            where = f"benchmarks/{name}" if name.startswith("bench_") else name
            yield f"{document}: {name}", where


@pytest.mark.parametrize(
    "path",
    [pytest.param(p, id=label) for label, p in sorted(set(_cited_files()))],
)
def test_cited_file_exists(path):
    """A document that sends the reader to a file names one that exists."""
    assert (ROOT / path).is_file(), path


def _implementing_modules():
    """The dotted names in DESIGN section 3's "Implementing modules"
    column, one backticked name each."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("\n## 3.", 1)[1].split("\n## 4.", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")]
    header = [cell.strip() for cell in rows[0].split("|")]
    column = header.index("Implementing modules")
    for row in rows[1:]:
        yield from re.findall(r"`([^`]+)`", row.split("|")[column])


@pytest.mark.parametrize("name", sorted(set(_implementing_modules())))
def test_implementing_module_imports(name):
    """``<module>[.<attr>...]`` under ``repro.``: the longest importable
    module prefix, then attributes."""
    parts = f"repro.{name}".split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            target = getattr(target, attr)
        return
    raise AssertionError(f"nothing of {name!r} imports")


SRC = ROOT / "src" / "repro"

#: A Sphinx cross-reference to a Python object: ``:func:`name```, with
#: ``~``/``.`` prefixes, dotted paths and ``title <target>`` forms.
_XREF = re.compile(r":(?:func|meth|class|data|attr):`([^`]+)`")


@functools.lru_cache(maxsize=None)
def _defined_names():
    """Every function, class and assigned name (``x = ...``,
    ``self.x = ...``, annotated or augmented) defined in ``src/``."""
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.add(node.name)
                continue
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for part in ast.walk(target):
                    if isinstance(part, ast.Name):
                        names.add(part.id)
                    elif isinstance(part, ast.Attribute):
                        names.add(part.attr)
    return names


@pytest.mark.parametrize(
    "path",
    sorted(SRC.rglob("*.py")),
    ids=lambda path: str(path.relative_to(SRC)),
)
def test_cross_references_name_what_src_defines(path):
    """A docstring's ``:func:`` / ``:meth:`` / ``:class:`` / ``:data:``
    / ``:attr:`` names something ``src/`` defines (its last dotted
    part): a reference to a deleted helper sends the reader nowhere."""
    text = path.read_text()
    dangling = []
    for match in _XREF.finditer(text):
        target = match.group(1)
        if "<" in target:
            target = target[target.index("<") + 1 : target.rindex(">")]
        name = target.lstrip("~.").rstrip("()").split(".")[-1]
        if name not in _defined_names():
            line = text.count("\n", 0, match.start()) + 1
            dangling.append(f"line {line}: {match.group(0)}")
    assert dangling == []
