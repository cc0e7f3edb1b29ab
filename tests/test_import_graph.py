"""Layering: the simulator core does not know who observes it.

``repro.netsim`` and ``repro.transport`` expose the probe seam
(``BottleneckLink.subscribe``); the observers - flight recorder, stop
rule - live above them in ``repro.obs`` / ``repro.core`` and subscribe.
An import in the other direction is how a second sampler gets wired
into the hot path again.
"""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent
FORBIDDEN = ("repro.obs", "repro.core")


def imported_modules(path: Path):
    """Absolute dotted names of everything ``path`` imports."""
    package = path.relative_to(SRC.parent).parts[:-1]  # ("repro", "netsim")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package[: len(package) - node.level + 1]
                base = ".".join([*parent, *([base] if base else [])])
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"


@pytest.mark.parametrize("package", ["netsim", "transport"])
def test_simulator_core_imports_no_observer(package):
    files = sorted((SRC / package).glob("*.py"))
    assert files
    offenders = [
        (path.name, name)
        for path in files
        for name in imported_modules(path)
        if any(name == f or name.startswith(f + ".") for f in FORBIDDEN)
    ]
    assert offenders == []


@pytest.mark.parametrize("package", ["fleet", "service"])
def test_control_plane_rewrites_files_only_atomically(package):
    """Workers poll ``out/next-plan/`` and ``spool/retry/``; a manifest
    published with ``Path.write_text`` can be read half-written.  Every
    rewrite in these packages goes through ``atomicio.atomic_write``."""
    files = sorted((SRC / package).glob("*.py"))
    assert files
    offenders = [
        (path.name, number)
        for path in files
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if ".write_text(" in line
    ]
    assert offenders == []


def test_a_cache_read_never_writes():
    """The trial cache is a directory of immutable entries: nothing in
    it touches an entry's metadata (there was a per-hit ``os.utime``
    for an LRU cap no caller set)."""
    tree = ast.parse((SRC / "core" / "cache.py").read_text())
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "utime"
    ]
    assert calls == []


def test_one_module_imports_the_record_decoder():
    """``orjson`` is imported by ``core/cache.py`` alone, which binds it
    as ``decode_record``; every other module reads records through that
    name, so the decoder and its contract live in one place."""
    importers = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if any(
            name == "orjson" or name.startswith("orjson.")
            for name in imported_modules(path)
        )
    )
    assert importers == [os.path.join("core", "cache.py")]


def _functions_calling_json_loads(path: Path):
    """Names of the functions in ``path`` that call ``json.loads`` or
    ``json.load`` (``<module>`` for a call outside any function)."""
    callers = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in ("loads", "load")
                and isinstance(child.func.value, ast.Name)
                and child.func.value.id == "json"
            ):
                callers.append(owner)
            visit(child, owner)

    visit(ast.parse(path.read_text()), "<module>")
    return sorted(callers)


@pytest.mark.parametrize(
    "module, allowed",
    [
        ("core/cache.py", []),
        ("fleet/merge.py", []),
        ("service/store.py", []),
        # Submission lines and published diagnoses are the service's own
        # files; flight recordings come through the entry's TrialCache.
        ("service/coordinator.py", ["load_diagnoses", "process_submissions"]),
    ],
)
def test_record_paths_parse_with_decode_record_only(module, allowed):
    """Entries, sidecars, the store's commit lines and merge
    adjudication parse with ``decode_record``; a ``json.loads`` left on
    one of these paths would read a record the writer's contract (no
    non-finite floats, integers within 64 bits) does not cover."""
    assert _functions_calling_json_loads(SRC / module) == allowed


def _functions_calling(path: Path, names) -> "dict[str, set]":
    """``{function: names it calls}`` for the calls in ``path`` to any
    of ``names`` (a bare name, or ``module.attr`` spelled whole)."""
    calls: "dict[str, set]" = {}

    def spelled(func):
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            return f"{func.value.id}.{func.attr}"
        return None

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and spelled(child.func) in names:
                calls.setdefault(owner, set()).add(spelled(child.func))
            visit(child, owner)

    visit(ast.parse(path.read_text()), "<module>")
    return calls


@pytest.mark.parametrize(
    "module, writers, hashers",
    [
        # What is hashed: a key's config memo, id tail and odd seed.
        ("core/cache.py", ["put"],
         ["_config_memo", "_ids_tail", "trial_cache_keys"]),
        # The commit line; the store encodes no trial record.
        ("service/store.py", ["append_cycle"], []),
        # ``plan_id`` hashes ``_canonical``'s spelling.
        ("fleet/plan.py", ["write_manifest"], ["_canonical", "plan_id"]),
        # Receipts are ``json``-written state; their tie-break order too.
        ("fleet/merge.py", ["_resolve_divergent"], ["_supersedes"]),
    ],
)
def test_stored_artifacts_encode_with_one_encoder(module, writers, hashers):
    """Entries, sidecars, the store's commit lines, plans and shard
    manifests are written by ``encode_record`` (through
    ``_encode_checked`` where it is read back first); ``json``'s encoder
    - ``json.dumps`` or ``canonical_json`` - spells only what is hashed
    (and ``merge``'s receipt order)."""
    path = SRC / module
    spellers = _functions_calling(
        path, {"json.dumps", "json.dump", "canonical_json", "_canonical"}
    )
    assert sorted(spellers) == sorted(hashers)
    encoders = _functions_calling(path, {"encode_record", "_encode_checked"})
    assert set(writers) <= encoders.keys()


def test_one_function_turns_a_trial_index_into_a_spec():
    """``TrialSpec.pair(..., seed=<x>.seed_for(...))`` is the trial
    enumeration: where the Section 3.4 order meets the seed rule.  A
    second place that spells it is a second enumerator, free to drift
    from the first in order or seeds (there were four)."""

    def is_call_to(node, name):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == name
        )

    enumerators = []
    for path in sorted(SRC.rglob("*.py")):
        for function in ast.walk(ast.parse(path.read_text())):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(
                is_call_to(call, "pair")
                and any(is_call_to(arg, "seed_for") for arg in ast.walk(call))
                for call in ast.walk(function)
            ):
                enumerators.append(
                    f"{path.relative_to(SRC)}::{function.name}"
                )
    assert enumerators == ["core/convergence.py::window_specs"]


def test_backends_are_constructed_only_in_the_runner():
    """``build_backend`` is where a caller's knobs become a backend;
    a second construction site is a second reading of those knobs (there
    were seven, three of them the replay mode below)."""
    sites = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in ("InlineBackend", "ProcessPoolBackend"):
                sites.add(str(path.relative_to(SRC)))
    assert sites == {"core/runner.py"}


@pytest.mark.parametrize(
    "name",
    ["cache_only", "RecordingInlineBackend", "since_unix", "parallel_workers"],
)
def test_deleted_execution_knob_stays_deleted(name):
    """Replay is ``core.runner.replay``, recording a ``build_backend``
    argument, the store's window ``last_cycles``, the pool a backend
    handed to ``run_cycle``: none of the old spellings comes back."""
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if name in path.read_text()
    ]
    assert offenders == []


def test_only_the_coordinator_fault_seam_reads_the_environment():
    """Production has no environment knob (``REPRO_ENGINE`` picked the
    scheduler core until it went): the one ``os.environ`` read in
    ``src/`` is the coordinator's ``REPRO_SERVICE_FAULT`` test seam."""
    names = ("environ", "environb", "getenv", "getenvb")
    readers = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in names) or (
                isinstance(node, ast.Name) and node.id in names
            ):
                readers.add(str(path.relative_to(SRC)))
    assert readers == {"service/coordinator.py"}


def test_src_imports_nothing_from_tests():
    """The oracles in ``tests/naive_*.py`` (the heap engine among them)
    check ``src/``; ``src/`` never runs on one."""
    offenders = [
        (str(path.relative_to(SRC)), name)
        for path in sorted(SRC.rglob("*.py"))
        for name in imported_modules(path)
        if name == "tests" or name.startswith("tests.")
    ]
    assert offenders == []


def test_the_catalog_stays_data():
    """A catalog entry is a recipe - a kind plus scalar/tuple params - so
    it pickles and the process pool can ship it to a worker.  A closure
    in the catalog or the submission portal, a ``Callable`` field on
    ``ServiceSpec``, or the runner importing catalogs by name is how a
    worker goes back to rebuilding a default it was not asked to run."""
    import dataclasses
    import typing

    from repro.services.catalog import ServiceSpec

    lambdas = [
        f"{name}:{node.lineno}"
        for name in ("services/catalog.py", "core/submission.py")
        for node in ast.walk(ast.parse((SRC / name).read_text()))
        if isinstance(node, ast.Lambda)
    ]
    assert lambdas == []
    hints = typing.get_type_hints(ServiceSpec)
    callable_fields = [
        field.name
        for field in dataclasses.fields(ServiceSpec)
        if "Callable" in str(hints[field.name])
    ]
    assert callable_fields == []
    runner_imports = set(imported_modules(SRC / "core" / "runner.py"))
    assert not {"importlib"} & {name.split(".")[0] for name in runner_imports}


def test_importing_the_package_loads_no_process_pool():
    """``concurrent.futures`` pulls in ``multiprocessing`` (over 1 MB of
    peak RSS on every pipeline workload); only a pool that runs trials
    imports it, inside ``ProcessPoolBackend._execute``."""
    code = (
        "import sys, repro, repro.fleet, repro.service.coordinator, repro.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"


def _classes_defined_in(*packages):
    import importlib
    import inspect
    import pkgutil

    names = set()
    for package in packages:
        for info in pkgutil.iter_modules(importlib.import_module(package).__path__):
            module = importlib.import_module(f"{package}.{info.name}")
            names |= {
                name
                for name, value in vars(module).items()
                if inspect.isclass(value) and value.__module__ == module.__name__
            }
    return names


def test_figures_and_examples_run_trials_through_the_trial_core():
    """A figure or example describes its trials - a ``TrialSpec`` run by
    ``build_backend(...).run``, its conditions catalog rows, or
    ``run_trial_artifacts`` when it plots a packet trace or queue log - and
    never assembles one: a ``Testbed``, ``Dumbbell``, service or CCA
    built there is a second trial core that skips the cache, the pool
    and the fleet.  The figure benchmarks also call no result-only
    ``run_*_experiment`` wrapper."""
    repo = SRC.parents[1]
    built = {"Testbed", "Dumbbell", "create"} | _classes_defined_in(
        "repro.services", "repro.cca"
    )
    wrappers = {"run_pair_experiment", "run_solo_experiment", "run_multi_experiment"}
    benches = [
        path
        for path in sorted((repo / "benchmarks").rglob("*.py"))
        if "pipeline" not in path.relative_to(repo / "benchmarks").parts
    ]
    examples = sorted((repo / "examples").glob("*.py"))
    assert benches and examples
    calls = []
    for path in benches + examples:
        forbidden = built | (wrappers if path in benches else set())
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in forbidden:
                calls.append(f"{path.relative_to(repo)}:{node.lineno}:{name}")
    assert calls == []


def test_topology_and_testbed_build_no_recorder():
    """A trial records only what its caller attaches (``recorders=``):
    the dumbbell built a queue log and a disabled packet trace for every
    trial, so every simulated packet paid for a log nobody read."""
    calls = []
    for name in ("netsim/topology.py", "core/testbed.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = getattr(func, "id", None) or getattr(func, "attr", None)
            if called in ("FlightRecorder", "QueueChannel", "PacketTrace"):
                calls.append(f"{name}:{node.lineno}:{called}")
    assert calls == []


@pytest.mark.parametrize(
    "pattern",
    [r"\btrace_packets\b", r"\bqueue_log_period_usec\b", r"\.enabled\b",
     r"\bflight=", r"\bQueueLog\b", r"queue\.log\b"],
    ids=["trace_packets", "queue_log_period_usec", "enabled", "flight",
         "QueueLog", "queue.log"],
)
def test_deleted_recorder_switch_stays_deleted(pattern):
    """One way to record a trial: attach recorders.  The per-recorder
    switches (``Dumbbell(trace_packets=, queue_log_period_usec=)``,
    ``PacketTrace(enabled=)``, ``Testbed/run_trial_artifacts(flight=)``)
    do not come back, and neither does a second queue sampler (the
    ``QueueLog`` the queue reported its drops to through ``queue.log``:
    the flight recorder's queue channel samples the link, and the packet
    trace logs drops)."""
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if re.search(pattern, path.read_text())
    ]
    assert offenders == []


def test_published_artifacts_run_through_the_trial_core():
    """``ArtifactPublisher`` publishes what ``run_trial_artifacts`` ran; a
    ``Testbed`` or service built in ``core/artifacts.py`` is a second
    trial core, free to drift from the first in seeds or allocation."""
    calls = []
    tree = ast.parse((SRC / "core" / "artifacts.py").read_text())
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name in ("Testbed", "create"):
            calls.append(f"{name}:{node.lineno}")
    assert calls == []


def test_one_loop_resolves_the_incumbent_key():
    """``ResultStore.extend`` is the only caller of ``incumbent_key``:
    each trial's keys are resolved once, when it is added, and
    ``ResultStore.pair_samples`` - the one loop from trials to per-trial
    values, behind every grid cell (Figs 2, 11-13) - reads them.  There
    were three such loops, one of them a second grid module
    (``repro.analysis.heatmap``), which stays deleted."""
    callers = []
    for path in sorted(SRC.rglob("*.py")):
        for function in ast.walk(ast.parse(path.read_text())):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(
                isinstance(node, ast.Call)
                and "incumbent_key"
                in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
                for node in ast.walk(function)
            ):
                callers.append(f"{path.relative_to(SRC)}::{function.name}")
    assert callers == ["core/results.py::extend"]
    assert importlib.util.find_spec("repro.analysis.heatmap") is None
    importers = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if "repro.analysis.heatmap" in set(imported_modules(path))
    ]
    assert importers == []
