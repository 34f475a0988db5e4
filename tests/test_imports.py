"""The package runs on the standard library alone."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_import_does_not_load_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, priestley; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_import_does_not_load_dataclasses_or_typing():
    # each of these costs every run its import time; -S because a .pth
    # file of the site packages may import typing before the package
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-c",
         f"import sys, priestley.cli; print(*[m for m in {heavy!r} if m in sys.modules])"],
        env=env, capture_output=True, text=True, check=True)
    loaded = out.stdout.split()
    # those modules' lines and the package's, in import order: the
    # package module printed next after a heavy one is its importer
    lines = [line for line in out.stderr.splitlines()
             if line.rsplit("|", 1)[-1].strip() in loaded
             or "priestley" in line]
    assert loaded == [], "\n".join(lines)


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def test_benchmark_tracer_finds_every_boundary():
    # the tracer raises when a traced name is gone, so renaming or
    # deleting one fails here and not only in the benchmark's own tests
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave the benchmark tree as it is
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'benchmarks')!r}); "
            "from tracing import Tracer; Tracer().install()")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def spec_value(name):
    """A module-level value of ``benchmarks/spec.py``, read from its
    source without importing it (no bytecode is written there)."""
    path = ROOT / "benchmarks" / "spec.py"
    namespace = {"__name__": "spec"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return namespace[name]


def test_the_duality_nuclei_path_reaches_its_boundaries():
    # the duality workload's nuclei path is the only caller of extrema
    # and order_closure there; each boundary it must reach is counted by
    # the benchmark's own tracer while the worker runs it on one poset
    names = [name for name in spec_value("REQUIRED")["duality"]
             if name.startswith("nuclei.") or name in ("poset.extrema", "poset.order_closure")]
    assert len(names) == 8, names
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # x0, x1 < x2 < x3, and x4 apart: 5 points, 12 upsets
    up = [0b01101, 0b01110, 0b01100, 0b01000, 0b10000]
    code = (f"import json, sys; sys.path.insert(0, {str(ROOT / 'benchmarks')!r})\n"
            "from tracing import Tracer\nimport worker\n"
            "tracer = Tracer(); tracer.install(); run = worker.Run(tracer)\n"
            f"count = worker._nuclei(run, 'nuclei', {up!r})\n"
            "print(json.dumps([count, run.failures, "
            f"{{name: tracer.calls[name] for name in {names!r}}}]))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    count, failures, calls = json.loads(out.stdout)
    assert (count, failures) == (32, [])
    assert [name for name in names if not calls[name]] == []


def unresolved(boundaries):
    """The boundaries that name nothing in the package, by kind: a
    function for ``func`` and ``split``, a class for ``init``, a method
    its class defines for ``method`` (``engines.m``: some fan engine
    class defines m) and an attribute of the class for ``count``."""
    import importlib

    from priestley import fans

    engines = [c for c in vars(fans).values()
               if isinstance(c, type) and hasattr(c, "sample_clopen_upsets")]
    missing = []
    for base, module, attr, kind in boundaries:
        mod = importlib.import_module(f"priestley.{module}")
        owner, _, name = attr.rpartition(".")
        classes = engines if owner == "engines" else [getattr(mod, owner, None)]
        classes = [c for c in classes if isinstance(c, type)]
        if kind in ("func", "split"):
            found = callable(getattr(mod, attr, None))
        elif kind == "init":
            found = isinstance(getattr(mod, attr, None), type)
        elif kind == "method":
            found = any(name in vars(c) for c in classes)
        elif kind == "count":
            found = any(hasattr(c, name) for c in classes)
        else:
            found = False
        if not found:
            missing.append(base)
    return missing


def test_every_traced_boundary_resolves():
    # installing the tracer stops at the first missing name and skips
    # a kind it does not know; this names every entry that resolves to
    # nothing in the package
    boundaries = spec_value("BOUNDARIES")
    assert len(boundaries) > 40
    assert unresolved(boundaries) == []
    # and each kind can fail
    planted = [
        ("a", "poset", "up_set_of", "func"),
        ("b", "birkhoff", "validate_lattice_x", "split"),
        ("c", "poset", "_mask", "init"),
        ("d", "spectrum", "FiniteEngine.upp", "method"),
        ("e", "fans", "engines.core_of", "method"),
        ("f", "fans", "Region.__post_init_x__", "count"),
        ("g", "poset", "extrema", "wrap"),
        ("h", "poset", "extrema", "func"),
        ("i", "fans", "engines.core", "method"),
    ]
    assert unresolved(planted) == list("abcdefg")
