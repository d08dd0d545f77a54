"""Package-level tests: metadata, exceptions, public API surface, examples."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro
from repro import exceptions


class TestMetadata:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_top_level_exports(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_quickstart_docstring_example(self):
        # The doctest-style snippet in the package docstring must actually work.
        from repro import NMEWireCut, cut_expectation_value
        from repro.quantum import random_statevector

        state = random_statevector(1, seed=7)
        result = cut_expectation_value(state, NMEWireCut.from_overlap(0.9), shots=4000, seed=11)
        assert abs(result.value - result.exact_value) < 0.2


class TestExceptions:
    def test_hierarchy(self):
        for name in exceptions.__all__:
            error_class = getattr(exceptions, name)
            assert issubclass(error_class, Exception)
            if name != "ReproError":
                assert issubclass(error_class, exceptions.ReproError)

    def test_catching_base_class(self):
        from repro.cutting import optimal_overhead

        with pytest.raises(exceptions.ReproError):
            optimal_overhead(0.1)


class TestSubpackageImports:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.utils",
            "repro.quantum",
            "repro.circuits",
            "repro.qpd",
            "repro.teleport",
            "repro.cutting",
            "repro.experiments",
            "repro.cli",
        ],
    )
    def test_imports_cleanly(self, module):
        assert importlib.import_module(module) is not None

    @pytest.mark.parametrize(
        "module",
        ["repro.quantum", "repro.circuits", "repro.qpd", "repro.teleport", "repro.cutting", "repro.experiments"],
    )
    def test_all_exports_resolve(self, module):
        package = importlib.import_module(module)
        for name in package.__all__:
            assert hasattr(package, name), f"{module}.{name} missing"

    def test_every_module_imports_with_numpy_alone(self):
        # pyproject.toml declares only numpy as a runtime dependency, so no
        # module of the package may import another third-party package.
        # ``__mp_main__`` is multiprocessing's alias of the main module.
        script = textwrap.dedent(
            """
            import importlib, pkgutil, sys
            import numpy, numpy.random, numpy.linalg

            def top_level():
                return {name.partition(".")[0] for name in sys.modules}

            before = top_level()
            import repro
            for info in pkgutil.walk_packages(repro.__path__, "repro."):
                importlib.import_module(info.name)
            added = top_level() - before - set(sys.stdlib_module_names)
            print(sorted(added - {"repro", "__mp_main__"}))
            """
        )
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"


def _source_modules():
    """Yield ``(path relative to the package, parsed tree)`` for every module in ``src/repro``."""
    package = pathlib.Path(repro.__file__).resolve().parent
    for path in sorted(package.rglob("*.py")):
        yield path.relative_to(package).as_posix(), ast.parse(path.read_text(), str(path))


class TestOneMeasurementPath:
    """Observable measurement and the counts-to-means reduction each live in one place."""

    def test_basis_change_table_has_one_user_per_layer(self):
        # The table's home, the term executor's measured_multi_cut_circuit and
        # the instance layer's per-fragment measurement.
        allowed = {"circuits/expectation.py", "cutting/multi_wire.py", "cutting/instances.py"}
        users = {
            module
            for module, tree in _source_modules()
            for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == "_BASIS_CHANGE")
            or (isinstance(node, ast.alias) and node.name == "_BASIS_CHANGE")
            or (isinstance(node, ast.Attribute) and node.attr == "_BASIS_CHANGE")
        }
        assert users <= allowed, sorted(users - allowed)

    def test_counts_reduce_to_means_in_the_round_executor_only(self):
        # BackendRoundExecutor and its per-unit mirror in the worker pool.
        allowed = {"cutting/multi_wire.py", "distributed/pool.py"}
        callers = {
            module
            for module, tree in _source_modules()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "expectation_z"
        }
        assert callers <= allowed, sorted(callers - allowed)


class TestExamples:
    def test_all_examples_compile(self):
        examples_dir = pathlib.Path(__file__).resolve().parent.parent / "examples"
        scripts = sorted(examples_dir.glob("*.py"))
        assert len(scripts) >= 5
        for script in scripts:
            compile(script.read_text(), str(script), "exec")

    def test_quickstart_example_main_runs(self, capsys):
        import importlib.util

        path = pathlib.Path(__file__).resolve().parent.parent / "examples" / "quickstart.py"
        spec = importlib.util.spec_from_file_location("quickstart_example", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main()
        out = capsys.readouterr().out
        assert "teleportation" in out
