"""Every name a module under src/ imports is used in that module or listed
in its __all__: a deletion that leaves an import behind fails here.  Read
with the standard library's ast, so nothing is imported or run.  And every
name of src/ that the benchmark reads exists: a deletion that would break
only a benchmark run fails here too."""

import ast
import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = sorted(SRC.rglob("*.py"))


def _imported(tree: ast.Module) -> dict:
    """{bound name: line} for every import statement of the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> set:
    """The strings of a module-level __all__ list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text(), str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {
        name: line for name, line in _imported(tree).items()
        if name not in used and name not in _exported(tree)
    }
    assert not unused, f"imported but unused in {path.name}: {unused}"


def _benchmark_runner():
    """perfbench/run.py as a module, loaded by path; its main() is not run."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark_worker_lru_cached() -> tuple:
    """perfbench/worker.py's LRU_CACHED, read with ast: importing the
    worker would start its speed probe."""
    tree = ast.parse((ROOT / "perfbench" / "worker.py").read_text())
    (value,) = [
        node.value for node in tree.body if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["LRU_CACHED"]
    ]
    return ast.literal_eval(value)


def test_names_the_benchmark_reads_exist():
    # run.py traces these functions (--trace 1 raises KeyError without
    # one), worker.py reads the two per-n caches and the lru caches of the
    # q-series builders it lists (assert_cold and the tracer's coeffs_built
    # counter), and exact-n5000 reads PiValue.as_monomial and .monomials
    for layer, names in _benchmark_runner().TRACED_FUNCTIONS.items():
        module = importlib.import_module(f"spinl.{layer}")
        for name in names:
            fn = getattr(module, name, None)
            assert not name.startswith("_") and callable(fn), (layer, name)
            assert fn.__module__ == module.__name__, (layer, name, fn.__module__)
    from spinl import projection_coeffs, qexp, zeta_exact
    from spinl.numeric_lfun import evaluators

    for cache in (evaluators._NODE_CACHE, evaluators._KI1_CACHE):
        assert len(cache) >= 0
    lru_cached = _benchmark_worker_lru_cached()
    assert lru_cached
    for name in lru_cached:
        builder = getattr(qexp, name)
        assert callable(builder.cache_info) and callable(builder.cache_clear), name
        assert builder.cache_info().maxsize, name
    q, e = projection_coeffs(3).a1.as_monomial()
    assert type(q) is Fraction and type(e) is int
    assert zeta_exact(2).monomials == ((Fraction(1, 6), 2),)
