"""Names that other code binds at import must exist.

`perfbench/layers.py` names the functions it wraps, and its tracer
rebinds them in every module that imported them; `perfbench/workloads.py`
calls the program through its modules.  A refactor that drops or renames
one of them should fail here, not crash the benchmark.  Likewise every
name in a module's `__all__` must resolve.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

import horolattice
from horolattice import fundamental, harness, lattices, measures, orbits
from horolattice.core import AffineLatticePoint, SpecialLinearMatrix, SplittingSignature, TorusPoint

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"


def test_benchmark_traced_functions_stay_bound():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)  # an AttributeError here names the missing function
    for fn, span, _, owner in layers.TRACED:
        home = owner if owner is not None else sys.modules[fn.__module__]
        assert getattr(home, fn.__name__, None) is fn, span
    # the tracer wraps the reductions where orbits calls them, too
    assert orbits._reduce_core is fundamental._reduce_core
    assert orbits.reduce_batch_2x2 is fundamental.reduce_batch_2x2


def test_benchmark_workloads_import_and_name_only_existing_program_attributes(monkeypatch):
    # workloads.py reads fundamental.DEFAULT_BUDGET at import, as a dataclass
    # default; every other attribute it names is read only when a workload runs
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("checks", "workloads"):
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)  # an ImportError or AttributeError here names the missing name
    homes = {"fundamental": fundamental, "harness": harness, "measures": measures, "orbits": orbits}
    named = {
        (node.value.id, node.attr)
        for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in homes
    }
    assert ("fundamental", "DEFAULT_BUDGET") in named
    assert sorted(f"{home}.{attr}" for home, attr in named if not hasattr(homes[home], attr)) == []


def test_every_public_name_resolves():
    # a deleted helper must leave its module's __all__ too
    package = Path(horolattice.__file__).parent
    modules = sorted(path.stem for path in package.glob("*.py") if path.stem != "__init__")
    for name in modules:
        module = importlib.import_module(f"horolattice.{name}")
        for public in getattr(module, "__all__", ()):
            assert hasattr(module, public), f"horolattice.{name}.__all__ names missing {public!r}"


def test_every_d3_sample_passes_through_decompose_and_reduce_core(monkeypatch):
    # the benchmark counts these calls where orbits and fundamental bind
    # them: y0 is reduced once, then every sample once through decompose
    calls = {"decompose": 0, "reduce_core": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    core = counted("reduce_core", fundamental._reduce_core)
    monkeypatch.setattr(orbits, "decompose", counted("decompose", orbits.decompose))
    monkeypatch.setattr(orbits, "_reduce_core", core)
    monkeypatch.setattr(fundamental, "_reduce_core", core)
    y0 = AffineLatticePoint(SpecialLinearMatrix.from_entries(np.eye(3)), TorusPoint.from_values(["1/3", "2/3", "1/5"]))
    n = 40
    orbits.orbit_pushforward(y0, 4.0, orbits.NeighborhoodV(SplittingSignature(1, 2)), n, seed=0)
    assert calls == {"decompose": n, "reduce_core": n + 1}


def test_single_lattice_reductions_are_counted_by_lll_reduce(monkeypatch):
    # the benchmark counts `lattices.lll_reduce` calls as single-lattice
    # reductions, wherever a module binds it: minima of a basis with no
    # reduction ready make one, a Siegel stack makes one batch call and
    # none of them, and a d = 3 orbit reduces only in stacks
    calls = {"lll_reduce": 0, "lll_reduce_batch": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    single = counted("lll_reduce", lattices.lll_reduce)
    batch = counted("lll_reduce_batch", lattices.lll_reduce_batch)
    for module in (lattices, fundamental):
        monkeypatch.setattr(module, "lll_reduce", single)
        monkeypatch.setattr(module, "lll_reduce_batch", batch)
    fundamental._minima_sq_of(np.array([[2.0, 3.0], [1.0, 2.0]]), lattices.DEFAULT_BUDGET)
    assert calls == {"lll_reduce": 1, "lll_reduce_batch": 1}

    calls.update(lll_reduce=0, lll_reduce_batch=0)
    stack = np.broadcast_to(np.array([[1.0, 5.0, 2.0], [0.0, 1.0, 3.0], [0.0, 0.0, 1.0]]), (7, 3, 3))
    assert lattices.siegel_values(stack, 1.5).shape == (7,)
    assert calls == {"lll_reduce": 0, "lll_reduce_batch": 1}

    calls.update(lll_reduce=0, lll_reduce_batch=0)
    y0 = AffineLatticePoint(SpecialLinearMatrix.from_entries(np.eye(3)), TorusPoint.from_values(["1/3", "2/3", "1/5"]))
    orbits.orbit_pushforward(y0, 4.0, orbits.NeighborhoodV(SplittingSignature(1, 2)), 40, seed=0)
    assert calls["lll_reduce"] == 0 and calls["lll_reduce_batch"] > 0
