"""Names that other code binds at import must exist.

`perfbench/layers.py` names the functions it wraps, and its tracer
rebinds them in every module that imported them; `perfbench/workloads.py`
calls the program through its modules.  A refactor that drops or renames
one of them should fail here, not crash the benchmark.  Likewise every
name in a module's `__all__` must resolve, every name that `src/` or
`tests/` imports must be read, every parameter of a function in `src/`
must be read by its body, every name a module of `src/` assigns at top
level must be read in `src/` or imported by the benchmark, and every
function and class it defines at top level must be read in `src/`,
listed in its module's `__all__`, or named by the benchmark.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

import horolattice
from horolattice import acceptance, fundamental, harness, lattices, measures, orbits
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


def unread_imports(source: str) -> list:
    """(line, name) of each name an import binds that the module never reads.

    A name counts as read where it is loaded, attribute roots included,
    where a quoted annotation names it, or where `__all__` lists it.
    """
    tree = ast.parse(source)
    bound, read, quoted = [], set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            quoted.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            quoted.append(node.returns)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(e.value for e in node.value.elts)
    for note in quoted:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            read.update(n.id for n in ast.walk(ast.parse(note.value, mode="eval")) if isinstance(n, ast.Name))
    return [(line, name) for line, name in bound if name not in read]


def test_every_imported_name_is_read():
    root = Path(__file__).resolve().parents[1]
    files = sorted([*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")])
    unread = [
        f"{path.relative_to(root)}:{line} {name}"
        for path in files
        for line, name in unread_imports(path.read_text(encoding="utf-8"))
    ]
    assert unread == []
    # the check sees unread imports, and reads attribute roots and quoted annotations
    source = "import os\nimport math\nfrom typing import Union, List\nx = math.pi\ndef f(a: 'List[int]'): pass\n"
    assert unread_imports(source) == [(1, "os"), (3, "Union")]


def module_assignments(source: str) -> list:
    """(line, name) of each name that a top-level assignment of the module binds, dunders aside."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            out += [(node.lineno, name) for name in names if not (name.startswith("__") and name.endswith("__"))]
    return out


def module_definitions(source: str) -> list:
    """(line, name) of each function and class that the module defines at top level."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [(node.lineno, node.name) for node in ast.parse(source).body if isinstance(node, kinds)]


def names_exported(source: str) -> set:
    """Each name that the module's `__all__` lists."""
    out = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            out.update(e.value for e in node.value.elts)
    return out


def names_imported(source: str) -> set:
    """Each name that the module imports by name (`from ... import name`)."""
    return {alias.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom) for alias in node.names}


def names_read(source: str) -> set:
    """Each name that the module loads, reads as an attribute, or imports by name."""
    read = names_imported(source)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_every_module_level_name_is_read():
    # a margin, a table or a cap that no code reads any more must go: each
    # name that a module of src/ assigns at top level is read in src/, or is
    # imported by the benchmark (which reads, say, the residual tolerances).
    # Likewise a function or class: read in src/, public in its module's
    # __all__, or named by the benchmark (which traces, say, `_candidates_2d`),
    # so a reference that only tests use lives in the tests
    root = Path(__file__).resolve().parents[1]
    sources = {path: path.read_text(encoding="utf-8") for path in sorted((root / "src").rglob("*.py"))}
    benchmark = [path.read_text(encoding="utf-8") for path in PERFBENCH.rglob("*.py")]
    read = set().union(*map(names_read, sources.values()))
    imported = read | set().union(*map(names_imported, benchmark))
    named = read | set().union(*map(names_read, benchmark))
    unread = [
        f"{path.relative_to(root)}:{line} {name}"
        for path, source in sources.items()
        for line, name in module_assignments(source)
        if name not in imported
    ]
    unread += [
        f"{path.relative_to(root)}:{line} {name}"
        for path, source in sources.items()
        for line, name in module_definitions(source)
        if name not in named | names_exported(source)
    ]
    assert unread == []
    # the check sees an unread top-level name, and reads attributes and imported names
    source = "A = 1\nB, (C, D) = 2, (3, 4)\nE: int = 5\n__all__ = []\nprint(x.B, C)\nfrom m import D\n"
    assert module_assignments(source) == [(1, "A"), (2, "B"), (2, "C"), (2, "D"), (3, "E")]
    assert sorted({name for _, name in module_assignments(source)} - names_read(source)) == ["A", "E"]
    # and every top-level def and class, but no method or nested function
    source = "__all__ = ['f']\ndef f():\n    def g(): pass\nclass K:\n    def m(self): pass\nasync def h(): pass\n"
    assert module_definitions(source) == [(2, "f"), (4, "K"), (6, "h")]
    assert names_exported(source) == {"f"}


def unread_parameters(source: str) -> list:
    """(line, function, parameter) of each parameter that its function's body never reads.

    A parameter counts as read where the body, nested functions included,
    loads its name.
    """
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(node.lineno, getattr(node, "name", "<lambda>"), p.arg) for p in params if p.arg not in read]
    return out


def test_every_parameter_is_read():
    # the criterion protocol is the one exemption: `run_acceptance` passes every
    # criterion `budget` and `cache` by keyword, whether it reads them or not
    protocol = {(fn.__name__, name) for fn, _ in acceptance.CRITERIA.values() for name in ("budget", "cache")}
    root = Path(__file__).resolve().parents[1]
    unread = [
        f"{path.relative_to(root)}:{line} {function}({name})"
        for path in sorted((root / "src").rglob("*.py"))
        for line, function, name in unread_parameters(path.read_text(encoding="utf-8"))
        if not (path.name == "acceptance.py" and (function, name) in protocol)
    ]
    assert unread == []
    # the check sees an unread parameter, and reads nested functions and lambdas
    source = "def f(a, b, *c, d=1, **e):\n    g = lambda x, y: x + a\n    def h():\n        return d\n    return g, h, c\n"
    assert unread_parameters(source) == [(1, "f", "b"), (1, "f", "e"), (2, "<lambda>", "y")]


def site_plumbing(source: str) -> list:
    """(line, what) of each `stage` parameter, each `ContextVar` and each site text that the module holds.

    A site text is " of sample " or " at t = " in a string or in the
    template of an f-string (its fields as "{}"), docstrings aside.
    """
    tree = ast.parse(source)
    skip = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    skip |= {id(part) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr) for part in node.values}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            params = (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
            out += [(node.lineno, "stage") for p in params if p.arg == "stage"]
        elif "ContextVar" in (getattr(node, "id", None), getattr(node, "attr", None)):
            out.append((node.lineno, "ContextVar"))
        elif id(node) in skip:
            continue
        elif isinstance(node, ast.JoinedStr) or isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.values if isinstance(node, ast.JoinedStr) else [node]
            text = "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in parts)
            out += [(node.lineno, site) for site in (" of sample ", " at t = ") if site in text]
    return out


def test_only_the_errors_module_names_a_failure_site():
    # a stage raises its failure with the row of its stack and knows nothing
    # of the site: no function takes a `stage`, no hidden state carries a
    # row offset, and only `errors._naming_site` writes the sample and t
    root = Path(__file__).resolve().parents[1]
    found = {
        path.name: site_plumbing(path.read_text(encoding="utf-8")) for path in sorted((root / "src").rglob("*.py"))
    }
    assert sorted(what for _, what in found.pop("errors.py")) == [" at t = ", " of sample "]
    assert {name: plumbing for name, plumbing in found.items() if plumbing} == {}
    # the check sees each kind, in strings and f-strings, and skips docstrings
    source = (
        'import contextvars\ndef f(stage, t):\n    "f of sample 1 at t = 2"\n'
        '    return f"{stage} of sample {t}" + " at t = " + str(contextvars.ContextVar)\n'
    )
    assert sorted(site_plumbing(source)) == [(2, "stage"), (4, " at t = "), (4, " of sample "), (4, "ContextVar")]
