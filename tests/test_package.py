"""The import surface: every public name has one path, through its module."""

import ast
from pathlib import Path

import pytest

import compensator_bounds
import compensator_bounds.cli  # noqa: F401  (imports every layer)

LAYERS = ("functions", "optimize", "recursion", "bellman", "chains",
          "shift", "cli")
ROOT = Path(__file__).resolve().parents[1]
# Parameters that no body reads, each with the reason it stays.
UNREAD_PARAMETERS = {
    "bellman.value_iteration(solver)": "bench/ passes it (ROADMAP item 5)",
    "recursion.recursion_sequence(cfg)": "bench/ passes it (ROADMAP item 5)",
}


def test_layers_resolve_after_cli_import():
    assert isinstance(compensator_bounds.__version__, str)
    for name in LAYERS:
        module = getattr(compensator_bounds, name)
        for public in module.__all__:
            assert hasattr(module, public), f"{name}.{public}"
    # The package root carries no second copy of the module names.
    with pytest.raises(ImportError):
        from compensator_bounds import value_iteration  # noqa: F401


def test_benchmark_library_calls_resolve():
    # bench/probes.py and bench/workloads.py make these calls, with
    # these signatures; deleting one of them breaks the benchmark.
    from compensator_bounds import bellman, chains, optimize, recursion, shift
    from compensator_bounds.functions import parse_function_spec

    _, a = optimize.golden_max(lambda a: -(a - 0.25) ** 2, 0.0, 1.0, 20)
    assert abs(a - 0.25) < 1e-3
    cfg = recursion.SolverConfig(64, 20)
    assert (cfg.opt_grid_points, cfg.refine_iters) == (64, 20)
    coarse = recursion.SolverConfig(refine_iters=0)
    f = parse_function_spec("exp:lambda=0.5")
    t = f.value(1.5)
    assert type(t) is float and type(f.inverse(t)) is float
    assert f.inverse(t) == 1.5
    assert f.value(bellman.GridConfig(3.0, 0.25).points()).shape == (13,)
    b_seq, _ = recursion.recursion_sequence(f, 3, coarse)
    assert len(b_seq) == 4
    table = bellman.value_iteration(f, 2, bellman.GridConfig(3.0, 0.25),
                                    coarse)
    assert bellman.full_value(table, 2, 0.0, 0.0) == table.V[2, 0]
    assert bellman.verify_lemma1(table).total_violations == 0
    law = chains.extremal_chain_law(bellman.extremal_policy(table), 2)
    assert chains.exact_expectation(f, law) > 0.0
    assert chains.simulate_intro(f, 3, 10, 1, audit_paths=0).n_paths == 10
    assert shift.property_scan(f, 5, 1).violations == 0
    rv = shift.DiscreteRV(((0.5, 0.5), (1.5, 0.5)))
    assert shift.shift_gap(f, 0.5, rv) >= 0.0


def loaded_names() -> set[str]:
    """Loaded names and attributes in the package and the benchmark (not
    its tests); docstrings hold no AST names, so they do not count."""
    sources = [*(ROOT / "src" / "compensator_bounds").glob("*.py"),
               *(p for p in (ROOT / "bench").glob("*.py")
                 if not p.name.startswith("test_"))]
    called = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                called.add(node.id)
            elif isinstance(node, ast.Attribute):
                called.add(node.attr)
    return called


def test_every_public_name_has_a_caller():
    # A public name that only tests reach is dead surface.
    called = loaded_names()
    uncalled = [f"{name}.{public}" for name in LAYERS
                for public in getattr(compensator_bounds, name).__all__
                if public not in called]
    assert uncalled == []


def test_every_module_level_function_has_a_caller():
    # Private helpers too: a writer left behind after its last caller
    # moved elsewhere would still import and pass every test.
    called = loaded_names()
    uncalled = [f"{path.stem}.{node.name}"
                for path in (ROOT / "src" / "compensator_bounds").glob("*.py")
                for node in ast.parse(path.read_text(encoding="utf-8")).body
                if isinstance(node, ast.FunctionDef)
                and node.name not in called]
    assert uncalled == []


def test_every_private_module_name_is_read_in_its_module():
    # The package-wide check above lets a leftover private name pass when
    # another module reads one of the same spelling (chains and shift
    # each had a _MASK32), so each module must read its own.
    unread = []
    for path in (ROOT / "src" / "compensator_bounds").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined = [name.id for target in targets
                           for name in ast.walk(target)
                           if isinstance(name, ast.Name)]
            else:
                continue
            unread += [f"{path.stem}.{name}" for name in defined
                       if name.startswith("_") and not name.startswith("__")
                       and name not in loaded]
    assert unread == []


# The modules each package module imports, all at its top level.  An
# import moves the memory and start-up time of every command that loads
# the package (`import compensator_bounds.cli` loads all of them), so a
# change to this set is made on purpose.
IMPORTS = {
    "__init__": set(),
    "bellman": {"__future__", "math", "dataclasses", "numpy",
                ".functions", ".recursion"},
    "chains": {"__future__", "math", "dataclasses", "typing", "numpy",
               ".functions"},
    "cli": {"__future__", "argparse", "contextlib", "functools",
            "itertools", "json", "os", "stat", "sys", "numpy",
            ".bellman", ".chains", ".functions", ".recursion", ".shift",
            ".optimize"},
    "functions": {"__future__", "enum", "math", "numbers", "dataclasses",
                  "typing", "numpy"},
    "optimize": {"__future__", "math", "typing"},
    "recursion": {"__future__", "math", "dataclasses", "enum", "numpy",
                  ".functions"},
    "shift": {"__future__", "math", "dataclasses", "numpy", ".functions"},
}


def test_imports_are_pinned():
    imported, nested = {}, []
    for path in (ROOT / "src" / "compensator_bounds").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                prefix = "." * node.level
                # `from . import optimize` imports the module optimize.
                names.update([prefix + node.module] if node.module else
                             [prefix + alias.name for alias in node.names])
        imported[path.stem] = names
        top = {id(node) for node in tree.body}
        nested += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and id(node) not in top]
    assert imported == IMPORTS
    assert nested == []


def public_functions():
    """``(name, node)`` of every function, and every method of a class,
    that some layer's ``__all__`` names."""
    for layer in LAYERS:
        public = set(getattr(compensator_bounds, layer).__all__)
        path = ROOT / "src" / "compensator_bounds" / f"{layer}.py"
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and node.name in public:
                yield f"{layer}.{node.name}", node
            elif isinstance(node, ast.ClassDef) and node.name in public:
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield f"{layer}.{node.name}.{item.name}", item


def test_every_parameter_is_read():
    # A parameter its body never reads takes a caller's argument and
    # silently drops it.
    unread = []
    for name, node in public_functions():
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args,
                                  *args.kwonlyargs, args.vararg, args.kwarg)
                  if a is not None and a.arg not in ("self", "cls")]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{name}({p})" for p in params if p not in read]
    assert sorted(unread) == sorted(UNREAD_PARAMETERS)
