"""Source checks that need no linter, run over every package module."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "orientw"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> set:
    """Names bound by the module's top-level import statements."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    # __init__.py is excluded: its imports are the package's re-exports
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported_names(tree) - used) == []


def _private_definitions(tree: ast.Module) -> list:
    """Top-level functions and classes named _x (dunder names excluded)."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def _read_names(node: ast.AST) -> set:
    """Every name and attribute that node reads."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_private_definition_is_used():
    # a helper that only its own body mentions is as dead as one nobody does
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(PACKAGE.glob("*.py"))}
    dead = []
    for name, tree in trees.items():
        for definition in _private_definitions(tree):
            used = any(definition.name in _read_names(node)
                       for other, t in trees.items() for node in t.body
                       if not (other == name and node is definition))
            if not used:
                dead.append("%s:%s" % (name, definition.name))
    assert dead == []


def test_only_modular_runs_the_chain_dp():
    # the step protocol (int units, (index, release, deadline, entries, moves))
    # stays behind modular's block DPs: no other module runs the label loop
    # or harvests its labels
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "modular.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            offenders += ["%s:%s" % (path.name, name)
                          for name in sorted(_read_names(tree) & {"_label_loop", "harvest_labels"})]
    assert offenders == []


def test_only_oracles_walks_the_point_queries_down():
    # a block or release-group entry reaches an oracle through
    # oracles.exit_staircases alone, which decides how the oracle answers,
    # with no point wrapper of either oracle kind beside it; __init__.py is
    # excluded, as its imports are the package's re-exports
    offenders = []
    for path in MODULES:
        if path.name != "oracles.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            offenders += ["%s:%s" % (path.name, name) for name in sorted(
                _read_names(tree) & {"earliest_limits", "best_deadline_walk", "DeadlineQuery",
                                     "best_orienteering_walk", "OrienteeringQuery"})]
    assert offenders == []


def test_only_algorithms_keeps_reports_small():
    # reports kept by the thousand stay small by one mechanism, the
    # live-walk table beside SolveReport: no other module weakly references
    # or interns objects on their behalf
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "algorithms.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            names = _read_names(tree) | {node.module for node in ast.walk(tree)
                                         if isinstance(node, ast.ImportFrom)}
            offenders += ["%s:%s" % (path.name, name)
                          for name in sorted(names & {"weakref", "intern"})]
    assert offenders == []


def test_only_memo_keeps_per_solve_state():
    # what one solve shares lives in one memo, memo._MEMO, opened and
    # closed by memo._one_solve: no other module keeps a context variable
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "memo.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            names = _read_names(tree) | {node.module for node in ast.walk(tree)
                                         if isinstance(node, ast.ImportFrom)}
            offenders += ["%s:%s" % (path.name, name)
                          for name in sorted(names & {"contextvars", "ContextVar"})]
    assert offenders == []


def _function(path: Path, name: str) -> ast.FunctionDef:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_the_exact_searches_run_the_one_subset_dp():
    # the exact oracles' staircase search and the exact optimum share the
    # layered subset DP, instance._subset_dp, and hold no loop over layers
    # of their own
    assert any(isinstance(sub, ast.While)
               for sub in ast.walk(_function(PACKAGE / "instance.py", "_subset_dp")))
    for module, name in (("oracles.py", "exact_staircases"), ("instance.py", "brute_force_opt")):
        node = _function(PACKAGE / module, name)
        assert "_subset_dp" in _read_names(node), name
        assert not any(isinstance(sub, ast.While) for sub in ast.walk(node)), name


def test_one_rule_runs_every_oracle_fn():
    # a fn built on oracles._answer runs its entry builder in units and any
    # other fn gets the Fraction adapter: _entry_ask tells no built-in fn
    # apart by name
    names = _read_names(_function(PACKAGE / "oracles.py", "_entry_ask"))
    assert sorted(names & {"exact_orienteering", "exact_deadline", "greedy_orienteering",
                           "_exact_point", "_greedy", "_layered_entry"}) == []


def test_package_imports_only_itself_and_the_standard_library():
    # README promises no runtime dependencies and pyproject lists none
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = [node.module.split(".")[0]]
            else:
                continue
            foreign += ["%s:%s" % (path.name, top) for top in tops
                        if top not in sys.stdlib_module_names]
    assert foreign == []


def test_no_function_calls_itself():
    # the exhaustive searches are layered DPs, which no recursion-depth
    # limit cuts short; a nested function counts as well
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called = {sub.func.id for sub in ast.walk(node)
                          if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)}
                if node.name in called:
                    offenders.append("%s:%s" % (path.name, node.name))
    assert offenders == []


def test_every_registered_solver_but_auto_is_the_recipe():
    # the wait policy, the anchor mode and the "Z" version are the recipe's
    # (algorithms._compose): a registered solver ends by handing its split
    # over, and only the recipe and solve_auto, which refuses a no-wait
    # instance once, check the wait policy
    tree = ast.parse((PACKAGE / "algorithms.py").read_text(encoding="utf-8"))
    registry = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets] == ["ALGORITHMS"])
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    not_recipe = []
    for value in registry.values:
        if value.id == "solve_auto":
            continue
        last = functions[value.id].body[-1]
        if not (isinstance(last, ast.Return) and isinstance(last.value, ast.Call)
                and isinstance(last.value.func, ast.Name) and last.value.func.id == "_compose"):
            not_recipe.append(value.id)
    assert not_recipe == []
    readers = sorted(name for name, node in functions.items()
                     if "_require_wait" in _read_names(node))
    assert readers == ["_compose", "solve_auto"]


def test_only_rational_and_instance_build_units():
    # units_for makes the units of a query or a walk, and instance._derived
    # keeps one Units per scales and table; every other reader takes an
    # instance's view (instance._view)
    offenders = []
    for path in MODULES:
        if path.name not in ("rational.py", "instance.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            offenders += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
                          if isinstance(node, ast.Call) and "Units" in _read_names(node.func)]
    assert offenders == []
