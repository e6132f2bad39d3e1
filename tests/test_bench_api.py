"""Every kgmix name that the benchmark workloads (benchmarks/workloads.py)
reach resolves.  The workloads file is read as a syntax tree, not imported
or changed, so that renaming a name it uses fails here instead of only as a
failed benchmark run."""
import ast
from pathlib import Path

import pytest

import kgmix

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
TREE = ast.parse(WORKLOADS.read_text(encoding="utf-8"))


def _kg_module(node):
    """'train' for the expression kg.train, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "kg":
        return node.attr
    return None


def _function(name):
    return next(n for n in ast.walk(TREE) if isinstance(n, ast.FunctionDef) and n.name == name)


def _strings(expr):
    """The strings an expression can evaluate to: a literal, or either
    branch of a conditional expression."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return {expr.value}
    if isinstance(expr, ast.IfExp):
        return _strings(expr.body) | _strings(expr.orelse)
    raise AssertionError(f"cannot read the strings of {ast.unparse(expr)!r}")


def attribute_chains():
    """(module, name) of every kg.<module>.<name> the workloads read."""
    return sorted({(_kg_module(n.value), n.attr) for n in ast.walk(TREE)
                   if isinstance(n, ast.Attribute) and _kg_module(n.value)})


def kept_names():
    """(module, name) of each string passed to keep_results(kg.<module>, ...)."""
    out = set()
    for n in ast.walk(TREE):
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "keep_results":
            module = _kg_module(n.args[0])
            assert module, ast.unparse(n)
            out |= {(module, name) for a in n.args[1:] for name in _strings(a)}
    return sorted(out)


def theory_getattr_names():
    """The names _run_case looks up with getattr(kg.theory, fn): the case
    functions _theory_cases lists, less those _run_case handles itself."""
    cases, run_case = _function("_theory_cases"), _function("_run_case")
    assigned = {t.id: n.value for n in ast.walk(cases) if isinstance(n, ast.Assign)
                for t in n.targets if isinstance(t, ast.Name)}
    listed = set()
    for n in ast.walk(cases):
        if isinstance(n, ast.Call) and ast.unparse(n.func) == "cases.append":
            fn = n.args[0].elts[1]
            listed |= _strings(assigned[fn.id] if isinstance(fn, ast.Name) else fn)
    handled = {c.value for n in ast.walk(run_case) if isinstance(n, ast.Compare)
               for c in n.comparators if isinstance(c, ast.Constant)}
    lookups = [n for n in ast.walk(run_case) if isinstance(n, ast.Call)
               and ast.unparse(n.func) == "getattr" and _kg_module(n.args[0]) == "theory"]
    assert lookups, "_run_case no longer calls getattr(kg.theory, ...)"
    return sorted(listed - handled)


def _resolves(module, name):
    return hasattr(getattr(kgmix, module, None), name)


@pytest.mark.parametrize("module,name", attribute_chains())
def test_attribute_chain_resolves(module, name):
    assert _resolves(module, name), f"workloads.py reads kg.{module}.{name}"


@pytest.mark.parametrize("module,name", kept_names())
def test_keep_results_name_resolves(module, name):
    assert _resolves(module, name), f"workloads.py keeps results of kg.{module}.{name}"


@pytest.mark.parametrize("name", theory_getattr_names())
def test_theory_case_function_resolves(name):
    assert _resolves("theory", name), f"workloads.py calls getattr(kg.theory, {name!r})"


def test_the_reader_finds_the_workloads_names():
    """The tree walks above find what the workloads use today, so an empty
    parametrisation cannot pass for a resolved one."""
    assert ("graph", "build_query_index") in attribute_chains()
    assert ("evaluate", "filtered_nll") in kept_names()
    assert theory_getattr_names() == [
        "dr_obstruction_check", "enumerate_feasible_rankings", "enumerate_feasible_signs"
    ]
