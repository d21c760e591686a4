"""Source guards that span the package and the benchmark harness.

Each small tolerance in ``src/berklab`` is a named constant, so a rule that
two functions share is written once; the population mean is one fold, never
a dot product; and every name the benchmark's tracer wraps still resolves in
the package.
"""

import ast
import importlib.util
from collections import defaultdict
from pathlib import Path

import berklab

SRC = Path(berklab.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_no_small_float_literal_is_written_twice_in_function_bodies():
    # a literal below 1e-2 inside a function is a tolerance, step or floor;
    # written twice it is one rule with two owners: name it once instead
    sites = defaultdict(set)
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for node in ast.walk(fn):
                    if (isinstance(node, ast.Constant) and type(node.value) is float
                            and 0.0 < abs(node.value) < 1e-2):
                        sites[node.value].add(
                            f"{path.name}:{node.lineno}:{node.col_offset}")
    assert {v: sorted(s) for v, s in sites.items() if len(s) > 1} == {}


def test_every_traced_name_resolves():
    # the tracer wraps package functions by name: a rename or deletion must
    # fail here, not only in the harness's own self-test
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for name, (module, attr_path, _) in tracer.TARGETS.items():
        _, _, func = tracer._resolve(module, attr_path)
        assert callable(func), name


def test_only_truncnorm_reads_the_interior_rule():
    # the interior path's constants have one owner; other modules ask
    # ``truncnorm.interior`` instead of restating its test, and learning,
    # which asks it every period, writes neither value as a literal
    from berklab.truncnorm import _ULP_GUARD, INTERIOR_SIGMAS
    names = {"INTERIOR_SIGMAS", "_ULP_GUARD"}
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "truncnorm.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if ((isinstance(node, ast.Name) and node.id in names)
                    or (isinstance(node, ast.Attribute) and node.attr in names)
                    or (isinstance(node, ast.alias) and node.name in names)
                    or (path.name == "learning.py" and isinstance(node, ast.Constant)
                        and type(node.value) is float
                        and node.value in (INTERIOR_SIGMAS, _ULP_GUARD))):
                sites.add(f"{path.name}:{node.lineno}")
    assert sites == set()


def test_no_dot_product_forms_a_population_mean():
    # the population mean is best_response.population_mean's left fold; a
    # BLAS dot product (np.dot, ndarray.dot, or either bound to a name)
    # may sum in an order that depends on the batch, so neither learning
    # nor the engine names one
    sites = set()
    for name in ("learning.py", "best_response.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text())):
            if ((isinstance(node, ast.Attribute) and node.attr == "dot")
                    or (isinstance(node, ast.Name) and node.id == "dot")):
                sites.add(f"{name}:{node.lineno}")
    assert sites == set()
