"""Source guards that span the package and the benchmark harness.

Each small tolerance in ``src/berklab`` is a named constant, so a rule that
two functions share is written once; the population mean is one fold, never
a dot product; and every name the benchmark's tracer wraps still resolves in
the package; and a public name that no package or benchmark code reaches
is one of a pinned few.
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


def test_public_names_no_package_code_reaches_are_pinned():
    # a public name that no package module (the root aside) and no benchmark
    # script names is reached only through the package: these six are paper
    # results a user reads, and a new one (a wrapper kept for its tests, say)
    # shows up as an edit here
    seen = set()
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    for path in modules + sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.alias):
                seen.add(node.name)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and all(part.isidentifier() for part in node.value.split("."))):
                seen.update(node.value.split("."))  # the tracer's attribute paths
    assert set(berklab.__all__) - seen == {
        "evaluator_step", "first_order_comparison", "gap_decomposition",
        "monte_carlo_multigroup", "posterior_params", "sensitivity"}


def test_only_truncnorm_reads_the_interior_rule():
    # the interior rule's constants have one owner, ``truncnorm.interior``:
    # other modules ask it instead of restating its test, learning, which
    # asks it every period, writes neither value as a literal, and no other
    # function of truncnorm (``trunc_mean`` in particular) reads them
    from berklab.truncnorm import _ULP_GUARD, INTERIOR_SIGMAS
    names = {"INTERIOR_SIGMAS", "_ULP_GUARD"}
    sites = set()
    tree = ast.parse((SRC / "truncnorm.py").read_text())
    owner = next(fn for fn in tree.body
                 if isinstance(fn, ast.FunctionDef) and fn.name == "interior")
    owned = set(map(id, ast.walk(owner)))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id in names
                and isinstance(node.ctx, ast.Load) and id(node) not in owned):
            sites.add(f"truncnorm.py:{node.lineno}")
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


def test_the_learning_step_takes_its_noise_as_drawn():
    # each period's noise comes from ``learning.noise_stream`` unaltered: no
    # parameter, keyword or name in the package zeroes or clips it, and a
    # test that needs a deterministic path substitutes the stream instead
    names = {"zero_noise", "clip_noise"}
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if ((isinstance(node, ast.arg) and node.arg in names)
                    or (isinstance(node, ast.keyword) and node.arg in names)
                    or (isinstance(node, ast.Name) and node.id in names)
                    or (isinstance(node, ast.Attribute) and node.attr in names)):
                sites.add(f"{path.name}:{node.lineno}")
    assert sites == set()


def _load_time_imports(tree):
    """The import statements a module runs as it loads: none inside a
    function, nor under ``if TYPE_CHECKING:``."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            todo.extend(node.orelse)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        todo.extend(ast.iter_child_nodes(node))


def _imported(node):
    """Every dotted name an import statement may load, relative ones with
    their leading dots: ``from .a import b`` gives ``.a`` and ``.a.b``."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    base = "." * node.level + (node.module or "")
    sep = "." if node.module else ""
    return {base} | {f"{base}{sep}{alias.name}" for alias in node.names}


def test_light_modules_import_no_heavy_module_as_they_load():
    # the package root binds no name from a submodule, and the modules that
    # every LQ command runs import learning, multigroup, analysis and
    # numpy.polynomial only inside the functions that use them, so a
    # command loads only what it runs
    init = ast.parse((SRC / "__init__.py").read_text())
    assert [n.lineno for n in ast.walk(init)
            if isinstance(n, ast.ImportFrom) and n.level] == []
    heavy = (".learning", ".multigroup", ".analysis", "berklab.learning",
             "berklab.multigroup", "berklab.analysis", "numpy.polynomial")
    sites = set()
    for name in ("cli", "config", "equilibrium", "best_response", "chebyshev",
                 "primitives"):
        for node in _load_time_imports(ast.parse((SRC / f"{name}.py").read_text())):
            if any(t == h or t.startswith(h + ".") for t in _imported(node)
                   for h in heavy):
                sites.add(f"{name}.py:{node.lineno}")
    assert sites == set()
