"""Checks on the source text itself, made with ``ast`` alone, and on the
names the benchmark's tracer wraps."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/tropimpl/*.py")) + \
    sorted(ROOT.glob("tests/*.py"))


def unused_imports(path):
    """(line, name) of every name a module imports but never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    assert len(SOURCES) > 10
    found = {f"{path.relative_to(ROOT)}:{line}": name
             for path in SOURCES for line, name in unused_imports(path)}
    assert found == {}


def exactcore_reads(path):
    """(line, name) of every ``ec.<name>`` a module loads."""
    tree = ast.parse(path.read_text(), str(path))
    return [(node.lineno, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == "ec"]


def test_exactcore_names_read_exist():
    # a helper deleted from exactcore but still read on a path few runs
    # take would fail only the job that takes it
    exactcore = importlib.import_module("tropimpl.exactcore")
    found = {f"{path.relative_to(ROOT)}:{line}": name
             for path in SOURCES for line, name in exactcore_reads(path)}
    assert len(found) > 100
    assert {at: name for at, name in found.items()
            if not hasattr(exactcore, name)} == {}


def private_definitions(path):
    """(line, name) of every underscore-prefixed function, method or class
    a module defines, dunder methods aside."""
    tree = ast.parse(path.read_text(), str(path))
    return [(node.lineno, node.name) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_")
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def names_read(path):
    """Every bare name and attribute a module loads."""
    tree = ast.parse(path.read_text(), str(path))
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def test_lattices_are_factored_only_in_exactcore():
    # ec.saturate factors a lattice's generators once and reads its basis,
    # equations, index and change of coordinates off that one Hermite form;
    # a module reading row_hermite would factor a lattice again on its
    # own, one building a LatticeBasis would skip that factorization, and
    # polyhedra solving in a lattice basis would factor it a second time
    package = sorted(ROOT.glob("src/tropimpl/*.py"))
    exactcore = ROOT / "src" / "tropimpl" / "exactcore.py"
    polyhedra = ROOT / "src" / "tropimpl" / "polyhedra.py"
    assert "row_hermite" in names_read(exactcore)
    assert [path.name for path in package
            if path != exactcore and "row_hermite" in names_read(path)] == []
    assert [path.name for path in SOURCES
            if path != exactcore and "LatticeBasis" in names_read(path)] == []
    assert {"coordinates", "pull_back"} <= names_read(polyhedra)
    assert "linear_solver" not in names_read(polyhedra)


def test_lattice_polytopes_and_no_general_solver():
    # every polytope of the pipeline is a lattice polytope, so polyhedra
    # parses, writes and sweeps ints alone; the package solves no M x = b
    # but a lattice's change of coordinates, and matroid components come
    # from one Bareiss kernel
    package = sorted(ROOT.glob("src/tropimpl/*.py"))
    polyhedra = ROOT / "src" / "tropimpl" / "polyhedra.py"
    implicitize = ROOT / "src" / "tropimpl" / "implicitize.py"
    solvers = {"linear_solver", "solve_integer"}
    assert names_read(polyhedra) & (solvers | {
        "rat", "rat_from_json", "rat_to_json"}) == set()
    assert {path.name: sorted(solvers & names_read(path))
            for path in package if solvers & names_read(path)} == {}
    assert "rational_kernel" in names_read(implicitize)


def test_only_interpolate_solves_lifts_and_verifies():
    # every interpolation, the Chow form's included, is one call of the
    # sample -> solve -> lift -> verify path in interpolate; a module
    # reading its parts would run a second copy of that path
    package = sorted(ROOT.glob("src/tropimpl/*.py"))
    interpolate = ROOT / "src" / "tropimpl" / "interpolate.py"
    chow = ROOT / "src" / "tropimpl" / "chow.py"
    path_parts = {"solve_verified", "lift_kernel_vector", "_verify",
                  "gfp_kernel"}
    assert path_parts <= names_read(interpolate)
    assert {path.name: sorted(path_parts & names_read(path))
            for path in package if path != interpolate
            and path_parts & names_read(path)} == {}
    assert {"interpolate_polynomial", "MonomialBasis"} <= names_read(chow)


def test_no_unreferenced_private_helpers():
    package = sorted(ROOT.glob("src/tropimpl/*.py"))
    read = set().union(*(names_read(path) for path in package))
    defined = {f"{path.relative_to(ROOT)}:{line}": name
               for path in package
               for line, name in private_definitions(path)}
    assert len(defined) > 20
    assert {at: name for at, name in defined.items()
            if name not in read} == {}


def public_definitions(path):
    """(line, name) of every public top-level function and method a module
    defines, methods named Class.method."""
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found += [(item.lineno, f"{node.name}.{item.name}")
                      for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and not item.name.startswith("_")]
        elif isinstance(node, ast.FunctionDef) \
                and not node.name.startswith("_"):
            found.append((node.lineno, node.name))
    return found


# public names that no module of the package reads, and why each stays
ENTRY_POINTS = {
    "ImplicitPolynomial.coefficient":
        "the README's Python API reads a coefficient of an equation",
    "PluckerPoly.coefficient":
        "reads a coefficient of the Chow form chow_polytope returns, as "
        "ImplicitPolynomial.coefficient does for an equation",
    "_Parser.error": "argparse calls it to report a bad command line",
}


def tracer_targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_no_public_api_only_tests_call():
    # a public function or method no module reads is dead code or test
    # scaffolding, unless it is an entry point; the benchmark's tracer
    # reads the names it wraps
    package = sorted(ROOT.glob("src/tropimpl/*.py"))
    read = set().union(*(names_read(path) for path in package))
    traced = {name for _, _, name, _ in tracer_targets()}
    defined = {f"{path.relative_to(ROOT)}:{line}": name
               for path in package
               for line, name in public_definitions(path)}
    assert len(defined) > 100
    assert {at: name for at, name in defined.items()
            if name.rpartition(".")[2] not in read
            and name not in traced and name not in ENTRY_POINTS} == {}
    assert set(ENTRY_POINTS) <= set(defined.values())


def test_traced_functions_exist():
    # the benchmark's tracer wraps these names; a renamed function would
    # otherwise fail only the harness self-test
    targets = tracer_targets()
    assert len(targets) > 20
    missing = []
    for _, module, name, _ in targets:
        owner = importlib.import_module("tropimpl." + module)
        cls, _, attr = name.rpartition(".")
        if cls:
            found = attr in vars(getattr(owner, cls, object))
        else:
            found = hasattr(owner, attr)
        if not found:
            missing.append(f"{module}.{name}")
    assert missing == []
