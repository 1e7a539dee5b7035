import ast
import importlib
import itertools
import pathlib
import sys

import pytest

import semimod
from semimod.cli import build_arg_parser


def test_no_assert_statements_in_the_package():
    # soundness checks must raise typed errors: `python -O` strips asserts
    root = pathlib.Path(semimod.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        )
    assert found == []


def test_no_imports_inside_functions():
    # every module's dependencies are stated once, at its top
    root = pathlib.Path(semimod.__file__).parent
    found = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(
                    f"{path.name}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                )
    assert sorted(found) == []


# the independent path that re-checks every violation the scan reports,
# by module; it must not share the scan's kernels
PLAIN_EVALUATORS = {
    "poly.py": {"evaluate_raw"},
    "linalg.py": {"dot_raw"},
    "oracle.py": {"_verify_violation"},
    "fields.py": {"power"},
}
SCAN_KERNELS = {"horner", "roots_among", "eliminate", "echelon_insert"}


def test_violation_re_check_does_not_use_the_scan_kernels():
    root = pathlib.Path(semimod.__file__).parent
    checked, found = set(), []
    for module, names in PLAIN_EVALUATORS.items():
        tree = ast.parse((root / module).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.FunctionDef) and node.name in names):
                continue
            checked.add((module, node.name))
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    func = call.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    if name in SCAN_KERNELS:
                        found.append(f"{module}:{call.lineno} {node.name} calls {name}")
    assert checked == {(m, n) for m, names in PLAIN_EVALUATORS.items() for n in names}
    assert found == []


def test_eliminate_has_one_body_on_field():
    # the echelon step is cold next to horner and roots_among, so it has
    # one generic body instead of a copy per field
    root = pathlib.Path(semimod.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {  # id of each class's method: the class
            id(item): node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
        }
        found.extend(
            f"{path.name}:{owner.get(id(node), '<not a method>')}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "eliminate"
        )
    assert found == ["fields.py:Field"]


def test_ring_faults_are_raised_only_in_poly():
    # one operand rule: entry points call poly.check_operands instead of
    # testing rings by hand
    root = pathlib.Path(semimod.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", None) == "MismatchedRingError":
                    found.append(f"{path.name}:{node.lineno}")
    assert any(entry.startswith("poly.py:") for entry in found)
    assert [entry for entry in found if not entry.startswith("poly.py:")] == []


def test_monic_elements_are_read_only_where_needed():
    # a basis's monic elements are built on first read; deciding reads the
    # packed divisors, and only groebner.py and the unit re-check of
    # closure._radical_member read the elements, so the Fraction boundary
    # stays off the hot paths.  Calls such as field.elements() are excluded.
    root = pathlib.Path(semimod.__file__).parent
    found = set()
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        scope = {}  # id of each node: the innermost function around it
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.update((id(node), func.name) for node in ast.walk(func))
        found.update(
            f"{path.name}:{scope.get(id(node), '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "elements"
            and id(node) not in called
        )
    outside = {entry for entry in found if not entry.startswith("groebner.py:")}
    assert outside == {"closure.py:_radical_member"}


def test_package_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies, so every import in the
    # package is from the standard library or from semimod itself
    tomllib = pytest.importorskip("tomllib")
    repo = pathlib.Path(__file__).parent.parent
    project = tomllib.loads((repo / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["dependencies"] == []
    root = pathlib.Path(semimod.__file__).parent
    outside = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside.extend(
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {"semimod"}
            )
    assert outside == []


def test_test_extra_declares_every_test_dependency():
    # a dependency missing from the extra makes importorskip skip silently
    tomllib = pytest.importorskip("tomllib")
    repo = pathlib.Path(__file__).parent.parent
    declared = set(
        tomllib.loads((repo / "pyproject.toml").read_text(encoding="utf-8"))
        ["project"]["optional-dependencies"]["test"]
    )
    local = {p.stem for p in (repo / "tests").glob("*.py")} | {"semimod"}
    used = set()
    for path in (repo / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                used.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                used.add(node.module.split(".")[0])
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "importorskip"
            ):
                used.add(node.args[0].value)
    assert used - set(sys.stdlib_module_names) - local <= declared


def test_every_traced_name_resolves_in_the_package():
    # bench/tracing.py wraps these names; bench is not importable here, so
    # read its target tables with ast and resolve each entry in semimod
    path = pathlib.Path(__file__).parent.parent / "bench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("semimod")
        for alias in node.names
    }
    names = {"SPAN_TARGETS", "COUNT_TARGETS", "LEAF_TARGETS"}
    tables = {
        node.targets[0].id: node.value.elts
        for node in tree.body
        if isinstance(node, ast.Assign)
        and getattr(node.targets[0], "id", None) in names
    }
    assert set(tables) == names
    missing = []
    for table, entries in tables.items():
        for entry in entries:
            owner, fname = entry.elts[0], entry.elts[1].value
            if isinstance(owner, ast.Constant):
                module = importlib.import_module(f"semimod.{owner.value}")
                found = callable(getattr(module, fname, None))
                label = f"{owner.value}.{fname}"
            else:
                cls = getattr(importlib.import_module(imported[owner.id]), owner.id)
                found = callable(vars(cls).get(fname))
                label = f"{owner.id}.{fname}"
            if not found:
                missing.append(f"{table}: {label}")
    assert missing == []


def test_only_buchberger_builds_a_groebner_basis():
    # a basis is built whole, in one constructor call, by buchberger alone
    root = pathlib.Path(semimod.__file__).parent
    builders = {"buchberger", "_buchberger"}
    found = []

    def visit(node, function, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name, path)
                continue
            if isinstance(child, ast.Call):
                callee = child.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                if name == "GroebnerBasis" and function not in builders:
                    found.append(f"{path.name}:{child.lineno} in {function}")
            visit(child, function, path)

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), None, path)
    assert found == []


def test_every_membership_call_passes_order_and_limits():
    # a call that falls back to the defaults escapes the query's --order,
    # --max-pairs and --max-degree
    root = pathlib.Path(semimod.__file__).parent
    params = ["f", "submodule", "order", "limits"]
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            passed = params[: len(node.args)] + [k.arg for k in node.keywords]
            if name == "submodule_member" and not {"order", "limits"} <= set(passed):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_witnesses_are_searched_by_the_decisions_only():
    # one closure decision, for vectors and matrices, scans each query at
    # most once: over Q a grid witness decides a negative before the
    # radical test, and a finite-field negative attaches a search that runs
    # on first read; the CLI prints what a verdict carries, and no other
    # function, and no module body, calls the search
    root = pathlib.Path(semimod.__file__).parent
    callers = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                callee = child.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                if name == "find_vanishing_witness":
                    callers.add(f"{path.stem}.{owner}")
            visit(child, owner)

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    assert callers == {"closure.semiprime_member"}


def test_every_scan_witness_follows_its_re_verification():
    # the scan's batched paths (minors, bordered minors) may only pass
    # points: a Witness is built only by a function that has re-verified
    # the violation on the independent path, on an earlier line
    path = pathlib.Path(semimod.__file__).parent / "oracle.py"
    built, found = [], []

    def visit(node, owner, calls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name, inner = getattr(child, "name", "<lambda>"), []
                visit(child, name, inner)
                check(name, inner)
                continue
            if isinstance(child, ast.Call):
                callee = child.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                calls.append((name, child.lineno))
            visit(child, owner, calls)

    def check(owner, calls):
        verified = [line for name, line in calls if name == "_verify_violation"]
        for name, line in calls:
            if name == "Witness":
                built.append(owner)
                if not any(v < line for v in verified):
                    found.append(f"oracle.py:{line} {owner}")

    module_calls = []
    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>", module_calls)
    check("<module>", module_calls)
    assert found == []
    assert set(built) == {"vanishing_scan"}


def test_the_scan_builds_polynomials_only_from_its_integral_rows():
    # every determinant the scan tests comes from _det over the rows that
    # _integral builds once per scan, so no other function of oracle.py
    # constructs a Polynomial
    path = pathlib.Path(semimod.__file__).parent / "oracle.py"
    built = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if owner == "<module>" else owner)
                continue
            if isinstance(child, ast.Call):
                callee = child.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                if name == "Polynomial":
                    built.append(owner)
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    assert built and set(built) == {"_integral"}


def test_every_basis_is_built_and_read_on_one_membership_path():
    # each decision asks submodule_member on a presentation: only its cached
    # basis is built by buchberger, and only submodule_member reduces by it
    root = pathlib.Path(semimod.__file__).parent
    callers = {"buchberger": set(), "normal_form": set()}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                callee = child.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                if name in callers:
                    callers[name].add(owner)
            visit(child, owner)

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert callers == {
        "buchberger": {"groebner.SubmodulePresentation.groebner"},
        "normal_form": {"groebner.submodule_member"},
    }


def test_cli_imports_no_private_name():
    # the CLI is built on the package's public decisions: a private helper
    # it imported would be a second path to a verdict
    path = pathlib.Path(semimod.__file__).parent / "cli.py"
    private = [
        f"cli.py:{node.lineno} {alias.name}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_the_flag_table_lists_every_cli_flag():
    # a flag added or removed in the CLI must be added to or removed from
    # the table in docs/format.md too
    format_md = pathlib.Path(__file__).parent.parent / "docs" / "format.md"
    lines = format_md.read_text(encoding="utf-8").splitlines()
    start = lines.index("| flag | meaning |") + 2
    rows = itertools.takewhile(lambda s: s.startswith("|"), lines[start:])
    documented = [row.split("`")[1].split()[0] for row in rows]
    flags = [
        option
        for action in build_arg_parser()._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    ]
    assert documented == flags
