"""Source hygiene: no import a module never uses, no module-level private
function that nothing in the package references, no module-level assigned
name that nothing in the package reads, no public name that nothing uses,
no keyword option that no caller passes, no import cycle between the
package's modules, no numpy in the command-line layer or under
``import hamsel.numkit``, no multiprocessing under ``import hamsel.cli`` or
``import hamsel.simulate``, no scipy anywhere in the package, no BLAS product,
no numpy transcendental function, the ratio (d - s)/s formed in one function only, and every library name
the benchmark in bench/ reads still defined.

The package has no linter; these checks catch what a refactor most often
leaves behind.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hamsel"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _name_uses(tree: ast.AST) -> Counter:
    """How often each bare name is read, or named as an attribute, in the tree."""
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
    return uses


def _used_names(tree: ast.AST) -> set[str]:
    """Every bare name read and every attribute name in the tree."""
    return set(_name_uses(tree))


def _imported(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) for each import in the module, __future__ excepted."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    return bound


def test_package_modules_found():
    assert {"__init__.py", "selectors.py", "simulate.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda m: m.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def test_no_orphan_private_functions():
    trees = {m.name: _tree(m) for m in MODULES}
    referenced = set()
    for tree in trees.values():
        referenced |= _used_names(tree)
        referenced |= {name for name, _ in _imported(tree)}
    orphans = [
        f"{name}.{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert not orphans, f"private functions nothing in src/ references: {orphans}"


def _module_assignments(tree: ast.Module):
    """Each name an assignment statement at the module's top level binds."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_no_orphan_module_constants():
    """Every module-level assigned name in src/hamsel, dunders excepted, is
    read somewhere in src/: a table whose last reader went is left behind."""
    trees = {m.name: _tree(m) for m in MODULES}
    read = set().union(*(_used_names(tree) for tree in trees.values()))
    orphans = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _module_assignments(tree)
        if not name.startswith("__") and name not in read
    ]
    assert not orphans, f"module-level names nothing in src/ reads: {orphans}"


def _public_definitions(tree: ast.Module):
    """(qualified name, bare name, node) for each public module-level
    function or class and each public method or property of such a class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def _readme_code_words() -> set[str]:
    """Every word inside a backtick code span of README.md, fenced code
    blocks included."""
    spans = re.findall(r"`+([^`]+)`+", (ROOT / "README.md").read_text())
    return set(re.findall(r"\w+", " ".join(spans)))


def test_no_dead_public_surface():
    """Every public function, class, method and property in src/hamsel is
    used by name in src/ outside its own definition, used by name in bench/,
    or written in a code span of README.md.  Being public is not a use: a
    name only the tests call is a test oracle, and lives in tests/.

    Names are matched, not bindings: a property whose name a local or
    another attribute shares (a ``ratio`` property beside ``ratio`` locals,
    say) counts as used, so the check cannot see it.
    """
    trees = {m.name: _tree(m) for m in MODULES}
    src_uses = sum((_name_uses(t) for t in trees.values()), Counter())
    bench_names = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = _tree(path)
        bench_names |= _used_names(tree) | {name for name, _ in _imported(tree)}
    documented = _readme_code_words()
    dead = [
        f"{module}: {qualified}"
        for module, tree in trees.items()
        for qualified, name, node in _public_definitions(tree)
        if src_uses[name] == _name_uses(node)[name]
        and name not in bench_names
        and name not in documented
    ]
    assert not dead, f"public names nothing uses: {dead}"


def _keywords_passed(tree: ast.AST) -> set[str]:
    """Every name passed as a keyword argument in a call in the tree."""
    return {
        kw.arg for node in ast.walk(tree) if isinstance(node, ast.Call) for kw in node.keywords
    }


def test_bench_library_names_resolve():
    """Every name bench/*.py imports from a hamsel module, and every
    attribute it reads of a module it imports with ``from hamsel import``
    (``risk.psi_plus``, ``numkit.poisson_cdf``), exists: a src/ change that
    drops one would otherwise fail only a benchmark run."""
    read, missing = set(), []
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = _tree(path)
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "hamsel":
                        importlib.import_module(alias.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "hamsel":
                for alias in node.names:
                    modules[alias.asname or alias.name] = importlib.import_module(f"hamsel.{alias.name}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hamsel."):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    read.add(f"{node.module}.{alias.name}")
                    if not hasattr(module, alias.name):
                        missing.append(f"{path.name}: {node.module}.{alias.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                read.add(f"{node.value.id}.{node.attr}")
                if not hasattr(modules[node.value.id], node.attr):
                    missing.append(f"{path.name}: {node.value.id}.{node.attr}")
    assert {"hamsel.simulate.estimate_risk", "risk.psi_plus", "numkit.poisson_cdf"} <= read
    assert not missing, f"library names bench/ reads that hamsel does not define: {missing}"


def test_every_keyword_option_is_passed():
    """Every keyword-only parameter of a public module-level function in
    src/hamsel is passed by name in some call in src/ or bench/; a call in a
    test does not count, as an option only tests set does not pay for itself.

    Names are matched, as in test_no_dead_public_surface: a keyword that
    some other call passes under the same name counts as passed.
    """
    callers = MODULES + sorted((ROOT / "bench").glob("*.py"))
    passed = set().union(*(_keywords_passed(_tree(path)) for path in callers))
    unpassed = [
        f"{path.name}: {node.name}({arg.arg}=)"
        for path in MODULES
        for node in _tree(path).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        for arg in node.args.kwonlyargs
        if arg.arg not in passed
    ]
    assert not unpassed, f"keyword options no caller in src/ or bench/ passes: {unpassed}"


def _imported_packages(tree: ast.AST) -> set[str]:
    """The top-level package of each module the tree imports."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
    return {m.split(".")[0] for m in modules}


def _package_imports(tree: ast.AST) -> set[str]:
    """The hamsel modules the tree imports, at any level: ``from . import
    risk``, ``from .model import X`` and ``import hamsel.model`` alike."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["hamsel" if node.level else "", node.module]))
            targets = [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        modules |= {t.split(".")[1] for t in targets if t.startswith("hamsel.")}
    return modules


def test_package_import_graph_is_acyclic():
    """No module in src/hamsel imports, at any level (a deferred import
    inside a function counts), a module that imports it, directly or
    through others: the modules form one chain of layers."""
    graph = {m.stem: _package_imports(_tree(m)) for m in MODULES}
    assert graph["cli"] >= {"risk", "simulate"}  # the walk sees intra-package imports
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> None:
        if module in path:
            pytest.fail(f"import cycle: {' -> '.join(path[path.index(module):] + [module])}")
        if module not in done:
            for dep in sorted(graph.get(module, ())):
                visit(dep, path + [module])
            done.add(module)

    for module in sorted(graph):
        visit(module, [])


def test_numkit_imports_without_numpy():
    """The scalar kernels load no numpy: ``import hamsel.numkit`` in a fresh
    interpreter leaves numpy out of sys.modules, so the package namespace
    imports none of the array modules."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, hamsel.numkit; "
        "print(*(m for m in sys.modules if m.split('.')[0] in ('numpy', 'hamsel')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert sorted(result.stdout.split()) == ["hamsel", "hamsel.numkit"]


def test_worker_machinery_is_imported_lazily():
    """``import hamsel.cli`` and ``import hamsel.simulate`` in a fresh
    interpreter load neither multiprocessing nor concurrent.futures: only
    a run big enough to start worker processes imports them, so start-up
    and the small runs do not pay for them."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    for module in ("hamsel.cli", "hamsel.simulate"):
        code = (
            f"import sys, {module}; "
            "print(*(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.stdout.split() == [], module


def test_cli_imports_no_numpy():
    """cli.py formats and parses plain Python values; the array work is the
    library's, so a numpy import there is a serializer branch no caller needs."""
    assert "numpy" not in _imported_packages(_tree(SRC / "cli.py"))


def test_cli_reads_no_private_library_name():
    """cli.py is a thin wrapper over the library's public names: a private
    one it imports (``from .model import _check_d_s``) or reads off a module
    (``risk._psi_cut``) is a check or a number worked out a second time."""
    tree = _tree(SRC / "cli.py")
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "hamsel"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    private.append(f"{node.module or '.'}.{alias.name}")
                elif not node.module:
                    modules.add(alias.asname or alias.name)
    private += [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
    ]
    assert {"risk", "simulate"} <= modules  # the walk sees the module imports
    assert not private, f"private library names cli.py reads: {private}"

def test_no_module_imports_scipy():
    """The package runs on numpy and the standard library: scipy is a test
    dependency only, and an import of it anywhere in src/hamsel, even inside
    a function, would bring it back at run time."""
    assert not [m.name for m in MODULES if "scipy" in _imported_packages(_tree(m))]


def _ratio_sites(tree: ast.AST):
    """(enclosing function, line) of each division of a subtraction by its
    own right operand, (x - y) / y, whatever the names; a constant x, as in
    a rate's odds (1 - a)/a, is not a ratio of counts."""
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Div)
                and isinstance(node.left, ast.BinOp)
                and isinstance(node.left.op, ast.Sub)
                and not isinstance(node.left.left, ast.Constant)
                and ast.dump(node.left.right) == ast.dump(node.right)
            ):
                yield func.name, node.lineno


def test_ratio_is_formed_only_by_check_d_s():
    """(d - s)/s is formed once, in model._check_d_s, which checks the pair
    first; every cut and Psi weight reads the ratio it returns."""
    sites = {
        (path.name, name) for path in MODULES for name, _ in _ratio_sites(_tree(path))
    }
    assert sites == {("model.py", "_check_d_s")}


_BLAS_PRODUCTS = {"dot", "matmul", "einsum", "inner", "tensordot"}


def _blas_product_sites(tree: ast.AST):
    """(line, what) of each ``@``, and each attribute or imported name
    naming a numpy product that may run through BLAS (``np.dot``, ``x.dot``,
    ``from numpy import dot``)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and node.attr in _BLAS_PRODUCTS:
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, a.name) for a in node.names if a.name in _BLAS_PRODUCTS)


def test_no_blas_products():
    """No module sums through a BLAS product: numpy's OpenBLAS may pick its
    kernel from the CPU at run time, so such a product fixes no summation
    order, and a sum that decides a selection at a cut must round the same
    way wherever it runs."""
    sites = [
        f"{path.name}:{line} {what}" for path in MODULES for line, what in _blas_product_sites(_tree(path))
    ]
    assert not sites, f"BLAS products in src/hamsel: {sites}"


_TRANSCENDENTAL_UFUNCS = {
    "log", "exp", "log1p", "expm1", "log2", "log10", "exp2", "power", "float_power",
    "logaddexp", "logaddexp2", "sin", "cos", "tan", "arcsin", "arccos", "arctan",
    "arctan2", "hypot", "sinh", "cosh", "tanh", "arcsinh", "arccosh", "arctanh",
}


def _numpy_transcendental_sites(tree: ast.AST):
    """(line, name) of each numpy transcendental ufunc the module names:
    ``np.log``, ``np.emath.log`` or ``from numpy import log``."""
    aliases = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _TRANSCENDENTAL_UFUNCS:
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in aliases:
                yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            yield from ((node.lineno, a.name) for a in node.names if a.name in _TRANSCENDENTAL_UFUNCS)


def test_no_numpy_transcendental_functions():
    """No module calls numpy's log, exp, power or a trigonometric or
    hyperbolic ufunc: numpy picks their float64 kernels by CPU feature
    (AVX-512 ones among them), so a value that decides a selection at a cut
    could round differently from one machine to the next.  The package
    takes these functions from math, one scalar at a time."""
    sites = [
        f"{path.name}:{line} {name}"
        for path in MODULES
        for line, name in _numpy_transcendental_sites(_tree(path))
    ]
    assert not sites, f"numpy transcendental functions in src/hamsel: {sites}"


def _call_sites(name: str) -> set[tuple[str, str | None]]:
    """(module, enclosing module-level function, None outside one) of each
    call of name in src/hamsel, as a bare name or as an attribute."""
    sites = set()
    for path in MODULES:
        for top in _tree(path).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    sites.add((path.name, getattr(top, "name", None)))
    return sites


def test_one_selection_path():
    """Every rule runs through one path: the adaptive plan is formed and run
    only in resolve_selector, observations are checked only in select_row,
    and cli.py runs a rule on a file only through select_row, so a second
    hand-rolled selection path cannot come back."""
    assert _call_sites("adaptive_plan") | _call_sites("adaptive_into") == {
        ("selectors.py", "resolve_selector")
    }
    assert _call_sites("check_observations") == {("selectors.py", "select_row")}
    assert _call_sites("select_row") >= {("cli.py", "_select_file")}  # the walk sees cli.py
    cli_calls = _call_sites("resolve_selector") | _call_sites("adaptive_selector")
    assert not {site for site in cli_calls if site[0] == "cli.py"}
