"""Source hygiene: no module under src/, tests/ or scripts/ imports a name
it never uses.  A name listed in the module's ``__all__`` counts as used,
so package re-exports stay allowed.  Every public function, class,
method or property of the package is read somewhere in src/ or scripts/
outside its own definition: code that only tests reach lives under tests/.
And every defaulted parameter of a public package function or method is
passed by some call in src/ or scripts/: a default that nothing
overrides is a constant.  Every field of a package dataclass is read as
an attribute in src/, scripts/ or the benchmark harness perfbench/*.py:
a field that nothing reads is carried for nothing.  No function under
src/ defines a nested function that calls itself: such a closure and
its cell form a reference cycle, which keeps what the closure reads
alive until the cyclic garbage collector runs.  No line under src/
is longer than 99 characters.  Every span pattern of a benchmark layer
(perfbench/layers.py) matches a name that the benchmark's tracer wraps:
a layer that matches nothing reads 0.  And every ``module.Name`` or
class name that the README quotes in backticks, or a src/ docstring in
double backticks, names an attribute of the package: a renamed or
deleted name leaves no stale mention behind.  A quoted call
``module.name(args)`` lists the parameter names of that function, less
``self``, with ``*`` and defaults left out of the comparison: a changed
signature leaves no stale call behind.  So does a quoted bare call
``name(args)``: in a src/ docstring, of a function of the docstring's own
module or a method of a class defined there; in a row of the README's
library table, of the row's module ``stokesproj.M``.  A bare name
that names none of those (an argument, a callback) is left alone."""

import ast
import builtins
import collections
import importlib
import importlib.util
import inspect
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(
    path.relative_to(ROOT)
    for folder in ("src", "tests", "scripts")
    for path in (ROOT / folder).rglob("*.py")
)
HARNESS = sorted((ROOT / "perfbench").glob("*.py"))


def _bound_names(node):
    """(name, line) of every name an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    out = []
    for alias in node.names:
        if alias.name == "*":
            continue
        name = alias.asname or alias.name.split(".")[0]
        out.append((name, node.lineno))
    return out


def _exported(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            for elt in getattr(node.value, "elts", ()):
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    out.add(elt.value)
    return out


def unused_imports(source):
    """(line, name) of every imported name that the module never reads."""
    tree = ast.parse(source)
    imported = []
    used = _exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += _bound_names(node)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported if name not in used)


def test_checker_flags_only_unused_names():
    source = (
        "import os\n"
        "import os.path as osp\n"
        "import numpy.linalg\n"
        "from . import a, b as c\n"
        "__all__ = ['a']\n"
        "def f():\n"
        "    import json\n"
        "    return numpy.linalg.norm(osp.sep)\n"
    )
    assert unused_imports(source) == [(1, "os"), (4, "c"), (7, "json")]


def _references(node):
    """How often the subtree reads each name, bare or as an attribute."""
    out = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _definitions(tree):
    """Module-level functions and classes, and the methods (properties
    included) of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef))


def unreferenced_definitions(package_sources, other_sources):
    """Public names defined in ``package_sources`` that no source reads
    outside the name's own definition.  Names match by spelling only:
    ``x.solve()`` counts for every method called ``solve``."""
    trees = [ast.parse(source) for source in package_sources]
    reads = collections.Counter()
    for tree in trees + [ast.parse(source) for source in other_sources]:
        reads += _references(tree)
    return sorted(
        node.name
        for tree in trees
        for node in _definitions(tree)
        if not node.name.startswith("_") and reads[node.name] == _references(node)[node.name]
    )


def test_checker_flags_unreferenced_definitions():
    package = (
        "def used():\n"
        "    return 1\n"
        "def planted(n):\n"
        "    return planted(n - 1) if n else 0\n"
        "def _private():\n"
        "    return used()\n"
        "class Shape:\n"
        "    def area(self):\n"
        "        return _private()\n"
        "    @property\n"
        "    def sides(self):\n"
        "        return 3\n"
    )
    script = "print(Shape().area())\n"
    assert unreferenced_definitions([package], [script]) == ["planted", "sides"]


def test_package_code_has_callers_outside_tests():
    package = [path for path in FILES if path.parts[0] == "src"]
    scripts = [path for path in FILES if path.parts[0] == "scripts"]
    found = set(
        unreferenced_definitions(
            [(ROOT / path).read_text() for path in package],
            [(ROOT / path).read_text() for path in scripts],
        )
    )
    assert not found, f"only tests reach {sorted(found)}"


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def recursive_closures(source):
    """``outer.inner`` of every function ``inner`` of ``source`` that
    calls itself by its bare name, ``outer`` being the function it is
    nested in."""
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, FUNCTIONS):
            continue
        outer = parent[node]
        while outer is not tree and not isinstance(outer, FUNCTIONS):
            outer = parent[outer]
        if outer is not tree and any(
            isinstance(call, ast.Call) and getattr(call.func, "id", None) == node.name
            for call in ast.walk(node)
        ):
            found.append(f"{outer.name}.{node.name}")
    return sorted(found)


def test_checker_flags_recursive_closures():
    source = (
        "def fact(n):\n"
        "    return n * fact(n - 1) if n else 1\n"
        "def outer(nodes):\n"
        "    def split(part):\n"
        "        return split(part[1:]) if part else []\n"
        "    def once(part):\n"
        "        return outer(part)\n"
        "    async def wait(n):\n"
        "        def inner(k):\n"
        "            return inner(k - 1) if k else 0\n"
        "        return await wait(n - 1)\n"
        "    return split(nodes), once\n"
        "class Tree:\n"
        "    def walk(self):\n"
        "        return self.walk()\n"
    )
    assert recursive_closures(source) == ["outer.split", "outer.wait", "wait.inner"]


def test_package_has_no_recursive_closures():
    found = [f"{path}: {name}" for path in FILES if path.parts[0] == "src"
             for name in recursive_closures((ROOT / path).read_text())]
    assert not found, f"nested functions that call themselves: {found}"


def test_package_lines_fit_99_columns():
    # a line count of src/ measures its size only while no line is packed longer
    long = [
        f"{path}:{number} has {len(line)} characters"
        for path in FILES
        if path.parts[0] == "src"
        for number, line in enumerate((ROOT / path).read_text().splitlines(), start=1)
        if len(line) > 99
    ]
    assert not long, "lines over 99 characters: " + ", ".join(long)


def test_no_unused_imports():
    found = [
        f"{path}:{line} imports {name!r}"
        for path in FILES
        for line, name in unused_imports((ROOT / path).read_text())
    ]
    assert not found, "unused imports: " + ", ".join(found)


def _calls(trees):
    """For every called name, bare or as an attribute: the most positional
    arguments of one call and the keywords passed, with ``*args`` and
    ``**kwargs`` counting as every positional and every keyword."""
    positional = collections.defaultdict(int)
    keywords = collections.defaultdict(set)
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in call.args)
            positional[name] = max(positional[name], float("inf") if starred else len(call.args))
            keywords[name] |= {kw.arg or "**" for kw in call.keywords}
    return positional, keywords


def _defaulted(tree):
    """(called name, label, parameter, positional index or None) of every
    defaulted parameter of a public module-level function, or of a public
    method or ``__init__`` of a public class; an ``__init__`` is called by
    its class name, and a method's index skips ``self``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield from _defaulted_args(node, node.name, node.name, skip=0)
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for method in node.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in method.decorator_list)
                if method.name == "__init__":
                    yield from _defaulted_args(method, node.name, node.name, skip=1)
                elif not method.name.startswith("_"):
                    label = f"{node.name}.{method.name}"
                    yield from _defaulted_args(method, method.name, label, skip=0 if static else 1)


def _defaulted_args(func, called, label, skip):
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], start=first):
        yield called, label, arg.arg, index - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield called, label, arg.arg, None


def unset_defaults(package_sources, other_sources):
    """``label(parameter)`` of every defaulted parameter of a public
    package function or method that no call in the sources passes, by
    keyword or by position.  Calls match by spelling only."""
    trees = [ast.parse(source) for source in package_sources]
    positional, keywords = _calls(trees + [ast.parse(source) for source in other_sources])
    return sorted(
        f"{label}({param})"
        for tree in trees
        for called, label, param, index in _defaulted(tree)
        if not (
            param in keywords[called]
            or "**" in keywords[called]
            or (index is not None and positional[called] > index)
        )
    )


# Defaulted parameters that nothing in src/ or scripts/ sets, kept on purpose.
KEPT_DEFAULTS = {}


def test_checker_flags_unset_defaults():
    package = (
        "def solve(a, tol=1e-10, *, maxiter=5, verbose=False):\n"
        "    return a\n"
        "def _helper(x=0):\n"
        "    return x\n"
        "class Grid:\n"
        "    def __init__(self, n, spacing=1.0, origin=0.0):\n"
        "        self.n = n\n"
        "    def refine(self, factor=2, keep=True):\n"
        "        return Grid(self.n * factor)\n"
        "    @staticmethod\n"
        "    def unit(scale=1.0):\n"
        "        return Grid(1, scale)\n"
    )
    script = "solve(1, 1e-8, verbose=True)\nGrid.unit().refine(3)\n"
    assert unset_defaults([package], [script]) == [
        "Grid(origin)",
        "Grid.refine(keep)",
        "Grid.unit(scale)",
        "solve(maxiter)",
    ]
    # star arguments may pass any parameter
    flagged = unset_defaults([package], ["solve(*args, **kwargs)\n"])
    assert not any(name.startswith("solve(") for name in flagged)


def test_package_defaults_are_set_by_some_caller():
    package = [path for path in FILES if path.parts[0] == "src"]
    scripts = [path for path in FILES if path.parts[0] == "scripts"]
    found = set(
        unset_defaults(
            [(ROOT / path).read_text() for path in package],
            [(ROOT / path).read_text() for path in scripts],
        )
    )
    kept = set(KEPT_DEFAULTS)
    assert found == kept, (
        f"no caller sets {sorted(found - kept)}; kept but now set {sorted(kept - found)}"
    )


def _is_dataclass(node):
    for decorator in node.decorator_list:
        func = getattr(decorator, "func", decorator)
        if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
            return True
    return False


def unread_fields(package_sources, other_sources):
    """``Class.field`` of every field of a package dataclass that no
    source reads as an attribute.  Fields match by spelling only:
    ``x.degree`` counts for every field called ``degree``."""
    trees = [ast.parse(source) for source in package_sources]
    reads = {
        node.attr
        for tree in trees + [ast.parse(source) for source in other_sources]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"{node.name}.{item.target.id}"
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        and item.target.id not in reads
    )


# Dataclass fields that nothing in src/, scripts/ or perfbench/ reads, kept on purpose.
KEPT_FIELDS = {}


def test_checker_flags_unread_fields():
    package = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Rule:\n"
        "    degree: int\n"
        "    points: list\n"
        "    weights: list\n"
        "    def total(self):\n"
        "        return sum(self.weights)\n"
        "@dataclass\n"
        "class Report:\n"
        "    steps: int\n"
        "    residual: float = 0.0\n"
        "class Plain:\n"
        "    unread: int = 0\n"
        "def make(degree):\n"
        "    report = Report(steps=degree)\n"
        "    report.residual = 1.0\n"
        "    return Rule(degree, [], [])\n"
    )
    script = "print(make(1).points)\n"
    # keywords, stores and bare names are not reads; a plain class has no fields
    assert unread_fields([package], [script]) == [
        "Report.residual",
        "Report.steps",
        "Rule.degree",
    ]


def test_package_dataclass_fields_are_read():
    package = [ROOT / path for path in FILES if path.parts[0] == "src"]
    readers = [ROOT / path for path in FILES if path.parts[0] == "scripts"] + HARNESS
    found = set(
        unread_fields(
            [path.read_text() for path in package],
            [path.read_text() for path in readers],
        )
    )
    kept = set(KEPT_FIELDS)
    assert found == kept, (
        f"nothing reads {sorted(found - kept)}; kept but now read {sorted(kept - found)}"
    )


def _harness_module(name):
    """``perfbench/<name>.py`` loaded, read-only, as a module of its own."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def unmatched_patterns(groups, span_names, matches):
    """Every pattern of the layer ``groups`` that matches none of
    ``span_names`` under ``matches(name, patterns)``."""
    return sorted(
        pattern
        for patterns in groups.values()
        for pattern in patterns
        if not any(matches(name, (pattern,)) for name in span_names)
    )


# Layer patterns that match no code at the time of writing, kept on
# purpose: only a change to the benchmark may edit perfbench/.
KEPT_STALE_PATTERNS = {
    pattern: "ROADMAP item 1 mends them in a benchmark PR"
    for pattern in (
        "assembly.assemble_pressure_stiffness",
        "assembly.assemble_gradient_load",
        "steady.SteadyOperators.__init__",
        "metrics.SpaceNorms.*",
        "schemes.SchemeOperators.__init__",
    )
}


def test_checker_flags_unmatched_patterns():
    layers = _harness_module("layers")
    groups = {"a": ("mod.f", "mod.Shape.*"), "b": ("mod.gone", "old.Shape.*", "mod.f")}
    names = ["mod.f", "mod.Shape.area", "mod.fg"]
    assert unmatched_patterns(groups, names, layers._matches) == ["mod.gone", "old.Shape.*"]


def test_benchmark_layer_patterns_match_code():
    layers, tracer = _harness_module("layers"), _harness_module("tracer")
    names = {name for _, _, name in tracer._targets()}
    found = set(unmatched_patterns(layers.GROUPS, names, layers._matches))
    kept = set(KEPT_STALE_PATTERNS)
    assert found == kept, (
        f"no code matches {sorted(found - kept)}; kept but not stale {sorted(kept - found)}"
    )


MODULES = {path.stem for path in (ROOT / "src" / "stokesproj").glob("[!_]*.py")}


def _quoted(text, quote):
    """The ``quote``-delimited spans of ``text`` outside fenced code blocks."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    return re.findall(f"{quote}([^`]+?){quote}", text)


def documented_names(text, quote, modules):
    """Every dotted name that opens a ``quote``-delimited span of
    ``text`` outside fenced code blocks (alone or before a call's
    argument list) and starts with one of ``modules`` or with a
    capitalized word, a class name; an optional ``stokesproj.`` prefix
    is dropped."""
    dotted = re.compile(r"(?:stokesproj\.)?([A-Za-z_]\w*(?:\.\w+)*)(?:\(.*)?", re.S)
    names = {m.group(1) for m in map(dotted.fullmatch, _quoted(text, quote)) if m}
    return sorted(name for name in names
                  if name.split(".")[0] in modules and "." in name
                  or re.match(r"[A-Z][a-z]", name))


def _has_path(obj, path):
    """Whether the attributes ``path`` lead from ``obj`` to an object or
    to a dataclass field."""
    for attr in path:
        fields = getattr(obj, "__dataclass_fields__", {})
        if not hasattr(obj, attr) and attr not in fields:
            return False
        obj = getattr(obj, attr, None)
    return True


def _resolves(name):
    """Whether ``name`` is an attribute path of the package module that
    it starts with, or else of some package module or the builtins; a
    dataclass field without a default counts."""
    head, *path = name.split(".")
    if head in MODULES:
        return _has_path(importlib.import_module(f"stokesproj.{head}"), path)
    owners = [importlib.import_module(f"stokesproj.{module}") for module in MODULES]
    return any(_has_path(owner, name.split(".")) for owner in owners + [builtins])


def _listed(args):
    """The names of the arguments ``args`` of a quoted call, in order,
    less ``*``, defaults and ``self``."""
    names = [arg.split("=")[0].strip().lstrip("*") for arg in args.split(",")]
    return [name for name in names if name and name != "self"]


def documented_calls(text, quote, modules):
    """(name, listed) of every ``quote``-delimited span of ``text``
    outside fenced code blocks that is a whole call ``module.name(args)``
    of one of ``modules``: ``listed`` holds the names of its arguments in
    order, less ``*``, defaults and ``self``."""
    call = re.compile(r"(?:stokesproj\.)?((\w+)\.[\w.]+)\((.*)\)", re.S)
    return sorted((m.group(1), _listed(m.group(3)))
                  for m in map(call.fullmatch, _quoted(text, quote))
                  if m and m.group(2) in modules)


def bare_calls(text, quote):
    """(name, listed) of every ``quote``-delimited span of ``text``
    outside fenced code blocks that is a whole call ``name(args)`` of a
    bare name; ``listed`` as for ``documented_calls``."""
    call = re.compile(r"(\w+)\((.*)\)", re.S)
    return sorted((m.group(1), _listed(m.group(2)))
                  for m in map(call.fullmatch, _quoted(text, quote)) if m)


def _signature(obj):
    """The parameter names, less ``self``, of the callable ``obj``."""
    return [p for p in inspect.signature(obj).parameters if p != "self"]


def _parameters(name):
    """The parameter names, less ``self``, of the package callable ``name``."""
    head, *path = name.split(".")
    obj = importlib.import_module(f"stokesproj.{head}")
    for attr in path:
        obj = getattr(obj, attr)
    return _signature(obj)


def miscalled(text, quote):
    """Every quoted package call of ``text`` whose listed names are not
    the parameters of the callable it names."""
    calls = documented_calls(text, quote, MODULES)
    return [f"{name}({', '.join(listed)})" for name, listed in calls
            if _resolves(name) and listed != _parameters(name)]


def _named_in(module, name):
    """What a bare ``name`` names in ``module``: its function of that
    name, or else the methods of that name of the classes it defines."""
    if inspect.isfunction(getattr(module, name, None)):
        return [getattr(module, name)]
    return [getattr(cls, name) for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module.__name__
            and name in vars(cls) and inspect.isroutine(getattr(cls, name))]


def miscalled_bare(text, quote, module):
    """Every quoted bare call of ``text`` that names something in
    ``module`` and whose listed names are the parameters of none of it."""
    found = []
    for name, listed in bare_calls(text, quote):
        named = _named_in(module, name)
        if named and all(listed != _signature(obj) for obj in named):
            found.append(f"{name}({', '.join(listed)})")
    return found


def test_checker_finds_documented_names():
    text = ("`mesh.build_grid` and `stokesproj.schemes.run(runs, case)`, `steady.solve`, "
            "`np.linalg.norm`, `scripts/x.cfg`, `schemes.Gone.attr`, `Gone`, `K_r`, `mesh`\n"
            "```\nstokesproj `mesh.fenced`\n```\n")
    assert documented_names(text, "`", {"mesh", "schemes"}) == [
        "Gone", "mesh.build_grid", "schemes.Gone.attr", "schemes.run"]
    assert documented_names("``steady.solve`` and ``x.y``", "``", {"steady"}) == ["steady.solve"]
    assert _resolves("schemes.SchemeParams.nu") and _resolves("Discretization.momentum")
    assert _resolves("ValueError")
    assert not _resolves("schemes.Gone") and not _resolves("mesh.build_grid.gone")
    assert not _resolves("Gone") and not _resolves("Discretization.gone")


def test_checker_finds_documented_calls():
    text = ("`stokesproj.schemes.run(params, state,\ncase, disc, observe=None)`, "
            "`mesh.build_grid`, `steady.solve(*, tol=1e-10)`, `np.linalg.norm(x)`, `Gone(a)`, "
            "`mesh.f(a`\n"
            "```\n`mesh.fenced(a)`\n```\n")
    assert documented_calls(text, "`", {"mesh", "schemes", "steady"}) == [
        ("schemes.run", ["params", "state", "case", "disc", "observe"]), ("steady.solve", ["tol"])]
    assert _parameters("schemes.run") == [
        "params", "state", "case", "disc", "observe", "energy_ceiling"]
    assert _parameters("assembly.Discretization.momentum") == ["dt", "nu"]
    assert miscalled("`schemes.initialize(init, case, disc, nu, delta, tol)` `mesh.build_grid(n)`",
                     "`") == []
    assert miscalled("`schemes.run(runs, case, disc)` `schemes.Gone(a)`", "`") == [
        "schemes.run(runs, case, disc)"]


def test_checker_finds_bare_calls():
    schemes = importlib.import_module("stokesproj.schemes")
    assembly = importlib.import_module("stokesproj.assembly")
    text = ("`initialize(init, case,\ndisc, nu, delta, tol)`, `run(params, state, case, disc, "
            "observe=None)`, `momentum(dt, nu)`, `mesh.build_grid(n)`, `λ(2λ−1)`, `f(a`\n"
            "```\n`fenced(a)`\n```\n")
    assert bare_calls(text, "`") == [
        ("initialize", ["init", "case", "disc", "nu", "delta", "tol"]),
        ("momentum", ["dt", "nu"]),
        ("run", ["params", "state", "case", "disc", "observe"]),
        ("λ", ["2λ−1"]),
    ]
    # a function of the module, a method of a class it defines (self left
    # out), and names it does not define, which are left alone
    assert miscalled_bare("``initialize(init, case, disc, nu, delta, tol)`` ``check_guard()`` "
                          "``observe(state)`` ``momentum(dt, nu)``", "``", schemes) == []
    assert miscalled_bare("``initialize(params, case, disc)`` ``check_guard(self, dt)``", "``",
                          schemes) == ["check_guard(dt)", "initialize(params, case, disc)"]
    assert miscalled_bare("`momentum(dt, nu)` `momentum(nu, dt)`", "`", assembly) == [
        "momentum(nu, dt)"]


def test_readme_names_exist():
    text = (ROOT / "README.md").read_text()
    names = documented_names(text, "`", MODULES)
    stale = [name for name in names if not _resolves(name)]
    assert names and not stale, f"README.md names {stale}, which do not exist"
    wrong = miscalled(text, "`")
    for name, row in re.findall(r"^\| `stokesproj\.(\w+)` \|(.*)$", text, re.M):
        module = importlib.import_module(f"stokesproj.{name}")
        wrong += [f"{name}: {call}" for call in miscalled_bare(row, "`", module)]
    assert not wrong, f"README.md calls {wrong}, which list other parameters"


def test_docstring_names_exist():
    stale = []
    for path in (p for p in FILES if p.parts[0] == "src"):
        tree = ast.parse((ROOT / path).read_text())
        docstrings = (ast.get_docstring(node) or "" for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)))
        for doc in docstrings:
            stale += [f"{path}: {name}" for name in documented_names(doc, "``", MODULES)
                      if not _resolves(name)]
            stale += [f"{path}: {call}" for call in miscalled(doc, "``")]
            if path.stem in MODULES:
                module = importlib.import_module(f"stokesproj.{path.stem}")
                stale += [f"{path}: {call}" for call in miscalled_bare(doc, "``", module)]
    assert not stale, f"docstrings name {stale}, which do not exist or list other parameters"
