"""Every library definition is reached from `cli.main`, or pinned here with
the reason no command reaches it.

The scan walks the AST of `src/localglobal`.  A definition is a module-level
def, class or assignment, and it defines every name it binds: the names of
a tuple unpacking (`_positive_int, _non_negative_int = ...`) are reached
together, as one statement binds them.  From `cli.main` and the statements
a module runs on import, the scan follows every name a definition loads, in
its own module or through `from .module import name`; a reached class
brings its whole body.  Annotations are not followed.  A definition that is
reached only by a pinned one is pinned too.

Every parameter default of the library is pinned here as well, each with
the reason it stays: a default that no command, the benchmark or CI sets to
a second value is a constant, and one that only tests use is an argument
the tests pass.
"""

import ast
from pathlib import Path

import localglobal

SOURCE = Path(localglobal.__file__).parent

IDENTITY_SUITE = ("the curve identity suite: the benchmark's cubic workload and CI run it, "
                  "`selmer verify` does not yet (ROADMAP item 3)")

UNREACHED = {f"tower.{name}": IDENTITY_SUITE for name in (
    "CurveIdentityReport", "CurvePolynomial", "EPS", "_QUADRIC_SLOTS", "_curve_points",
    "_POINTS_PER_PRIME", "_embed_flat", "_embed_polynomial", "_embedding_data", "_identity_sides",
    "_reduced_product", "_resolvent_parts", "curve_identity_suite", "identity_check_primes",
)}

DEFAULTS = {
    "cli.main(argv)": "the entry point: None reads sys.argv",
    "reichardt_lind.TwistParams.__new__(ell_factorization)":
        "rl verify and the benchmark build twists without a factorization",
    "exact._sqrt_mod_odd_prime(nonresidue)":
        "the oracles' residue walk passes one nonresidue per prime, "
        "pinned by test_residue_zeros_search_one_nonresidue_per_prime",
}


class _Loads(ast.NodeVisitor):
    """The names a statement loads, outside annotations."""

    def __init__(self):
        self.names = set()

    def visit_Name(self, node):
        if not isinstance(node.ctx, ast.Store):
            self.names.add(node.id)

    def visit_arg(self, node):
        pass  # the annotation of a parameter

    def visit_FunctionDef(self, node):
        for child in (*node.decorator_list, *node.args.defaults,
                      *filter(None, node.args.kw_defaults), *node.body):
            self.visit(child)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)


def loads(node) -> set:
    visitor = _Loads()
    visitor.visit(node)
    return visitor.names


def scan(source: Path = SOURCE):
    """(definitions, imports, import-time roots): module -> {name: the
    statement that binds it}, module -> {name: (module, name)} for each
    `from .module import name` anywhere in it, and [(module, statement)]."""
    definitions, imports, roots = {}, {}, []
    for path in sorted(source.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text())
        bound, linked = definitions[module], imports[module] = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                linked.update((alias.asname or alias.name, (node.module, alias.name)) for alias in node.names)
        for statement in tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound[statement.name] = statement
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
                for target in targets:
                    bound.update((n.id, statement) for n in ast.walk(target) if isinstance(n, ast.Name))
            elif not isinstance(statement, (ast.Import, ast.ImportFrom)) and not (
                    isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant)):
                roots.append((module, statement))  # run on import; a docstring aside
    return definitions, imports, roots


def unreached(source: Path = SOURCE) -> set:
    """'module.name' for every definition, dunders aside, that no path from
    `cli.main` or from a module's import-time statements loads."""
    definitions, imports, roots = scan(source)
    todo = [("cli", "main")] + [(module, name) for module, statement in roots for name in loads(statement)]
    seen = set()  # the ids of the definitions reached
    while todo:
        module, name = todo.pop()
        statement = definitions[module].get(name)
        if statement is not None:
            if id(statement) not in seen:
                seen.add(id(statement))
                todo.extend((module, used) for used in loads(statement))
        elif name in imports[module]:
            todo.append(imports[module][name])
    return {f"{module}.{name}" for module, bound in definitions.items()
            for name, statement in bound.items() if id(statement) not in seen and not name.startswith("__")}


def test_every_unreached_definition_is_pinned_with_a_reason():
    assert unreached() == set(UNREACHED)
    assert all(UNREACHED.values())


def test_the_scan_sees_what_it_must(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from .lib import used, Pair\n"
        "first, second = lambda: 1, lambda: 2\n"
        "third = lambda: 3\n"
        "def main() -> Pair:\n"
        "    return used() + first()\n"
    )
    (tmp_path / "lib.py").write_text(
        "import math\n"
        "class Pair:\n"
        "    pass\n"
        "def used():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return TABLE[0]\n"
        "TABLE = [math.pi]\n"
        "print(on_import())\n"
        "def on_import():\n"
        "    return 1\n"
        "def dead():\n"
        "    return only_dead()\n"
        "def only_dead():\n"
        "    return 0\n"
    )
    # `Pair` is loaded only by an annotation, `third` by nothing; `second`,
    # bound with `first` by one tuple unpacking, `TABLE` and the
    # `on_import` that a statement calls on import are reached
    assert unreached(tmp_path) == {"cli.third", "lib.Pair", "lib.dead", "lib.only_dead"}


def parameter_defaults(source: Path = SOURCE) -> set:
    """'module.qualname(parameter)' for every parameter with a default, of a
    def or a lambda at any depth, and 'module.record(Name)' for every
    `record` call that gives its fields defaults."""
    found = set()

    def visit(node, module: str, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):] + [
                    arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
                found.update(f"{module}.{name}({arg.arg})" for arg in defaulted)
                visit(child, module, name + ".")
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "record"
                    and (len(child.args) > 2 or any(k.arg == "defaults" for k in child.keywords))):
                found.add(f"{module}.record({ast.literal_eval(child.args[0])})")
            visit(child, module, prefix + child.name + "." if isinstance(child, ast.ClassDef) else prefix)

    for path in sorted(source.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return found


def test_every_parameter_default_is_pinned_with_a_reason():
    assert parameter_defaults() == set(DEFAULTS)
    assert len(DEFAULTS) == 3 and all(DEFAULTS.values())


def test_the_default_scan_sees_what_it_must(tmp_path):
    (tmp_path / "lib.py").write_text(
        "from .exact import record\n"
        "def plain(a, b=1, *, c, d=2):\n"
        "    def inner(e=3):\n"
        "        return e\n"
        "    return inner\n"
        "class Point(record('Point', 'x y', defaults=(0,))):\n"
        "    def __new__(cls, x, y=0):\n"
        "        return (lambda f=x: f)()\n"
        "Pair = record('Pair', 'u v', (None,))\n"
        "Bare = record('Bare', 'w')\n"
    )
    assert parameter_defaults(tmp_path) == {
        "lib.plain(b)", "lib.plain(d)", "lib.plain.inner(e)", "lib.record(Point)",
        "lib.Point.__new__(y)", "lib.Point.__new__.<lambda>(f)", "lib.record(Pair)",
    }
