"""Start-up hygiene: a command loads only the layers it runs, and every
public library name has a consumer.

Each start-up case runs in a fresh interpreter, since this test process has
long since imported numpy and scipy.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import octagap

_ENV = dict(os.environ, PYTHONPATH=str(Path(octagap.__file__).resolve().parents[1]))


def _fresh_run(statements: str) -> tuple[int, set[str]]:
    """Exit code (the value of ``code``) and sys.modules after the statements."""
    script = f"import sys\ncode = 0\n{statements}\nprint(*sys.modules)\nsys.exit(code)\n"
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_ENV, timeout=120
    )
    assert result.stdout, result.stderr
    return result.returncode, set(result.stdout.splitlines()[-1].split())


@pytest.mark.parametrize(
    "statements, absent",
    [
        ("import octagap.cli", {"numpy", "scipy"}),
        ("import octagap.geometry", {"scipy"}),
        ("import octagap.spectral", {"scipy"}),
        ("import octagap.covers", {"scipy", "numpy.ma"}),
    ],
    ids=["cli", "geometry", "spectral", "covers"],
)
def test_import_leaves_heavy_modules_out(statements, absent):
    code, modules = _fresh_run(statements)
    assert code == 0
    assert not absent & modules


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["verify-group"], {"numpy", "numpy.polynomial", "scipy"}),
        (
            ["scattering", "--oracle-radius", "20", "--tolerance", "0.01"],
            {"scipy", "numpy.polynomial"},
        ),
        (
            ["delta", "--group", "inf", "--word-length", "6", "--window", "1,4"],
            {"scipy", "numpy.ma", "numpy.polynomial", "octagap.covers", "octagap.spectral"},
        ),
        (
            ["cover", "--n", "3", "--seed", "1"],
            {"scipy", "numpy.ma", "numpy.polynomial", "octagap.geometry", "octagap.spectral"},
        ),
        (
            ["cover", "--n", "3", "--walk-steps", "2", "--seed", "1"],
            {"scipy", "numpy.ma", "numpy.polynomial", "octagap.geometry", "octagap.spectral"},
        ),
        (
            ["bounds-and-budgets", "--seed", "3", "--horoball-samples", "500"],
            {"scipy", "numpy.ma", "numpy.polynomial", "octagap.covers"},
        ),
    ],
    ids=["verify-group", "scattering", "delta", "cover", "cover-walk", "bounds-and-budgets"],
)
def test_command_loads_only_its_layers(argv, absent):
    code, modules = _fresh_run(f"from octagap.cli import main\ncode = main({argv!r})")
    assert code == 0
    assert not absent & modules


def test_library_integrals_run_on_numpy_alone():
    """Every public spectral function and cap_volume, called once, load no scipy."""
    calls = {
        "riemann_zeta": "(3.0)",
        "dirichlet_beta": "(2.0)",
        "dedekind_zeta_qi": "(2.0)",
        "gaussian_lattice_zeta": "(2.0)",
        "scattering_coefficient": "(2.5)",
        "scattering_lattice_sum": "(2.5, 1, 20.0)",
        "scattering_oracle_value": "(2.5, 1, 20.0)",
        "scattering_pole_scan": "(1)",
        "selberg_h": "(2.0, 0.5)",
        "selberg_h_quadrature": "(2.0, 0.5)",
        "cusp_decay_ratio_zeroth": "(0.5)",
        "flattening_budget": "([(1.0, 1.0, 1.0)], 4.0, 0.4, 0.8, 0.01)",
    }
    statements = "\n".join(
        [
            "import inspect",
            "from octagap import geometry, spectral",
            "geometry.cap_volume(2.0, 1.0)",
            *(f"spectral.{name}{args}" for name, args in calls.items()),
            "public = {name for name, f in inspect.getmembers(spectral, inspect.isfunction)",
            "          if f.__module__ == spectral.__name__ and not name.startswith('_')}",
            f"code = int(public != {set(calls)!r})",
        ]
    )
    code, modules = _fresh_run(statements)
    assert code == 0, "the calls above must cover every public spectral function"
    assert "scipy" not in modules


_LIBRARY = Path(octagap.__file__).resolve().parent
_README = Path(__file__).resolve().parents[1] / "README.md"


def _library_names() -> tuple[set[str], set[str]]:
    """The public module-level functions and classes of the library, as
    ``module.name``, with the public methods of the public classes, as
    ``module.Class.method``, and every definition the five commands reach.

    An AST walk from each definition in ``cli.py`` and from the statements
    each module runs at import.  A bare name reaches its own module's
    definition or the one it imports from the package; ``module.attr`` on
    an imported package module reaches that module's definition; any other
    ``.attr`` reaches every method of that name, since the walk does not
    know the object's type.  A class reaches what its body outside its
    methods names (bases, decorators, field defaults) and its dunder
    methods, which run without being named.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in _LIBRARY.glob("*.py")}
    nodes, methods, imports = {}, {}, {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                nodes[f"{module}.{node.name}"] = node
                for sub in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(sub, ast.FunctionDef):
                        nodes[f"{module}.{node.name}.{sub.name}"] = sub
                        methods.setdefault(sub.name, []).append(f"{module}.{node.name}.{sub.name}")
        imports[module] = {
            alias.asname or alias.name: f"{node.module}.{alias.name}" if node.module else alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }

    def reached_from(module, roots):
        out = set()
        for n in (n for root in roots for n in ast.walk(root)):
            if isinstance(n, ast.Name):
                out |= {f"{module}.{n.id}", imports[module].get(n.id, "")} & nodes.keys()
            elif isinstance(n, ast.Attribute):
                owner = imports[module].get(getattr(n.value, "id", None))
                target = f"{owner}.{n.attr}"
                if owner in trees:
                    out |= {target} & nodes.keys()
                else:
                    out.update(methods.get(n.attr, ()))
        return out

    def edges(name):
        module, node = name.split(".")[0], nodes[name]
        if isinstance(node, ast.FunctionDef):
            return reached_from(module, [node])
        body = [n for n in node.body if not isinstance(n, ast.FunctionDef)]
        dunders = {
            f"{name}.{n.name}"
            for n in node.body
            if isinstance(n, ast.FunctionDef) and n.name.startswith("__")
        }
        return reached_from(module, body + node.bases + node.decorator_list) | dunders

    defs = (ast.FunctionDef, ast.ClassDef)
    todo = {name for name in nodes if name.startswith("cli.")}
    for module, tree in trees.items():
        todo |= reached_from(module, [n for n in tree.body if not isinstance(n, defs)])
    reached = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        todo |= edges(name) - reached
    public = {name for name in nodes if re.fullmatch(r"\w+(\.[^_]\w*){1,2}", name)}
    return public, reached


def _readme_consumers() -> dict[str, tuple[str, str]]:
    """The README's table of names no command reaches: label and consumer by name."""
    rows = re.findall(r"^\| `([\w.]+)` \| (\w+) \| (.+?) \|$", _README.read_text(), re.M)
    return {name: (label, consumer) for name, label, consumer in rows}


def test_every_public_name_is_reached_by_a_command_or_listed_with_its_consumer():
    """A public function, class or method that no command reaches stays only
    as the twin of a reached function, named in the README table, or as the
    holder of an acceptance criterion; the table lists nothing else."""
    public, reached = _library_names()
    listed = _readme_consumers()
    assert sorted(public - reached) == sorted(listed)
    acceptance = (Path(__file__).parent / "test_acceptance.py").read_text()
    criteria = set(re.findall(r"^def test_criterion_(\d\d)_", acceptance, re.M))
    for name, (label, consumer) in listed.items():
        if label == "twin":
            checked = re.findall(r"`([\w.]+)`", consumer)
            assert checked and reached.issuperset(checked), (name, consumer)
        else:
            assert label == "criterion", (name, label)
            assert consumer[:2] in criteria, (name, consumer)


def _passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    """Whether the call passes the parameter: by keyword, at its position, or
    possibly through ``*args`` or ``**kwargs``."""
    return (
        any(keyword.arg in (None, parameter) for keyword in call.keywords)
        or any(isinstance(arg, ast.Starred) for arg in call.args)
        or (position is not None and len(call.args) > position)
    )


def _library_and_acceptance() -> tuple[dict[str, ast.Module], ast.Module]:
    """The parsed library modules, by name, and the parsed acceptance tests."""
    trees = {path.stem: ast.parse(path.read_text()) for path in _LIBRARY.glob("*.py")}
    return trees, ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())


def _unpassed_defaults() -> list[str]:
    """``module.function(parameter)`` for each defaulted parameter of a public
    module-level library function that no call passes.  The calls counted
    are those in the library and in ``test_acceptance.py``, matched by the
    called name (``f(...)`` or ``anything.f(...)``).  README twins and
    ``cli.main`` are left out."""
    trees, acceptance = _library_and_acceptance()
    calls: dict[str, list[ast.Call]] = {}
    for node in (n for tree in [*trees.values(), acceptance] for n in ast.walk(tree)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            calls.setdefault(name, []).append(node)
    exempt = {name for name, (label, _) in _readme_consumers().items() if label == "twin"}
    exempt.add("cli.main")
    unpassed = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            if f"{module}.{node.name}" in exempt:
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults) :]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            for parameter in defaulted:
                position = positional.index(parameter) if parameter in positional else None
                if not any(_passes(c, parameter, position) for c in calls.get(node.name, ())):
                    unpassed.append(f"{module}.{node.name}({parameter})")
    return sorted(unpassed)


def test_every_defaulted_parameter_is_passed_by_a_command_or_a_criterion():
    """A default that no command and no acceptance criterion overrides is a
    setting only the unit tests turn: it is a constant, and is written as one."""
    assert _unpassed_defaults() == []


def _unread_fields() -> list[str]:
    """``module.Class.field`` for each annotated field of a public library
    class that no attribute load names (``anything.field``), in the library
    or in ``test_acceptance.py``."""
    trees, acceptance = _library_and_acceptance()
    loaded = {
        node.attr
        for tree in [*trees.values(), acceptance]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"{module}.{node.name}.{field.target.id}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for field in node.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        and field.target.id not in loaded
    )


def test_every_record_field_is_read_by_the_library_or_a_criterion():
    """A field that only the unit tests read is a value computed and stored
    for nobody: it is deleted, not kept."""
    assert _unread_fields() == []
