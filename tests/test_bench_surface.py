"""The names the benchmark reads from msimg exist.

bench/*.py reach the package through module attributes and imports
(`from msimg.trajectory import Direction, Sampled`,
`forward.far_field_line_closed_form`, ...).  A deletion in src that breaks
one of them would otherwise show only when the benchmark runs.  The files
are parsed, not imported: every `import msimg...`, every name of a
`from msimg... import`, every attribute chain on a name bound that way and
every `getattr(name, "constant")` must resolve, and so must the names the
benchmark looks up from its string tables.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
FILES = sorted(p.name for p in BENCH.glob("*.py"))


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"), name)


def _bindings(tree: ast.Module) -> dict:
    """Local name -> the msimg object it is bound to by an import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "msimg":
                    mod = importlib.import_module(a.name)
                    if a.asname:
                        bound[a.asname] = mod
                    else:
                        bound["msimg"] = importlib.import_module("msimg")
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "msimg"):
            for a in node.names:
                bound[a.asname or a.name] = _from_import(node.module, a.name)
    return bound


def _from_import(module: str, name: str):
    """What `from module import name` binds: an attribute or a submodule."""
    mod = importlib.import_module(module)
    if not hasattr(mod, name):
        try:
            importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            raise AssertionError(
                f"from {module} import {name}: no such name") from None
    return getattr(mod, name)


def _chain(node: ast.Attribute):
    """(root name, [attr, ...]) of `root.a.b`, or None for other bases."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return (node.id, attrs[::-1]) if isinstance(node, ast.Name) else None


def _tuple(tree: ast.Module, name: str) -> tuple:
    """The literal value of the module-level assignment `name = (...)`."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no module-level {name}")


@pytest.mark.parametrize("name", FILES)
def test_bench_names_exist_in_msimg(name):
    tree = _tree(name)
    bound = _bindings(tree)
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = _chain(node)
            if chain and chain[0] in bound:
                obj, path = bound[chain[0]], chain[0]
                for attr in chain[1]:
                    path += f".{attr}"
                    if not hasattr(obj, attr):
                        missing.append(path)
                        break
                    obj = getattr(obj, attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[0], ast.Name)
              and node.args[0].id in bound
              and isinstance(node.args[1], ast.Constant)):
            if not hasattr(bound[node.args[0].id], node.args[1].value):
                missing.append(f"{node.args[0].id}.{node.args[1].value}")
    assert not missing, f"bench/{name} uses missing msimg names: {missing}"


def test_bench_string_tables_name_msimg_functions():
    # spans.py wraps msimg.<layer> for each LAYERS entry and cli.<name> for
    # each CLI_NAMES entry; workloads.py calls trajectory.<op> or
    # indicator.<op> for each QUERY_OPS entry
    spans, workloads = _tree("spans.py"), _tree("workloads.py")
    for layer in _tuple(spans, "LAYERS"):
        importlib.import_module(f"msimg.{layer}")
    cli = importlib.import_module("msimg.cli")
    for name in _tuple(spans, "CLI_NAMES"):
        assert hasattr(cli, name), f"msimg.cli.{name}"
    mods = [importlib.import_module(f"msimg.{m}")
            for m in ("trajectory", "indicator")]
    for op in _tuple(workloads, "QUERY_OPS"):
        assert any(hasattr(mod, op) for mod in mods), op
