"""The package's modules import one another without a cycle.

Read from the source with ``ast``, so imports inside functions count too: a
function-level import is how a cycle is usually hidden.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "temcodec"


def internal_imports(path, modules):
    """Names in ``modules`` that the source file ``path`` imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "temcodec":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module.split(".")[0] != "temcodec":
                continue
            parts = (node.module or "").split(".")[1 if node.level == 0 else 0:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # "from . import x": x is a module, or a name of the package's __init__
                found.update(a.name if a.name in modules else "__init__" for a in node.names)
    return found & modules


def import_graph():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    return {m: internal_imports(PACKAGE / f"{m}.py", modules) - {m} for m in sorted(modules)}


def find_cycle(graph):
    """One import cycle as a list of modules (first repeated at the end), or ``None``."""
    state = {}

    def visit(module, path):
        state[module] = "open"
        for dep in sorted(graph[module]):
            if state.get(dep) == "open":
                return path[path.index(dep):] + [dep]
            if dep not in state:
                cycle = visit(dep, path + [dep])
                if cycle:
                    return cycle
        state[module] = "done"
        return None

    for module in graph:
        if module not in state:
            cycle = visit(module, [module])
            if cycle:
                return cycle
    return None


def test_graph_sees_the_known_imports():
    graph = import_graph()
    assert set(graph) >= {"__init__", "signals", "tem", "pns", "recon", "experiment", "cli"}
    assert {"signals", "tem", "pns", "recon", "experiment"} <= graph["__init__"]
    assert {"pns", "recon", "tem", "signals"} <= graph["experiment"]
    assert graph["pns"] == {"recon", "signals"}
    assert graph["signals"] == set()


def test_finds_a_cycle_when_there_is_one():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) is None


def test_internal_imports_form_no_cycle():
    cycle = find_cycle(import_graph())
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


def test_function_level_imports_count(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("def f():\n    from .recon import evaluate_model\n    from . import tem\n")
    assert internal_imports(source, {"recon", "tem", "pns"}) == {"recon", "tem"}
