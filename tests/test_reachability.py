"""Every public function, class and method of ``ascpipe`` has a consumer.

A consumer is a reference by name: a bare name or an attribute in
``src/ascpipe`` outside the definition itself, in ``perfbench/*.py`` or in
``tests/test_acceptance.py``. The benchmark wraps functions it looks up by
string, so its string constants count too. Re-exports in ``__init__.py``
and the unit tests do not count: code that only they reach produces no
result of the pipeline, so it is deleted or given a command that calls it.
Names matched by name alone collide with unrelated objects, so attribute
uses of the names in ``COLLISIONS`` count only inside ``src/ascpipe``.

The package's ``__init__.py`` re-exports nothing, so no fixed import
order hides a cycle: the modules' import-time relative imports must form
none.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ascpipe"
ACCEPTANCE = (ROOT / "tests" / "test_acceptance.py",)
BENCH = tuple(sorted((ROOT / "perfbench").glob("*.py")))

# attribute names common on objects outside the package: a regex match's
# ``m.group(1)`` in the benchmark is no use of a package method ``group``
COLLISIONS = frozenset({"group"})

# public definitions that only the unit tests may consume: none, since the
# tests compute what the old inspection helpers returned inline
ALLOWED: set[str] = set()


def _public(nodes):
    return [
        n for n in nodes
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")
    ]


def _definitions(package=PACKAGE):
    """(qualified name, path, node) of every public top-level function or
    class and every public method of a public class."""
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        for node in _public(ast.parse(path.read_text()).body):
            yield f"{module}.{node.name}", path, node
            if isinstance(node, ast.ClassDef):
                for item in _public(node.body):
                    if isinstance(item, ast.FunctionDef):
                        yield f"{module}.{node.name}.{item.name}", path, item


def _references(path, strings=False, skip_attrs=frozenset()):
    """(line, name) of every name and attribute used in a file, except the
    attributes in ``skip_attrs``; with ``strings``, also every identifier
    inside a string constant."""
    refs = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            refs.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr not in skip_attrs:
            refs.append((node.lineno, node.attr))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs += [(node.lineno, word) for word in re.findall(r"\w+", node.value)]
    return refs


def unreachable(package=PACKAGE, acceptance=ACCEPTANCE, bench=BENCH) -> list[str]:
    """Public definitions under ``package`` that nothing references from
    the package itself, the ``acceptance`` test files or the ``bench``
    scripts (whose string constants count too)."""
    by_file = {
        path: _references(path)
        for path in package.rglob("*.py")
        if path.name != "__init__.py"
    }
    outside = set()
    for path in acceptance + bench:
        refs = _references(path, strings=path in bench, skip_attrs=COLLISIONS)
        outside |= {name for _, name in refs}
    dead = []
    for qualname, home, node in _definitions(package):
        name = node.name
        used = name in outside or any(
            ref == name and (path != home or not node.lineno <= line <= node.end_lineno)
            for path, refs in by_file.items()
            for line, ref in refs
        )
        if not used:
            dead.append(qualname)
    return dead


def test_every_public_definition_has_a_consumer():
    dead = [name for name in unreachable() if name not in ALLOWED]
    assert not dead, f"public code with no consumer outside the unit tests: {dead}"


def test_allowed_helpers_still_exist():
    assert ALLOWED <= {qualname for qualname, _, _ in _definitions()}


def test_collision_names_count_only_inside_the_package(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "fusion.py").write_text(
        "class Hierarchy:\n    def group(self):\n        return 1\n\n\nHierarchy()\n"
    )
    bench = tmp_path / "workloads.py"
    bench.write_text("import re\n\nprint(re.match('(a)', 'a').group(1))\n")
    assert unreachable(package, (), (bench,)) == ["fusion.Hierarchy.group"]
    (package / "cli.py").write_text("from .fusion import Hierarchy\n\nHierarchy().group()\n")
    assert unreachable(package, (), (bench,)) == []


def _module_imports(package=PACKAGE):
    """Module name -> the package modules its import-time code imports by
    relative import; imports inside functions run later and do not count.
    ``from . import sub`` inside a package needs only the submodule ``sub``:
    the package itself is already being imported."""
    modules = {}
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        modules[name] = (path, name if parts[-1] == "__init__" else name.rpartition(".")[0])
    graph = {}
    for name, (path, here) in modules.items():
        deps, todo = set(), list(ast.parse(path.read_text()).body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.ImportFrom) and node.level:
                base = here.rsplit(".", node.level - 1)[0]
                target = f"{base}.{node.module}" if node.module else base
                subs = {f"{target}.{a.name}" for a in node.names} & modules.keys()
                deps |= subs
                if len(subs) < len(node.names) or not f"{name}.".startswith(f"{target}."):
                    deps.add(target)
            todo.extend(ast.iter_child_nodes(node))
        graph[name] = deps & modules.keys()
    return graph


def _cycle(graph):
    """One import cycle as a list of modules, or None."""
    state = {}

    def visit(node, path):
        state[node] = "open"
        for dep in sorted(graph[node]):
            if state.get(dep) == "open":
                return path[path.index(dep):] + [dep]
            if dep not in state and (found := visit(dep, path + [dep])):
                return found
        state[node] = "done"
        return None

    return next(filter(None, (visit(n, [n]) for n in sorted(graph) if n not in state)), None)


def test_the_package_has_no_import_cycle():
    # nothing fixes the order the modules are first imported in, so each
    # must import on its own
    graph = _module_imports()
    assert "ascpipe.nn.engine" in graph["ascpipe.nn.train"]
    assert _cycle(graph) is None, f"import cycle: {' -> '.join(_cycle(graph))}"


def test_an_import_cycle_is_found(tmp_path):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "a.py").write_text("from .sub import b\n\n\ndef f():\n    from . import c\n")
    (package / "c.py").write_text("from .a import f\n")
    (package / "sub" / "__init__.py").write_text("")
    (package / "sub" / "b.py").write_text("if True:\n    from ..a import f\n")
    assert _cycle(_module_imports(package)) == ["pkg.a", "pkg.sub.b", "pkg.a"]
    (package / "sub" / "b.py").write_text("from . import d\n")
    (package / "sub" / "d.py").write_text("")
    (package / "sub" / "__init__.py").write_text("from .b import d\n")
    assert _cycle(_module_imports(package)) is None
