"""Every public function, class and method of ``ascpipe`` has a consumer.

A consumer is a reference by name: a bare name or an attribute in
``src/ascpipe`` outside the definition itself, in ``perfbench/*.py`` or in
``tests/test_acceptance.py``. The benchmark wraps functions it looks up by
string, so its string constants count too. Re-exports in ``__init__.py``
and the unit tests do not count: code that only they reach produces no
result of the pipeline, so it is deleted or given a command that calls it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ascpipe"

# inspection helpers the unit tests use to look into a graph or a manifest,
# and the int8 round-trip formula the quantization tests check against
ALLOWED = {
    "nn.graph.ModelGraph.output_shape",
    "nn.graph.ModelGraph.param_count",
    "nn.graph.clone_params",
    "manifest.DatasetManifest.source_labels",
    "quant.QuantizedTensor.dequantize",
}


def _public(nodes):
    return [
        n for n in nodes
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")
    ]


def _definitions():
    """(qualified name, path, node) of every public top-level function or
    class and every public method of a public class."""
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for node in _public(ast.parse(path.read_text()).body):
            yield f"{module}.{node.name}", path, node
            if isinstance(node, ast.ClassDef):
                for item in _public(node.body):
                    if isinstance(item, ast.FunctionDef):
                        yield f"{module}.{node.name}.{item.name}", path, item


def _references(path, strings=False):
    """(line, name) of every name and attribute used in a file; with
    ``strings``, also every identifier inside a string constant."""
    refs = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            refs.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            refs.append((node.lineno, node.attr))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs += [(node.lineno, word) for word in re.findall(r"\w+", node.value)]
    return refs


def unreachable() -> list[str]:
    by_file = {
        path: _references(path)
        for path in PACKAGE.rglob("*.py")
        if path.name != "__init__.py"
    }
    outside = {name for _, name in _references(ROOT / "tests" / "test_acceptance.py")}
    for path in (ROOT / "perfbench").glob("*.py"):
        outside |= {name for _, name in _references(path, strings=True)}
    dead = []
    for qualname, home, node in _definitions():
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
