"""The layer-kind table: kernel dispatch through module lookups, coverage,
and the one rule per attribute that shape inference and kernels share."""

import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ascpipe import quant, zoo
from ascpipe.nn import LayerSpec, engine, predict
from ascpipe.nn import layers as L
from ascpipe.nn.engine import run_backward, run_forward
from ascpipe.nn.graph import fold_batchnorm
from ascpipe.nn.ops import OPS

from gradcheck import LAYER_CASES

# between them these architectures contain every layer kind
ARCHS = ("small_fcnn", "mobnet", "resnet")


def _kernel(kind: str) -> str:
    return "depthwise" if kind == "depthwise_conv2d" else kind


@pytest.fixture
def calls(monkeypatch):
    """Counts calls to every kernel, wrapped where the engine looks it up."""
    seen = Counter()
    for name in dir(L):
        if name.endswith(("_forward", "_backward")):

            def counted(*args, _fn=getattr(L, name), _name=name):
                seen[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(L, name, counted)
    return seen


# per arch, the dropouts that end the run of replays a layer's input is
# rebuilt from: each one's backward kernel also runs once to rebuild that
# input, for the conv2d layers and the squeeze-excitation gate
REBUILT_DROPOUTS = {"small_fcnn": 5, "mobnet": 0, "resnet": 0}


@pytest.mark.parametrize("arch", ARCHS)
def test_every_layer_reaches_its_kernel_through_the_module(arch, calls):
    cfg = zoo.ArchConfig(arch, width_mult=0.125, n_classes=3, input_shape=(16, 32, 3))
    graph = zoo.build(cfg, seed=0)
    x = np.random.default_rng(0).random((2, 16, 32, 3), dtype=np.float32)

    out, tape = run_forward(graph, x, "train", (0, 0))
    assert calls == Counter(f"{_kernel(s.kind)}_forward" for s in graph.layers)
    calls.clear()
    run_backward(graph, tape, np.ones_like(out))
    assert calls == Counter(f"{_kernel(s.kind)}_backward" for s in graph.layers) + Counter(
        dropout_backward=REBUILT_DROPOUTS[arch]
    )

    qm = quant.quantize_model(graph)
    calls.clear()
    quant.quantized_forward(qm, x)
    # one forward per item, each item reaching every layer's kernel once
    assert calls == Counter(f"{_kernel(s.kind)}_forward" for s in qm.graph.layers for _ in x)

    # float predict walks the same folded graph: no batchnorm kernel runs
    assert any(s.kind == "batchnorm" for s in graph.layers)
    calls.clear()
    predict(graph, x)
    assert calls == Counter(
        f"{_kernel(s.kind)}_forward" for s in graph.layers if s.kind != "batchnorm" for _ in x
    )


def test_the_dispatch_test_covers_every_kind():
    kinds = set()
    for arch in ARCHS:
        cfg = zoo.ArchConfig(arch, width_mult=0.125, n_classes=3, input_shape=(16, 32, 3))
        kinds |= {spec.kind for spec in zoo.build(cfg).layers}
    assert kinds == set(OPS)


def test_every_kind_has_a_gradient_check_case():
    kinds = set()
    for _, case in LAYER_CASES:
        graph, _, _ = case(np.random.default_rng(0), 0)
        kinds |= {spec.kind for spec in graph.layers}
    assert kinds == set(OPS)


@pytest.mark.parametrize("arch", zoo.ARCH_NAMES)
def test_every_layer_runs_to_its_inferred_shape(arch):
    # an odd time extent: a same-padded stride-2 conv rounds its output up,
    # a pool drops the remainder
    cfg = zoo.ArchConfig(arch, width_mult=0.25, n_classes=3, input_shape=(37, 64, 3))
    graph = zoo.build(cfg, seed=0)
    shapes = {}

    def recorded(spec, params, ins, mode, seed):
        out, cache = OPS[spec.kind].forward(spec, params, ins, mode, seed)
        shapes[spec.name] = out.shape[1:]
        return out, cache

    x = np.random.default_rng(0).random((1, 37, 64, 3), dtype=np.float32)
    run_forward(graph, x, "train", (0, 0), recorded)
    assert shapes == {spec.name: graph.shapes[spec.name] for spec in graph.layers}


def test_layer_kernels_import_only_numpy_and_read_no_attribute_value():
    tree = ast.parse(Path(L.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported - {"__future__"} == {"numpy"}
    literals = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert not literals & {"same", "valid", "channel", "freq"}
    # a convolution tap reads only the inputs that exist: no kernel pads a copy
    calls = {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not calls & {"np.pad", "numpy.pad"}


# kind, attributes: the op-table entries with a replay. The maps are 5 x 7,
# so a 2 x 2 pool drops a row and a column and a 1 x 2 pool a column.
REPLAY_CASES = [
    ("batchnorm", {}),
    ("relu", {}),
    ("maxpool", {"pool": (2, 2)}),
    ("maxpool", {"pool": (1, 2)}),
    ("dropout", {"rate": 0.3}),
    ("dropout", {"rate": 0.0}),
]


def test_every_replay_has_a_case():
    assert {kind for kind, op in OPS.items() if op.replay} == {kind for kind, _ in REPLAY_CASES}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize(
    "kind,attrs", REPLAY_CASES, ids=["batchnorm", "relu", "pool2x2", "pool1x2", "drop0.3", "drop0"]
)
def test_each_replay_gives_the_bytes_of_its_forward(kind, attrs, dtype):
    rng = np.random.default_rng(4)
    spec = LayerSpec(kind, kind, ("input",), attrs)
    params = {}
    if kind == "batchnorm":
        params = {
            "gamma": rng.uniform(0.5, 1.5, 3).astype(dtype),
            "beta": rng.uniform(-0.5, 0.5, 3).astype(dtype),
            "running_mean": np.zeros(3, dtype),
            "running_var": np.ones(3, dtype),
        }
    x = (rng.standard_normal((2, 5, 7, 3)) * 2 + 0.5).astype(dtype)
    held = x.copy()
    out, cache = OPS[kind].forward(spec, params, [x], "train", [1, 2])
    # a replay may write into x unless the cache holds it
    kept = isinstance(cache, tuple) and cache[0] is x
    got = OPS[kind].replay(spec, params, cache, x if kept else x.copy())
    assert got.dtype == out.dtype == dtype
    assert np.array_equal(got, out)
    assert np.array_equal(x, held)


def test_the_executor_names_no_layer_kind_but_the_fused_head():
    # the executor looks a layer up in the op table and branches on nothing
    # else; only backward's fused softmax + cross-entropy head names a kind
    tree = ast.parse(Path(engine.__file__).read_text())
    strings = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert strings & OPS.keys() == {"softmax"}


def test_quant_imports_no_kernel_and_defines_no_fold():
    # batchnorm's inference formula lives in nn alone: quant quantizes the
    # graph that nn.graph.fold_batchnorm returns
    tree = ast.parse(Path(quant.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported |= {module} | {f"{module}.{alias.name}" for alias in node.names}
    assert not [name for name in imported if name.endswith("nn.layers")]
    assert "fold_batchnorm" not in {
        node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    }
    assert quant.fold_batchnorm is fold_batchnorm
