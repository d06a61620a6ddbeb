"""Damaged input files end in AscError, never in another exception.

Each loader reads a tiny valid file cut at every offset and with one
seeded single-byte flip at every offset. A damaged file may still load
(a flip inside a float payload is undetectable); it must not raise
anything but AscError. Model files whose topology is well-formed but
holds a bad attribute value must fail to load with a GraphError.
"""

import json
import struct

import numpy as np
import pytest

from ascpipe import quant, zoo
from ascpipe.audio import AudioClip, load_wav, save_wav
from ascpipe.cli import main, read_scores, write_scores
from ascpipe.config import load_config
from ascpipe.errors import AscError, DataError, GraphError, read_text
from ascpipe.evaluation import EvalReport, render_report, report_from_json, report_to_json
from ascpipe.featio import read_features, read_scale_stats, write_features, write_scale_stats
from ascpipe.features import FeatureTensor, ScaleStats
from ascpipe.fusion import ClassHierarchy
from ascpipe.manifest import read_manifest
from ascpipe.nn import LayerSpec, ModelGraph, checkpoint, initialize, load_checkpoint, save_checkpoint
from ascpipe.quant import load_quantized, quantize_model, save_quantized


def _model() -> ModelGraph:
    layers = [
        LayerSpec("conv2d", "conv", ("input",), {"filters": 2, "kernel": (3, 3)}),
        LayerSpec("batchnorm", "bn", ("conv",)),
        LayerSpec("relu", "relu", ("bn",)),
        LayerSpec("global_avg_pool", "gap", ("relu",)),
        LayerSpec("dense", "fc", ("gap",), {"units": 3}),
        LayerSpec("softmax", "probs", ("fc",)),
    ]
    return initialize(ModelGraph("tiny", (4, 4, 1), layers), seed=0)


def _wav(path):
    t = np.arange(32) / 8000.0
    save_wav(path, AudioClip(0.5 * np.sin(2 * np.pi * 440.0 * t), 8000))


def _report_json(path):
    report = EvalReport(
        classes=("bus", "tram"), val_loss=0.5, group_confusion={"A": np.array([[1, 1], [0, 1]])}
    )
    path.write_text(report_to_json(report))


def _text(text):
    return lambda path: path.write_text(text)


LOADERS = {
    "checkpoint": (lambda p: save_checkpoint(p, _model()), load_checkpoint),
    "quantized": (lambda p: save_quantized(p, quantize_model(_model())), load_quantized),
    "features": (
        lambda p: write_features(p, FeatureTensor(np.linspace(0, 1, 24).reshape(4, 3, 2))),
        read_features,
    ),
    "wav": (_wav, load_wav),
    "scale_stats": (
        lambda p: write_scale_stats(p, ScaleStats([0.0, -1.5], [1.0, 2.5])),
        read_scale_stats,
    ),
    "manifest": (_text("filename\tscene_label\tsource_label\nx.wav\tbus\ta\n"), read_manifest),
    "scores": (lambda p: write_scores(p, np.array([[0.25, 0.75]]), ("bus", "tram")), read_scores),
    "hierarchy": (_text("bus transportation\npark outdoor\n"), ClassHierarchy.from_file),
    "report": (
        _report_json,
        lambda p: render_report(report_from_json(read_text(p, DataError, "report"))),
    ),
    "config": (
        _text("[run]\nseed = 3\n[augment]\nspeed_range = 0.9, 1.1\n"),
        load_config,
    ),
}


def _damaged(blob: bytes, seed: int):
    for n in range(len(blob)):
        yield f"cut at {n}", blob[:n]
    masks = np.random.default_rng(seed).integers(1, 256, len(blob))
    for pos, mask in enumerate(masks):
        flipped = bytearray(blob)
        flipped[pos] ^= int(mask)
        yield f"byte {pos} ^ {mask:#04x}", bytes(flipped)


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_damaged_files_raise_only_asc_error(kind, tmp_path):
    write, load = LOADERS[kind]
    good = tmp_path / "good"
    write(good)
    load(good)
    bad = tmp_path / "bad"
    leaks = []
    for what, data in _damaged(good.read_bytes(), seed=7):
        bad.write_bytes(data)
        try:
            load(bad)
        except AscError:
            pass
        except Exception as exc:  # noqa: BLE001 - any other exception is the failure
            leaks.append(f"{what}: {exc!r}")
    assert not leaks, f"{len(leaks)} leaks, first: {leaks[:5]}"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda records: [r for r in records if r[0] != "fc/b"], "no record for fc/b"),
        (lambda records: records + records[-1:], "'fc/w' appears twice"),
    ],
    ids=["missing", "duplicated"],
)
@pytest.mark.parametrize("kind", ["checkpoint", "quantized"])
def test_every_parameter_comes_from_exactly_one_record(kind, edit, message, tmp_path, monkeypatch):
    module = {"checkpoint": checkpoint, "quantized": quant}[kind]
    encode = module.encode_container
    # the writer drops or repeats a record; the count it writes stays consistent
    monkeypatch.setattr(module, "encode_container", lambda *args: encode(*args[:3], edit(args[3])))
    write, load = LOADERS[kind]
    write(tmp_path / "model")
    with pytest.raises(DataError, match=message):
        load(tmp_path / "model")


# (layer, attribute, value) edits of a small_fcnn topology, each one a
# value that graph validation must reject
BAD_ATTRS = [
    ("conv1", "stride", [0, 0]),
    ("conv1", "kernel", [3]),
    ("conv1", "filters", 0),
    ("pool2", "pool", [0, 0]),
    ("pool2", "pool", [2, 2.5]),
    ("se", "reduction", 0),
    ("se", "reduction", "x"),
    ("drop5", "rate", "x"),
    ("drop5", "rate", 1.5),
    ("fc", "units", True),
]


def _small_fcnn():
    return zoo.build(zoo.ArchConfig("small_fcnn", 0.25, 3, (16, 32, 3)), seed=0)


def _edit_topology(path, layer, key, value):
    """Rewrite one attribute in the topology JSON of a model container."""
    blob = path.read_bytes()
    (n,) = struct.unpack_from("<I", blob, 8)
    topo = json.loads(blob[12 : 12 + n])
    next(sp for sp in topo["layers"] if sp["name"] == layer)["attrs"][key] = value
    raw = json.dumps(topo, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + n :])


@pytest.mark.parametrize("layer, key, value", BAD_ATTRS, ids=[f"{k}={v}" for _, k, v in BAD_ATTRS])
@pytest.mark.parametrize("kind", ["checkpoint", "quantized"])
def test_bad_attribute_values_fail_closed(kind, layer, key, value, tmp_path):
    path = tmp_path / "model"
    if kind == "checkpoint":
        save_checkpoint(path, _small_fcnn())
    else:
        save_quantized(path, quantize_model(_small_fcnn()))
    _edit_topology(path, layer, key, value)
    with pytest.raises(GraphError, match=f"layer '{layer}': attribute '{key}'"):
        (load_checkpoint if kind == "checkpoint" else load_quantized)(path)


def test_evaluate_rejects_a_bad_dropout_rate(tmp_path, capsys):
    """Loaded, this checkpoint would fail at its first dropout forward."""
    rng = np.random.default_rng(0)
    lines = ["filename\tscene_label\tsource_label"]
    for i, scene in enumerate(("indoor", "outdoor", "transportation")):
        write_features(tmp_path / f"f{i}.feat", FeatureTensor(rng.random((16, 32, 3))))
        lines.append(f"f{i}.feat\t{scene}\ta")
    (tmp_path / "features.tsv").write_text("\n".join(lines) + "\n")
    model = tmp_path / "model.ascm"
    save_checkpoint(model, _small_fcnn())
    write_scale_stats(tmp_path / "model.stats.txt", ScaleStats([0.0] * 3, [1.0] * 3))
    assert main(["evaluate", str(model), "--manifest", str(tmp_path / "features.tsv")]) == 0
    _edit_topology(model, "drop5", "rate", "x")
    capsys.readouterr()
    assert main(["evaluate", str(model), "--manifest", str(tmp_path / "features.tsv")]) == 3
    assert f"data error: {model}: layer 'drop5': attribute 'rate'" in capsys.readouterr().err
