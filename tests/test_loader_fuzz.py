"""Fuzzed inputs to the four file loaders.

Each loader reads a valid file with a few random edits (for a dataset, to
its manifest or to its annotation file). It may load the file or raise its
documented error type, whose message names the file it was given; any
other exception fails the test.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmap.cli import ManifestError, load_run_manifest
from fracmap.model import WeightFormatError, load_model, save_model
from fracmap.pgm import read_pgm, write_pgm
from fracmap.synth import generate_dataset, load_dataset, save_dataset

from conftest import SMALL_CFG, random_cnn

FUZZ = settings(max_examples=50, deadline=None, derandomize=True, database=None)

# Bytes that the text formats give meaning to, plus arbitrary ones.
_chunks = st.one_of(
    st.text(alphabet="0123456789=,x .-#\n[]{}\":abP", min_size=1, max_size=3).map(str.encode),
    st.binary(min_size=1, max_size=3),
)
_edits = st.lists(
    st.tuples(
        st.floats(0.0, 1.0),
        st.sampled_from(("replace", "insert", "delete", "truncate")),
        _chunks,
    ),
    min_size=1,
    max_size=3,
)


def mutate(data: bytes, edits) -> bytes:
    """Apply (relative position, kind, bytes) edits in order."""
    for where, kind, chunk in edits:
        pos = int(where * len(data))
        if kind == "replace":
            data = data[:pos] + chunk + data[pos + len(chunk) :]
        elif kind == "insert":
            data = data[:pos] + chunk + data[pos:]
        elif kind == "delete":
            data = data[:pos] + data[pos + len(chunk) :]
        else:
            data = data[:pos]
    return data


def load_or_raise_naming(loader, path, error):
    try:
        loader(path)
    except error as exc:
        assert str(path) in str(exc), f"{type(exc).__name__} does not name {path}: {exc}"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    save_dataset(generate_dataset(seed=8, n=4, cfg=SMALL_CFG), root / "data")
    save_model(random_cnn(3), root / "model.mwf", meta={"seed": 3})
    write_pgm(root / "image.pgm", np.arange(35, dtype=np.uint8).reshape(5, 7), comment="id=x")
    (root / "empty.txt").write_text("")
    every_key = {
        "seed": 3,
        "dataset": "empty.txt",
        "train": {"epochs": 3, "learning_rate": 0.002, "batch_size": 5},
        "attack": {"epsilon": 0.02, "step_size": 0.006, "iters": 4, "random_start": True},
        "train_attack": {"epsilon": 0.01, "step_size": 0.004, "iters": 3, "random_start": False},
        "occlusion": {"patch": [6, 4], "stride": [3, 2], "baseline_value": 0.25, "per_channel": True},
        "integrated_gradients": {"n_steps": 12, "baseline": "mean"},
        "deeplift": {"reference": "zero"},
        "coverage": {"percentiles": [0, 50, 90], "split": "val"},
    }
    (root / "every_key.json").write_text(json.dumps(every_key))
    return root


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats(-1.0, 300.0) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=4,
)


@FUZZ
@given(
    section=st.sampled_from(
        ["seed", "dataset", "train", "attack", "train_attack", "occlusion",
         "integrated_gradients", "deeplift", "coverage"]
    ),
    key=st.none() | st.sampled_from(["epochs", "random_start", "patch", "baseline", "percentiles", "n_steps"])
    | st.text(max_size=6),
    value=_json_values,
    edits=st.none() | _edits,
)
def test_run_manifest(workdir, section, key, value, edits):
    payload = json.loads((workdir / "every_key.json").read_text())
    if key is None or not isinstance(payload[section], dict):
        payload[section] = value
    else:
        payload[section][key] = value
    data = json.dumps(payload).encode()
    path = workdir / "mutant.json"
    path.write_bytes(data if edits is None else mutate(data, edits))
    load_or_raise_naming(load_run_manifest, path, ManifestError)


@FUZZ
@given(edits=_edits)
def test_weight_file(workdir, edits):
    path = workdir / "mutant.mwf"
    path.write_bytes(mutate((workdir / "model.mwf").read_bytes(), edits))
    load_or_raise_naming(load_model, path, WeightFormatError)


@FUZZ
@given(edits=_edits)
def test_pgm(workdir, edits):
    path = workdir / "mutant.pgm"
    path.write_bytes(mutate((workdir / "image.pgm").read_bytes(), edits))
    load_or_raise_naming(read_pgm, path, ValueError)


@FUZZ
@given(target=st.sampled_from(["manifest", "annotations"]), edits=_edits)
def test_dataset(workdir, target, edits):
    data = workdir / "data"
    manifest = (data / "dataset.txt").read_bytes()
    if target == "manifest":
        manifest = mutate(manifest, edits)
    else:
        (data / "mutant.json").write_bytes(mutate((data / "annotations.json").read_bytes(), edits))
        manifest = manifest.replace(b"annotations=annotations.json", b"annotations=mutant.json")
    (data / "mutant.txt").write_bytes(manifest)
    load_or_raise_naming(load_dataset, data / "mutant.txt", ValueError)
