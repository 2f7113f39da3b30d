"""CNN model container, transfer-learning helpers, and the MWF1 weight format.

A ``Model`` is an immutable ordered stack of layer descriptors plus named
parameter arrays and per-parameter trainability flags. Shape compatibility
between consecutive layers is checked at construction, and the final layer
must be a dense head whose width matches the class names.

Weight files are self-describing and bit-exact:

    bytes 0..3    magic "MWF1"
    bytes 4..7    manifest length, unsigned 32-bit little-endian
    manifest      UTF-8 key/value text (one ``key=value`` per line) holding
                  the input shape, class names, layer descriptors in order
                  (each layer class lists its own fields, ``file_fields``),
                  and one ``param.N`` line per tensor with its shape, byte
                  offset, and trainable flag; ``meta.*`` lines pass through
    blob          little-endian IEEE-754 float32 values, row-major per
                  tensor, tiled exactly by the manifest offsets

Parameters live in memory as float64 and are narrowed to float32 only on
disk; that round-trip is the single sanctioned precision loss.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .atomic import atomic_open
from .layers import (
    LAYER_KINDS,
    Conv2d,
    Dense,
    Flatten,
    LayerShapeError,
    MaxPool2,
    ReLU,
    Standardize,
)

__all__ = [
    "Model",
    "ModelError",
    "WeightFormatError",
    "tiny_cnn",
    "replace_head",
    "save_model",
    "load_model",
]

MAGIC = b"MWF1"
_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")

# tiny_cnn's conv stage widths and its fixed per-channel input standardization
TINY_CONV_CHANNELS = (8, 16, 16)
STDZ_MEAN = 0.5
STDZ_STD = 0.25


class ModelError(ValueError):
    """Raised for structurally invalid models."""


class WeightFormatError(ValueError):
    """Raised when a weight file cannot be decoded."""


def _untrainable(layers):
    """The names of the parameters that ``layers`` declare untrainable: a
    Standardize layer's backward returns no parameter gradients."""
    return {pname for layer in layers for pname, _, can_train in layer.param_specs() if not can_train}


class Model:
    """An immutable sequential CNN with named parameters.

    ``params`` maps ``<layer>.<param>`` to read-only float64 arrays and
    ``trainable`` carries one flag per parameter name. Operations that
    "modify" a model (head replacement, training) return new
    instances; instances are safe to share across threads.
    """

    __slots__ = ("layers", "params", "trainable", "input_shape", "class_names")

    def __init__(self, layers, params, trainable, input_shape, class_names):
        layers = tuple(layers)
        input_shape = tuple(int(d) for d in input_shape)
        class_names = tuple(str(c) for c in class_names)
        if not layers:
            raise ModelError("model needs at least one layer")
        if len(input_shape) != 3:
            raise ModelError(f"input shape must be channels x height x width, got {input_shape}")
        for name in class_names:
            if not name or any(ch in name for ch in ",=\n"):
                raise ModelError(f"invalid class name {name!r}")

        shape = input_shape
        for layer in layers:
            if not _NAME_RE.match(layer.name):
                raise ModelError(f"invalid layer name {layer.name!r}")
            try:
                shape = layer.out_shape(shape)
            except LayerShapeError as exc:
                raise ModelError(str(exc)) from None

        head = layers[-1]
        if not isinstance(head, Dense):
            raise ModelError("the final layer must be a dense head")
        if len(class_names) != head.out_features:
            raise ModelError(
                f"{len(class_names)} class names do not match head width {head.out_features}"
            )

        expected = {}
        for layer in layers:
            for pname, pshape, dflt in layer.param_specs():
                if pname in expected:
                    raise ModelError(f"duplicate parameter name {pname!r}")
                expected[pname] = pshape, dflt
        if set(params) != set(expected):
            missing = set(expected) - set(params)
            extra = set(params) - set(expected)
            raise ModelError(f"parameter set mismatch: missing={sorted(missing)} extra={sorted(extra)}")

        frozen = {}
        for pname, (pshape, _) in expected.items():
            arr = np.asarray(params[pname], dtype=np.float64)
            if arr.shape != tuple(pshape):
                raise ModelError(f"parameter {pname!r} has shape {arr.shape}, expected {pshape}")
            if not np.all(np.isfinite(arr)):
                raise ModelError(f"parameter {pname!r} contains non-finite values")
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            frozen[pname] = arr

        flags = {pname: bool(trainable.get(pname, dflt)) for pname, (_, dflt) in expected.items()}
        for pname in _untrainable(layers):
            if flags[pname]:
                raise ModelError(f"parameter {pname!r} cannot be trainable: its layer has no gradient for it")

        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "params", frozen)
        object.__setattr__(self, "trainable", flags)
        object.__setattr__(self, "input_shape", input_shape)
        object.__setattr__(self, "class_names", class_names)

    def __setattr__(self, name, value):
        raise AttributeError("Model is immutable")

    @property
    def head(self) -> Dense:
        return self.layers[-1]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def param_order(self):
        """Parameter names in layer order (the on-disk blob order)."""
        return tuple(n for layer in self.layers for n in layer.param_names())

    def check_input_shape(self, shape) -> None:
        if tuple(shape) != self.input_shape:
            raise ModelError(
                f"input shape {tuple(shape)} does not match layer {self.layers[0].name!r} "
                f"expectation {self.input_shape}"
            )

    def check_class(self, c: int) -> None:
        if not 0 <= c < self.num_classes:
            raise ValueError(f"class index {c} out of range for {self.num_classes} classes")

    def check_classes(self, names) -> None:
        """Reject data whose class names are not the model's, in order."""
        if tuple(names) != self.class_names:
            raise ModelError(f"model classes {self.class_names} do not match the data's {tuple(names)}")

    def with_params(self, params) -> "Model":
        return Model(self.layers, params, self.trainable, self.input_shape, self.class_names)

    def __repr__(self) -> str:
        kinds = "/".join(layer.kind for layer in self.layers)
        return f"Model({kinds}, input={self.input_shape}, classes={self.class_names})"


def _init_uniform(rng, layer, fan_in, gain=1.0):
    """The layer's parameters, drawn in spec order from U(+-gain/sqrt(fan_in))."""
    bound = float(gain) / np.sqrt(float(fan_in))
    return {name: rng.uniform(-bound, bound, size=shape) for name, shape, _ in layer.param_specs()}


def tiny_cnn(seed: int, input_shape=(1, 64, 64), class_names=("fractured", "healthy")) -> Model:
    """Build the reference small CNN with seeded uniform initialization.

    Stack: per-channel standardization, then one 3x3 same-padded conv + ReLU
    + 2x2 max pool per entry of ``TINY_CONV_CHANNELS``, flatten, and a dense head.
    Conv weights draw from U(+-sqrt(6/fan_in)) so activation variance stays
    level through the ReLU stack; the head draws from U(+-1/sqrt(fan_in)).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    c_in, h, w = input_shape
    layers = [Standardize(name="stdz", channels=c_in)]
    params = {
        "stdz.mean": np.full(c_in, STDZ_MEAN),
        "stdz.std": np.full(c_in, STDZ_STD),
    }

    prev = c_in
    gain = np.sqrt(6.0)
    for i, ch in enumerate(TINY_CONV_CHANNELS):
        conv = Conv2d(name=f"conv{i}", in_channels=prev, out_channels=ch, kernel_h=3, kernel_w=3)
        layers.append(conv)
        params.update(_init_uniform(rng, conv, prev * 9, gain))
        layers.append(ReLU(name=f"relu{i}"))
        layers.append(MaxPool2(name=f"pool{i}"))
        prev = ch
        h, w = h // 2, w // 2

    layers.append(Flatten(name="flat"))
    feat = prev * h * w
    head = Dense(name="head", in_features=feat, out_features=len(class_names))
    layers.append(head)
    params.update(_init_uniform(rng, head, feat))

    return Model(layers, params, {}, input_shape, class_names)


def replace_head(model: Model, k: int, seed: int, class_names=None) -> Model:
    """Return a copy with a freshly initialized k-way dense head.

    Every non-head parameter is carried over untouched; the new head draws
    from U(-1/sqrt(fan_in), +1/sqrt(fan_in)) under ``seed``.
    """
    if k < 2:
        raise ModelError(f"head must have at least 2 outputs, got {k}")
    if class_names is None:
        class_names = tuple(f"class_{i}" for i in range(k))
    if len(class_names) != k:
        raise ModelError(f"{len(class_names)} class names for a {k}-way head")

    old = model.head
    head = Dense(name=old.name, in_features=old.in_features, out_features=k)
    rng = np.random.Generator(np.random.PCG64(seed))
    params = {**model.params, **_init_uniform(rng, head, head.in_features)}
    layers = model.layers[:-1] + (head,)
    return Model(layers, params, model.trainable, model.input_shape, class_names)


def _layer_line(layer) -> str:
    fields = [f"name={layer.name}"]
    fields += [f"{key}={getattr(layer, attr)}" for key, attr, _ in layer.file_fields]
    return f"{layer.kind} " + " ".join(fields)


def _split_line(text: str):
    """A layer or param line's leading word and its ``key=value`` fields."""
    head, *tokens = text.split() or [""]
    fields = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq:
            raise ValueError(f"token {token!r} is not key=value")
        fields[key] = value
    return head, fields


def _layer_from_line(text: str):
    kind, kv = _split_line(text)
    cls = LAYER_KINDS.get(kind)
    if cls is None:
        raise WeightFormatError(f"unknown layer kind {kind!r}")
    fields = {attr: cast(kv[key]) for key, attr, cast in cls.file_fields}
    return cls(name=kv.get("name", ""), **fields)


def _positive_ints(text: str) -> tuple:
    dims = tuple(int(d) for d in text.split(","))
    if min(dims) < 1:
        raise ValueError(f"{text!r} is not a list of positive integers")
    return dims


def _param_from_line(text: str):
    pname, kv = _split_line(text)
    return pname, _positive_ints(kv["shape"]), int(kv["offset"]), kv.get("trainable", "1") == "1"


def save_model(model: Model, path, meta=None) -> None:
    """Write the model as an MWF1 file; identical models produce identical bytes."""
    lines = [
        "format=mwf1",
        "input_shape=" + ",".join(str(d) for d in model.input_shape),
        "classes=" + ",".join(model.class_names),
    ]
    for i, layer in enumerate(model.layers):
        lines.append(f"layer.{i}={_layer_line(layer)}")

    blobs = []
    offset = 0
    for i, pname in enumerate(model.param_order()):
        arr32 = model.params[pname].astype("<f4")
        raw = arr32.tobytes(order="C")
        shape = ",".join(str(d) for d in model.params[pname].shape)
        flag = 1 if model.trainable[pname] else 0
        lines.append(f"param.{i}={pname} shape={shape} offset={offset} trainable={flag}")
        blobs.append(raw)
        offset += len(raw)

    for key in sorted(meta or {}):
        lines.append(f"meta.{key}={meta[key]}")

    manifest = ("\n".join(lines) + "\n").encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(manifest).to_bytes(4, "little"))
        fh.write(manifest)
        for raw in blobs:
            fh.write(raw)


def load_model(path):
    """Read an MWF1 file back into a Model (parameters widened to float64).

    Returns ``(model, meta)`` where ``meta`` holds any ``meta.*`` manifest
    entries. Bad magic, manifest/blob inconsistencies, truncation and a
    manifest that does not describe a valid model each raise
    ``WeightFormatError`` naming the file.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8 or raw[:4] != MAGIC:
        raise WeightFormatError(f"bad magic in {path}: expected {MAGIC!r}, got {raw[:4]!r}")
    mlen = int.from_bytes(raw[4:8], "little")
    if len(raw) < 8 + mlen:
        raise WeightFormatError(f"truncated manifest in {path}")
    try:
        manifest = raw[8 : 8 + mlen].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WeightFormatError(f"manifest in {path} is not UTF-8: {exc}") from None
    blob = raw[8 + mlen :]

    input_shape = None
    class_names = None
    layer_lines = {}
    param_lines = {}
    meta = {}
    for line in manifest.splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        try:
            if key == "input_shape":
                input_shape = _positive_ints(value)
            elif key == "classes":
                class_names = tuple(value.split(","))
            elif key.startswith("layer."):
                layer_lines[int(key[6:])] = value
            elif key.startswith("param."):
                param_lines[int(key[6:])] = value
            elif key.startswith("meta."):
                meta[key[5:]] = value
        except ValueError as exc:
            raise WeightFormatError(f"manifest in {path}: {key}: {exc}") from None
    if input_shape is None or class_names is None:
        raise WeightFormatError(f"manifest in {path} lacks input_shape/classes")

    for key, lines in (("layer", layer_lines), ("param", param_lines)):
        gaps = sorted(set(range(len(lines))) - set(lines))
        if gaps:
            raise WeightFormatError(f"manifest in {path} lacks {key}.{gaps[0]}")
    try:
        layers, specs = [], []
        for i in range(len(layer_lines)):
            where = f"layer.{i}"
            layers.append(_layer_from_line(layer_lines[i]))
        for i in range(len(param_lines)):
            where = f"param.{i}"
            specs.append(_param_from_line(param_lines[i]))
    except KeyError as exc:
        raise WeightFormatError(f"manifest in {path}: {where} lacks field {exc}") from None
    except ValueError as exc:
        raise WeightFormatError(f"manifest in {path}: {where}: {exc}") from None

    params = {}
    trainable = {}
    offset = 0
    untrainable = _untrainable(layers)
    for i, (pname, shape, declared, flag) in enumerate(specs):
        if flag and pname in untrainable:
            raise WeightFormatError(
                f"manifest in {path}: param.{i}: parameter {pname!r} cannot be trainable"
            )
        if declared != offset:
            raise WeightFormatError(
                f"offset inconsistency for {pname!r} in {path}: declared {declared}, "
                f"expected {offset} (ranges must tile the blob)"
            )
        nbytes = 4 * math.prod(shape)
        if offset + nbytes > len(blob):
            raise WeightFormatError(f"truncated blob in {path}: {pname!r} overruns the payload")
        arr = np.frombuffer(blob, dtype="<f4", count=math.prod(shape), offset=offset)
        params[pname] = arr.astype(np.float64).reshape(shape)
        trainable[pname] = flag
        offset += nbytes
    if offset != len(blob):
        raise WeightFormatError(
            f"blob size mismatch in {path}: manifest covers {offset} bytes, payload has {len(blob)}"
        )

    try:
        model = Model(layers, params, trainable, input_shape, class_names)
    except ModelError as exc:
        raise WeightFormatError(f"manifest in {path} describes no valid model: {exc}") from None
    return model, meta
