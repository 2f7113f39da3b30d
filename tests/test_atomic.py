"""Artifact writers leave either the old file or the complete new one."""

import numpy as np
import pytest

from fracmap import atomic
from fracmap.attribution import AttributionMap, write_heatmap
from fracmap.coverage import write_csv
from fracmap.model import save_model, tiny_cnn


class _FailsPartway:
    """A file whose first write stores half of its data, then raises."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _failing_open(*args, **kwargs):
    return _FailsPartway(open(*args, **kwargs))


AMAP = AttributionMap(np.arange(12.0).reshape(3, 4), "saliency", 0, "method=saliency;class=0")

WRITERS = {
    "weights": lambda d: save_model(tiny_cnn(1, input_shape=(1, 16, 16)), d / "m.mwf"),
    "csv": lambda d: write_csv(d / "t.csv", "a,b", ["1,2", "3,4"], {"seed": 1}),
    "heatmap": lambda d: write_heatmap(AMAP, d / "h.pgm", d / "h.txt", extra={"seed": 1}),
}


def _tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("name", sorted(WRITERS))
@pytest.mark.parametrize("earlier", [False, True])
def test_a_write_that_raises_leaves_no_partial_artifact(tmp_path, monkeypatch, name, earlier):
    if earlier:
        WRITERS[name](tmp_path)
    before = _tree(tmp_path)
    monkeypatch.setattr(atomic, "open", _failing_open, raising=False)
    with pytest.raises(OSError, match="No space"):
        WRITERS[name](tmp_path)
    assert _tree(tmp_path) == before


def test_a_complete_write_replaces_the_file(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("old and longer\n")
    with atomic.atomic_open(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


def test_a_failed_replace_leaves_no_temporary_file(tmp_path):
    target = tmp_path / "target"
    target.mkdir()
    with pytest.raises(OSError):
        with atomic.atomic_open(target) as fh:
            fh.write("new\n")
    assert [p.name for p in tmp_path.iterdir()] == ["target"]
    assert list(target.iterdir()) == []
