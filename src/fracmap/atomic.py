"""Artifact files appear whole or not at all.

Every artifact (weight files, CSVs, PGM images and heatmaps, sidecars,
manifests, run status) is written through ``atomic_open``: the bytes go to
a temporary file in the same directory, which replaces the target only once
it is complete and closed. An exception raised while writing, or by the
replace, leaves the target as it was and removes the temporary file. There
is no fsync: this guards against a failing run, not against a power cut.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

__all__ = ["atomic_open"]


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temporary file beside ``path`` for writing (text mode is UTF-8);
    on a clean exit it replaces ``path`` with ``os.replace``."""
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.tmp")
    fh = open(tmp, mode, encoding=None if "b" in mode else "utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
