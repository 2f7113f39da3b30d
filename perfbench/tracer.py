"""Span recorder that times calls into fracmap's public API from outside.

The benchmark does not edit the package. Instead it replaces, for the length
of a traced run, every binding of a traced function across the loaded
``fracmap`` modules with a timing wrapper, and the compute methods of the
layer classes with one that names the layer. Replacing every binding matters:
``from .autodiff import forward_batch`` gives ``train``, ``attack`` and
``attribution`` their own names for the same function, and wrapping only
``fracmap.autodiff.forward_batch`` would leave their calls untimed.

A span records its name, start, end, parent and root (the ``op``, ``setup``
or ``check`` span it belongs to), the module whose binding was called, and
optional counters. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, ROOT, SITE, COUNTERS = range(7)


class WiringError(RuntimeError):
    """A traced target is missing, so its spans would silently read as zero."""


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _open(self, name, site=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][ROOT] if parent >= 0 else idx
        self.spans.append([name, time.perf_counter(), 0.0, parent, root, site, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- wiring ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _timed(self, fn, name, site, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name, site)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.spans[idx][COUNTERS] = count(args, out)
            return out

        return wrapper

    def trace_function(self, module_name, attr, count=None):
        """Time every binding of ``module_name.attr`` in the loaded fracmap modules.

        The module is resolved through ``importlib``, because attribute access
        on the package can yield a re-exported function of the same name
        (``fracmap.train`` is the ``train`` function, not the module).
        """
        module = importlib.import_module(module_name)
        original = vars(module).get(attr)
        if not callable(original):
            raise WiringError(f"{module_name}.{attr} is not a function")
        name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fracmap" or mod_name.startswith("fracmap.")):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, binding, self._timed(original, name, mod_name, count))

    def trace_method(self, cls, attr, name_of):
        """Time ``cls.attr``; ``name_of(instance)`` names each call's span."""
        original = getattr(cls, attr, None)
        if not callable(original):
            raise WiringError(f"{cls.__name__}.{attr} is not a method")

        @functools.wraps(original)
        def wrapper(obj, *args, **kwargs):
            idx = self._open(name_of(obj))
            try:
                return original(obj, *args, **kwargs)
            finally:
                self._close(idx)

        self._patch(cls, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation -----------------------------------------------------

    def summarize(self):
        """Per-root statistics: ``{root index: (root name, stats)}``.

        ``stats`` maps a key to ``[calls, total_s, self_s, counters]``, where
        the key is a span name, ``(name, "site", module)`` or ``(name,
        "parent", parent name)``. Self time is a span's duration minus the
        time its direct children cover.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        roots = {}
        for idx, s in enumerate(spans):
            root = s[ROOT]
            if root == idx:
                roots[idx] = (s[NAME], defaultdict(lambda: [0, 0.0, 0.0, defaultdict(float)]))
                continue
            stats = roots[root][1]
            dur = s[END] - s[START]
            parent_name = spans[s[PARENT]][NAME]
            for key in (s[NAME], (s[NAME], "site", s[SITE]), (s[NAME], "parent", parent_name)):
                entry = stats[key]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - child_time[idx]
                if s[COUNTERS]:
                    for counter, value in s[COUNTERS].items():
                        entry[3][counter] += value
        return roots

    def records(self):
        """Spans as JSON-ready dicts, in the order they opened."""
        for idx, s in enumerate(self.spans):
            yield {
                "id": idx,
                "name": s[NAME],
                "start": s[START],
                "end": s[END],
                "parent": s[PARENT],
                "root": s[ROOT],
                "site": s[SITE],
                "counters": s[COUNTERS],
            }
