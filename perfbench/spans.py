"""Span tracing around the public functions of each ``jacobi_reflect`` layer.

``Tracer.install`` wraps every public function defined in a layer module
and rebinds the wrapper under every name a caller looks it up by: the
defining module, each module that imported it (``jacobi_reflect.cli``
imports ``explicit_grid`` from ``analysis``) and the package itself.
Spans (name, start, end, parent, work) are kept in flat arrays in memory
and written out when the run ends; self times are derived from them.
"""

import array
import functools
import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("model", "bands", "mfunc", "scattering", "jost", "dynamics", "analysis", "cli")


def _points(args, kwargs, result):
    pts = args[2] if len(args) > 2 else kwargs.get("pts")
    return float(np.size(pts))


def _array_bytes(obj, depth=2):
    """Bytes of every ndarray held by obj's fields (and their fields)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth == 0 or not hasattr(obj, "__dict__"):
        return 0
    return sum(_array_bytes(v, depth - 1) for v in vars(obj).values())


# work recorded with a span, as a function of the call and its result
WORK = {
    "mfunc.tail_m": _points,
    "dynamics.make_plan": lambda args, kwargs, result: float(_array_bytes(result)),
}


class Tracer:
    """Spans of one traced run, in the order they were opened."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.fid = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.work = array.array("d")
        self._stack = [-1]
        self._restore = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, fid):
        idx = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self._stack[-1])
        self.work.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def __len__(self):
        return len(self.fid)

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (set-up, pass, operation)."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        fid = self._id(name)
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(fid)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(idx)
                if work is not None and result is not None:
                    self.work[idx] = work(args, kwargs, result)

        return traced

    def install(self, package):
        """Wrap the public functions of every layer under all their names."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for name, obj in vars(mod).items():
                if (name.startswith("_") or inspect.isclass(obj) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        prefix = package.__name__ + "."
        modules = [m for n, m in list(sys.modules.items())
                   if n == package.__name__ or n.startswith(prefix)]
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._restore.append((mod, name, obj))

    def uninstall(self):
        for mod, name, obj in reversed(self._restore):
            setattr(mod, name, obj)
        self._restore.clear()

    def arrays(self):
        fid = np.frombuffer(self.fid, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=float).copy()
        end = np.frombuffer(self.end, dtype=float).copy()
        work = np.frombuffer(self.work, dtype=float).copy()
        return fid, parent, start, end, work

    def summary(self, lo, hi):
        """Per-name totals over spans lo..hi-1: inclusive s, self s, calls, work."""
        fid, parent, start, end, work = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=fid.size)
        own = dur - children
        sl = slice(lo, hi)
        k = len(self.names)
        f = fid[sl]
        totals = np.bincount(f, weights=dur[sl], minlength=k)
        selfs = np.bincount(f, weights=own[sl], minlength=k)
        calls = np.bincount(f, minlength=k)
        works = np.bincount(f, weights=work[sl], minlength=k)
        return {name: {"s": float(totals[i]), "self_s": float(selfs[i]),
                       "calls": int(calls[i]), "work": float(works[i]),
                       "max_work": float(work[sl][f == i].max()) if calls[i] else 0.0}
                for i, name in enumerate(self.names)}

    def save(self, path):
        fid, parent, start, end, work = self.arrays()
        np.savez(path, names=np.array(self.names), fid=fid, parent=parent,
                 start=start, end=end, work=work)
