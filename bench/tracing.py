"""Spans around the calls into each layer, for the traced run.

``install`` replaces each public function below by a wrapper at every name a
calling module imports it by (``validate`` as seen from ``rewrite``,
``planner``, ``structure``, ``cli`` and from ``model`` itself, ...), so calls
between layers are timed from outside the package.  A span records
(name, start, end, parent) on the thread's CPU-time clock, like the timed
calls; spans stay in memory in flat arrays and are written out once, at the
end.  A span's self time is its duration minus the
durations of its children.  ``geometry`` is not wrapped: its primitives are
too small to time one by one and show up in their callers' self time.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import thread_time

import numpy as np

# span name -> (module, attribute) pairs it is installed at
SPANS = {
    "planner.plan": ["planner"],
    "rewrite.shorten": ["rewrite", "planner"],
    "cli.run": ["cli"],
    "model.validate": ["model", "structure", "rewrite", "planner", "cli"],
    "model.vertex_turns": ["model", "structure", "rewrite"],
    "structure.structure_of": ["structure", "rewrite", "cli"],
    "structure.canonicalize": ["rewrite"],
    "structure.type_or_none": ["rewrite", "planner"],
    "smooth.dubins_solve": ["smooth"],
    "smooth.discretize": ["smooth"],
    "document.load": ["document"],
    "document.path_from_json": ["document"],
    "document.path_to_json": ["document"],
    "document.save": ["document"],
    "render.render_path_svg": ["cli"],
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")          # summed duration of direct children
        self._stack: list[int] = []
        self.active = False
        self.returns: dict[str, list] = {}   # name -> results kept by ``keep``
        self._keep: dict[str, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def keep(self, name: str, extract) -> None:
        """Keep ``extract(args, result)`` of every traced call of ``name``."""
        self._keep[name] = extract
        self.returns[name] = []

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        keep = self._keep.get(name)
        kept = self.returns.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            stack = self._stack
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            self.child.append(0.0)
            stack.append(idx)
            self.start.append(thread_time())
            try:
                result = fn(*args, **kwargs)
            finally:
                t = thread_time()
                stack.pop()
                self.end[idx] = t
                parent = self.parent[idx]
                if parent >= 0:
                    self.child[parent] += t - self.start[idx]
            if keep is not None:
                kept.append(keep(args, result))
            return result

        return traced

    def install(self) -> None:
        for name, modules in SPANS.items():
            attr = name.split(".", 1)[1]
            for mod_name in modules:
                mod = importlib.import_module(f"ddgeo.{mod_name}")
                original = getattr(mod, attr)
                self._restore.append((mod, attr, original))
                setattr(mod, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    # -- reading the spans -------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        child = np.frombuffer(self.child, dtype=np.float64)
        return name, start, end, child

    def totals(self, name: str) -> tuple[int, float, float]:
        """(calls, total seconds, total self seconds) of the named span."""
        if name not in self._ids:
            return 0, 0.0, 0.0
        names, start, end, child = self.arrays()
        sel = names == self._ids[name]
        dur = end[sel] - start[sel]
        return int(sel.sum()), float(dur.sum()), float((dur - child[sel]).sum())

    def inside(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans with an ``ancestor`` span above them."""
        if name not in self._ids or ancestor not in self._ids:
            return 0
        nid, aid = self._ids[name], self._ids[ancestor]
        under = bytearray(len(self.name))
        count = 0
        for i, (n, p) in enumerate(zip(self.name, self.parent)):
            if p >= 0 and (under[p] or self.name[p] == aid):
                under[i] = 1
                count += n == nid
        return count

    def durations(self, name: str) -> np.ndarray:
        if name not in self._ids:
            return np.zeros(0)
        names, start, end, _ = self.arrays()
        sel = names == self._ids[name]
        return end[sel] - start[sel]

    def save(self, filename: str) -> None:
        names, start, end, _ = self.arrays()
        np.savez_compressed(filename, names=np.array(self.names), name=names,
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            start=start, end=end)
