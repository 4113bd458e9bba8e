"""In-memory spans around calls into the ndrank layer modules.

A :class:`Tracer` replaces selected public functions with wrappers at every
module attribute where a caller looks them up (``ndrank.factor.project`` as
well as ``ndrank.isotonic.project``).  Each wrapped call records one span:
name, start, end and the index of the enclosing span.  Spans live in flat
arrays until :meth:`Tracer.save` writes them out at the end of the run.

Only functions with a per-layer metric of their own are wrapped, so a
span's time shows either in its own metric or in its parent's self time.
Self time is a span's duration minus the durations of its direct children.
Work the tracer does for itself after a call returns (naming the span,
counting bytes and samples, the Moreau check of every projection) runs on a
paused clock, so it is neither in any span nor in the traced operation times.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

import checks


_METHOD_PATH = {
    "tree-differencing": "cone.membership.tree",
    "halfspace": "cone.membership.halfspace",
    "double-description": "cone.membership.dd",
}


class Tracer:
    """Span recorder plus the counters measured at the same call boundaries."""

    def __init__(self, modules):
        self.modules = modules  # the ndrank layer modules, by short name
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.active = False
        self.paused_s = 0.0
        self.projections = 0
        self.projections_exact = 0
        self.outer_bytes = 0
        self.samples = 0
        self._rays: dict[int, tuple] = {}
        self._restore: list[tuple] = []

    def now(self) -> float:
        """Clock that stands still while the tracer does its own work."""
        return time.perf_counter() - self.paused_s

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        m = self.modules
        fixed = [
            (m["tensor"].outer, "tensor.outer", self._count_outer),
            (m["tensor"].apply_kronecker, "tensor.apply_kronecker", None),
            (m["factor"].hals, "factor.hals", None),
            (m["factor"].init_als_project, "factor.init", None),
            (m["cone"].double_description, "cone.double_description", None),
            (m["cone"].is_monotone, "cone.is_monotone", None),
            (m["cone"].sample_finite_rank_probability, "cone.sample", self._count_samples),
        ]
        for name in ("from_relation", "product", "connected_upsets", "linear_extensions"):
            fixed.append((getattr(m["poset"], name), "poset." + name, None))
        wrappers = {id(fn): self._wrap(fn, lambda a, k, out, n=name: n, hook)
                    for fn, name, hook in fixed}
        wrappers[id(m["isotonic"].project)] = self._wrap(
            m["isotonic"].project, self._name_projection, None)
        wrappers[id(m["cone"].membership_finite_rank)] = self._wrap(
            m["cone"].membership_finite_rank,
            lambda a, k, out: _METHOD_PATH.get(out.method, "cone.membership"), None)
        for mod in m.values():
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._restore):
            setattr(mod, attr, val)
        self._restore.clear()

    def _wrap(self, fn, namer, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, tracer.now(), fn.__module__.split(".")[-1] + "." + fn.__name__)
                raise
            end = tracer.now()
            paused = time.perf_counter()
            name = namer(args, kwargs, out)
            if hook is not None:
                hook(args, kwargs, out)
            tracer.paused_s += time.perf_counter() - paused
            tracer._close(idx, end, name)
            return out

        return wrapper

    def _open(self) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name_id.append(-1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.now())
        return idx

    def _close(self, idx: int, end: float, name: str) -> None:
        self.end[idx] = end
        self._stack.pop()
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_id[idx] = nid

    # -- hooks ------------------------------------------------------------

    def _name_projection(self, args, kwargs, v) -> str:
        y = np.asarray(args[0] if args else kwargs["y"], dtype=float)
        P = args[1] if len(args) > 1 else kwargs["P"]
        cached = self._rays.get(id(P))
        if cached is None or cached[0] is not P:
            cached = self._rays[id(P)] = (P, checks.upset_rays(P))
        self.projections += 1
        self.projections_exact += checks.moreau_ok(y, v, P, cached[1]) is None
        return "isotonic.project." + checks.projection_path(P)

    def _count_outer(self, args, kwargs, out) -> None:
        self.outer_bytes += out.nbytes

    def _count_samples(self, args, kwargs, out) -> None:
        self.samples += out.n_samples

    # -- results ----------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per span name: number of calls, total seconds and self seconds."""
        n = len(self.start)
        dur = np.frombuffer(self.end, dtype=float)[:n] - np.frombuffer(self.start, dtype=float)[:n]
        ids = np.frombuffer(self.name_id, dtype=np.int32)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        child_s = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child_s, parent[has_parent], dur[has_parent])
        self_s = dur - child_s
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        selft = np.bincount(ids, weights=self_s, minlength=k)
        return {name: (int(calls[i]), float(total[i]), float(selft[i]))
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        n = len(self.start)
        np.savez_compressed(
            path, names=np.asarray(self.names), name_id=np.frombuffer(self.name_id, dtype=np.int32)[:n],
            parent=np.frombuffer(self.parent, dtype=np.int32)[:n],
            start=np.frombuffer(self.start, dtype=float)[:n], end=np.frombuffer(self.end, dtype=float)[:n])
