"""Spans around the calls into each bungee_lab layer, recorded from outside.

The tracer replaces a public function *in the module that imports it*
(for example ``verify.classify_batch`` as well as ``grid.classify_batch``),
because rebinding only the defining module would miss every caller that
holds its own reference.  Each call opens a span on a thread-local stack,
so a span's parent is the innermost open span of the same thread and the
chunks that grid worker threads classify are not charged to whatever the
main thread happens to be doing.

Spans are not kept one by one: on exit each is folded into totals keyed
by ``(name, parent name)``, which is all the per-layer metrics need and
keeps memory flat over hundreds of thousands of evaluator calls.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import threading
import time
from collections import defaultdict


class _Totals:
    __slots__ = ("calls", "total_s", "self_s", "points")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.points = 0.0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self._restore: list[tuple[object, str, object]] = []
        self.totals: dict[tuple[str, str | None], _Totals] = defaultdict(_Totals)
        self.root_s = 0.0  # main-thread spans with no parent
        self.chunk_s: list[float] = []  # classify_batch calls made by grid
        self.batch_keys: list = []  # one (map, samples, params) key per verify batch

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, measure=None, on_exit=None):
        """Return fn wrapped in a span called name.

        measure(args, result) gives the work size folded into ``points``;
        on_exit(args, seconds) lets a caller record more (chunk lists).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            frame = [name, 0.0]  # name, seconds spent in child spans
            stack.append(frame)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                size = measure(args, result) if measure is not None and result is not None else 0
                with self._lock:
                    t = self.totals[(name, parent[0] if parent else None)]
                    t.calls += 1
                    t.total_s += dt
                    t.self_s += dt - frame[1]
                    t.points += size
                    if parent is None and threading.current_thread() is self._main:
                        self.root_s += dt
                if on_exit is not None:
                    on_exit(args, dt)

        return traced

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        """Replace owner.attr by a traced wrapper until uninstall()."""
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kw))

    def patch_item(self, mapping: dict, key, value) -> None:
        self._restore.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- queries ---------------------------------------------------------

    def _sum(self, name: str, field: str, parent=..., not_parent=None) -> float:
        out = 0.0
        for (n, p), t in self.totals.items():
            if n != name or (parent is not ... and p != parent):
                continue
            if not_parent is not None and p == not_parent:
                continue
            out += getattr(t, field)
        return out

    def calls(self, name, **kw) -> float:
        return self._sum(name, "calls", **kw)

    def seconds(self, name, **kw) -> float:
        return self._sum(name, "total_s", **kw)

    def self_seconds(self, name, **kw) -> float:
        return self._sum(name, "self_s", **kw)

    def points(self, name, **kw) -> float:
        return self._sum(name, "points", **kw)


def _size(args, result) -> int:
    return int(getattr(args[1], "size", 1))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    import numpy as np

    from bungee_lab import cli, grid, orbit, presets, render, verify
    from bungee_lab.expr import format_expr

    # the benchmark's own entry calls, resolved through the module at call time
    tracer.patch(grid, "classify_grid", "grid.classify")
    tracer.patch(render, "render_ppm", "render.ppm", measure=lambda args, out: len(out))
    tracer.patch(cli, "main", "cli.main")

    tracer.patch(cli, "parse", "expr.parse")
    tracer.patch(presets, "parse", "expr.parse")
    for owner, attr in (
        (presets, "compose"),
        (presets, "iterate_expr"),
        (verify, "compose"),
        (verify, "translate"),
        (verify, "derivative"),
        (orbit, "derivative"),
    ):
        tracer.patch(owner, attr, "expr.build")

    tracer.patch(orbit, "eval_array", "engine.eval", measure=_size)
    tracer.patch(verify, "eval_array", "engine.eval", measure=_size)

    def chunk_done(args, dt):
        with tracer._lock:
            tracer.chunk_s.append(dt)

    def batch_key(args, dt):
        f, seeds, params = args[:3]
        samples = np.ascontiguousarray(seeds, dtype=np.complex128).tobytes()
        key = (format_expr(f), hashlib.sha256(samples).digest(), params)
        with tracer._lock:
            tracer.batch_keys.append(key)

    tracer.patch(grid, "classify_batch", "orbit.batch", measure=_size, on_exit=chunk_done)
    tracer.patch(verify, "classify_batch", "orbit.batch", measure=_size, on_exit=batch_key)
    tracer.patch(cli, "classify_point", "orbit.point")
    tracer.patch(presets, "find_fixed_points", "orbit.fixed_points")

    tracer.patch(verify.SamplerSpec, "points", "verify.sampler")
    for attr, name in (
        ("verify_commute", "verify.commute"),
        ("verify_composition_containments", "verify.containment"),
        ("verify_containment", "verify.containment"),
        ("verify_invariance", "verify.invariance"),
        ("verify_property_a", "verify.property_a"),
        ("verify_translate", "verify.translate"),
        ("verify_value_identity", "verify.value_identity"),
    ):
        tracer.patch(presets, attr, name)
    # composition containments call verify_containment twice from inside
    # verify; only the outermost containment span is counted (see metrics)
    tracer.patch(verify, "verify_containment", "verify.containment")

    for key, preset in list(presets.PRESETS.items()):
        wrapped = tracer.wrap(f"presets.{key}", preset.run)
        tracer.patch_item(presets.PRESETS, key, dataclasses.replace(preset, run=wrapped))
