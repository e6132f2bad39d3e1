"""Outside-in tracing: spans around calls into kgmix's public functions.

The tracer replaces a function under the name its caller looks it up by
(``kgmix.train.encode``, ``kgmix.evaluate.build_query_index``, a method on
``kgmix.autodiff.Tape``) with a wrapper that records a span: its name, start
and end, the span open around it when it began, and the bytes of the array
it returned when a size function is given.  Spans live in flat lists of
numbers, so recording them allocates no objects the cyclic garbage
collector tracks, and are written out once, when the run ends.  A name that
no longer exists is skipped and listed in ``missing``.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
import weakref

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.nbytes: list[int] = []
        self._open: list[int] = []  # indices of the spans currently open
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # ---- recording ----

    def span(self, name: str, fn, size=None):
        """Return ``fn`` wrapped so that each call records one span."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, nbytes, open_ = self.parents, self.nbytes, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            nbytes.append(0)
            ends.append(0.0)
            open_.append(i)
            starts.append(_clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = _clock()
                open_.pop()
            if size is not None:
                nbytes[i] = size(out)
            return out

        return wrapper

    def wrap(self, target: str, name: str | None = None, size=None, chooser=None):
        """Wrap ``module.attr`` or ``module.Class.attr`` in place.

        ``chooser(args, kwargs)``, when given, picks the span name per call
        (used to tell candidate-pool ranking from full ranking).
        """
        module_name, _, rest = target.partition(":")
        owner = importlib.import_module(module_name)
        *path, attr = rest.split(".")
        try:
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except AttributeError:
            self.missing.append(target)
            return
        label = name or rest
        if chooser is None:
            wrapped = self.span(label, fn, size)
        else:
            by_name = {}

            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                n = chooser(args, kwargs)
                if n not in by_name:
                    by_name[n] = self.span(n, fn, size)
                return by_name[n](*args, **kwargs)

        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ---- analysis ----

    def in_window(self, t0: float, t1: float) -> list[int]:
        return [i for i, s in enumerate(self.starts) if t0 <= s < t1]

    def totals(self, t0: float, t1: float) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds and bytes for
        spans that started inside [t0, t1)."""
        idx = self.in_window(t0, t1)
        child = {}
        for i in idx:
            p = self.parents[i]
            if p >= 0:
                child[p] = child.get(p, 0.0) + self.ends[i] - self.starts[i]
        out: dict[str, dict] = {}
        for i in idx:
            d = self.ends[i] - self.starts[i]
            agg = out.setdefault(self.names[i], {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0})
            agg["calls"] += 1
            agg["s"] += d
            agg["self_s"] += d - child.get(i, 0.0)
            agg["bytes"] += self.nbytes[i]
        return out

    def uncovered_share(self, t0: float, t1: float) -> float:
        """Share of [t0, t1) that no top-level span covers."""
        covered = 0.0
        last = t0
        tops = sorted(
            (self.starts[i], self.ends[i])
            for i in self.in_window(t0, t1)
            if self.parents[i] < 0 or self.starts[self.parents[i]] < t0
        )
        for s, e in tops:
            s, e = max(s, last), min(e, t1)
            if e > s:
                covered += e - s
                last = e
        return 1.0 - covered / (t1 - t0)

    def dump(self, path: str, meta: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "missing": self.missing}) + "\n")
            for i, n in enumerate(self.names):
                fh.write(json.dumps([i, n, self.parents[i], self.starts[i],
                                     self.ends[i], self.nbytes[i]]) + "\n")


def node_bytes(node) -> int:
    return int(node.value.nbytes)


class TapeWatch:
    """Counts live ``Tape`` objects by weakref and the bytes a tape holds
    when ``backward`` starts."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.alive = weakref.WeakSet()
        self.alive_after_backward: list[tuple[float, int]] = []
        self.tape_bytes: list[tuple[float, int]] = []

    def install(self):
        from kgmix import autodiff

        tape_cls = autodiff.Tape
        init = tape_cls.__init__
        backward = tape_cls.backward
        alive = self.alive
        after, held = self.alive_after_backward, self.tape_bytes

        @functools.wraps(init)
        def traced_init(tape, *args, **kwargs):
            init(tape, *args, **kwargs)
            alive.add(tape)

        timed_backward = self.tracer.span("autodiff.backward", backward)

        @functools.wraps(backward)
        def traced_backward(tape, loss):
            held.append((_clock(), sum(
                n.value.nbytes for n in tape.nodes if n.op != "param")))
            out = timed_backward(tape, loss)
            after.append((_clock(), len(alive)))
            return out

        self.tracer._patched.append((tape_cls, "__init__", init))
        tape_cls.__init__ = traced_init
        self.tracer._patched.append((tape_cls, "backward", backward))
        tape_cls.backward = traced_backward
