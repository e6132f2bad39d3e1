import json
import time
import types

import pytest

import tracer as tr


def _module(monkeypatch, name="bench_fake_mod"):
    mod = types.ModuleType(name)

    def inner(x):
        time.sleep(0.002)
        return x

    def outer(x):
        return mod.inner(x) + 1

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(__import__("sys").modules, name, mod)
    return mod


def test_spans_nest_and_self_time(monkeypatch):
    mod = _module(monkeypatch)
    t = tr.Tracer()
    t.wrap("bench_fake_mod:outer", "outer")
    t.wrap("bench_fake_mod:inner", "inner")
    start = time.perf_counter()
    assert mod.outer(1) == 2
    end = time.perf_counter()
    assert t.names == ["outer", "inner"]
    assert t.parents == [-1, 0]
    tot = t.totals(start, end)
    assert tot["outer"]["calls"] == tot["inner"]["calls"] == 1
    assert tot["outer"]["self_s"] == pytest.approx(tot["outer"]["s"] - tot["inner"]["s"])
    assert tot["inner"]["s"] >= 0.002
    assert t.uncovered_share(start, end) < 0.5


def test_restore_and_missing_names(monkeypatch):
    mod = _module(monkeypatch)
    original = mod.inner
    t = tr.Tracer()
    t.wrap("bench_fake_mod:inner", "inner")
    t.wrap("bench_fake_mod:gone", "gone")
    t.wrap("bench_fake_mod:Nothing.method", "gone2")
    assert t.missing == ["bench_fake_mod:gone", "bench_fake_mod:Nothing.method"]
    assert mod.inner is not original
    t.restore()
    assert mod.inner is original


def test_chooser_and_sizes(monkeypatch, tmp_path):
    mod = _module(monkeypatch)
    t = tr.Tracer()
    t.wrap("bench_fake_mod:inner", size=lambda out: out * 10,
           chooser=lambda args, kwargs: "big" if args[0] > 5 else "small")
    mod.inner(3)
    mod.inner(7)
    assert t.names == ["small", "big"]
    assert t.nbytes == [30, 70]
    path = tmp_path / "trace.jsonl"
    t.dump(str(path), {"k": 1})
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["meta"] == {"k": 1}
    assert json.loads(lines[2])[1] == "big"


def test_uncovered_share_of_synthetic_spans():
    t = tr.Tracer()
    # two top-level spans covering [0, 2) and [3, 4) of the window [0, 5)
    for name, s, e, parent in (("a", 0.0, 2.0, -1), ("b", 1.0, 1.5, 0), ("c", 3.0, 4.0, -1)):
        t.names.append(name)
        t.starts.append(s)
        t.ends.append(e)
        t.parents.append(parent)
        t.nbytes.append(0)
    assert t.uncovered_share(0.0, 5.0) == pytest.approx(0.4)


def test_tape_watch_counts_tapes_and_bytes():
    import numpy as np
    from kgmix.autodiff import Parameter, Tape

    original = Tape.__dict__["backward"]
    t = tr.Tracer()
    watch = tr.TapeWatch(t)
    watch.install()
    try:
        p = Parameter("p", np.ones((2, 3)))
        tape = Tape()
        loss = tape.weighted_sum(tape.hadamard(tape.param(p), tape.constant(np.ones((2, 3)))))
        tape.backward(loss)
    finally:
        t.restore()
    assert Tape.__dict__["backward"] is original
    # constant (48) + hadamard (48) + weighted_sum (8); the param's own array is not counted
    assert watch.tape_bytes[0][1] == 48 + 48 + 8
    assert watch.alive_after_backward[0][1] >= 1
    assert t.names == ["autodiff.backward"]
