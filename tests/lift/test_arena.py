"""Unit tests for the workspace arena (steady-state buffer slots).

Every operation has the same contract: the first call (miss) performs
the plain allocating NumPy operation and keeps the result as the slot
buffer; every later call (hit) re-executes the operation *into* that
buffer and must be elementwise identical to the allocating form.
"""

import numpy as np
import pytest

from repro.lift.codegen.arena import (ArenaFrozenError, Workspace,
                                      arena_stats, reset_arena_stats)


@pytest.fixture()
def ws():
    return Workspace("test")


class TestUfunc:
    def test_miss_then_hit_reuses_buffer(self, ws):
        a = np.arange(5.0)
        b = np.ones(5)
        first = ws.ufunc("t", np.add, a, b)
        second = ws.ufunc("t", np.add, a, 2 * b)
        assert second is first          # same storage, rewritten in place
        np.testing.assert_array_equal(second, a + 2)
        assert (ws.hits, ws.misses) == (1, 1)

    def test_miss_keeps_natural_dtype(self, ws):
        # int32 + int64 promotes to int64; the slot must adopt NumPy's
        # own result dtype, never re-derive promotion rules
        r = ws.ufunc("t", np.add, np.arange(3, dtype=np.int32),
                     np.arange(3, dtype=np.int64))
        assert r.dtype == np.int64
        assert ws.ufunc("t", np.add, np.arange(3, dtype=np.int32),
                        np.arange(3, dtype=np.int64)).dtype == np.int64

    def test_scalar_result_not_cached(self, ws):
        assert ws.ufunc("s", np.add, 1.0, 2.0) == 3.0
        assert "s" not in ws._slots


class TestShift:
    def test_in_range_is_view(self, ws):
        a = np.arange(10.0)
        v = ws.shift("t", a, 4, 2)
        assert v.base is a              # zero-copy
        np.testing.assert_array_equal(v, a[2:6])

    def test_copy_true_preserves_read_before_write(self, ws):
        a = np.arange(6.0)
        c = ws.shift("t", a, 4, 1, copy=True)
        a[:] = 0
        np.testing.assert_array_equal(c, [1, 2, 3, 4])
        c2 = ws.shift("t", a, 4, 1, copy=True)
        assert c2 is c
        np.testing.assert_array_equal(c2, np.zeros(4))

    def test_negative_offset_matches_fancy_indexing(self, ws):
        a = np.arange(10.0)
        n, off = 6, -2
        idx = np.arange(n) + off        # fancy indexing wraps negatives
        got = ws.shift("t", a, n, off)
        np.testing.assert_array_equal(got, a[idx])
        # hit path refreshes the same buffer
        a += 100
        got2 = ws.shift("t", a, n, off)
        assert got2 is got
        np.testing.assert_array_equal(got2, a[idx])

    def test_out_of_range_raises(self, ws):
        with pytest.raises(IndexError):
            ws.shift("t", np.arange(4.0), 4, 3)


class TestWhereTakeCast:
    def test_where_matches_numpy(self, ws):
        rng = np.random.default_rng(0)
        c = rng.random(8) > 0.5
        t, f = rng.random(8), rng.random(8)
        np.testing.assert_array_equal(ws.where("w", c, t, f),
                                      np.where(c, t, f))
        c2 = ~c
        np.testing.assert_array_equal(ws.where("w", c2, t, f),
                                      np.where(c2, t, f))
        assert ws.hits == 1

    def test_take_matches_fancy_indexing(self, ws):
        a = np.arange(10.0) * 1.5
        idx = np.array([3, 0, 9, 3], dtype=np.int32)
        np.testing.assert_array_equal(ws.take("g", a, idx), a[idx])
        a *= -1
        np.testing.assert_array_equal(ws.take("g", a, idx), a[idx])

    def test_cast_always_copies(self, ws):
        a = np.arange(4, dtype=np.int32)
        c = ws.cast("c", a, np.float32)
        assert c.dtype == np.float32
        a[:] = 0
        np.testing.assert_array_equal(c, [0, 1, 2, 3])
        c2 = ws.cast("c", a, np.float32)
        assert c2 is c
        np.testing.assert_array_equal(c2, np.zeros(4))


class TestPad:
    def test_halo_written_once_then_persists(self, ws):
        a = np.arange(4.0)
        p = ws.pad("p", a, 1, 2, 0.0)
        np.testing.assert_array_equal(p, np.pad(a, (1, 2)))
        # hit: only the interior is refreshed, the halo persists
        a2 = a + 10
        p2 = ws.pad("p", a2, 1, 2, 0.0)
        assert p2 is p
        np.testing.assert_array_equal(p2, np.pad(a2, (1, 2)))
        assert ws.hits == 1

    def test_pad3_symmetric_halo(self, ws):
        a = np.arange(8.0).reshape(2, 2, 2)
        p = ws.pad3("p", a, 1, 0.0)
        np.testing.assert_array_equal(p, np.pad(a, 1))
        p2 = ws.pad3("p", a * 3, 1, 0.0)
        assert p2 is p
        np.testing.assert_array_equal(p2, np.pad(a * 3, 1))


class TestConst:
    def test_recomputes_only_when_key_changes(self, ws):
        calls = []
        def make():
            calls.append(1)
            return np.arange(4)
        ws.const("i", (4,), make)
        ws.const("i", (4,), make)
        assert len(calls) == 1
        ws.const("i", (5,), make)       # scalar/size argument changed
        assert len(calls) == 2


class TestFreeze:
    def test_frozen_workspace_rejects_new_slots(self, ws):
        a = np.arange(4.0)
        ws.ufunc("t", np.add, a, a)
        ws.freeze()
        # existing slots keep working — this is the zero-allocation proof
        ws.ufunc("t", np.add, a, a)
        with pytest.raises(ArenaFrozenError):
            ws.ufunc("new", np.add, a, a)
        ws.thaw()
        ws.ufunc("new", np.add, a, a)   # no raise after thaw


class TestStats:
    def test_process_wide_accounting(self):
        reset_arena_stats()
        ws = Workspace("acct")
        a = np.arange(16.0)
        ws.ufunc("t", np.add, a, a)
        ws.ufunc("t", np.add, a, a)
        s = arena_stats()
        assert s["hits"] >= 1 and s["misses"] >= 1
        assert s["nbytes"] >= a.nbytes
        assert s["workspaces"] >= 1
        assert ws.stats()["slots"] == 1
