"""Tests for the tracer bridge, code registry, hash index, and util."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.tracer import CodeRegistry, MemoryTracer, NullTracer
from repro.db.util import stable_hash
from repro.simulator.addresses import AddressSpace
from repro.simulator.trace import FLAG_KERNEL, FLAG_STREAM, FLAG_WRITE
from tests.trace_events import flags, icounts, regions


class TestCodeRegistry:
    def test_known_modules_get_declared_size(self):
        reg = CodeRegistry(AddressSpace())
        region = reg.region("storage.btree")
        from repro.db.costs import CODE_FOOTPRINTS
        assert region.size == CODE_FOOTPRINTS["storage.btree"]

    def test_unknown_module_default_size(self):
        reg = CodeRegistry(AddressSpace())
        assert reg.region("whatever.unknown").size == 4 * 1024

    def test_region_reused(self):
        reg = CodeRegistry(AddressSpace())
        assert reg.region("exec.hashjoin") is reg.region("exec.hashjoin")

    def test_total_bytes(self):
        space = AddressSpace()
        allocated = []
        alloc = space.alloc

        def recording_alloc(*args, **kw):
            allocated.append(alloc(*args, **kw))
            return allocated[-1]

        space.alloc = recording_alloc
        reg = CodeRegistry(space)
        reg.region("exec.hashjoin")
        reg.region("exec.filter")
        reg.region("exec.hashjoin")
        assert sum(r.size for r in allocated) == \
            reg.region("exec.hashjoin").size + reg.region("exec.filter").size


class TestMemoryTracer:
    def make(self):
        space = AddressSpace()
        return MemoryTracer(CodeRegistry(space), "c0", ilp=2.0,
                            branch_mpki=3.0)

    def test_compute_accumulates_until_data(self):
        tr = self.make()
        tr.compute(10)
        tr.compute(5)
        tr.data(0x100)
        trace = tr.finish()
        assert icounts(trace)[0] == 16  # 15 + 1 for the access itself

    def test_flags_recorded(self):
        tr = self.make()
        tr.data(0x100, write=True, stream=True)
        tr.data(0x200, kernel=True)
        trace = tr.finish()
        assert flags(trace)[0] & FLAG_WRITE and flags(trace)[0] & FLAG_STREAM
        assert flags(trace)[1] & FLAG_KERNEL

    def test_enter_switches_region(self):
        tr = self.make()
        tr.enter("exec.seqscan")
        tr.data(0x100)
        tr.enter("exec.hashjoin")
        tr.data(0x200)
        trace = tr.finish()
        assert regions(trace)[0] != regions(trace)[1]
        names = [trace.footprints[r].name for r in regions(trace)[:2]]
        assert names == ["exec.seqscan", "exec.hashjoin"]

    def test_trailing_compute_flushed_on_finish(self):
        tr = self.make()
        tr.data(0x100)
        tr.compute(42)
        trace = tr.finish()
        assert len(trace) == 2
        assert icounts(trace)[1] == 43

    def test_finish_twice_rejected(self):
        tr = self.make()
        tr.data(0x100)
        tr.finish()
        with pytest.raises(RuntimeError):
            tr.finish()

    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            self.make().compute(-1)

    def test_metadata_propagates(self):
        tr = self.make()
        tr.data(0x100)
        trace = tr.finish()
        assert trace.ilp == 2.0 and trace.branch_mpki == 3.0

    def test_null_tracer_is_inert(self):
        nt = NullTracer()
        nt.enter("x")
        nt.compute(5)
        nt.data(0x100, write=True)
        assert not nt.enabled


class TestStableHash:
    def test_supported_types(self):
        for v in (42, -7, "abc", b"abc", (1, "x"), 3.5):
            assert stable_hash(v) >= 0
            assert stable_hash(v) == stable_hash(v)

    def test_distinct_values_usually_differ(self):
        hashes = {stable_hash(i) for i in range(1000)}
        assert len(hashes) == 1000

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            stable_hash([1, 2])


@settings(max_examples=50, deadline=None)
@given(st.one_of(
    st.integers(-2**62, 2**62), st.text(max_size=30),
    st.tuples(st.integers(), st.text(max_size=5)),
))
def test_stable_hash_is_nonnegative_and_stable(v):
    h = stable_hash(v)
    assert 0 <= h <= 0x7FFF_FFFF_FFFF_FFFF
    assert h == stable_hash(v)
