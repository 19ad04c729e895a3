"""Caches, branch predictor, store buffer, counters, memory map, config."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.asm import parse_program
from repro.machine.branch import TwoBitPredictor
from repro.machine.caches import DirectMappedCache, SetAssociativeCache
from repro.machine.config import MachineConfig
from repro.machine.counters import CounterBank, Event, PicRegisters
from repro.machine.memory import WORD, MemoryMap
from repro.machine.vm import Machine

#: Stores and reloads 48 words at a 4 KB stride, so a small
#: direct-mapped D-cache misses on reads and writes alike; returns 1128.
TRAFFIC = """
func main(0) regs=8 {
entry:
    alloc r0, 8192
    const r1, 0
    const r2, 0
    br loop
loop:
    and r3, r1, 7
    mul r3, r3, 4096
    add r3, r3, r0
    store r1, [r3+0]
    load r4, [r3+0]
    add r2, r2, r4
    add r1, r1, 1
    lt r5, r1, 48
    cbr r5, loop, done
done:
    ret r2
}
"""


class TestDirectMappedCache:
    def test_cold_miss_then_hit(self):
        cache = DirectMappedCache(1024, 32)
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.access(31)  # same line
        assert not cache.access(32)  # next line

    def test_conflict_eviction(self):
        cache = DirectMappedCache(1024, 32)
        # Addresses one cache-size apart map to the same set.
        assert not cache.access(0)
        assert not cache.access(1024)
        assert not cache.access(0)  # evicted by the conflicting line

    def test_set_index(self):
        cache = DirectMappedCache(1024, 32)
        assert cache.set_index(0) == cache.set_index(1024)
        assert cache.set_index(0) != cache.set_index(32)

    def test_no_allocate_write(self):
        cache = DirectMappedCache(1024, 32)
        cache.access(64, allocate=False)
        assert not cache.contains(64)

    def test_statistics(self):
        cache = DirectMappedCache(1024, 32)
        for address in (0, 0, 32, 0):
            cache.access(address)
        assert cache.misses == 2

    @pytest.mark.parametrize("engine", ["simple", "fast"])
    def test_misses_match_the_counters(self, engine):
        """The cache counts only misses; its accesses are the
        ``DC_READ + DC_WRITE`` counters, which both engines keep."""
        machine = Machine(
            parse_program(TRAFFIC), MachineConfig(dcache_size=1024), engine=engine
        )
        result = machine.run()
        assert machine.dcache.misses == result[Event.DC_MISS]
        assert 0 < result[Event.DC_READ_MISS] and 0 < result[Event.DC_WRITE_MISS]

    def test_paper_geometry(self):
        """16KB direct mapped with 32B lines: 512 sets (§6.4.1)."""
        cache = DirectMappedCache(16 * 1024, 32)
        assert cache.sets == 512

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            DirectMappedCache(1000, 32)
        with pytest.raises(ValueError):
            DirectMappedCache(1024, 24)


class TestSetAssociativeCache:
    def test_lru_within_set(self):
        cache = SetAssociativeCache(2 * 32, 32, 2)  # 1 set, 2 ways
        cache.access(0)
        cache.access(32)
        cache.access(0)        # 0 becomes MRU
        cache.access(64)       # evicts 32 (LRU)
        assert cache.contains(0)
        assert not cache.contains(32)

    def test_assoc_avoids_direct_conflict(self):
        cache = SetAssociativeCache(1024, 32, 2)
        cache.access(0)
        cache.access(1024 // 2)  # same set, other way
        assert cache.contains(0)


class TestTwoBitPredictor:
    def test_warms_up_on_taken_loop(self):
        predictor = TwoBitPredictor(64)
        results = [predictor.predict_and_update(0x100, True) for _ in range(5)]
        assert all(results)  # initialized weakly-taken

    def test_flips_after_one_not_taken_from_weak_state(self):
        predictor = TwoBitPredictor(64)
        assert not predictor.predict_and_update(0x100, False)  # weak-taken says taken
        assert predictor.predict_and_update(0x100, False)  # now predicts not-taken

    def test_strongly_taken_needs_two_to_flip(self):
        predictor = TwoBitPredictor(64)
        predictor.predict_and_update(0x100, True)  # weak -> strong taken
        assert not predictor.predict_and_update(0x100, False)  # strong: still taken
        assert not predictor.predict_and_update(0x100, False)  # weak: still taken
        assert predictor.predict_and_update(0x100, False)

    def test_alternating_pattern_mispredicts(self):
        predictor = TwoBitPredictor(64)
        outcomes = [bool(i % 2) for i in range(50)]
        correct = sum(predictor.predict_and_update(0x200, t) for t in outcomes)
        assert correct < 40  # alternation defeats a 2-bit counter

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            TwoBitPredictor(100)
        with pytest.raises(ValueError):
            TwoBitPredictor(0)

    def test_slot_is_the_table_index_used(self):
        predictor = TwoBitPredictor(64)
        predictor.predict_and_update(0x4104, False)
        assert predictor.table[predictor.slot(0x4104)] == 1
        assert predictor.table.count(2) == 63


class DequeStoreBuffer:
    """The store buffer as a queue of completion cycles: the reference
    model :meth:`Machine._store_buffer_push` replaced with one integer."""

    def __init__(self, depth: int, drain: int):
        self.depth = depth
        self.drain = drain
        self.buffer = deque()

    def push(self, now: int) -> int:
        """Enter a store at cycle ``now``; returns the stall cycles."""
        buffer = self.buffer
        while buffer and buffer[0] <= now:
            buffer.popleft()
        stall = 0
        if len(buffer) >= self.depth:
            stall = buffer[0] - now
            now += stall
            while buffer and buffer[0] <= now:
                buffer.popleft()
        last = buffer[-1] if buffer else now
        buffer.append(max(now, last) + self.drain)
        return stall


class TestStoreBuffer:
    @settings(max_examples=300, deadline=None)
    @given(
        depth=st.integers(1, 10),
        drain=st.integers(0, 6),
        gaps=st.lists(st.integers(0, 12), max_size=60),
    )
    def test_closed_form_matches_the_queue(self, depth, drain, gaps):
        machine = Machine(
            parse_program("func main(0) regs=1 {\nentry:\n    ret r0\n}"),
            MachineConfig(store_buffer_depth=depth, store_drain_cycles=drain),
        )
        counts = machine.counters.counts
        reference = DequeStoreBuffer(depth, drain)
        for gap in gaps:
            counts[Event.CYCLES] += gap
            now = counts[Event.CYCLES]
            stalled = counts[Event.SB_STALL]
            machine._store_buffer_push()
            stall = counts[Event.SB_STALL] - stalled
            assert stall == reference.push(now)
            assert counts[Event.CYCLES] == now + stall
            now += stall
            # Same state: the newest completion, and the stores still
            # pending are the run of step ``drain`` that ends there.
            last = machine._store_drained[0]
            assert last == reference.buffer[-1]
            run = [last - k * drain for k in range(depth, -1, -1)]
            assert [t for t in run if t > now] == [t for t in reference.buffer if t > now]

    def test_full_buffer_stalls_until_the_oldest_store_drains(self):
        machine = Machine(
            parse_program("func main(0) regs=1 {\nentry:\n    ret r0\n}"),
            MachineConfig(store_buffer_depth=2, store_drain_cycles=5),
        )
        counts = machine.counters.counts
        for _ in range(3):
            machine._store_buffer_push()
        # Completions at 5 and 10 fill the buffer; the third store waits
        # for the first and then completes at 15.
        assert counts[Event.SB_STALL] == 5
        assert counts[Event.CYCLES] == 5
        assert machine._store_drained == [15]


class TestPicRegisters:
    def test_read_after_zero(self):
        bank = CounterBank()
        pic = PicRegisters(bank, Event.INSTRS, Event.DC_MISS)
        bank.counts[Event.INSTRS] = 100
        pic.write_zero()
        pic.read()
        bank.counts[Event.INSTRS] += 7
        assert pic.read()[0] == 7

    def test_32bit_wrap(self):
        bank = CounterBank()
        pic = PicRegisters(bank, Event.INSTRS, Event.DC_MISS)
        pic.write_zero()
        pic.read()
        bank.counts[Event.INSTRS] = (1 << 32) + 5
        assert pic.read()[0] == 5  # wrapped

    def test_write_requires_confirming_read(self):
        bank = CounterBank()
        pic = PicRegisters(bank, Event.INSTRS, Event.DC_MISS)
        pic.write_zero()
        assert pic.pending_read
        pic.read()
        assert not pic.pending_read

    def test_save_restore_round_trip(self):
        bank = CounterBank()
        pic = PicRegisters(bank, Event.INSTRS, Event.DC_MISS)
        bank.counts[Event.INSTRS] = 40
        pic.write_zero(); pic.read()
        bank.counts[Event.INSTRS] += 10
        saved = pic.read()
        bank.counts[Event.INSTRS] += 999  # a callee runs
        pic.write_values(*saved)
        pic.read()
        bank.counts[Event.INSTRS] += 3
        assert pic.read()[0] == saved[0] + 3

    def test_configure_switches_events(self):
        bank = CounterBank()
        pic = PicRegisters(bank, Event.INSTRS, Event.DC_MISS)
        bank.counts[Event.CYCLES] = 55
        pic.configure(Event.CYCLES, Event.IC_MISS)
        bank.counts[Event.CYCLES] += 5
        assert pic.read()[0] == 5


class TestCounterBank:
    def test_snapshot_and_diff(self):
        bank = CounterBank()
        before = bank.snapshot()
        bank.counts[Event.LOADS] = 12
        diff = bank.diff(before)
        assert diff[Event.LOADS] == 12
        assert diff[Event.STORES] == 0


class TestMemoryMap:
    def test_regions_are_disjoint(self):
        memory = MemoryMap(16)
        regions = [memory.globals, memory.heap, memory.stack,
                   memory.profiling, memory.cct]
        for i, a in enumerate(regions):
            for b in regions[i + 1:]:
                assert a.limit <= b.base or b.limit <= a.base

    def test_uninitialized_reads_zero(self):
        memory = MemoryMap(16)
        assert memory.read(memory.global_addr(3)) == 0

    def test_write_read(self):
        memory = MemoryMap(16)
        address = memory.global_addr(2)
        memory.write(address, 123)
        assert memory.read(address) == 123

    def test_heap_alloc_bumps(self):
        memory = MemoryMap(16)
        a = memory.heap_alloc(4)
        b = memory.heap_alloc(4)
        assert b == a + 4 * WORD
        assert memory.heap_used() == 8 * WORD

    def test_heap_exhaustion(self):
        memory = MemoryMap(16)
        with pytest.raises(MemoryError):
            memory.heap_alloc(memory.heap.size)

    def test_frame_base_progression(self):
        memory = MemoryMap(16)
        assert memory.frame_base(1, 32) - memory.frame_base(0, 32) == 32 * WORD

    def test_region_of(self):
        memory = MemoryMap(16)
        assert memory.region_of(memory.global_addr(0)) == "globals"
        assert memory.region_of(memory.heap.base) == "heap"
        assert memory.region_of(memory.cct.base + 8) == "cct"
        assert memory.region_of(0) == "unmapped"

    def test_region_of_at_every_boundary(self):
        memory = MemoryMap(16)
        regions = [memory.globals, memory.heap, memory.stack,
                   memory.profiling, memory.cct]
        for region in regions:
            for address in (region.base - 1, region.base, region.limit - 1, region.limit):
                owner = next((r.name for r in regions if r.contains(address)), "unmapped")
                assert memory.region_of(address) == owner, hex(address)
        assert memory.region_of(-8) == "unmapped"


class TestMachineConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"store_buffer_depth": 0},
            {"store_buffer_depth": -2},
            {"store_drain_cycles": -1},
            {"predictor_entries": 0},
            {"predictor_entries": 48},
            {"icache_size": 100, "icache_assoc": 1},
            {"icache_size": 96, "icache_assoc": 1},
            {"icache_line": 24},
            {"icache_assoc": 0},
            {"dcache_size": 3 * 1024},
            {"dcache_line": 48},
            {"l2_enabled": True, "l2_size": 3 * 64 * 4},
        ],
        ids=lambda overrides: ",".join(f"{k}={v}" for k, v in overrides.items()),
    )
    def test_rejected_before_the_run(self, overrides):
        config = MachineConfig(**overrides)
        with pytest.raises(ValueError):
            config.validate()
        with pytest.raises(ValueError):
            Machine(parse_program(TRAFFIC), config)

    def test_disabled_l2_geometry_is_not_checked(self):
        MachineConfig(l2_size=3 * 64 * 4).validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"store_buffer_depth": 1, "store_drain_cycles": 0},
            {"predictor_entries": 1},
            {"icache_size": 32, "icache_line": 32, "icache_assoc": 1},
        ],
    )
    def test_smallest_legal_models_run_on_both_engines(self, overrides):
        config = MachineConfig(**overrides)
        simple = Machine(parse_program(TRAFFIC), config, engine="simple").run()
        fast = Machine(parse_program(TRAFFIC), config, engine="fast").run()
        assert fast.counters == simple.counters
        assert fast.return_value == simple.return_value == 1128
