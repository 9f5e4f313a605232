"""Tests for the bus models: FSL channels, LMB controllers, OPB."""

import pytest
from hypothesis import given, strategies as st

from repro.bus import (
    FSLChannel,
    LMBController,
    OPBBus,
    OPBRegisterSlave,
)
from repro.bus.opb import OPBBusError
from repro.iss.memory import BRAM


class TestFSLChannel:
    def test_fifo_order(self):
        ch = FSLChannel()
        for v in (1, 2, 3):
            assert ch.push(v)
        assert [ch.pop().data for _ in range(3)] == [1, 2, 3]

    def test_depth_enforced(self):
        ch = FSLChannel(depth=2)
        assert ch.push(1) and ch.push(2)
        assert not ch.push(3)
        assert ch.push_rejects == 1
        assert ch.full

    def test_pop_empty_returns_none(self):
        ch = FSLChannel()
        assert ch.pop() is None
        assert ch.pop_rejects == 1

    def test_control_bit_preserved(self):
        ch = FSLChannel()
        ch.push(5, control=True)
        word = ch.pop()
        assert word.control is True

    def test_peek_does_not_consume(self):
        ch = FSLChannel()
        ch.push(7)
        assert ch.peek().data == 7
        assert len(ch) == 1

    def test_flags(self):
        ch = FSLChannel(depth=1)
        assert not ch.exists and not ch.full
        ch.push(1)
        assert ch.exists and ch.full

    def test_statistics(self):
        ch = FSLChannel()
        ch.push(1)
        ch.push(2)
        ch.pop()
        assert ch.total_pushed == 2
        assert ch.total_popped == 1
        assert ch.max_occupancy == 2

    def test_data_masked_to_32_bits(self):
        ch = FSLChannel()
        ch.push(0x1_FFFF_FFFF)
        assert ch.pop().data == 0xFFFFFFFF

    def test_words_out_of_the_ring_skip_the_range_check(self, monkeypatch):
        # The ring holds masked words, so pop()/peek() build theirs
        # without FSLWord's range check; a word built by hand keeps it.
        from repro.bus.fsl import FSLWord

        for bad in (0x1_0000_0000, -1):
            with pytest.raises(ValueError):
                FSLWord(bad)
        ch = FSLChannel()
        ch.push(0xFFFFFFFF, control=True)
        ch.push(0)
        checked = []
        monkeypatch.setattr(FSLWord, "__post_init__", checked.append)
        words = [ch.peek(), ch.pop(), ch.pop(), ch.peek(), ch.pop()]
        assert checked == []
        monkeypatch.undo()
        want = [FSLWord(0xFFFFFFFF, True)] * 2 + [FSLWord(0), None, None]
        assert words == want
        assert [hash(w) for w in words] == [hash(w) for w in want]
        assert [type(w.control) for w in words[:3]] == [bool] * 3

    def test_reset(self):
        ch = FSLChannel()
        ch.push(1)
        ch.reset()
        assert not ch.exists

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            FSLChannel(depth=0)

    @given(st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF),
                    max_size=40))
    def test_prop_fifo_order_preserved(self, values):
        ch = FSLChannel(depth=64)
        for v in values:
            ch.push(v)
        out = []
        while ch.exists:
            out.append(ch.pop().data)
        assert out == values

    @given(st.lists(st.sampled_from(["push", "pop"]), max_size=60))
    def test_prop_occupancy_invariant(self, ops):
        ch = FSLChannel(depth=4)
        expected = 0
        for op in ops:
            if op == "push":
                if ch.push(1):
                    expected += 1
            else:
                if ch.pop() is not None:
                    expected -= 1
            assert 0 <= len(ch) <= ch.depth
            assert len(ch) == expected


class TestLMB:
    def test_latency_validation(self):
        with pytest.raises(ValueError):
            LMBController(BRAM(64), latency=0)

    def test_counts_transactions(self):
        lmb = LMBController(BRAM(64))
        lmb.write_u32(0, 0xABCD)
        assert lmb.read_u32(0) == 0xABCD
        lmb.write_u16(8, 7)
        lmb.read_u8(8)
        assert lmb.reads == 2
        assert lmb.writes == 2
        assert lmb.transactions == 4


class TestOPB:
    def make(self):
        bus = OPBBus()
        slave = OPBRegisterSlave(num_regs=4)
        bus.attach(0x8000, 16, slave)
        return bus, slave

    def test_read_write(self):
        bus, slave = self.make()
        latency = bus.write_u32(0x8004, 99)
        assert latency == OPBBus.WRITE_LATENCY
        value, latency = bus.read_u32(0x8004)
        assert value == 99
        assert latency == OPBBus.READ_LATENCY
        assert slave.regs[1] == 99

    def test_unmapped_address(self):
        bus, _ = self.make()
        with pytest.raises(OPBBusError):
            bus.read_u32(0x9000)

    def test_overlap_rejected(self):
        bus, _ = self.make()
        with pytest.raises(ValueError, match="overlaps"):
            bus.attach(0x8008, 16, OPBRegisterSlave())

    def test_alignment_required(self):
        bus = OPBBus()
        with pytest.raises(ValueError):
            bus.attach(0x8001, 16, OPBRegisterSlave())

    def test_transaction_counters(self):
        bus, _ = self.make()
        bus.write_u32(0x8000, 1)
        bus.read_u32(0x8000)
        assert bus.writes == 1
        assert bus.reads == 1
