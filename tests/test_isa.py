"""Unit tests for the MB32 ISA definition, encoder and decoder."""

import pytest

from repro.isa import (
    BY_MNEMONIC,
    INSTRUCTION_SET,
    decode,
    encode,
)
from repro.isa.decoder import DecodeError
from repro.isa.registers import parse_reg, reg_name


class TestRegisters:
    def test_round_trip_names(self):
        for i in range(32):
            assert parse_reg(reg_name(i)) == i

    def test_case_insensitive(self):
        assert parse_reg("R7") == 7

    @pytest.mark.parametrize("bad", ["r32", "r-1", "x3", "r", "sp"])
    def test_rejects_bad_names(self, bad):
        with pytest.raises(ValueError):
            parse_reg(bad)


class TestEncodeDecode:
    def test_add_round_trip(self):
        word = encode(BY_MNEMONIC["add"], rd=3, ra=4, rb=5)
        instr = decode(word)
        assert instr.mnemonic == "add"
        assert (instr.rd, instr.ra, instr.rb) == (3, 4, 5)

    def test_addi_negative_imm(self):
        word = encode(BY_MNEMONIC["addi"], rd=1, ra=1, imm=-8)
        instr = decode(word)
        assert instr.mnemonic == "addi"
        assert instr.imm == -8

    def test_imm_range_check(self):
        with pytest.raises(ValueError):
            encode(BY_MNEMONIC["addi"], rd=1, ra=1, imm=1 << 17)

    def test_register_range_check(self):
        with pytest.raises(ValueError):
            encode(BY_MNEMONIC["add"], rd=32, ra=0, rb=0)

    def test_all_instructions_round_trip(self):
        """Every spec encodes and decodes back to itself."""
        for spec in INSTRUCTION_SET:
            fields = {}
            for op in spec.operands:
                if op in ("rd", "ra", "rb"):
                    fields[op] = 7
                elif op == "imm":
                    fields[op] = 4 if spec.kind == "bs" else 12
                elif op == "fsl":
                    fields[op] = 3
            word = encode(spec, **fields)
            instr = decode(word)
            assert instr.mnemonic == spec.mnemonic, (
                f"{spec.mnemonic} decoded as {instr.mnemonic} "
                f"(word {word:#010x})"
            )

    def test_cmp_vs_rsubk_disambiguation(self):
        rsubk = encode(BY_MNEMONIC["rsubk"], rd=1, ra=2, rb=3)
        cmp_ = encode(BY_MNEMONIC["cmp"], rd=1, ra=2, rb=3)
        cmpu = encode(BY_MNEMONIC["cmpu"], rd=1, ra=2, rb=3)
        assert decode(rsubk).mnemonic == "rsubk"
        assert decode(cmp_).mnemonic == "cmp"
        assert decode(cmpu).mnemonic == "cmpu"

    def test_branch_variants_disambiguation(self):
        for mn in ("br", "brd", "bra", "brad"):
            word = encode(BY_MNEMONIC[mn], rb=9)
            assert decode(word).mnemonic == mn
        for mn in ("brld", "brald"):
            word = encode(BY_MNEMONIC[mn], rd=15, rb=9)
            assert decode(word).mnemonic == mn

    def test_conditional_branch_codes(self):
        for cond in ("eq", "ne", "lt", "le", "gt", "ge"):
            for suffix in ("", "d"):
                mn = f"b{cond}{suffix}"
                word = encode(BY_MNEMONIC[mn], ra=4, rb=5)
                assert decode(word).mnemonic == mn

    def test_fsl_channel_encoding(self):
        word = encode(BY_MNEMONIC["get"], rd=3, fsl=5)
        instr = decode(word)
        assert instr.mnemonic == "get"
        assert instr.fsl_id == 5

    def test_fsl_variants(self):
        for mn in ("get", "nget", "cget", "ncget"):
            word = encode(BY_MNEMONIC[mn], rd=3, fsl=2)
            assert decode(word).mnemonic == mn
        for mn in ("put", "nput", "cput", "ncput"):
            word = encode(BY_MNEMONIC[mn], ra=3, fsl=2)
            assert decode(word).mnemonic == mn

    def test_unknown_opcode_raises(self):
        with pytest.raises(DecodeError):
            decode(0xFFFFFFFF)

    def test_equal_words_decode_to_one_shared_object(self):
        word = encode(BY_MNEMONIC["addik"], rd=3, ra=4, imm=-12)
        first = decode(word)
        assert decode(int(str(word))) is first
        assert first.imm == -12

    def test_a_bad_word_raises_on_every_call(self):
        from repro.isa import decoder

        for _ in range(3):
            with pytest.raises(DecodeError):
                decode(0xFFFFFFFF)
        assert 0xFFFFFFFF not in decoder._memo

    def test_the_decode_memo_stays_bounded(self, monkeypatch):
        from repro.isa import decoder

        monkeypatch.setattr(decoder, "DECODE_CACHE_LIMIT", 4)
        monkeypatch.setattr(decoder, "_memo", {})
        words = [encode(BY_MNEMONIC["addik"], rd=1, ra=2, imm=i)
                 for i in range(10)]
        for word in words:
            decode(word)
        assert list(decoder._memo) == words[-4:]

    def test_shift_imm_discriminators(self):
        for mn in ("bsrli", "bsrai", "bslli"):
            word = encode(BY_MNEMONIC[mn], rd=1, ra=2, imm=7)
            instr = decode(word)
            assert instr.mnemonic == mn
            assert instr.imm & 0x1F == 7

    def test_encodings_are_unique(self):
        """No two specs produce the same word for the same operands."""
        seen = {}
        for spec in INSTRUCTION_SET:
            fields = {}
            for op in spec.operands:
                if op in ("rd", "ra", "rb"):
                    fields[op] = 1
                elif op == "imm":
                    fields[op] = 1
                elif op == "fsl":
                    fields[op] = 1
            word = encode(spec, **fields)
            assert word not in seen, (
                f"{spec.mnemonic} and {seen[word]} share encoding {word:#010x}"
            )
            seen[word] = spec.mnemonic
