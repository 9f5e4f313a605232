"""Processor-configuration sweeps: the paper's point that soft
processors expose "many possible configurations" whose trade-offs the
co-simulation environment must let designers compare."""

import pytest

from repro.iss.cpu import CPUConfig, CPUError
from repro.iss.run import make_cpu, run_to_completion
from repro.mcc import CompileOptions, build_executable
from repro.resources import microblaze_resources


def run_with(source, *, mult=True, barrel=True, divider=False):
    opts = CompileOptions(hw_multiplier=mult, hw_divider=divider,
                          hw_barrel_shifter=barrel)
    cfg = CPUConfig(use_hw_multiplier=mult, use_hw_divider=divider,
                    use_barrel_shifter=barrel)
    program = build_executable(source, opts)
    code, cpu = run_to_completion(program, config=cfg)
    assert code is not None
    return code, cpu


MULT_HEAVY = """
int main(void) {
    int acc = 0;
    for (int i = 1; i <= 20; i++) acc += i * (i + 3);
    return acc;
}
"""

SHIFT_HEAVY = """
int main(void) {
    int acc = 0;
    for (int i = 0; i < 16; i++) acc += (0x40000 >> i) + (1 << i);
    return acc & 0xFFFF;
}
"""


class TestConfigurationCorrectness:
    @pytest.mark.parametrize("mult", [True, False])
    @pytest.mark.parametrize("barrel", [True, False])
    def test_all_configs_agree(self, mult, barrel):
        baseline, _ = run_with(MULT_HEAVY)
        code, _ = run_with(MULT_HEAVY, mult=mult, barrel=barrel)
        assert code == baseline

    def test_shift_heavy_configs_agree(self):
        baseline, _ = run_with(SHIFT_HEAVY)
        code, _ = run_with(SHIFT_HEAVY, barrel=False)
        assert code == baseline

    def test_divider_config_agrees(self):
        src = "int main(void) { int a = -9999; return a / 13 + a % 13; }"
        soft, _ = run_with(src)
        hard, _ = run_with(src, divider=True)
        assert soft == hard


class TestConfigurationTradeoffs:
    def test_soft_multiply_costs_cycles_saves_mults(self):
        _, hw = run_with(MULT_HEAVY, mult=True)
        _, sw = run_with(MULT_HEAVY, mult=False)
        assert sw.cycle > hw.cycle  # slower without the multiplier...
        r_hw = microblaze_resources(use_hw_multiplier=True)
        r_sw = microblaze_resources(use_hw_multiplier=False)
        assert r_sw.mult18 < r_hw.mult18  # ...but smaller

    def test_no_barrel_shifter_costs_cycles_saves_slices(self):
        _, hw = run_with(SHIFT_HEAVY, barrel=True)
        _, sw = run_with(SHIFT_HEAVY, barrel=False)
        assert sw.cycle > hw.cycle
        assert microblaze_resources(use_barrel_shifter=False).slices < \
            microblaze_resources(use_barrel_shifter=True).slices

    def test_hw_divider_faster_on_division(self):
        src = """
        int main(void) {
            int acc = 0;
            for (int i = 1; i <= 20; i++) acc += 100000 / i;
            return acc > 0;
        }
        """
        _, soft = run_with(src, divider=False)
        _, hard = run_with(src, divider=True)
        assert hard.cycle < soft.cycle


class TestConfigurationEnforcement:
    def test_mismatched_multiplier_config_traps(self):
        """Compiling for hw-mult but running without it must fault, not
        silently miscompute."""
        program = build_executable(MULT_HEAVY,
                                   CompileOptions(hw_multiplier=True))
        cpu = make_cpu(program, config=CPUConfig(use_hw_multiplier=False))
        with pytest.raises(CPUError, match="multiplier"):
            cpu.run()

    def test_mismatched_barrel_config_traps(self):
        program = build_executable(SHIFT_HEAVY,
                                   CompileOptions(hw_barrel_shifter=True))
        cpu = make_cpu(program, config=CPUConfig(use_barrel_shifter=False))
        with pytest.raises(CPUError, match="barrel"):
            cpu.run()
