"""CPU-side FSL port unit.

MicroBlaze has up to eight *input* FSLs (peripheral → processor, read
with ``get``-family instructions) and eight *output* FSLs (processor →
peripheral, written with ``put``-family instructions).  This unit owns
the mapping from FSL channel numbers to :class:`~repro.bus.fsl.FSLChannel`
objects and implements the get/put semantics, including the control-bit
mismatch flag and non-blocking failure reporting.
"""

from __future__ import annotations

from repro.bus.fsl import FSLChannel

NUM_FSL = 8


class FSLConfigError(ValueError):
    """Raised for invalid channel configuration or access."""


class FSLPorts:
    """The processor's FSL interface: 8 input + 8 output channels."""

    def __init__(self) -> None:
        self.inputs: list[FSLChannel | None] = [None] * NUM_FSL
        self.outputs: list[FSLChannel | None] = [None] * NUM_FSL
        #: set when a get/cget saw a control-bit mismatch (MSR[FSL]).
        self.error = False

    def state_dict(self) -> dict:
        """Only the sticky error flag is port-unit state; the channels
        themselves are owned (and checkpointed) by the hardware side."""
        return {"error": self.error}

    def load_state(self, state: dict) -> None:
        self.error = state["error"]

    def connect_input(self, channel_id: int, channel: FSLChannel) -> None:
        """Attach ``channel`` as input FSL ``channel_id`` (read side)."""
        self._check_id(channel_id)
        self.inputs[channel_id] = channel

    def connect_output(self, channel_id: int, channel: FSLChannel) -> None:
        """Attach ``channel`` as output FSL ``channel_id`` (write side)."""
        self._check_id(channel_id)
        self.outputs[channel_id] = channel

    @staticmethod
    def _check_id(channel_id: int) -> None:
        if not 0 <= channel_id < NUM_FSL:
            raise FSLConfigError(f"FSL channel id out of range: {channel_id}")

    def _input(self, channel_id: int) -> FSLChannel:
        self._check_id(channel_id)
        ch = self.inputs[channel_id]
        if ch is None:
            raise FSLConfigError(f"input FSL {channel_id} not connected")
        return ch

    def _output(self, channel_id: int) -> FSLChannel:
        self._check_id(channel_id)
        ch = self.outputs[channel_id]
        if ch is None:
            raise FSLConfigError(f"output FSL {channel_id} not connected")
        return ch

    # ------------------------------------------------------------------
    # Instruction semantics.  Each returns (completed, value_or_None).
    # For blocking accesses the CPU retries every cycle until completed.
    # ------------------------------------------------------------------
    def get(self, channel_id: int, control: bool) -> tuple[bool, int | None]:
        """``get``/``cget`` semantics: pop one word if available."""
        word = self._input(channel_id).take()
        if word < 0:
            return False, None
        if bool(word >> 32) != control:
            self.error = True
        return True, word & 0xFFFFFFFF

    def put(self, channel_id: int, value: int, control: bool) -> bool:
        """``put``/``cput`` semantics: push one word if space."""
        ch = self._output(channel_id)
        return ch.push(value, control)

    def input_exists(self, channel_id: int) -> bool:
        return self._input(channel_id).exists

    def output_full(self, channel_id: int) -> bool:
        return self._output(channel_id).full
