"""The "MicroBlaze Simulink block" (paper Section III-A/III-B).

The block provides the bridge between the software simulation and the
hardware model:

1. it owns the FSL FIFO channels (data + control bit, blocking and
   non-blocking modes),
2. it exposes the hardware-side handshake ports into the sysgen model
   through :class:`~repro.sysgen.blocks.fsl.FSLRead` /
   :class:`~repro.sysgen.blocks.fsl.FSLWrite` blocks
   (``Out#_data/exists/control`` and ``In#_data/write/full`` in the
   paper's naming),
3. it connects the same channel objects to the CPU's FSL unit so a
   blocking ``get``/``put`` stalls the simulated processor exactly
   until the hardware side produces/consumes data.

Channel binding may happen before or after ``model.compile()``: the
compiled schedule fetches each FSL block's bound channel at call entry
(never at code-generation time), so ``master_fsl``/``slave_fsl`` can
be called at any point during model construction and an unbound block
still raises :class:`~repro.sysgen.blocks.fsl.FSLBindError` at the
same step it would under the interpreter.
"""

from __future__ import annotations

from repro.bus.fsl import FSLChannel
from repro.iss.fsl import FSLPorts, NUM_FSL
from repro.sysgen.blocks.fsl import FSLRead, FSLWrite
from repro.sysgen.model import Model


class MicroBlazeBlock:
    """FSL hub between one CPU and one sysgen model."""

    def __init__(self, model: Model | None,
                 fifo_depth: int = FSLChannel.DEFAULT_DEPTH,
                 prefix: str = "mb_"):
        """``prefix`` namespaces the channel names (``{prefix}out{id}`` /
        ``{prefix}in{id}``).  The default keeps the historical single-CPU
        names; multi-CPU environments pass a per-node prefix so channel
        names stay unique across the whole topology (checkpoint state
        dicts, telemetry tracks and fault targets are keyed by name)."""
        self.model = model
        self.fifo_depth = fifo_depth
        self.prefix = prefix
        self.fsl_ports = FSLPorts()  # plugs into the CPU
        self._to_hw: dict[int, FSLChannel] = {}
        self._from_hw: dict[int, FSLChannel] = {}
        self.read_blocks: dict[int, FSLRead] = {}
        self.write_blocks: dict[int, FSLWrite] = {}

    # ------------------------------------------------------------------
    def master_fsl(self, channel_id: int, name: str | None = None) -> FSLRead:
        """Create a processor→peripheral FSL (CPU ``put`` side) and
        return the hardware-side :class:`FSLRead` block, already added
        to the model and bound to the channel."""
        self._check(channel_id, self._to_hw)
        channel = FSLChannel(depth=self.fifo_depth,
                             name=f"{self.prefix}out{channel_id}")
        self._to_hw[channel_id] = channel
        self.fsl_ports.connect_output(channel_id, channel)
        block = FSLRead(name or f"fsl_out{channel_id}")
        self.model.add(block)
        block.bind(channel)
        self.read_blocks[channel_id] = block
        return block

    def slave_fsl(self, channel_id: int, name: str | None = None) -> FSLWrite:
        """Create a peripheral→processor FSL (CPU ``get`` side) and
        return the hardware-side :class:`FSLWrite` block."""
        self._check(channel_id, self._from_hw)
        channel = FSLChannel(depth=self.fifo_depth,
                             name=f"{self.prefix}in{channel_id}")
        self._from_hw[channel_id] = channel
        self.fsl_ports.connect_input(channel_id, channel)
        block = FSLWrite(name or f"fsl_in{channel_id}")
        self.model.add(block)
        block.bind(channel)
        self.write_blocks[channel_id] = block
        return block

    @staticmethod
    def _check(channel_id: int, table: dict) -> None:
        if not 0 <= channel_id < NUM_FSL:
            raise ValueError(f"FSL channel id out of range: {channel_id}")
        if channel_id in table:
            raise ValueError(f"FSL channel {channel_id} already created")

    def channel_copy(self) -> "MicroBlazeBlock":
        """A hub with this one's channel set — the same ids, names and
        depths, empty — and its own FSL ports, but no model and no
        endpoint blocks: what a lockstep lane owns of the hub while its
        hardware runs in a batch (:mod:`repro.cosim.batch`)."""
        copy = MicroBlazeBlock(None, self.fifo_depth, self.prefix)
        for cid, ch in self._to_hw.items():
            copy._to_hw[cid] = FSLChannel(depth=ch.depth, name=ch.name)
            copy.fsl_ports.connect_output(cid, copy._to_hw[cid])
        for cid, ch in self._from_hw.items():
            copy._from_hw[cid] = FSLChannel(depth=ch.depth, name=ch.name)
            copy.fsl_ports.connect_input(cid, copy._from_hw[cid])
        return copy

    def bind_endpoints(self, hub: "MicroBlazeBlock") -> None:
        """Bind ``hub``'s endpoint blocks to this hub's channels of the
        same ids (a lane's model built after :meth:`channel_copy`)."""
        for cid, block in hub.read_blocks.items():
            block.bind(self._to_hw[cid])
        for cid, block in hub.write_blocks.items():
            block.bind(self._from_hw[cid])

    # ------------------------------------------------------------------
    def to_hw_channel(self, channel_id: int) -> FSLChannel:
        return self._to_hw[channel_id]

    def from_hw_channel(self, channel_id: int) -> FSLChannel:
        return self._from_hw[channel_id]

    @property
    def n_links(self) -> int:
        """Total FSL links instantiated (for resource estimation)."""
        return len(self._to_hw) + len(self._from_hw)

    def channels(self) -> tuple[FSLChannel, ...]:
        """All FSL channels of the block, processor→peripheral first —
        the public view of its links (companion to
        :meth:`channel_occupancies`), used by tracing and diagnostics
        instead of reaching into the internal channel tables."""
        return (*self._to_hw.values(), *self._from_hw.values())

    def channel_occupancies(self) -> dict[str, int]:
        """Current FIFO occupancy per channel, keyed by channel name —
        both directions.  Diagnostic view used e.g. by the co-simulation
        deadlock reporter."""
        return {ch.name: ch.occupancy for ch in self.channels()}

    def reset(self, reset_stats: bool = True) -> None:
        for ch in self.channels():
            ch.reset(reset_stats=reset_stats)

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Per-channel FIFO contents + statistics, keyed by name."""
        return {ch.name: ch.state_dict() for ch in self.channels()}

    def load_state(self, state: dict) -> None:
        channels = {ch.name: ch for ch in self.channels()}
        if set(state) != set(channels):
            missing = set(channels).symmetric_difference(state)
            raise ValueError(
                "checkpoint channel set does not match this block: "
                + ", ".join(sorted(missing))
            )
        for name, ch in channels.items():
            ch.load_state(state[name])
