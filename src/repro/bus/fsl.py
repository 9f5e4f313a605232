"""Fast Simplex Link (FSL) channel model.

An FSL is a unidirectional FIFO carrying 32-bit data words plus one
*control* bit per word (Section III-B of the paper).  MicroBlaze
supports up to 16 FSLs — eight inputs and eight outputs.  Both blocking
and non-blocking access are supported: a blocking read/write stalls the
processor until it can complete; a non-blocking access never stalls and
reports failure through the carry flag.

The channel exposes both endpoints:

* the *master* side pushes words (``push``) — the processor for
  processor→peripheral channels, the peripheral for the reverse,
* the *slave* side pops words (``pop``) and can ``peek`` the head.

Handshake flags match the paper's signal names: ``exists`` (data
available at the slave side, the paper's ``Out#_exists``) and ``full``
(FIFO cannot accept more data, the paper's ``In#_full``).

A channel keeps all of its state in one *row* of int64 values: the ring
head, the word count, the depth, the five statistics counters
(:data:`ROW_FIELDS`), then a ring of ``2 * depth`` words packed as
``data | control << 32``.  The spare half of the ring holds words a
fault pushed past the physical depth (a duplicated word on a full
FIFO), which :mod:`repro.faults.detect` reports as an overflow.  The
processor, the scalar hardware engines, the fault injector and
checkpoints all go through the methods below.  A channel that stands
alone keeps its row in a python list, the fastest to index from
python; the lockstep engine copies the rows of its lanes' channels into
one int64 lane table and each channel *adopts* its row of that table
(:meth:`FSLChannel.adopt`), so the vector FSL endpoints and the native
kernel read and write the very state the lane's CPU sees
(:mod:`repro.sysgen.blocks.fsl`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.telemetry.events import FSL_POP, FSL_PUSH, TelemetryEvent


@dataclass(frozen=True)
class FSLWord:
    """One FIFO entry: a 32-bit data word plus the control bit."""

    data: int
    control: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.data <= 0xFFFFFFFF:
            raise ValueError(f"FSL data must be a 32-bit word, got {self.data:#x}")


def _unpacked(word: int) -> FSLWord:
    """The :class:`FSLWord` of a ring cell packed ``data | control <<
    32`` (bit 33 ignored), built without the range check: the ring
    holds masked words only."""
    unpacked = object.__new__(FSLWord)
    fields = unpacked.__dict__
    fields["data"] = word & _MASK
    fields["control"] = bool(word >> 32 & 1)
    return unpacked


#: the leading cells of a channel's row, in order; the ring follows
ROW_FIELDS = ("head", "count", "depth", "total_pushed", "total_popped",
              "push_rejects", "pop_rejects", "max_occupancy")
(HEAD, COUNT, DEPTH, PUSHED, POPPED, PUSH_REJECTS, POP_REJECTS,
 MAX_OCCUPANCY, RING) = range(len(ROW_FIELDS) + 1)
_STATS = ROW_FIELDS[PUSHED:]
_MASK = 0xFFFFFFFF


def row_width(depth: int) -> int:
    """Cells in the row of a channel ``depth`` words deep: the fields,
    then a ring of twice the depth (room for fault-injected words)."""
    return RING + 2 * depth


def _counter(k: int, doc: str) -> property:
    def get(self) -> int:
        return self._row[k]

    def put(self, value: int) -> None:
        self._row[k] = value

    return property(get, put, doc=doc)


class FSLChannel:
    """A single unidirectional FSL FIFO.

    Parameters
    ----------
    depth:
        FIFO depth in words.  Xilinx's default FSL depth is 16.
    name:
        Optional label used in traces and error messages.
    """

    DEFAULT_DEPTH = 16

    # --- statistics -----------------------------------------------------
    total_pushed = _counter(PUSHED, "Words accepted.")
    total_popped = _counter(POPPED, "Words consumed.")
    push_rejects = _counter(PUSH_REJECTS, "Push attempts while full.")
    pop_rejects = _counter(POP_REJECTS, "Pop attempts while empty.")
    max_occupancy = _counter(MAX_OCCUPANCY, "Highest occupancy a push left.")

    def __init__(self, depth: int = DEFAULT_DEPTH, name: str = "fsl"):
        if depth < 1:
            raise ValueError("FSL depth must be >= 1")
        self.name = name
        self._depth = depth
        #: the state (see the module docstring): a list until a lane
        #: table's int64 row is adopted
        self._row = [0] * row_width(depth)
        self._row[DEPTH] = depth
        #: optional :class:`~repro.telemetry.events.EventBus`; when set,
        #: successful pushes/pops emit events timestamped via ``clock``
        self.events = None
        #: zero-arg callable giving the current simulation cycle for
        #: telemetry timestamps (set together with ``events``)
        self.clock = None

    @property
    def depth(self) -> int:
        """FIFO depth in words (fixed at construction)."""
        return self._depth

    def adopt(self, row) -> None:
        """Move the channel's state into ``row``, a writable contiguous
        int64 buffer of at least :func:`row_width` cells (a lockstep
        lane table's row), and keep it there: every later access reads
        and writes ``row``."""
        row = memoryview(row).cast("B").cast("q")
        width = row_width(self._depth)
        row[:width] = array("q", self._row[:width])
        self._row = row

    # ------------------------------------------------------------------
    # Status flags (the paper's handshake signals)
    # ------------------------------------------------------------------
    @property
    def exists(self) -> bool:
        """True when data is available (``Out#_exists`` high)."""
        return self._row[COUNT] > 0

    @property
    def full(self) -> bool:
        """True when the FIFO cannot accept more data (``In#_full``)."""
        return self._row[COUNT] >= self._depth

    @property
    def occupancy(self) -> int:
        return self._row[COUNT]

    # ------------------------------------------------------------------
    # Master (writer) side
    # ------------------------------------------------------------------
    def can_push(self) -> bool:
        return not self.full

    def push(self, data: int, control: bool = False) -> bool:
        """Try to append a word.  Returns False (and counts a reject)
        when the FIFO is full — the caller decides whether to stall
        (blocking mode) or continue (non-blocking mode)."""
        row = self._row
        count, depth = row[COUNT], self._depth
        if count >= depth:
            row[PUSH_REJECTS] += 1
            return False
        data &= _MASK
        row[RING + (row[HEAD] + count) % (2 * depth)] = \
            data | (1 << 32 if control else 0)
        count += 1
        row[COUNT] = count
        row[PUSHED] += 1
        if count > row[MAX_OCCUPANCY]:
            row[MAX_OCCUPANCY] = count
        if self.events is not None:
            self.events.emit(TelemetryEvent(
                FSL_PUSH, self.clock() if self.clock is not None else 0,
                self.name, data, count, "ctrl" if control else "",
            ))
        return True

    # ------------------------------------------------------------------
    # Slave (reader) side
    # ------------------------------------------------------------------
    def can_pop(self) -> bool:
        return self._row[COUNT] > 0

    def head(self) -> int:
        """The head word packed as ``data | control << 32 | 1 << 33``
        (bit 33: ``exists``), or 0 when the FIFO is empty — the three
        signals a reader presents, with no :class:`FSLWord` built."""
        row = self._row
        return row[RING + row[HEAD]] | 1 << 33 if row[COUNT] else 0

    def peek(self) -> FSLWord | None:
        """Head of the FIFO without consuming it (combinational read
        of the data/control/exists signals)."""
        word = self.head()
        return _unpacked(word) if word else None

    def pop(self) -> FSLWord | None:
        """Consume and return the head word, or None when empty."""
        word = self.take()
        return None if word < 0 else _unpacked(word)

    def take(self) -> int:
        """:meth:`pop`, returning the word packed as ``data | control
        << 32`` (-1 when empty) instead of building an :class:`FSLWord`."""
        row = self._row
        count = row[COUNT]
        if not count:
            row[POP_REJECTS] += 1
            return -1
        head = row[HEAD]
        word = row[RING + head]
        row[HEAD] = (head + 1) % (2 * self._depth)
        row[COUNT] = count - 1
        row[POPPED] += 1
        if self.events is not None:
            self.events.emit(TelemetryEvent(
                FSL_POP, self.clock() if self.clock is not None else 0,
                self.name, word & _MASK, count - 1,
                "ctrl" if word >> 32 else "",
            ))
        return word

    # ------------------------------------------------------------------
    # Faults: the queue changes, the statistics do not
    # ------------------------------------------------------------------
    def flip(self, pos: int, bit: int) -> None:
        """Flip data bit ``bit`` of the word ``pos`` places behind the
        head (``0 <= pos < occupancy``)."""
        row = self._row
        row[RING + (row[HEAD] + pos) % (2 * self._depth)] ^= 1 << (bit % 32)

    def lose(self, words: int) -> int:
        """Lose up to ``words`` words at the head; returns how many."""
        row = self._row
        lost = min(words, row[COUNT])
        row[HEAD] = (row[HEAD] + lost) % (2 * self._depth)
        row[COUNT] -= lost
        return lost

    def duplicate(self, pos: int) -> bool:
        """Queue a copy of the word ``pos`` places behind the head right
        before it — past the depth, if the FIFO is full.  False (and no
        change) when the ring has no free slot left."""
        words = self._words()
        if len(words) >= 2 * self._depth:
            return False
        words.insert(pos, words[pos])
        self._store(words)
        return True

    # ------------------------------------------------------------------
    def _words(self) -> list[int]:
        """The queued words, head first, packed."""
        row = self._row
        head, count, ring = row[HEAD], row[COUNT], 2 * self._depth
        return [row[RING + (head + i) % ring] for i in range(count)]

    def _store(self, words: list[int]) -> None:
        """Queue exactly ``words`` (packed), head at ring slot 0."""
        row = self._row
        if len(words) > 2 * self._depth:
            raise ValueError(f"{len(words)} words overflow the ring of "
                             f"depth-{self._depth} FSL {self.name!r}")
        for i, word in enumerate(words):
            row[RING + i] = word
        row[HEAD] = 0
        row[COUNT] = len(words)

    def reset(self, reset_stats: bool = True) -> None:
        """Drop all queued words and, unless ``reset_stats=False``,
        clear the accumulated statistics too — a re-run after
        :meth:`reset` must not report the previous run's FIFO traffic.
        Pass ``reset_stats=False`` to keep counters accumulating across
        runs (e.g. multi-run profiling)."""
        row = self._row
        row[HEAD] = row[COUNT] = 0
        if reset_stats:
            for k in range(PUSHED, RING):
                row[k] = 0

    def state_dict(self) -> dict:
        """Queued words plus statistics, JSON-safe (checkpointing)."""
        state = {"fifo": [[w & _MASK, w >> 32] for w in self._words()]}
        state.update((name, getattr(self, name)) for name in _STATS)
        return state

    def load_state(self, state: dict) -> None:
        self._store([FSLWord(data, bool(control)).data
                     | (1 << 32 if control else 0)
                     for data, control in state["fifo"]])
        for name in _STATS:
            setattr(self, name, state[name])

    def __len__(self) -> int:
        return self._row[COUNT]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FSLChannel({self.name!r}, depth={self.depth}, "
                f"occupancy={len(self)})")
