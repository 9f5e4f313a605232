"""Named multi-processor FSL topologies.

The paper's environment couples *one* MicroBlaze to its peripherals;
the systems it motivates are arrays of soft processors wired together
by the same FSL point-to-point links.  A :class:`TopologySpec` is the
pure-data description of such an array: K processors plus a set of
directed :class:`LinkSpec` edges, each edge one FSL FIFO connected as a
master (``put``) channel on the source CPU and a slave (``get``)
channel on the destination CPU.

Three named families cover the classic arrangements:

``pipeline``  CPU *i* feeds CPU *i+1* (channel 0 both ends),
``ring``      a pipeline closed back from the last CPU to the first,
``mesh``      a 2-D grid with bidirectional links between horizontal
              and vertical neighbours.  Per-node channel convention:
              east = 0, west = 1, south = 2, north = 3, for both the
              ``put`` and the ``get`` direction — an east-bound word
              leaves on channel 0 and arrives on the receiver's
              channel 1 (its west port).

Specs are frozen dataclasses with a stable dict round-trip, so a
topology can ride inside a conformance scenario, a golden-trace file
or a checkpoint fingerprint.  Link channel *names* are derived from
the spec (``link_{src}o{ch}_{dst}i{ch}``) and are unique across the
whole system — state dicts, telemetry tracks and fault targets key on
them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bus.fsl import FSLChannel
from repro.iss.fsl import NUM_FSL

TOPOLOGY_KINDS = ("pipeline", "ring", "mesh", "custom")


class TopologyError(ValueError):
    """An ill-formed topology: out-of-range node, duplicate channel."""


@dataclass(frozen=True)
class LinkSpec:
    """One directed FSL link between two CPUs.

    The word stream flows ``src`` → ``dst``: the source CPU ``put``s on
    its master channel ``src_channel``, the destination CPU ``get``s on
    its slave channel ``dst_channel``.
    """

    src: int
    dst: int
    src_channel: int = 0
    dst_channel: int = 0

    @property
    def name(self) -> str:
        return (f"link_{self.src}o{self.src_channel}"
                f"_{self.dst}i{self.dst_channel}")

    def to_dict(self) -> dict:
        return {
            "src": self.src,
            "dst": self.dst,
            "src_channel": self.src_channel,
            "dst_channel": self.dst_channel,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LinkSpec":
        return cls(
            src=int(data["src"]),
            dst=int(data["dst"]),
            src_channel=int(data.get("src_channel", 0)),
            dst_channel=int(data.get("dst_channel", 0)),
        )


@dataclass(frozen=True)
class TopologySpec:
    """K CPUs plus the directed FSL links between them."""

    kind: str
    n_cpus: int
    links: tuple[LinkSpec, ...] = ()
    rows: int = 0  # mesh only
    cols: int = 0  # mesh only

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise TopologyError(f"unknown topology kind {self.kind!r}")
        if self.n_cpus < 1:
            raise TopologyError("a topology needs at least one CPU")
        seen_out: set[tuple[int, int]] = set()
        seen_in: set[tuple[int, int]] = set()
        for link in self.links:
            for node in (link.src, link.dst):
                if not 0 <= node < self.n_cpus:
                    raise TopologyError(
                        f"link {link.name}: node {node} out of range "
                        f"for {self.n_cpus} CPUs")
            for ch in (link.src_channel, link.dst_channel):
                if not 0 <= ch < NUM_FSL:
                    raise TopologyError(
                        f"link {link.name}: FSL channel {ch} out of range")
            out_key = (link.src, link.src_channel)
            in_key = (link.dst, link.dst_channel)
            if out_key in seen_out:
                raise TopologyError(
                    f"output channel {out_key} used by two links")
            if in_key in seen_in:
                raise TopologyError(
                    f"input channel {in_key} used by two links")
            seen_out.add(out_key)
            seen_in.add(in_key)

    # -- named families -------------------------------------------------
    @classmethod
    def pipeline(cls, n_cpus: int) -> "TopologySpec":
        """CPU 0 → CPU 1 → … → CPU n-1, channel 0 everywhere."""
        links = tuple(LinkSpec(src=i, dst=i + 1)
                      for i in range(n_cpus - 1))
        return cls(kind="pipeline", n_cpus=n_cpus, links=links)

    @classmethod
    def ring(cls, n_cpus: int) -> "TopologySpec":
        """A pipeline with a wrap-around link from the last CPU back to
        CPU 0 — tokens circulate."""
        if n_cpus < 2:
            raise TopologyError("a ring needs at least two CPUs")
        links = tuple(LinkSpec(src=i, dst=(i + 1) % n_cpus)
                      for i in range(n_cpus))
        return cls(kind="ring", n_cpus=n_cpus, links=links)

    #: per-node FSL channel ids for the mesh directions (both put and
    #: get side): a word sent east leaves on EAST and arrives on the
    #: receiver's WEST channel, etc.
    EAST, WEST, SOUTH, NORTH = 0, 1, 2, 3

    @classmethod
    def mesh(cls, rows: int, cols: int) -> "TopologySpec":
        """A rows×cols grid with bidirectional horizontal and vertical
        neighbour links (node index = row*cols + col)."""
        if rows < 1 or cols < 1:
            raise TopologyError("mesh needs rows >= 1 and cols >= 1")
        links: list[LinkSpec] = []
        for r in range(rows):
            for c in range(cols):
                node = r * cols + c
                if c + 1 < cols:  # horizontal pair
                    east = node + 1
                    links.append(LinkSpec(node, east, cls.EAST, cls.WEST))
                    links.append(LinkSpec(east, node, cls.WEST, cls.EAST))
                if r + 1 < rows:  # vertical pair
                    south = node + cols
                    links.append(LinkSpec(node, south, cls.SOUTH, cls.NORTH))
                    links.append(LinkSpec(south, node, cls.NORTH, cls.SOUTH))
        return cls(kind="mesh", n_cpus=rows * cols, links=tuple(links),
                   rows=rows, cols=cols)

    @classmethod
    def named(cls, kind: str, n_cpus: int = 0, rows: int = 0,
              cols: int = 0) -> "TopologySpec":
        """Build one of the named families from scalar parameters."""
        if kind == "pipeline":
            return cls.pipeline(n_cpus)
        if kind == "ring":
            return cls.ring(n_cpus)
        if kind == "mesh":
            return cls.mesh(rows, cols)
        raise TopologyError(f"not a named topology family: {kind!r}")

    # -- views ----------------------------------------------------------
    def node_coord(self, node: int) -> tuple[int, int]:
        """(row, col) of a mesh node."""
        if self.kind != "mesh" or self.cols < 1:
            raise TopologyError("node_coord is only defined for meshes")
        return divmod(node, self.cols)

    def signature(self) -> tuple:
        """Structural identity for lockstep grouping and checkpoint
        fingerprints: two systems with the same signature have the same
        wiring (node count, every link endpoint and channel)."""
        return (
            self.kind, self.n_cpus, self.rows, self.cols,
            tuple((l.src, l.src_channel, l.dst, l.dst_channel)
                  for l in self.links),
        )

    def build_channels(self, depth: int = FSLChannel.DEFAULT_DEPTH,
                       ) -> dict[str, FSLChannel]:
        """One FSL FIFO per link, keyed by link name, in link order."""
        return {
            link.name: FSLChannel(depth=depth, name=link.name)
            for link in self.links
        }

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_cpus": self.n_cpus,
            "rows": self.rows,
            "cols": self.cols,
            "links": [l.to_dict() for l in self.links],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TopologySpec":
        return cls(
            kind=data["kind"],
            n_cpus=int(data["n_cpus"]),
            rows=int(data.get("rows", 0)),
            cols=int(data.get("cols", 0)),
            links=tuple(LinkSpec.from_dict(l)
                        for l in data.get("links", [])),
        )
