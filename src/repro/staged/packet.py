"""Packets and batch buffers for staged execution (Section 6.3).

A staged database system decomposes queries into *packets* routed to
per-operator *stages*.  Between stages, tuples travel in small batch
buffers; the locality argument of the paper (Section 6.2, the STEPS-style
producer/consumer binding) is that a batch sized to the L1D and consumed on
the producer's core is read back at L1 cost, while an unscheduled consumer
on another core pays on-chip transfer or L2 cost for every batch line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..simulator.addresses import AddressSpace, Region

#: Bytes per buffered tuple slot.
TUPLE_SLOT_BYTES = 32


@dataclass
class Packet:
    """One unit of routed work: ``count`` tuples for stage ``stage_name``.

    Attributes:
        stage_name: Destination stage.
        client: Originating client label (packets of one query share it).
        rows: The tuples themselves (engine-level payload).
        batch: The buffer region holding them (address-level payload).
        count: Number of tuples in the batch.
    """

    stage_name: str
    client: str
    rows: list[tuple]
    batch: "BatchBuffer"
    count: int = field(init=False)

    def __post_init__(self):
        self.count = len(self.rows)


class BatchBuffer:
    """A reusable inter-stage buffer of ``capacity`` tuple slots.

    Buffers rotate through a small ring so that a producer never overwrites
    a batch its consumer has not read (double buffering); all of a query's
    buffers together are sized to fit comfortably in an L1D.
    """

    def __init__(self, space: AddressSpace, name: str, capacity: int):
        if capacity <= 0:
            raise ValueError("batch capacity must be positive")
        self.capacity = capacity
        self.region: Region = space.alloc(
            f"staged:batch:{name}", capacity * TUPLE_SLOT_BYTES
        )

    def slot_addr(self, slot: int) -> int:
        """Address of tuple slot ``slot``.

        Raises:
            IndexError: if the slot is out of range.
        """
        if not 0 <= slot < self.capacity:
            raise IndexError(f"slot {slot} out of range")
        return self.region.base + slot * TUPLE_SLOT_BYTES

    @property
    def bytes(self) -> int:
        """Buffer footprint in bytes."""
        return self.region.size


class BufferRing:
    """A ring of :class:`BatchBuffer` instances for one stage boundary."""

    def __init__(self, space: AddressSpace, name: str, capacity: int,
                 depth: int = 2):
        if depth <= 0:
            raise ValueError("ring depth must be positive")
        self._buffers = [
            BatchBuffer(space, f"{name}:{i}", capacity) for i in range(depth)
        ]
        self._next = 0

    def acquire(self) -> BatchBuffer:
        """The next buffer in rotation."""
        buf = self._buffers[self._next]
        self._next = (self._next + 1) % len(self._buffers)
        return buf
