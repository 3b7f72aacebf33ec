"""Path elements: in-path middleboxes and on-path taps.

The paper's threat model distinguishes two capabilities (§2.1):

- an **in-path** device ("middlebox") forwards traffic and may therefore
  *drop or modify* packets;
- an **on-path** device (the GFW) sees *copies* of packets and may
  *inject* new ones, but can never remove a packet from the wire.

Both kinds sit at a hop index along a :class:`~repro.netsim.network.Path`;
TTL-expiry is evaluated against that index, which is what makes low-TTL
insertion packets work (they reach the GFW's hop but die before the
server's).
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence, Union

from repro.netstack.packet import IPPacket


class Direction(enum.Enum):
    """Direction of travel along a path."""

    CLIENT_TO_SERVER = "c2s"
    SERVER_TO_CLIENT = "s2c"

    @property
    def reverse(self) -> "Direction":
        if self is Direction.CLIENT_TO_SERVER:
            return Direction.SERVER_TO_CLIENT
        return Direction.CLIENT_TO_SERVER


class Verdict(enum.Enum):
    """What an in-path element decided to do with a packet."""

    FORWARD = "forward"
    DROP = "drop"
    REPLACE = "replace"


class ProcessResult:
    """Outcome of :meth:`InlineBox.process`.

    ``REPLACE`` carries one or more packets that continue along the path
    in place of the original (e.g. a middlebox reassembling IP fragments
    into a single full packet, Table 2 row 1).
    """

    __slots__ = ("verdict", "packets")

    def __init__(
        self, verdict: Verdict, packets: Optional[Sequence[IPPacket]] = None
    ) -> None:
        self.verdict = verdict
        self.packets = list(packets) if packets else []

    @classmethod
    def replace(cls, packets: Sequence[IPPacket]) -> "ProcessResult":
        return cls(Verdict.REPLACE, packets)


#: FORWARD/DROP results carry no payload, so every middlebox on every
#: packet returns one of these two shared instances instead of
#: allocating its own.
FORWARD = ProcessResult(Verdict.FORWARD)
DROP = ProcessResult(Verdict.DROP)


class PathElement:
    """Base class for anything positioned along a path.

    ``hop`` is the number of routers between the *client* endpoint and
    this element; a packet arrives here with ``ttl_initial - hop``
    remaining (and never arrives if that is <= 0).
    """

    #: Class-level dispatch flag read by the traversal hot loop: taps get
    #: ``observe``, everything else gets ``process``.  An attribute load
    #: beats an ``isinstance`` per element visit.
    is_tap = False

    def __init__(self, name: str, hop: int) -> None:
        self.name = name
        self.hop = hop
        self.path: Optional[object] = None  # backref set by Path.add_element

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} hop={self.hop}>"


class InlineBox(PathElement):
    """An in-path middlebox: may forward, drop, or rewrite packets."""

    def process(
        self, packet: IPPacket, direction: Direction, now: float
    ) -> ProcessResult:
        """Decide the fate of ``packet``; default is to forward."""
        return FORWARD


class Tap(PathElement):
    """An on-path monitor: sees copies, can inject, can never drop.

    Subclasses (the GFW device) implement :meth:`observe` and use
    :meth:`inject` to put forged packets on the wire from their own hop
    position.
    """

    #: When True (the default, and the documented contract) the network
    #: hands :meth:`observe` a defensive copy.  A subclass that promises
    #: to treat observed packets as read-only — and not to retain them
    #: past the synchronous observe call — may set this to False and
    #: receive the live object, skipping two allocations per observation
    #: on the simulator's hottest path.
    observe_copies = True

    is_tap = True

    def observe(self, packet: IPPacket, direction: Direction, now: float) -> None:
        """Called with a copy of every packet that survives to this hop."""

    def inject(self, packets: Sequence[IPPacket]) -> None:
        """Put forged ``packets`` on the wire from this tap's hop, in order.

        Each heads toward the path end that owns its destination address.
        A whole volley is one call; a single packet is a one-item volley.
        """
        path = self.path
        if path is None:
            raise RuntimeError(f"tap {self.name} is not attached to a path")
        network = path.network  # type: ignore[attr-defined]
        if network is None:
            raise RuntimeError(f"tap {self.name}'s path is not attached to a network")
        for packet in packets:
            packet.meta.setdefault("injected_by", self.name)
        network.launch(path, packets, self.hop, self.name)


PathElementLike = Union[InlineBox, Tap]
