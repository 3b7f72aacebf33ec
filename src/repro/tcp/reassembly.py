"""Receive-side sequence-space reassembly with overlap preferences.

The "data reassembly" family of evasion strategies (§3.2) turns on how a
receiver resolves two kinds of conflict:

- **in-order overlap** — a second segment arrives covering bytes at or
  below ``rcv_nxt``: every implementation (server and GFW alike) keeps the
  data it already consumed, so a junk segment that arrives *first* and is
  only seen by the GFW permanently poisons the GFW's stream;
- **out-of-order overlap** — two queued segments cover the same range:
  implementations differ (first-wins vs last-wins), and the divergence
  between the GFW's preference and the server's is itself an evasion
  channel.

:class:`ReceiveBuffer` implements both, parameterized by
:class:`~repro.netstack.fragment.OverlapPolicy`, and is shared by the
endpoint stacks and the GFW's stream reassembler so the discrepancy is a
configuration difference, not two divergent code bases.
"""

from __future__ import annotations

from typing import Dict

from repro.netstack.fragment import OverlapPolicy
from repro.netstack.packet import seq_sub


class ReceiveBuffer:
    """Sequence-space byte accumulator for one direction of a connection.

    Bytes before ``rcv_nxt`` are trimmed on arrival (in-order, first wins
    by construction).  Bytes at or beyond ``rcv_nxt`` are merged under the
    configured overlap policy; whenever a contiguous run starting at
    ``rcv_nxt`` exists, :meth:`add` returns it and advances ``rcv_nxt``.
    """

    def __init__(
        self,
        rcv_nxt: int,
        policy: OverlapPolicy = OverlapPolicy.FIRST_WINS,
        window: int = 65535,
    ) -> None:
        self.rcv_nxt = rcv_nxt & 0xFFFFFFFF
        self.policy = policy
        self.window = window
        #: relative offset from rcv_nxt -> byte value, for pending bytes
        self._pending: Dict[int, int] = {}
        #: total payload bytes ever delivered in order
        self.delivered_bytes = 0

    def add(self, seq: int, data: bytes) -> bytes:
        """Merge ``data`` at ``seq``; return newly in-order bytes (may be b"").

        Data entirely outside the receive window is ignored (the caller is
        responsible for the duplicate-ACK response).
        """
        if not data:
            return b""
        offset = seq_sub(seq, self.rcv_nxt)
        if offset + len(data) <= 0:
            return b""  # entirely old data
        if offset < 0:
            data = data[-offset:]
            offset = 0
        if offset >= self.window:
            return b""  # entirely beyond the window
        if offset + len(data) > self.window:
            data = data[: self.window - offset]
        if offset == 0 and not self._pending:
            # In-order data with nothing queued — the overwhelmingly
            # common case.  The overlap policy cannot matter (there is
            # nothing to conflict with), so skip the byte map entirely.
            self.rcv_nxt = (self.rcv_nxt + len(data)) & 0xFFFFFFFF
            self.delivered_bytes += len(data)
            return data
        pending = self._pending
        if self.policy is OverlapPolicy.FIRST_WINS:
            for i, value in enumerate(data):
                position = offset + i
                if position not in pending:
                    pending[position] = value
        else:
            for i, value in enumerate(data):
                pending[offset + i] = value
        return self._drain()

    def _drain(self) -> bytes:
        """Extract the contiguous run at offset 0, if any."""
        run = bytearray()
        while len(run) in self._pending:
            run.append(self._pending.pop(len(run)))
        if not run:
            return b""
        delivered = bytes(run)
        shift = len(delivered)
        self.rcv_nxt = (self.rcv_nxt + shift) & 0xFFFFFFFF
        self._pending = {
            position - shift: value for position, value in self._pending.items()
        }
        self.delivered_bytes += shift
        return delivered

    def advance(self, new_rcv_nxt: int) -> None:
        """Jump ``rcv_nxt`` forward (used for SYN/FIN sequence space)."""
        shift = seq_sub(new_rcv_nxt, self.rcv_nxt)
        if shift < 0:
            raise ValueError("cannot move rcv_nxt backwards")
        self.rcv_nxt = new_rcv_nxt & 0xFFFFFFFF
        self._pending = {
            position - shift: value
            for position, value in self._pending.items()
            if position >= shift
        }

    def pending_bytes(self) -> int:
        """Number of buffered out-of-order bytes."""
        return len(self._pending)

    def has_gap(self) -> bool:
        return bool(self._pending)
