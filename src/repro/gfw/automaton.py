"""Streaming multi-pattern keyword matching (Aho–Corasick).

The historical DPI engine re-ran substring search over the *entire*
buffered stream on every in-order segment, making a flow's inspection
cost quadratic in its length — ruinous for 1-byte segmentations, which
several evasion strategies and the §4 inference experiments produce on
purpose.  This module compiles a rule set's keyword list once into an
Aho–Corasick automaton whose matcher cursor advances incrementally, so a
flow is inspected in O(total bytes) no matter how it is segmented, and
the cursor survives both segment boundaries and inspect-window trims
(the real GFW likewise bounds per-flow matching effort, §2.1).

Design notes:

- Automata are compiled per *keyword tuple* and memoized process-wide
  (:func:`compile_keywords`); every flow of every device then shares one
  immutable automaton, and only a tiny per-flow cursor (an integer state
  plus the set of matched keyword indices) lives in the flow's
  inspector.
- The automaton is built from plain lists/tuples and is picklable, so
  it survives the process-pool fan-out of
  :mod:`repro.experiments.parallel` (workers recompile into their own
  memo on first use when handed a bare :class:`~repro.gfw.rules.RuleSet`).
- Matching runs against the *lowered* stream — the historical engine
  lowercased payloads before substring search — which keeps detections
  byte-identical to the rescan path.
- Two execution strategies share the same automaton: short segments
  step the dense goto/fail-closed transition table byte by byte, while
  long segments use the vectorized :meth:`scan_window` path — the
  caller carries the last ``max_keyword_len - 1`` stream bytes as a raw
  tail, prepends it to the segment, and the pending keywords are
  located by C-speed substring search (any occurrence straddling the
  boundary lies fully inside that window).  The two cursor forms are
  interconverted only when the segment-size regime changes:
  :meth:`state_string` seeds a tail from an automaton state, and
  :meth:`advance` over a tail recovers the state.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

#: Segments at or below this length step the transition table per byte;
#: longer ones take the vectorized window-scan path.
SMALL_SEGMENT = 64


class KeywordAutomaton:
    """An immutable Aho–Corasick automaton over a keyword tuple.

    The per-flow matcher cursor is *external*: callers hold an integer
    state (0 = root) plus a set of matched keyword indices, and advance
    both through :meth:`advance` / :meth:`scan`.  That keeps this object
    shareable across every flow of every device in a process.
    """

    def __init__(self, keywords: Sequence[bytes]) -> None:
        self.keywords: Tuple[bytes, ...] = tuple(bytes(k) for k in keywords)
        self.max_keyword_len = max((len(k) for k in self.keywords), default=0)
        # -- trie ---------------------------------------------------------
        goto: List[Dict[int, int]] = [{}]
        outputs: List[Set[int]] = [set()]
        strings: List[bytes] = [b""]
        for index, keyword in enumerate(self.keywords):
            if not keyword:
                continue  # empty keywords match everywhere; see matches_empty
            state = 0
            for byte in keyword:
                nxt = goto[state].get(byte)
                if nxt is None:
                    goto.append({})
                    outputs.append(set())
                    strings.append(strings[state] + bytes([byte]))
                    nxt = len(goto) - 1
                    goto[state][byte] = nxt
                state = nxt
            outputs[state].add(index)
        # -- breadth-first failure links; outputs merge along them --------
        fail = [0] * len(goto)
        queue: List[int] = list(goto[0].values())
        head = 0
        while head < len(queue):
            state = queue[head]
            head += 1
            for byte, nxt in goto[state].items():
                queue.append(nxt)
                fallback = fail[state]
                while fallback and byte not in goto[fallback]:
                    fallback = fail[fallback]
                fail[nxt] = goto[fallback].get(byte, 0)
                outputs[nxt] |= outputs[fail[nxt]]
        # -- fail-closed dense transition table (the DFA view) ------------
        delta: List[List[int]] = [[0] * 256 for _ in goto]
        for byte, nxt in goto[0].items():
            delta[0][byte] = nxt
        for state in queue:  # BFS order: parents resolved first
            row = delta[state]
            row[:] = delta[fail[state]]
            for byte, nxt in goto[state].items():
                row[byte] = nxt
        self._delta = delta
        self._out: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in outputs
        )
        self._out_any = bytes(1 if s else 0 for s in outputs)
        self._state_strings: Tuple[bytes, ...] = tuple(strings)
        #: Indices of zero-length keywords: present in any stream, exactly
        #: as they were under substring rescan (``b"" in payload`` is True).
        self.matches_empty: Tuple[int, ...] = tuple(
            i for i, k in enumerate(self.keywords) if not k
        )

    # ------------------------------------------------------------------
    def advance(self, state: int, data: bytes, found: Set[int]) -> int:
        """Step the transition table over lowered ``data`` byte by byte.

        Indices of every keyword whose occurrence *ends* inside ``data``
        are added to ``found``; the new cursor state is returned.
        """
        delta = self._delta
        out_any = self._out_any
        out = self._out
        for byte in data:
            state = delta[state][byte]
            if out_any[state]:
                found.update(out[state])
        return state

    def scan_window(self, window: bytes, found: Set[int]) -> None:
        """Mark every pending keyword present in lowered ``window``.

        This is the vectorized execution of the automaton for long
        segments: the caller prepends its carried tail (the last
        ``max_keyword_len - 1`` stream bytes, which cover every match
        straddling the segment boundary) and the pending keywords are
        located by C-speed substring search instead of per-byte
        stepping.  Detection-equivalent to :meth:`advance`; occurrences
        are not positioned, which the DPI engine never needs.
        """
        for index, keyword in enumerate(self.keywords):
            if index not in found and keyword and keyword in window:
                found.add(index)

    def state_string(self, state: int) -> bytes:
        """The trie string of ``state``: every keyword prefix that could
        continue past the current stream position is one of its
        suffixes, so it seeds the window tail when switching from
        per-byte stepping to vectorized scanning."""
        return self._state_strings[state]

    # -- introspection / accounting ------------------------------------
    def state_count(self) -> int:
        return len(self._delta)

    def state_bytes(self) -> int:
        """Rough in-memory footprint of the compiled tables.

        Used by the device's resource accounting (``GFWDevice.stats``);
        the dense transition table dominates.
        """
        return 256 * 8 * len(self._delta) + sum(
            len(s) for s in self._state_strings
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, KeywordAutomaton) and other.keywords == self.keywords
        )

    def __hash__(self) -> int:
        return hash(self.keywords)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KeywordAutomaton(keywords={len(self.keywords)}, "
            f"states={self.state_count()})"
        )


#: Process-wide memo: keyword tuple -> compiled automaton.  Rule sets are
#: tiny and few (one per GFW config), so this never needs eviction.
_AUTOMATON_MEMO: Dict[Tuple[bytes, ...], KeywordAutomaton] = {}


def compile_keywords(keywords: Iterable[bytes]) -> KeywordAutomaton:
    """The memoized compile step: one automaton per distinct keyword tuple.

    Rule sets hand in the same keyword tuple for every device of every
    trial, so the common case is a straight memo hit on the caller's
    tuple — key normalization (copying each keyword through ``bytes``)
    runs only on first sight of a key, not twice per trial.
    """
    if type(keywords) is tuple:
        try:
            automaton = _AUTOMATON_MEMO.get(keywords)
        except TypeError:  # unhashable members (e.g. bytearray): normalize
            automaton = None
        if automaton is not None:
            return automaton
    key = tuple(bytes(k) for k in keywords)
    automaton = _AUTOMATON_MEMO.get(key)
    if automaton is None:
        automaton = KeywordAutomaton(key)
        _AUTOMATON_MEMO[key] = automaton
    return automaton
