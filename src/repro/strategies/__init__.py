"""Evasion strategies: everything in Tables 1, 4, and 5 and Figs. 3-4.

Three generations of strategies are implemented:

1. the *existing* strategies measured in §3 (TCB creation with SYN, the
   data-reassembly family, TCB teardown with RST/RST-ACK/FIN), each
   parameterized by the insertion-packet discrepancy it rides on;
2. the *new* strategies of §5 (the desynchronization building block,
   Resync+Desync, TCB Reversal);
3. the *improved and combined* strategies of §7.1 that defeat old and
   evolved GFW models simultaneously (Fig. 3: TCB Creation +
   Resync/Desync; Fig. 4: TCB Teardown + TCB Reversal; plus the improved
   teardown and improved in-order overlap).

The :mod:`repro.strategies.registry` maps strategy identifiers (the row
labels of the paper's tables) to factories usable with INTANG.
"""
