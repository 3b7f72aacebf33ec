"""Constant stand-ins for the removed RNG-draw ledger.

Every draw site uses a plain ``random.Random``; nothing here is called by
the program.  These names exist only because the frozen benchmark
harness's ``perfbench/layertrace.BOUNDARIES`` wraps them.  Delete the
module once ``perfbench/`` stops naming it.
"""

from __future__ import annotations


def begin_ledger(*_args, **_kwargs) -> None:
    """No-op; kept only because ``perfbench/`` names it."""


def end_ledger(*_args, **_kwargs) -> None:
    """No-op; kept only because ``perfbench/`` names it."""
