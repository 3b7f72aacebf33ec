"""Constant stand-ins for the removed deterministic-replay tier.

Every trial is simulated; nothing here is called by the program.  These
names exist only because the frozen benchmark harness in ``perfbench/``
still names them: ``run.tier_state`` reads :func:`enabled` and
:func:`program_cap`, and ``layertrace.BOUNDARIES`` wraps the other four.
Delete the module once ``perfbench/`` stops naming it.
"""

from __future__ import annotations


def enabled() -> bool:
    """Always ``False``; kept only because ``perfbench/`` names it."""
    return False


def program_cap() -> int:
    """Always ``0``; kept only because ``perfbench/`` names it."""
    return 0


def lookup(*_args, **_kwargs) -> None:
    """No-op; kept only because ``perfbench/`` names it."""


def record(*_args, **_kwargs) -> None:
    """No-op; kept only because ``perfbench/`` names it."""


def fold(*_args, **_kwargs) -> None:
    """No-op; kept only because ``perfbench/`` names it."""


def task_key(*_args, **_kwargs) -> None:
    """No-op; kept only because ``perfbench/`` names it."""
