"""Constant stand-ins for the removed harness result cache.

Every trial is simulated; nothing here is called by the program.  These
names exist only because the frozen benchmark harness in ``perfbench/``
still names them: ``run.tier_state`` reads :func:`enabled`, and
``layertrace.BOUNDARIES`` wraps the other four.  Delete the module once
``perfbench/`` stops naming it.

INTANG's own historical-result store (paper §6) is part of the model and
lives on in :mod:`repro.core.cache`.
"""

from __future__ import annotations


def enabled() -> bool:
    """Always ``False``; kept only because ``perfbench/`` names it."""
    return False


def lookup(*_args, **_kwargs) -> None:
    """No-op; kept only because ``perfbench/`` names it."""


def record_trial(*_args, **_kwargs) -> None:
    """No-op; kept only because ``perfbench/`` names it."""


def record_outcome(*_args, **_kwargs) -> None:
    """No-op; kept only because ``perfbench/`` names it."""


def trial_key(*_args, **_kwargs) -> None:
    """No-op; kept only because ``perfbench/`` names it."""
