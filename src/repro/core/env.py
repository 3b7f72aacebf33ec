"""Environment-knob parsing shared by every ``REPRO_*`` switch.

The one runtime knob is ``REPRO_WORKERS`` (the parallel engine's worker
count).  This module is its parser, and the bench sizing knobs' too, so
no knob has its own idea of what "truthy" means or silently swallows a
typo: booleans accept the usual spellings, integers are validated, and
a malformed value raises :class:`EnvKnobError` naming the variable — a
typo'd knob should fail loudly, not quietly run the experiment with the
default.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["EnvKnobError", "env_flag", "env_int"]

_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off"})


class EnvKnobError(ValueError):
    """A ``REPRO_*`` environment variable holds an unparseable value."""


def env_flag(name: str, default: bool = False) -> bool:
    """Parse a boolean knob; unset or empty means ``default``.

    Accepted spellings (case-insensitive): 1/0, true/false, yes/no,
    on/off.  Anything else raises :class:`EnvKnobError`.
    """
    raw = os.environ.get(name, "").strip().lower()
    if not raw:
        return default
    if raw in _TRUE:
        return True
    if raw in _FALSE:
        return False
    raise EnvKnobError(
        f"{name}={os.environ[name]!r} is not a boolean "
        f"(use one of: 1/0, true/false, yes/no, on/off)"
    )


def env_int(
    name: str,
    default: int,
    minimum: Optional[int] = None,
) -> int:
    """Parse an integer knob; unset or empty means ``default``.

    A non-integer value, or one below ``minimum``, raises
    :class:`EnvKnobError`.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise EnvKnobError(
            f"{name}={os.environ[name]!r} is not an integer"
        ) from None
    if minimum is not None and value < minimum:
        raise EnvKnobError(f"{name}={value} is below the minimum of {minimum}")
    return value

