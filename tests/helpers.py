"""Test-only helpers; the lab world itself is :mod:`repro.experiments.lab`."""

from __future__ import annotations

#: Registry instrument prefixes owned by the execution engine rather than
#: the simulated trial: how much build or dispatch work a run does depends
#: on its execution shape, so parity tests compare everything else.
ENGINE_PREFIXES = ("scenario.", "netsim.")


def detections(world) -> int:
    return len(world.gfw.detections) if world.gfw is not None else 0
