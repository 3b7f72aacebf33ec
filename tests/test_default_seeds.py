"""Components built without an ``rng`` draw the same numbers in every
process: their fallback seed is a crc32 of their name, never ``hash()``,
which Python salts per process (``PYTHONHASHSEED``)."""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

DRAWS = """
from repro.gfw.models import evolved_config
from repro.middlebox.boxes import FieldSanitizerBox, StatefulFirewallBox
from repro.netsim.node import Host
from repro.netsim.simclock import SimClock
from repro.tcp.stack import TCPHost
from repro.gfw.device import GFWDevice

clock = SimClock()
rngs = [
    TCPHost(Host("10.0.0.1"), clock).rng,
    GFWDevice("gfw", hop=4, config=evolved_config(), clock=clock).rng,
    FieldSanitizerBox("b", 2, drop_rst=0.5).rng,
    StatefulFirewallBox("fw", 3).rng,
]
print([[rng.random() for _ in range(12)] for rng in rngs])
"""


def _draws(hash_seed: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
    done = subprocess.run(
        [sys.executable, "-c", DRAWS], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_default_rngs_ignore_the_hash_seed():
    assert _draws("1") == _draws("2")
