"""Stream identity of :class:`repro.lazyrandom.LazyRandom` and of the
inlined :func:`repro.strategies.insertion.junk_payload`.

Both exist only to be cheaper, so each must be indistinguishable from
the code it replaces: ``random.Random(seed)`` for the lazy generator,
and ``bytes(rng.choice(alphabet) ...)`` for the junk bytes, including
where the stream is left afterwards.
"""

import copy
import pickle
import random

from hypothesis import given, settings, strategies as st

from repro.core.strategy_base import ConnectionContext
from repro.lazyrandom import LazyRandom
from repro.strategies.insertion import junk_payload

SEEDS = st.integers(min_value=0, max_value=2**32)

#: Every draw method ``src/`` calls on a child stream or INTANG root,
#: any of which may be a generator's first draw.
FIRST_DRAWS = {
    "random": lambda rng: rng.random(),
    "randrange": lambda rng: rng.randrange(2**31),
    "randrange_small": lambda rng: rng.randrange(37),
    "randrange_span": lambda rng: rng.randrange(0, 2**32),
    "randint": lambda rng: rng.randint(1, 6),
    "uniform": lambda rng: rng.uniform(-0.2, 0.2),
    "choice": lambda rng: rng.choice(b"abcdefghijklmnopqrstuvwxyz0123456789"),
    "shuffle": lambda rng: _shuffled(rng),
    "getrandbits": lambda rng: rng.getrandbits(6),
    "getrandbits_zero": lambda rng: rng.getrandbits(0),
    "gauss": lambda rng: rng.gauss(0.0, 1.0),
}


def _shuffled(rng):
    items = list(range(12))
    rng.shuffle(items)
    return items


def _tail(rng):
    return [rng.random() for _ in range(4)] + [rng.getrandbits(32)]


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, first=st.sampled_from(sorted(FIRST_DRAWS)))
def test_lazy_stream_equals_random_random(seed, first):
    plain, lazy = random.Random(seed), LazyRandom(seed)
    draw = FIRST_DRAWS[first]
    assert draw(lazy) == draw(plain)
    assert _tail(lazy) == _tail(plain)
    # Once seeded it is a plain generator: no per-draw overhead.
    assert type(lazy) is random.Random


def test_randbelow_is_the_getrandbits_variant():
    assert LazyRandom._randbelow is random.Random._randbelow_with_getrandbits


def test_never_drawn_generator_is_not_seeded():
    lazy = LazyRandom(5)
    assert type(lazy) is LazyRandom


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, other=SEEDS)
def test_state_api_matches_random_random(seed, other):
    lazy = LazyRandom(seed)
    assert lazy.getstate() == random.Random(seed).getstate()

    reseeded = LazyRandom(seed)
    reseeded.seed(other)
    assert _tail(reseeded) == _tail(random.Random(other))

    restored = LazyRandom(seed)
    restored.setstate(random.Random(other).getstate())
    assert _tail(restored) == _tail(random.Random(other))

    for clone in (pickle.loads(pickle.dumps(LazyRandom(seed))),
                  copy.copy(LazyRandom(seed))):
        assert _tail(clone) == _tail(random.Random(seed))


def _ctx(rng):
    return ConnectionContext(
        src_ip="10.0.0.1", src_port=40000, dst_ip="10.0.0.2", dst_port=80,
        clock=None, rng=rng, raw_send=lambda packet: None, insertion_ttl=9,
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=SEEDS,
    length=st.integers(min_value=0, max_value=200),
    lazy=st.booleans(),
)
def test_junk_payload_equals_choice_bytes(seed, length, lazy):
    alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789"
    reference = random.Random(seed)
    expected = bytes(reference.choice(alphabet) for _ in range(length))
    rng = LazyRandom(seed) if lazy else random.Random(seed)
    assert junk_payload(_ctx(rng), length) == expected
    assert _tail(rng) == _tail(reference)
