"""A ``random.Random`` that seeds itself on its first draw.

A trial builds about a dozen child generators: one per GFW device,
middlebox set, firewall, cluster, TCP stack and INTANG instance, each
seeded from a draw of the scenario's root stream.  Most of them are
never drawn from in a given trial (on Table 1, 89 % of the device
generators), yet seeding a Mersenne Twister costs about 7 µs.
:class:`LazyRandom` defers that cost to the first draw, and the stream
it then produces is exactly ``random.Random(seed)``'s.
"""

from __future__ import annotations

import random
from _random import Random as _CRandom

#: The C seeder under ``random.Random.seed``.  For an ``int`` seed the
#: Python method only adds ``gauss_next = None`` before calling it, and a
#: :class:`LazyRandom` already holds that, so calling it directly gives
#: the same state for a Python-level call less per woken stream.
_c_seed = _CRandom.seed


def _wake(generator: random.Random) -> None:
    """Seed a :class:`LazyRandom` and make it a plain ``random.Random``.

    Idempotent, and a module function rather than a method: ``_randbelow``
    binds ``getrandbits`` once and calls that bound method again through
    its rejection loop, by which time the generator is already a
    ``random.Random``.
    """
    if generator.__class__ is LazyRandom:
        seed = generator._lazy_seed
        if seed.__class__ is int:
            _c_seed(generator, seed)
        else:
            random.Random.seed(generator, seed)
        generator.__class__ = random.Random


class LazyRandom(random.Random):
    """``random.Random(seed)``, seeded when first used.

    Every draw method of ``random.Random`` reaches :meth:`random` or
    :meth:`getrandbits` before it consumes state.  Both are overridden
    here, so ``_randbelow`` stays ``_randbelow_with_getrandbits``, as on
    ``random.Random``.  The first call seeds the generator and sets its
    class to ``random.Random``, so every later draw costs what a plain
    generator's does.  :meth:`seed`, :meth:`getstate` and
    :meth:`setstate` wake it first too, so the generator behaves as
    ``random.Random(seed)`` under the whole API.
    """

    def __init__(self, seed: object = None) -> None:
        # random.Random.__init__ would seed now; keep the seed instead.
        self._lazy_seed = seed
        self.gauss_next = None

    def random(self) -> float:
        _wake(self)
        return self.random()

    def getrandbits(self, k: int) -> int:
        _wake(self)
        return self.getrandbits(k)

    def seed(self, *args, **kwargs) -> None:
        _wake(self)
        self.seed(*args, **kwargs)

    def getstate(self) -> tuple:
        _wake(self)
        return self.getstate()

    def setstate(self, state: tuple) -> None:
        _wake(self)
        self.setstate(state)
