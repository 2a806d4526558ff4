"""Seeded random-number-generator management.

Every stochastic component in this library accepts either an integer
seed, an existing :class:`random.Random` instance, or ``None`` (fresh
nondeterministic generator).  Experiments that need many independent
replications derive *child* generators from a root seed so that each
replication is reproducible in isolation and the whole experiment is
reproducible end to end.

Native generator kernels read the caller's own Mersenne Twister
stream through :func:`run_on_words`, so a seeded graph and the
caller's generator afterwards are the same on either path.
"""

from __future__ import annotations

import random
from typing import Callable, List, Union

import numpy as np

RngLike = Union[int, random.Random, None]

#: RNG-ish inputs the numpy-protocol (csr backend) code paths accept.
NpRngLike = Union[int, random.Random, np.random.Generator, None]

#: Multiplier used to decorrelate derived child seeds.  Any large odd
#: constant works; this one is the 64-bit golden-ratio increment used by
#: splitmix-style generators.
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

#: Words per ``getrandbits`` call when skipping consumed words.
_SKIP_CHUNK = 1 << 16
#: Ranges below this take one word per ``randrange`` try.
_WORD_RANGE = 1 << 31


def ensure_rng(rng: RngLike = None) -> random.Random:
    """Coerce ``rng`` into a :class:`random.Random` instance.

    ``None`` yields a freshly (OS-)seeded generator, an ``int`` seeds a
    new generator, and an existing generator is returned unchanged so
    callers can share state deliberately.
    """
    if rng is None:
        # repro-lint: disable=RPL001 -- rng=None is the documented
        # fresh-OS-entropy convenience path; deterministic callers seed.
        return random.Random()
    if isinstance(rng, random.Random):
        return rng
    if isinstance(rng, bool):  # bool is an int subclass; almost surely a bug
        raise TypeError("rng must be an int seed, random.Random, or None")
    if isinstance(rng, int):
        return random.Random(rng)
    raise TypeError(
        f"rng must be an int seed, random.Random, or None, got {type(rng)!r}"
    )


def ensure_np_rng(rng: NpRngLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    The vectorized (csr-backend) walkers draw uniforms in blocks from a
    numpy Generator — a different stream discipline than the
    :class:`random.Random` protocol the interpreted samplers use.  A
    :class:`random.Random` input is accepted for convenience and is
    consumed for 64 bits to derive the numpy seed, so replicated
    experiments that hand out child ``random.Random`` instances remain
    end-to-end reproducible on either backend.
    """
    if rng is None:
        # repro-lint: disable=RPL001 -- rng=None is the documented
        # fresh-OS-entropy convenience path; deterministic callers seed.
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, random.Random):
        return np.random.default_rng(rng.getrandbits(64))
    if isinstance(rng, bool):  # bool is an int subclass; almost surely a bug
        raise TypeError(
            "rng must be an int seed, random.Random, numpy Generator,"
            " or None"
        )
    if isinstance(rng, int):
        return np.random.default_rng(rng)
    raise TypeError(
        "rng must be an int seed, random.Random, numpy Generator, or"
        f" None, got {type(rng)!r}"
    )


def _mix(seed: int, index: int) -> int:
    """Splitmix64-style finalizer mixing ``seed`` and ``index``."""
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def child_rng(root_seed: int, index: int) -> random.Random:
    """Return the ``index``-th child generator derived from ``root_seed``.

    Children with distinct indices are statistically independent for
    simulation purposes and reproducible: the same ``(root_seed, index)``
    pair always yields the same stream.
    """
    if index < 0:
        raise ValueError(f"child index must be >= 0, got {index}")
    return random.Random(_mix(root_seed, index))


def spawn_rngs(root_seed: int, count: int) -> List[random.Random]:
    """Return ``count`` independent child generators of ``root_seed``."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return [child_rng(root_seed, i) for i in range(count)]


def randrange_on_words(rng: random.Random, largest: int) -> bool:
    """Whether every ``rng.randrange(r)`` with ``r <= largest`` follows
    the word rule the native generator kernels use: the next word's
    top ``r.bit_length()`` bits, drawn again while they are ``>= r``.

    That holds when ``rng`` is exactly a :class:`random.Random` (a
    subclass may draw differently) and ``largest`` is below 2^31.
    """
    return type(rng) is random.Random and largest < _WORD_RANGE


def run_on_words(
    rng: random.Random, estimate: int, kernel: Callable[[np.ndarray], int]
) -> None:
    """Run ``kernel`` on ``rng``'s next 32-bit words, then advance
    ``rng`` past exactly the words it consumed.

    ``kernel(words)`` gets the words ``rng.getrandbits(32)`` would
    return next, as int64, and returns how many it read, or a negative
    count when it needs more; it is then run again from the start on
    twice as many.  The words are read from a numpy ``MT19937`` set to
    ``rng``'s key and position; ``getrandbits(32 * c)`` draws whole
    words, so skipping them leaves ``rng``'s cached ``gauss_next``
    alone.  The words are a prefix of one stream, so the result never
    depends on ``estimate``.
    """
    _, internal, _ = rng.getstate()
    bits = np.random.MT19937(0)
    bits.state = {
        "bit_generator": "MT19937",
        "state": {
            "key": np.array(internal[:-1], dtype=np.uint32),
            "pos": internal[-1],
        },
    }
    words = bits.random_raw(max(estimate, 1)).view(np.int64)
    used = kernel(words)
    while used < 0:
        more = bits.random_raw(words.size).view(np.int64)
        words = np.concatenate((words, more))
        used = kernel(words)
    for start in range(0, used, _SKIP_CHUNK):
        rng.getrandbits(32 * min(_SKIP_CHUNK, used - start))
