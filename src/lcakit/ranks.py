"""Deterministic rank and randomness primitives.

Every function here is a pure function of an explicit :class:`Seed`, so any
experiment can be replayed bit for bit from a 64-hex-character seed string.
The only primitives used are BLAKE2b keyed hashing and integer arithmetic,
both of which are stable across platforms and Python versions.

Ranks are 64-bit unsigned integers standing in for arrival times in [0, 1)
(a rank ``r`` corresponds to the real number ``r / 2**64``).  Ties between
distinct items are broken by owner id, so any set of ranked items is always
strictly totally ordered; :func:`rank_key_fn` and :func:`rank_keys` give that
order as one integer per item, and no other module builds such a key.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import mod
from typing import Sequence, Union

_U64 = 1 << 64
_MASK64 = _U64 - 1
_TWO53 = float(1 << 53)
_WORDS = struct.Struct(">8Q")
_WORDS_LAST_FIRST = struct.Struct("<8Q")
# Bound once: a looked-up ``int.from_bytes`` costs about as much again as the
# call itself, which matters once per rank hash.
_from_bytes = int.from_bytes
_BLOCK_0 = bytes(8)  # a stream's first block counter
# Most draws RandomStream decodes at once; bounds the words held in memory.
_BULK = 1024

# Deterministic Miller-Rabin witnesses; exact for n < 3.3 * 10**24, which
# covers every field size reachable at experiment scale.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True, slots=True)
class Seed:
    """A 256-bit master key plus an ensemble selector.

    Two seeds with equal fields define identical rank functions and random
    streams.  ``ensemble_index`` selects one of many mutually
    independent-behaving streams keyed by the same master key; it is used by
    algorithms that need several fresh sources of coins per run.
    """

    master_key: bytes
    ensemble_index: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.master_key, bytes) or len(self.master_key) != 32:
            raise ValueError("master_key must be exactly 32 bytes")
        if self.ensemble_index < 0:
            raise ValueError("ensemble_index must be non-negative")

    @classmethod
    def from_hex(cls, text: str) -> "Seed":
        """Parse an ensemble-0 seed from 64 hex characters (the CLI wire
        format); :meth:`with_ensemble` selects another ensemble."""
        try:
            key = bytes.fromhex(text.strip())
        except ValueError:  # not hex at all: same message as a wrong length
            key = b""
        if len(key) != 32:
            raise ValueError("seed must be 64 hex characters (32 bytes)")
        return cls(key)

    def hex(self) -> str:
        return self.master_key.hex()

    def with_ensemble(self, index: int) -> "Seed":
        """Same master key, different ensemble."""
        return Seed(self.master_key, index)


@dataclass(frozen=True, order=True, slots=True)
class Rank:
    """Position of an item in the simulated arrival order.

    Field order matters: dataclass ordering compares ``(value, owner)``
    lexicographically, which is exactly the documented tiebreak rule.
    """

    value: int
    owner: int


@dataclass(frozen=True, slots=True)
class FullPseudorandom:
    """Ranks are keyed hashes: every item gets an independent 64-bit value."""


@dataclass(frozen=True, slots=True)
class KWiseIndependent:
    """Ranks from a uniformly random degree-(k-1) polynomial over GF(prime).

    Any k evaluation points are jointly uniform over the field, so every
    relative order of any j <= k items is (up to residue ties, broken by
    owner id) uniformly distributed.  ``prime`` must exceed the item
    universe; choosing ``prime >= universe**3`` keeps residue ties rare.
    """

    k: int
    prime: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if not is_probable_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")


OrderingKind = Union[FullPseudorandom, KWiseIndependent]


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with fixed witnesses (exact below 3.3e24)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    c = max(2, n)
    while not is_probable_prime(c):
        c += 1
    return c


@lru_cache(maxsize=1024)
def _prefix(master_key: bytes, ensemble_index: int, domain: bytes, size: int):
    """Keyed BLAKE2b state with the ensemble index and the length-prefixed
    domain already fed in.  Keying costs as much as hashing a short payload,
    so each (seed, domain, size) is keyed once and copied per hash.  The
    returned state is shared: callers ``.copy()`` it and never update it.
    The cache key holds only bytes and ints, which hash in C."""
    h = hashlib.blake2b(key=master_key, digest_size=size)
    h.update(ensemble_index.to_bytes(8, "big"))
    h.update(len(domain).to_bytes(2, "big"))
    h.update(domain)
    return h


def _digest(seed: Seed, domain: bytes, payload: bytes, size: int) -> bytes:
    """Keyed, domain-separated hash. The domain is length-prefixed so that
    distinct (domain, payload) splits can never collide."""
    h = _prefix(seed.master_key, seed.ensemble_index, domain, size).copy()
    h.update(payload)
    return h.digest()


class RandomStream:
    """Deterministic stream of 64-bit words keyed by (seed, label), in
    counter mode.

    Block ``i`` (from 0) is the 64-byte keyed BLAKE2b digest, in the
    ``b"stream"`` domain, of ``label + i.to_bytes(8, "big")``.  The stream
    is the blocks in order, each read as eight big-endian 64-bit words in
    order.  Every draw is a fixed function of the next words, so a block can
    be decoded once and its words handed out one at a time or in bulk.

    Used by instance generators and anything else that needs a sequence of
    uniform draws rather than per-item hashing.
    """

    __slots__ = ("_seed", "_label", "_counter", "_words")

    def __init__(self, seed: Seed, label: bytes) -> None:
        self._seed = seed
        self._label = bytes(label)
        self._counter = 0
        self._words: list[int] = []  # the current block's unread words, next last

    def _blocks(self, count: int) -> list[bytes]:
        """The next ``count`` 64-byte blocks."""
        state = _prefix(self._seed.master_key, self._seed.ensemble_index, b"stream", 64)
        first = self._counter
        self._counter = first + count
        out = []
        for i in range(first, first + count):
            h = state.copy()
            h.update(self._label + i.to_bytes(8, "big"))
            out.append(h.digest())
        return out

    def _refill(self) -> list[int]:
        # A reversed block read little-endian is its words, last first.
        self._words = words = list(_WORDS_LAST_FIRST.unpack(self._blocks(1)[0][::-1]))
        return words

    def _u64s(self, k: int) -> list[int]:
        """The next ``k >= 1`` words, in order."""
        out = self._words[::-1]
        for block in self._blocks(max(0, -(-(k - len(out)) // 8))):
            out += _WORDS.unpack(block)
        self._words = out[: k - 1 : -1]
        del out[k:]
        return out

    def _randranges(self, bounds: Sequence[int]) -> list[int]:
        """``[self.randrange(b) for b in bounds]``, decoded in bulk.

        When every bound is at least 2 and every word of a batch lies below
        ``2**64 - max(bounds)``, each draw takes one word and passes its
        rejection test, so the draws are the words modulo their bounds.
        Otherwise that batch's words go back and its draws are made one at a
        time.  At most ``_BULK`` words are held at once.
        """
        if not bounds or min(bounds) < 2:
            return [self.randrange(b) for b in bounds]
        sure = _U64 - max(bounds)
        out: list[int] = []
        for start in range(0, len(bounds), _BULK):
            part = bounds[start : start + _BULK]
            words = self._u64s(len(part))
            if max(words) < sure:
                out += map(mod, words, part)
            else:
                self._words += words[::-1]
                out += map(self.randrange, part)
        return out

    def _randoms(self, k: int) -> list[float]:
        """``[self.random() for _ in range(k)]``, decoded in bulk."""
        out: list[float] = []
        for start in range(0, k, _BULK):
            out += [(r >> 11) / _TWO53 for r in self._u64s(min(_BULK, k - start))]
        return out

    def u64(self) -> int:
        return (self._words or self._refill()).pop()

    def random(self) -> float:
        """Float in [0, 1) with 53 bits of precision."""
        return (self.u64() >> 11) / _TWO53

    def randrange(self, bound: int) -> int:
        """Uniform integer in [0, bound). Rejection sampling, no modulo bias:
        a bound up to 2**64 takes one word per try and rejects words at or
        above the largest multiple of the bound; a wider bound takes
        ``ceil(bits / 64)`` words per try, keeps the top ``bound.bit_length()``
        bits and rejects values >= bound."""
        if bound < 1:
            raise ValueError("bound must be >= 1")
        if bound == 1:
            return 0
        if bound <= _U64:
            limit = _U64 - (_U64 % bound)
            while True:
                r = (self._words or self._refill()).pop()
                if r < limit:
                    return r % bound
        bits = bound.bit_length()
        words = (bits + 63) // 64
        shift = words * 64 - bits
        while True:
            r = 0
            for _ in range(words):
                r = (r << 64) | self.u64()
            r >>= shift
            if r < bound:
                return r

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates: for i from len - 1 down to 1, swap item i
        with item ``randrange(i + 1)``."""
        for top in range(len(items), 1, -_BULK):
            bounds = range(top, max(top - _BULK, 1), -1)
            for b, j in zip(bounds, self._randranges(bounds)):
                items[b - 1], items[j] = items[j], items[b - 1]


def derive_subseed(seed: Seed, label: bytes) -> Seed:
    """Deterministic domain-separated derivation of a fresh seed.

    Distinct labels yield streams that behave independently; derivation
    nests, so ``derive(derive(s, a), b)`` differs from ``derive(s, a + b)``.
    The derived seed starts at ensemble 0.
    """
    key = _digest(seed, b"derive", bytes(label), 32)
    return Seed(key, 0)


def random_in_range(seed: Seed, label: bytes, bound: int) -> int:
    """Uniform integer in [0, bound), a pure function of (seed, label)."""
    return RandomStream(seed, b"range:" + bytes(label)).randrange(bound)


def coin_fn(seed: Seed):
    """Return ``(ensemble, item) -> 0 or 1``, a fair coin per item: the
    value of ``random_in_range(seed.with_ensemble(ensemble),
    item.to_bytes(8, "big"), 2)``.  A bound of 2 divides ``2**64``, so the
    stream's first word is never rejected and the coin is that word's low
    bit, bit 0 of byte 7 of one 64-byte ``b"stream"`` digest.  Each
    ensemble's keyed state is bound once, on its first coin."""
    states: dict[int, object] = {}

    def coin(ensemble: int, item: int) -> int:
        state = states.get(ensemble)
        if state is None:
            e = seed.with_ensemble(ensemble)
            state = states[ensemble] = _prefix(e.master_key, ensemble, b"stream", 64)
        h = state.copy()
        h.update(b"range:" + item.to_bytes(8, "big") + _BLOCK_0)
        return h.digest()[7] & 1

    return coin


def polynomial_rank(coeffs: tuple[int, ...], prime: int, x: int) -> int:
    """Evaluate a polynomial over GF(prime) at x and scale into 64 bits.

    The scaling ``(value << 64) // prime`` is strictly monotone in the
    residue, so it preserves the field order exactly; only genuinely equal
    residues collide (and are then broken by owner id).
    """
    acc = 0
    for a in reversed(coeffs):
        acc = (acc * x + a) % prime
    return (acc << 64) // prime


@lru_cache(maxsize=4096)
def _kwise_coeffs(seed: Seed, k: int, prime: int) -> tuple[int, ...]:
    stream = RandomStream(seed, b"kwise-coefficients")
    return tuple(stream.randrange(prime) for _ in range(k))


def _outside(item: int, universe: int) -> ValueError:
    return ValueError(
        f"item {item} outside declared universe of size {universe}; "
        "the instance and the rank oracle disagree"
    )


def _rank_value(state, item: int, universe: int) -> int:
    """64-bit full-pseudorandom rank value of ``item`` in a universe of
    ``universe`` items, hashed from ``state``, the seed's keyed ``b"rank"``
    state (see :func:`_rank_state`).  The one per-item hash entry."""
    if not 0 <= item < universe:
        raise _outside(item, universe)
    h = state.copy()
    h.update(item.to_bytes(8, "big"))
    return _from_bytes(h.digest(), "big")


def _rank_state(seed: Seed):
    return _prefix(seed.master_key, seed.ensemble_index, b"rank", 8)


def _kwise_value_fn(seed: Seed, kind: OrderingKind, universe: int):
    """``item -> rank value`` under a k-wise ordering, with the coefficients
    drawn and the field size checked once.  A prime too small for the
    universe still fails on the first rank, after its range check."""
    if not isinstance(kind, KWiseIndependent):
        raise TypeError(f"unknown ordering kind: {kind!r}")
    prime = kind.prime
    coeffs = _kwise_coeffs(seed, kind.k, prime) if prime > universe else None

    def value(item: int) -> int:
        if not 0 <= item < universe:
            raise _outside(item, universe)
        if coeffs is None:
            raise ValueError(f"prime {prime} must exceed the universe size {universe}")
        return polynomial_rank(coeffs, prime, item)

    return value


def rank_of(seed: Seed, kind: OrderingKind, item: int, universe: int) -> Rank:
    """Rank of an item id under the given ordering. Deterministic."""
    if isinstance(kind, FullPseudorandom):
        return Rank(_rank_value(_rank_state(seed), item, universe), item)
    return Rank(_kwise_value_fn(seed, kind, universe)(item), item)


def rank_keys(
    seed: Seed, kind: OrderingKind, items: Sequence[int], universe: int
) -> list[int]:
    """Rank key of each item, in order: ``[key_of(x) for x in items]`` for
    ``key_of = rank_key_fn(seed, kind, universe)``, with no cache.  For a
    batch that needs each rank once.  Full-pseudorandom values go through
    the module global ``_rank_value``, so a wrapped one sees every hash."""
    if isinstance(kind, FullPseudorandom):
        values = map(_rank_value, repeat(_rank_state(seed)), items, repeat(universe))
    else:
        values = map(_kwise_value_fn(seed, kind, universe), items)
    return [r * universe + x for r, x in zip(values, items)]


def rank_key_fn(seed: Seed, kind: OrderingKind, universe: int):
    """Return a cached ``item -> value * universe + item`` function: the one
    integer key every caller orders items by.  It orders as ``Rank`` does,
    since every item is below ``universe``, and ``divmod(key, universe)`` is
    ``(value, item)``.  The keyed BLAKE2b state or the k-wise coefficients
    are bound once here, so each miss pays for one hash or one polynomial.
    The cache is local to the returned closure; sharing one closure across
    a run's queries avoids rehashing without any cross-run state.
    """
    cache: dict[int, int] = {}
    if isinstance(kind, FullPseudorandom):
        state = _rank_state(seed)

        def key(item: int) -> int:
            got = cache.get(item)
            if got is None:
                # the module global, so a wrapped _rank_value sees every hash
                got = cache[item] = _rank_value(state, item, universe) * universe + item
            return got

        return key
    value = _kwise_value_fn(seed, kind, universe)

    def kwise_key(item: int) -> int:
        got = cache.get(item)
        if got is None:
            got = cache[item] = value(item) * universe + item
        return got

    return kwise_key
