"""Toy keyed block ciphers on N-bit blocks, materialized as lookup tables.

Three kinds are provided: ``identity``, ``permutation`` (a uniform random
permutation of the block space) and ``feistel`` (a balanced Feistel network
with random round tables). All randomness comes from a splitmix64 stream so
that a (kind, n_bits, seed, rounds) tuple pins the exact same tables in any
implementation of the same recipe.

None of this is cryptography. The ciphers only need to be keyed bijections
that are cheap to evaluate and to invert exhaustively.

A process builds each (kind, n_bits, seed, rounds) cipher once:
``make_cipher`` keeps the last CIPHER_CACHE_SIZE ciphers it built and hands
every caller with an equal key the same immutable ``CipherSpec``. The
inverse table is scattered on its first read and is then shared too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

MIN_BITS = 1
MAX_BITS = 16

CIPHER_KINDS = ("identity", "permutation", "feistel")

# ciphers make_cipher keeps; a 16-bit one holds about 1 MB with its inverse
CIPHER_CACHE_SIZE = 8

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """splitmix64 pseudo-random stream (Steele, Lea, Flood).

    Per draw: state += 0x9E3779B97F4A7C15; z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB;
    output z ^ (z >> 31). All arithmetic mod 2^64.

    Bounded draws use plain modulo reduction (documented, portable; the
    modulo bias is irrelevant here since reproducibility, not uniformity,
    is the contract).
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        """Next draw reduced into [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound


def _splitmix_draws(seed: int, count: int) -> np.ndarray:
    """The first ``count`` outputs of ``SplitMix64(seed)`` as one uint64 array.

    Draw k (1-based) mixes the state seed + k * gamma mod 2^64, so all
    draws are computed at once; uint64 arithmetic wraps mod 2^64.
    """
    z = np.arange(1, count + 1, dtype=np.uint64) * _GAMMA + (seed & _MASK64)
    z = (z ^ (z >> 30)) * _MIX1
    z = (z ^ (z >> 27)) * _MIX2
    return z ^ (z >> 31)


def _check_n_bits(n_bits: int) -> None:
    if not isinstance(n_bits, int) or not MIN_BITS <= n_bits <= MAX_BITS:
        raise ValueError(
            f"n_bits must be an integer in [{MIN_BITS}, {MAX_BITS}], got {n_bits!r}"
        )


def _word(value, n_bits: int) -> int:
    """An int, numpy integer or N-bit ``BlockVector`` as a Python int in [0, 2^N-1], else a ValueError."""
    if type(value) is not int:
        if isinstance(value, BlockVector):
            if value.n_bits != n_bits:
                raise ValueError(f"block size mismatch: {value.bits} has {value.n_bits} bits, expected {n_bits}")
            return value.value
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"block value {value!r} is not an integer")
        value = int(value)
    if not 0 <= value < 1 << n_bits:
        raise ValueError(f"value {value} out of range for {n_bits}-bit block")
    return value


@dataclass(frozen=True)
class BlockVector:
    """An N-bit Boolean word, parsed from or formatted as a bit string.

    ``value`` is the unsigned integer reading of the bits with bit 1 (the
    leftmost character of the string form) as the most significant bit.
    """

    value: int
    n_bits: int

    def __post_init__(self):
        _check_n_bits(self.n_bits)
        object.__setattr__(self, "value", _word(self.value, self.n_bits))

    @classmethod
    def from_bits(cls, bits: str) -> "BlockVector":
        """Parse a big-endian bit string such as "0101"."""
        if type(bits) is not str or not bits or any(c not in "01" for c in bits):
            raise ValueError(f"not a bit string: {bits!r}")
        return cls(int(bits, 2), len(bits))

    @property
    def bits(self) -> str:
        return format(self.value, f"0{self.n_bits}b")


def _lookup(table: np.ndarray) -> np.ndarray:
    """``table`` as a read-only int64 array; the array itself when it is already int64."""
    table = table.astype(np.int64, copy=False)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class CipherSpec:
    """A keyed bijection on N-bit blocks together with its inverse.

    ``forward`` is the table (at most 2^16 entries) as one read-only int64
    array, checked exhaustively for bijectivity at construction, and
    ``forward_table`` is that array's read-only memoryview, whose items are
    Python ints, for scalar lookups. ``inverse_table`` is the view of a
    second such array, scattered from ``forward`` on first read, so a cipher
    that is never inverted holds one table. Equality and hashing read the
    forward table alone, and instances are immutable and safe to share.
    """

    kind: str
    n_bits: int
    seed: int
    rounds: int
    forward_table: memoryview = field(repr=False)
    forward: np.ndarray = field(repr=False, compare=False)

    def __hash__(self):
        return hash((self.kind, self.n_bits, self.seed, self.rounds, self.forward.tobytes()))

    @functools.cached_property
    def inverse_table(self) -> memoryview:
        return _lookup(_invert(self.forward)).data


def _invert(table: np.ndarray) -> np.ndarray:
    """The inverse of ``table`` by one scatter; values no entry maps to stay -1."""
    inverse = np.full(table.size, -1, dtype=np.int64)
    inverse[table] = np.arange(table.size)
    return inverse


def _spec(kind: str, n_bits: int, seed: int, rounds: int, table: np.ndarray) -> CipherSpec:
    """The cipher of ``table``, a 2^N-entry integer array within [0, 2^N-1]."""
    if (_invert(table) < 0).any():
        raise ValueError("table is not a permutation of the block space")
    forward = _lookup(table)
    return CipherSpec(kind, n_bits, seed, rounds, forward_table=forward.data, forward=forward)


def _permutation_table(n_bits: int, seed: int) -> np.ndarray:
    """Fisher-Yates over splitmix64(seed), bit-identical to the sequential recipe.

    The recipe: start from the identity, and for i = 2^N - 1 down to 1 swap
    entries i and j_i = draw % (i + 1), where draw k serves i = 2^N - k.
    Step i fixes entry i for good, since later steps only touch lower
    positions. Add a no-op step 0 with j_0 = 0. Let V(p) be the value at
    position p just before step p. Only steps i' > p with j_i' = p write
    position p before then, and the last of them is the smallest, link(p);
    so V(p) = V(link(p)), or p if there is no such step. Step i moves the
    value at j_i into position i, and the last step before it to write j_i
    is the smallest i' > i with j_i' = j_i; so table[i] = V(i'), or j_i if
    there is no such i'.

    One stable sort of the j's lists each j's steps in rising order, which
    gives both "smallest later step" lookups; V then follows the link
    chains, which rise strictly, by pointer doubling.
    """
    size = 1 << n_bits
    steps = np.arange(size)
    j = np.zeros(size, dtype=np.int64)
    j[1:] = _splitmix_draws(seed, size - 1)[::-1] % np.arange(2, size + 1, dtype=np.uint64)
    order = np.argsort(j.astype(np.uint16), kind="stable")
    key = j[order]
    count = np.bincount(j, minlength=size)
    first = np.cumsum(count) - count  # where the steps with j = p start in order
    # Every step with j = p is >= p, so link(p) is the first of them, or the
    # second when the first is step p itself; clipping only touches the
    # entries that have no link.
    self_write = j == steps
    root = np.where(count > self_write, order.take(first + self_write, mode="clip"), steps)
    # doubling: root[p] ends as the last step of p's link chain, which is V(p)
    while True:
        hop = root[root]
        if np.array_equal(hop, root):
            break
        root = hop
    # table[i] = V(the next step after i with the same j), or j_i if none
    table = np.empty(size, dtype=np.int64)
    table[order] = np.append(np.where(key[1:] == key[:-1], root[order[1:]], key[:-1]), key[-1])
    return table


def _feistel_table(n_bits: int, seed: int, rounds: int) -> np.ndarray:
    # Balanced Feistel; round tables drawn entry 0..2^(n/2)-1, round by round.
    half = n_bits // 2
    half_size = 1 << half
    round_tables = (_splitmix_draws(seed, rounds * half_size) % half_size).astype(np.int64)
    v = np.arange(1 << n_bits, dtype=np.int64)
    left, right = v >> half, v & (half_size - 1)
    for rt in round_tables.reshape(rounds, half_size):
        left, right = right, left ^ rt[right]
    return (left << half) | right


def make_cipher(kind: str, n_bits: int, seed: int = 0, rounds: int = 4) -> CipherSpec:
    """Build a toy cipher of the given kind.

    identity ignores ``seed`` and ``rounds``; permutation shuffles the block
    space with Fisher-Yates driven by splitmix64(seed); feistel runs
    ``rounds`` balanced rounds whose round functions are random
    (n_bits/2)-bit lookup tables from the same stream. feistel requires an
    even ``n_bits`` and ``rounds`` >= 1.

    The seed-to-table recipe is the contract. Tables are built in numpy,
    and each equals, bit for bit, the table of the sequential recipe: one
    splitmix64 draw per Fisher-Yates swap, or per round-table entry.

    The arguments are checked on every call. A valid key (kind, n_bits,
    seed, rounds), with ``rounds`` read as 0 off feistel, is then built
    once: equal keys return the same ``CipherSpec`` while it is among the
    last CIPHER_CACHE_SIZE keys built.
    """
    _check_n_bits(n_bits)
    if kind not in CIPHER_KINDS:
        raise ValueError(f"unknown cipher kind {kind!r}; expected one of {CIPHER_KINDS}")
    if kind != "feistel":
        rounds = 0
    elif n_bits % 2 != 0:
        raise ValueError(f"feistel needs an even block size, got n_bits={n_bits}")
    elif rounds < 1:
        raise ValueError(f"feistel needs rounds >= 1, got {rounds}")
    return _built_cipher(kind, n_bits, seed, rounds)


@functools.lru_cache(maxsize=CIPHER_CACHE_SIZE)
def _built_cipher(kind: str, n_bits: int, seed: int, rounds: int) -> CipherSpec:
    """The cipher of a key ``make_cipher`` has checked."""
    if kind == "identity":
        forward = np.arange(1 << n_bits)
    elif kind == "permutation":
        forward = _permutation_table(n_bits, seed)
    else:
        forward = _feistel_table(n_bits, seed, rounds)
    return _spec(kind, n_bits, seed, rounds, forward)


def _word_table(table, n_bits: int, error: str) -> np.ndarray:
    """``table`` as 2^N integer words in [0, 2^N-1]; ValueError(error) for any other table."""
    entries = list(table)
    words = np.asarray(entries)
    if (
        words.shape != (1 << n_bits,)
        or words.dtype.kind not in "iu"  # float, bool and str entries are never cast
        or {bool, np.bool_} & set(map(type, entries))
        or words.min() < 0
        or words.max() >= 1 << n_bits
    ):
        raise ValueError(error)
    return words


def cipher_from_table(table, n_bits: int) -> CipherSpec:
    """Wrap an explicit permutation of [0, 2^N-1] as a cipher."""
    _check_n_bits(n_bits)
    table = _word_table(table, n_bits, "table is not a permutation of the block space")
    return _spec("permutation", n_bits, 0, 0, table)


def encrypt(cipher: CipherSpec, x) -> int:
    """E(x) for a block x read by ``_word``."""
    return cipher.forward_table[_word(x, cipher.n_bits)]


def decrypt(cipher: CipherSpec, x) -> int:
    """E^-1(x) for a block x read by ``_word``."""
    return cipher.inverse_table[_word(x, cipher.n_bits)]
