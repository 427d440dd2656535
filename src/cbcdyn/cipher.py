"""Toy keyed block ciphers on N-bit blocks, materialized as lookup tables.

Three kinds are provided: ``identity``, ``permutation`` (a uniform random
permutation of the block space) and ``feistel`` (a balanced Feistel network
with random round tables). All randomness comes from a splitmix64 stream so
that a (kind, n_bits, seed, rounds) tuple pins the exact same tables in any
implementation of the same recipe.

None of this is cryptography. The ciphers only need to be keyed bijections
that are cheap to evaluate and to invert exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_BITS = 1
MAX_BITS = 16

CIPHER_KINDS = ("identity", "permutation", "feistel")

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


@dataclass(frozen=True, order=True)
class BlockVector:
    """An N-bit Boolean word: one cipher block, also the mode's internal state.

    ``value`` is the unsigned integer reading of the bits with bit 1 (the
    leftmost character of the string form) as the most significant bit.
    """

    value: int
    n_bits: int

    def __post_init__(self):
        _check_n_bits(self.n_bits)
        if not 0 <= self.value < (1 << self.n_bits):
            raise ValueError(
                f"value {self.value} out of range for {self.n_bits}-bit block"
            )

    @classmethod
    def from_bits(cls, bits: str) -> "BlockVector":
        """Parse a big-endian bit string such as "0101"."""
        if not bits or any(c not in "01" for c in bits):
            raise ValueError(f"not a bit string: {bits!r}")
        return cls(int(bits, 2), len(bits))

    @property
    def bits(self) -> str:
        return format(self.value, f"0{self.n_bits}b")

    def bit(self, j: int) -> int:
        """Bit number j, 1-based from the left (j = 1 is the most significant)."""
        if not 1 <= j <= self.n_bits:
            raise ValueError(f"bit index {j} out of range 1..{self.n_bits}")
        return (self.value >> (self.n_bits - j)) & 1

    def __xor__(self, other: "BlockVector") -> "BlockVector":
        if self.n_bits != other.n_bits:
            raise ValueError("block size mismatch")
        return BlockVector(self.value ^ other.value, self.n_bits)

    def __invert__(self) -> "BlockVector":
        return BlockVector(self.value ^ ((1 << self.n_bits) - 1), self.n_bits)

    def __str__(self) -> str:
        return self.bits


@dataclass(frozen=True)
class CipherSpec:
    """A keyed bijection on N-bit blocks together with its inverse.

    Both directions are materialized as full lookup tables at construction
    (at most 2^16 entries), so evaluation is O(1) and bijectivity is
    checkable exhaustively. Instances are immutable and safe to share
    between workers.
    """

    kind: str
    n_bits: int
    seed: int
    rounds: int
    forward_table: tuple
    inverse_table: tuple


def _invert(table) -> list:
    inverse = np.empty(len(table), dtype=np.int64)
    inverse[np.asarray(table)] = np.arange(len(table))
    return inverse.tolist()


def _permutation_table(n_bits: int, seed: int) -> list:
    # Fisher-Yates, high index down, j = next % (i+1): draw k serves i = 2^N - k.
    size = 1 << n_bits
    picks = _splitmix_draws(seed, size - 1) % np.arange(size, 1, -1, dtype=np.uint64)
    table = list(range(size))
    for i, j in zip(range(size - 1, 0, -1), picks.tolist()):
        table[i], table[j] = table[j], table[i]
    return table


def _feistel_table(n_bits: int, seed: int, rounds: int) -> list:
    # Balanced Feistel; round tables drawn entry 0..2^(n/2)-1, round by round.
    half = n_bits // 2
    half_size = 1 << half
    round_tables = (_splitmix_draws(seed, rounds * half_size) % half_size).astype(np.int64)
    v = np.arange(1 << n_bits, dtype=np.int64)
    left, right = v >> half, v & (half_size - 1)
    for rt in round_tables.reshape(rounds, half_size):
        left, right = right, left ^ rt[right]
    return ((left << half) | right).tolist()


def make_cipher(kind: str, n_bits: int, seed: int = 0, rounds: int = 4) -> CipherSpec:
    """Build a toy cipher of the given kind.

    identity ignores ``seed`` and ``rounds``; permutation shuffles the block
    space with Fisher-Yates driven by splitmix64(seed); feistel runs
    ``rounds`` balanced rounds whose round functions are random
    (n_bits/2)-bit lookup tables from the same stream. feistel requires an
    even ``n_bits`` and ``rounds`` >= 1.
    """
    _check_n_bits(n_bits)
    if kind == "identity":
        forward = list(range(1 << n_bits))
    elif kind == "permutation":
        forward = _permutation_table(n_bits, seed)
    elif kind == "feistel":
        if n_bits % 2 != 0:
            raise ValueError(f"feistel needs an even block size, got n_bits={n_bits}")
        if rounds < 1:
            raise ValueError(f"feistel needs rounds >= 1, got {rounds}")
        forward = _feistel_table(n_bits, seed, rounds)
    else:
        raise ValueError(f"unknown cipher kind {kind!r}; expected one of {CIPHER_KINDS}")
    return CipherSpec(
        kind=kind,
        n_bits=n_bits,
        seed=seed,
        rounds=rounds if kind == "feistel" else 0,
        forward_table=tuple(forward),
        inverse_table=tuple(_invert(forward)),
    )


def cipher_from_table(table, n_bits: int) -> CipherSpec:
    """Wrap an explicit permutation of [0, 2^N-1] as a cipher."""
    _check_n_bits(n_bits)
    table = list(table)
    if sorted(table) != list(range(1 << n_bits)):
        raise ValueError("table is not a permutation of the block space")
    return CipherSpec(
        kind="permutation",
        n_bits=n_bits,
        seed=0,
        rounds=0,
        forward_table=tuple(table),
        inverse_table=tuple(_invert(table)),
    )


def encrypt(cipher: CipherSpec, x: BlockVector) -> BlockVector:
    if x.n_bits != cipher.n_bits:
        raise ValueError(
            f"block size mismatch: cipher is {cipher.n_bits}-bit, block is {x.n_bits}-bit"
        )
    return BlockVector(cipher.forward_table[x.value], cipher.n_bits)


def decrypt(cipher: CipherSpec, x: BlockVector) -> BlockVector:
    if x.n_bits != cipher.n_bits:
        raise ValueError(
            f"block size mismatch: cipher is {cipher.n_bits}-bit, block is {x.n_bits}-bit"
        )
    return BlockVector(cipher.inverse_table[x.value], cipher.n_bits)
