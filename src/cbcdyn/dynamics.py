"""The CBC mode viewed as a discrete dynamical system.

A point couples an N-bit internal state (the running ciphertext block, the
IV at time zero) with the infinite sequence of message blocks still to be
consumed. One application of :func:`step` encrypts exactly one block: the
next state is the cipher applied to the combination of the current state
with the first message block, and the message loses that block.

Message sequences are restricted to eventually periodic ones (finite prefix
plus repeating cycle). These are closed under the shift, admit exact
distance computation, and are rich enough for every construction the
toolkit performs.

Two conventions are supported for combining state and block:

* ``xor``: next state = E(x XOR m). Requires the inner function to be the
  vectorial negation.
* ``paper-complement``: next state = E(F_f(x, m)) where bit j of F_f(x, m)
  is x_j when bit j of m is 1 and f(x)_j otherwise. With f the vectorial
  negation this equals E(x XOR NOT m).

The two agree up to complementing each consumed block; both are kept so the
discrepancy stays observable and testable.

A message is N and two tuples of int block values, checked and
canonicalised once when it is built. The check is one pass over the values
while each is a plain int block; at the first other value it falls back to
the per-value check of ``cipher._word``, which converts numpy integers and
names the first value that is not a block. A point's state is one more
such int, read by ``cipher._word`` against its message's N (an N-bit
:class:`BlockVector` is accepted and stored as its value). A
:class:`BlockVector` is made only when one block is read out (``block``)
or a bit string is parsed (``from_json``). Orbits run on integers, and
:func:`combine` holds the combining rule for an int and a numpy column of
states alike (``chaoslab`` walks its entropy grid one column per step).
:func:`state_values` walks one point on its message's values. Points are
built only where a caller needs them, from those values and
:func:`shift_by` (a prefix slice or a cycle rotation).

Every table the map reads (cipher, inverse, inner function, negation) is
one read-only int64 array. The int path indexes its read-only memoryview,
whose items are Python ints; ``np.asarray`` of the view is the array.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .cipher import BlockVector, CipherSpec, _check_n_bits, _lookup, _word, _word_table

CONVENTION_XOR = "xor"
CONVENTION_PAPER_COMPLEMENT = "paper-complement"
CONVENTIONS = (CONVENTION_XOR, CONVENTION_PAPER_COMPLEMENT)


@functools.cache
def negation_table(n_bits: int) -> memoryview:
    """The vectorial negation on N-bit words: the read-only view of one int64 array, built once per N."""
    _check_n_bits(n_bits)
    return _lookup(np.arange(1 << n_bits) ^ ((1 << n_bits) - 1)).data


def identity_table(n_bits: int) -> tuple:
    """Lookup table of the identity on N-bit words (degenerate inner function)."""
    _check_n_bits(n_bits)
    return tuple(range(1 << n_bits))


def _primitive_period(cycle: tuple) -> int:
    n = len(cycle)
    if n == 1:
        return 1
    return next(d for d in range(1, n + 1) if n % d == 0 and cycle == cycle[:d] * (n // d))


@dataclass(frozen=True)
class MessageSequence:
    """An eventually periodic infinite sequence of N-bit blocks.

    ``prefix`` and ``cycle`` hold block values, Python ints in [0, 2^N-1],
    stored canonically: the cycle is primitive and the prefix is as short
    as possible (its last block differs from the cycle's last block), so
    two instances describe the same infinite sequence iff they are equal.
    Block indexing is 0-based: block 0 is the first block consumed.
    """

    n_bits: int
    prefix: tuple = ()
    cycle: tuple = (0,)

    def __post_init__(self):
        n_bits = self.n_bits
        _check_n_bits(n_bits)
        prefix = tuple(self.prefix)
        values = prefix + tuple(self.cycle)
        size = 1 << n_bits
        for v in values:
            if type(v) is not int or not 0 <= v < size:
                # convert numpy integers, or name the first value that is not a block
                values = tuple(_word(v, n_bits) for v in values)
                break
        if len(values) == len(prefix):
            raise ValueError("cycle must be nonempty")
        start, period = len(prefix), _primitive_period(values[len(prefix):])
        while start and values[start - 1] == values[start - 1 + period]:
            start -= 1  # the prefix's last block equals the cycle's last: fold it in
        object.__setattr__(self, "prefix", values[:start])
        object.__setattr__(self, "cycle", values[start : start + period])

    @classmethod
    def from_values(cls, n_bits: int, prefix=(), cycle=(0,)) -> "MessageSequence":
        """The constructor under its older name."""
        return cls(n_bits, prefix, cycle)

    def block(self, i: int) -> BlockVector:
        """Block at 0-based index i."""
        if i < 0:
            raise IndexError("block index must be nonnegative")
        if i < len(self.prefix):
            return BlockVector(self.prefix[i], self.n_bits)
        return BlockVector(self.cycle[(i - len(self.prefix)) % len(self.cycle)], self.n_bits)

    def head(self, count: int) -> tuple:
        """The values of blocks 0..count-1."""
        if count < 0:
            raise ValueError("block count must be nonnegative")
        prefix, cycle = self.prefix, self.cycle
        if count <= len(prefix):
            return prefix[:count]
        whole, part = divmod(count - len(prefix), len(cycle))
        return prefix + cycle * whole + cycle[:part]

    def to_json(self) -> dict:
        bits = f"0{self.n_bits}b"
        return {
            "prefix": [format(v, bits) for v in self.prefix],
            "cycle": [format(v, bits) for v in self.cycle],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MessageSequence":
        prefix, cycle = ([BlockVector.from_bits(s) for s in data[key]] for key in ("prefix", "cycle"))
        if not cycle:
            raise ValueError("cycle must be nonempty")
        if len({b.n_bits for b in prefix + cycle}) > 1:
            raise ValueError("all blocks of a message must share n_bits")
        return cls(cycle[0].n_bits, [b.value for b in prefix], [b.value for b in cycle])


@dataclass(frozen=True)
class SystemPoint:
    """A state/message pair: one point of the mode's phase space.

    ``state`` is an int in [0, 2^N-1], read by ``cipher._word`` against the message's N.
    """

    state: int
    message: MessageSequence

    def __post_init__(self):
        object.__setattr__(self, "state", _word(self.state, self.message.n_bits))

    @property
    def n_bits(self) -> int:
        return self.message.n_bits

    def to_json(self) -> dict:
        d = {"state": format(self.state, f"0{self.n_bits}b")}
        d.update(self.message.to_json())
        return d

    @classmethod
    def from_json(cls, data: dict) -> "SystemPoint":
        return cls(BlockVector.from_bits(data["state"]), MessageSequence.from_json(data))


@dataclass(frozen=True)
class SystemConfig:
    """Cipher + inner function + combining convention: fixes the map iterated.

    ``inner_function`` is given as any full table of integers in [0, 2^N-1]
    and held as the read-only memoryview of one int64 array; the default is
    ``negation_table(N)``. The ``xor`` convention is only meaningful for the
    negation and is rejected otherwise.
    """

    cipher: CipherSpec
    inner_function: memoryview = field(default=None, repr=False)
    convention: str = CONVENTION_XOR

    def __hash__(self):
        return hash((self.cipher, self.inner_function.tobytes(), self.convention))

    def __post_init__(self):
        n_bits = self.cipher.n_bits
        table = self.inner_function
        if table is None:
            table = negation_table(n_bits)
        else:
            table = list(table)
            if len(table) != (1 << n_bits):
                raise ValueError(f"inner function table must have {1 << n_bits} entries, got {len(table)}")
            table = _lookup(_word_table(table, n_bits, "inner function table entries out of range")).data
        if self.convention not in CONVENTIONS:
            raise ValueError(
                f"unknown convention {self.convention!r}; expected one of {CONVENTIONS}"
            )
        if self.convention == CONVENTION_XOR and table != negation_table(n_bits):
            raise ValueError(
                "the xor convention requires the vectorial negation as inner function"
            )
        object.__setattr__(self, "inner_function", table)

    @property
    def n_bits(self) -> int:
        return self.cipher.n_bits


def shift_parts(m: MessageSequence, t: int) -> tuple:
    """(prefix, cycle) of m without blocks 0..t-1.

    A prefix slice, or a rotation of the cycle once the prefix is used up.
    """
    if t < 0:
        raise ValueError("shift count must be nonnegative")
    if t <= len(m.prefix):
        return m.prefix[t:], m.cycle
    r = (t - len(m.prefix)) % len(m.cycle)
    return (), m.cycle[r:] + m.cycle[:r]


def shift_by(m: MessageSequence, t: int) -> MessageSequence:
    """Drop blocks 0..t-1 (see ``shift_parts``)."""
    return MessageSequence(m.n_bits, *shift_parts(m, t))


def shift(m: MessageSequence) -> MessageSequence:
    """Drop block 0. Eventually periodic sequences are closed under this."""
    return shift_by(m, 1)


def combine(cfg: SystemConfig, x, m, inner):
    """The word E encrypts when state x consumes block m.

    x XOR m under ``xor``. Under ``paper-complement`` it is F_f(x, m): bit j
    is x_j where m has a 1 and bit j of f(x) = ``inner[x]`` where it has a 0.
    x and m are ints with a table's memoryview, or int64 columns with its array.
    """
    if cfg.convention == CONVENTION_XOR:
        return x ^ m
    return (x & m) | (inner[x] & (((1 << cfg.n_bits) - 1) ^ m))


def next_state_value(cfg: SystemConfig, x: int, m: int) -> int:
    """State map on raw integers: the new state after consuming block m in state x."""
    return cfg.cipher.forward_table[combine(cfg, x, m, cfg.inner_function)]


def preimage_block(cfg: SystemConfig, x: int, y: int):
    """The smallest block m with next_state_value(cfg, x, m) == y, or None if there is none.

    With c = E^-1(y) and d_x = x XOR f(x) the bits a block can steer from
    x, such a block exists iff c XOR x lies inside d_x. It is c XOR x under
    ``xor`` (where d_x is all ones) and NOT(c XOR x) AND d_x under
    ``paper-complement``, whose free bits outside d_x are left 0.
    """
    diff = cfg.cipher.inverse_table[y] ^ x
    if cfg.convention == CONVENTION_XOR:
        return diff
    steerable = x ^ cfg.inner_function[x]
    if diff & ~steerable:
        return None
    return ~diff & steerable


def step(cfg: SystemConfig, X: SystemPoint) -> SystemPoint:
    """One iterate: encrypt one block and shift the message."""
    if X.n_bits != cfg.n_bits:
        raise ValueError("point and config block sizes differ")
    return SystemPoint(next_state_value(cfg, X.state, X.message.head(1)[0]), shift(X.message))


def state_values(cfg: SystemConfig, X: SystemPoint, n: int) -> list:
    """The state values of X, G(X), ..., G^n(X) (n+1 integers)."""
    if n < 0:
        raise ValueError("iteration count must be nonnegative")
    if X.n_bits != cfg.n_bits:
        raise ValueError("point and config block sizes differ")
    forward, inner = cfg.cipher.forward_table, cfg.inner_function
    x = X.state
    states = [x]
    for m in X.message.head(n):
        x = forward[combine(cfg, x, m, inner)]
        states.append(x)
    return states


def iterate(cfg: SystemConfig, X: SystemPoint, n: int):
    """The trajectory [X, G(X), ..., G^n(X)] (n+1 points)."""
    return [SystemPoint(x, shift_by(X.message, t)) for t, x in enumerate(state_values(cfg, X, n))]


def state_after(cfg: SystemConfig, X: SystemPoint, n: int) -> int:
    """The state of G^n(X), without materializing intermediate points."""
    return state_values(cfg, X, n)[-1]
