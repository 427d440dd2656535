"""Exact metric on the phase space, with no floating point anywhere.

The distance between two points is the Hamming distance of their states
plus a message term

    d_m = (9/N) * sum_{k>=1} h_k / 10^k,

h_k being the Hamming distance of the k-th blocks (series index k names the
block at 0-based index k-1). The 9/N factor normalizes the message term
into [0, 1] and gives the series a digit-like reading: term k vanishes iff
the k-th blocks agree, and agreement on the first k blocks bounds the whole
tail by 10^-k.

One scale carries every distance. Over messages with longest prefix L and
joint period P, every block index >= L repeats with period P, so every
distance between points built from them and their shifts is an integer
over D = N * 10^L * (10^P - 1) (:func:`orbit_scale`, memoised on integer
N, L, P, and refused past L+P = ``SCALE_GUARD``). On it the message term
is 9 * (F - A): F reads the L+P block Hamming distances from block t on as
one base-10 number, A the first L of them, and digits above 9 carry.

One Python-int routine, :func:`_rolled`, evaluates it: it reads F - A once
at step 0, then carries the term from step to step, from one Hamming row
of states and blocks. Pairs run on the integer walk: :func:`scaled_distance`
scores two orbits' state lists (``dynamics.state_values``) at every step,
and serves :func:`distance`, :func:`in_ball` (through :func:`closer`, an
integer comparison with a radius) and the orbit distances of one pair
(the n-step metric of Bowen, :func:`max_orbit_distance`). Batches run on
the column walk: :class:`OrbitRows` holds integer rows of states and
blocks, and :meth:`OrbitRows.walk` steps all rows together, one numpy
column of states per step. :func:`orbit_rows` lays out the rows of given
points with it, and ``chaoslab`` the rows of its zero-tailed entropy grid.
:meth:`OrbitRows.scaled` scores XORed pairs of rows of any leading shape
over a whole window at once: every a x b pair (:meth:`OrbitRows.sums`), or
row X_i against row Y_i (the expansivity probe). It works in numpy int64
when (N+1) * D leaves the headroom, one multiply-add per block weight, and
otherwise runs ``_rolled`` on each row (:func:`exact_dtype`): O(n + L + P)
big-int operations per pair. A ``Fraction`` is built only at the
boundary: the distance returned, or the maximum over a window. Exact
values render as strings of any length (:func:`fraction_str`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import islice
from math import lcm
from operator import sub, xor

import numpy as np

from .dynamics import MessageSequence, SystemConfig, SystemPoint, combine_rule, state_values

# Cap on L+P, the block columns of one scale. A distance reads L+P digits and
# builds one Fraction: at the cap, one CLI distance, mix or sensitivity run
# takes 0.25-0.35 s and 30-32 MB on a 2-vCPU Xeon VM, 0.03-0.09 s past the
# import. Orbit distances do not multiply that cost by n: their Python-int
# sums carry each pair's message term from step to step (``_rolled``).
SCALE_GUARD = 1 << 14


def state_distance(x: int, y: int) -> int:
    """Hamming distance between two state values, in [0, N]."""
    return (x ^ y).bit_count()


@functools.lru_cache(maxsize=256)  # a run meets few (N, L, P); the cap bounds one that meets many
def orbit_scale(n_bits: int, prefix_len: int, period: int) -> int:
    """Common scale D for longest prefix L and joint period P.

    Over messages with that L and P, every block index >= L repeats with
    period P, so the distance of two orbits at any step t is an integer over
    D = N * 10^L * (10^P - 1): the state term is H_t * D and the message
    term is 9 * (F - A) (see ``_rolled``), so blocks that differ in all bits
    give exactly D. D has about L+P digits, and no block weight is built.
    A ValueError refuses L+P above ``SCALE_GUARD`` before D is built.
    """
    if prefix_len + period > SCALE_GUARD:
        raise ValueError(
            f"the exact scale for longest prefix L = {prefix_len} and joint period P = {period} "
            f"needs L+P = {prefix_len + period} weight columns, above the cap of {SCALE_GUARD}"
        )
    return n_bits * 10 ** prefix_len * (10 ** period - 1)


def _rolled(row: list, n: int, scale: int, prefix_len: int, period: int) -> list:
    """d * D at steps 0..n-1 of one pair, written over its Hamming row, which is returned cut to n.

    ``row`` holds the state Hamming distances H_0..H_{n-1}, then those of
    blocks 0, 1, ..., at least L+P and n-1 of them. Step 0 reads the
    message term 9 * (F - A): F reads blocks 0..L+P-1 as one base-10
    number, A blocks 0..L-1, digits above 9 carrying. One step drops the
    leading digit of F and of A and appends block t+L+P to F and block t+L
    to A. The tail repeats with period P, so these are one value and cancel
    in F - A: the term at step t+1 is 10 times the term at step t, less
    9 * h_t * D / N, and no entering block is read.
    """
    a = 0
    for v in row[n : n + prefix_len]:
        a = 10 * a + v
    f = a
    for v in row[n + prefix_len : n + prefix_len + period]:
        f = 10 * f + v
    term = 9 * (f - a)
    row[0] = row[0] * scale + term
    if n > 1:
        leaving = 9 * 10**prefix_len * (10**period - 1)  # 9 * D / N
        for t, block in enumerate(islice(row, n, 2 * n - 1), 1):
            term = 10 * term - block * leaving
            row[t] = row[t] * scale + term
    del row[n:]
    return row


def scaled_distance(m: MessageSequence, other: MessageSequence, xs: list, ys: list) -> tuple:
    """(sums, D): sums[t] = d(G^t X, G^t Y) * D for every step t < len(xs), D from ``orbit_scale``.

    ``xs`` and ``ys`` are the n state values of each orbit from step 0 on,
    and ``m`` and ``other`` their unshifted messages. One Hamming row of
    the states and of the first max(n, L+P) blocks serves every step
    (``_rolled``).
    """
    if m.n_bits != other.n_bits:
        raise ValueError("block size mismatch")
    n = len(xs)
    if len(ys) != n:
        raise ValueError("the two orbits need state lists of one length")
    prefix_len, period = max(len(m.prefix), len(other.prefix)), lcm(len(m.cycle), len(other.cycle))
    scale = orbit_scale(m.n_bits, prefix_len, period)
    count = n if n > prefix_len + period else prefix_len + period
    row = [*map(int.bit_count, map(xor, xs, ys))]
    row += map(int.bit_count, map(xor, m.head(count), other.head(count)))
    return _rolled(row, n, scale, prefix_len, period), scale


def message_distance(m: MessageSequence, other: MessageSequence) -> Fraction:
    """Exact message distance in [0, 1]: the distance of two points that share a state."""
    return distance(SystemPoint(0, m), SystemPoint(0, other))


def distance(X: SystemPoint, Y: SystemPoint) -> Fraction:
    """The phase-space distance: state Hamming distance plus message term."""
    (gap,), scale = scaled_distance(X.message, Y.message, [X.state], [Y.state])
    return Fraction(gap, scale)


def exact_dtype(bound: int):
    """numpy int64 when every value stays below ``bound`` < 2^63, else Python ints."""
    return np.int64 if bound < 1 << 63 else object


@dataclass(frozen=True)
class OrbitRows:
    """The first n steps of a list of orbits, as integer rows on one scale.

    Row i holds the states x_0..x_{n-1} of point i, then its blocks
    0..n-2+L+P: every value the n orbit distances of a pair read. D comes
    from ``orbit_scale`` over all the points' messages, whose longest prefix
    L is ``prefix_len`` and joint period P is ``period``, and ``dtype`` is
    the one ``exact_dtype((N+1) * D)`` choice that bounds every sum over
    them. ``weights`` holds the L+P block weights of F - A on int64,
    and is () on Python ints. Step t reads state t and blocks t..t+L+P-1
    alone, so the sums of a pair at steps below n' < n are those of the
    n'-step window: the rows of the longest window serve every shorter one.
    """

    matrix: np.ndarray
    n: int
    scale: int
    weights: tuple
    dtype: object
    prefix_len: int
    period: int

    @classmethod
    def walk(cls, cfg: SystemConfig, matrix: np.ndarray, n: int, prefix_len: int, period: int) -> "OrbitRows":
        """Fill the states of ``matrix`` in place and lay it out on the scale of L = ``prefix_len``, P = ``period``.

        Column 0 holds each orbit's initial state and columns n.. its blocks;
        all orbits step together, one numpy column of states per step.
        """
        forward, rule = cfg.cipher.forward, combine_rule(cfg, np.asarray(cfg.inner_function))
        for t in range(n - 1):
            matrix[:, t + 1] = forward[rule(matrix[:, t], matrix[:, n + t])]
        scale = orbit_scale(cfg.n_bits, prefix_len, period)
        dtype, tens = exact_dtype((cfg.n_bits + 1) * scale), []
        if dtype is not object:  # small L+P: w_c = 9 * 10^(L+P-1-c), less 9 * 10^(L-1-c) when c < L
            tens = [9 * 10**k for k in reversed(range(prefix_len + period))] + [0] * period
        return cls(matrix, n, scale, tuple(map(sub, tens, tens[period:])), dtype, prefix_len, period)

    def sums(self, a, b) -> np.ndarray:
        """d * D between each row of ``a`` and each row of ``b``, shape (len(a), len(b), n)."""
        return self.scaled(self.matrix[a][:, None] ^ self.matrix[b])

    def scaled(self, xored: np.ndarray) -> np.ndarray:
        """d * D at steps 0..n-1 of each XOR of two rows, shape (..., n) for ``xored`` of shape (..., width).

        The state term H_t * D plus the message term 9 * (F - A) of
        ``_rolled``. In int64, one multiply-add per block weight over every
        pair and step at once. In Python ints, ``_rolled`` on each row.
        """
        n, hamming = self.n, np.bitwise_count(xored)
        if self.dtype is object:
            rows = hamming.reshape(-1, hamming.shape[-1]).tolist()
            sums = [s for row in rows for s in _rolled(row, n, self.scale, self.prefix_len, self.period)]
            return np.array(sums, dtype=object).reshape(hamming.shape[:-1] + (n,))
        hamming = hamming.astype(self.dtype)
        scaled = hamming[..., :n] * self.scale
        for c, w in enumerate(self.weights):
            scaled += w * hamming[..., n + c : 2 * n + c]
        return scaled


def orbit_rows(cfg: SystemConfig, points, n: int) -> OrbitRows:
    """Lay out the first n steps of every point's orbit (see ``OrbitRows.walk``)."""
    points = list(points)
    if n < 1:
        raise ValueError("orbit rows need n >= 1")
    if any(p.n_bits != cfg.n_bits for p in points):
        raise ValueError("point and config block sizes differ")
    prefix_len = max((len(p.message.prefix) for p in points), default=0)
    period = lcm(*(len(p.message.cycle) for p in points))
    width = n - 1 + prefix_len + period
    matrix = np.empty((len(points), n + width), dtype=np.int64)
    matrix[:, 0] = [p.state for p in points]
    if points:
        matrix[:, n:] = [p.message.head(width) for p in points]
    return OrbitRows.walk(cfg, matrix, n, prefix_len, period)


def max_orbit_distance(cfg: SystemConfig, X: SystemPoint, Y: SystemPoint, first: int, stop: int) -> Fraction:
    """max of d(G^t X, G^t Y) over first <= t < stop, exactly (see ``orbit_scale``); 0 <= first < stop."""
    if not 0 <= first < stop:
        raise ValueError(f"orbit window needs 0 <= first < stop, got first = {first} and stop = {stop}")
    sums, scale = scaled_distance(X.message, Y.message, *(state_values(cfg, point, stop - 1) for point in (X, Y)))
    return Fraction(max(islice(sums, first, None)), scale)


def bowen_distance(cfg: SystemConfig, X: SystemPoint, Y: SystemPoint, n: int) -> Fraction:
    """max of d over the first n iterates (indices 0..n-1), exactly."""
    if n < 1:
        raise ValueError("bowen distance needs n >= 1")
    return max_orbit_distance(cfg, X, Y, 0, n)


def _fraction(x) -> Fraction:
    """``x`` as a Fraction of Python ints, built only when it is not one; its denominator is positive."""
    x = x if type(x) is Fraction else Fraction(x)
    numerator, denominator = x.as_integer_ratio()
    if type(numerator) is int and type(denominator) is int:
        return x
    return Fraction(int(numerator), int(denominator))  # Fraction keeps numpy integers as they are


@dataclass(frozen=True)
class Ball:
    """Open ball: membership is the strict inequality d(center, .) < radius."""

    center: SystemPoint
    radius: Fraction

    def __post_init__(self):
        radius = _fraction(self.radius)
        if radius.numerator <= 0:
            raise ValueError("ball radius must be positive")
        object.__setattr__(self, "radius", radius)


def closer(gap: int, scale: int, radius: Fraction) -> bool:
    """Whether the distance gap / D lies strictly below ``radius`` = p/q: gap * q < p * D."""
    return gap * radius.denominator < radius.numerator * scale


def in_ball(ball: Ball, Y: SystemPoint) -> bool:
    """Strict, exact membership test on integers (see ``closer``)."""
    (gap,), scale = scaled_distance(ball.center.message, Y.message, [ball.center.state], [Y.state])
    return closer(gap, scale, ball.radius)


# Both renderings print integers through Decimal, which, unlike str, has no
# int-to-str digit limit: exact values of any length render.
def fraction_str(q) -> str:
    """Render an exact value as "p/q" or a bare integer string."""
    q = Fraction(q)
    text = f"{Decimal(q.numerator)}"
    return text if q.denominator == 1 else f"{text}/{Decimal(q.denominator)}"


def decimal_str(q, digits: int = 12) -> str:
    """Exact decimal expansion truncated to ``digits`` fractional digits."""
    q = Fraction(q)
    if digits < 0:
        raise ValueError("digits must be nonnegative")
    sign = "-" if q < 0 else ""
    q = abs(q)
    whole, rem = divmod(q.numerator, q.denominator)
    if digits == 0:
        return f"{sign}{Decimal(whole)}"
    scaled = rem * 10 ** digits // q.denominator
    return f"{sign}{Decimal(whole)}.{Decimal(scaled):0{digits}f}"
