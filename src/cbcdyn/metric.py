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
one base-10 number, A the first L of them, and digits above 9 carry. Every
Python-int evaluation reads them through :func:`_digits`. The distances of
one message pair at a few steps (:func:`scaled_distance`) read them from
one Hamming row, and :func:`closer` compares one with a radius as integers.
Orbit distances (the n-step metric of Bowen) read integer rows of states
and blocks (:class:`OrbitRows`). One walker, :meth:`OrbitRows.walk`, steps
all rows together, one numpy column of states per step: :func:`orbit_rows`
lays out the rows of given points with it, and ``chaoslab`` the rows of
its zero-tailed entropy grid. :meth:`OrbitRows.scaled` scores XORed pairs
of rows of any leading shape over a whole window at once: every a x b
pair (:meth:`OrbitRows.sums`), or row X_i against row Y_i (the expansivity
probe). It works in numpy int64 when (N+1) * D leaves the headroom, one
multiply-add per block weight, and in Python ints otherwise
(:func:`exact_dtype`), where each pair reads its digits once and carries
its message term from step to step: O(pairs * (n + L + P)) big-int
operations. A ``Fraction`` is built only at the boundary: the distance
returned, or the maximum over a window. Exact values render as strings of
any length (:func:`fraction_str`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import lcm
from operator import sub, xor

import numpy as np

from .dynamics import MessageSequence, SystemConfig, SystemPoint, combine_rule

# Cap on L+P, the block columns of one scale. A distance reads L+P digits and
# builds one Fraction: at the cap, one CLI distance, mix or sensitivity run
# takes 0.25-0.35 s and 30-32 MB on a 2-vCPU Xeon VM, 0.03-0.09 s past the
# import. Orbit rows do not multiply that cost by n: their Python-int sums
# carry each pair's message term from step to step (``OrbitRows._rolled``).
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
    term is 9 * (F - A) (see ``_digits``), so blocks that differ in all bits
    give exactly D. D has about L+P digits, and no block weight is built.
    A ValueError refuses L+P above ``SCALE_GUARD`` before D is built.
    """
    if prefix_len + period > SCALE_GUARD:
        raise ValueError(
            f"the exact scale for longest prefix L = {prefix_len} and joint period P = {period} "
            f"needs L+P = {prefix_len + period} weight columns, above the cap of {SCALE_GUARD}"
        )
    return n_bits * 10 ** prefix_len * (10 ** period - 1)


def _digits(h: list, start: int, prefix_len: int, period: int) -> tuple:
    """(F, A): ``h[start:start+L+P]`` and ``h[start:start+L]`` read as base-10 numbers, digits above 9 carrying.

    For h the block Hamming distances of two messages, 9 * (F - A) over D is
    the series from block ``start`` on, over the prefix and every repeat of the tail.
    """
    a = 0
    for v in h[start : start + prefix_len]:
        a = 10 * a + v
    f = a
    for v in h[start + prefix_len : start + prefix_len + period]:
        f = 10 * f + v
    return f, a


def scaled_distance(m: MessageSequence, other: MessageSequence, *at) -> list:
    """[d * D for each triple (t, x, y) of ``at``, then D]: d = d(G^t X, G^t Y), D from ``orbit_scale``.

    ``x`` and ``y`` are the state values of the two orbits at step t, and
    ``m`` and ``other`` their unshifted messages. One Hamming row of their
    blocks serves every step: step t reads its L+P entries from t on as the
    digits F and A of ``_digits``.
    """
    if m.n_bits != other.n_bits:
        raise ValueError("block size mismatch")
    prefix_len, period = max(len(m.prefix), len(other.prefix)), lcm(len(m.cycle), len(other.cycle))
    scale = orbit_scale(m.n_bits, prefix_len, period)
    stop = max(at)[0] + prefix_len + period
    hamming = [*map(int.bit_count, map(xor, m.head(stop), other.head(stop)))]
    scaled = []
    for t, x, y in at:
        f, a = _digits(hamming, t, prefix_len, period)
        scaled.append((x ^ y).bit_count() * scale + 9 * (f - a))
    scaled.append(scale)
    return scaled


def message_distance(m: MessageSequence, other: MessageSequence) -> Fraction:
    """Exact message distance in [0, 1]."""
    return Fraction(*scaled_distance(m, other, (0, 0, 0)))


def distance(X: SystemPoint, Y: SystemPoint) -> Fraction:
    """The phase-space distance: state Hamming distance plus message term."""
    return Fraction(*scaled_distance(X.message, Y.message, (0, X.state, Y.state)))


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
    them. ``weights`` holds the L+P block weights of ``_digits`` on int64,
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
        ``_digits``. In int64, one multiply-add per block weight over every
        pair and step at once. In Python ints, each pair carries its message
        term from step to step (``_rolled``).
        """
        n = self.n
        hamming = np.bitwise_count(xored)
        if self.dtype is object:
            return self._rolled(hamming)
        hamming = hamming.astype(self.dtype)
        scaled = hamming[..., :n] * self.scale
        for c, w in enumerate(self.weights):
            scaled += w * hamming[..., n + c : 2 * n + c]
        return scaled

    def _rolled(self, hamming: np.ndarray) -> np.ndarray:
        """The Python-int sums, O(n + L + P) big-int operations per pair.

        Step 0 reads the message term 9 * (F - A) with ``_digits``. One step
        drops the leading digit of F and of A and appends block t+L+P to F
        and block t+L to A. The tail repeats with period P, so these are
        one value and cancel in F - A: the term at step t+1 is 10 times the
        term at step t, less 9 * h_t * D / N, and no entering block is read.
        """
        n, scale = self.n, self.scale
        leaving = 9 * 10**self.prefix_len * (10**self.period - 1)  # 9 * D / N
        sums = []
        for row in hamming.reshape(-1, hamming.shape[-1]).tolist():
            f, a = _digits(row, n, self.prefix_len, self.period)
            term = 9 * (f - a)
            for t in range(n):
                sums.append(row[t] * scale + term)
                term = 10 * term - row[n + t] * leaving
        return np.array(sums, dtype=object).reshape(hamming.shape[:-1] + (n,))


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
    rows = orbit_rows(cfg, (X, Y), stop)
    return Fraction(int(rows.scaled(rows.matrix[0] ^ rows.matrix[1])[first:].max()), rows.scale)


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
    return closer(*scaled_distance(ball.center.message, Y.message, (0, ball.center.state, Y.state)), ball.radius)


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
