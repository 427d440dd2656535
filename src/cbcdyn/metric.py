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
over D = N * 10^L * (10^P - 1), with block weights from :func:`orbit_scale`
(memoised on integer N, L, P). A single distance (:func:`scaled_distance`)
sums that integer in Python ints, and :func:`in_ball` compares it with the
radius as integers. Orbit distances (the n-step metric of Bowen) read
integer rows of states and blocks (:class:`OrbitRows`): :func:`orbit_rows`
walks the orbit of each given point once, and ``chaoslab`` lays out the
rows of its zero-tailed entropy grid directly. :meth:`OrbitRows.sums`
scores every pair of two sets of rows over a whole window at once, in
numpy int64 when (N+1) * D leaves the headroom and in Python ints
otherwise (:func:`exact_dtype`). A ``Fraction`` is built only at the
boundary: the distance returned, or the maximum over a window. Exact
values render as strings of any length (:func:`fraction_str`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import lcm
from operator import mul, xor

import numpy as np

from .cipher import BlockVector
from .dynamics import MessageSequence, SystemConfig, SystemPoint, state_values


def state_distance(x: BlockVector, y: BlockVector) -> int:
    """Hamming distance between two states, in [0, N]."""
    if x.n_bits != y.n_bits:
        raise ValueError("block size mismatch")
    return (x.value ^ y.value).bit_count()


@functools.lru_cache(maxsize=256)  # a run meets few (N, L, P); the cap bounds one that meets many
def orbit_scale(n_bits: int, prefix_len: int, period: int) -> tuple:
    """Common scale D and block weights for longest prefix L and joint period P.

    Over messages with that L and P, every block index >= L repeats with
    period P, so the distance of two orbits at any step t is an integer over
    D = N * 10^L * (10^P - 1): the state term is H_t * D and the message
    term is sum_c w_c * h_{t+c} over the L+P weight columns, with
    w_c = 9 * 10^(L-1-c) * (10^P - 1) for c < L and 9 * 10^(L+P-1-c) after,
    so blocks that differ in all bits give exactly D. Returns (D, weights).
    """
    repeat = 10 ** period - 1
    scale = n_bits * 10 ** prefix_len * repeat
    weights = [9 * 10 ** (prefix_len - 1 - c) * repeat for c in range(prefix_len)]
    weights += [9 * 10 ** (period - 1 - c) for c in range(period)]
    return scale, tuple(weights)


def scaled_distance(x: int, y: int, m: MessageSequence, other: MessageSequence, t: int = 0) -> tuple:
    """d(G^t X, G^t Y) as the integer pair (d * D, D), D from ``orbit_scale``.

    ``x`` and ``y`` are the state values of the two orbits at step t, and
    ``m`` and ``other`` their unshifted messages: the message term reads
    blocks t, t+1, ... of both, one Python-int product per weight.
    """
    if m.n_bits != other.n_bits:
        raise ValueError("block size mismatch")
    prefix_len, period = max(len(m.prefix), len(other.prefix)), lcm(len(m.cycle), len(other.cycle))
    scale, weights = orbit_scale(m.n_bits, prefix_len, period)
    stop = t + len(weights)
    hamming = map(int.bit_count, map(xor, m.head(stop)[t:], other.head(stop)[t:]))
    return (x ^ y).bit_count() * scale + sum(map(mul, weights, hamming)), scale


def message_distance(m: MessageSequence, other: MessageSequence) -> Fraction:
    """Exact message distance in [0, 1]."""
    return Fraction(*scaled_distance(0, 0, m, other))


def distance(X: SystemPoint, Y: SystemPoint) -> Fraction:
    """The phase-space distance: state Hamming distance plus message term."""
    return Fraction(*scaled_distance(X.state.value, Y.state.value, X.message, Y.message))


def exact_dtype(bound: int):
    """numpy int64 when every value stays below ``bound`` < 2^63, else Python ints."""
    return np.int64 if bound < 1 << 63 else object


@dataclass(frozen=True)
class OrbitRows:
    """The first n steps of a list of orbits, as integer rows on one scale.

    Row i holds the states x_0..x_{n-1} of point i, then its blocks
    0..n-2+L+P: every value the n orbit distances of a pair read. (D,
    weights) come from ``orbit_scale`` over all the points' messages, and
    ``dtype`` is the one ``exact_dtype((N+1) * D)`` choice that bounds
    every sum over them. Step t reads state t and blocks t..t+L+P-1 alone,
    so the sums of a pair at steps below n' < n are those of the n'-step
    window: the rows of the longest window serve every shorter one.
    """

    matrix: np.ndarray
    n: int
    scale: int
    weights: tuple
    dtype: object

    @classmethod
    def on_scale(cls, n_bits: int, matrix: np.ndarray, n: int, prefix_len: int, period: int) -> "OrbitRows":
        """The rows ``matrix`` of n steps, on the scale of ``orbit_scale(n_bits, prefix_len, period)``."""
        scale, weights = orbit_scale(n_bits, prefix_len, period)
        return cls(matrix, n, scale, weights, exact_dtype((n_bits + 1) * scale))

    def sums(self, a, b) -> np.ndarray:
        """d * D between each row of ``a`` and each row of ``b``, shape (len(a), len(b), n).

        The state term H_t * D plus sum_c w_c * h_{t+c}, summed for every
        pair and the whole window at once from one XOR of the rows.
        """
        n = self.n
        hamming = np.bitwise_count(self.matrix[a][:, None] ^ self.matrix[b]).astype(self.dtype)
        scaled = hamming[..., :n] * self.scale
        for c, w in enumerate(self.weights):
            scaled += w * hamming[..., n + c : 2 * n + c]
        return scaled


def orbit_rows(cfg: SystemConfig, points, n: int) -> OrbitRows:
    """Walk each orbit once and lay out its first n steps (see ``OrbitRows``)."""
    points = list(points)
    prefix_len = max((len(p.message.prefix) for p in points), default=0)
    period = lcm(*(len(p.message.cycle) for p in points))
    width = n - 1 + prefix_len + period
    matrix = np.array(
        [(*state_values(cfg, p, n - 1), *p.message.head(width)) for p in points],
        dtype=np.int64,
    ).reshape(len(points), n + width)
    return OrbitRows.on_scale(cfg.n_bits, matrix, n, prefix_len, period)


def max_orbit_distance(cfg: SystemConfig, X: SystemPoint, Y: SystemPoint, first: int, stop: int) -> Fraction:
    """max of d(G^t X, G^t Y) over first <= t < stop, exactly (see ``orbit_scale``)."""
    rows = orbit_rows(cfg, (X, Y), stop)
    return Fraction(int(rows.sums([0], [1])[0, 0, first:].max()), rows.scale)


def bowen_distance(cfg: SystemConfig, X: SystemPoint, Y: SystemPoint, n: int) -> Fraction:
    """max of d over the first n iterates (indices 0..n-1), exactly."""
    if n < 1:
        raise ValueError("bowen distance needs n >= 1")
    return max_orbit_distance(cfg, X, Y, 0, n)


@dataclass(frozen=True)
class Ball:
    """Open ball: membership is the strict inequality d(center, .) < radius."""

    center: SystemPoint
    radius: Fraction

    def __post_init__(self):
        radius = Fraction(self.radius)
        if radius <= 0:
            raise ValueError("ball radius must be positive")
        object.__setattr__(self, "radius", radius)


def in_ball(ball: Ball, Y: SystemPoint) -> bool:
    """Strict, exact membership test on integers: d * q < p * D for radius p/q."""
    gap, scale = scaled_distance(ball.center.state.value, Y.state.value, ball.center.message, Y.message)
    return gap * ball.radius.denominator < ball.radius.numerator * scale


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
