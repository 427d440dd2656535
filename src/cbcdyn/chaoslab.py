"""Constructive and empirical chaos measurements for the one-block map.

Everything here is exact and desk-scale:

* mixing witness: given any open ball and any target point, construct a
  point of the ball whose orbit lands exactly on the target, by copying
  enough message blocks to stay in the ball and then inserting one
  correction block that steers the state through the cipher inverse;
* sensitivity witness: the same steering trick, aimed at the bitwise
  complement of the unperturbed orbit, which forces the maximal state
  separation N while starting arbitrarily close;
* expansivity probe: a bounded-horizon search for orbit pairs that fail to
  separate, including adversarial pairs built to coalesce after one step
  (an observation, never a proof);
* separated sets and entropy profile: lower bounds on the maximal number of
  orbits that stay pairwise apart over an n-step window (Bowen's
  (n, epsilon)-separated sets), the finite shadow of the entropy growth of
  the full system. Separation is decided by one exact integer kernel: every
  distance in the window is an integer over one common scale, compared in
  numpy int64 when it fits and in Python ints otherwise, with no per-pair
  ``Fraction``. A cost guard refuses an entropy profile whose estimate
  points^2 x n_max(n_max+1)/2 x (prefix_len+2) exceeds
  ``ENTROPY_COST_GUARD``; grids of a few thousand points take seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm, log

import numpy as np

from .cipher import BlockVector, SplitMix64
from .dynamics import (
    CONVENTION_XOR,
    MessageSequence,
    SystemConfig,
    SystemPoint,
    iterate,
    negation_table,
    next_state_value,
    shift,
    state_after,
)
from .metric import Ball, bowen_distance, distance, in_ball

EXACT_MODE_MAX_CANDIDATES = 64
# Cap on the work estimate of an entropy profile, calibrated so that an
# admitted run on a grid that keeps every point ends in about a minute on a
# 2-vCPU Xeon VM.
ENTROPY_COST_GUARD = 5 * 10**9
# Materialisation cap on the grid; no larger grid passes the cost guard.
GRID_GUARD = 1 << 15


def scale_index(epsilon) -> int:
    """Smallest t with 10^-t <= epsilon (exact, for rational epsilon)."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    t = 0
    while Fraction(1, 10 ** t) > epsilon:
        t += 1
    return t


def agreement_length(epsilon) -> int:
    """Blocks to copy so that agreement guarantees strict ball membership.

    Copying k blocks bounds the distance by 10^-k; with k one past the
    scale of epsilon the bound is at most epsilon/10, hence strictly
    inside.
    """
    return scale_index(epsilon) + 1


def _correction_block(cfg: SystemConfig, reached_state: int, wanted_state: int) -> BlockVector:
    """The block that sends ``reached_state`` to ``wanted_state`` in one step."""
    n_bits = cfg.n_bits
    pre_image = cfg.cipher.inverse_table[wanted_state]
    c = reached_state ^ pre_image
    if cfg.convention != CONVENTION_XOR:
        c ^= (1 << n_bits) - 1
    return BlockVector(c, n_bits)


def _splice(head: tuple, block: BlockVector, tail: MessageSequence) -> MessageSequence:
    """Message reading ``head``, then ``block``, then ``tail`` verbatim."""
    return MessageSequence(head + (block,) + tail.prefix, tail.cycle)


@dataclass(frozen=True)
class MixingWitness:
    """A ball point whose orbit reaches the target exactly, with its audit trail."""

    constructed_point: SystemPoint
    steps: int
    k: int
    target: SystemPoint
    ball: Ball

    def to_json(self) -> dict:
        return {
            "constructed_point": self.constructed_point.to_json(),
            "steps": self.steps,
            "k": self.k,
            "target": self.target.to_json(),
            "ball_center": self.ball.center.to_json(),
            "ball_radius": str(self.ball.radius),
        }


def mixing_witness(cfg: SystemConfig, ball: Ball, target: SystemPoint) -> MixingWitness:
    """Construct a point of ``ball`` that lands exactly on ``target``.

    The point copies the center's state and first k message blocks (k one
    past the scale of the radius), then one correction block computed from
    the k-step state and the cipher inverse of the target state, then the
    target's message verbatim. Arrival after k+1 steps is exact and is
    verified before returning.
    """
    if ball.radius >= 1:
        raise ValueError("mixing construction requires a ball radius strictly below 1")
    if ball.center.n_bits != cfg.n_bits or target.n_bits != cfg.n_bits:
        raise ValueError("block size mismatch")
    k = agreement_length(ball.radius)
    reached = state_after(cfg, ball.center, k)
    correction = _correction_block(cfg, reached.value, target.state.value)
    point = SystemPoint(
        ball.center.state,
        _splice(ball.center.message.head(k), correction, target.message),
    )
    witness = MixingWitness(point, steps=k + 1, k=k, target=target, ball=ball)
    if not verify_mixing(cfg, witness):
        raise RuntimeError(
            "mixing construction failed its own verification; "
            "this indicates a convention or cipher-table bug"
        )
    return witness


def verify_mixing(cfg: SystemConfig, witness: MixingWitness) -> bool:
    """Re-check ball membership and exact arrival, independently of the construction."""
    if not in_ball(witness.ball, witness.constructed_point):
        return False
    final = iterate(cfg, witness.constructed_point, witness.steps)[-1]
    return final == witness.target


def sensitivity_witness(cfg: SystemConfig, X: SystemPoint, epsilon, delta):
    """A point of ball(X, epsilon) whose orbit separates from X's by at least N.

    Copies k blocks of X's message, then one steering block that forces the
    state after k+1 steps to the bitwise complement of X's state there; the
    tail is X's own, so the whole separation sits in the state part and the
    achieved orbit distance is exactly N >= delta.

    Returns (Y, n, achieved).
    """
    epsilon = Fraction(epsilon)
    delta = Fraction(delta)
    n_bits = cfg.n_bits
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    if delta > n_bits:
        raise ValueError(f"delta must not exceed the block size {n_bits}")
    if X.n_bits != n_bits:
        raise ValueError("block size mismatch")
    mask = (1 << n_bits) - 1

    k = agreement_length(epsilon)
    reached = state_after(cfg, X, k)
    unperturbed_next = next_state_value(cfg, reached.value, X.message.block(k).value)
    steering = _correction_block(cfg, reached.value, unperturbed_next ^ mask)

    tail = X.message
    for _ in range(k + 1):
        tail = shift(tail)
    Y = SystemPoint(X.state, _splice(X.message.head(k), steering, tail))

    n = k + 1
    achieved = distance(iterate(cfg, X, n)[-1], iterate(cfg, Y, n)[-1])
    if not in_ball(Ball(X, epsilon), Y) or achieved < n_bits:
        raise RuntimeError("sensitivity construction failed its own verification")
    return Y, n, achieved


def steered_merge_pair(cfg: SystemConfig, X: SystemPoint, other_state: BlockVector):
    """A pair (X, Y) with different states whose orbits coincide from step 1 on.

    Y starts in ``other_state`` and its first block is chosen so that one
    step lands on G(X) exactly; the rest of Y's message is X's shifted one.
    """
    if other_state == X.state:
        raise ValueError("merge partner must start in a different state")
    next_value = next_state_value(cfg, X.state.value, X.message.block(0).value)
    first = _correction_block(cfg, other_state.value, next_value)
    Y = SystemPoint(other_state, _splice((), first, shift(X.message)))
    return X, Y


def sample_block(stream: SplitMix64, n_bits: int) -> BlockVector:
    return BlockVector(stream.next_below(1 << n_bits), n_bits)


def sample_message(
    stream: SplitMix64, n_bits: int, max_prefix: int = 3, max_cycle: int = 2
) -> MessageSequence:
    """A random eventually periodic message (canonicalization may shorten it)."""
    prefix_len = stream.next_below(max_prefix + 1)
    cycle_len = 1 + stream.next_below(max_cycle)
    return MessageSequence(
        tuple(sample_block(stream, n_bits) for _ in range(prefix_len)),
        tuple(sample_block(stream, n_bits) for _ in range(cycle_len)),
    )


def sample_point(stream: SplitMix64, n_bits: int, **kwargs) -> SystemPoint:
    return SystemPoint(sample_block(stream, n_bits), sample_message(stream, n_bits, **kwargs))


@dataclass(frozen=True)
class ExpansivityReport:
    """Bounded-horizon orbit-separation observation. Never a proof."""

    horizon: int
    samples: int
    seed: int
    min_max_orbit_distance: Fraction
    witness_pair: tuple
    initial_distance: Fraction
    conclusive: bool = False
    note: str = (
        "bounded-horizon observation only; a small value suggests failure of "
        "expansivity at this scale but proves nothing about the full system"
    )

    def to_json(self) -> dict:
        X, Y = self.witness_pair
        return {
            "horizon": self.horizon,
            "samples": self.samples,
            "seed": self.seed,
            "min_max_orbit_distance": str(self.min_max_orbit_distance),
            "witness_pair": {"x": X.to_json(), "y": Y.to_json()},
            "initial_distance": str(self.initial_distance),
            "conclusive": self.conclusive,
            "note": self.note,
        }


def expansivity_probe(
    cfg: SystemConfig, horizon: int, samples: int, seed: int
) -> ExpansivityReport:
    """min over sampled pairs of max over steps 1..horizon of the orbit distance.

    Pairs alternate between independent random distinct points and
    adversarial steered merges (which coalesce after one step and pull the
    minimum to zero). Pairs are drawn from one seed-extended stream, so a
    larger ``samples`` examines a superset and the minimum is nonincreasing.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n_bits = cfg.n_bits
    stream = SplitMix64(seed)

    best = None
    witness = None
    witness_d0 = None
    for i in range(samples):
        X = sample_point(stream, n_bits)
        if i % 2 == 1:
            other = sample_block(stream, n_bits)
            while other == X.state:
                other = sample_block(stream, n_bits)
            X, Y = steered_merge_pair(cfg, X, other)
        else:
            Y = sample_point(stream, n_bits)
            while Y == X:
                Y = sample_point(stream, n_bits)
        traj_x = iterate(cfg, X, horizon)
        traj_y = iterate(cfg, Y, horizon)
        separation = max(
            distance(traj_x[t], traj_y[t]) for t in range(1, horizon + 1)
        )
        if best is None or separation < best:
            best = separation
            witness = (X, Y)
            witness_d0 = distance(X, Y)

    return ExpansivityReport(
        horizon=horizon,
        samples=samples,
        seed=seed,
        min_max_orbit_distance=best,
        witness_pair=witness,
        initial_distance=witness_d0,
    )


@dataclass(frozen=True)
class SeparatedSetReport:
    """A set of points pairwise at least epsilon apart over an n-step window."""

    n: int
    epsilon: Fraction
    points: list
    cardinality: int
    mode: str
    is_lower_bound: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "epsilon": str(self.epsilon),
            "cardinality": self.cardinality,
            "mode": self.mode,
            "is_lower_bound": self.is_lower_bound,
            "points": [p.to_json() for p in self.points],
        }


def _separation_kernel(cfg: SystemConfig, candidates: list, n: int, epsilon: Fraction):
    """Exact integer test of n-step epsilon-separation between candidates.

    With L the longest prefix and P the lcm of the cycle lengths, every
    block index >= L repeats with period P, so the distance of any two
    candidates at any step t < n is an integer over the common scale
    D = N * 10^L * (10^P - 1): the state term is H_t * D and the message
    term is sum_c w_c * h_{t+c} over the L+P weight columns, with
    w_c = 9 * 10^(L-1-c) * (10^P - 1) for c < L and 9 * 10^(L+P-1-c)
    after (all blocks differing in all bits gives exactly D). With
    epsilon = p/q a pair is separated iff q * max_t scaled_t >= p * D.
    Arithmetic is int64 when (N+1) * D * max(|p|, q) fits, Python ints
    otherwise.

    Returns ``separated(i, others)``: a boolean array telling, for each
    candidate index in ``others``, whether it is separated from candidate i.
    """
    n_bits = cfg.n_bits
    prefix_len = max((len(p.message.prefix) for p in candidates), default=0)
    period = lcm(*(len(p.message.cycle) for p in candidates))
    width = n - 1 + prefix_len + period
    repeat = 10 ** period - 1
    scale = n_bits * 10 ** prefix_len * repeat
    weights = [9 * 10 ** (prefix_len - 1 - c) * repeat for c in range(prefix_len)]
    weights += [9 * 10 ** (period - 1 - c) for c in range(period)]
    p, q = epsilon.numerator, epsilon.denominator
    dtype = np.int64 if (n_bits + 1) * scale * max(abs(p), q) < 1 << 63 else object
    threshold = p * scale

    # one row per candidate: its n states, then its blocks 0..width-1
    rows = []
    for point in candidates:
        if point.n_bits != n_bits:
            raise ValueError("point and config block sizes differ")
        blocks = [point.message.block(i).value for i in range(width)]
        states = [point.state.value]
        for t in range(n - 1):
            states.append(next_state_value(cfg, states[-1], blocks[t]))
        rows.append(states + blocks)
    matrix = np.array(rows, dtype=np.int64)

    def separated(i: int, others):
        hamming = np.bitwise_count(matrix[others] ^ matrix[i]).astype(dtype)
        scaled = hamming[:, :n] * scale
        for c, w in enumerate(weights, start=n):
            scaled += w * hamming[:, c : c + n]
        return q * scaled.max(axis=1) >= threshold

    return separated


def _max_clique(neighbor_masks):
    """Maximum clique on <= 64 vertices.

    Branch and bound with a greedy-coloring bound (Tomita style): the
    candidate set is colored greedily, vertices are expanded from the
    highest color down, and a branch is cut as soon as the current size
    plus the color number cannot beat the incumbent. A greedy maximal
    clique warms the incumbent up front.
    """
    m = len(neighbor_masks)
    if m == 0:
        return []

    taken = 0
    allowed = (1 << m) - 1
    while allowed:
        v = (allowed & -allowed).bit_length() - 1
        taken |= 1 << v
        allowed &= neighbor_masks[v]
    best_size = taken.bit_count()
    best_mask = taken

    def color_order(cand: int):
        order = []
        color = 0
        remaining = cand
        while remaining:
            color += 1
            avail = remaining
            while avail:
                v = (avail & -avail).bit_length() - 1
                bit = 1 << v
                avail &= ~(bit | neighbor_masks[v])
                remaining &= ~bit
                order.append((v, color))
        return order

    def expand(current: int, size: int, cand: int):
        nonlocal best_size, best_mask
        order = color_order(cand)
        before = []
        acc = 0
        for v, _ in order:
            before.append(acc)
            acc |= 1 << v
        for i in range(len(order) - 1, -1, -1):
            v, color = order[i]
            if size + color <= best_size:
                return
            new_current = current | (1 << v)
            if size + 1 > best_size:
                best_size = size + 1
                best_mask = new_current
            sub = before[i] & neighbor_masks[v]
            if sub:
                expand(new_current, size + 1, sub)

    expand(0, 0, (1 << m) - 1)
    return [i for i in range(m) if best_mask >> i & 1]


def separated_set(
    cfg: SystemConfig, candidates, n: int, epsilon, mode: str = "greedy"
) -> SeparatedSetReport:
    """Select candidates pairwise separated in the n-step orbit metric.

    greedy scans in order and keeps a point iff it is separated from every
    kept one (a lower bound already for the candidate set); exact solves
    the maximum problem on the far-apart graph, allowed for at most 64
    candidates. All comparisons are exact integer ones (see
    ``_separation_kernel``).
    """
    epsilon = Fraction(epsilon)
    candidates = list(candidates)
    m = len(candidates)
    if n < 1:
        raise ValueError("window length n must be >= 1")
    if mode not in ("greedy", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" and m > EXACT_MODE_MAX_CANDIDATES:
        raise ValueError(
            f"exact mode is capped at {EXACT_MODE_MAX_CANDIDATES} candidates, "
            f"got {m}"
        )
    separated = _separation_kernel(cfg, candidates, n, epsilon)

    if mode == "greedy":
        kept_rows = np.empty(m, dtype=np.intp)
        count = 0
        for i in range(m):
            if separated(i, kept_rows[:count]).all():
                kept_rows[count] = i
                count += 1
        kept = kept_rows[:count].tolist()
    else:
        everyone = np.arange(m)
        masks = [
            sum(1 << j for j in np.flatnonzero(separated(i, everyone)).tolist() if j != i)
            for i in range(m)
        ]
        kept = _max_clique(masks)

    return SeparatedSetReport(
        n=n,
        epsilon=epsilon,
        points=[candidates[i] for i in kept],
        cardinality=len(kept),
        mode=mode,
        is_lower_bound=(mode == "greedy"),
    )


@dataclass(frozen=True)
class EntropyEntry:
    """Lower bound on separated-orbit count for one window length."""

    n: int
    h_lower: int
    growth_rate: float
    greedy_cardinality: int
    exact_cardinality: int | None
    constructive_bound: int | None

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "h_lower": self.h_lower,
            "growth_rate": self.growth_rate,
            "greedy_cardinality": self.greedy_cardinality,
            "exact_cardinality": self.exact_cardinality,
            "constructive_bound": self.constructive_bound,
        }


def entropy_grid(n_bits: int, prefix_len: int):
    """All states x all zero-tailed message prefixes of the given length.

    Enumerated state-major, prefixes in lexicographic order, so downstream
    greedy scans are reproducible.
    """
    size = 1 << n_bits
    total = size * size ** prefix_len
    if total > GRID_GUARD:
        raise ValueError(
            f"candidate grid of {total} points exceeds the cap of {GRID_GUARD}"
        )
    return [
        SystemPoint(
            BlockVector(state, n_bits),
            MessageSequence.from_values(n_bits, prefix, (0,)),
        )
        for state in range(size)
        for prefix in product(range(size), repeat=prefix_len)
    ]


def entropy_profile(
    cfg: SystemConfig, n_max: int, epsilon, prefix_len: int
) -> list:
    """Separated-orbit lower bounds H_lower(n) for n = 1..n_max.

    Measured on the state-times-prefix grid (greedy, plus exact when the
    grid is small enough), and combined with the constructive family bound
    2^(n*N): all states crossed with all (n-1)-block prefixes separate
    pairwise to distance >= 1 within the n-step window when the cipher is
    bijective and the inner function is the vectorial negation, since any
    first disagreement (state or consumed block) maps through the bijection
    to distinct states no later than iterate n-1. That family needs
    epsilon <= 1.

    Before the grid is built, a run whose work estimate exceeds
    ``ENTROPY_COST_GUARD`` is refused with a ValueError.
    """
    epsilon = Fraction(epsilon)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if prefix_len < 0:
        raise ValueError("prefix_len must be >= 0")
    points = (1 << cfg.n_bits) ** (prefix_len + 1)
    # window n compares up to points^2 / 2 pairs, each over n steps of one
    # state and prefix_len + 1 message columns
    cost = points * points * (n_max * (n_max + 1) // 2) * (prefix_len + 2)
    if cost > ENTROPY_COST_GUARD:
        raise ValueError(
            f"entropy on a {points}-point grid up to n_max {n_max} is estimated at "
            f"{cost} (points^2 x n_max(n_max+1)/2 x (prefix_len+2)), "
            f"above the cap of {ENTROPY_COST_GUARD}"
        )
    candidates = entropy_grid(cfg.n_bits, prefix_len)
    constructive_ok = epsilon <= 1 and cfg.inner_function == negation_table(cfg.n_bits)

    entries = []
    for n in range(1, n_max + 1):
        report = separated_set(cfg, candidates, n, epsilon, mode="greedy")
        exact_card = None
        if len(candidates) <= EXACT_MODE_MAX_CANDIDATES:
            exact_card = separated_set(
                cfg, candidates, n, epsilon, mode="exact"
            ).cardinality
        constructive = (1 << (n * cfg.n_bits)) if constructive_ok else None
        h_lower = max(
            report.cardinality, exact_card or 0, constructive or 0, 1
        )
        entries.append(
            EntropyEntry(
                n=n,
                h_lower=h_lower,
                growth_rate=log(h_lower) / n,
                greedy_cardinality=report.cardinality,
                exact_cardinality=exact_card,
                constructive_bound=constructive,
            )
        )
    return entries
