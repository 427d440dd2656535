"""Constructive and empirical chaos measurements for the one-block map.

Everything here is exact and desk-scale:

* mixing witness: given any open ball and any target point, construct a
  point of the ball whose orbit lands exactly on the target, by copying
  enough message blocks to stay in the ball and then inserting one
  correction block, the preimage of the one-step edge to the target state
  (``dynamics.preimage_block``);
* sensitivity witness: the same steering trick, aimed at the bitwise
  complement of the unperturbed orbit, which forces the maximal state
  separation N while starting arbitrarily close.

  Both witnesses walk the centre's orbit once on integers and build one
  point from those ints: a point's state is an int, as its blocks are.
  Each rational input is read once by ``metric._fraction`` (a ``Fraction``
  of Python ints, built only from a value that is not one already) and
  range-checked as integers on its numerator and denominator, as
  ``scale_index`` and ``metric.Ball`` check theirs. Their verification is
  exact and independent of the construction: the constructed point's
  orbit is walked again from its own blocks; membership and separation
  are integer comparisons over the common scale of ``metric.orbit_scale``
  scored from one Hamming row, and arrival compares canonical tails (a
  shift of a canonical message is canonical). The witnesses and
  ``steered_merge_pair`` build their point by one steering step
  (``_steer``, through ``dynamics.splice``); when no single block makes it
  (a partial-mask inner function), they raise a ValueError naming both states;
* expansivity probe: a bounded-horizon search for orbit pairs that fail to
  separate, including adversarial pairs built to coalesce after one step
  (an observation, never a proof); states and block values are drawn as
  ints from one splitmix64 stream, and the pairs are scored in batches of
  bounded size, row X_i against row Y_i of one ``metric.orbit_rows``;
* separated sets and entropy profile: lower bounds on the maximal number of
  orbits that stay pairwise apart over an n-step window (Bowen's
  (n, epsilon)-separated sets). Separation is decided on integer orbit
  rows (``metric.OrbitRows``): with epsilon = p/q, a pair is separated in
  the n-step window iff its scaled distance reaches ceil(p * D / q) at some
  step t < n, and the first such step decides the pair for every window.
  A profile lays out its grid's rows to n_max in one column walk (the
  walker of ``metric.orbit_rows``), builds no point, and answers all windows from one pass: greedy scans the grid in
  chunks of candidates, and exact builds one first-step matrix. A cost
  guard refuses a profile whose estimate points^2 x n_max(n_max+1)/2 x
  (prefix_len+2) exceeds ``ENTROPY_COST_GUARD``.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import islice
from math import isqrt, log
from typing import ClassVar

import numpy as np

from .cipher import SplitMix64, _word
from .dynamics import (
    MessageSequence,
    SystemConfig,
    SystemPoint,
    negation_table,
    next_state_value,
    preimage_block,
    shift_parts,
    splice,
    state_values,
)
from .metric import (
    Ball,
    OrbitRows,
    _fraction,
    closer,
    distance,
    fraction_str,
    in_ball,
    orbit_rows,
    scaled_distance,
)

EXACT_MODE_MAX_CANDIDATES = 64
# Elements (rows x rows x row width) of one pairwise block of the separation
# scan; larger blocks cost memory and no time.
_BLOCK_BUDGET = 1 << 14
# Cap on the work estimate of an entropy profile. An admitted run on a grid
# that keeps every point ends in seconds: the 4,096-point identity grid at
# n_max 11 (estimate 4.4 * 10^9) takes about 3.5 s on a 2-vCPU Xeon VM.
# It also caps the grid: one past 2^15 points has an estimate of at least 2^33.
ENTROPY_COST_GUARD = 5 * 10**9
# Row elements of one batch of expansivity-probe pairs, so memory does not grow with samples.
_PROBE_BUDGET = 1 << 16


def scale_index(epsilon) -> int:
    """Smallest t with 10^-t <= epsilon (exact, for rational epsilon), memoised on its p/q."""
    return _scale_index(*_fraction(epsilon).as_integer_ratio())


@functools.lru_cache(maxsize=64)  # keys are Python ints of up to 35,000 digits: keep few
def _scale_index(p: int, q: int) -> int:
    if p <= 0:
        raise ValueError("epsilon must be positive")
    # 10^t >= q/p iff 10^t >= c = ceil(q/p). The first t has 10^t <= 2^(b-1) <= c for c of
    # b bits, as 0.30102 < log10(2), and falls short of the answer by about b/10^5 + 1 steps.
    c = -(-q // p)
    t = (c.bit_length() - 1) * 30102 // 100000
    power = 10**t
    while power < c:
        power, t = power * 10, t + 1
    return t


def agreement_length(epsilon) -> int:
    """Blocks to copy so that agreement guarantees strict ball membership.

    Copying k blocks bounds the distance by 10^-k; with k one past the
    scale of epsilon the bound is at most epsilon/10, hence strictly
    inside.
    """
    return scale_index(epsilon) + 1


def _steer(cfg: SystemConfig, state: int, head: tuple, x: int, goal: int, tail: MessageSequence, t=0):
    """The point in ``state`` reading ``head``, one steering block, then ``tail`` from block t on.

    The block is ``preimage_block(cfg, x, goal)``; a ValueError names both states when there is none.
    ``dynamics.splice`` joins the parts, already valid and canonical, with no second check.
    """
    block = preimage_block(cfg, x, goal)
    if block is None:
        n_bits = cfg.n_bits
        raise ValueError(
            f"no block takes state {x:0{n_bits}b} to state {goal:0{n_bits}b} in one step "
            "under this inner function; the one-block construction needs that edge"
        )
    return SystemPoint(state, splice(head + (block,), tail, t))


@dataclass(frozen=True)
class MixingWitness:
    """A ball point whose orbit reaches the target exactly, with its audit trail."""

    constructed_point: SystemPoint
    steps: int
    k: int
    target: SystemPoint
    ball: Ball

    def to_json(self) -> dict:
        """The construction alone; the target and the ball are the caller's inputs."""
        return {
            "constructed_point": self.constructed_point.to_json(),
            "steps": self.steps,
            "k": self.k,
            "correction_block": self.constructed_point.message.block(self.k).bits,
        }


def mixing_witness(cfg: SystemConfig, ball: Ball, target: SystemPoint) -> MixingWitness:
    """Construct a point of ``ball`` that lands exactly on ``target``.

    The point copies the center's state and first k message blocks (k one
    past the scale of the radius), then one correction block that steers
    the k-step state to the target state, then the target's message
    verbatim. Arrival after k+1 steps is exact and is verified before
    returning. A ValueError names both states when no single block makes
    that step.
    """
    if ball.radius.numerator >= ball.radius.denominator:
        raise ValueError("mixing construction requires a ball radius strictly below 1")
    if ball.center.n_bits != cfg.n_bits or target.n_bits != cfg.n_bits:
        raise ValueError("block size mismatch")
    k = agreement_length(ball.radius)
    center = ball.center
    reached = state_values(cfg, center, k)[-1]
    point = _steer(cfg, center.state, center.message.head(k), reached, target.state, target.message)
    witness = MixingWitness(point, steps=k + 1, k=k, target=target, ball=ball)
    if not verify_mixing(cfg, witness):
        raise RuntimeError("mixing construction failed its own verification")
    return witness


def verify_mixing(cfg: SystemConfig, witness: MixingWitness) -> bool:
    """Re-check ball membership and exact arrival, independently of the construction.

    A witness fails when its point, target or ball centre has a block size
    other than the config's. Membership is ``metric.in_ball``, an integer
    comparison. The constructed point's orbit is walked again from its own
    blocks: it arrives iff its state after ``steps`` steps is the target's
    and its message shifted by ``steps`` has the target's canonical prefix
    and cycle. A shift of a canonical message is canonical
    (``shift_parts``), and canonical forms are equal iff the sequences are.
    """
    point, target, steps = witness.constructed_point, witness.target, witness.steps
    if not point.n_bits == target.n_bits == witness.ball.center.n_bits == cfg.n_bits:
        return False
    if not in_ball(witness.ball, point) or state_values(cfg, point, steps)[-1] != target.state:
        return False
    return shift_parts(point.message, steps) == (target.message.prefix, target.message.cycle)


def sensitivity_witness(cfg: SystemConfig, X: SystemPoint, epsilon, delta):
    """A point of ball(X, epsilon) whose orbit separates from X's by at least N.

    Copies k blocks of X's message, then one steering block that forces the
    state after k+1 steps to the bitwise complement of X's state there; the
    tail is X's own, so the whole separation sits in the state part and the
    achieved orbit distance is exactly N >= delta. Both orbits are walked
    on integers, and ``metric.scaled_distance`` scores steps 0..n over
    the common scale D: membership is ``metric.closer`` at step
    0, and the separation is compared with N at step n. A ValueError
    names both states when no single block makes the steering step.

    Returns (Y, n, achieved).
    """
    epsilon = _fraction(epsilon)
    delta = _fraction(delta)
    n_bits = cfg.n_bits
    if not 0 < epsilon.numerator < epsilon.denominator:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    if delta.numerator <= 0:
        raise ValueError("delta must be positive")
    if delta.numerator > n_bits * delta.denominator:
        raise ValueError(f"delta must not exceed the block size {n_bits}")
    if X.n_bits != n_bits:
        raise ValueError("block size mismatch")

    k = agreement_length(epsilon)
    n = k + 1
    xs = state_values(cfg, X, n)
    Y = _steer(cfg, X.state, X.message.head(k), xs[k], xs[n] ^ ((1 << n_bits) - 1), X.message, n)

    sums, scale = scaled_distance(X.message, Y.message, xs, state_values(cfg, Y, n))
    near, apart = sums[0], sums[n]
    if not closer(near, scale, epsilon) or apart < n_bits * scale:
        raise RuntimeError("sensitivity construction failed its own verification")
    return Y, n, Fraction(apart, scale)


def steered_merge_pair(cfg: SystemConfig, X: SystemPoint, other_state):
    """A pair (X, Y) with different states whose orbits coincide from step 1 on.

    Y starts in ``other_state``, read by ``cipher._word``, and its first
    block is chosen so that one step lands on G(X) exactly; the rest of Y's
    message is X's shifted one. A ValueError names both states when no
    single block makes that step.
    """
    if X.n_bits != cfg.n_bits:
        raise ValueError("block size mismatch")
    other = _word(other_state, X.n_bits)
    if other == X.state:
        raise ValueError("merge partner must start in a different state")
    next_value = next_state_value(cfg, X.state, X.message.head(1)[0])
    return X, _steer(cfg, other, (), other, next_value, X.message, 1)


def sample_message(
    stream: SplitMix64, n_bits: int, max_prefix: int = 3, max_cycle: int = 2
) -> MessageSequence:
    """A random eventually periodic message (canonicalization may shorten it)."""
    prefix_len = stream.next_below(max_prefix + 1)
    cycle_len = 1 + stream.next_below(max_cycle)
    values = [stream.next_below(1 << n_bits) for _ in range(prefix_len + cycle_len)]
    return MessageSequence(n_bits, values[:prefix_len], values[prefix_len:])


def sample_point(stream: SplitMix64, n_bits: int, **kwargs) -> SystemPoint:
    return SystemPoint(stream.next_below(1 << n_bits), sample_message(stream, n_bits, **kwargs))


@dataclass(frozen=True)
class ExpansivityReport:
    """Bounded-horizon orbit-separation observation. Never a proof."""

    horizon: int
    samples: int
    seed: int
    min_max_orbit_distance: Fraction
    witness_pair: tuple
    initial_distance: Fraction
    conclusive: ClassVar[bool] = False
    note: ClassVar[str] = (
        "bounded-horizon observation only; a small value suggests failure of "
        "expansivity at this scale but proves nothing about the full system"
    )

    def to_json(self) -> dict:
        """Everything but the seed, which the caller chose."""
        X, Y = self.witness_pair
        return {
            "horizon": self.horizon,
            "samples": self.samples,
            "min_max_orbit_distance": fraction_str(self.min_max_orbit_distance),
            "witness_pair": {"x": X.to_json(), "y": Y.to_json()},
            "initial_distance": fraction_str(self.initial_distance),
            "conclusive": self.conclusive,
            "note": self.note,
        }


def expansivity_probe(
    cfg: SystemConfig, horizon: int, samples: int, seed: int
) -> ExpansivityReport:
    """min over sampled pairs of max over steps 1..horizon of the orbit distance.

    Pairs alternate between independent random distinct points and
    adversarial steered merges (which coalesce after one step and pull the
    minimum to zero). Where no block steers the drawn partner state onto
    G(X), as under a partial-mask inner function, the partner keeps X's
    message and differs in the state alone. Pairs are drawn from one
    seed-extended stream, so a larger ``samples`` examines a superset and
    the minimum is nonincreasing. The pairs are scored in batches of at
    most ``_PROBE_BUDGET`` row elements, row X_i against row Y_i of one
    ``metric.orbit_rows``, and the first minimum is the witness.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    pairs = _probe_pairs(cfg, samples, SplitMix64(seed))
    # a pair's two rows hold 2 * (horizon + 1) states and at least as many blocks
    per_batch = max(1, _PROBE_BUDGET // (4 * (horizon + 1)))
    best = witness = None
    while batch := list(islice(pairs, per_batch)):
        rows = orbit_rows(cfg, [X for X, _ in batch] + [Y for _, Y in batch], horizon + 1)
        separations = rows.scaled(rows.matrix[: len(batch)] ^ rows.matrix[len(batch) :])[:, 1:].max(axis=1)
        i = int(separations.argmin())  # the first minimum
        separation = Fraction(int(separations[i]), rows.scale)
        if best is None or separation < best:
            best, witness = separation, batch[i]

    return ExpansivityReport(
        horizon=horizon,
        samples=samples,
        seed=seed,
        min_max_orbit_distance=best,
        witness_pair=witness,
        initial_distance=distance(*witness),
    )


def _probe_pairs(cfg: SystemConfig, samples: int, stream: SplitMix64):
    """The probe's pairs, in draw order: random distinct points, then steered merges, alternately."""
    n_bits = cfg.n_bits
    for i in range(samples):
        X = sample_point(stream, n_bits)
        if i % 2 == 1:
            other = stream.next_below(1 << n_bits)
            while other == X.state:
                other = stream.next_below(1 << n_bits)
            try:
                yield steered_merge_pair(cfg, X, other)
            except ValueError:
                yield X, SystemPoint(other, X.message)
        else:
            Y = sample_point(stream, n_bits)
            while Y == X:
                Y = sample_point(stream, n_bits)
            yield X, Y


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
            "epsilon": fraction_str(self.epsilon),
            "cardinality": self.cardinality,
            "mode": self.mode,
            "is_lower_bound": self.is_lower_bound,
            "points": [p.to_json() for p in self.points],
        }


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


def _first_steps(rows: OrbitRows, a, b, threshold: int) -> np.ndarray:
    """First step t < n at which each pair of rows a x b reaches ``threshold``, else n.

    Window n' <= n separates a pair iff its first step is below n'. The
    pairwise sums are taken in blocks of rows of ``a`` that hold at most
    ``_BLOCK_BUDGET`` elements, or one row when a single row holds more.
    """
    per_block = max(1, _BLOCK_BUDGET // max(1, len(b) * rows.matrix.shape[1]))
    first = np.empty((len(a), len(b)), dtype=np.intp)
    for start in range(0, len(a), per_block):
        reached = rows.sums(a[start : start + per_block], b) >= threshold
        first[start : start + per_block] = np.where(reached.any(axis=2), reached.argmax(axis=2), rows.n)
    return first


def _greedy(rows: OrbitRows, threshold: int, windows: np.ndarray) -> list:
    """The in-order greedy scan of every window at once, in chunks of candidates.

    A chunk is first scored against the rows kept so far in any window;
    a candidate closer than its window to a row kept there is out of that
    window. The survivors are then scored among themselves and decided in
    order, one Python-int bitmask of the chunk's kept survivors per window.
    """
    m = len(rows.matrix)
    chunk = max(1, isqrt(_BLOCK_BUDGET // rows.matrix.shape[1]))
    kept = [[] for _ in windows]
    union = np.empty(m, dtype=np.intp)  # rows kept in some window, in scan order
    member = np.zeros((len(windows), m), dtype=bool)  # member[w, u]: union[u] is kept in window w
    u = 0
    for start in range(0, m, chunk):
        rows_in = np.arange(start, min(start + chunk, m))
        first = _first_steps(rows, rows_in, union[:u], threshold)
        blocked = np.stack(
            [np.max(first, axis=1, where=member[w, :u], initial=0) >= n for w, n in enumerate(windows)],
            axis=1,
        )
        survivors = np.flatnonzero(~blocked.all(axis=1))
        if not len(survivors):
            continue
        chosen = rows_in[survivors]
        close = np.packbits(
            _first_steps(rows, chosen, chosen, threshold)[:, None] >= windows[:, None],
            axis=2,
            bitorder="little",
        )
        stride = 8 * close.shape[2]
        chunk_kept = [0] * len(windows)
        for k, (i, row_blocked) in enumerate(zip(chosen.tolist(), blocked[survivors].tolist())):
            bits = int.from_bytes(close[k].tobytes(), "little")
            found = False
            for w, out in enumerate(row_blocked):
                if not out and not bits >> (w * stride) & chunk_kept[w]:
                    chunk_kept[w] |= 1 << k
                    kept[w].append(i)
                    member[w, u] = found = True
            if found:
                union[u] = i
                u += 1
    return kept


def _exact(rows: OrbitRows, threshold: int, windows: np.ndarray) -> list:
    """A maximum clique of the separated pairs of every window, from one first-step matrix."""
    everyone = np.arange(len(rows.matrix))
    far = np.packbits(
        _first_steps(rows, everyone, everyone, threshold) < windows[:, None, None],
        axis=2,
        bitorder="little",
    )
    return [_max_clique([int.from_bytes(row.tobytes(), "little") for row in window]) for window in far]


def _select(rows: OrbitRows, epsilon: Fraction, mode: str, windows) -> list:
    """Indexes of the rows kept in each n-step window of ``windows`` at separation epsilon = p/q.

    A pair is separated in window n iff S_t >= ceil(p * D / q) for some
    t < n, S_t being its integer distance d * D at step t
    (``OrbitRows.sums``), so one first-step matrix answers every window.
    greedy keeps a row iff it is separated from every kept one; exact
    takes a maximum clique of the separated pairs.
    """
    threshold = -(-epsilon.numerator * rows.scale // epsilon.denominator)
    windows = np.asarray(windows, dtype=np.intp)
    return (_greedy if mode == "greedy" else _exact)(rows, threshold, windows)


def separated_set(
    cfg: SystemConfig, candidates, n: int, epsilon, mode: str = "greedy"
) -> SeparatedSetReport:
    """Select candidates pairwise separated in the n-step orbit metric.

    greedy scans in order and keeps a point iff it is separated from every
    kept one (a lower bound already for the candidate set); exact solves
    the maximum problem on the far-apart graph, allowed for at most 64
    candidates. All comparisons are exact integer ones on the rows of
    ``metric.orbit_rows`` (see ``_select``).
    """
    epsilon = _fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
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
    (kept,) = _select(orbit_rows(cfg, candidates, n), epsilon, mode, (n,))
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
        return asdict(self)


def grid_size(n_bits: int, prefix_len: int) -> int:
    """Points of the entropy grid, every state x every ``prefix_len``-block prefix: 2^(N(p+1))."""
    return 1 << n_bits * (prefix_len + 1)


def grid_rows(cfg: SystemConfig, prefix_len: int, n: int) -> OrbitRows:
    """The n-step orbit rows of every state x every zero-tailed prefix of ``prefix_len`` blocks.

    Grid point i is read off the mixed-radix digits of i: its state is
    i >> N*p and its prefix block j is (i >> N*(p-1-j)) & (2^N - 1), so the
    points run state-major, prefixes in lexicographic order, and the greedy
    scans are reproducible. Their messages share L = p and P = 1. All
    orbits are walked together, one column of states per step, and no point
    is built.
    """
    n_bits = cfg.n_bits
    total = grid_size(n_bits, prefix_len)
    shifts = n_bits * np.arange(prefix_len, -1, -1)
    matrix = np.zeros((total, 2 * n + prefix_len), dtype=np.int64)
    matrix[:, [0, *range(n, n + prefix_len)]] = (np.arange(total)[:, None] >> shifts) & ((1 << n_bits) - 1)
    return OrbitRows.walk(cfg, matrix, n, prefix_len, 1)


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
    epsilon = _fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if prefix_len < 0:
        raise ValueError("prefix_len must be >= 0")
    points = grid_size(cfg.n_bits, prefix_len)
    # window n compares up to points^2 / 2 pairs, each over n steps of one
    # state and prefix_len + 1 message columns
    cost = points * points * (n_max * (n_max + 1) // 2) * (prefix_len + 2)
    if cost > ENTROPY_COST_GUARD:
        raise ValueError(
            f"entropy on a {points}-point grid up to n_max {n_max} is estimated at "
            f"{cost} (points^2 x n_max(n_max+1)/2 x (prefix_len+2)), "
            f"above the cap of {ENTROPY_COST_GUARD}"
        )
    rows = grid_rows(cfg, prefix_len, n_max)
    constructive_ok = epsilon <= 1 and cfg.inner_function == negation_table(cfg.n_bits)

    windows = range(1, n_max + 1)
    greedy = _select(rows, epsilon, "greedy", windows)
    exact = [None] * n_max
    if points <= EXACT_MODE_MAX_CANDIDATES:
        exact = _select(rows, epsilon, "exact", windows)

    entries = []
    for n, greedy_kept, exact_kept in zip(windows, greedy, exact):
        greedy_card = len(greedy_kept)
        exact_card = None if exact_kept is None else len(exact_kept)
        constructive = (1 << (n * cfg.n_bits)) if constructive_ok else None
        h_lower = max(greedy_card, exact_card or 0, constructive or 0, 1)
        entries.append(EntropyEntry(n, h_lower, log(h_lower) / n, greedy_card, exact_card, constructive))
    return entries
