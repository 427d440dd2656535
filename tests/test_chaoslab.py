"""Mixing and sensitivity witnesses, expansivity probe, separated sets, entropy."""

import sys
import time
from dataclasses import fields, replace
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from conftest import (
    entropy_grid,
    has_int_parts,
    numpy_rationals,
    oracle_distance,
    oracle_weights,
    spy_on_dtype,
    walked_rows,
)

from cbcdyn import chaoslab, dynamics, metric
from cbcdyn.chaoslab import (
    ENTROPY_COST_GUARD,
    MixingWitness,
    _max_clique,
    agreement_length,
    entropy_profile,
    expansivity_probe,
    grid_rows,
    mixing_witness,
    sample_point,
    scale_index,
    sensitivity_witness,
    separated_set,
    steered_merge_pair,
    verify_mixing,
)
from cbcdyn.cipher import BlockVector, SplitMix64, make_cipher
from cbcdyn.dynamics import (
    CONVENTION_PAPER_COMPLEMENT,
    CONVENTION_XOR,
    MessageSequence,
    SystemConfig,
    SystemPoint,
    identity_table,
    iterate,
    negation_table,
    next_state_value,
    step,
)
from cbcdyn.metric import Ball, bowen_distance, distance, in_ball, orbit_rows


def msg(n_bits, prefix=(), cycle=(0,)):
    return MessageSequence.from_values(n_bits, prefix, cycle)


def point(n_bits, state, prefix=(), cycle=(0,)):
    return SystemPoint(state, msg(n_bits, prefix, cycle))


def random_config(stream, n_bits, convention):
    kind = ("identity", "permutation", "feistel")[stream.next_below(3)]
    cipher = make_cipher(kind, n_bits, seed=stream.next_u64(), rounds=3)
    return SystemConfig(cipher, convention=convention)


def reference_far(cfg, candidates, n, epsilon):
    """far(i, j) by the Fraction path: one oracle distance per pair per step."""
    trajectories = [iterate(cfg, p, n - 1) for p in candidates]

    def far(i, j):
        pairs = zip(trajectories[i], trajectories[j])
        return max(oracle_distance(a, b) for a, b in pairs) >= epsilon

    return far


def reference_masks(cfg, candidates, n, epsilon):
    """Bit j of mask i is set iff candidates i != j are separated in the n-step window."""
    far = reference_far(cfg, candidates, n, epsilon)
    m = len(candidates)
    return [sum(1 << j for j in range(m) if j != i and far(i, j)) for i in range(m)]


def reference_kept(cfg, candidates, n, epsilon, mode):
    """Kept indexes by the Fraction path."""
    if mode == "exact":
        return _max_clique(reference_masks(cfg, candidates, n, epsilon))
    far = reference_far(cfg, candidates, n, epsilon)
    kept = []
    for i in range(len(candidates)):
        if all(far(i, j) for j in kept):
            kept.append(i)
    return kept


def assert_matches_reference(cfg, candidates, n, epsilon, mode):
    report = separated_set(cfg, candidates, n, epsilon, mode=mode)
    kept = reference_kept(cfg, candidates, n, Fraction(epsilon), mode)
    assert report.points == [candidates[i] for i in kept]
    assert report.cardinality == len(kept)
    return kept


def assert_windows_match_reference(cfg, candidates, n_max, epsilon, mode):
    """One pass over the windows 1..n_max keeps, in each, what the Fraction path keeps."""
    epsilon = Fraction(epsilon)
    windows = range(1, n_max + 1)
    kept = chaoslab._select(orbit_rows(cfg, candidates, n_max), epsilon, mode, windows)
    assert kept == [reference_kept(cfg, candidates, n, epsilon, mode) for n in windows]


def record_blocks(monkeypatch):
    """Record (rows of a, rows of b, row width) of every pairwise kernel call."""
    blocks = []
    sums = metric.OrbitRows.sums

    def spy(rows, a, b):
        blocks.append((len(a), len(b), rows.matrix.shape[1]))
        return sums(rows, a, b)

    monkeypatch.setattr(metric.OrbitRows, "sums", spy)
    return blocks


class TestAgreementLength:
    @pytest.mark.parametrize(
        "epsilon,expected",
        [
            (Fraction(1, 2), 2),
            (Fraction(1, 10), 2),
            (Fraction(9, 100), 3),
            (Fraction(1, 1000), 4),
            (Fraction(9, 10), 2),
            (Fraction(1, 9), 2),
        ],
    )
    def test_values(self, epsilon, expected):
        assert agreement_length(epsilon) == expected

    def test_scale_index_definition(self):
        for epsilon in (Fraction(1, 2), Fraction(3, 7), Fraction(1, 99)):
            t = scale_index(epsilon)
            assert Fraction(1, 10 ** t) <= epsilon
            assert t == 0 or Fraction(1, 10 ** (t - 1)) > epsilon

    def test_rejects_nonpositive(self):
        for epsilon in (Fraction(0), Fraction(-1, 2), 0, "0", -0.5):
            with pytest.raises(ValueError, match="^epsilon must be positive$"):
                scale_index(epsilon)

    def test_reads_any_rational(self):
        assert [scale_index(e) for e in ("1/10", 1, 0.5, Fraction(1, 10))] == [1, 0, 1, 1]
        with pytest.raises(TypeError):
            scale_index(None)
        with pytest.raises(ValueError):
            scale_index("a tenth")

    def test_matches_search_loop(self):
        def loop_scale_index(epsilon):
            t = 0
            while Fraction(1, 10 ** t) > epsilon:
                t += 1
            return t

        stream = SplitMix64(1010)
        values = [Fraction(1 + stream.next_below(10 ** 9), 1 + stream.next_below(10 ** 12))
                  for _ in range(3000)]
        values += [Fraction(1 + stream.next_below(10 ** 9), 10 ** stream.next_below(200) + stream.next_below(10 ** 9))
                   for _ in range(300)]
        for k in range(61):
            power = Fraction(1, 10 ** k)
            values += [power, power + Fraction(1, 10 ** 70), power - Fraction(1, 10 ** 71), Fraction(1, 10 ** k + 1)]
            if k:
                values += [power * Fraction(10 ** k + 1, 10 ** k), power * Fraction(10 ** k - 1, 10 ** k)]
                values += [Fraction(1, 10 ** k - 1)]
        values += [Fraction(1), Fraction(3, 2), Fraction(10 ** 20, 7), Fraction(123456789, 10 ** 15)]
        for epsilon in values:
            assert scale_index(epsilon) == loop_scale_index(epsilon), epsilon

    @pytest.mark.parametrize("p,q", [(3, 1), (1, 10), (7, 10**9), (9, 2 * 10**9 + 1)])
    def test_memo_keys_are_python_ints(self, p, q, monkeypatch):
        keys = []
        memoised = chaoslab._scale_index

        def spy(*key):
            keys.append(key)
            return memoised(*key)

        monkeypatch.setattr(chaoslab, "_scale_index", spy)
        memoised.cache_clear()
        forms = [*numpy_rationals(p, q), Fraction(p, q)]
        assert {scale_index(e) for e in forms} == {scale_index(Fraction(p, q))}
        assert set(keys) == {Fraction(p, q).as_integer_ratio()} and all(type(v) is int for key in keys for v in key)
        info = memoised.cache_info()
        assert (info.misses, info.currsize) == (1, 1) and info.maxsize <= 64

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
    def test_scale_index_past_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert scale_index(Fraction(1, 10 ** 5000)) == 5000
            assert scale_index(Fraction(1, 10 ** 5000 + 1)) == 5001
            assert scale_index(Fraction(3, 10 ** 5000)) == 5000
            assert scale_index(Fraction(10, 10 ** 5000)) == 4999
            assert agreement_length(Fraction(1, 10 ** 5000 - 1)) == 5001
        finally:
            sys.set_int_max_str_digits(limit)


class TestMixingWitness:
    def setup_method(self):
        self.cfg = SystemConfig(make_cipher("identity", 2))

    def test_hand_example(self):
        ball = Ball(point(2, 0), Fraction(1, 2))
        target = point(2, 0b11)
        w = mixing_witness(self.cfg, ball, target)
        assert w.k == 2 and w.steps == 3
        assert w.constructed_point.message.block(2).bits == "11"
        final = iterate(self.cfg, w.constructed_point, 3)[-1]
        assert final == target

    def test_target_equal_to_center_is_reachable(self):
        center = point(2, 0b10, prefix=(1,))
        ball = Ball(center, Fraction(1, 10))
        w = mixing_witness(self.cfg, ball, center)
        assert verify_mixing(self.cfg, w)

    def test_radius_must_be_below_one(self):
        below_one = "^mixing construction requires a ball radius strictly below 1$"
        for radius in (Fraction(1), 1, Fraction(3, 2)):
            with pytest.raises(ValueError, match=below_one):
                mixing_witness(self.cfg, Ball(point(2, 0), radius), point(2, 1))
            # checked before the block sizes
            with pytest.raises(ValueError, match=below_one):
                mixing_witness(self.cfg, Ball(point(4, 0), radius), point(4, 1))
        with pytest.raises(ValueError, match="^block size mismatch$"):
            mixing_witness(self.cfg, Ball(point(4, 0), Fraction(1, 2)), point(2, 1))

    @pytest.mark.parametrize(
        "convention", [CONVENTION_XOR, CONVENTION_PAPER_COMPLEMENT]
    )
    @pytest.mark.parametrize("n_bits", [2, 4, 8])
    def test_random_instances_verify(self, n_bits, convention):
        stream = SplitMix64(n_bits * 31 + (convention == CONVENTION_XOR))
        radii = (Fraction(1, 2), Fraction(1, 10), Fraction(1, 1000))
        for i in range(60):
            cfg = random_config(stream, n_bits, convention)
            ball = Ball(sample_point(stream, n_bits), radii[i % 3])
            target = sample_point(stream, n_bits)
            w = mixing_witness(cfg, ball, target)
            assert w.steps == w.k + 1
            assert verify_mixing(cfg, w)

    def test_corrupted_correction_block_fails_verification(self):
        ball = Ball(point(2, 0), Fraction(1, 2))
        w = mixing_witness(self.cfg, ball, point(2, 0b11))
        blocks = [w.constructed_point.message.block(i).value for i in range(w.k + 1)]
        blocks[w.k] ^= 0b01  # flip one bit
        corrupted_point = SystemPoint(
            w.constructed_point.state,
            MessageSequence(2, blocks, w.target.message.cycle),
        )
        corrupted = MixingWitness(corrupted_point, w.steps, w.k, w.target, w.ball)
        assert not verify_mixing(self.cfg, corrupted)

    def test_tail_folded_into_the_cycle_is_a_rotation(self):
        # The correction block 01 equals the target cycle's last block, so the
        # canonical prefix (00, 00) is shorter than the 3 steps: arrival reads
        # the tail as the cycle (01, 10) rotated by one (shift_parts past the prefix).
        target = point(2, 0b01, cycle=(0b10, 0b01))
        w = mixing_witness(self.cfg, Ball(point(2, 0), Fraction(1, 2)), target)
        m = w.constructed_point.message
        assert (m.prefix, m.cycle, w.steps) == ((0, 0), (0b01, 0b10), 3)
        assert dynamics.shift_parts(m, w.steps) == ((), (0b10, 0b01))
        assert verify_mixing(self.cfg, w) and horizon_verdict(self.cfg, w)
        # one block of the tail changed: both checks reject it
        for i in (3, 4, 7):
            tail = replace(w, constructed_point=SystemPoint(0, with_block(m, i, m.block(i).value ^ 0b11)))
            assert iterate(self.cfg, tail.constructed_point, 3)[-1].state == target.state
            assert not verify_mixing(self.cfg, tail) and not horizon_verdict(self.cfg, tail)

    def test_shrunken_ball_fails_verification(self):
        center = point(2, 0)
        target = point(2, 0b11, cycle=(0b11,))
        w = mixing_witness(self.cfg, Ball(center, Fraction(1, 2)), target)
        gap = distance(center, w.constructed_point)
        assert gap > 0
        shrunk = MixingWitness(
            w.constructed_point, w.steps, w.k, w.target, Ball(center, gap / 2)
        )
        assert not verify_mixing(self.cfg, shrunk)


class TestSensitivityWitness:
    def test_hand_example(self):
        cfg = SystemConfig(make_cipher("identity", 4))
        X = point(4, 0)
        Y, n, achieved = sensitivity_witness(cfg, X, Fraction(1, 10), Fraction(4))
        assert n == 3
        assert Y.message.block(2).bits == "1111"
        assert achieved == 4
        traj_x = iterate(cfg, X, n)[-1]
        traj_y = iterate(cfg, Y, n)[-1]
        assert traj_y.state == traj_x.state ^ 0b1111

    @pytest.mark.parametrize("n_bits", [2, 4, 8])
    def test_random_instances_reach_block_size(self, n_bits):
        stream = SplitMix64(n_bits * 17)
        epsilons = (Fraction(1, 2), Fraction(1, 10), Fraction(1, 1000), Fraction(7, 9))
        for i in range(80):
            convention = (
                CONVENTION_XOR if i % 2 == 0 else CONVENTION_PAPER_COMPLEMENT
            )
            cfg = random_config(stream, n_bits, convention)
            X = sample_point(stream, n_bits)
            epsilon = epsilons[i % len(epsilons)]
            Y, n, achieved = sensitivity_witness(cfg, X, epsilon, Fraction(n_bits))
            assert achieved >= n_bits
            assert distance(X, Y) < epsilon
            assert Y != X

    def test_epsilon_out_of_range(self):
        cfg = SystemConfig(make_cipher("identity", 2))
        for epsilon in (Fraction(1), Fraction(0), 0, 1, 2, "1", 1.0, Fraction(-1, 10)):
            with pytest.raises(ValueError, match="^epsilon must lie strictly between 0 and 1$"):
                sensitivity_witness(cfg, point(2, 0), epsilon, Fraction(1))

    @pytest.mark.parametrize("epsilon", ["1/10", 0.1, 0.5, "7/9", Fraction(1, 1000)])
    def test_epsilon_read_as_a_rational(self, epsilon):
        cfg = SystemConfig(make_cipher("permutation", 4, seed=3))
        X = point(4, 5, prefix=(1, 2), cycle=(3,))
        Y, n, achieved = sensitivity_witness(cfg, X, epsilon, 4)
        assert n == agreement_length(Fraction(epsilon)) + 1 and achieved == 4
        assert distance(X, Y) < Fraction(epsilon)
        assert (Y, n, achieved) == sensitivity_witness(cfg, X, Fraction(epsilon), Fraction(4))

    def test_delta_above_block_size_rejected(self):
        cfg = SystemConfig(make_cipher("identity", 2))
        for delta in (Fraction(3), 2 + Fraction(1, 10**9)):
            with pytest.raises(ValueError, match="^delta must not exceed the block size 2$"):
                sensitivity_witness(cfg, point(2, 0), Fraction(1, 2), delta)

    @pytest.mark.parametrize("delta", [2, Fraction(2), "2", 2.0, Fraction(1, 10**9)])
    def test_delta_up_to_the_block_size_accepted(self, delta):
        cfg = SystemConfig(make_cipher("identity", 2))
        Y, n, achieved = sensitivity_witness(cfg, point(2, 0), Fraction(1, 10), delta)
        assert (n, achieved) == (3, 2)

    def test_checks_run_in_order(self):
        cfg = SystemConfig(make_cipher("identity", 2))
        wide = point(4, 0)  # another block size
        # both inputs are read as rationals before any range check
        for epsilon, delta in ((None, 0), (1, None)):
            with pytest.raises(TypeError):
                sensitivity_witness(cfg, wide, epsilon, delta)
        with pytest.raises(ValueError, match="^Invalid literal for Fraction"):
            sensitivity_witness(cfg, wide, 1, "a half")
        for epsilon, delta, error in (
            (1, 0, "epsilon must lie strictly between 0 and 1"),
            (Fraction(1, 10), 0, "delta must be positive"),
            (Fraction(1, 10), 3, "delta must not exceed the block size 2"),
            (Fraction(1, 10), 2, "block size mismatch"),
        ):
            with pytest.raises(ValueError, match=f"^{error}$"):
                sensitivity_witness(cfg, wide, epsilon, delta)

    @pytest.mark.parametrize("delta", [Fraction(0), Fraction(-1, 3), Fraction(-3)])
    def test_nonpositive_delta_rejected(self, delta):
        cfg = SystemConfig(make_cipher("identity", 4))
        with pytest.raises(ValueError, match="delta must be positive"):
            sensitivity_witness(cfg, point(4, 0), Fraction(1, 10), delta)


def steering_configs(stream, n_bits):
    """Every cipher kind under both conventions, with the negation and with random partial masks.

    A partial-mask inner function f(x) = x XOR r_x lets a block steer only
    the bits of r_x, so some targets lie outside one step.
    """
    size = 1 << n_bits
    kinds = ("identity", "permutation", "feistel") if n_bits % 2 == 0 else ("identity", "permutation")
    configs = []
    for kind in kinds:
        cipher = make_cipher(kind, n_bits, seed=stream.next_u64(), rounds=3)
        constant = stream.next_below(size)
        constant_mask = tuple(x ^ constant for x in range(size))
        random_masks = tuple(x ^ stream.next_below(size) for x in range(size))
        for table in (constant_mask, random_masks):
            configs.append(SystemConfig(cipher, inner_function=table, convention=CONVENTION_PAPER_COMPLEMENT))
        configs += [SystemConfig(cipher), SystemConfig(cipher, convention=CONVENTION_PAPER_COMPLEMENT)]
    return configs


def chained(cfg, X, n):
    """G^n(X) by n applications of ``step``."""
    for _ in range(n):
        X = step(cfg, X)
    return X


def one_step_reach(cfg, x):
    """Every state one step from state x, by trying every block."""
    return {next_state_value(cfg, x, m) for m in range(1 << cfg.n_bits)}


def horizon_verdict(cfg, w):
    """``verify_mixing`` with arrival read block by block: the tail is compared over one joint horizon.

    The horizon is the longest prefix plus the lcm of the cycle lengths, past
    which both sequences repeat.
    """
    point_, target, steps = w.constructed_point, w.target, w.steps
    if not in_ball(w.ball, point_) or target.n_bits != cfg.n_bits:
        return False
    if chained(cfg, point_, steps).state != target.state:
        return False
    m, goal = point_.message, target.message
    horizon = max(len(m.prefix), len(goal.prefix)) + lcm(len(m.cycle), len(goal.cycle))
    return [m.block(steps + i) for i in range(horizon)] == [goal.block(i) for i in range(horizon)]


def with_block(m, i, value):
    """Message m with block i replaced by ``value``, read block by block.

    Blocks from index ``start`` on repeat with the cycle's length, so they
    give the new cycle.
    """
    start = i + 1 + len(m.prefix)
    blocks = [m.block(j).value for j in range(start + len(m.cycle))]
    blocks[i] = value
    return MessageSequence(m.n_bits, blocks[:start], blocks[start:])


class TestIntegerVerification:
    """The witnesses' integer checks against step-chained orbits and the geometric-series distance."""

    @staticmethod
    def oracle_verdict(cfg, w):
        inside = oracle_distance(w.ball.center, w.constructed_point) < w.ball.radius
        return inside and chained(cfg, w.constructed_point, w.steps) == w.target

    @pytest.mark.parametrize("n_bits", [1, 2, 3, 4, 5, 6])
    def test_mixing_verdicts_match_oracle(self, n_bits):
        stream = SplitMix64(4100 + n_bits)
        size = 1 << n_bits
        radii = (Fraction(1, 2), Fraction(1, 10), Fraction(3, 1000), Fraction(7, 9))
        built = refused = 0
        for cfg in steering_configs(stream, n_bits):
            for i in range(10):
                ball = Ball(sample_point(stream, n_bits, max_prefix=6, max_cycle=5), radii[i % len(radii)])
                target = sample_point(stream, n_bits, max_prefix=4, max_cycle=7)
                k = agreement_length(ball.radius)
                reached = chained(cfg, ball.center, k).state
                if target.state not in one_step_reach(cfg, reached):
                    named = f"state {reached:0{n_bits}b} to state {target.state:0{n_bits}b}"
                    with pytest.raises(ValueError, match=named):
                        mixing_witness(cfg, ball, target)
                    refused += 1
                    continue
                w = mixing_witness(cfg, ball, target)
                assert verify_mixing(cfg, w) and self.oracle_verdict(cfg, w) and horizon_verdict(cfg, w)
                built += 1
                point_, m = w.constructed_point, w.constructed_point.message
                # one flipped bit of the correction block: fails iff a block steers that bit
                bit = 1 << stream.next_below(n_bits)
                flipped_message = with_block(m, k, m.block(k).value ^ bit)
                flipped = replace(w, constructed_point=SystemPoint(point_.state, flipped_message))
                assert verify_mixing(cfg, flipped) == self.oracle_verdict(cfg, flipped) == horizon_verdict(cfg, flipped)
                assert verify_mixing(cfg, flipped) == (bit & ~(reached ^ cfg.inner_function[reached]) != 0)
                # one block changed deep in the copied cycle
                deep = w.steps + len(target.message.prefix) + stream.next_below(3 * len(target.message.cycle))
                changed = m.block(deep).value ^ (1 + stream.next_below(size - 1))
                tail = replace(w, constructed_point=SystemPoint(point_.state, with_block(m, deep, changed)))
                assert not verify_mixing(cfg, tail) and not self.oracle_verdict(cfg, tail)
                assert not horizon_verdict(cfg, tail)
                # the radius shrunk onto and below the point's distance to the center
                gap = oracle_distance(ball.center, point_)
                for radius in (gap, gap / 2):
                    if radius > 0:
                        shrunk = replace(w, ball=Ball(ball.center, radius))
                        assert not verify_mixing(cfg, shrunk) and not self.oracle_verdict(cfg, shrunk)
        assert built and refused

    @pytest.mark.parametrize("n_bits", [1, 2, 3, 4, 5, 6])
    def test_sensitivity_achieved_matches_oracle(self, n_bits):
        stream = SplitMix64(4200 + n_bits)
        mask = (1 << n_bits) - 1
        epsilons = (Fraction(1, 2), Fraction(1, 10), Fraction(3, 1000), Fraction(7, 9))
        built = refused = 0
        for cfg in steering_configs(stream, n_bits):
            for i in range(10):
                X = sample_point(stream, n_bits, max_prefix=6, max_cycle=7)
                epsilon = epsilons[i % len(epsilons)]
                k = agreement_length(epsilon)
                reached = chained(cfg, X, k).state
                wanted = chained(cfg, X, k + 1).state ^ mask
                if wanted not in one_step_reach(cfg, reached):
                    named = f"state {reached:0{n_bits}b} to state {wanted:0{n_bits}b}"
                    with pytest.raises(ValueError, match=named):
                        sensitivity_witness(cfg, X, epsilon, Fraction(n_bits))
                    refused += 1
                    continue
                Y, n, achieved = sensitivity_witness(cfg, X, epsilon, Fraction(n_bits))
                assert achieved == oracle_distance(chained(cfg, X, n), chained(cfg, Y, n)) == n_bits
                assert oracle_distance(X, Y) < epsilon
                built += 1
        assert built and refused

    def test_target_of_another_block_size_fails(self):
        cfg = SystemConfig(make_cipher("permutation", 4, seed=3))
        target = point(4, 9, prefix=(2, 5), cycle=(1, 14, 6))
        w = mixing_witness(cfg, Ball(point(4, 3, prefix=(7,), cycle=(9, 0)), Fraction(1, 100)), target)
        assert verify_mixing(cfg, w)
        # the same state and block values, read as 5-bit blocks
        wider = replace(w, target=point(5, 9, prefix=(2, 5), cycle=(1, 14, 6)))
        assert not verify_mixing(cfg, wider) and not self.oracle_verdict(cfg, wider)

    @pytest.mark.parametrize("part", ["constructed_point", "target", "ball"])
    def test_any_part_of_another_block_size_fails(self, part):
        """A mismatched point or ball centre once raised from ``in_ball``; every mismatch is a False verdict."""
        cfg = SystemConfig(make_cipher("permutation", 4, seed=3))
        center, target = point(4, 3, prefix=(7,), cycle=(9, 0)), point(4, 9, prefix=(2, 5), cycle=(1, 14, 6))
        w = mixing_witness(cfg, Ball(center, Fraction(1, 100)), target)
        assert verify_mixing(cfg, w)

        def wider(X):  # the same state and block values, read as 5-bit blocks
            return SystemPoint(X.state, MessageSequence(5, X.message.prefix, X.message.cycle))

        corrupted = {
            "constructed_point": wider(w.constructed_point),
            "target": wider(target),
            "ball": Ball(wider(center), w.ball.radius),
        }
        assert verify_mixing(cfg, replace(w, **{part: corrupted[part]})) is False


class TestSplicedPoints:
    """The witnesses build their point from canonical parts: no message runs the checking constructor."""

    def test_no_construction_re_canonicalises(self, monkeypatch):
        cfg = SystemConfig(make_cipher("permutation", 4, seed=3))
        center, target = point(4, 3, prefix=(7,), cycle=(9, 0)), point(4, 9, prefix=(2, 5), cycle=(1, 14, 6))
        ball = Ball(center, Fraction(1, 100))
        built = []
        checked = MessageSequence.__post_init__

        def spy(self):
            built.append((self.prefix, self.cycle))
            checked(self)

        monkeypatch.setattr(MessageSequence, "__post_init__", spy)
        w = mixing_witness(cfg, ball, target)
        Y, n, achieved = sensitivity_witness(cfg, center, Fraction(1, 100), 4)
        _, merged = steered_merge_pair(cfg, center, 12)
        shifted = [dynamics.shift_by(target.message, t) for t in range(8)]
        assert built == []
        # the spy sees the checking constructor, and it agrees with every spliced message
        for m in [w.constructed_point.message, Y.message, merged.message, *shifted]:
            assert MessageSequence(m.n_bits, m.prefix, m.cycle) == m
        assert len(built) == 11 and achieved == 4 and verify_mixing(cfg, w)


class TestSteeringRefusal:
    """f(x) = x XOR 1100 on a 4-bit permutation: the certificate holds, yet each state has 4 successors."""

    def setup_method(self):
        inner = tuple(x ^ 0b1100 for x in range(16))
        cipher = make_cipher("permutation", 4, seed=1)
        self.cfg = SystemConfig(cipher, inner_function=inner, convention=CONVENTION_PAPER_COMPLEMENT)
        self.center = point(4, 0)

    def test_mixing_refuses_exactly_the_unreachable_targets(self):
        ball = Ball(self.center, Fraction(1, 10))
        reached = chained(self.cfg, self.center, agreement_length(ball.radius)).state
        reach = one_step_reach(self.cfg, reached)
        assert len(reach) == 4
        for t in range(16):
            if t in reach:
                assert verify_mixing(self.cfg, mixing_witness(self.cfg, ball, point(4, t)))
            else:
                with pytest.raises(ValueError, match=f"no block takes state {reached:04b} to state {t:04b}"):
                    mixing_witness(self.cfg, ball, point(4, t))

    def test_sensitivity_and_merge_refuse(self):
        with pytest.raises(ValueError, match="no block takes state"):
            sensitivity_witness(self.cfg, self.center, Fraction(1, 10), Fraction(4))
        goal = step(self.cfg, self.center).state
        others = [s for s in range(16) if s and goal not in one_step_reach(self.cfg, s)]
        assert others
        with pytest.raises(ValueError, match=f"no block takes state {others[0]:04b} to state {goal:04b}"):
            steered_merge_pair(self.cfg, self.center, others[0])


class TestSteeredMerge:
    def test_orbits_coincide_from_step_one(self):
        cfg = SystemConfig(make_cipher("permutation", 4, seed=5))
        X = point(4, 3, prefix=(7, 1), cycle=(9,))
        X, Y = steered_merge_pair(cfg, X, 12)
        assert distance(X, Y) >= 1
        traj_x = iterate(cfg, X, 20)
        traj_y = iterate(cfg, Y, 20)
        for n in range(1, 21):
            assert traj_x[n] == traj_y[n]

    def test_same_state_rejected(self):
        cfg = SystemConfig(make_cipher("identity", 2))
        X = point(2, 1)
        # read before the comparison: BlockVector(1, 2) == 1 is False
        for same in (X.state, np.int64(1), BlockVector(1, 2)):
            with pytest.raises(ValueError, match="^merge partner must start in a different state$"):
                steered_merge_pair(cfg, X, same)

    def test_block_size_mismatch_rejected_both_ways(self):
        # a 4-bit point on a 2-bit config once indexed past the tables, and a
        # 2-bit point on a 4-bit config was merged with the 4-bit tables
        for config_bits, point_bits in ((2, 4), (4, 2)):
            cfg = SystemConfig(make_cipher("identity", config_bits))
            # refused before the partner is read: 9 is no 2-bit state
            for partner in (1, 9):
                with pytest.raises(ValueError, match="^block size mismatch$"):
                    steered_merge_pair(cfg, point(point_bits, 0), partner)


def reference_probe(cfg, horizon, samples, seed):
    """The probe's pairs, each measured by oracle distances along step-chained orbits.

    Whether a steered merge exists is decided by trying every first block.
    """
    n_bits = cfg.n_bits
    stream = SplitMix64(seed)
    best = witness = witness_d0 = None
    for i in range(samples):
        X = sample_point(stream, n_bits)
        if i % 2 == 1:
            other = stream.next_below(1 << n_bits)
            while other == X.state:
                other = stream.next_below(1 << n_bits)
            merged = step(cfg, X).state
            firsts = (SystemPoint(other, msg(n_bits, (m,))) for m in range(1 << n_bits))
            if any(step(cfg, first).state == merged for first in firsts):
                X, Y = steered_merge_pair(cfg, X, other)
            else:
                Y = SystemPoint(other, X.message)
        else:
            Y = sample_point(stream, n_bits)
            while Y == X:
                Y = sample_point(stream, n_bits)
        a, b, separation = X, Y, None
        for _ in range(horizon):
            a, b = step(cfg, a), step(cfg, b)
            d = oracle_distance(a, b)
            separation = d if separation is None else max(separation, d)
        if best is None or separation < best:
            best, witness, witness_d0 = separation, (X, Y), oracle_distance(X, Y)
    return best, witness, witness_d0


def record_batches(monkeypatch):
    """Record the pairs of every batch the probe walks: half the points of each ``orbit_rows`` call."""
    batches = []

    def spy(cfg, points, n):
        points = list(points)
        batches.append(len(points) // 2)
        return orbit_rows(cfg, points, n)

    monkeypatch.setattr(chaoslab, "orbit_rows", spy)
    return batches


class TestExpansivityProbe:
    def setup_method(self):
        self.cfg = SystemConfig(make_cipher("permutation", 2, seed=9))

    def test_minimum_collapses_to_zero(self):
        report = expansivity_probe(self.cfg, horizon=50, samples=4, seed=5)
        assert report.min_max_orbit_distance == 0
        assert report.initial_distance >= 1

    def test_labeled_non_conclusive(self):
        report = expansivity_probe(self.cfg, horizon=5, samples=2, seed=1)
        assert not report.conclusive
        assert "observation" in report.note
        # class constants, not fields a caller could set
        assert not {"conclusive", "note"} & {f.name for f in fields(report)}

    def test_minimum_nonincreasing_over_extended_stream(self):
        values = [
            expansivity_probe(self.cfg, horizon=10, samples=s, seed=77).min_max_orbit_distance
            for s in (1, 2, 4, 8)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n_bits", [1, 4, 7])
    def test_matches_step_chained_reference(self, n_bits):
        stream = SplitMix64(900 + n_bits)
        size = 1 << n_bits
        cipher = make_cipher("permutation", n_bits, seed=stream.next_u64())
        configs = [
            SystemConfig(cipher),
            SystemConfig(cipher, convention=CONVENTION_PAPER_COMPLEMENT),
            SystemConfig(cipher, inner_function=identity_table(n_bits), convention=CONVENTION_PAPER_COMPLEMENT),
            SystemConfig(
                cipher,
                inner_function=tuple(stream.next_below(size) for _ in range(size)),
                convention=CONVENTION_PAPER_COMPLEMENT,
            ),
        ]
        for cfg in configs:
            for horizon in (1, 2, 17):
                report = expansivity_probe(cfg, horizon, samples=7, seed=stream.next_below(1000))
                best, witness, d0 = reference_probe(cfg, horizon, 7, report.seed)
                assert report.min_max_orbit_distance == best
                assert report.witness_pair == witness
                assert report.initial_distance == d0

    @pytest.mark.parametrize("per_batch", [1, 2, 3])
    def test_batches_match_step_chained_reference(self, per_batch, monkeypatch):
        batches = record_batches(monkeypatch)
        stream = SplitMix64(40 + per_batch)
        cipher = make_cipher("permutation", 3, seed=stream.next_u64())
        configs = [
            SystemConfig(cipher),
            SystemConfig(cipher, inner_function=identity_table(3), convention=CONVENTION_PAPER_COMPLEMENT),
            SystemConfig(
                cipher,
                inner_function=tuple(stream.next_below(8) for _ in range(8)),
                convention=CONVENTION_PAPER_COMPLEMENT,
            ),
        ]
        for cfg in configs:
            for horizon, samples in ((1, 7), (6, 8), (13, 5)):
                # a pair's two rows hold at least 4 * (horizon + 1) elements
                monkeypatch.setattr(chaoslab, "_PROBE_BUDGET", per_batch * 4 * (horizon + 1))
                batches.clear()
                report = expansivity_probe(cfg, horizon, samples, seed=stream.next_below(1000))
                full, rest = divmod(samples, per_batch)
                assert batches == [per_batch] * full + [rest] * (rest > 0)
                best, witness, d0 = reference_probe(cfg, horizon, samples, report.seed)
                assert report.min_max_orbit_distance == best
                assert report.witness_pair == witness
                assert report.initial_distance == d0

    def test_benchmark_probe_fits_one_batch(self, monkeypatch):
        batches = record_batches(monkeypatch)
        expansivity_probe(SystemConfig(make_cipher("permutation", 16, seed=5)), horizon=300, samples=40, seed=1)
        assert batches == [40]

    def test_guards(self):
        with pytest.raises(ValueError):
            expansivity_probe(self.cfg, horizon=0, samples=1, seed=0)
        with pytest.raises(ValueError):
            expansivity_probe(self.cfg, horizon=1, samples=0, seed=0)


class TestSeparatedSet:
    def setup_method(self):
        self.cfg = SystemConfig(make_cipher("identity", 2))

    def test_all_states_separate_at_unit_radius(self):
        candidates = [point(2, s) for s in range(4)]
        report = separated_set(self.cfg, candidates, n=1, epsilon=Fraction(1))
        assert report.cardinality == 4

    def test_single_candidate(self):
        report = separated_set(self.cfg, [point(2, 1)], n=1, epsilon=Fraction(1))
        assert report.cardinality == 1

    def test_pairwise_recheck(self):
        grid = entropy_grid(2, 2)
        for mode in ("greedy", "exact"):
            report = separated_set(self.cfg, grid, n=2, epsilon=Fraction(1), mode=mode)
            pts = report.points
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    assert bowen_distance(self.cfg, pts[i], pts[j], 2) >= 1

    def test_greedy_never_exceeds_exact(self):
        stream = SplitMix64(63)
        for trial in range(8):
            cfg = random_config(stream, 2, CONVENTION_XOR)
            candidates = [sample_point(stream, 2) for _ in range(14)]
            n = 1 + stream.next_below(3)
            epsilon = (Fraction(1, 2), Fraction(1), Fraction(3, 2))[trial % 3]
            greedy = separated_set(cfg, candidates, n, epsilon, mode="greedy")
            exact = separated_set(cfg, candidates, n, epsilon, mode="exact")
            assert greedy.cardinality <= exact.cardinality

    def test_exact_finds_known_maximum_on_grid(self):
        grid = entropy_grid(2, 2)
        report = separated_set(self.cfg, grid, n=2, epsilon=Fraction(1), mode="exact")
        assert report.cardinality == 16
        assert not report.is_lower_bound

    def test_exact_mode_candidate_cap(self):
        candidates = [point(2, 0, prefix=(i % 4, (i // 4) % 4, (i // 16) % 4)) for i in range(70)]
        with pytest.raises(ValueError):
            separated_set(self.cfg, candidates, 1, Fraction(1), mode="exact")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            separated_set(self.cfg, [point(2, 0)], 1, Fraction(1), mode="best")

    def test_window_guard(self):
        with pytest.raises(ValueError):
            separated_set(self.cfg, [point(2, 0)], 0, Fraction(1))

    def test_block_size_mismatch(self):
        for candidates in ([point(3, 0)], [point(2, 0), point(3, 1)]):
            for mode in ("greedy", "exact"):
                with pytest.raises(ValueError):
                    separated_set(self.cfg, candidates, 1, Fraction(1), mode=mode)

    def test_empty_candidates(self):
        for mode in ("greedy", "exact"):
            report = separated_set(self.cfg, [], 2, Fraction(1), mode=mode)
            assert report.cardinality == 0 and report.points == []


class TestSeparationKernelAgainstFractionPath:
    """The integer kernel keeps exactly what the Fraction path keeps."""

    @pytest.mark.parametrize("convention", [CONVENTION_XOR, CONVENTION_PAPER_COMPLEMENT])
    @pytest.mark.parametrize("n_bits,prefix_len", [(2, 2), (2, 3), (3, 1)])
    def test_entropy_grids(self, n_bits, prefix_len, convention):
        grid = entropy_grid(n_bits, prefix_len)
        modes = ("greedy", "exact") if len(grid) <= 64 else ("greedy",)
        for kind, epsilon in (("identity", Fraction(1)), ("permutation", Fraction(1, 2))):
            cfg = SystemConfig(make_cipher(kind, n_bits, seed=7), convention=convention)
            # the profile decides every window in one pass; separated_set decides one
            profile = entropy_profile(cfg, 3, epsilon, prefix_len)
            for entry in profile:
                if len(grid) > 64:
                    assert entry.exact_cardinality is None
                for mode in modes:
                    kept = assert_matches_reference(cfg, grid, entry.n, epsilon, mode)
                    assert getattr(entry, f"{mode}_cardinality") == len(kept)

    def test_general_messages_on_both_arithmetic_paths(self, monkeypatch):
        paths = spy_on_dtype(monkeypatch)
        stream = SplitMix64(2024)
        epsilons = (
            Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(1, 1000),
            Fraction(123456789, 10 ** 15), Fraction(7, 3),
        )
        for trial in range(36):
            n_bits = (2, 4)[trial % 2]
            convention = (CONVENTION_XOR, CONVENTION_PAPER_COMPLEMENT)[trial // 2 % 2]
            cfg = random_config(stream, n_bits, convention)
            max_cycle = 1 + trial % 7
            candidates = [
                sample_point(stream, n_bits, max_cycle=max_cycle) for _ in range(18)
            ]
            n = 1 + stream.next_below(4)
            epsilon = epsilons[trial % len(epsilons)]
            for mode in ("greedy", "exact"):
                assert_matches_reference(cfg, candidates, n, epsilon, mode)
        assert set(paths) == {np.int64, object}

    def test_every_window_of_one_pass_on_both_arithmetic_paths(self, monkeypatch):
        paths = spy_on_dtype(monkeypatch)
        stream = SplitMix64(4048)
        epsilons = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(1, 1000), Fraction(7, 3))
        for trial in range(20):
            n_bits = (2, 4)[trial % 2]
            convention = (CONVENTION_XOR, CONVENTION_PAPER_COMPLEMENT)[trial // 2 % 2]
            cfg = random_config(stream, n_bits, convention)
            candidates = [sample_point(stream, n_bits, max_cycle=1 + trial % 7) for _ in range(16)]
            n_max = 2 + stream.next_below(3)
            epsilon = epsilons[trial % len(epsilons)]
            for mode in ("greedy", "exact"):
                assert_windows_match_reference(cfg, candidates, n_max, epsilon, mode)
        assert set(paths) == {np.int64, object}

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_chunked_scan_keeps_the_oracle_lists(self, chunk, monkeypatch):
        """Chunks of 1, 2, 3 and 7 candidates keep exactly the in-order scan's lists."""
        stream = SplitMix64(chunk)
        cases = [
            (SystemConfig(make_cipher("identity", 2)), entropy_grid(2, 2), Fraction(1)),
            (SystemConfig(make_cipher("permutation", 2, seed=7)), entropy_grid(2, 2), Fraction(1, 2)),
            (random_config(stream, 4, CONVENTION_XOR), [sample_point(stream, 4) for _ in range(23)], Fraction(3, 2)),
        ]
        n_max = 3
        blocks = record_blocks(monkeypatch)
        for cfg, candidates, epsilon in cases:
            width = orbit_rows(cfg, candidates, n_max).matrix.shape[1]
            monkeypatch.setattr(chaoslab, "_BLOCK_BUDGET", chunk * chunk * width)
            blocks.clear()
            assert_windows_match_reference(cfg, candidates, n_max, epsilon, "greedy")
            assert max(rows for rows, _, _ in blocks) == chunk
            assert_windows_match_reference(cfg, candidates, n_max, epsilon, "exact")

    @pytest.mark.parametrize("cycles,dtype", [(((1,), (2, 3)), np.int64), (((1,), tuple(range(17))), object)])
    def test_threshold_is_the_exact_ceiling(self, monkeypatch, cycles, dtype):
        """epsilon = b keeps both points of a pair at Bowen distance b; just above b keeps one."""
        paths = spy_on_dtype(monkeypatch)
        cfg = SystemConfig(make_cipher("permutation", 5, seed=11))
        pair = [point(5, 3, (7, 9), cycles[0]), point(5, 12, (7,), cycles[1])]
        n = 4
        b = bowen_distance(cfg, *pair, n)
        scale = orbit_rows(cfg, pair, n).scale
        # p * D / q = b * D + 1/3: a threshold rounded down would still keep both
        above = Fraction(3 * int(b * scale) + 1, 3 * scale)
        assert (above.numerator * scale) % above.denominator
        for mode in ("greedy", "exact"):
            assert separated_set(cfg, pair, n, b, mode=mode).cardinality == 2
            assert separated_set(cfg, pair, n, above, mode=mode).cardinality == 1
            assert_matches_reference(cfg, pair, n, above, mode)
        assert set(paths) == {dtype}

    def test_nonpositive_epsilon_is_rejected(self):
        """At epsilon <= 0 every pair, even of equal points, would count as separated."""
        cfg = SystemConfig(make_cipher("identity", 2))
        candidates = [point(2, 0), point(2, 0), point(2, 1, prefix=(3,))]
        for epsilon in (Fraction(0), Fraction(-1, 2)):
            for mode in ("greedy", "exact"):
                with pytest.raises(ValueError, match="epsilon must be positive"):
                    separated_set(cfg, candidates, 2, epsilon, mode=mode)


class TestSeparationPassBounds:
    """The packbits masks of exact mode and the block budget of the pairwise kernel."""

    @pytest.mark.parametrize("count", [64, 61, 13])
    def test_exact_masks_are_the_separated_pairs(self, count, monkeypatch):
        seen = []

        def record(masks):
            seen.append(masks)
            return []

        monkeypatch.setattr(chaoslab, "_max_clique", record)
        stream = SplitMix64(count)
        if count % 8:
            cfg = random_config(stream, 4, CONVENTION_PAPER_COMPLEMENT)
            candidates = [sample_point(stream, 4) for _ in range(count)]
        else:
            cfg = SystemConfig(make_cipher("permutation", 2, seed=7))
            candidates = entropy_grid(2, 2)
        epsilon = Fraction(1, 2)
        windows = range(1, 4)
        chaoslab._select(orbit_rows(cfg, candidates, 3), epsilon, "exact", windows)
        assert seen == [reference_masks(cfg, candidates, n, epsilon) for n in windows]
        assert all(mask < 1 << count for masks in seen for mask in masks)
        assert any(mask >> (count - 1) for masks in seen for mask in masks)

    def test_pairwise_blocks_stay_within_the_budget(self, monkeypatch):
        blocks = record_blocks(monkeypatch)
        entropy_profile(SystemConfig(make_cipher("identity", 2)), 3, Fraction(1), 3)
        entropy_profile(SystemConfig(make_cipher("permutation", 3, seed=5)), 3, Fraction(1), 1)
        stream = SplitMix64(5)
        cfg = random_config(stream, 4, CONVENTION_XOR)
        candidates = [sample_point(stream, 4, max_prefix=9, max_cycle=3) for _ in range(200)]
        # rows 94 wide; all 200 are kept, so one row against the kept rows outgrows the budget
        assert separated_set(cfg, candidates, 40, Fraction(1, 1000)).cardinality == 200
        separated_set(cfg, candidates[:40], 40, Fraction(1, 1000), mode="exact")
        budget = chaoslab._BLOCK_BUDGET
        assert all(ra * rb * width <= budget or ra == 1 for ra, rb, width in blocks)
        # both kinds of block occur: many rows within the budget, and one row past it
        assert any(ra > 1 and ra * rb * width > budget // 2 for ra, rb, width in blocks)
        assert any(ra * rb * width > budget for ra, rb, width in blocks)


@pytest.mark.parametrize("convention", [CONVENTION_XOR, CONVENTION_PAPER_COMPLEMENT])
@pytest.mark.parametrize("kind", ["identity", "permutation", "feistel"])
def test_constructive_family_is_separated(kind, convention):
    """All states x all zero-tailed (n-1)-block prefixes: 2^(nN) points, pairwise >= 1 apart."""
    stream = SplitMix64(len(kind) * 2 + (convention == CONVENTION_XOR))
    for n_bits in range(1, 11):
        if kind == "feistel" and n_bits % 2:
            continue
        cfg = SystemConfig(
            make_cipher(kind, n_bits, seed=n_bits, rounds=3),
            inner_function=negation_table(n_bits),
            convention=convention,
        )
        for n in range(1, 10 // n_bits + 1):
            family = entropy_grid(n_bits, n - 1)
            assert len(family) == 1 << (n * n_bits)
            report = separated_set(cfg, family, n, Fraction(1))
            assert report.cardinality == len(family)
            if len(family) < 2:
                continue
            for _ in range(3):
                i = stream.next_below(len(family))
                j = (i + 1 + stream.next_below(len(family) - 1)) % len(family)
                assert bowen_distance(cfg, family[i], family[j], n) >= 1


def grid_configs(kind, n_bits):
    """xor with the negation, then paper-complement with the negation, the identity and a
    partial mask: f(x) = NOT x XOR 2^(x mod N), so the steerable bits of x miss bit x mod N."""
    cipher = make_cipher(kind, n_bits, seed=n_bits, rounds=3)
    full = (1 << n_bits) - 1
    partial = [x ^ full ^ (1 << x % n_bits) for x in range(1 << n_bits)]
    return [SystemConfig(cipher)] + [
        SystemConfig(cipher, inner, CONVENTION_PAPER_COMPLEMENT)
        for inner in (None, identity_table(n_bits), partial)
    ]


class TestGridRows:
    """The rows laid out from the grid's digits equal the rows of its points, walked one point at a time."""

    @pytest.mark.parametrize("n_bits", [2, 4, 6])
    @pytest.mark.parametrize("kind", ["identity", "permutation", "feistel"])
    def test_rows_equal_the_point_oracle(self, kind, n_bits):
        checked = 0
        for prefix_len in (0, 1, 2):
            if 1 << n_bits * (prefix_len + 1) > 4096:
                continue
            grid = entropy_grid(n_bits, prefix_len)
            for cfg in grid_configs(kind, n_bits):
                for n in (1, 3, 8):
                    rows = grid_rows(cfg, prefix_len, n)
                    matrix, oracle_prefix, oracle_period = walked_rows(cfg, grid, n)
                    assert (oracle_prefix, oracle_period) == (prefix_len, 1)
                    assert rows.matrix.dtype == matrix.dtype
                    assert np.array_equal(rows.matrix, matrix)
                    scale = metric.orbit_scale(n_bits, prefix_len, 1)
                    assert rows.dtype is metric.exact_dtype((n_bits + 1) * scale)
                    weights = oracle_weights(prefix_len, 1) if rows.dtype is np.int64 else ()
                    assert (rows.n, rows.scale, rows.weights, rows.prefix_len, rows.period) == (
                        n, scale, weights, prefix_len, 1
                    )
                    checked += 1
        # 3 kinds x 3 sizes x these counts make the 288 configurations
        assert checked == (24 if n_bits == 6 else 36)

    def test_dtype_comes_from_exact_dtype(self, monkeypatch):
        paths = spy_on_dtype(monkeypatch)
        rows = grid_rows(SystemConfig(make_cipher("identity", 2)), 2, 3)
        assert paths == [np.int64] and rows.dtype is np.int64


class TestEntropyProfile:
    def setup_method(self):
        self.cfg = SystemConfig(make_cipher("identity", 2))

    def test_reference_growth_on_small_grid(self):
        entries = entropy_profile(self.cfg, n_max=2, epsilon=Fraction(1), prefix_len=2)
        by_n = {e.n: e for e in entries}
        assert by_n[1].h_lower >= 4
        assert by_n[2].h_lower >= 16
        assert by_n[1].greedy_cardinality == 4
        assert by_n[2].greedy_cardinality == 16
        assert by_n[1].exact_cardinality == 4
        assert by_n[2].exact_cardinality == 16

    def test_growth_rate_meets_block_size(self):
        from math import log

        entries = entropy_profile(self.cfg, n_max=2, epsilon=Fraction(1), prefix_len=2)
        for e in entries:
            assert e.growth_rate >= 2 * log(2) - 1e-12

    def test_constructive_bound_matches_formula(self):
        entries = entropy_profile(self.cfg, n_max=3, epsilon=Fraction(1), prefix_len=1)
        assert [e.constructive_bound for e in entries] == [4, 16, 64]

    def test_oversized_epsilon_collapses_to_one(self):
        entries = entropy_profile(self.cfg, n_max=2, epsilon=Fraction(4), prefix_len=1)
        assert all(e.h_lower == 1 for e in entries)
        assert all(e.constructive_bound is None for e in entries)
        assert all(e.growth_rate == 0 for e in entries)

    def test_grid_guard(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("grid built past the cost guard")

        monkeypatch.setattr(chaoslab, "grid_rows", no_grid)
        with pytest.raises(ValueError, match="^entropy on a 4294967296-point grid .* above the cap"):
            # 2^8 * (2^8)^3 = 2^32 points
            entropy_profile(SystemConfig(make_cipher("identity", 8)), n_max=1, epsilon=Fraction(1), prefix_len=3)

    def test_grid_enumeration_order(self):
        # one step: each row is the state, then prefix block 0 and the zero tail
        matrix = grid_rows(self.cfg, 1, 1).matrix
        assert matrix.shape == (16, 3)
        assert matrix[0].tolist() == [0, 0, 0]
        assert matrix[1].tolist() == [0, 1, 0]
        assert matrix[4].tolist() == [1, 0, 0]
        assert matrix[:, 2].tolist() == [0] * 16

    def test_window_guard(self):
        with pytest.raises(ValueError):
            entropy_profile(self.cfg, n_max=0, epsilon=Fraction(1), prefix_len=1)

    @pytest.mark.parametrize("epsilon", [Fraction(0), Fraction(-1)])
    def test_nonpositive_epsilon_rejected_before_the_grid(self, epsilon, monkeypatch):
        def no_grid(*args):
            raise AssertionError("grid built for a rejected epsilon")

        monkeypatch.setattr(chaoslab, "grid_rows", no_grid)
        with pytest.raises(ValueError, match="^epsilon must be positive$"):
            entropy_profile(self.cfg, n_max=2, epsilon=epsilon, prefix_len=2)

    def test_cost_guard_names_estimate_and_cap(self):
        cfg = SystemConfig(make_cipher("identity", 4))
        with pytest.raises(ValueError) as exc:
            entropy_profile(cfg, n_max=1, epsilon=Fraction(1), prefix_len=3)
        message = str(exc.value)
        assert "65536-point grid" in message
        assert str(65536 ** 2 * 1 * (3 + 2)) in message  # points^2 x 1 x (prefix_len+2)
        assert str(ENTROPY_COST_GUARD) in message

    def test_cost_grows_with_window_count(self):
        cfg = SystemConfig(make_cipher("identity", 6))  # 4096-point grid at prefix_len 1
        entropy_profile(cfg, n_max=1, epsilon=Fraction(4), prefix_len=1)
        with pytest.raises(ValueError, match="n_max 200"):
            entropy_profile(cfg, n_max=200, epsilon=Fraction(4), prefix_len=1)

    def test_rows_are_built_once(self, monkeypatch):
        """One column walk of the whole grid for the whole profile, and no walk per point."""
        columns, bound = [], []

        def spy(cfg, inner):
            rule = dynamics.combine_rule(cfg, inner)
            bound.append(rule)

            def counted(x, m):
                columns.append(x.shape)
                return rule(x, m)

            return counted

        def no_point_walk(*args):
            raise AssertionError("a grid orbit walked as a point")

        monkeypatch.setattr(metric, "combine_rule", spy)
        for module in (chaoslab, dynamics):
            monkeypatch.setattr(module, "state_values", no_point_walk)
        entries = entropy_profile(self.cfg, n_max=3, epsilon=Fraction(1), prefix_len=2)
        assert [e.exact_cardinality for e in entries] == [4, 16, 64]
        assert columns == [(64,)] * 2  # steps 0 -> 1 and 1 -> 2 of all 64 orbits
        assert len(bound) == 1  # one rule bound for the whole walk

    def test_1024_point_grid_is_fast_and_exact(self):
        started = time.perf_counter()
        entries = entropy_profile(self.cfg, n_max=4, epsilon=Fraction(1), prefix_len=4)
        elapsed = time.perf_counter() - started
        assert [e.greedy_cardinality for e in entries] == [4, 16, 64, 256]
        assert [e.h_lower for e in entries] == [2 ** (2 * min(n, 5)) for n in (1, 2, 3, 4)]
        assert elapsed < 10.0, f"1024-point grid took {elapsed:.2f}s (limit 10s)"


class TestNumpyRationals:
    """Every rational input given as a numpy integer, or a Fraction of them, acts as the same Python-int value."""

    @pytest.mark.parametrize("p,q", [(3, 1), (1, 1), (1, 10), (9, 100), (7, 10**9)])
    def test_scale_index(self, p, q):
        assert {scale_index(e) for e in numpy_rationals(p, q)} == {scale_index(Fraction(p, q))}

    @pytest.mark.parametrize("p,q", [(1, 10), (3, 100), (7, 9)])
    def test_mixing_radius(self, p, q):
        cfg = SystemConfig(make_cipher("permutation", 4, seed=3))
        center, target = point(4, 3, prefix=(7,), cycle=(9, 0)), point(4, 9, prefix=(2, 5), cycle=(1, 14, 6))
        expected = mixing_witness(cfg, Ball(center, Fraction(p, q)), target)
        for radius in numpy_rationals(p, q):
            w = mixing_witness(cfg, Ball(center, radius), target)
            assert w == expected and has_int_parts(w.ball.radius)

    @pytest.mark.parametrize("p,q", [(1, 10), (7, 9)])
    def test_sensitivity_epsilon_and_delta(self, p, q):
        cfg = SystemConfig(make_cipher("permutation", 4, seed=3))
        X = point(4, 3, prefix=(7,) * 19, cycle=(9, 0))
        for delta in (4, Fraction(1, 2)):
            expected = sensitivity_witness(cfg, X, Fraction(p, q), delta)
            for epsilon in numpy_rationals(p, q):
                for delta_form in numpy_rationals(delta.numerator, delta.denominator):
                    Y, n, achieved = sensitivity_witness(cfg, X, epsilon, delta_form)
                    assert (Y, n, achieved) == expected and has_int_parts(achieved)

    @pytest.mark.parametrize("p,q", [(1, 1), (1, 10**9)])
    def test_separated_set_epsilon(self, p, q):
        # 19-block prefixes: D passes 2^63 and the sums run on Python ints
        cfg = SystemConfig(make_cipher("permutation", 4, seed=3))
        candidates = [point(4, s, prefix=(s,) * 19) for s in range(0, 16, 3)] + [point(4, 5, prefix=(2,) * 19)]
        for mode in ("greedy", "exact"):
            expected = separated_set(cfg, candidates, 2, Fraction(p, q), mode)
            for epsilon in numpy_rationals(p, q):
                report = separated_set(cfg, candidates, 2, epsilon, mode)
                assert report == expected and has_int_parts(report.epsilon)

    @pytest.mark.parametrize("p,q", [(1, 1), (1, 2)])
    def test_entropy_profile_epsilon(self, p, q):
        cfg = SystemConfig(make_cipher("permutation", 2, seed=5), convention=CONVENTION_PAPER_COMPLEMENT)
        expected = entropy_profile(cfg, 2, Fraction(p, q), 1)
        for epsilon in numpy_rationals(p, q):
            assert entropy_profile(cfg, 2, epsilon, 1) == expected


class TestSampling:
    def test_sampling_is_deterministic(self):
        a = [sample_point(SplitMix64(4), 4) for _ in range(1)]
        b = [sample_point(SplitMix64(4), 4) for _ in range(1)]
        assert a == b
