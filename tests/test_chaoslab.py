"""Mixing and sensitivity witnesses, expansivity probe, separated sets, entropy."""

import time
from fractions import Fraction
from math import lcm

import pytest

from cbcdyn.chaoslab import (
    ENTROPY_COST_GUARD,
    GRID_GUARD,
    MixingWitness,
    _max_clique,
    agreement_length,
    entropy_grid,
    entropy_profile,
    expansivity_probe,
    mixing_witness,
    sample_block,
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
    iterate,
    negation_table,
)
from cbcdyn.metric import Ball, bowen_distance, distance, in_ball


def msg(n_bits, prefix=(), cycle=(0,)):
    return MessageSequence.from_values(n_bits, prefix, cycle)


def point(n_bits, state, prefix=(), cycle=(0,)):
    return SystemPoint(BlockVector(state, n_bits), msg(n_bits, prefix, cycle))


def random_config(stream, n_bits, convention):
    kind = ("identity", "permutation", "feistel")[stream.next_below(3)]
    cipher = make_cipher(kind, n_bits, seed=stream.next_u64(), rounds=3)
    return SystemConfig(cipher, convention=convention)


def reference_kept(cfg, candidates, n, epsilon, mode):
    """Kept indexes by the Fraction path: one exact distance per pair per step."""
    trajectories = [iterate(cfg, p, n - 1) for p in candidates]

    def far(i, j):
        pairs = zip(trajectories[i], trajectories[j])
        return max(distance(a, b) for a, b in pairs) >= epsilon

    m = len(candidates)
    if mode == "greedy":
        kept = []
        for i in range(m):
            if all(far(i, j) for j in kept):
                kept.append(i)
        return kept
    masks = [sum(1 << j for j in range(m) if j != i and far(i, j)) for i in range(m)]
    return _max_clique(masks)


def assert_matches_reference(cfg, candidates, n, epsilon, mode):
    report = separated_set(cfg, candidates, n, epsilon, mode=mode)
    kept = reference_kept(cfg, candidates, n, Fraction(epsilon), mode)
    assert report.points == [candidates[i] for i in kept]
    assert report.cardinality == len(kept)


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
        with pytest.raises(ValueError):
            scale_index(Fraction(0))


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
        with pytest.raises(ValueError):
            mixing_witness(self.cfg, Ball(point(2, 0), Fraction(1)), point(2, 1))

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
        blocks = [w.constructed_point.message.block(i) for i in range(w.k + 1)]
        blocks[w.k] = blocks[w.k] ^ BlockVector(0b01, 2)  # flip one bit
        corrupted_point = SystemPoint(
            w.constructed_point.state,
            MessageSequence(tuple(blocks), w.target.message.cycle),
        )
        corrupted = MixingWitness(corrupted_point, w.steps, w.k, w.target, w.ball)
        assert not verify_mixing(self.cfg, corrupted)

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
        assert traj_y.state == ~traj_x.state

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
        with pytest.raises(ValueError):
            sensitivity_witness(cfg, point(2, 0), Fraction(1), Fraction(1))
        with pytest.raises(ValueError):
            sensitivity_witness(cfg, point(2, 0), Fraction(0), Fraction(1))

    def test_delta_above_block_size_rejected(self):
        cfg = SystemConfig(make_cipher("identity", 2))
        with pytest.raises(ValueError):
            sensitivity_witness(cfg, point(2, 0), Fraction(1, 2), Fraction(3))


class TestSteeredMerge:
    def test_orbits_coincide_from_step_one(self):
        cfg = SystemConfig(make_cipher("permutation", 4, seed=5))
        X = point(4, 3, prefix=(7, 1), cycle=(9,))
        X, Y = steered_merge_pair(cfg, X, BlockVector(12, 4))
        assert distance(X, Y) >= 1
        traj_x = iterate(cfg, X, 20)
        traj_y = iterate(cfg, Y, 20)
        for n in range(1, 21):
            assert traj_x[n] == traj_y[n]

    def test_same_state_rejected(self):
        cfg = SystemConfig(make_cipher("identity", 2))
        X = point(2, 1)
        with pytest.raises(ValueError):
            steered_merge_pair(cfg, X, X.state)


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

    def test_minimum_nonincreasing_over_extended_stream(self):
        values = [
            expansivity_probe(self.cfg, horizon=10, samples=s, seed=77).min_max_orbit_distance
            for s in (1, 2, 4, 8)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

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
            for n in (1, 2, 3):
                for mode in modes:
                    assert_matches_reference(cfg, grid, n, epsilon, mode)

    def test_general_messages_on_both_arithmetic_paths(self):
        stream = SplitMix64(2024)
        epsilons = (
            Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(1, 1000),
            Fraction(123456789, 10 ** 15), Fraction(7, 3),
        )
        fits_int64 = set()
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
            prefix_len = max(len(p.message.prefix) for p in candidates)
            period = lcm(*(len(p.message.cycle) for p in candidates))
            scale = n_bits * 10 ** prefix_len * (10 ** period - 1)
            fits_int64.add(
                (n_bits + 1) * scale * max(epsilon.numerator, epsilon.denominator) < 2 ** 63
            )
            for mode in ("greedy", "exact"):
                assert_matches_reference(cfg, candidates, n, epsilon, mode)
        assert fits_int64 == {True, False}

    def test_nonpositive_epsilon_separates_everything(self):
        cfg = SystemConfig(make_cipher("identity", 2))
        candidates = [point(2, 0), point(2, 0), point(2, 1, prefix=(3,))]
        for epsilon in (Fraction(0), Fraction(-1, 2)):
            for mode in ("greedy", "exact"):
                report = separated_set(cfg, candidates, 2, epsilon, mode=mode)
                assert report.cardinality == 3
                assert_matches_reference(cfg, candidates, 2, epsilon, mode)


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

    def test_grid_guard(self):
        with pytest.raises(ValueError):
            entropy_grid(8, 3)  # 2^8 * (2^8)^3 = 2^32 points

    def test_grid_enumeration_order(self):
        grid = entropy_grid(2, 1)
        assert len(grid) == 16
        assert grid[0].state.value == 0 and grid[0].message.block(0).value == 0
        assert grid[1].message.block(0).value == 1
        assert grid[4].state.value == 1

    def test_window_guard(self):
        with pytest.raises(ValueError):
            entropy_profile(self.cfg, n_max=0, epsilon=Fraction(1), prefix_len=1)

    def test_cost_guard_names_estimate_and_cap(self):
        cfg = SystemConfig(make_cipher("identity", 4))
        with pytest.raises(ValueError) as exc:
            entropy_profile(cfg, n_max=1, epsilon=Fraction(1), prefix_len=3)
        message = str(exc.value)
        assert "65536-point grid" in message
        assert str(65536 ** 2 * 1 * (3 + 2)) in message  # points^2 x 1 x (prefix_len+2)
        assert str(ENTROPY_COST_GUARD) in message

    def test_grid_cap_within_cost_guard(self):
        # the cheapest profile on a grid (n_max 1, prefix_len 0) costs points^2 x 2
        assert GRID_GUARD ** 2 * 2 <= ENTROPY_COST_GUARD

    def test_cost_grows_with_window_count(self):
        cfg = SystemConfig(make_cipher("identity", 6))  # 4096-point grid at prefix_len 1
        entropy_profile(cfg, n_max=1, epsilon=Fraction(4), prefix_len=1)
        with pytest.raises(ValueError, match="n_max 200"):
            entropy_profile(cfg, n_max=200, epsilon=Fraction(4), prefix_len=1)

    def test_1024_point_grid_is_fast_and_exact(self):
        started = time.perf_counter()
        entries = entropy_profile(self.cfg, n_max=4, epsilon=Fraction(1), prefix_len=4)
        elapsed = time.perf_counter() - started
        assert [e.greedy_cardinality for e in entries] == [4, 16, 64, 256]
        assert [e.h_lower for e in entries] == [2 ** (2 * min(n, 5)) for n in (1, 2, 3, 4)]
        assert elapsed < 10.0, f"1024-point grid took {elapsed:.2f}s (limit 10s)"


class TestSampling:
    def test_sample_block_in_range(self):
        stream = SplitMix64(8)
        for _ in range(50):
            b = sample_block(stream, 4)
            assert 0 <= b.value < 16

    def test_sampling_is_deterministic(self):
        a = [sample_point(SplitMix64(4), 4) for _ in range(1)]
        b = [sample_point(SplitMix64(4), 4) for _ in range(1)]
        assert a == b
