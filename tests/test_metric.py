"""Exact metric: series and geometric-series oracles, axioms, balls."""

import time
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from conftest import (
    first_difference_index,
    has_int_parts,
    numpy_rationals,
    oracle_distance,
    oracle_message_distance,
    oracle_weights,
    spy_on_dtype,
    walked_rows,
)

from cbcdyn import metric
from cbcdyn.chaoslab import sample_message, sample_point
from cbcdyn.cipher import SplitMix64, make_cipher
from cbcdyn.dynamics import (
    CONVENTION_PAPER_COMPLEMENT,
    CONVENTION_XOR,
    MessageSequence,
    SystemConfig,
    SystemPoint,
    identity_table,
    iterate,
    step,
)
from cbcdyn.metric import (
    SCALE_GUARD,
    Ball,
    OrbitRows,
    bowen_distance,
    decimal_str,
    distance,
    fraction_str,
    in_ball,
    max_orbit_distance,
    message_distance,
    orbit_rows,
    orbit_scale,
    state_distance,
)


def msg(n_bits, prefix=(), cycle=(0,)):
    return MessageSequence.from_values(n_bits, prefix, cycle)


def point(n_bits, state, prefix=(), cycle=(0,)):
    return SystemPoint(state, msg(n_bits, prefix, cycle))


def series_term(m, other, k):
    """The k-th term (k >= 1) of the message distance series, exactly, from its definition."""
    h = (m.block(k - 1).value ^ other.block(k - 1).value).bit_count()
    return Fraction(9 * h, m.n_bits) / Fraction(10) ** k


class TestStateDistance:
    def test_zero_for_equal(self):
        assert state_distance(0b0011, 0b0011) == 0

    def test_counts_differing_bits(self):
        assert state_distance(0b0011, 0b0101) == 2

    def test_negation_reaches_maximum(self):
        for v in range(16):
            assert state_distance(v, v ^ 0b1111) == 4


class TestMessageDistance:
    def test_zero_iff_equal(self):
        m = msg(2, (1, 2), (3,))
        assert message_distance(m, m) == 0

    def test_single_term_example(self):
        # first blocks differ by one bit, everything after is zero
        assert message_distance(msg(2, (0b10,)), msg(2, (0b00,))) == Fraction(9, 20)

    def test_supremum_example(self):
        # every block differs in every bit: the series sums to exactly 1
        assert message_distance(msg(2), msg(2, (), (0b11,))) == 1

    def test_supremum_is_attained_only_by_total_disagreement(self):
        # one agreeing bit anywhere pulls the distance strictly below 1
        close = msg(2, (0b01,), (0b11,))
        assert message_distance(msg(2), close) < 1

    def test_series_partial_sum_oracle(self):
        # independent oracle: sum the definition term by term; the closed
        # form must sit between the partial sum and partial sum + tail bound
        stream = SplitMix64(77)
        terms = 60
        tail_bound = Fraction(1, 10 ** terms)
        for n_bits in (2, 4, 8):
            for _ in range(40):
                a = sample_message(stream, n_bits)
                b = sample_message(stream, n_bits)
                partial = sum(
                    (series_term(a, b, k) for k in range(1, terms + 1)), Fraction(0)
                )
                exact = message_distance(a, b)
                assert partial <= exact <= partial + tail_bound

    def test_series_term_zero_iff_blocks_equal(self):
        a = msg(4, (3, 5, 5), (1,))
        b = msg(4, (3, 9, 5), (2,))
        for k in range(1, 10):
            term = series_term(a, b, k)
            assert (term == 0) == (a.block(k - 1) == b.block(k - 1))

    def test_symmetry(self):
        stream = SplitMix64(13)
        for _ in range(50):
            a = sample_message(stream, 4)
            b = sample_message(stream, 4)
            assert message_distance(a, b) == message_distance(b, a)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            message_distance(msg(2), msg(4))


class TestDistance:
    def test_zero_on_equal_points(self):
        X = point(2, 1, prefix=(2,))
        assert distance(X, X) == 0

    def test_sum_of_parts_example(self):
        X = point(2, 0b01, prefix=(0b10,))
        Y = point(2, 0b11, prefix=(0b00,))
        assert distance(X, Y) == Fraction(29, 20)  # 1 + 0.45

    def test_symmetry_random(self):
        stream = SplitMix64(101)
        for _ in range(50):
            X = sample_point(stream, 4)
            Y = sample_point(stream, 4)
            assert distance(X, Y) == distance(Y, X)

    def test_integer_part_is_state_distance(self):
        stream = SplitMix64(102)
        for _ in range(50):
            X = sample_point(stream, 4)
            Y = sample_point(stream, 4)
            if message_distance(X.message, Y.message) < 1:
                d = distance(X, Y)
                assert d.numerator // d.denominator == state_distance(X.state, Y.state)


class TestMetricAxioms:
    @pytest.mark.parametrize("n_bits", [2, 4, 8])
    def test_axioms_on_random_triples(self, n_bits):
        stream = SplitMix64(n_bits * 1000 + 7)
        for _ in range(300):
            X = sample_point(stream, n_bits)
            Y = sample_point(stream, n_bits)
            Z = sample_point(stream, n_bits)
            dxy = distance(X, Y)
            assert (dxy == 0) == (X == Y)
            assert dxy == distance(Y, X)
            assert dxy <= distance(X, Z) + distance(Z, Y)

    @pytest.mark.parametrize("n_bits", [2, 4, 8])
    def test_range_bounds(self, n_bits):
        stream = SplitMix64(n_bits)
        for _ in range(100):
            X = sample_point(stream, n_bits)
            Y = sample_point(stream, n_bits)
            assert 0 <= state_distance(X.state, Y.state) <= n_bits
            dm = message_distance(X.message, Y.message)
            assert 0 <= dm <= 1
            assert distance(X, Y) <= n_bits + 1

    def test_prefix_bounds(self):
        stream = SplitMix64(55)
        for n_bits in (2, 4, 8):
            for _ in range(60):
                a = sample_message(stream, n_bits)
                b = sample_message(stream, n_bits)
                if a == b:
                    continue
                j = first_difference_index(a, b)
                dm = message_distance(a, b)
                assert dm <= Fraction(1, 10 ** j)
                assert dm >= Fraction(9, n_bits) * Fraction(1, 10 ** (j + 1))

    def test_shared_prefix_bound_constructed(self):
        # force agreement on the first k blocks, then verify the 10^-k bound
        stream = SplitMix64(56)
        for k in (1, 2, 3):
            for _ in range(30):
                shared = tuple(stream.next_below(16) for _ in range(k))
                a = msg(4, shared + (stream.next_below(16),), (stream.next_below(16),))
                b = msg(4, shared + (stream.next_below(16),), (stream.next_below(16),))
                assert message_distance(a, b) <= Fraction(1, 10 ** k)


class TestBowenDistance:
    def setup_method(self):
        self.cfg = SystemConfig(make_cipher("identity", 2))

    def test_window_one_is_plain_distance(self):
        X = point(2, 1, prefix=(3,))
        Y = point(2, 2, prefix=(0,))
        assert bowen_distance(self.cfg, X, Y, 1) == distance(X, Y)

    def test_two_step_example(self):
        X = point(2, 0)
        Y = point(2, 0, prefix=(0b11,))
        assert bowen_distance(self.cfg, X, Y, 1) == Fraction(9, 10)
        assert bowen_distance(self.cfg, X, Y, 2) == 2

    def test_nondecreasing_in_window(self):
        cfg = SystemConfig(make_cipher("permutation", 4, seed=8))
        stream = SplitMix64(42)
        for _ in range(20):
            X = sample_point(stream, 4)
            Y = sample_point(stream, 4)
            values = [bowen_distance(cfg, X, Y, n) for n in range(1, 6)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            bowen_distance(self.cfg, point(2, 0), point(2, 1), 0)

    def test_window_outside_the_orbit_refused(self, monkeypatch):
        cfg = SystemConfig(make_cipher("permutation", 4, seed=1))
        X, Y = point(4, 3, (5, 9), (1, 2, 7)), point(4, 12, (0,), (6,))
        assert max_orbit_distance(cfg, X, Y, 0, 6) == reference_bowen(cfg, X, Y, 6)

        def no_rows(*args):
            raise AssertionError("rows built for a refused window")

        monkeypatch.setattr(metric, "orbit_rows", no_rows)
        # a negative first would count from the end, and first >= stop leaves no step
        for first, stop in ((-1, 6), (6, 6), (7, 6), (0, 0), (-2, -1)):
            expected = f"^orbit window needs 0 <= first < stop, got first = {first} and stop = {stop}$"
            with pytest.raises(ValueError, match=expected):
                max_orbit_distance(cfg, X, Y, first, stop)


def reference_bowen(cfg, X, Y, n):
    """max of oracle distances along step-chained orbits, indices 0..n-1."""
    best = oracle_distance(X, Y)
    for _ in range(n - 1):
        X, Y = step(cfg, X), step(cfg, Y)
        best = max(best, oracle_distance(X, Y))
    return best


def random_general_point(stream, n_bits, max_prefix, max_cycle):
    size = 1 << n_bits
    prefix = tuple(stream.next_below(size) for _ in range(stream.next_below(max_prefix + 1)))
    cycle = tuple(stream.next_below(size) for _ in range(1 + stream.next_below(max_cycle)))
    return point(n_bits, stream.next_below(size), prefix, cycle)


class TestBowenAgainstChainedSteps:
    """Integer orbit distances against the step-by-step Fraction path."""

    def configs(self, stream, n_bits):
        size = 1 << n_bits
        cipher = make_cipher("permutation", n_bits, seed=stream.next_u64())
        return [
            SystemConfig(cipher),
            SystemConfig(cipher, convention=CONVENTION_PAPER_COMPLEMENT),
            SystemConfig(cipher, inner_function=identity_table(n_bits), convention=CONVENTION_PAPER_COMPLEMENT),
            SystemConfig(
                cipher,
                inner_function=tuple(stream.next_below(size) for _ in range(size)),
                convention=CONVENTION_PAPER_COMPLEMENT,
            ),
        ]

    def test_random_general_messages_both_paths(self, monkeypatch):
        paths = spy_on_dtype(monkeypatch)
        stream = SplitMix64(2718)
        for n_bits in (1, 3, 5, 8):
            for cfg in self.configs(stream, n_bits):
                for _ in range(12):
                    X = random_general_point(stream, n_bits, 5, 7)
                    Y = random_general_point(stream, n_bits, 5, 7)
                    for n in (1, 2, 1 + stream.next_below(25)):
                        assert bowen_distance(cfg, X, Y, n) == reference_bowen(cfg, X, Y, n)
        # cycles of lengths 7 and 11: joint period 77, far past int64
        cfg = self.configs(stream, 4)[3]
        X = point(4, 3, (1, 2), tuple(range(7)))
        Y = point(4, 9, (), tuple(range(2, 13)))
        assert bowen_distance(cfg, X, Y, 90) == reference_bowen(cfg, X, Y, 90)
        assert paths[-1] is object
        assert {np.int64, object} <= set(paths)

    def test_equal_points_and_merged_orbits(self):
        cfg = SystemConfig(make_cipher("permutation", 3, seed=4))
        X = point(3, 5, (1, 6), (2, 3))
        assert bowen_distance(cfg, X, X, 7) == 0
        Y = point(3, 2, (7,), (0,))
        assert bowen_distance(cfg, X, Y, 1) == distance(X, Y)

    def test_block_size_mismatch_rejected(self):
        cfg = SystemConfig(make_cipher("identity", 2))
        with pytest.raises(ValueError):
            bowen_distance(cfg, point(2, 0), point(3, 0), 2)


class TestOrbitRows:
    """The column walk against the per-point walk of the test-local oracle."""

    configs = TestBowenAgainstChainedSteps.configs

    def test_rows_equal_the_point_walk(self):
        stream = SplitMix64(1618)
        for n_bits in (1, 3, 5, 8):
            for cfg in self.configs(stream, n_bits):
                for count in (0, 1, 2, 5):
                    points = [random_general_point(stream, n_bits, 4, 6) for _ in range(count)]
                    for n in (1, 2, 1 + stream.next_below(20)):
                        rows = orbit_rows(cfg, points, n)
                        matrix, prefix_len, period = walked_rows(cfg, points, n)
                        assert rows.matrix.dtype == np.int64
                        assert np.array_equal(rows.matrix, matrix)
                        scale = orbit_scale(n_bits, prefix_len, period)
                        assert rows.dtype is metric.exact_dtype((n_bits + 1) * scale)
                        weights = oracle_weights(prefix_len, period) if rows.dtype is np.int64 else ()
                        assert (rows.n, rows.scale, rows.weights, rows.prefix_len, rows.period) == (
                            n, scale, weights, prefix_len, period
                        )

    def test_empty_list(self):
        cfg = SystemConfig(make_cipher("permutation", 3, seed=2))
        rows = orbit_rows(cfg, [], 4)
        # no message: L = 0 and P = 1, so 4 states and 4 blocks per row
        assert rows.matrix.shape == (0, 8)
        assert rows.sums([], []).shape == (0, 0, 4)
        assert (rows.scale, rows.prefix_len, rows.period) == (3 * 9, 0, 1)

    def test_block_size_mismatch_refused(self):
        cfg = SystemConfig(make_cipher("identity", 2))
        for points in ([point(3, 0)], [point(2, 0), point(3, 1)], [point(2, 1), point(1, 0)]):
            with pytest.raises(ValueError, match="^point and config block sizes differ$"):
                orbit_rows(cfg, points, 3)

    def test_window_must_be_positive(self):
        cfg = SystemConfig(make_cipher("identity", 2))
        with pytest.raises(ValueError, match="^orbit rows need n >= 1$"):
            orbit_rows(cfg, [point(2, 0)], 0)


def weight_column_sums(n_bits, rows, xored):
    """d * D at steps 0..n-1 of one XOR of two rows, by the weight-column formula written out.

    D = N * 10^L * R with R = 10^P - 1; the state term is H_t * D and block
    t+c weighs 9 * 10^(L-1-c) * R for c < L and 9 * 10^(L+P-1-c) after.
    """
    n, prefix_len, period = rows.n, rows.prefix_len, rows.period
    scale = n_bits * 10**prefix_len * (10**period - 1)
    weights = oracle_weights(prefix_len, period)
    h = [int(v).bit_count() for v in xored]
    return [h[t] * scale + sum(w * h[n + t + c] for c, w in enumerate(weights)) for t in range(n)]


def general_family(stream, n_bits, prefix_len, period):
    """Points whose longest prefix is L and joint period P: one with both, others with divisors of them."""
    size = 1 << n_bits
    divisors = [d for d in range(1, period + 1) if period % d == 0]

    def blocks(count):
        return tuple(stream.next_below(size) for _ in range(count))

    family = [point(n_bits, stream.next_below(size), blocks(prefix_len), blocks(period))]
    for _ in range(4):
        cycle = blocks(divisors[stream.next_below(len(divisors))])
        family.append(point(n_bits, stream.next_below(size), blocks(stream.next_below(prefix_len + 1)), cycle))
    family.append(SystemPoint(stream.next_below(size), family[0].message))  # a pair with equal messages
    return family


class TestRolledSums:
    """The Python-int sums, carried from step to step, against the weight-column formula."""

    def check(self, cfg, family, n, expected_path=object):
        rows = orbit_rows(cfg, family, n)
        assert rows.dtype is expected_path
        k = len(family)
        sums = rows.sums(range(k), range(k))
        assert sums.shape == (k, k, n)
        for i in range(k):
            for j in range(k):
                assert sums[i, j].tolist() == weight_column_sums(cfg.n_bits, rows, rows.matrix[i] ^ rows.matrix[j])
        # one XOR, or any leading shape of them, gives the same sums
        assert rows.scaled(rows.matrix[0] ^ rows.matrix[1]).tolist() == sums[0, 1].tolist()
        xored = (rows.matrix[:, None] ^ rows.matrix).reshape(k, 1, k, -1)
        assert rows.scaled(xored).reshape(k, k, n).tolist() == sums.tolist()
        return rows

    @pytest.mark.parametrize("prefix_len,period", [(3, 14), (0, 17), (6, 77), (1, 130), (0, 301), (40, 257)])
    def test_long_scales(self, prefix_len, period):
        stream = SplitMix64(prefix_len * 1000 + period)
        cipher = make_cipher("permutation", 12, seed=stream.next_u64())
        for cfg in (SystemConfig(cipher), SystemConfig(cipher, convention=CONVENTION_PAPER_COMPLEMENT)):
            family = general_family(stream, 12, prefix_len, period)
            for n in (1, 2, 9):
                rows = self.check(cfg, family, n)
                assert (rows.prefix_len, rows.period) == (prefix_len, period)

    def test_every_scale_on_the_python_int_path(self, monkeypatch):
        # short scales forced onto Python ints, down to L = 0 and P = 1, agree with int64 and the formula
        stream = SplitMix64(4242)
        cfg = SystemConfig(make_cipher("permutation", 4, seed=stream.next_u64()))
        for prefix_len in (0, 1, 3):
            for period in (1, 2, 6):
                family = general_family(stream, 4, prefix_len, period)
                for n in (1, 5):
                    int64_sums = self.check(cfg, family, n, np.int64).sums([0, 2], [1, 3, 5])
                    monkeypatch.setattr(metric, "exact_dtype", lambda bound: object)
                    rolled = self.check(cfg, family, n).sums([0, 2], [1, 3, 5])
                    monkeypatch.undo()
                    assert rolled.tolist() == int64_sums.tolist()

    @pytest.mark.parametrize("n_bits", range(1, 17))
    def test_int64_headroom_at_the_dtype_boundary(self, n_bits, monkeypatch):
        # the widest L+P that exact_dtype still sends to int64, every Hamming digit N: each sum is (N+1) * D
        def int64_scale(prefix_len, period):
            return metric.exact_dtype((n_bits + 1) * orbit_scale(n_bits, prefix_len, period)) is np.int64

        width = max(w for w in range(1, 40) if int64_scale(0, w))
        assert not any(int64_scale(p, width + 1 - p) for p in range(width + 1))
        cfg, n = SystemConfig(make_cipher("identity", n_bits)), 3
        for prefix_len in range(width):  # L = 0 has the least headroom, so every split of the width is int64
            period = width - prefix_len
            xored = np.full((2, 1, 2 * n - 1 + width), (1 << n_bits) - 1, dtype=np.int64)
            rows = OrbitRows.walk(cfg, np.zeros((0, 2 * n - 1 + width), np.int64), n, prefix_len, period)
            assert rows.dtype is np.int64 and len(rows.weights) == width
            int64_sums = rows.scaled(xored)
            monkeypatch.setattr(metric, "exact_dtype", lambda bound: object)
            forced = OrbitRows.walk(cfg, np.zeros((0, 2 * n - 1 + width), np.int64), n, prefix_len, period)
            monkeypatch.undo()
            assert forced.dtype is object and forced.weights == ()
            expected = weight_column_sums(n_bits, rows, xored[0, 0])
            assert expected == [(n_bits + 1) * rows.scale] * n
            assert int64_sums.tolist() == forced.scaled(xored).tolist() == [[expected]] * 2

    def test_windows_past_step_zero(self):
        # the maximum over first <= t < stop reads the carried terms alone when first > 0
        stream = SplitMix64(909)
        cipher = make_cipher("permutation", 8, seed=stream.next_u64())
        cfg = SystemConfig(cipher, convention=CONVENTION_PAPER_COMPLEMENT)
        for prefix_len, period in ((2, 23), (0, 45)):
            X, Y = general_family(stream, 8, prefix_len, period)[:2]
            rows = orbit_rows(cfg, (X, Y), 30)
            assert rows.dtype is object
            expected = weight_column_sums(8, rows, rows.matrix[0] ^ rows.matrix[1])
            for first, stop in ((1, 2), (1, 30), (7, 19), (29, 30)):
                got = max_orbit_distance(cfg, X, Y, first, stop)
                assert got == Fraction(max(expected[first:stop]), rows.scale)
                assert got == max(oracle_at(cfg, X, Y, t) for t in range(first, stop))


def oracle_at(cfg, X, Y, t):
    """The oracle distance of the two orbits at step t, along step-chained points."""
    for _ in range(t):
        X, Y = step(cfg, X), step(cfg, Y)
    return oracle_distance(X, Y)


class TestDistanceAgainstGeometricSeries:
    """The integer-scale distance against the test-local geometric-series oracle."""

    def test_random_general_messages_along_orbits(self):
        stream = SplitMix64(3141)
        for n_bits in (1, 2, 5, 8, 16):
            cipher = make_cipher("permutation", n_bits, seed=stream.next_u64())
            for convention in (CONVENTION_XOR, CONVENTION_PAPER_COMPLEMENT):
                cfg = SystemConfig(cipher, convention=convention)
                for _ in range(15):
                    X = random_general_point(stream, n_bits, 5, 7)
                    Y = random_general_point(stream, n_bits, 5, 7)
                    for t in (0, 1, 1 + stream.next_below(12)):
                        A, B = iterate(cfg, X, t)[-1], iterate(cfg, Y, t)[-1]
                        assert message_distance(A.message, B.message) == oracle_message_distance(
                            A.message, B.message
                        )
                        assert distance(A, B) == oracle_distance(A, B)

    def test_one_row_scores_steps_zero_and_n(self):
        stream = SplitMix64(2718)
        for n_bits in range(1, 17):
            cfg = SystemConfig(make_cipher("permutation", n_bits, seed=stream.next_u64()))
            for _ in range(8):
                X = random_general_point(stream, n_bits, 5, 7)
                Y = random_general_point(stream, n_bits, 5, 7)
                n = 1 + stream.next_below(12)
                A, B = iterate(cfg, X, n)[-1], iterate(cfg, Y, n)[-1]
                expected = [oracle_distance(X, Y), oracle_distance(A, B)]
                at = [(0, X.state, Y.state), (n, A.state, B.state)]
                for order in (1, -1):  # the row reaches the largest step wherever it stands
                    *gaps, scale = metric.scaled_distance(X.message, Y.message, *at[::order])
                    assert [Fraction(gap, scale) for gap in gaps] == expected[::order]

    def test_joint_period_77_at_16_bits(self):
        stream = SplitMix64(77)
        for _ in range(10):
            X = point(16, stream.next_below(1 << 16), (stream.next_below(1 << 16),),
                      tuple(stream.next_below(1 << 16) for _ in range(7)))
            Y = point(16, stream.next_below(1 << 16), (),
                      tuple(stream.next_below(1 << 16) for _ in range(11)))
            assert lcm(len(X.message.cycle), len(Y.message.cycle)) == 77
            assert message_distance(X.message, Y.message) == oracle_message_distance(X.message, Y.message)
            assert distance(X, Y) == oracle_distance(X, Y)


class TestLongScales:
    """Long L+P, all on the Python-int path, against the weight-column formula and the geometric-series oracle."""

    @pytest.mark.parametrize("prefix_len,period", [(0, 311), (37, 420), (120, 899), (512, 1489)])
    def test_sweep_against_the_oracles(self, prefix_len, period):
        stream = SplitMix64(prefix_len * 10_000 + period)
        for n_bits, convention in ((1, CONVENTION_XOR), (7, CONVENTION_PAPER_COMPLEMENT), (16, CONVENTION_XOR)):
            cfg = SystemConfig(make_cipher("permutation", n_bits, seed=stream.next_u64()), convention=convention)
            family = general_family(stream, n_bits, prefix_len, period)
            X, Y = family[0], family[1 + stream.next_below(len(family) - 1)]
            n = 1 + stream.next_below(5)
            rows = orbit_rows(cfg, (X, Y), n + 1)
            # at 1 bit, the last prefix blocks often fold into the cycle
            assert rows.dtype is object and rows.period == period and rows.prefix_len <= prefix_len
            expected = weight_column_sums(n_bits, rows, rows.matrix[0] ^ rows.matrix[1])
            A, B = iterate(cfg, X, n)[-1], iterate(cfg, Y, n)[-1]
            at = (0, X.state, Y.state), (n, A.state, B.state)
            assert metric.scaled_distance(X.message, Y.message, *at) == [expected[0], expected[n], rows.scale]
            d = distance(X, Y)
            assert d == oracle_distance(X, Y) == Fraction(expected[0], rows.scale) > 0
            assert distance(A, B) == oracle_distance(A, B) == Fraction(expected[n], rows.scale)
            # membership is strict: Y lies outside the ball of radius d and inside any larger one
            step_size = Fraction(1, rows.scale)
            assert [in_ball(Ball(X, r), Y) for r in (d - step_size, d, d + step_size)] == [False, False, True]
            assert max_orbit_distance(cfg, X, Y, 0, n + 1) == Fraction(max(expected), rows.scale)
            assert max_orbit_distance(cfg, X, Y, n, n + 1) == distance(A, B)

    def test_at_the_cap(self):
        # 1-bit coprime cycles of 127 and 129 blocks: L+P = 16,383, the widest scale below SCALE_GUARD
        stream = SplitMix64(16383)
        cfg = SystemConfig(make_cipher("permutation", 1, seed=stream.next_u64()))
        X = point(1, 0, (), tuple(stream.next_below(2) for _ in range(127)))
        Y = point(1, 1, (), tuple(stream.next_below(2) for _ in range(129)))
        assert (len(X.message.cycle), len(Y.message.cycle)) == (127, 129) and 127 * 129 <= SCALE_GUARD
        started = time.perf_counter()
        d = distance(X, Y)
        elapsed = time.perf_counter() - started
        assert d == oracle_distance(X, Y)
        assert elapsed < 1.0  # digits, not L+P weights of up to L+P digits each, which take seconds
        assert max_orbit_distance(cfg, X, Y, 0, 2) == max(oracle_at(cfg, X, Y, t) for t in range(2))


class TestOrbitScale:
    def test_one_shared_immutable_result(self):
        for n_bits, prefix_len, period in ((1, 0, 1), (4, 2, 3), (16, 3, 12)):
            scale = orbit_scale(n_bits, prefix_len, period)
            assert orbit_scale(n_bits, prefix_len, period) is orbit_scale(n_bits, prefix_len, period)
            assert type(scale) is int and scale == n_bits * 10**prefix_len * (10**period - 1)

    def test_int64_weights_carry_the_series_terms(self):
        for n_bits, prefix_len, period in ((1, 0, 1), (4, 2, 3), (16, 3, 12)):
            # zeros, then a cycle that ends in its only 1: canonical, with this L and P
            X = point(n_bits, 0, (0,) * prefix_len, (0,) * (period - 1) + (1,))
            assert (len(X.message.prefix), len(X.message.cycle)) == (prefix_len, period)
            rows = orbit_rows(SystemConfig(make_cipher("identity", n_bits)), [X], 1)
            assert rows.dtype is np.int64 and rows.scale == orbit_scale(n_bits, prefix_len, period)
            assert type(rows.weights) is tuple and len(rows.weights) == prefix_len + period
            for c, weight in enumerate(rows.weights):
                # column c carries block c's series term; past the prefix, also blocks c + P, c + 2P, ...
                term = Fraction(9, n_bits * 10 ** (c + 1))
                if c >= prefix_len:
                    term *= Fraction(10**period, 10**period - 1)
                assert type(weight) is int and Fraction(weight, rows.scale) == term

    def test_refused_past_the_cap_before_any_weight(self, monkeypatch):
        for prefix_len, period in ((SCALE_GUARD, 1), (0, SCALE_GUARD + 1), (10**9, 10**9)):
            expected = (
                f"longest prefix L = {prefix_len} and joint period P = {period} "
                f"needs L\\+P = {prefix_len + period} weight columns, above the cap of {SCALE_GUARD}"
            )
            with pytest.raises(ValueError, match=expected):
                orbit_scale(1, prefix_len, period)
        # the cap itself is admitted, at its own value and at a small one
        for prefix_len, period in ((SCALE_GUARD - 1, 1), (0, SCALE_GUARD)):
            assert orbit_scale(1, prefix_len, period) == 10**prefix_len * (10**period - 1)
        monkeypatch.setattr(metric, "SCALE_GUARD", 8)
        assert orbit_scale(3, 5, 3) == 3 * 10**5 * 999
        with pytest.raises(ValueError, match="needs L\\+P = 9 weight columns, above the cap of 8"):
            orbit_scale(3, 6, 3)


class TestBalls:
    def test_center_is_member(self):
        X = point(2, 1)
        assert in_ball(Ball(X, Fraction(1, 1000)), X)

    def test_differing_states_outside_half_ball(self):
        X = point(2, 0)
        Y = point(2, 1)
        assert not in_ball(Ball(X, Fraction(1, 2)), Y)

    def test_close_messages_inside_unit_ball(self):
        X = point(2, 1, prefix=(0b10,))
        Y = point(2, 1, prefix=(0b00,))
        assert in_ball(Ball(X, Fraction(1)), Y)  # 0.45 < 1

    def test_membership_is_strict(self):
        X = point(2, 0, prefix=(0b10,))
        Y = point(2, 0)
        assert not in_ball(Ball(X, Fraction(9, 20)), Y)

    def test_radius_must_be_positive(self):
        for radius in (Fraction(0), Fraction(-1, 2), 0, "-1/2", -0.5):
            with pytest.raises(ValueError, match="^ball radius must be positive$"):
                Ball(point(2, 0), radius)

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (1, 10**9), (7, 9)])
    def test_numpy_radius_read_as_python_ints(self, p, q):
        # D = 4 * 10^19 * 9 passes 2^63: a numpy numerator overflows against it
        X = point(4, 5, prefix=(1,) * 19)
        others = [X, point(4, 5, prefix=(1,) * 18 + (2,)), point(4, 4, prefix=(1,) * 19), point(4, 5)]
        same = Ball(X, Fraction(p, q))
        for radius in numpy_rationals(p, q):
            ball = Ball(X, radius)
            assert ball == same and has_int_parts(ball.radius)
            assert [in_ball(ball, Y) for Y in others] == [in_ball(same, Y) for Y in others]

    @pytest.mark.parametrize("radius", [Fraction(1, 2), 1, "1/2", 0.5])
    def test_radius_stored_as_a_fraction(self, radius):
        ball = Ball(point(2, 0), radius)
        assert type(ball.radius) is Fraction and ball.radius == Fraction(radius)
        with pytest.raises(TypeError):
            Ball(point(2, 0), None)


class TestRendering:
    def test_fraction_str(self):
        assert fraction_str(Fraction(9, 20)) == "9/20"
        assert fraction_str(Fraction(4, 2)) == "2"
        assert fraction_str(0) == "0"

    def test_decimal_str(self):
        assert decimal_str(Fraction(9, 20), 4) == "0.4500"
        assert decimal_str(Fraction(29, 20), 2) == "1.45"
        assert decimal_str(Fraction(1, 3), 5) == "0.33333"
        assert decimal_str(Fraction(7), 0) == "7"

    def test_decimal_str_rejects_negative_digits(self):
        with pytest.raises(ValueError):
            decimal_str(Fraction(1), -1)
