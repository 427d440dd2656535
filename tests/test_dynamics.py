"""State space, canonical message sequences, and the one-step map."""

import re
from itertools import product
from operator import xor

import numpy as np
import pytest

from cbcdyn.chaoslab import steered_merge_pair
from cbcdyn.cipher import CIPHER_KINDS, BlockVector, SplitMix64, _invert, cipher_from_table, decrypt, encrypt, make_cipher
from cbcdyn.dynamics import (
    CONVENTION_PAPER_COMPLEMENT,
    _primitive_period,
    CONVENTION_XOR,
    MessageSequence,
    SystemConfig,
    SystemPoint,
    combine_rule,
    identity_table,
    iterate,
    negation_table,
    next_state_value,
    shift,
    shift_by,
    shift_parts,
    splice,
    state_after,
    state_values,
    step,
)


def msg(n_bits, prefix=(), cycle=(0,)):
    return MessageSequence.from_values(n_bits, prefix, cycle)


def point(n_bits, state, prefix=(), cycle=(0,)):
    return SystemPoint(state, msg(n_bits, prefix, cycle))


def chained_iterate(cfg, X, n):
    """Reference trajectory: n applications of ``step``, one point at a time."""
    trajectory = [X]
    for _ in range(n):
        trajectory.append(step(cfg, trajectory[-1]))
    return trajectory


def random_point(stream, n_bits, max_prefix=6, max_cycle=7):
    size = 1 << n_bits
    return point(
        n_bits,
        stream.next_below(size),
        prefix=tuple(stream.next_below(size) for _ in range(stream.next_below(max_prefix + 1))),
        cycle=tuple(stream.next_below(size) for _ in range(1 + stream.next_below(max_cycle))),
    )


def general_configs(stream, n_bits):
    """Both conventions; negation, identity and random inner functions."""
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


class TestCanonicalForm:
    def test_cycle_reduced_to_primitive(self):
        m = msg(2, (), (1, 2, 1, 2))
        assert m.cycle == (1, 2)

    def test_primitive_period_against_its_definition(self):
        # every cycle of length 1..8 on 3 symbols, and of length 1..6 on the 4 blocks of N = 2
        # (all-distinct cycles up to length 4): the least d | n with cycle == cycle[:d] * (n // d)
        for symbols, longest in ((3, 8), (4, 6)):
            for n in range(1, longest + 1):
                for cycle in product(range(symbols), repeat=n):
                    expected = min(d for d in range(1, n + 1) if n % d == 0 and cycle == cycle[:d] * (n // d))
                    assert _primitive_period(cycle) == expected, cycle

    def test_prefix_absorbed_into_cycle(self):
        # 3 1 2 1 2 ... equals prefix (3,) cycle (1,2); appending a cycle-end
        # block to the prefix must collapse back to the same form.
        a = msg(2, (3, 1, 2), (1, 2))
        b = msg(2, (3,), (1, 2))
        assert a == b

    def test_constant_sequence_collapses(self):
        assert msg(2, (0, 0, 0), (0,)) == msg(2, (), (0,))

    def test_equality_is_sequence_equality(self):
        # same infinite sequence, different raw representations
        a = msg(2, (1,), (2, 3))
        b = msg(2, (1, 2), (3, 2))
        assert a == b and hash(a) == hash(b)

    def test_distinct_sequences_differ(self):
        assert msg(2, (), (1, 2)) != msg(2, (), (2, 1))

    def test_empty_cycle_rejected(self):
        with pytest.raises(ValueError, match="^cycle must be nonempty$"):
            MessageSequence(2, (1,), ())
        with pytest.raises(ValueError, match="^cycle must be nonempty$"):
            MessageSequence.from_json({"prefix": ["01"], "cycle": []})

    def test_mixed_widths_rejected(self):
        # one N per message holds by construction; JSON bit strings can still disagree
        for data in ({"prefix": ["00"], "cycle": ["0000"]}, {"prefix": [], "cycle": ["0", "01"]}):
            with pytest.raises(ValueError, match="^all blocks of a message must share n_bits$"):
                MessageSequence.from_json(data)

    def test_block_indexing(self):
        m = msg(2, (1, 2), (3,))
        assert [m.block(i).value for i in range(6)] == [1, 2, 3, 3, 3, 3]


class TestInitialAndShift:
    def test_initial_takes_prefix_head(self):
        m = MessageSequence(2, (0b01, 0b10), (0b00,))
        assert m.block(0).bits == "01"
        assert m.head(1) == (0b01,)

    def test_initial_falls_back_to_cycle(self):
        m = MessageSequence(2, (), (0b11,))
        assert m.block(0).bits == "11"
        assert m.head(1) == (0b11,)

    def test_shift_drops_prefix_block(self):
        m = msg(2, (1, 2), (0,))
        assert shift(m) == msg(2, (2,), (0,))

    def test_shift_rotates_cycle(self):
        m = msg(2, (), (1, 2))
        assert shift(m) == msg(2, (), (2, 1))

    def test_initial_of_shift_is_second_block(self):
        m = msg(2, (1, 2, 3), (0,))
        assert shift(m).block(0) == m.block(1)

    def test_shift_then_initial_enumerates_blocks(self):
        m = msg(4, (7, 2), (9, 4, 11))
        current = m
        for i in range(12):
            assert current.head(1) == (m.block(i).value,)
            current = shift(current)


class TestShiftBy:
    def test_matches_repeated_shift(self):
        stream = SplitMix64(31)
        for _ in range(40):
            m = random_point(stream, 3).message
            expected = m
            for t in range(20):
                assert shift_by(m, t) == expected
                expected = shift(expected)

    def test_results_are_canonical(self):
        # re-canonicalising leaves every field as it is
        m = msg(2, (1, 2, 3), (3, 1, 2))
        for t in range(10):
            shifted = shift_by(m, t)
            assert MessageSequence(shifted.n_bits, shifted.prefix, shifted.cycle) == shifted

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            shift_by(msg(2), -1)

    def test_block_values_read_by_index(self):
        stream = SplitMix64(32)
        for _ in range(40):
            m = random_point(stream, 4).message
            assert m.head(25) == tuple(m.block(i).value for i in range(25))
            assert m.head(0) == ()


def folded_canonical_form(prefix, cycle):
    """The canonical (prefix, cycle) of raw block values: primitive cycle, then fold."""
    n = len(cycle)
    cycle = next(cycle[:d] for d in range(1, n + 1) if n % d == 0 and cycle == cycle[:d] * (n // d))
    prefix = list(prefix)
    while prefix and prefix[-1] == cycle[-1]:
        prefix.pop()
        cycle = (cycle[-1],) + cycle[:-1]
    return tuple(prefix), cycle


def raw_message_parts(stream, n_bits):
    """Raw prefix and cycle values that are often non-primitive and end in foldable blocks."""
    size = 1 << n_bits
    base = tuple(stream.next_below(size) for _ in range(1 + stream.next_below(4)))
    cycle = base * (1 + stream.next_below(3))
    head = tuple(stream.next_below(size) for _ in range(stream.next_below(4)))
    # a tail copied from the cycle's end folds into the cycle
    tail = cycle[len(cycle) - stream.next_below(len(cycle) + 1):]
    return head + tail, cycle


class TestSplice:
    """``splice`` and ``shift_by`` against the checking constructor on the same blocks."""

    @staticmethod
    def head_for(stream, cycle, n_bits):
        """0-4 blocks, often ending in the cycle's last blocks, so part or all of the head folds."""
        folded = stream.next_below(5)
        suffix = (cycle * 5)[len(cycle) * 5 - folded :] if folded else ()
        fresh = tuple(stream.next_below(1 << n_bits) for _ in range(stream.next_below(5 - folded)))
        return fresh + suffix

    def test_matches_the_constructor(self):
        stream = SplitMix64(2701)
        folded = whole = 0
        for n_bits in range(1, 17):
            for _ in range(12):
                m = random_point(stream, n_bits).message
                for t in range(len(m.prefix) + 2 * len(m.cycle) + 1):
                    p, c = shift_parts(m, t)
                    head = self.head_for(stream, c, n_bits)
                    expected = MessageSequence(n_bits, head + p, c)
                    spliced = splice(head, m, t)
                    assert spliced == expected and hash(spliced) == hash(expected)
                    assert (spliced.prefix, spliced.cycle) == folded_canonical_form(head + p, c)
                    assert type(spliced.prefix) is tuple and type(spliced.cycle) is tuple
                    shifted, checked = shift_by(m, t), MessageSequence(n_bits, p, c)
                    assert shifted == checked and hash(shifted) == hash(checked)
                    folded += len(spliced.prefix) < len(head + p)
                    whole += bool(head) and len(spliced.prefix) == 0
        assert folded > 100 and whole > 20

    def test_folded_heads_are_rotations(self):
        m = msg(2, (3,), (1, 2))
        assert splice((1, 2), m, 1) == msg(2, (), (1, 2))  # the head folds whole
        assert splice((2, 1, 2), m, 1) == msg(2, (), (2, 1))  # ... past a full period, rotated
        assert splice((0, 2), m, 1) == msg(2, (0,), (2, 1))  # part of it folds
        assert splice((3, 0), m, 0) == msg(2, (3, 0, 3), (1, 2))  # the tail keeps its prefix


NON_INTEGER_BLOCKS = {"float": 1.5, "whole-float": 2.0, "bool": True, "str": "3"}


class TestIntViews:
    """A message is N and two tuples of int block values; ``head`` and ``block`` read them."""

    def test_canonical_form_matches_the_oracle(self):
        stream = SplitMix64(77)
        folded = non_primitive = 0
        for _ in range(400):
            n_bits = 1 + stream.next_below(6)
            prefix, cycle = raw_message_parts(stream, n_bits)
            m = MessageSequence(n_bits, prefix, cycle)
            assert (m.n_bits, m.prefix, m.cycle) == (n_bits, *folded_canonical_form(prefix, cycle))
            assert type(m.prefix) is tuple and type(m.cycle) is tuple
            assert all(type(v) is int for v in m.prefix + m.cycle)
            folded += len(m.prefix) < len(prefix)
            non_primitive += len(m.cycle) < len(cycle)
        assert folded > 50 and non_primitive > 50

    def test_eq_and_hash_follow_n_bits_prefix_cycle(self):
        m = MessageSequence(3, (1, 2), (5, 6, 5, 6))
        twin = MessageSequence(3, [1, 2, 5, 6], [5, 6])
        assert m == twin and hash(m) == hash(twin)
        assert (m.n_bits, m.prefix, m.cycle) == (3, (1, 2), (5, 6))
        assert repr(m) == "MessageSequence(n_bits=3, prefix=(1, 2), cycle=(5, 6))"
        assert m.to_json() == {"prefix": ["001", "010"], "cycle": ["101", "110"]}
        # the same values at another block size are another sequence
        wider = MessageSequence(4, (1, 2), (5, 6))
        assert wider != m and wider.to_json() == {"prefix": ["0001", "0010"], "cycle": ["0101", "0110"]}
        assert MessageSequence(3, (1,), (2,)) != MessageSequence(3, (), (1, 2))
        assert MessageSequence.from_values(3, (1, 2), (5, 6)) == m
        assert MessageSequence(3) == MessageSequence(3, (0, 0), (0,))

    def test_head_reads_blocks_by_index(self):
        stream = SplitMix64(78)
        for _ in range(40):
            m = random_point(stream, 4).message
            boundary = len(m.prefix) + len(m.cycle)
            for count in range(2 * boundary + 2):
                assert m.head(count) == tuple(m.block(i).value for i in range(count))
            assert all(m.block(i).n_bits == 4 for i in range(boundary + 1))
        assert msg(2, (1, 2), (3, 0)).head(7) == (1, 2, 3, 0, 3, 0, 3)
        assert msg(2, (1, 2), (3, 0)).head(0) == ()

    def test_negative_count_rejected(self):
        m = msg(2, (1, 2, 3), (0,))
        with pytest.raises(ValueError, match="nonnegative"):
            m.head(-1)
        with pytest.raises(IndexError, match="nonnegative"):
            m.block(-1)

    @pytest.mark.parametrize("value", [-1, 16])
    def test_values_out_of_range_rejected(self, value):
        for prefix, cycle in (((value,), (0,)), ((), (0, value))):
            with pytest.raises(ValueError, match=f"^value {value} out of range for 4-bit block$"):
                MessageSequence(4, prefix, cycle)

    @pytest.mark.parametrize("value", NON_INTEGER_BLOCKS.values(), ids=NON_INTEGER_BLOCKS.keys())
    def test_non_integer_values_rejected(self, value):
        named = f"^block value {re.escape(repr(value))} is not an integer$"
        with pytest.raises(ValueError, match=named):
            BlockVector(value, 4)
        with pytest.raises(ValueError, match=named):
            MessageSequence.from_values(4, (), (value,))
        with pytest.raises(ValueError, match=named):
            MessageSequence(4, (value,), (0,))

    def test_numpy_integers_stored_as_python_ints(self):
        for m in (
            MessageSequence(4, np.array([3, 5], dtype=np.uint8), (np.int64(9),)),
            MessageSequence(4, (3, np.int64(5)), (9, np.uint8(9))),  # after a plain int
        ):
            assert m == msg(4, (3, 5), (9,))
            assert all(type(v) is int for v in m.prefix + m.cycle)
        assert type(BlockVector(np.int16(7), 4).value) is int

    @pytest.mark.parametrize(
        "prefix,cycle,error",
        [
            ((99,), (), "value 99 out of range for 4-bit block"),
            ((3, 20, 1.5), (99,), "value 20 out of range for 4-bit block"),
            ((3, 1.5), (99,), "block value 1.5 is not an integer"),
            ((3, np.int64(5), True), (), "block value True is not an integer"),
            ((3,), (np.uint8(7), -1), "value -1 out of range for 4-bit block"),
        ],
    )
    def test_first_invalid_value_outranks_the_empty_cycle(self, prefix, cycle, error):
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            MessageSequence(4, prefix, cycle)

    def test_any_iterable_of_values(self):
        assert MessageSequence(4, iter([1, 2]), (v for v in (3, 3))) == msg(4, (1, 2), (3,))

    def test_blocks_without_n_bits_refused(self):
        with pytest.raises(ValueError, match="n_bits must be an integer"):
            MessageSequence((), (3,))


class TestApplyFf:
    """The paper's F_f rule, through ``next_state_value`` under the identity cipher.

    Bit j of F_f(x, m) is x_j where m has a 1 and f(x)_j where it has a 0.
    """

    def combine(self, f_table, x, m):
        cfg = SystemConfig(make_cipher("identity", 4), inner_function=f_table,
                           convention=CONVENTION_PAPER_COMPLEMENT)
        return BlockVector(next_state_value(cfg, x.value, m.value), 4)

    def test_all_ones_mask_keeps_state(self):
        f0 = negation_table(4)
        x = BlockVector.from_bits("0101")
        assert self.combine(f0, x, BlockVector.from_bits("1111")) == x

    def test_all_zeros_mask_applies_inner_function(self):
        f0 = negation_table(4)
        out = self.combine(f0, BlockVector.from_bits("0101"), BlockVector.from_bits("0000"))
        assert out.bits == "1010"

    def test_mixed_mask_bitwise_formula(self):
        f0 = negation_table(4)
        out = self.combine(f0, BlockVector.from_bits("1100"), BlockVector.from_bits("1010"))
        assert out.bits == "1001"

    def test_negation_case_equals_xor_with_complement(self):
        f0 = negation_table(4)
        stream = SplitMix64(5)
        for _ in range(50):
            x = BlockVector(stream.next_below(16), 4)
            m = BlockVector(stream.next_below(16), 4)
            assert self.combine(f0, x, m).value == x.value ^ m.value ^ 0b1111

    def test_size_mismatch(self):
        cfg = SystemConfig(make_cipher("identity", 2), convention=CONVENTION_PAPER_COMPLEMENT)
        with pytest.raises(ValueError):
            step(cfg, point(4, 0))


class TestStep:
    def test_xor_example(self):
        cfg = SystemConfig(make_cipher("identity", 2))
        after = step(cfg, point(2, 0b00, prefix=(0b11,)))
        assert after == point(2, 0b11)

    def test_paper_complement_example(self):
        cfg = SystemConfig(
            make_cipher("identity", 2), convention=CONVENTION_PAPER_COMPLEMENT
        )
        after = step(cfg, point(2, 0b00, prefix=(0b11,)))
        assert after == point(2, 0b00)

    def test_second_component_is_always_shift(self):
        cfg = SystemConfig(make_cipher("feistel", 4, seed=3, rounds=3))
        X = point(4, 5, prefix=(1, 2), cycle=(7, 9))
        assert step(cfg, X).message == shift(X.message)

    def test_xor_with_non_negation_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(
                make_cipher("identity", 2),
                inner_function=identity_table(2),
                convention=CONVENTION_XOR,
            )

    def test_paper_complement_accepts_other_inner_functions(self):
        cfg = SystemConfig(
            make_cipher("identity", 2),
            inner_function=identity_table(2),
            convention=CONVENTION_PAPER_COMPLEMENT,
        )
        X = point(2, 0b10, prefix=(0b01,))
        assert step(cfg, X).state == X.state

    def test_inner_table_length_validated(self):
        with pytest.raises(ValueError):
            SystemConfig(make_cipher("identity", 2), inner_function=(0, 1))

    @pytest.mark.parametrize("n_bits", [1, 4, 16])
    @pytest.mark.parametrize("where", [0, -1])
    @pytest.mark.parametrize("bad", [-1, "top"])
    def test_inner_table_range_validated(self, n_bits, where, bad):
        table = list(identity_table(n_bits))
        table[where] = -1 if bad == -1 else 1 << n_bits
        with pytest.raises(ValueError, match="^inner function table entries out of range$"):
            SystemConfig(
                make_cipher("identity", n_bits),
                inner_function=table,
                convention=CONVENTION_PAPER_COMPLEMENT,
            )
        table[where] = (1 << n_bits) - 1 if bad == -1 else 0
        SystemConfig(
            make_cipher("identity", n_bits),
            inner_function=table,
            convention=CONVENTION_PAPER_COMPLEMENT,
        )

    @pytest.mark.parametrize("entry", [0.5, 0.0, True, "0"], ids=["float", "whole-float", "bool", "str"])
    def test_inner_table_rejects_non_integer_entries(self, entry):
        # [0.5] * 16 was accepted: the graph truncated it to 0, next_state_value raised TypeError
        for table in ([entry] * 16, [0] * 15 + [entry]):
            with pytest.raises(ValueError, match="^inner function table entries out of range$"):
                SystemConfig(
                    make_cipher("identity", 4),
                    inner_function=table,
                    convention=CONVENTION_PAPER_COMPLEMENT,
                )

    def test_inner_table_is_stored_as_python_ints(self):
        cfg = SystemConfig(
            make_cipher("identity", 4),
            inner_function=np.arange(16, dtype=np.uint8)[::-1],
            convention=CONVENTION_PAPER_COMPLEMENT,
        )
        assert tuple(cfg.inner_function) == tuple(range(15, -1, -1))
        assert all(type(v) is int for v in cfg.inner_function)
        assert next_state_value(cfg, 0, 0) == 15

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(make_cipher("identity", 2), convention="cbc")


class TestIterate:
    def test_zero_steps_returns_start(self):
        cfg = SystemConfig(make_cipher("identity", 2))
        X = point(2, 1, prefix=(2,))
        assert iterate(cfg, X, 0) == [X]

    def test_all_zero_fixed_point(self):
        cfg = SystemConfig(make_cipher("identity", 2))
        X = point(2, 0)
        assert all(p == X for p in iterate(cfg, X, 8))

    def test_semigroup_property(self):
        cfg = SystemConfig(make_cipher("permutation", 4, seed=9))
        stream = SplitMix64(21)
        for _ in range(25):
            a = stream.next_below(21)
            b = stream.next_below(21)
            X = point(
                4,
                stream.next_below(16),
                prefix=tuple(stream.next_below(16) for _ in range(stream.next_below(4))),
                cycle=tuple(stream.next_below(16) for _ in range(1 + stream.next_below(3))),
            )
            direct = iterate(cfg, X, a + b)[-1]
            middle = iterate(cfg, X, a)[-1]
            assert iterate(cfg, middle, b)[-1] == direct

    def test_message_law_is_repeated_shift(self):
        cfg = SystemConfig(make_cipher("feistel", 4, seed=1, rounds=2))
        X = point(4, 3, prefix=(1, 2, 3), cycle=(4, 5))
        expected = X.message
        for n, p in enumerate(iterate(cfg, X, 10)):
            assert p.message == expected
            expected = shift(expected)

    def test_negative_count_rejected(self):
        cfg = SystemConfig(make_cipher("identity", 2))
        with pytest.raises(ValueError):
            iterate(cfg, point(2, 0), -1)

    def test_state_after_matches_iterate(self):
        cfg = SystemConfig(make_cipher("permutation", 4, seed=2))
        X = point(4, 9, prefix=(3, 14), cycle=(5,))
        for n in range(8):
            assert state_after(cfg, X, n) == iterate(cfg, X, n)[-1].state


class TestIntegerOrbits:
    """The integer state loop and the points built from it, against chained steps."""

    @pytest.mark.parametrize("n_bits", [1, 3, 6])
    def test_iterate_matches_chained_steps(self, n_bits):
        stream = SplitMix64(500 + n_bits)
        for cfg in general_configs(stream, n_bits):
            for _ in range(15):
                X = random_point(stream, n_bits)
                n = stream.next_below(30)
                reference = chained_iterate(cfg, X, n)
                assert iterate(cfg, X, n) == reference
                assert state_values(cfg, X, n) == [p.state for p in reference]
                assert state_after(cfg, X, n) == reference[-1].state

    def test_block_size_mismatch_rejected(self):
        cfg = SystemConfig(make_cipher("identity", 3))
        with pytest.raises(ValueError):
            state_values(cfg, point(2, 0), 1)

    def test_negation_table_built_once(self):
        assert negation_table(16) is negation_table(16)
        cipher = make_cipher("identity", 16)
        assert SystemConfig(cipher).inner_function is negation_table(16)


def bitwise_combine(cfg, x, m):
    """The word E encrypts, bit by bit: bit j of F_f(x, m) is x_j where m_j = 1, else f(x)_j; x XOR m under xor."""
    if cfg.convention == CONVENTION_XOR:
        return x ^ m
    f = cfg.inner_function[x]
    return sum(((x if m >> j & 1 else f) >> j & 1) << j for j in range(cfg.n_bits))


class TestCombineRule:
    @pytest.mark.parametrize("n_bits", [1, 2, 3, 4])
    def test_every_pair_against_the_bitwise_definition(self, n_bits):
        stream = SplitMix64(2710 + n_bits)
        size = 1 << n_bits
        pairs = list(product(range(size), repeat=2))
        xs, ms = (np.array(column, dtype=np.int64) for column in zip(*pairs))
        for cfg in general_configs(stream, n_bits) + general_configs(stream, n_bits)[3:]:
            expected = [bitwise_combine(cfg, x, m) for x, m in pairs]
            rule = combine_rule(cfg, cfg.inner_function)
            assert [rule(x, m) for x, m in pairs] == expected
            column = combine_rule(cfg, np.asarray(cfg.inner_function))(xs, ms)
            assert column.dtype == np.int64 and column.tolist() == expected

    def test_xor_rule_is_operator_xor(self):
        cfg = SystemConfig(make_cipher("identity", 3))
        assert combine_rule(cfg, cfg.inner_function) is xor

    @pytest.mark.parametrize("convention", [CONVENTION_XOR, CONVENTION_PAPER_COMPLEMENT])
    def test_long_walk_against_a_per_step_oracle(self, convention):
        stream = SplitMix64(2720)
        n_bits, steps = 16, 20000
        size, mask = 1 << n_bits, (1 << n_bits) - 1
        inner = None if convention == CONVENTION_XOR else [stream.next_below(size) for _ in range(size)]
        cfg = SystemConfig(make_cipher("permutation", n_bits, seed=5), inner_function=inner, convention=convention)
        forward, f = list(cfg.cipher.forward_table), list(cfg.inner_function)
        prefix = [stream.next_below(size) for _ in range(37)]
        cycle = [stream.next_below(size) for _ in range(101)]
        X = SystemPoint(stream.next_below(size), MessageSequence(n_bits, prefix, cycle))
        x, states = X.state, [X.state]
        for i in range(steps):
            m = prefix[i] if i < len(prefix) else cycle[(i - len(prefix)) % len(cycle)]
            word = x ^ m if convention == CONVENTION_XOR else (x & m) | (f[x] & (mask ^ m))
            x = forward[word]
            states.append(x)
        assert state_values(cfg, X, steps) == states


class TestConventionBridge:
    @pytest.mark.parametrize("n_bits", [2, 4, 6])
    def test_complement_of_block_bridges_conventions(self, n_bits):
        cipher = make_cipher("permutation", n_bits, seed=4)
        cfg_x = SystemConfig(cipher, convention=CONVENTION_XOR)
        cfg_p = SystemConfig(cipher, convention=CONVENTION_PAPER_COMPLEMENT)
        mask = (1 << n_bits) - 1
        for x in range(1 << n_bits):
            for m in range(1 << n_bits):
                assert next_state_value(cfg_p, x, m) == next_state_value(
                    cfg_x, x, m ^ mask
                )


class TestPointSerialization:
    def test_json_shape(self):
        X = SystemPoint(
            BlockVector.from_bits("0101"),
            MessageSequence(4, (0b0011,), (0b0000,)),
        )
        assert X.to_json() == {
            "state": "0101",
            "prefix": ["0011"],
            "cycle": ["0000"],
        }

    def test_json_roundtrip(self):
        X = point(4, 11, prefix=(3, 7), cycle=(1, 2))
        assert SystemPoint.from_json(X.to_json()) == X

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="^block size mismatch: 00 has 2 bits, expected 4$"):
            SystemPoint(BlockVector(0, 2), msg(4))


def state_readers():
    """Every state input of the library, as a function of one 4-bit state that returns the int stored."""
    cfg = SystemConfig(make_cipher("identity", 4))  # E(x) = x: encrypt and decrypt return what they read
    X = point(4, 5, prefix=(3,), cycle=(1, 2))
    return {
        "SystemPoint": lambda state: SystemPoint(state, X.message).state,
        "steered_merge_pair": lambda state: steered_merge_pair(cfg, X, state)[1].state,
        "encrypt": lambda state: encrypt(cfg.cipher, state),
        "decrypt": lambda state: decrypt(cfg.cipher, state),
    }


STATE_READERS = state_readers()
REFUSED_STATES = {
    "narrow-BlockVector": (BlockVector(3, 2), "block size mismatch: 11 has 2 bits, expected 4"),
    "wide-BlockVector": (BlockVector(9, 5), "block size mismatch: 01001 has 5 bits, expected 4"),
    "bool": (True, "block value True is not an integer"),
    "float": (9.0, "block value 9.0 is not an integer"),
    "str": ("9", "block value '9' is not an integer"),
    "negative": (-1, "value -1 out of range for 4-bit block"),
    "too-large": (16, "value 16 out of range for 4-bit block"),
}


class TestOneStateReader:
    """Each state input is read by ``cipher._word`` and stored as a Python int."""

    @pytest.mark.parametrize("reader", STATE_READERS.values(), ids=STATE_READERS.keys())
    @pytest.mark.parametrize("form", [int, np.int64, np.uint8, lambda v: BlockVector(v, 4)],
                             ids=["int", "int64", "uint8", "BlockVector"])
    def test_accepted_forms_stored_as_the_same_int(self, reader, form):
        stored = reader(form(9))
        assert stored == 9 and type(stored) is int

    @pytest.mark.parametrize("reader", STATE_READERS.values(), ids=STATE_READERS.keys())
    @pytest.mark.parametrize("state,error", REFUSED_STATES.values(), ids=REFUSED_STATES.keys())
    def test_refused_forms_named(self, reader, state, error):
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            reader(state)

    def test_from_json_reads_bit_strings_only(self):
        data = point(4, 9, prefix=(3,)).to_json()
        X = SystemPoint.from_json(data)
        assert X.state == 9 and type(X.state) is int
        for state, error in (
            ("10", "block size mismatch: 10 has 2 bits, expected 4"),
            ("10000", "block size mismatch: 10000 has 5 bits, expected 4"),
            ("-001", "not a bit string: '-001'"),
            ("1 01", "not a bit string: '1 01'"),
            (9, "not a bit string: 9"),
            (True, "not a bit string: True"),
            (9.0, "not a bit string: 9.0"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
                SystemPoint.from_json(dict(data, state=state))


def assert_lookup_view(view, size):
    """``view`` is the read-only memoryview of one read-only int64 array of ``size`` Python ints."""
    array = view.obj
    assert type(view) is memoryview and view.readonly
    assert isinstance(array, np.ndarray) and array.dtype == np.int64 and array.shape == (size,)
    assert not array.flags.writeable
    assert np.shares_memory(np.asarray(view), array)
    with pytest.raises(TypeError):
        view[0] = 0
    with pytest.raises(ValueError):
        np.asarray(view)[0] = 0
    assert all(type(v) is int for v in view)


class TestTableContract:
    """Cipher, inverse, inner function and negation: one int64 array each, read through its memoryview."""

    @pytest.mark.parametrize("n_bits", [2, 8, 16])
    def test_cipher_tables(self, n_bits):
        size = 1 << n_bits
        kinds = [kind for kind in CIPHER_KINDS if kind != "feistel" or n_bits % 2 == 0]
        builds = [lambda kind=kind: make_cipher(kind, n_bits, seed=11, rounds=3) for kind in kinds]
        builds.append(lambda: cipher_from_table(np.arange(size, dtype=np.uint16)[::-1], n_bits))
        for build in builds:
            c = build()
            assert_lookup_view(c.forward_table, size)
            assert c.forward_table.obj is c.forward
            assert_lookup_view(c.inverse_table, size)
            assert tuple(c.inverse_table) == tuple(_invert(c.forward).tolist())
            fresh = build()
            assert fresh == c and hash(fresh) == hash(c)
            assert "memory at" not in repr(c)

    @pytest.mark.parametrize("n_bits", [2, 8, 16])
    def test_inner_function_and_negation_tables(self, n_bits):
        size = 1 << n_bits
        negation = negation_table(n_bits)
        assert_lookup_view(negation, size)
        assert tuple(negation) == tuple(range(size))[::-1]
        inners = [None, identity_table(n_bits), np.arange(size, dtype=np.uint16) ^ 1, list(negation)]
        configs = []
        for inner in inners:
            def build():
                cipher = make_cipher("permutation", n_bits, seed=11)
                return SystemConfig(cipher, inner_function=inner, convention=CONVENTION_PAPER_COMPLEMENT)

            cfg = build()
            assert_lookup_view(cfg.inner_function, size)
            fresh = build()
            assert fresh == cfg and hash(fresh) == hash(cfg)
            assert "memory at" not in repr(cfg)
            configs.append(cfg)
        # the default is the cached negation itself; an equal table given explicitly compares equal
        assert configs[0].inner_function is negation
        assert configs[0] == configs[3] and hash(configs[0]) == hash(configs[3])
        assert len({configs[0], configs[1], configs[2]}) == 3
        assert tuple(configs[2].inner_function) == tuple(x ^ 1 for x in range(size))
