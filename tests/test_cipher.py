"""Cipher construction: golden PRNG values, bijectivity, determinism."""

import hashlib

import numpy as np
import pytest

from cbcdyn.cipher import (
    CIPHER_KINDS,
    BlockVector,
    SplitMix64,
    _feistel_table,
    _invert,
    _permutation_table,
    _splitmix_draws,
    cipher_from_table,
    decrypt,
    encrypt,
    make_cipher,
)
from cbcdyn.dynamics import negation_table

# Reference outputs of splitmix64 (seed 0 values are the published test
# vector for the algorithm; the others were generated once from the same
# recipe and frozen).
SPLITMIX_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
SPLITMIX_SEED1 = [0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E]

# Fisher-Yates over splitmix64, generated once and frozen.
PERM_N2_SEED1 = (2, 0, 3, 1)
PERM_N4_SEED1 = (2, 11, 10, 6, 7, 13, 14, 0, 12, 5, 15, 9, 3, 8, 4, 1)
FEISTEL_N4_SEED7_R3 = (8, 12, 3, 6, 9, 0, 2, 7, 4, 14, 1, 10, 11, 15, 13, 5)

# sha256 of ",".join(map(str, table)) for 16-bit tables, frozen from the
# one-draw-at-a-time implementation.
PERM_N16_SEED1_SHA256 = "fe4eaa67af26b66dc3c384a891dbbfc34dc45214f3a2bb556c36f7f2967d35e4"
FEISTEL_N16_SEED1_R4_SHA256 = "540eb3d2615a6c9c8217ad4453ccbb2c91b68905035627fc3c57e8eb1a5ef11f"

# seed 2^64 + 5 wraps to 5, seed -1 to 2^64 - 1
EDGE_SEEDS = (0, 1, 1 << 63, (1 << 64) - 1, -1, (1 << 64) + 5)

# 20 more seeds spread over the 64-bit range, for the widest tables
_seed_stream = SplitMix64(2016)
WIDE_SEEDS = tuple(_seed_stream.next_u64() for _ in range(20))


def reference_permutation(n_bits, seed):
    """Fisher-Yates with one SplitMix64 draw per swap, high index down."""
    table = list(range(1 << n_bits))
    stream = SplitMix64(seed)
    for i in range(len(table) - 1, 0, -1):
        j = stream.next_below(i + 1)
        table[i], table[j] = table[j], table[i]
    return table


def reference_feistel(n_bits, seed, rounds):
    """Balanced Feistel evaluated word by word, round tables drawn one entry at a time."""
    half = n_bits // 2
    half_size = 1 << half
    stream = SplitMix64(seed)
    round_tables = [[stream.next_below(half_size) for _ in range(half_size)] for _ in range(rounds)]
    table = []
    for v in range(1 << n_bits):
        left, right = v >> half, v & (half_size - 1)
        for rt in round_tables:
            left, right = right, left ^ rt[right]
        table.append((left << half) | right)
    return table


def sha256_of(table):
    return hashlib.sha256(",".join(map(str, table)).encode()).hexdigest()


class TestSplitMix64:
    def test_reference_vector_seed0(self):
        stream = SplitMix64(0)
        assert [stream.next_u64() for _ in range(3)] == SPLITMIX_SEED0

    def test_reference_vector_seed1(self):
        stream = SplitMix64(1)
        assert [stream.next_u64() for _ in range(3)] == SPLITMIX_SEED1

    def test_next_below_is_modulo(self):
        a = SplitMix64(9)
        b = SplitMix64(9)
        assert a.next_below(100) == b.next_u64() % 100

    def test_next_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(0).next_below(0)


class TestBlockVector:
    def test_from_bits_roundtrip(self):
        b = BlockVector.from_bits("0101")
        assert (b.value, b.n_bits, b.bits) == (5, 4, "0101")

    def test_value_range_enforced(self):
        with pytest.raises(ValueError):
            BlockVector(4, 2)
        with pytest.raises(ValueError):
            BlockVector(0, 0)
        with pytest.raises(ValueError):
            BlockVector(0, 17)

    def test_rejects_garbage_bits(self):
        with pytest.raises(ValueError):
            BlockVector.from_bits("01x1")
        with pytest.raises(ValueError):
            BlockVector.from_bits("")


class TestVectorialNegation:
    """The vectorial negation f0, ``negation_table(N)``, is the block complement."""

    def test_all_zeros(self):
        assert negation_table(4)[0b0000] == 0b1111

    def test_alternating(self):
        assert negation_table(4)[0b1010] == 0b0101

    def test_involution_exhaustive(self):
        f0 = negation_table(4)
        for v in range(16):
            assert f0[f0[v]] == v

    def test_never_fixes_a_point(self):
        f0 = negation_table(4)
        for v in range(16):
            assert f0[v] != v


class TestMakeCipher:
    def test_identity_table(self):
        c = make_cipher("identity", 4)
        assert tuple(c.forward_table) == tuple(range(16))

    def test_identity_ignores_seed(self):
        assert make_cipher("identity", 4, seed=1).forward_table == make_cipher(
            "identity", 4, seed=999
        ).forward_table

    def test_permutation_golden_n2_seed1(self):
        assert tuple(make_cipher("permutation", 2, seed=1).forward_table) == PERM_N2_SEED1

    def test_permutation_golden_n4_seed1(self):
        assert tuple(make_cipher("permutation", 4, seed=1).forward_table) == PERM_N4_SEED1

    def test_feistel_golden_n4_seed7_rounds3(self):
        c = make_cipher("feistel", 4, seed=7, rounds=3)
        assert tuple(c.forward_table) == FEISTEL_N4_SEED7_R3
        assert sorted(c.forward_table) == list(range(16))

    def test_permutation_golden_n16_seed1(self):
        assert sha256_of(make_cipher("permutation", 16, seed=1).forward_table) == PERM_N16_SEED1_SHA256

    def test_feistel_golden_n16_seed1_rounds4(self):
        table = make_cipher("feistel", 16, seed=1, rounds=4).forward_table
        assert sha256_of(table) == FEISTEL_N16_SEED1_R4_SHA256

    @pytest.mark.parametrize("kind", ["identity", "permutation", "feistel"])
    @pytest.mark.parametrize("n_bits", [2, 4, 6, 8])
    def test_exhaustive_bijectivity(self, kind, n_bits):
        for seed in range(3):
            c = make_cipher(kind, n_bits, seed=seed, rounds=3)
            for v in range(1 << n_bits):
                assert c.inverse_table[c.forward_table[v]] == v

    @pytest.mark.parametrize("kind", ["identity", "permutation", "feistel"])
    def test_determinism(self, kind):
        a = make_cipher(kind, 6, seed=12345, rounds=5)
        b = make_cipher(kind, 6, seed=12345, rounds=5)
        assert a.forward_table == b.forward_table

    def test_invalid_n_bits(self):
        with pytest.raises(ValueError):
            make_cipher("identity", 0)
        with pytest.raises(ValueError):
            make_cipher("permutation", 17, seed=1)

    def test_feistel_rejects_odd_width(self):
        with pytest.raises(ValueError):
            make_cipher("feistel", 5, seed=1, rounds=2)

    def test_feistel_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            make_cipher("feistel", 4, seed=1, rounds=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_cipher("aes", 4, seed=1)

    def test_spec_is_frozen(self):
        c = make_cipher("identity", 2)
        with pytest.raises(AttributeError):
            c.n_bits = 3


class TestEncryptDecrypt:
    def test_identity_cipher_is_identity(self):
        c = make_cipher("identity", 4)
        assert encrypt(c, 0b0101) == 0b0101
        assert decrypt(c, 0b1100) == 0b1100

    def test_permutation_fixture_lookup(self):
        c = make_cipher("permutation", 2, seed=1)
        assert encrypt(c, 0) == PERM_N2_SEED1[0]
        assert decrypt(c, PERM_N2_SEED1[2]) == 0b10

    @pytest.mark.parametrize("n_bits", [2, 4, 6, 8])
    def test_roundtrip_exhaustive(self, n_bits):
        for kind, seed in [("identity", 0), ("permutation", 3), ("feistel", 11)]:
            c = make_cipher(kind, n_bits, seed=seed, rounds=4)
            for v in range(1 << n_bits):
                assert decrypt(c, encrypt(c, v)) == v

    def test_encrypt_is_injective(self):
        c = make_cipher("feistel", 6, seed=2, rounds=3)
        images = {encrypt(c, v) for v in range(64)}
        assert len(images) == 64

    def test_size_mismatch_rejected(self):
        c = make_cipher("identity", 4)
        for crypt in (encrypt, decrypt):
            with pytest.raises(ValueError, match="^block size mismatch: 00 has 2 bits, expected 4$"):
                crypt(c, BlockVector(0, 2))
            with pytest.raises(ValueError, match="^value 16 out of range for 4-bit block$"):
                crypt(c, 16)


class TestSerialization:
    def test_cipher_from_table(self):
        c = cipher_from_table([3, 0, 2, 1], 2)
        assert decrypt(c, encrypt(c, 2)) == 2

    def test_cipher_from_table_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            cipher_from_table([0, 0, 1, 2], 2)

    @pytest.mark.parametrize("table", [
        [0, 1, 2, 4],  # out of range above
        [-1, 1, 2, 3],  # out of range below
        [0, 1, 2],  # too short
        [0, 1, 2, 3, 0],  # too long
        [],
        [0.0, 1.0, 2.0, 3.0],  # not integers
        ["0", "1", "2", "3"],
        [[0, 1], [2, 3]],
    ])
    def test_cipher_from_table_rejects_with_one_error(self, table):
        with pytest.raises(ValueError, match="not a permutation of the block space"):
            cipher_from_table(table, 2)

    def test_cipher_from_table_takes_any_integer_sequence(self):
        for table in ([3, 0, 2, 1], (3, 0, 2, 1), np.array([3, 0, 2, 1], dtype=np.uint8), iter([3, 0, 2, 1])):
            c = cipher_from_table(table, 2)
            assert tuple(c.forward_table) == (3, 0, 2, 1)
            assert tuple(c.inverse_table) == (1, 3, 2, 0)
            assert all(type(v) is int for v in [*c.forward_table, *c.inverse_table])

    def test_cipher_from_table_roundtrips_a_16_bit_table(self):
        forward = make_cipher("permutation", 16, seed=4).forward_table
        c = cipher_from_table(forward, 16)
        assert c.forward_table == forward
        assert c.inverse_table == make_cipher("permutation", 16, seed=4).inverse_table


class TestVectorisedDraws:
    """The numpy draws and tables against one-draw-at-a-time references."""

    @pytest.mark.parametrize("seed", EDGE_SEEDS + (12345,))
    def test_draws_match_stream(self, seed):
        stream = SplitMix64(seed)
        draws = _splitmix_draws(seed, 50).tolist()
        assert draws == [stream.next_u64() for _ in range(50)]
        assert _splitmix_draws(seed, 0).size == 0

    @pytest.mark.parametrize("n_bits", range(1, 17))
    def test_permutation_matches_sequential_fisher_yates(self, n_bits):
        seeds = EDGE_SEEDS + (WIDE_SEEDS if n_bits >= 13 else ())
        for seed in seeds:
            table = _permutation_table(n_bits, seed)
            assert table.dtype == np.int64
            assert table.tolist() == reference_permutation(n_bits, seed)

    @pytest.mark.parametrize("n_bits", range(2, 17, 2))
    def test_feistel_matches_word_by_word_reference(self, n_bits):
        for seed, rounds in ((0, 1), ((1 << 64) - 1, 4), (7, 3)):
            table = _feistel_table(n_bits, seed, rounds)
            assert table.dtype == np.int64
            assert table.tolist() == reference_feistel(n_bits, seed, rounds)

    @pytest.mark.parametrize("n_bits", [1, 5, 16])
    def test_invert_is_the_inverse_permutation(self, n_bits):
        table = _permutation_table(n_bits, 3)
        inverse = _invert(table)
        assert inverse.dtype == np.int64
        assert inverse[table].tolist() == list(range(1 << n_bits))
        reference = reference_permutation(n_bits, 3)
        assert [reference[v] for v in inverse.tolist()] == list(range(1 << n_bits))

    @pytest.mark.parametrize("n_bits", [1, 2, 3, 4, 5, 6, 7, 8, 12, 16])
    def test_make_cipher_tables_match_the_oracles(self, n_bits):
        size = 1 << n_bits
        oracles = [("identity", 0, list(range(size)))]
        oracles += [("permutation", seed, reference_permutation(n_bits, seed)) for seed in (0, 5)]
        if n_bits % 2 == 0:
            oracles.append(("feistel", 9, reference_feistel(n_bits, 9, 3)))
        for kind, seed, oracle in oracles:
            c = make_cipher(kind, n_bits, seed=seed, rounds=3)
            assert tuple(c.forward_table) == tuple(oracle)
            assert [c.inverse_table[v] for v in oracle] == list(range(size))
            assert type(c.forward_table) is memoryview and type(c.inverse_table) is memoryview
            assert all(type(v) is int for v in [*c.forward_table, *c.inverse_table])

    @pytest.mark.parametrize("n_bits", [2, 8, 16])
    def test_forward_array_is_the_read_only_table(self, n_bits):
        size = 1 << n_bits
        ciphers = [make_cipher(kind, n_bits, seed=11) for kind in CIPHER_KINDS if kind != "feistel" or n_bits % 2 == 0]
        narrow = np.uint8 if n_bits <= 8 else np.uint16
        ciphers.append(cipher_from_table(np.arange(size, dtype=narrow)[::-1], n_bits))
        for c in ciphers:
            assert c.forward.dtype == np.int64 and c.forward.shape == (size,)
            assert c.forward.tolist() == list(c.forward_table)
            assert not c.forward.flags.writeable
            with pytest.raises(ValueError):
                c.forward[0] = 0
            assert "forward=" not in repr(c)
        assert tuple(ciphers[-1].forward_table) == tuple(range(size))[::-1]

    @pytest.mark.parametrize("n_bits", [2, 16])
    def test_inverse_table_is_built_on_first_read(self, n_bits):
        size = 1 << n_bits
        for kind in CIPHER_KINDS:
            c = make_cipher(kind, n_bits, seed=11)
            assert "inverse_table" not in vars(c)
            eager = tuple(_invert(np.asarray(c.forward_table)).tolist())
            assert tuple(c.inverse_table) == eager and c.inverse_table is c.inverse_table
            # the forward table fixes the cipher: equality and hashing skip the inverse
            fresh = make_cipher(kind, n_bits, seed=11)
            assert fresh == c and hash(fresh) == hash(c)
            assert "inverse" not in repr(c)
        wrapped = cipher_from_table(list(range(size))[::-1], n_bits)
        assert tuple(wrapped.inverse_table) == tuple(range(size))[::-1]
