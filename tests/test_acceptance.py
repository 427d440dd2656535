"""Acceptance suite: one test per criterion, each at its stated scale.

Every check is exact (integer or rational arithmetic, zero tolerance).
Each test records a pass/fail line that pytest prints in its terminal
summary; run with ``pytest tests/test_acceptance.py -v`` for per-criterion
results plus the summary block.
"""

import json
import time
from fractions import Fraction

import pytest
from conftest import criterion, entropy_grid, first_difference_index

from cbcdyn import cli
from cbcdyn.chaoslab import (
    entropy_profile,
    expansivity_probe,
    mixing_witness,
    sample_point,
    sensitivity_witness,
    separated_set,
    steered_merge_pair,
    verify_mixing,
)
from cbcdyn.cipher import SplitMix64, decrypt, encrypt, make_cipher
from cbcdyn.dynamics import (
    CONVENTION_PAPER_COMPLEMENT,
    CONVENTION_XOR,
    SystemConfig,
    identity_table,
    iterate,
)
from cbcdyn.graph import build_graph, devaney_verdict, strongly_connected
from cbcdyn.metric import (
    Ball,
    bowen_distance,
    distance,
    in_ball,
    message_distance,
)

CIPHER_KINDS = ("identity", "permutation", "feistel")
SOUNDNESS_WIDTHS = (2, 4, 6, 8)
SOUNDNESS_SEEDS = (0, 1, 2, 3, 4)
BOTH_CONVENTIONS = (CONVENTION_XOR, CONVENTION_PAPER_COMPLEMENT)


def all_soundness_ciphers():
    for kind in CIPHER_KINDS:
        for n_bits in SOUNDNESS_WIDTHS:
            for seed in SOUNDNESS_SEEDS:
                yield make_cipher(kind, n_bits, seed=seed, rounds=3)


def test_criterion_1_cipher_soundness():
    with criterion(1, "cipher soundness: decrypt(encrypt(x)) = x exhaustively"):
        started = time.perf_counter()
        for cipher in all_soundness_ciphers():
            for v in range(1 << cipher.n_bits):
                assert decrypt(cipher, encrypt(cipher, v)) == v
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s (limit 1s)"


def test_criterion_2_devaney_sufficient_condition():
    with criterion(2, "strong connectivity certificate on complete graphs"):
        n8_elapsed = 0.0
        for cipher in all_soundness_ciphers():
            for convention in BOTH_CONVENTIONS:
                cfg = SystemConfig(cipher, convention=convention)
                started = time.perf_counter()
                graph = build_graph(cfg)
                connected, sccs = strongly_connected(graph)
                if cipher.n_bits == 8:
                    n8_elapsed += time.perf_counter() - started
                assert graph.is_complete()
                assert connected and len(sccs) == 1

        # degenerate inner function: every edge is a self-loop
        for n_bits in SOUNDNESS_WIDTHS:
            cfg = SystemConfig(
                make_cipher("identity", n_bits),
                inner_function=identity_table(n_bits),
                convention=CONVENTION_PAPER_COMPLEMENT,
            )
            verdict = devaney_verdict(cfg)
            assert not verdict.strongly_connected
            assert verdict.scc_count == (1 << n_bits)
            assert all(size == 1 for size in verdict.scc_sizes)

        assert n8_elapsed < 10.0, f"N=8 build+SCC took {n8_elapsed:.2f}s (limit 10s)"


def test_criterion_3_metric_axioms():
    with criterion(3, "metric axioms and prefix bounds on 10^4 triples per width"):
        started = time.perf_counter()
        for n_bits in (2, 4, 8):
            stream = SplitMix64(5000 + n_bits)
            for _ in range(10_000):
                X = sample_point(stream, n_bits)
                Y = sample_point(stream, n_bits)
                Z = sample_point(stream, n_bits)
                dxy = distance(X, Y)
                assert (dxy == 0) == (X == Y)
                assert dxy == distance(Y, X)
                assert dxy <= distance(X, Z) + distance(Z, Y)
                if X.message != Y.message:
                    j = first_difference_index(X.message, Y.message)
                    dm = message_distance(X.message, Y.message)
                    assert dm <= Fraction(1, 10 ** j)
                    assert dm >= Fraction(9, n_bits) * Fraction(1, 10 ** (j + 1))
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"criterion 3 took {elapsed:.2f}s (limit 30s)"


def test_criterion_4_constructive_mixing():
    with criterion(4, "mixing witness lands exactly in 100% of instances"):
        started = time.perf_counter()
        radii = (Fraction(1, 2), Fraction(1, 10), Fraction(1, 1000))
        for n_bits in (2, 4, 8):
            for convention in BOTH_CONVENTIONS:
                stream = SplitMix64(9000 + n_bits + (convention == CONVENTION_XOR))
                for i in range(1000):
                    kind = CIPHER_KINDS[stream.next_below(3)]
                    cfg = SystemConfig(
                        make_cipher(kind, n_bits, seed=stream.next_u64(), rounds=3),
                        convention=convention,
                    )
                    ball = Ball(sample_point(stream, n_bits), radii[i % 3])
                    target = sample_point(stream, n_bits)
                    witness = mixing_witness(cfg, ball, target)
                    assert in_ball(ball, witness.constructed_point)
                    final = iterate(cfg, witness.constructed_point, witness.k + 1)[-1]
                    assert final == target
                    assert verify_mixing(cfg, witness)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"criterion 4 took {elapsed:.2f}s (limit 30s)"


def test_criterion_5_sensitivity():
    with criterion(5, "sensitivity witness separates orbits by the block size"):
        started = time.perf_counter()
        epsilons = (Fraction(1, 2), Fraction(1, 10), Fraction(1, 1000), Fraction(3, 7))
        for n_bits in (2, 4, 8):
            stream = SplitMix64(11_000 + n_bits)
            for i in range(1000):
                kind = CIPHER_KINDS[stream.next_below(3)]
                convention = BOTH_CONVENTIONS[i % 2]
                cfg = SystemConfig(
                    make_cipher(kind, n_bits, seed=stream.next_u64(), rounds=3),
                    convention=convention,
                )
                X = sample_point(stream, n_bits)
                epsilon = epsilons[i % len(epsilons)]
                Y, n, achieved = sensitivity_witness(cfg, X, epsilon, Fraction(n_bits))
                assert distance(X, Y) < epsilon
                assert achieved >= n_bits
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"criterion 5 took {elapsed:.2f}s (limit 30s)"


def test_criterion_6_entropy_growth():
    with criterion(6, "separated-orbit growth H(1) >= 4, H(2) >= 16 on the 64-grid"):
        from math import log

        started = time.perf_counter()
        cfg = SystemConfig(make_cipher("identity", 2), convention=CONVENTION_XOR)
        entries = entropy_profile(cfg, n_max=2, epsilon=Fraction(1), prefix_len=2)
        by_n = {e.n: e for e in entries}
        assert by_n[1].h_lower >= 4
        assert by_n[2].h_lower >= 16
        assert by_n[1].greedy_cardinality >= 4
        assert by_n[2].greedy_cardinality >= 16
        for e in entries:
            assert e.growth_rate >= 2 * log(2) - 1e-12

        # greedy sets independently rechecked pairwise, and exact >= greedy
        grid = entropy_grid(2, 2)
        for n in (1, 2):
            greedy = separated_set(cfg, grid, n, Fraction(1), mode="greedy")
            for i in range(greedy.cardinality):
                for j in range(i + 1, greedy.cardinality):
                    assert bowen_distance(cfg, greedy.points[i], greedy.points[j], n) >= 1
            exact = separated_set(cfg, grid, n, Fraction(1), mode="exact")
            assert exact.cardinality >= greedy.cardinality
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"criterion 6 took {elapsed:.2f}s (limit 60s)"


def test_criterion_7_expansivity_probe():
    with criterion(7, "steered merges coalesce to exactly zero over horizon 50"):
        started = time.perf_counter()
        stream = SplitMix64(13_000)
        cfg = SystemConfig(make_cipher("permutation", 4, seed=21))
        for _ in range(20):
            X = sample_point(stream, 4)
            other = stream.next_below(16)
            while other == X.state:
                other = stream.next_below(16)
            X, Y = steered_merge_pair(cfg, X, other)
            traj_x = iterate(cfg, X, 50)
            traj_y = iterate(cfg, Y, 50)
            worst = max(distance(traj_x[n], traj_y[n]) for n in range(1, 51))
            assert worst == 0
            assert distance(X, Y) >= 1

        report = expansivity_probe(cfg, horizon=50, samples=10, seed=4)
        assert report.min_max_orbit_distance == 0
        assert report.conclusive is False
        assert "observation" in report.note
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"criterion 7 took {elapsed:.2f}s (limit 5s)"


CLI_CASES = {
    "graph": ["graph", "--cipher", "permutation", "--n-bits", "4", "--seed", "1"],
    "simulate": ["simulate", "--n-bits", "2", "--iv", "01", "--message", "11,01",
                 "--steps", "6"],
    "distance": ["distance", "--n-bits", "2", "--a-state", "01", "--a-prefix", "10",
                 "--b-state", "11", "--bowen-n", "2"],
    "mix": ["mix", "--n-bits", "2", "--epsilon", "1/2", "--target-state", "11"],
    "sensitivity": ["sensitivity", "--n-bits", "4", "--epsilon", "1/10"],
    "entropy": ["entropy", "--n-bits", "2", "--epsilon", "1", "--n-max", "2",
                "--prefix-len", "2"],
    "probe-expansivity": ["probe-expansivity", "--n-bits", "2", "--horizon", "50",
                          "--samples", "6", "--rng-seed", "9"],
}


def test_criterion_8_cli_determinism(tmp_path, monkeypatch):
    with criterion(8, "byte-identical reports across reruns and worker counts"):
        for command, argv in CLI_CASES.items():
            name = f"{command}-report.json"
            runs = []
            for label in ("a", "b"):
                out_dir = tmp_path / command.replace("-", "_") / label
                monkeypatch.setenv(cli.ENV_OUT_DIR, str(out_dir))
                assert cli.main(argv) == 0
                runs.append((out_dir / name).read_bytes())
            assert runs[0] == runs[1], f"{command} report changed between reruns"
            json.loads(runs[0])  # reports must stay parseable

            out_dir = tmp_path / command.replace("-", "_") / "w"
            monkeypatch.setenv(cli.ENV_OUT_DIR, str(out_dir))
            assert cli.main(argv + ["--workers", "3"]) == 0
            assert (out_dir / name).read_bytes() == runs[0], (
                f"{command} report depends on the worker count"
            )
