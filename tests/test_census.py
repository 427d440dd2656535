"""The exhaustive N = 2 census: every paper-complement configuration against test-local oracles.

There are 24 permutation ciphers x 256 inner functions = 6,144
configurations (``xor`` admits only the negation). Each one's transition
graph is rebuilt here by brute force over every (state, block) pair and
handed to networkx; the library's verdict and its one-step inverse
``preimage_block`` are checked against it.
"""

from itertools import permutations, product

import networkx as nx
import pytest

from cbcdyn.cipher import cipher_from_table
from cbcdyn.dynamics import CONVENTION_PAPER_COMPLEMENT, SystemConfig, preimage_block
from cbcdyn.graph import CONDITION_FAILS, SUFFICIENT_CONDITION_HOLDS, devaney_verdict

N_BITS = 2
SIZE = 1 << N_BITS
WORD = SIZE - 1


def oracle_blocks(forward, inner):
    """blocks[x][y]: the blocks that take state x to state y, ascending, by the paper's F_f rule."""
    blocks = [[[] for _ in range(SIZE)] for _ in range(SIZE)]
    for x in range(SIZE):
        for m in range(SIZE):
            blocks[x][forward[(x & m) | (inner[x] & WORD & ~m)]].append(m)
    return blocks


@pytest.fixture(scope="module")
def census():
    """(config, oracle blocks, networkx graph) for every configuration."""
    rows = []
    for forward in permutations(range(SIZE)):
        cipher = cipher_from_table(forward, N_BITS)
        for inner in product(range(SIZE), repeat=SIZE):
            cfg = SystemConfig(cipher, inner_function=inner, convention=CONVENTION_PAPER_COMPLEMENT)
            blocks = oracle_blocks(forward, inner)
            graph = nx.DiGraph()
            graph.add_nodes_from(range(SIZE))
            graph.add_edges_from((x, y) for x in range(SIZE) for y in range(SIZE) if blocks[x][y])
            rows.append((cfg, blocks, graph))
    return rows


def test_census_covers_every_configuration(census):
    assert len(census) == 24 * 256
    assert len({(tuple(cfg.cipher.forward_table), tuple(cfg.inner_function)) for cfg, _, _ in census}) == 6144


def test_verdict_agrees_with_networkx(census):
    for cfg, _, graph in census:
        verdict = devaney_verdict(cfg)
        connected = nx.is_strongly_connected(graph)
        components = sorted(sorted(c) for c in nx.strongly_connected_components(graph))
        assert verdict.strongly_connected == connected
        assert verdict.scc_count == len(components)
        assert verdict.scc_sizes == [len(c) for c in components]
        assert verdict.conclusion == (SUFFICIENT_CONDITION_HOLDS if connected else CONDITION_FAILS)


def test_class_counts(census):
    counts = {"primitive": 0, "periodic": 0, "not strongly connected": 0}
    for _, _, graph in census:
        if not nx.is_strongly_connected(graph):
            counts["not strongly connected"] += 1
        elif nx.is_aperiodic(graph):
            counts["primitive"] += 1
        else:
            counts["periodic"] += 1
    assert counts == {"primitive": 3776, "periodic": 102, "not strongly connected": 2266}


def test_preimage_block_is_the_smallest_block_of_every_edge(census):
    for cfg, blocks, _ in census:
        for x in range(SIZE):
            for y in range(SIZE):
                expected = blocks[x][y][0] if blocks[x][y] else None
                assert preimage_block(cfg, x, y) == expected
