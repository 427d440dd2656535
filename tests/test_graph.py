"""Transition graph construction, SCC decomposition, chaos verdict."""

import tracemalloc

import networkx as nx
import numpy as np
import pytest

from cbcdyn import graph as graph_module
from cbcdyn.cipher import SplitMix64, cipher_from_table, make_cipher
from cbcdyn.dynamics import (
    CONVENTION_PAPER_COMPLEMENT,
    CONVENTION_XOR,
    SystemConfig,
    identity_table,
    next_state_value,
    preimage_block,
)
from cbcdyn.graph import (
    CONDITION_FAILS,
    GRAPH_EDGE_GUARD,
    SUFFICIENT_CONDITION_HOLDS,
    TransitionGraph,
    _cycle_leaders,
    _tarjan,
    _verdict,
    build_graph,
    devaney_verdict,
    graph_to_dot,
    graph_to_json,
    strongly_connected,
)


def oracle_graph(cfg):
    """Brute force: every (state, block) pair, deduplicated per state.

    Returns the sorted rows and, per state, the smallest block of each edge
    in row order: np.unique keeps the first occurrence of each target and
    blocks are scanned in increasing order.
    """
    size = 1 << cfg.n_bits
    mask = size - 1
    blocks = np.arange(size, dtype=np.int64)
    forward = np.asarray(cfg.cipher.forward_table, dtype=np.int64)
    targets, witnesses = [], []
    for x in range(size):
        if cfg.convention == CONVENTION_XOR:
            combined = x ^ blocks
        else:
            combined = (x & blocks) | (cfg.inner_function[x] & (mask ^ blocks))
        row, first = np.unique(forward[combined], return_index=True)
        targets.append(row)
        witnesses.append(blocks[first])
    return targets, witnesses


def gray_cycle_table(n_bits):
    """f(x) = NOT next(x), next stepping along the reflected Gray code's Hamiltonian cycle of the N-cube.

    Each mask x XOR f(x) is all ones but the bit that step flips: weight
    N-1, and N distinct masks.
    """
    size = 1 << n_bits
    code = [i ^ (i >> 1) for i in range(size)]
    table = [0] * size
    for i, x in enumerate(code):
        table[x] = code[(i + 1) % size] ^ (size - 1)
    return tuple(table)


def oracle_configs(n_bits):
    """Every cipher kind, both conventions, and negation, identity, masked, gray-cycle and random inner functions."""
    stream = SplitMix64(1000 + n_bits)
    size = 1 << n_bits
    kinds = [("identity", 0), ("permutation", 5), ("permutation", 11)]
    if n_bits % 2 == 0:
        kinds.append(("feistel", 7))
    configs = []
    for kind, seed in kinds:
        cipher = make_cipher(kind, n_bits, seed=seed)
        shift = stream.next_below(size)
        tables = [
            None,
            identity_table(n_bits),
            tuple(x ^ shift for x in range(size)),
            gray_cycle_table(n_bits),
            tuple(stream.next_below(size) for _ in range(size)),
            tuple(stream.next_below(size) for _ in range(size)),
        ]
        configs.append(SystemConfig(cipher))
        for table in tables:
            configs.append(
                SystemConfig(cipher, inner_function=table, convention=CONVENTION_PAPER_COMPLEMENT)
            )
    return configs


def nx_digraph(rows):
    digraph = nx.DiGraph()
    digraph.add_nodes_from(range(len(rows)))
    for v, row in enumerate(rows):
        digraph.add_edges_from((v, int(w)) for w in row)
    return digraph


def nx_partition(rows):
    return {frozenset(c) for c in nx.strongly_connected_components(nx_digraph(rows))}


def nx_components(rows):
    """networkx's components of the graph with these rows, each ascending, listed by least vertex."""
    return sorted(sorted(c) for c in nx.strongly_connected_components(nx_digraph(rows)))


def scc_partition_brute_force(adjacency):
    """Independent oracle: mutual reachability via BFS transitive closure."""
    n = len(adjacency)

    def reachable(start):
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return seen

    reach = [reachable(v) for v in range(n)]
    components = set()
    for v in range(n):
        members = frozenset(w for w in range(n) if w in reach[v] and v in reach[w])
        components.add(members)
    return components


class TestBuildGraph:
    def test_identity_xor_is_complete_with_xor_witnesses(self):
        cfg = SystemConfig(make_cipher("identity", 2))
        g = build_graph(cfg)
        assert g.is_complete()
        adjacency = graph_to_json(cfg, g)["adjacency"]
        assert adjacency == [{str(y): x ^ y for y in range(4)} for x in range(4)]

    def test_identity_inner_function_gives_self_loops_only(self):
        cfg = SystemConfig(
            make_cipher("identity", 2),
            inner_function=identity_table(2),
            convention=CONVENTION_PAPER_COMPLEMENT,
        )
        g = build_graph(cfg)
        assert g.edge_count == 4
        for x in range(4):
            assert list(g.targets[x]) == [x]

    def test_permutation_seed1_xor_n4_complete(self):
        cfg = SystemConfig(make_cipher("permutation", 4, seed=1))
        assert build_graph(cfg).is_complete()

    @pytest.mark.parametrize("convention", [CONVENTION_XOR, CONVENTION_PAPER_COMPLEMENT])
    @pytest.mark.parametrize("n_bits", [2, 3, 4, 5, 6, 7, 8])
    def test_bijective_ciphers_with_negation_give_complete_graphs(
        self, n_bits, convention
    ):
        kinds = [("identity", 0), ("permutation", 5)]
        if n_bits % 2 == 0:
            kinds.append(("feistel", 7))
        for kind, seed in kinds:
            cfg = SystemConfig(make_cipher(kind, n_bits, seed=seed), convention=convention)
            assert build_graph(cfg).is_complete()

    def test_witness_soundness(self):
        for convention in (CONVENTION_XOR, CONVENTION_PAPER_COMPLEMENT):
            cfg = SystemConfig(
                make_cipher("feistel", 4, seed=6, rounds=3), convention=convention
            )
            adjacency = graph_to_json(cfg, build_graph(cfg))["adjacency"]
            for x, row in enumerate(adjacency):
                for t, w in row.items():
                    assert next_state_value(cfg, x, w) == int(t)

    def test_witness_is_smallest_label(self):
        cfg = SystemConfig(
            make_cipher("identity", 2),
            inner_function=identity_table(2),
            convention=CONVENTION_PAPER_COMPLEMENT,
        )
        adjacency = graph_to_json(cfg, build_graph(cfg))["adjacency"]
        # every block labels the unique self-loop; 0 is the smallest
        assert adjacency == [{str(x): 0} for x in range(4)]

    def test_size_guard(self):
        graph = build_graph(SystemConfig(make_cipher("permutation", 14, seed=1)))
        assert graph.edge_count == 1 << 28
        with pytest.raises(ValueError):
            strongly_connected(graph)
        with pytest.raises(ValueError):
            graph.targets

    def test_graphs_compare_and_hash_by_value(self):
        cfg = SystemConfig(make_cipher("permutation", 4, seed=1))
        graph, same = build_graph(cfg), build_graph(SystemConfig(make_cipher("permutation", 4, seed=1)))
        assert graph == same and hash(graph) == hash(same)
        # the same values in narrower integer dtypes
        narrow = TransitionGraph(graph.n_bits, graph.forward.astype(np.int32), graph.masks.astype(np.uint16))
        assert narrow == graph and hash(narrow) == hash(graph)
        other = build_graph(SystemConfig(make_cipher("permutation", 4, seed=2)))
        functional = build_graph(SystemConfig(cfg.cipher, identity_table(4), CONVENTION_PAPER_COMPLEMENT))
        assert graph != other and graph != functional
        assert len({graph, same, narrow, other, functional}) == 3
        assert graph != (graph.n_bits, graph.forward, graph.masks)
        assert repr(graph) == "TransitionGraph(n_bits=4)"
        # read-only, so the value that is hashed and the edge count kept per graph cannot go stale
        assert not graph.masks.flags.writeable and not graph.forward.flags.writeable

    def test_edge_guard_names_edges_and_cap(self):
        message = f"^the transition graph has {1 << 26} edges; .* GRAPH_EDGE_GUARD = {GRAPH_EDGE_GUARD} edges$"
        graph = build_graph(SystemConfig(make_cipher("identity", 13)))
        with pytest.raises(ValueError, match=message):
            strongly_connected(graph)
        with pytest.raises(ValueError, match=message):
            graph.targets

    def test_partial_mask_verdict_past_the_edge_guard(self):
        # 2^16 rows of 2^9 words: twice the cap, refused before any row is derived
        table = tuple(x ^ 0x1FF for x in range(1 << 16))
        cfg = SystemConfig(make_cipher("permutation", 16, seed=1), table, CONVENTION_PAPER_COMPLEMENT)
        message = f"^the transition graph has {1 << 25} edges; .* GRAPH_EDGE_GUARD = {GRAPH_EDGE_GUARD} edges$"
        with pytest.raises(ValueError, match=message):
            devaney_verdict(cfg)

    def test_edge_guard_refuses_before_any_cycle_is_found(self, monkeypatch):
        def no_cycles(*args):
            raise AssertionError("the edge guard counts the whole graph before any cycle or key")

        monkeypatch.setattr(graph_module, "_cycle_leaders", no_cycles)
        table = tuple(x ^ 0x1FF for x in range(1 << 16))
        cfg = SystemConfig(make_cipher("permutation", 16, seed=1), table, CONVENTION_PAPER_COMPLEMENT)
        message = f"^the transition graph has {1 << 25} edges; .* GRAPH_EDGE_GUARD = {GRAPH_EDGE_GUARD} edges$"
        with pytest.raises(ValueError, match=message):
            devaney_verdict(cfg)
        with pytest.raises(ValueError, match=message):
            strongly_connected(build_graph(cfg))

    def test_edge_guard_equals_the_complete_12_bit_graph(self):
        assert GRAPH_EDGE_GUARD == 4**12
        # a 16-bit graph with 2^8 edges per vertex sits exactly at the cap, and is admitted
        table = tuple(x ^ 0xFF for x in range(1 << 16))
        cfg = SystemConfig(
            make_cipher("permutation", 16, seed=1),
            inner_function=table,
            convention=CONVENTION_PAPER_COMPLEMENT,
        )
        graph = build_graph(cfg)
        assert graph.edge_count == GRAPH_EDGE_GUARD
        assert strongly_connected(graph) == (True, [list(range(1 << 16))])

    def test_worker_partitioning_matches_sequential(self):
        cfg = SystemConfig(make_cipher("feistel", 6, seed=13, rounds=4))
        sequential = build_graph(cfg, workers=1)
        parallel = build_graph(cfg, workers=4)
        for a, b in zip(sequential.targets, parallel.targets):
            assert np.array_equal(a, b)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            build_graph(SystemConfig(make_cipher("identity", 2)), workers=0)

    def test_build_graph_allocates_no_per_edge_array(self):
        cfg = SystemConfig(make_cipher("permutation", 12, seed=1))
        tracemalloc.start()
        try:
            graph = build_graph(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.edge_count == 1 << 24
        # a few per-vertex int64 arrays; one int64 per edge would take 2^27 bytes
        assert peak < 16 * 8 * graph.vertex_count


@pytest.mark.parametrize("n_bits", [1, 2, 3, 4, 5, 6, 7, 8])
class TestAgainstOracle:
    def test_rows_witnesses_and_counts(self, n_bits):
        size = 1 << n_bits
        for cfg in oracle_configs(n_bits):
            rows, _ = oracle_graph(cfg)
            graph = build_graph(cfg)
            targets = graph.targets
            assert len(targets) == graph.vertex_count == len(rows) == size
            for got, want in zip(targets, rows):
                assert np.array_equal(got, want)
            edges = sum(row.size for row in rows)
            assert graph.edge_count == edges
            assert graph.is_complete() == (edges == size * size)

    def test_rows_written_in_small_chunks(self, n_bits, monkeypatch):
        """Batches of 4 words (4 rows of weight 0, down to one row each) give the brute-force rows."""
        monkeypatch.setattr(graph_module, "_ROW_CHUNK", 4)
        for cfg in oracle_configs(n_bits):
            rows, _ = oracle_graph(cfg)
            graph = build_graph(cfg)
            targets = graph.targets
            assert len(targets) == len(rows)
            for got, want in zip(targets, rows):
                assert np.array_equal(got, want)
            assert strongly_connected(graph)[1] == nx_components(rows)
            batches = list(graph_module._row_batches(graph.masks, np.arange(len(rows))))
            assert all(words.size <= 4 or xs.size == 1 for xs, words in batches)
            assert sorted(x for xs, _ in batches for x in xs.tolist()) == list(range(len(rows)))

    def test_every_row_holds_the_cipher_image(self, n_bits):
        # s = 0 lies inside every mask, so x -> E(x) is always an edge
        for cfg in oracle_configs(n_bits):
            graph = build_graph(cfg)
            for x, row in enumerate(graph.targets):
                assert cfg.cipher.forward_table[x] in row.tolist()

    def test_partition_matches_networkx(self, n_bits):
        completeness = set()
        for cfg in oracle_configs(n_bits):
            graph = build_graph(cfg)
            completeness.add(graph.is_complete())
            connected, sccs = strongly_connected(graph)
            assert sccs == nx_components(oracle_graph(cfg)[0])
            assert connected == (len(sccs) == 1)
        # the configurations cover complete graphs and incomplete ones
        assert completeness == {True, False}

    def test_verdict_sizes_follow_tarjan_on_oracle(self, n_bits):
        for cfg in oracle_configs(n_bits):
            rows = [row.tolist() for row in oracle_graph(cfg)[0]]
            sizes = [len(c) for c in sorted(_tarjan(rows), key=min)]
            verdict = devaney_verdict(cfg)
            assert verdict.scc_sizes == sizes
            assert verdict.scc_count == len(sizes)
            assert verdict.strongly_connected == (len(sizes) == 1)
            graph = build_graph(cfg)
            assert _verdict(graph).scc_sizes == [len(c) for c in strongly_connected(graph)[1]]


def oracle_labels(cfg):
    """Per state, a dict from each one-step target to the oracle's smallest block."""
    rows, witnesses = oracle_graph(cfg)
    return [dict(zip(t.tolist(), w.tolist())) for t, w in zip(rows, witnesses)]


@pytest.mark.parametrize("n_bits", [1, 2, 3, 4, 5, 6])
def test_preimage_block_is_the_graph_witness(n_bits):
    # every ordered pair: the oracle's smallest block of the edge, or None off the graph
    size = 1 << n_bits
    for cfg in oracle_configs(n_bits):
        for x, row in enumerate(oracle_labels(cfg)):
            assert [preimage_block(cfg, x, y) for y in range(size)] == [row.get(y) for y in range(size)]


@pytest.mark.parametrize("n_bits", [1, 2, 3, 4, 5, 6])
def test_export_labels_match_oracle(n_bits):
    for cfg in oracle_configs(n_bits):
        labels = oracle_labels(cfg)
        graph = build_graph(cfg)
        assert graph_to_json(cfg, graph)["adjacency"] == [
            {str(t): w for t, w in row.items()} for row in labels
        ]
        edges = [line for line in graph_to_dot(cfg, graph).splitlines() if "->" in line]
        assert edges == [
            f'  v{x} -> v{t} [label="{w:0{n_bits}b}"];'
            for x, row in enumerate(labels)
            for t, w in row.items()
        ]


class TestStronglyConnected:
    def test_complete_digraph(self):
        g = build_graph(SystemConfig(make_cipher("identity", 2)))
        connected, sccs = strongly_connected(g)
        assert connected and len(sccs) == 1

    @pytest.mark.parametrize("n_bits", [1, 3, 6])
    def test_complete_graph_answered_before_any_search(self, n_bits, monkeypatch):
        cfg = SystemConfig(make_cipher("permutation", n_bits, seed=2))
        g = build_graph(cfg)
        assert g.is_complete()
        want = nx_partition(g.targets)

        def no_search(*args):
            raise AssertionError("a complete graph needs no component search")

        # strongly_connected and the verdict decide a complete graph from its masks
        for name in ("_tarjan", "_cycle_leaders", "_row_batches"):
            monkeypatch.setattr(graph_module, name, no_search)
        connected, sccs = strongly_connected(g)
        assert (connected, sccs) == (True, [list(range(1 << n_bits))])
        assert {frozenset(c) for c in sccs} == want
        assert devaney_verdict(cfg).scc_sizes == [1 << n_bits]

    def test_complete_graph_at_the_edge_guard_answered_before_any_search(self, monkeypatch):
        # the 12-bit identity cipher under xor: 2^24 edges, admitted at the cap
        graph = build_graph(SystemConfig(make_cipher("identity", 12)))
        assert graph.edge_count == GRAPH_EDGE_GUARD

        def no_search(*args):
            raise AssertionError("a complete graph needs no component search")

        for name in ("_tarjan", "_cycle_leaders", "_row_batches"):
            monkeypatch.setattr(graph_module, name, no_search)
        assert strongly_connected(graph) == (True, [list(range(1 << 12))])

    def test_connected_graph_gives_ascending_component(self):
        assert [sorted(c) for c in _tarjan([[2], [0], [3], [1]])] == [[0, 1, 2, 3]]

    def test_forward_reach_without_backward_reach(self):
        # 0 reaches every vertex, but nothing leads back to 0
        sccs = _tarjan([[1, 2, 3], [2], [3], [1]])
        assert {frozenset(c) for c in sccs} == {frozenset([0]), frozenset([1, 2, 3])}

    def test_self_loops_only(self):
        sccs = _tarjan([[0], [1], [2], [3]])
        assert sorted(len(c) for c in sccs) == [1, 1, 1, 1]

    def test_two_cycle_plus_isolated(self):
        sccs = _tarjan([[1], [0], [2], [3]])
        assert len(sccs) == 3
        assert sorted(len(c) for c in sccs) == [1, 1, 2]

    def test_partition_covers_all_vertices(self):
        g = build_graph(SystemConfig(make_cipher("permutation", 4, seed=7)))
        _, sccs = strongly_connected(g)
        flat = sorted(v for c in sccs for v in c)
        assert flat == list(range(16))

    def test_against_brute_force_on_random_graphs(self):
        stream = SplitMix64(99)
        for _ in range(40):
            n = 8
            adjacency = [
                sorted({stream.next_below(n) for _ in range(stream.next_below(4))})
                for _ in range(n)
            ]
            sccs = _tarjan(adjacency)
            assert {frozenset(c) for c in sccs} == scc_partition_brute_force(adjacency)


class TestDevaneyVerdict:
    def test_bijective_negation_holds(self):
        for convention in (CONVENTION_XOR, CONVENTION_PAPER_COMPLEMENT):
            cfg = SystemConfig(make_cipher("permutation", 4, seed=2), convention=convention)
            verdict = devaney_verdict(cfg)
            assert verdict.strongly_connected
            assert verdict.scc_count == 1
            assert verdict.conclusion == SUFFICIENT_CONDITION_HOLDS

    def test_degenerate_inner_function_fails(self):
        cfg = SystemConfig(
            make_cipher("identity", 2),
            inner_function=identity_table(2),
            convention=CONVENTION_PAPER_COMPLEMENT,
        )
        verdict = devaney_verdict(cfg)
        assert not verdict.strongly_connected
        assert verdict.scc_count == 4
        assert verdict.scc_sizes == [1, 1, 1, 1]
        assert verdict.conclusion == CONDITION_FAILS

    def test_conclusion_tracks_scc_count(self):
        for seed in range(5):
            cfg = SystemConfig(make_cipher("permutation", 3, seed=seed))
            verdict = devaney_verdict(cfg)
            assert (verdict.scc_count == 1) == (
                verdict.conclusion == SUFFICIENT_CONDITION_HOLDS
            )

    def test_complete_16_bit_graph_is_decided_without_materialising(self):
        cfg = SystemConfig(make_cipher("permutation", 16, seed=1))
        graph = build_graph(cfg)
        assert (graph.vertex_count, graph.edge_count, graph.is_complete()) == (1 << 16, 1 << 32, True)
        verdict = devaney_verdict(cfg)
        assert verdict.scc_sizes == [1 << 16]
        assert verdict.conclusion == SUFFICIENT_CONDITION_HOLDS

    def test_functional_14_bit_graph_has_one_scc_per_cycle(self):
        cipher = make_cipher("permutation", 14, seed=4)
        cfg = SystemConfig(
            cipher, inner_function=identity_table(14), convention=CONVENTION_PAPER_COMPLEMENT
        )
        seen, cycles = set(), []
        for start in range(1 << 14):
            length, x = 0, start
            while x not in seen:
                seen.add(x)
                x = cipher.forward_table[x]
                length += 1
            if length:
                cycles.append(length)
        verdict = devaney_verdict(cfg)
        assert sorted(verdict.scc_sizes) == sorted(cycles)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            devaney_verdict(SystemConfig(make_cipher("identity", 2)), workers=0)

    def test_sizes_sum_to_vertex_count(self):
        cfg = SystemConfig(
            make_cipher("permutation", 4, seed=3),
            inner_function=identity_table(4),
            convention=CONVENTION_PAPER_COMPLEMENT,
        )
        verdict = devaney_verdict(cfg)
        assert sum(verdict.scc_sizes) == 16


def functional_configs(n_bits):
    """Empty-mask configs: the identity inner function over each cipher kind and a few seeds."""
    kinds = [("identity", 0)] + [("permutation", seed) for seed in (1, 2, 9)]
    if n_bits % 2 == 0:
        kinds += [("feistel", seed) for seed in (3, 8)]
    return [
        SystemConfig(
            make_cipher(kind, n_bits, seed=seed),
            inner_function=identity_table(n_bits),
            convention=CONVENTION_PAPER_COMPLEMENT,
        )
        for kind, seed in kinds
    ]


class TestEmptyMaskClosedForm:
    @pytest.mark.parametrize("n_bits", [*range(1, 11), 12])
    def test_cycles_match_tarjan_order_and_networkx_sets(self, n_bits):
        for cfg in functional_configs(n_bits):
            graph = build_graph(cfg)
            leader = _cycle_leaders(np.asarray(cfg.cipher.forward_table))
            cycles = [np.flatnonzero(leader == v).tolist() for v in np.unique(leader)]
            assert strongly_connected(graph) == (len(cycles) == 1, cycles)
            assert devaney_verdict(cfg).scc_sizes == [len(c) for c in cycles]
            assert {frozenset(c) for c in cycles} == nx_partition(graph.targets)

    @pytest.mark.parametrize("n_bits", [3, 8, 16])
    def test_strongly_connected_lists_the_cycles_without_rows(self, n_bits, monkeypatch):
        def no_rows(*args):
            raise AssertionError("an empty-mask graph needs no row and no Tarjan")

        for name in ("_row_batches", "_tarjan"):
            monkeypatch.setattr(graph_module, name, no_rows)
        for cfg in functional_configs(n_bits):
            cycles = {}
            for x, least in enumerate(cycle_ids(cfg.cipher.forward_table)):
                cycles.setdefault(least, []).append(x)
            want = list(cycles.values())
            assert strongly_connected(build_graph(cfg)) == (len(want) == 1, want)
            if cfg.cipher.kind == "identity":
                # the identity cipher fixes every word: 2^N singletons
                assert want == [[x] for x in range(1 << n_bits)]

    def test_verdict_builds_no_graph(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an empty-mask verdict needs no graph")

        for name in ("build_graph", "strongly_connected", "_row_batches"):
            monkeypatch.setattr(graph_module, name, refuse)
        for cfg in functional_configs(12):
            assert sum(devaney_verdict(cfg).scc_sizes) == 1 << 12


def dense_mask_graphs():
    """Mask graphs: f(x) = x XOR c for several c, and random inner functions.

    Under the identity cipher the x XOR c graphs split into cosets of c's bits.
    """
    configs = []
    for n_bits, kind, seed in [(6, "identity", 0), (6, "permutation", 1), (8, "permutation", 4)]:
        cipher = make_cipher(kind, n_bits, seed=seed)
        stream = SplitMix64(seed)
        size = 1 << n_bits
        tables = [tuple(x ^ c for x in range(size)) for c in (1, 0b101, size >> 1 | 3)]
        tables += [tuple(stream.next_below(size) for _ in range(size)) for _ in range(3)]
        configs += [SystemConfig(cipher, t, CONVENTION_PAPER_COMPLEMENT) for t in tables]
    return [build_graph(cfg) for cfg in configs]


def test_dense_mask_components_match_networkx():
    for graph in dense_mask_graphs():
        assert strongly_connected(graph)[1] == nx_components(graph.targets)


@pytest.mark.parametrize("n_bits", [1, 2, 5, 8])
def test_identity_cipher_shapes_match_networkx(n_bits):
    """Under the identity cipher, f = 0 leaves 2^N singletons and f(x) = x XOR c the cosets of c."""
    size = 1 << n_bits
    c = size >> 1 | 1
    inside = [s for s in range(size) if s & c == s]
    cosets = sorted(sorted(x ^ s for s in inside) for x in range(size) if x & c == 0)
    cipher = make_cipher("identity", n_bits)
    shapes = [((0,) * size, [[x] for x in range(size)]), ([x ^ c for x in range(size)], cosets)]
    for table, want in shapes:
        graph = build_graph(SystemConfig(cipher, table, CONVENTION_PAPER_COMPLEMENT))
        assert strongly_connected(graph) == (len(want) == 1, want)
        assert want == nx_components(graph.targets)


def cycle_ids(forward):
    """The least state on each state's cycle of the permutation ``forward``, by walking it."""
    ids = [-1] * len(forward)
    for start in range(len(forward)):
        x = start
        while ids[x] == -1:
            ids[x] = start
            x = forward[x]
    return ids


def streamed_rows(monkeypatch):
    """Spy on ``_row_batches``: the returned list collects every row it streams."""
    real, rows = graph_module._row_batches, []

    def spy(masks, xs):
        for batch, words in real(masks, xs):
            rows.extend(batch.tolist())
            yield batch, words

    monkeypatch.setattr(graph_module, "_row_batches", spy)
    return rows


class TestRowDedupe:
    """The verdict derives one row per distinct (cycle, mask, coset) triple."""

    def test_one_row_per_triple_on_the_benchmark_shape(self, monkeypatch):
        n_bits, c = 12, 0b101101100100
        assert c.bit_count() == 6
        rows = streamed_rows(monkeypatch)
        for seed in (1, 2, 3):
            cipher = make_cipher("permutation", n_bits, seed=seed)
            cfg = SystemConfig(cipher, tuple(x ^ c for x in range(1 << n_bits)), CONVENTION_PAPER_COMPLEMENT)
            cycle = cycle_ids(cipher.forward_table)
            triples = {(cycle[x], c, x & ~c) for x in range(1 << n_bits)}
            rows.clear()
            connected, sccs = strongly_connected(build_graph(cfg))
            assert len(rows) == len({(cycle[x], c, x & ~c) for x in rows}) == len(triples)
            assert len(rows) < 1 << n_bits
            assert (connected, sccs) == (True, [list(range(1 << n_bits))])
        assert sccs == nx_components(oracle_graph(cfg)[0])

    @pytest.mark.parametrize("forward, inner, want", [
        # states 0 and 1 share mask 001 and coset 000 on the cycles (0 4) and (1); so do 2 and 3, 6 and 7
        ((4, 1, 2, 3, 0, 5, 6, 7), tuple(x ^ 1 for x in range(8)), [[0, 1, 4, 5], [2, 3], [6, 7]]),
        # states 0 and 1 share the cycle (0 1) and coset 00 under masks 00 and 11: only 1's row leaves the cycle
        ((1, 0, 2, 3), (0, 2, 0, 2), [[0, 1, 2, 3]]),
    ])
    def test_hand_built_collisions_match_networkx(self, forward, inner, want):
        n_bits = len(forward).bit_length() - 1
        cfg = SystemConfig(cipher_from_table(forward, n_bits), inner, CONVENTION_PAPER_COMPLEMENT)
        assert nx_components(oracle_graph(cfg)[0]) == want
        assert strongly_connected(build_graph(cfg)) == (len(want) == 1, want)
        assert devaney_verdict(cfg).scc_sizes == [len(c) for c in want]

    def test_cap_partition_from_one_row_per_cycle_and_coset(self, monkeypatch):
        table = tuple(x ^ 0xFF for x in range(1 << 16))
        cfg = SystemConfig(make_cipher("permutation", 16, seed=1), table, CONVENTION_PAPER_COMPLEMENT)
        graph = build_graph(cfg)
        cycles = len(set(cycle_ids(cfg.cipher.forward_table)))
        rows = streamed_rows(monkeypatch)
        tracemalloc.start()
        try:
            result = strongly_connected(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.edge_count == GRAPH_EDGE_GUARD
        assert result == (True, [list(range(1 << 16))])
        # 256 cosets of the mask per cycle, at most
        assert len(rows) <= cycles * 256
        # a few per-vertex int64 arrays; one int64 per edge would take 2^27 bytes
        assert peak < 16 * 8 * graph.vertex_count


class TestExports:
    def test_dot_contains_vertices_and_labels(self):
        cfg = SystemConfig(make_cipher("identity", 2))
        dot = graph_to_dot(cfg, build_graph(cfg))
        assert dot.startswith("digraph")
        assert 'v0 [label="00"];' in dot
        assert 'v0 -> v3 [label="11"];' in dot

    def test_json_adjacency_shape(self):
        cfg = SystemConfig(make_cipher("identity", 2))
        data = graph_to_json(cfg, build_graph(cfg))
        assert data["n_bits"] == 2
        assert len(data["adjacency"]) == 4
        assert data["adjacency"][0]["3"] == 3  # the block for 0 -> 3 under xor
