"""Transition graph of the one-block state map, and the chaos certificate.

Vertices are all N-bit words; there is an edge x -> y labeled m whenever
consuming block m in state x yields state y. Strong connectivity of this
graph is a sufficient condition for the mode to be chaotic (it forces both
strong transitivity and dense periodic points), so the verdict reported
here is one-directional: a failed check never asserts non-chaos.

The graph has a closed form, so no (state, block) pair is enumerated.
The mask d_x = x XOR f(x) holds the bits a block can steer from state x
(all ones under ``xor``, whose inner function is the negation), so the
out-neighbours of x are exactly E(x XOR s) over the subcube of words s
inside d_x. Hence the graph has sum_x 2^popcount(d_x) edges, and it is
complete iff every mask is full. A graph stores its rows only: the block
labelling an edge x -> y in the exports is ``dynamics.preimage_block``,
the inverse of the combining rule ``dynamics.combine``.

Both extremes are decided from the masks alone: with every mask full the
graph is one component, and with every mask empty it is the functional
graph of the permutation E, whose components are E's cycles (found by
pointer doubling). Any other graph is materialised row by row from the
closed form, so the work tracks its real edge count. Every row x holds
E(x), as s = 0 lies inside every mask, so each cycle of E lies inside one
component, and an iterative Tarjan (1972) runs on the far smaller graph
of E's cycles. Components are listed by least vertex, each ascending, as
in the empty-mask closed form. Materialising is refused past
GRAPH_EDGE_GUARD edges. Everything runs in one thread: ``workers`` is
validated and never changes results or work.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import SystemConfig, preimage_block

GRAPH_EDGE_GUARD = 1 << 24  # 4^12, the complete 12-bit graph
_ROW_CHUNK = 1 << 16  # edges per chunk of rows in build_graph; no temporary outgrows it

SUFFICIENT_CONDITION_HOLDS = "sufficient-condition-holds"
CONDITION_FAILS = "condition-fails"


@dataclass(frozen=True)
class TransitionGraph:
    """Deduplicated adjacency of the one-step state map, as CSR arrays.

    Row x, ``indices[indptr[x]:indptr[x + 1]]``, is the sorted array of the
    states reachable from x in one step; it holds E(x) = ``forward[x]``.
    No block labels are stored; ``preimage_block`` gives them.
    """

    n_bits: int
    forward: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def vertex_count(self) -> int:
        return 1 << self.n_bits

    @property
    def targets(self) -> tuple:
        """Row x of the graph, as a view into ``indices``, for every x."""
        return tuple(np.split(self.indices, self.indptr[1:-1]))

    @property
    def edge_count(self) -> int:
        return int(self.indices.size)

    def is_complete(self) -> bool:
        """True iff every ordered pair of vertices is an edge."""
        return self.edge_count == self.vertex_count**2


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError("workers must be >= 1")


def _transition_masks(cfg: SystemConfig) -> np.ndarray:
    """d_x = x XOR f(x) for every state x: the bits a block can steer from x."""
    inner = np.asarray(cfg.inner_function)
    return np.arange(inner.size) ^ inner


def graph_summary(cfg: SystemConfig) -> dict:
    """Vertex count, edge count and completeness, read off the masks alone."""
    masks = _transition_masks(cfg)
    return {
        "vertex_count": int(masks.size),
        "edge_count": _edge_count(masks),
        "complete": _all_full(masks),
    }


def _edge_count(masks: np.ndarray) -> int:
    return int(np.sum(np.left_shift(1, np.bitwise_count(masks).astype(np.int64))))


def _all_full(masks: np.ndarray) -> bool:
    return bool(np.all(masks == masks.size - 1))


def _subcubes(masks: np.ndarray, weight: int) -> np.ndarray:
    """Row i lists the 2^weight words inside masks[i], each of that weight.

    Word j of a row holds the i-th lowest mask bit iff bit i of j is set.
    """
    cube = np.zeros((masks.size, 1), dtype=np.int64)
    rest = masks.copy()
    for _ in range(weight):
        low = rest & -rest
        rest ^= low
        cube = np.hstack((cube, cube | low[:, None]))
    return cube


def build_graph(cfg: SystemConfig, workers: int = 1) -> TransitionGraph:
    """Materialise every row from the closed form; refused past GRAPH_EDGE_GUARD edges."""
    _check_workers(workers)
    n_bits = cfg.n_bits
    masks = _transition_masks(cfg)
    edges = _edge_count(masks)
    if edges > GRAPH_EDGE_GUARD:
        raise ValueError(
            f"the transition graph has {edges} edges; materialising it is capped "
            f"at GRAPH_EDGE_GUARD = {GRAPH_EDGE_GUARD} edges"
        )
    forward = cfg.cipher.forward
    weights = np.bitwise_count(masks)
    indptr = np.concatenate(([0], np.cumsum(np.left_shift(1, weights.astype(np.int64)))))
    indices = np.empty(edges, dtype=np.int64)
    for weight in np.unique(weights).tolist():
        cube = np.arange(1 << weight)
        members = np.flatnonzero(weights == weight)
        per_chunk = max(1, _ROW_CHUNK >> weight)
        for start in range(0, members.size, per_chunk):
            xs = members[start : start + per_chunk]
            if weight == n_bits:
                rows = cube
            else:
                rows = np.sort(forward[xs[:, None] ^ _subcubes(masks[xs], weight)], axis=1)
            indices[indptr[xs, None] + cube] = rows
    return TransitionGraph(n_bits=n_bits, forward=forward, indptr=indptr, indices=indices)


def _tarjan(rows: list) -> list:
    """Tarjan SCC decomposition with an explicit stack (no recursion).

    Returns the components as vertex lists in the order Tarjan emits them
    (reverse topological).
    """
    n = len(rows)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    scc_stack = []
    sccs = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        frames = [[root, 0]]
        while frames:
            v, pos = frames[-1]
            if pos == 0:
                index[v] = low[v] = counter
                counter += 1
                scc_stack.append(v)
                on_stack[v] = True
            row = rows[v]
            descended = False
            row_len = len(row)
            while pos < row_len:
                w = row[pos]
                pos += 1
                if index[w] == -1:
                    frames[-1][1] = pos
                    frames.append([w, 0])
                    descended = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if descended:
                continue
            frames.pop()
            if frames:
                parent = frames[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                component = []
                while True:
                    w = scc_stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                sccs.append(component)

    return sccs


def strongly_connected(graph: TransitionGraph):
    """Returns (is_strongly_connected, sccs), sccs listed by least vertex, each ascending.

    A complete graph is answered from its edge count alone. Any other is
    decomposed by Tarjan on the graph of E's cycles: one node per cycle,
    an edge wherever an edge of the graph joins two cycles.
    """
    n = graph.vertex_count
    if graph.is_complete():
        return True, [list(range(n))]
    leader = _cycle_leaders(graph.forward)
    # cycles numbered by their least vertex; u * n + w codes an edge from cycle u to cycle w
    cycle = np.cumsum(leader == np.arange(n))[leader] - 1
    codes = np.sort(np.repeat(cycle * n, np.diff(graph.indptr)) + cycle[graph.indices])
    codes = codes[np.diff(codes, prepend=-1) > 0]
    bounds = np.searchsorted(codes, np.arange(1, cycle.max() + 1) * n)
    rows = [row.tolist() for row in np.split(codes % n, bounds)]
    members = [[] for _ in rows]
    for x, c in enumerate(cycle.tolist()):
        members[c].append(x)
    sccs = sorted(sorted(x for c in cycles for x in members[c]) for cycles in _tarjan(rows))
    return len(sccs) == 1, sccs


@dataclass(frozen=True)
class DevaneyVerdict:
    """Outcome of the sufficient-condition check."""

    strongly_connected: bool
    scc_count: int
    scc_sizes: list
    conclusion: str

    def to_json(self) -> dict:
        return asdict(self)


def _cycle_leaders(forward: np.ndarray) -> np.ndarray:
    """leader[x] is the least vertex on x's cycle of the permutation ``forward``."""
    leader = np.arange(forward.size)
    # pointer doubling: after round k, leader[x] is the least of x's first 2^k iterates
    for _ in range(forward.size.bit_length() - 1):
        leader = np.minimum(leader, leader[forward])
        forward = forward[forward]
    return leader


def devaney_verdict(cfg: SystemConfig, workers: int = 1) -> DevaneyVerdict:
    """Decide the certificate, in closed form when every mask is full or every mask is empty.

    ``condition-fails`` means only that this sufficient condition did not
    certify chaos, not that the system is non-chaotic.
    """
    _check_workers(workers)
    masks = _transition_masks(cfg)
    if _all_full(masks):
        sizes = [int(masks.size)]
    elif masks.any():
        sizes = [len(c) for c in strongly_connected(build_graph(cfg, workers=workers))[1]]
    else:
        # one component per cycle of E, listed by least vertex as strongly_connected lists them
        sizes = np.bincount(_cycle_leaders(cfg.cipher.forward))
        sizes = sizes[sizes > 0].tolist()
    connected = len(sizes) == 1
    return DevaneyVerdict(
        strongly_connected=connected,
        scc_count=len(sizes),
        scc_sizes=sizes,
        conclusion=SUFFICIENT_CONDITION_HOLDS if connected else CONDITION_FAILS,
    )


def graph_to_json(cfg: SystemConfig, graph: TransitionGraph) -> dict:
    """Adjacency of ``build_graph(cfg)`` with ``preimage_block`` edge labels, JSON-ready."""
    return {
        "n_bits": graph.n_bits,
        "adjacency": [
            {str(t): preimage_block(cfg, x, t) for t in row.tolist()}
            for x, row in enumerate(graph.targets)
        ],
    }


def graph_to_dot(cfg: SystemConfig, graph: TransitionGraph) -> str:
    """DOT rendering of ``build_graph(cfg)``; names and edge labels are bit strings."""
    width = graph.n_bits
    lines = ["digraph transitions {"]
    for v in range(graph.vertex_count):
        lines.append(f'  v{v} [label="{v:0{width}b}"];')
    for v, row in enumerate(graph.targets):
        for t in row.tolist():
            lines.append(f'  v{v} -> v{t} [label="{preimage_block(cfg, v, t):0{width}b}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
