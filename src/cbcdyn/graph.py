"""Transition graph of the one-block state map, and the chaos certificate.

Vertices are all N-bit words; there is an edge x -> y labeled m whenever
consuming block m in state x yields state y. Strong connectivity of this
graph is a sufficient condition for the mode to be chaotic (it forces both
strong transitivity and dense periodic points), so the verdict reported
here is one-directional: a failed check never asserts non-chaos.

The graph is its closed form, so no (state, block) pair is enumerated and
no row is stored. The mask d_x = x XOR f(x) holds the bits a block can
steer from state x (all ones under ``xor``, whose inner function is the
negation), so the out-neighbours of x are exactly E(x XOR s) over the
subcube of words s inside d_x. Hence the graph has sum_x 2^popcount(d_x)
edges, and it is complete iff every mask is full. A ``TransitionGraph``
holds E and the masks only; its rows are derived batch by batch where
they are read, which is refused past GRAPH_EDGE_GUARD edges. The block
labelling an edge x -> y in the exports is ``dynamics.preimage_block``,
the inverse of the combining rule ``dynamics.combine_rule``.

One labelling, ``_component_labels``, answers every component question:
one label per vertex and per component, rising with the component's
least vertex. With every mask full the graph is one component, and with
every mask empty it is the functional graph of the permutation E, whose
components are E's cycles (found by pointer doubling). Any other graph
is decomposed on the far smaller graph of E's cycles. Every row x holds
E(x), as s = 0 lies inside every mask, so each cycle of E lies inside
one component. E keeps every word on its cycle, so the edge
x -> E(x XOR s) joins the cycles of x and x XOR s, and an iterative
Tarjan (1972) runs on these cycle-to-cycle edges, streamed batch by
batch: one row per distinct (cycle, mask d, coset x & ~d), since such
states share the words x XOR s. The verdict counts the labels, and
``strongly_connected`` sorts the vertices by them. The edge guard counts
the whole graph. Everything runs in one thread: ``build_graph``'s
``workers`` is validated and never changes results or work.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field

import numpy as np

from .cipher import _lookup
from .dynamics import SystemConfig, preimage_block

GRAPH_EDGE_GUARD = 1 << 24  # 4^12, the complete 12-bit graph
_ROW_CHUNK = 1 << 16  # words per row batch; no temporary outgrows it

SUFFICIENT_CONDITION_HOLDS = "sufficient-condition-holds"
CONDITION_FAILS = "condition-fails"


@dataclass(frozen=True)
class TransitionGraph:
    """The one-step state map in closed form: row x is E(x XOR s) for every s inside ``masks[x]``.

    No row and no block label is stored: ``targets`` derives the rows on
    each read, and ``preimage_block`` gives the labels. Two graphs are
    equal, and hash alike, when their width, E and masks agree as int64.
    """

    n_bits: int
    forward: np.ndarray = field(repr=False)
    masks: np.ndarray = field(repr=False)

    def _value(self) -> tuple:
        return self.n_bits, self.forward.astype(np.int64).tobytes(), self.masks.astype(np.int64).tobytes()

    def __eq__(self, other):
        return self._value() == other._value() if isinstance(other, TransitionGraph) else NotImplemented

    def __hash__(self):
        return hash(self._value())

    @property
    def vertex_count(self) -> int:
        return 1 << self.n_bits

    @property
    def targets(self) -> tuple:
        """Row x, the sorted array of the states reachable from x in one step, for every x."""
        _check_edge_guard(self)
        rows = [None] * self.vertex_count
        for xs, words in _row_batches(self.masks, np.arange(self.vertex_count)):
            for x, row in zip(xs.tolist(), np.sort(self.forward[words], axis=1)):
                rows[x] = row
        return tuple(rows)

    @functools.cached_property
    def edge_count(self) -> int:
        return int(np.sum(np.left_shift(1, np.bitwise_count(self.masks).astype(np.int64))))

    def is_complete(self) -> bool:
        """True iff every ordered pair of vertices is an edge."""
        return _all_full(self.masks)


def _transition_masks(cfg: SystemConfig) -> np.ndarray:
    """d_x = x XOR f(x) for every state x: the bits a block can steer from x, read-only."""
    inner = np.asarray(cfg.inner_function)
    return _lookup(np.arange(inner.size) ^ inner)


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


def _check_edge_guard(graph: TransitionGraph) -> None:
    """Refuse a graph past GRAPH_EDGE_GUARD edges, counted over all its rows."""
    edges = graph.edge_count
    if edges > GRAPH_EDGE_GUARD:
        raise ValueError(
            f"the transition graph has {edges} edges; materialising it is capped "
            f"at GRAPH_EDGE_GUARD = {GRAPH_EDGE_GUARD} edges"
        )


def _row_batches(masks: np.ndarray, rows: np.ndarray):
    """Yield (xs, words) over the given rows: words[i] holds x XOR s for x = xs[i] and every s inside its mask.

    Row x of the graph is E of these words. Rows of one mask weight share
    a batch of at most _ROW_CHUNK words, or one row past that. Callers
    check the edge guard on the whole graph first.
    """
    weights = np.bitwise_count(masks[rows])
    for weight in np.unique(weights).tolist():
        members = rows[weights == weight]
        per_chunk = max(1, _ROW_CHUNK >> weight)
        for start in range(0, members.size, per_chunk):
            xs = members[start : start + per_chunk]
            yield xs, xs[:, None] ^ _subcubes(masks[xs], weight)


def build_graph(cfg: SystemConfig, workers: int = 1) -> TransitionGraph:
    """The closed form of ``cfg``'s graph, E and the masks; no row is derived here."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return TransitionGraph(n_bits=cfg.n_bits, forward=cfg.cipher.forward, masks=_transition_masks(cfg))


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
        frames = [[root, None]]
        while frames:
            v, successors = frames[-1]
            if successors is None:
                index[v] = low[v] = counter
                counter += 1
                scc_stack.append(v)
                on_stack[v] = True
                successors = frames[-1][1] = iter(rows[v])
            for w in successors:
                if index[w] == -1:
                    frames.append([w, None])
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                frames.pop()
                if frames and low[v] < low[frames[-1][0]]:
                    low[frames[-1][0]] = low[v]
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


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct values of ``codes``, ascending."""
    codes = np.sort(codes, axis=None)
    return codes[np.concatenate(([True], codes[1:] != codes[:-1]))]


def _component_labels(graph: TransitionGraph) -> np.ndarray:
    """One label per vertex, one per strongly connected component, rising with the component's least vertex.

    Full masks give zeros and empty masks E's cycle leaders. Any other
    graph is refused past the edge guard before any cycle is found.
    """
    n, masks = graph.vertex_count, graph.masks
    if _all_full(masks):
        return np.zeros(n, dtype=np.int64)
    if not masks.any():
        return _cycle_leaders(graph.forward)
    _check_edge_guard(graph)
    leader = _cycle_leaders(graph.forward)
    # cycles numbered by their least vertex; u * n + w codes an edge from cycle u to cycle w
    cycle = np.cumsum(leader == np.arange(n))[leader] - 1
    count = int(cycle.max()) + 1
    _, firsts = np.unique((cycle * n + masks) * n + (np.arange(n) & ~masks), return_index=True)
    codes = _distinct(np.concatenate([
        _distinct(cycle[xs, None] * n + cycle[words]) for xs, words in _row_batches(masks, firsts)
    ]))
    bounds = np.searchsorted(codes, np.arange(1, count) * n)
    # each component labelled by its least cycle, and so rising with its least vertex
    label = np.empty(count, dtype=np.int64)
    for cycles in _tarjan([row.tolist() for row in np.split(codes % n, bounds)]):
        label[cycles] = min(cycles)
    return label[cycle]


def strongly_connected(graph: TransitionGraph):
    """Returns (is_strongly_connected, sccs), sccs listed by least vertex, each ascending.

    Any graph past GRAPH_EDGE_GUARD edges is refused first, also where
    ``_component_labels`` answers from the masks alone.
    """
    _check_edge_guard(graph)
    label = _component_labels(graph)
    sizes = np.bincount(label)
    # the stable sort keeps each component ascending
    sccs = [c.tolist() for c in np.split(np.argsort(label, kind="stable"), np.cumsum(sizes[sizes > 0])[:-1])]
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


def devaney_verdict(cfg: SystemConfig) -> DevaneyVerdict:
    """Decide the certificate, in closed form when every mask is full or every mask is empty.

    ``condition-fails`` means only that this sufficient condition did not
    certify chaos, not that the system is non-chaotic.
    """
    return _verdict(build_graph(cfg))


def _verdict(graph: TransitionGraph) -> DevaneyVerdict:
    """``devaney_verdict`` of a graph already built, from its component labels."""
    sizes = np.bincount(_component_labels(graph))
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
