"""Output checks, made apart from cbcdyn.

Each check compares a job's exported output with a computation of the
benchmark's own (a few-line state map over the cipher table, cycle
decomposition, forward and backward BFS, closed-form counts) or with a
property the method must have. None compares against a stored copy.

A check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm, log

XOR = "xor"


def _word_mask(n_bits: int) -> int:
    return (1 << n_bits) - 1


def bijection_problems(jobs) -> list:
    """The cipher tables the state map reads must be bijections; each is checked once."""
    tables = {id(job.inputs["table"]): job.inputs for job in jobs if "table" in job.inputs}
    return [
        f"cipher table of {inputs['n_bits']}-bit job is not a bijection"
        for inputs in tables.values()
        if sorted(inputs["table"]) != list(range(1 << inputs["n_bits"]))
    ]


def own_step(table, inner, convention: str, n_bits: int, x: int, m: int) -> int:
    """One CBC step: E(x ^ m), or E(F_f(x, m)) under paper-complement."""
    if convention == XOR:
        return table[x ^ m]
    return table[(x & m) | (inner[x] & ~m & _word_mask(n_bits))]


def own_block(prefix, cycle, i: int) -> int:
    return prefix[i] if i < len(prefix) else cycle[(i - len(prefix)) % len(cycle)]


def own_states(table, inner, convention, n_bits, state, prefix, cycle, steps) -> list:
    """States at times 0..steps of the orbit of (state, prefix + cycle^inf)."""
    states = [state]
    for i in range(steps):
        state = own_step(table, inner, convention, n_bits, state, own_block(prefix, cycle, i))
        states.append(state)
    return states


def _parse_point(data: dict):
    return (
        int(data["state"], 2),
        [int(b, 2) for b in data["prefix"]],
        [int(b, 2) for b in data["cycle"]],
    )


def _same_blocks(a_prefix, a_cycle, a_from: int, b_prefix, b_cycle, b_from: int) -> bool:
    """Whether two eventually periodic sequences agree from the given offsets on."""
    horizon = max(len(a_prefix), len(b_prefix)) + lcm(len(a_cycle), len(b_cycle))
    return all(
        own_block(a_prefix, a_cycle, a_from + i) == own_block(b_prefix, b_cycle, b_from + i)
        for i in range(horizon)
    )


def _report(files: dict, name: str) -> dict:
    return json.loads(files[name])


# ---------------------------------------------------------------- certificate


def expected_edge_count(n_bits: int, inner, convention: str) -> int:
    """sum over x of 2^popcount(x ^ f(x)); every block is distinct under xor."""
    if convention == XOR:
        return 4 ** n_bits
    return sum(1 << (x ^ inner[x]).bit_count() for x in range(1 << n_bits))


def cycle_lengths(table) -> list:
    seen = [False] * len(table)
    lengths = []
    for start in range(len(table)):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = table[x]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def check_graph_dense(job_inputs: dict, files: dict) -> list:
    n = job_inputs["n_bits"]
    r = _report(files, "graph-report.json")["results"]
    problems = []
    if r["edge_count"] != expected_edge_count(n, None, XOR):
        problems.append(f"dense graph has {r['edge_count']} edges, expected {4 ** n}")
    if r["vertex_count"] != 1 << n:
        problems.append("dense graph vertex count is wrong")
    if not (r["complete"] and r["strongly_connected"] and r["scc_count"] == 1):
        problems.append("a complete graph must be one strongly connected component")
    return problems


def check_graph_functional(job_inputs: dict, files: dict) -> list:
    n, table = job_inputs["n_bits"], job_inputs["table"]
    r = _report(files, "graph-report.json")["results"]
    problems = []
    identity = list(range(1 << n))
    expected = expected_edge_count(n, identity, "paper-complement")
    if r["edge_count"] != expected:
        problems.append(f"functional graph has {r['edge_count']} edges, expected {expected}")
    cycles = sorted(cycle_lengths(table))
    if sorted(r["scc_sizes"]) != cycles:
        problems.append("SCC sizes differ from the cycle lengths of the cipher")
    if r["scc_count"] != len(cycles) or r["strongly_connected"] != (len(cycles) == 1):
        problems.append("SCC count or verdict disagrees with the cycles of the cipher")
    return problems


def own_neighbourhoods(table, n_bits: int, mask: int) -> list:
    """Out-neighbours of x under f(x) = x ^ mask: E(x ^ s) over the subcube s of mask."""
    subcube = [s for s in range(1 << n_bits) if s & ~mask == 0]
    return [sorted({table[x ^ s] for s in subcube}) for x in range(1 << n_bits)]


def reaches_all(adjacency, start: int = 0) -> bool:
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == len(adjacency)


def strongly_connected_by_bfs(adjacency) -> bool:
    """Forward and backward reachability from vertex 0."""
    reverse = [[] for _ in adjacency]
    for v, row in enumerate(adjacency):
        for w in row:
            reverse[w].append(v)
    return reaches_all(adjacency) and reaches_all(reverse)


def check_graph_mask(job_inputs: dict, out: dict) -> list:
    n, table, mask = job_inputs["n_bits"], job_inputs["table"], job_inputs["mask"]
    problems = []
    expected = (1 << n) << mask.bit_count()
    if out["edge_count"] != expected:
        problems.append(f"mask graph has {out['edge_count']} edges, expected {expected}")
    adjacency = own_neighbourhoods(table, n, mask)
    if out["targets"] != adjacency:
        problems.append("mask graph adjacency differs from E(x ^ subcube(mask))")
    connected = strongly_connected_by_bfs(adjacency)
    if out["strongly_connected"] != connected:
        problems.append("mask graph verdict disagrees with forward and backward BFS")
    if not connected:
        problems.append("mask graph is expected to be strongly connected")
    if sorted(v for c in out["sccs"] for v in c) != list(range(1 << n)):
        problems.append("mask graph SCCs do not partition the vertices")
    return problems


# -------------------------------------------------------------------- entropy


def check_entropy(job_inputs: dict, files: dict) -> list:
    """At epsilon = 1 a bijective step separates exactly the distinct (state, block) paths."""
    n_bits, prefix_len = job_inputs["n_bits"], job_inputs["prefix_len"]
    r = _report(files, "entropy-report.json")["results"]
    grid_size = 1 << (n_bits * (prefix_len + 1))
    problems = []
    if r["grid_size"] != grid_size:
        problems.append("entropy grid size is wrong")
    if [e["n"] for e in r["entries"]] != list(range(1, job_inputs["n_max"] + 1)):
        problems.append("entropy entries do not cover n = 1..n_max")
    for e in r["entries"]:
        n = e["n"]
        expected = 1 << (n_bits * min(n, prefix_len + 1))
        if e["greedy_cardinality"] != expected:
            problems.append(f"n={n}: greedy cardinality {e['greedy_cardinality']} != {expected}")
        exact = e["exact_cardinality"]
        if grid_size <= 64 and exact != expected:
            problems.append(f"n={n}: exact cardinality {exact} != {expected}")
        if e["h_lower"] < e["greedy_cardinality"]:
            problems.append(f"n={n}: h_lower is below the greedy cardinality")
        if e["growth_rate"] != log(e["h_lower"]) / n:
            problems.append(f"n={n}: growth_rate != log(h_lower)/n")
    return problems


# --------------------------------------------------------------------- orbits


def check_probe(job_inputs: dict, files: dict) -> list:
    r = _report(files, "probe-expansivity-report.json")["results"]
    if r["min_max_orbit_distance"] != "0":
        return ["steered merges must pull the probe minimum to 0"]
    return []


def check_simulate(job_inputs: dict, files: dict) -> list:
    n, table = job_inputs["n_bits"], job_inputs["table"]
    prefix, cycle, steps = job_inputs["prefix"], job_inputs["cycle"], job_inputs["steps"]
    problems = []
    states = own_states(table, None, XOR, n, job_inputs["iv"], prefix, cycle, steps)
    rows = files["simulate-trajectory.csv"].splitlines()
    expected_rows = ["step,state,next_block"] + [
        f"{i},{format(x, f'0{n}b')},{format(own_block(prefix, cycle, i), f'0{n}b')}"
        for i, x in enumerate(states)
    ]
    if rows != expected_rows:
        problems.append("simulate trajectory differs from the benchmark's own state map")
    final = _report(files, "simulate-report.json")["results"]["final_point"]
    f_state, f_prefix, f_cycle = _parse_point(final)
    if f_state != states[-1] or not _same_blocks(f_prefix, f_cycle, 0, prefix, cycle, steps):
        problems.append("simulate final point is not the orbit's point at the last step")
    return problems


def check_distance(job_inputs: dict, files: dict) -> list:
    """max_t H(x_t, y_t) <= bowen <= max_t H + 1, since the message term lies in [0, 1]."""
    n, table, bowen_n = job_inputs["n_bits"], job_inputs["table"], job_inputs["bowen_n"]
    r = _report(files, "distance-report.json")["results"]
    (a_state, a_prefix, a_cycle), (b_state, b_prefix, b_cycle) = job_inputs["a"], job_inputs["b"]
    xs = own_states(table, None, XOR, n, a_state, a_prefix, a_cycle, bowen_n - 1)
    ys = own_states(table, None, XOR, n, b_state, b_prefix, b_cycle, bowen_n - 1)
    hamming = max((x ^ y).bit_count() for x, y in zip(xs, ys))
    bowen = Fraction(r["bowen"]["value"])
    d = Fraction(r["distance"])
    problems = []
    if r["state_distance"] != (a_state ^ b_state).bit_count():
        problems.append("state distance is not the Hamming distance of the states")
    if not (d - r["state_distance"] == Fraction(r["message_distance"]) and 0 <= d - r["state_distance"] <= 1):
        problems.append("distance is not state distance plus a message term in [0, 1]")
    if not (hamming <= bowen <= hamming + 1 and bowen >= d):
        problems.append("bowen distance is outside the bounds set by the own state map")
    return problems


def _copies_center(job_inputs: dict, point, k: int) -> bool:
    """Same state and first k blocks as the center, with 10^-k below the radius."""
    c_state, c_prefix, c_cycle = job_inputs["center"]
    p_state, p_prefix, p_cycle = point
    return (
        p_state == c_state
        and all(own_block(p_prefix, p_cycle, i) == own_block(c_prefix, c_cycle, i) for i in range(k))
        and Fraction(1, 10 ** k) < job_inputs["radius"]
    )


def check_mixing(job_inputs: dict, out: dict) -> list:
    n, table = job_inputs["n_bits"], job_inputs["table"]
    inner, convention = job_inputs["inner"], job_inputs["convention"]
    problems = []
    point = _parse_point(out["constructed_point"])
    steps, k = out["steps"], out["k"]
    if not _copies_center(job_inputs, point, k):
        problems.append("mixing witness does not copy enough of the ball center")
    t_state, t_prefix, t_cycle = job_inputs["target"]
    arrived = own_states(table, inner, convention, n, point[0], point[1], point[2], steps)[-1]
    if arrived != t_state or not _same_blocks(point[1], point[2], steps, t_prefix, t_cycle, 0):
        problems.append("mixing witness does not land on the target under the own state map")
    return problems


def check_sensitivity(job_inputs: dict, out: dict) -> list:
    n, table = job_inputs["n_bits"], job_inputs["table"]
    inner, convention = job_inputs["inner"], job_inputs["convention"]
    problems = []
    if out["achieved"] != str(n):
        problems.append(f"sensitivity achieved {out['achieved']}, expected {n}")
    point = _parse_point(out["point"])
    steps = out["n"]
    if not _copies_center(job_inputs, point, steps - 1):
        problems.append("sensitivity witness does not copy enough of the center")
    x_state, x_prefix, x_cycle = job_inputs["center"]
    x_end = own_states(table, inner, convention, n, x_state, x_prefix, x_cycle, steps)[-1]
    y_end = own_states(table, inner, convention, n, point[0], point[1], point[2], steps)[-1]
    if x_end ^ y_end != _word_mask(n) or not _same_blocks(point[1], point[2], steps, x_prefix, x_cycle, steps):
        problems.append("sensitivity witness does not reach the complement under the own state map")
    return problems


def check_steer_certificate(job_inputs: dict, out: dict) -> list:
    n, table, inner = job_inputs["n_bits"], job_inputs["table"], job_inputs["inner"]
    adjacency = [
        sorted({own_step(table, inner, job_inputs["convention"], n, x, m) for m in range(1 << n)})
        for x in range(1 << n)
    ]
    if not (out["strongly_connected"] and strongly_connected_by_bfs(adjacency)):
        return ["the steering configuration must pass the certificate"]
    return []


def agreement_length(radius: Fraction) -> int:
    """Blocks copied by the one-block construction: one past the scale of the radius."""
    t = 0
    while Fraction(1, 10 ** t) > radius:
        t += 1
    return t + 1


def one_step_unreachable(job_inputs: dict) -> bool:
    """Whether the steering target lies outside one step of the copied prefix's state.

    This is the known fault: the one-block correction assumes that every
    state is one step away, which fails for partial-mask inner functions.
    """
    n, table, inner = job_inputs["n_bits"], job_inputs["table"], job_inputs["inner"]
    convention = job_inputs["convention"]
    state, prefix, cycle = job_inputs["center"]
    k = agreement_length(job_inputs["radius"])
    reached = own_states(table, inner, convention, n, state, prefix, cycle, k)[-1]
    reach = {own_step(table, inner, convention, n, reached, m) for m in range(1 << n)}
    if "target" in job_inputs:
        wanted = job_inputs["target"][0]
    else:
        unperturbed = own_step(table, inner, convention, n, reached, own_block(prefix, cycle, k))
        wanted = unperturbed ^ _word_mask(n)
    return wanted not in reach


def failure_problems(job, message: str) -> list:
    """Only the known partial-mask steering fault may fail."""
    if job.inputs.get("steering") and one_step_unreachable(job.inputs):
        return []
    return [f"{job.name} failed: {message}"]


CHECKS = {
    "graph_dense": check_graph_dense,
    "graph_functional": check_graph_functional,
    "graph_mask": check_graph_mask,
    "entropy": check_entropy,
    "probe": check_probe,
    "simulate": check_simulate,
    "distance": check_distance,
    "mixing": check_mixing,
    "sensitivity": check_sensitivity,
    "steer_certificate": check_steer_certificate,
}


def check_round(jobs, outputs: dict, failures: dict) -> list:
    """All problems with one round's outputs; ``outputs`` maps job name to export."""
    problems = bijection_problems(jobs)
    for job in jobs:
        if job.name in failures:
            problems += failure_problems(job, failures[job.name])
        else:
            try:
                problems += CHECKS[job.kind](job.inputs, outputs[job.name])
            except (KeyError, ValueError, TypeError, IndexError) as exc:
                problems.append(f"{job.name}: malformed output ({type(exc).__name__}: {exc})")
    return problems
