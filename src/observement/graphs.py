"""Graphs and digraphs with interchangeable representations.

Vertices are integers 0..n-1.  Edge lists, adjacency lists, adjacency
matrices, and graph6 text all encode the same structure and convert
losslessly in every direction, which is exactly what makes the collection of
representations interchangeable.  Also here: isomorphism and subgraph search
sharing one exact backtracking routine (small sizes only, with explicit
caps) whose candidate sets are bitset intersections of host adjacency rows,
cut before the search by degree profiles and by parity (a vertex in a
component with an odd cycle maps only into such a component), the
state-space digraph of a finite automaton, and random-graph percolation
sweeps.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from ._shared import ascii_int, ascii_ints, reachable, significant_lines
from .errors import CapExceeded, ObservementError

ISO_CAP = 10
SUBGRAPH_CAP = 8
GRAPH6_MAX_N = 62


class GraphError(ObservementError):
    """A malformed graph or automaton text, or a value that breaks its invariants."""


def _normalise_edge(u: int, v: int) -> tuple:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset = frozenset()

    def __post_init__(self):
        if self.n < 0:
            raise GraphError("vertex count must be >= 0")
        edges = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise GraphError(f"self-loop ({u},{v}) not allowed in an undirected graph")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u},{v}) out of range for n={self.n}")
            edges.add(_normalise_edge(u, v))
        object.__setattr__(self, "edges", frozenset(edges))

    @functools.cached_property
    def _masks(self) -> tuple:
        # One adjacency bitmask per vertex; cached, the value is immutable.
        rows = [0] * self.n
        for u, v in self.edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return (tuple(rows),)

    @functools.cached_property
    def _odd(self) -> int:
        return _odd_components(self._masks)


@dataclass(frozen=True)
class Digraph:
    """Directed graph on vertices 0..n-1; self-loops are arcs like any other."""

    n: int
    arcs: frozenset = frozenset()

    def __post_init__(self):
        arcs = set()
        if self.n < 0:
            raise GraphError("vertex count must be >= 0")
        for u, v in self.arcs:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"arc ({u},{v}) out of range for n={self.n}")
            arcs.add((u, v))
        object.__setattr__(self, "arcs", frozenset(arcs))

    @functools.cached_property
    def _masks(self) -> tuple:
        out = [0] * self.n
        into = [0] * self.n
        for u, v in self.arcs:
            out[u] |= 1 << v
            into[v] |= 1 << u
        return (tuple(out), tuple(into))

    @functools.cached_property
    def _odd(self) -> int:
        return _odd_components(self._masks)


def _odd_components(masks) -> int:
    """The vertices whose component holds an odd cycle, as a bitset.

    Arcs count as edges and a self-loop as a cycle of length 1.  A
    breadth-first walk by levels over ``out | in`` rows: a component is
    two-colourable exactly when no edge joins two vertices of one level.
    """
    rows = [out | into for out, into in zip(masks[0], masks[-1])]
    odd = seen = 0
    for root in range(len(rows)):
        if seen >> root & 1:
            continue
        level = component = 1 << root
        clash = 0
        while level:
            reach, rest = 0, level
            while rest:
                low = rest & -rest
                row = rows[low.bit_length() - 1]
                clash |= row & level
                reach |= row
                rest ^= low
            level = reach & ~component
            component |= level
        seen |= component
        if clash:
            odd |= component
    return odd


# --- representation conversions ----------------------------------------------


def _pairs(g) -> frozenset:
    """The edges of a Graph or the arcs of a Digraph."""
    return g.edges if isinstance(g, Graph) else g.arcs


def to_edge_list(g) -> list:
    return sorted(_pairs(g))


def to_adjacency_list(g) -> list:
    rows: list[list[int]] = [[] for _ in range(g.n)]
    undirected = isinstance(g, Graph)
    for u, v in _pairs(g):
        rows[u].append(v)
        if undirected:
            rows[v].append(u)
    return [sorted(r) for r in rows]


def to_adjacency_matrix(g) -> list:
    m = [[0] * g.n for _ in range(g.n)]
    for u, row in enumerate(to_adjacency_list(g)):
        for v in row:
            m[u][v] = 1
    return m


def from_edge_list(n: int, pairs: Iterable, directed: bool = False):
    return (Digraph if directed else Graph)(n, pairs)


def from_adjacency_list(rows: Sequence, directed: bool = False):
    n = len(rows)
    pairs = {(u, v) for u, neighbours in enumerate(rows) for v in neighbours}
    if not directed:
        asymmetric = [(u, v) for u, v in pairs if (v, u) not in pairs]
        if asymmetric:
            raise GraphError(f"adjacency list is not symmetric at {asymmetric[0]}")
    return from_edge_list(n, pairs, directed)


def from_adjacency_matrix(matrix: Sequence, directed: bool = False):
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise GraphError(f"matrix is not square: row of length {len(row)}, n={n}")
    if not directed:
        for i in range(n):
            if matrix[i][i]:
                raise GraphError(f"nonzero diagonal at {i} in an undirected matrix")
            for j in range(i):
                if bool(matrix[i][j]) != bool(matrix[j][i]):
                    raise GraphError(f"matrix is not symmetric at ({i},{j})")
    pairs = {(i, j) for i in range(n) for j in range(n) if matrix[i][j]}
    return from_edge_list(n, pairs, directed)


# --- graph6 -------------------------------------------------------------------
#
# Short form only: one size byte (n + 63, n <= 62), then the upper triangle of
# the adjacency matrix column by column, packed into 6-bit groups, each group
# offset by 63 into the printable range.


def _triangle_pairs(n: int):
    for j in range(1, n):
        for i in range(j):
            yield i, j


def _pack_graph6(n: int, bits: Sequence) -> str:
    chars = [chr(63 + n)]
    for group_start in range(0, len(bits), 6):
        group = bits[group_start:group_start + 6]
        value = 0
        for offset, bit in enumerate(group):
            value |= bit << (5 - offset)
        chars.append(chr(63 + value))
    return "".join(chars)


def encode_graph6(g: Graph) -> str:
    """Encode an undirected graph in graph6 text (short form, n <= 62)."""
    if not isinstance(g, Graph):
        raise GraphError("graph6 encodes undirected graphs only")
    if g.n > GRAPH6_MAX_N:
        raise GraphError(f"graph6 short form supports at most {GRAPH6_MAX_N} vertices, got {g.n}")
    bits = [1 if (i, j) in g.edges else 0 for i, j in _triangle_pairs(g.n)]
    return _pack_graph6(g.n, bits)


def decode_graph6(text: str) -> Graph:
    """Inverse of encode_graph6, with strict validation of length and padding."""
    if not text:
        raise GraphError("empty graph6 string")
    for i, ch in enumerate(text):
        if not (63 <= ord(ch) <= 126):
            raise GraphError(f"byte {ord(ch)} at position {i} outside graph6 range")
    size = ord(text[0]) - 63
    if size > GRAPH6_MAX_N:
        raise GraphError("long-form graph6 (more than 62 vertices) is not supported")
    bit_count = size * (size - 1) // 2
    expected_chars = 1 + (bit_count + 5) // 6
    if len(text) < expected_chars:
        raise GraphError(
            f"graph6 string too short: {len(text)} bytes, need {expected_chars} for n={size}"
        )
    if len(text) > expected_chars:
        raise GraphError(f"trailing garbage after {expected_chars} graph6 bytes")
    bits = []
    for ch in text[1:]:
        value = ord(ch) - 63
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[bit_count:]):
        raise GraphError("nonzero padding bits in graph6 string")
    edges = {
        (i, j)
        for bit, (i, j) in zip(bits, _triangle_pairs(size))
        if bit
    }
    return Graph(size, frozenset(edges))


# --- isomorphism and subgraph search ------------------------------------------


def _check_same_kind(g1, g2):
    if type(g1) is not type(g2):
        raise GraphError("cannot compare a Graph with a Digraph")


def _size(g) -> int:
    return len(_pairs(g))


def _profiles(g) -> list:
    # (out-degree, in-degree, self-loop) per vertex; an undirected row serves as both.
    out, into = g._masks[0], g._masks[-1]
    return [(out[v].bit_count(), into[v].bit_count(), out[v] >> v & 1) for v in range(g.n)]


def _search(small, big, exact: bool):
    """The lexicographically first injective map of ``small`` into ``big``, or None.

    The map sends edges onto edges; when ``exact`` it also sends non-edges
    onto non-edges among the images.  Pattern vertices are placed in index
    order, each trying host vertices in index order.  A vertex's candidates
    are one bitset: the hosts its profile allows (and, if its component
    holds an odd cycle, that lie in such a host component), minus the used
    ones, ANDed with the host row of each placed neighbour's image (out-row
    for an arc into it, in-row for an arc out of it) and, when ``exact``,
    with the complement row of each placed non-neighbour's image.  Both cuts
    before the search drop only hosts that no complete map can use, so the
    witness is the one a scan of every host vertex would find.
    """
    prof_s, prof_b = _profiles(small), _profiles(big)
    if exact:
        if sorted(prof_s) != sorted(prof_b):
            return None
        allowed = [sum(1 << w for w, q in enumerate(prof_b) if q == p) for p in prof_s]
    else:
        allowed = [
            sum(1 << w for w, (o, i, s) in enumerate(prof_b)
                if o >= out and i >= into and s >= loop)
            for out, into, loop in prof_s
        ]
    # An embedding maps an odd closed walk onto one, so a vertex whose
    # component holds an odd cycle (or a loop) has its image in such a component.
    odd = small._odd
    if odd:
        odd_b = big._odd
        allowed = [a & odd_b if odd >> v & 1 else a for v, a in enumerate(allowed)]
    # One (pattern rows, host rows, host complement rows) side per direction:
    # arc u->v puts v's image in out_b[image u], arc v->u in in_b[image u].
    full = (1 << big.n) - 1
    sides = [
        (rows_s, rows_b, tuple(full ^ row for row in rows_b) if exact else None)
        for rows_s, rows_b in zip(small._masks, big._masks)
    ]
    ns = small.n
    constraints = []
    for v in range(ns):
        pairs = []
        for u in range(v):
            for rows_s, rows_b, gaps in sides:
                if rows_s[u] >> v & 1:
                    pairs.append((u, rows_b))
                elif exact:
                    pairs.append((u, gaps))
        constraints.append(pairs)
    mapping = [-1] * ns

    def extend(v, used):
        if v == ns:
            return True
        domain = allowed[v] & ~used
        for u, table in constraints[v]:
            domain &= table[mapping[u]]
        while domain:
            low = domain & -domain
            mapping[v] = low.bit_length() - 1
            if extend(v + 1, used | low):
                return True
            domain ^= low
        return False

    return {v: mapping[v] for v in range(ns)} if extend(0, 0) else None


def are_isomorphic(g1, g2):
    """A vertex bijection sending edges exactly onto edges, or None.

    Exact backtracking with degree pruning; deterministic, returning the
    lexicographically first witness.  Sizes above ``ISO_CAP`` raise.
    """
    _check_same_kind(g1, g2)
    if max(g1.n, g2.n) > ISO_CAP:
        raise CapExceeded(f"isomorphism search capped at {ISO_CAP} vertices")
    if g1.n != g2.n or _size(g1) != _size(g2):
        return None
    return _search(g1, g2, exact=True)


def is_subgraph(small, big):
    """An injective map sending every edge of ``small`` onto an edge of ``big``, or None.

    Non-induced: extra adjacencies among the images are fine.  The witness is
    the lexicographically first; patterns above ``SUBGRAPH_CAP`` vertices raise.
    None is a proof: more pattern vertices or edges than the host has, no
    host vertex whose degrees dominate a pattern vertex's, a pattern
    component with an odd cycle and no host component with one to take it
    (parity), or a search exhausted.
    """
    _check_same_kind(small, big)
    if small.n > SUBGRAPH_CAP:
        raise CapExceeded(f"subgraph search capped at {SUBGRAPH_CAP} pattern vertices")
    # An injective map keeps edges distinct, so a pattern with more never fits.
    if small.n > big.n or _size(small) > _size(big):
        return None
    return _search(small, big, exact=False)


def relabel(g, permutation: Sequence):
    """Apply a vertex permutation: vertex v becomes permutation[v]."""
    if sorted(permutation) != list(range(g.n)):
        raise GraphError("relabeling must be a permutation of the vertex set")
    return type(g)(g.n, [(permutation[u], permutation[v]) for u, v in to_edge_list(g)])


# --- automata -----------------------------------------------------------------


@dataclass(frozen=True)
class Automaton:
    """A finite state set with a total successor function."""

    states: frozenset
    successor: dict

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "successor", dict(self.successor))
        missing = sorted(self.states - set(self.successor))
        if missing:
            raise GraphError(f"successor function is not total: missing {missing}")
        stray = sorted(set(self.successor) - self.states)
        if stray:
            raise GraphError(f"successor defined on unknown states {stray}")
        bad = sorted({v for v in self.successor.values() if v not in self.states})
        if bad:
            raise GraphError(f"successor maps outside the state set: {bad}")


def state_order(automaton: Automaton) -> list:
    """The vertex indexing used by state_space_graph: states sorted by name."""
    return sorted(automaton.states)


def state_space_graph(automaton: Automaton) -> Digraph:
    """One vertex per state and one arc per successor step; out-degree is always 1."""
    order = state_order(automaton)
    index = {s: i for i, s in enumerate(order)}
    arcs = frozenset((index[s], index[automaton.successor[s]]) for s in order)
    return Digraph(len(order), arcs)


# --- random graphs and percolation ---------------------------------------------


def er_random_graph(n: int, p: float, seed) -> Graph:
    """Each of the C(n,2) pairs becomes an edge independently with probability p.

    Uses geometric skipping between successful pairs, so sparse graphs cost
    time proportional to the edge count.  Identical seed, identical graph.
    """
    if not 0 <= p <= 1:
        raise GraphError(f"edge probability must be in [0,1], got {p}")
    if n < 0:
        raise GraphError("vertex count must be >= 0")
    rng = random.Random(seed)
    edges = set()
    if p >= 1:
        edges = {(i, j) for j in range(1, n) for i in range(j)}
    elif p > 0:
        log_q = math.log(1.0 - p)
        v, w = 1, -1
        while v < n:
            w += 1 + int(math.log(1.0 - rng.random()) / log_q)
            while w >= v and v < n:
                w -= v
                v += 1
            if v < n:
                edges.add((w, v))
    return Graph(n, frozenset(edges))


def connected_components(g: Graph) -> list:
    """Sorted vertex lists of the connected components, by least vertex."""
    adjacency = dict(enumerate(to_adjacency_list(g)))
    seen: set = set()
    components = []
    for root in range(g.n):
        if root not in seen:
            component = reachable(root, adjacency)
            seen |= component
            components.append(sorted(component))
    return components


def largest_component_fraction(g: Graph) -> float:
    if g.n == 0:
        return 0.0
    return max(len(c) for c in connected_components(g)) / g.n


def percolation_sweep(n: int, p_values: Iterable, trials: int, seed) -> list:
    """Mean largest-component fraction per edge probability.

    Trial t at every p uses the derived seed ``seed + t``, so runs are
    reproducible and trials may be computed independently.
    """
    if trials < 1:
        raise GraphError("trials must be >= 1")
    rows = []
    for p in p_values:
        total = 0.0
        for t in range(trials):
            total += largest_component_fraction(er_random_graph(n, p, seed + t))
        rows.append((p, total / trials))
    return rows


# --- text formats ---------------------------------------------------------------
#
#   graph N / digraph N     edge or arc lines "u v"
#   matrix N / dmatrix N    N rows of N characters, each 0 or 1
#   adjlist N / dadjlist N  N lines "v: neighbours..."
#
# graph6 text has no header; parse_graph_text falls back to it for a
# single-line input that matches no header keyword.


def format_graph_file(g) -> str:
    head = "graph" if isinstance(g, Graph) else "digraph"
    pairs = to_edge_list(g)
    return "\n".join([f"{head} {g.n}"] + [f"{u} {v}" for u, v in pairs]) + "\n"


def format_matrix_text(g) -> str:
    head = "matrix" if isinstance(g, Graph) else "dmatrix"
    rows = to_adjacency_matrix(g)
    return "\n".join([f"{head} {g.n}"] + ["".join(map(str, row)) for row in rows]) + "\n"


def format_adjacency_text(g) -> str:
    head = "adjlist" if isinstance(g, Graph) else "dadjlist"
    rows = to_adjacency_list(g)
    lines = [f"{head} {g.n}"]
    lines += [f"{v}: {' '.join(map(str, row))}".rstrip() for v, row in enumerate(rows)]
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str):
    """Parse any of the text representations (including bare graph6) to a graph."""
    lines = list(significant_lines(text))
    if not lines:
        raise GraphError("empty graph text")
    head = lines[0][1].split()
    keyword = head[0]
    if keyword in _HEADER_PARSERS:
        parser, directed = _HEADER_PARSERS[keyword]
        return parser(lines, directed)
    if len(lines) == 1 and len(head) == 1:
        return decode_graph6(head[0])
    raise GraphError(f"line {lines[0][0]}: unknown header {keyword!r}")


def _parse_header_n(lines):
    lineno, line = lines[0]
    parts = line.split()
    if len(parts) != 2:
        raise GraphError(f"line {lineno}: expected '<kind> <n>'")
    try:
        n = ascii_int(parts[1])
    except ValueError:
        raise GraphError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
    if n < 0:
        raise GraphError(f"line {lineno}: vertex count must be >= 0")
    return n


def _vertices(tokens: list, lineno: int) -> list:
    try:
        return ascii_ints(tokens)
    except ValueError as exc:
        raise GraphError(f"line {lineno}: bad vertex {exc.args[0]!r}") from None


def _parse_edge_lines(lines, directed: bool):
    n = _parse_header_n(lines)
    pairs = set()
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v'")
        pairs.add(tuple(_vertices(parts, lineno)))
    return from_edge_list(n, pairs, directed)


def _parse_matrix_lines(lines, directed: bool):
    n = _parse_header_n(lines)
    rows = []
    for lineno, line in lines[1:]:
        if len(line) != n or any(c not in "01" for c in line):
            raise GraphError(f"line {lineno}: expected {n} characters of 0/1")
        rows.append([int(c) for c in line])
    if len(rows) != n:
        raise GraphError(f"expected {n} matrix rows, got {len(rows)}")
    return from_adjacency_matrix(rows, directed)


def _parse_adjacency_lines(lines, directed: bool):
    n = _parse_header_n(lines)
    rows: list[list[int]] = [[] for _ in range(n)]
    filled = [False] * n
    for lineno, line in lines[1:]:
        head, sep, rest = line.partition(":")
        if not sep:
            raise GraphError(f"line {lineno}: expected 'v: neighbours'")
        (v,) = _vertices([head.strip()], lineno)
        if not (0 <= v < n):
            raise GraphError(f"line {lineno}: vertex {v} out of range")
        if filled[v]:
            raise GraphError(f"line {lineno}: duplicate row for vertex {v}")
        filled[v] = True
        rows[v] = _vertices(rest.split(), lineno)
    return from_adjacency_list(rows, directed)


# Header keyword -> (line parser, directed).
_HEADER_PARSERS = {
    "graph": (_parse_edge_lines, False),
    "digraph": (_parse_edge_lines, True),
    "matrix": (_parse_matrix_lines, False),
    "dmatrix": (_parse_matrix_lines, True),
    "adjlist": (_parse_adjacency_lines, False),
    "dadjlist": (_parse_adjacency_lines, True),
}


def parse_automaton_file(text: str) -> Automaton:
    """Lines of 'state -> state'; every state must have exactly one successor."""
    successor = {}
    states = set()
    for lineno, line in significant_lines(text):
        parts = line.split()
        if len(parts) != 3 or parts[1] != "->":
            raise GraphError(f"line {lineno}: expected 'state -> state'")
        src, dst = parts[0], parts[2]
        if src in successor:
            raise GraphError(f"line {lineno}: state {src!r} has two successors")
        successor[src] = dst
        states.update((src, dst))
    return Automaton(frozenset(states), successor)
