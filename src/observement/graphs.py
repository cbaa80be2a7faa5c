"""Graphs and digraphs with interchangeable representations.

Vertices are integers 0..n-1.  Edge lists, adjacency lists, adjacency
matrices and graph6 text encode the same structure and convert losslessly in
every direction.  Each is read into and written from one adjacency bitset
row per vertex, the only stored form; ``edges``, ``arcs`` and a digraph's
in-rows are read off the rows when first asked for, the in-rows by the one
transpose that also mirrors graph6 and checks a matrix's symmetry.  Each
text format has one reader, whole-text passes that also name its faults.
Also here: isomorphism and subgraph search sharing one exact backtracking
routine (small sizes only, with explicit caps) whose candidate sets are
bitset intersections of host adjacency rows, cut before the search by degree
profiles and by parity, which answer None before the first node when they
leave a pattern vertex no host; the state-space digraph of a finite
automaton; and percolation sweeps.
"""

from __future__ import annotations

import functools
import math
import random
import re
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Sequence

from ._shared import ascii_int, ascii_ints, one_break
from .errors import CapExceeded, ObservementError

ISO_CAP = 10
SUBGRAPH_CAP = 8
GRAPH6_MAX_N = 62
VERTEX_CAP = 5_000  # a 25M-cell matrix: ~0.3 s to write, ~0.7 s to read and write
PERCOLATION_CAP = 50_000_000  # vertex pairs drawn over in a sweep: under 40 s


class GraphError(ObservementError):
    """A malformed graph or automaton text, or a value that breaks its invariants."""


def _check_vertex_count(n: int, where: str) -> None:
    if n < 0:
        raise GraphError(f"{where}vertex count must be >= 0")
    if n > VERTEX_CAP:
        raise CapExceeded(f"{where}graphs are capped at {VERTEX_CAP} vertices, got {n}")


def _bits(row: int) -> list:
    """The set bits of ``row``, least first."""
    return _row_names(row, range(row.bit_length()))


def _row_names(row: int, names) -> list:
    """The entries of ``names`` at the set bits of ``row``, least bit first."""
    out = []
    while row:
        low = row & -row
        out.append(names[low.bit_length() - 1])
        row ^= low
    return out


def _transpose(rows) -> list:
    """The transposed rows: bit u of row v is bit v of ``rows[u]``."""
    out = [0] * len(rows)
    for u, row in enumerate(rows):
        bit = 1 << u
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
    return out


class _Rows:
    """Immutable, equal and hashed by its adjacency rows: bit v of ``_rows[u]`` is pair (u, v)."""

    @classmethod
    def _from_rows(cls, n: int, rows):  # rows already checked
        g = cls.__new__(cls)
        vars(g).update(n=n, _rows=tuple(rows))
        return g

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return (self.n, self._rows) == (other.n, other._rows) if same else NotImplemented

    def __hash__(self):
        return hash((self.n, self._rows))

    def __repr__(self):
        pairs = f"edges={self.edges!r}" if isinstance(self, Graph) else f"arcs={self.arcs!r}"
        return f"{type(self).__name__}(n={self.n}, {pairs})"

    @functools.cached_property
    def _masks(self) -> tuple:  # the rows, and a digraph's in-rows after them
        rows = self._rows
        return (rows,) if isinstance(self, Graph) else (rows, tuple(_transpose(rows)))

    @functools.cached_property
    def _odd(self) -> int:
        return _components(self._masks)[1]


class Graph(_Rows):
    """Undirected simple graph on vertices 0..n-1."""

    def __init__(self, n: int, edges: Iterable = frozenset()):
        _check_vertex_count(n, "")
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop ({u},{v}) not allowed in an undirected graph")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        vars(self).update(n=n, _rows=tuple(rows))

    @functools.cached_property
    def edges(self) -> frozenset:
        return frozenset(to_edge_list(self))


class Digraph(_Rows):
    """Directed graph on vertices 0..n-1; self-loops are arcs like any other."""

    def __init__(self, n: int, arcs: Iterable = frozenset()):
        _check_vertex_count(n, "")
        rows = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"arc ({u},{v}) out of range for n={n}")
            rows[u] |= 1 << v
        vars(self).update(n=n, _rows=tuple(rows))

    @functools.cached_property
    def arcs(self) -> frozenset:
        return frozenset(to_edge_list(self))


def _components(masks) -> tuple:
    """The components as bitsets by least vertex, and the bitset of those with an odd cycle
    (arcs count as edges, a loop as a cycle).  A breadth-first walk by levels over
    ``out | in`` rows: a component is two-colourable iff no edge joins two vertices of a level.
    """
    rows = masks[0] if len(masks) == 1 else [out | into for out, into in zip(*masks)]
    components = []
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
        components.append(component)
        if clash:
            odd |= component
    return components, odd


def _matrix_fault(rows):
    """The first faulty cell (i, j), j <= i, of an undirected matrix's rows, row by row:
    a diagonal bit, then a cell below the diagonal unlike its mirror; None if symmetric."""
    above = _transpose([row >> j + 1 << j + 1 for j, row in enumerate(rows)])
    for i, row in enumerate(rows):
        if row >> i & 1:
            return i, i
        unmirrored = (row & (1 << i) - 1) ^ above[i]
        if unmirrored:
            return i, (unmirrored & -unmirrored).bit_length() - 1
    return None


# --- representation conversions ----------------------------------------------


def to_edge_list(g) -> list:
    """The sorted pairs: edges (u, v) with u < v, or every arc."""
    undirected = isinstance(g, Graph)
    return [(u, v) for u, row in enumerate(g._rows)
            for v in _bits(row >> u + 1 << u + 1 if undirected else row)]


def to_adjacency_list(g) -> list:
    return [list(_bits(row)) for row in g._rows]


def to_adjacency_matrix(g) -> list:
    return [[row >> v & 1 for v in range(g.n)] for row in g._rows]


def from_edge_list(n: int, pairs: Iterable, directed: bool = False):
    return (Digraph if directed else Graph)(n, pairs)


def from_adjacency_list(rows: Sequence, directed: bool = False):
    n = len(rows)
    _check_vertex_count(n, "")
    masks = [0] * n
    for u, row in enumerate(rows):
        if row and not 0 <= min(row) <= max(row) < n:
            v = next(v for v in row if not 0 <= v < n)  # no row v mirrors (u, v)
            raise GraphError(f"arc ({u},{v}) out of range for n={n}" if directed
                             else f"adjacency list is not symmetric at {(u, v)}")
        for v in row:
            masks[u] |= 1 << v
    fault = not directed and _matrix_fault(masks)
    if fault:
        u, v = fault if masks[fault[0]] >> fault[1] & 1 else fault[::-1]  # the listed pair
        raise GraphError(f"self-loop ({u},{v}) not allowed in an undirected graph" if u == v
                         else f"adjacency list is not symmetric at {(u, v)}")
    return (Digraph if directed else Graph)._from_rows(n, masks)


def _matrix_graph(rows: list, directed: bool):
    """The graph of square matrix rows given as bitsets; an undirected one must be symmetric."""
    fault = not directed and _matrix_fault(rows)
    if fault:
        i, j = fault
        raise GraphError(f"nonzero diagonal at {i} in an undirected matrix" if i == j else
                         f"matrix is not symmetric at ({i},{j})")
    return (Digraph if directed else Graph)._from_rows(len(rows), rows)


def from_adjacency_matrix(matrix: Sequence, directed: bool = False):
    n = len(matrix)
    _check_vertex_count(n, "")
    for row in matrix:
        if len(row) != n:
            raise GraphError(f"matrix is not square: row of length {len(row)}, n={n}")
    return _matrix_graph([sum(1 << j for j, cell in enumerate(row) if cell) for row in matrix],
                         directed)


# --- graph6 -------------------------------------------------------------------
#
# Short form only: one size byte (n + 63, n <= 62), then the upper triangle of
# the adjacency matrix column by column, packed into 6-bit groups, each group
# offset by 63 into the printable range.


def _pack_graph6(n: int, bits: Sequence) -> str:
    """The size byte, then ``bits`` (0/1 values or characters) in 6-bit groups, zero-padded."""
    text = "".join(map(str, bits))
    text += "0" * (-len(text) % 6)
    return chr(63 + n) + "".join(chr(63 + int(text[k:k + 6], 2)) for k in range(0, len(text), 6))


def encode_graph6(g: Graph) -> str:
    """Encode an undirected graph in graph6 text (short form, n <= 62)."""
    if not isinstance(g, Graph):
        raise GraphError("graph6 encodes undirected graphs only")
    if g.n > GRAPH6_MAX_N:
        raise GraphError(f"graph6 short form supports at most {GRAPH6_MAX_N} vertices, got {g.n}")
    # Column j is the low j bits of row j, vertex 0 first.
    return _pack_graph6(g.n, "".join(format(row & (1 << j) - 1, f"0{j}b")[::-1]
                                     for j, row in enumerate(g._rows) if j))


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
            f"graph6 string too short: {len(text)} bytes, need {expected_chars} for n={size}")
    if len(text) > expected_chars:
        raise GraphError(f"trailing garbage after {expected_chars} graph6 bytes")
    bits = "".join(format(ord(ch) - 63, "06b") for ch in text[1:])
    if "1" in bits[bit_count:]:
        raise GraphError("nonzero padding bits in graph6 string")
    # Column j, read as one int, is row j below the diagonal; its transpose, above it.
    below = [int(bits[j * (j - 1) // 2:j * (j + 1) // 2][::-1] or "0", 2) for j in range(size)]
    return Graph._from_rows(size, map(int.__or__, below, _transpose(below)))


# --- isomorphism and subgraph search ------------------------------------------


def _check_same_kind(g1, g2):
    if type(g1) is not type(g2):
        raise GraphError("cannot compare a Graph with a Digraph")


def _size(g) -> int:
    count = sum(row.bit_count() for row in g._rows)
    return count // 2 if isinstance(g, Graph) else count


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
    with the complement row of each placed non-neighbour's image.  The cuts
    drop only hosts that no complete map can use, so the witness is the one a
    scan of every host would find, and a vertex left no host proves None at once.
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
    if not all(allowed):
        return None
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
    None is a proof: more pattern vertices or edges than the host has; a
    pattern vertex left no host before the first search node, since none
    dominates its degrees or, if its component has an odd cycle, none such
    lies in a host component with one (parity); or a search exhausted.
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
    return Digraph(len(order), [(index[s], index[automaton.successor[s]]) for s in order])


# --- random graphs and percolation ---------------------------------------------


def er_random_graph(n: int, p: float, seed) -> Graph:
    """Each of the C(n,2) pairs becomes an edge independently with probability p.

    Uses geometric skipping between successful pairs, so sparse graphs cost
    time proportional to the edge count.  Identical seed, identical graph.
    """
    if not 0 <= p <= 1:
        raise GraphError(f"edge probability must be in [0,1], got {p}")
    _check_vertex_count(n, "")
    rng = random.Random(seed)
    if p >= 1:
        full = (1 << n) - 1
        return Graph._from_rows(n, [full ^ 1 << v for v in range(n)])
    rows = [0] * n
    if p > 0:
        log, draw, log_q = math.log, rng.random, math.log(1.0 - p)
        v, w = 1, -1
        while v < n:
            w += 1 + int(log(1.0 - draw()) / log_q)
            while w >= v and v < n:
                w -= v
                v += 1
            if v < n:
                rows[w] |= 1 << v
                rows[v] |= 1 << w
    return Graph._from_rows(n, rows)


def largest_component_fraction(g: Graph) -> float:
    return max(c.bit_count() for c in _components(g._masks)[0]) / g.n if g.n else 0.0


def percolation_sweep(n: int, p_values: Iterable, trials: int, seed) -> list:
    """Mean largest-component fraction per edge probability.

    Trial t at every p uses the derived seed ``seed + t``, so runs are
    reproducible and trials may be computed independently.  A sweep over more
    than ``PERCOLATION_CAP`` vertex pairs in all is refused before the first draw.
    """
    if trials < 1:
        raise GraphError("trials must be >= 1")
    p_values = list(p_values)
    pairs = len(p_values) * trials * math.comb(max(n, 0), 2)
    if pairs > PERCOLATION_CAP:
        raise CapExceeded(
            f"percolation sweep capped at {PERCOLATION_CAP} vertex pairs, got {pairs}")
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
# Lines end where str.splitlines breaks and words part where str.split does:
# a text is respelled once by ``one_break``, so every break is "\n", and then
# read on "\n" alone.  Blank and "#" lines may stand anywhere.  A lone word on
# a lone line that is no keyword is graph6.  An edge body is read by one search
# for its first line that is not two vertices and one split of the lines before
# it, any other body by one scan giving a row per line.  Line faults are named
# from these matches, graph faults as the one build meets them: pairs in file
# order, rows in vertex order.
_B = r"[^\S\n]"
_INT = r"-?[0-9]+"
_ROW_END = r"(?:\n|\Z)"
_HEAD = re.compile(rf"^{_B}*([^\s#]\S*)(?:{_B}+(\S+))?(.*)", re.M)
_EDGE_MISS = re.compile(
    rf"\n(?![0-9]+ [0-9]+\n|{_B}*(?:{_INT}{_B}+{_INT}{_B}*|#.*|){_ROW_END})(.*)")
_COMMENT = re.compile(r"#.*")
_MATRIX_ROW = re.compile(rf"{_B}*(?:([01]+){_B}*|#.*|(.*)){_ROW_END}")
_ADJACENCY_ROW = re.compile(rf"{_B}*(?:({_INT}){_B}*:(.*)|#.*|(.*)){_ROW_END}")
_ARROW_ROW = re.compile(rf"{_B}*(?:([^\s#]\S*){_B}+->{_B}+(\S+){_B}*|#.*|(.*)){_ROW_END}")


def format_graph_file(g) -> str:
    undirected = isinstance(g, Graph)
    names = list(map(str, range(g.n)))
    lines = [f"{'graph' if undirected else 'digraph'} {g.n}"]
    for u, row in enumerate(g._rows):
        ends = _row_names(row >> u + 1 << u + 1 if undirected else row, names)
        if ends:
            lead = names[u] + " "
            lines.append(lead + ("\n" + lead).join(ends))
    return "\n".join(lines) + "\n"


def format_matrix_text(g) -> str:
    head = "matrix" if isinstance(g, Graph) else "dmatrix"
    cells = f"0{g.n}b"
    return "\n".join([f"{head} {g.n}"] + [format(row, cells)[::-1] for row in g._rows]) + "\n"


def format_adjacency_text(g) -> str:
    head = "adjlist" if isinstance(g, Graph) else "dadjlist"
    names = list(map(str, range(g.n)))
    return "\n".join([f"{head} {g.n}"] + [" ".join([names[v] + ":"] + _row_names(row, names))
                                          for v, row in enumerate(g._rows)]) + "\n"


def parse_graph_text(text: str):
    """Parse any of the text representations (including bare graph6) to a graph."""
    text = one_break(text)
    head = _HEAD.search(text)
    if not head:
        raise GraphError("empty graph text")
    keyword, count, rest = head.groups()
    first = _line_number(text, head.start())
    if keyword not in _READERS:
        if count or rest.strip() or _HEAD.search(text, head.end()):
            raise GraphError(f"line {first}: unknown header {keyword!r}")
        return decode_graph6(keyword)
    if not count or rest.strip():
        raise GraphError(f"line {first}: expected '<kind> <n>'")
    try:
        n = ascii_int(count)
    except ValueError:
        raise GraphError(f"line {first}: bad vertex count {count!r}") from None
    _check_vertex_count(n, f"line {first}: ")
    read, directed = _READERS[keyword]
    return read(text, head.end(), first, n, directed)


def _line_number(text: str, pos: int) -> int:
    """The number, from 1, of the line that holds ``pos`` or ends there."""
    return text.count("\n", 0, pos) + 1


def _named(words: list, names: dict) -> list:
    """The vertices ``words`` name in ``names``; on a miss, ``ascii_ints`` of them."""
    try:
        return list(map(names.__getitem__, words))
    except KeyError:
        return ascii_ints(words)


def _read_edges(text: str, start: int, first: int, n: int, directed: bool):
    miss = _EDGE_MISS.search(text, start)
    body = text[start:miss and miss.start()]
    if "#" in body:
        body = _COMMENT.sub("", body)
    words = body.split()
    try:
        ends = _named(words, dict(zip(map(str, range(n)), range(n))))
    except ValueError as exc:  # a vertex of more digits than int() reads, met first in body
        lineno = first + _line_number(body, body.index(exc.args[0])) - 1
        raise GraphError(f"line {lineno}: bad vertex {exc.args[0]!r}") from None
    if miss:
        where, words = f"line {_line_number(text, miss.end())}: ", miss[1].split()
        if len(words) != 2:
            raise GraphError(f"{where}expected 'u v'")
        try:
            ascii_ints(words)
        except ValueError as exc:
            raise GraphError(f"{where}bad vertex {exc.args[0]!r}") from None
    return from_edge_list(n, zip(ends[::2], ends[1::2]), directed)


def _read_matrix(text: str, start: int, first: int, n: int, directed: bool):
    found = _MATRIX_ROW.findall(text, start)
    for lineno, (cells, other) in enumerate(found, first):
        if other or len(cells) not in (0, n):
            raise GraphError(f"line {lineno}: expected {n} characters of 0/1")
    rows = [int(cells[::-1], 2) for cells, _ in found if cells]
    if len(rows) != n:
        raise GraphError(f"expected {n} matrix rows, got {len(rows)}")
    return _matrix_graph(rows, directed)


def _read_adjacency(text: str, start: int, first: int, n: int, directed: bool):
    names = dict(zip(map(str, range(n)), range(n)))
    rows: list = [None] * n
    for lineno, (head, rest, other) in enumerate(_ADJACENCY_ROW.findall(text, start), first):
        if other:
            head, colon, rest = other.partition(":")
            if not colon:
                raise GraphError(f"line {lineno}: expected 'v: neighbours'")
        elif not head:
            continue
        try:
            v = names[head] if head in names else ascii_int(head.strip())
            if not 0 <= v < n:
                raise GraphError(f"line {lineno}: vertex {v} out of range")
            if rows[v] is not None:
                raise GraphError(f"line {lineno}: duplicate row for vertex {v}")
            rows[v] = _named(rest.split(), names)
        except ValueError as exc:
            raise GraphError(f"line {lineno}: bad vertex {exc.args[0]!r}") from None
    return from_adjacency_list([row or [] for row in rows], directed)


# Header keyword -> (reader, directed); also what makes a text a graph text to the CLI.
_READERS = {
    "graph": (_read_edges, False),
    "digraph": (_read_edges, True),
    "matrix": (_read_matrix, False),
    "dmatrix": (_read_matrix, True),
    "adjlist": (_read_adjacency, False),
    "dadjlist": (_read_adjacency, True),
}


def parse_automaton_file(text: str) -> Automaton:
    """Lines of 'state -> state'; every state must have exactly one successor."""
    successor, states = {}, set()
    for lineno, (src, dst, other) in enumerate(_ARROW_ROW.findall(one_break(text)), 1):
        if other:
            raise GraphError(f"line {lineno}: expected 'state -> state'")
        if src in successor:
            raise GraphError(f"line {lineno}: state {src!r} has two successors")
        if src:
            successor[src] = dst
            states.update((src, dst))
    return Automaton(frozenset(states), successor)
