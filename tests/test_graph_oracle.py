"""Graphs stored as bitset rows, checked against the pair-set implementation
they replace.

The references below are the earlier readers, writers, graph builds, graph6
codec, random graph and components, which kept every graph as a frozenset of
pairs.  A seeded fuzz over every text format, both ways, must give equal
graphs or equal error texts.
"""

import ast
import collections
import gc
import math
import random
import re
import tracemalloc
from dataclasses import dataclass
from typing import Sequence

from test_golden_cli import (GTEXT_MISSES, GTEXT_SPELLINGS, add_graph_faults, graph_file_lines,
                             gtext_graph, gtext_text)

from observement import graphs
from observement._shared import ascii_int, ascii_ints, reachable, significant_lines
from observement.graphs import Digraph, Graph, GraphError

# --- the pair-set implementation --------------------------------------------


@dataclass(frozen=True)
class ReferenceGraph:
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
            edges.add((u, v) if u <= v else (v, u))
        object.__setattr__(self, "edges", frozenset(edges))


@dataclass(frozen=True)
class ReferenceDigraph:
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


def reference_pairs(g):
    return g.edges if isinstance(g, ReferenceGraph) else g.arcs


def reference_edge_list(g):
    return sorted(reference_pairs(g))


def reference_adjacency_list(g):
    rows = [[] for _ in range(g.n)]
    for u, v in reference_pairs(g):
        rows[u].append(v)
        if isinstance(g, ReferenceGraph):
            rows[v].append(u)
    return [sorted(r) for r in rows]


def reference_adjacency_matrix(g):
    m = [[0] * g.n for _ in range(g.n)]
    for u, row in enumerate(reference_adjacency_list(g)):
        for v in row:
            m[u][v] = 1
    return m


def reference_from_edge_list(n, pairs, directed=False):
    return (ReferenceDigraph if directed else ReferenceGraph)(n, pairs)


def reference_from_adjacency_list(rows: Sequence, directed=False):
    """Pairs in reading order.  The first with a vertex out of range is named;
    then, undirected, the fault whose cell (max, min) comes first row by row, a
    self-loop before the unmirrored pairs of its row."""
    n = len(rows)
    pairs = [(u, v) for u, neighbours in enumerate(rows) for v in neighbours]
    for u, v in pairs:
        if not 0 <= v < n:
            if directed:
                raise GraphError(f"arc ({u},{v}) out of range for n={n}")
            raise GraphError(f"adjacency list is not symmetric at {(u, v)}")
    if not directed:
        listed = set(pairs)  # looked up only: the order is the list's
        faults = [(u, v) for u, v in pairs if u == v or (v, u) not in listed]
        if faults:
            u, v = min(faults, key=lambda p: (max(p), p[0] != p[1], min(p)))
            if u == v:
                raise GraphError(f"self-loop ({u},{v}) not allowed in an undirected graph")
            raise GraphError(f"adjacency list is not symmetric at {(u, v)}")
    return reference_from_edge_list(n, pairs, directed)


def reference_from_adjacency_matrix(matrix: Sequence, directed=False):
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
    return reference_from_edge_list(n, pairs, directed)


def reference_triangle_pairs(n):
    for j in range(1, n):
        for i in range(j):
            yield i, j


def reference_pack_graph6(n, bits):
    chars = [chr(63 + n)]
    for group_start in range(0, len(bits), 6):
        value = 0
        for offset, bit in enumerate(bits[group_start:group_start + 6]):
            value |= bit << (5 - offset)
        chars.append(chr(63 + value))
    return "".join(chars)


def reference_encode_graph6(g):
    if not isinstance(g, ReferenceGraph):
        raise GraphError("graph6 encodes undirected graphs only")
    if g.n > 62:
        raise GraphError(f"graph6 short form supports at most 62 vertices, got {g.n}")
    bits = [1 if (i, j) in g.edges else 0 for i, j in reference_triangle_pairs(g.n)]
    return reference_pack_graph6(g.n, bits)


def reference_decode_graph6(text):
    if not text:
        raise GraphError("empty graph6 string")
    for i, ch in enumerate(text):
        if not (63 <= ord(ch) <= 126):
            raise GraphError(f"byte {ord(ch)} at position {i} outside graph6 range")
    size = ord(text[0]) - 63
    if size > 62:
        raise GraphError("long-form graph6 (more than 62 vertices) is not supported")
    bit_count = size * (size - 1) // 2
    expected_chars = 1 + (bit_count + 5) // 6
    if len(text) < expected_chars:
        raise GraphError(
            f"graph6 string too short: {len(text)} bytes, need {expected_chars} for n={size}")
    if len(text) > expected_chars:
        raise GraphError(f"trailing garbage after {expected_chars} graph6 bytes")
    bits = []
    for ch in text[1:]:
        value = ord(ch) - 63
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[bit_count:]):
        raise GraphError("nonzero padding bits in graph6 string")
    edges = {(i, j) for bit, (i, j) in zip(bits, reference_triangle_pairs(size)) if bit}
    return ReferenceGraph(size, frozenset(edges))


def reference_er_random_graph(n, p, seed):
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
    return ReferenceGraph(n, frozenset(edges))


def reference_connected_components(g):
    adjacency = dict(enumerate(reference_adjacency_list(g)))
    seen = set()
    components = []
    for root in range(g.n):
        if root not in seen:
            component = reachable(root, adjacency)
            seen |= component
            components.append(sorted(component))
    return components


def reference_format_graph_file(g):
    head = "graph" if isinstance(g, ReferenceGraph) else "digraph"
    pairs = reference_edge_list(g)
    return "\n".join([f"{head} {g.n}"] + [f"{u} {v}" for u, v in pairs]) + "\n"


def reference_format_matrix_text(g):
    head = "matrix" if isinstance(g, ReferenceGraph) else "dmatrix"
    rows = reference_adjacency_matrix(g)
    return "\n".join([f"{head} {g.n}"] + ["".join(map(str, row)) for row in rows]) + "\n"


def reference_format_adjacency_text(g):
    head = "adjlist" if isinstance(g, ReferenceGraph) else "dadjlist"
    lines = [f"{head} {g.n}"]
    lines += [f"{v}: {' '.join(map(str, row))}".rstrip()
              for v, row in enumerate(reference_adjacency_list(g))]
    return "\n".join(lines) + "\n"


def reference_parse_graph_text(text):
    lines = list(significant_lines(text))
    if not lines:
        raise GraphError("empty graph text")
    head = lines[0][1].split()
    keyword = head[0]
    if keyword in REFERENCE_PARSERS:
        parser, directed = REFERENCE_PARSERS[keyword]
        return parser(lines, directed)
    if len(lines) == 1 and len(head) == 1:
        return reference_decode_graph6(head[0])
    raise GraphError(f"line {lines[0][0]}: unknown header {keyword!r}")


def reference_header_n(lines):
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


def reference_vertices(tokens, lineno):
    try:
        return ascii_ints(tokens)
    except ValueError as exc:
        raise GraphError(f"line {lineno}: bad vertex {exc.args[0]!r}") from None


def reference_edge_lines(lines, directed):
    n = reference_header_n(lines)
    pairs = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v'")
        pairs.append(tuple(reference_vertices(parts, lineno)))
    return reference_from_edge_list(n, pairs, directed)


def reference_matrix_lines(lines, directed):
    n = reference_header_n(lines)
    rows = []
    for lineno, line in lines[1:]:
        if len(line) != n or any(c not in "01" for c in line):
            raise GraphError(f"line {lineno}: expected {n} characters of 0/1")
        rows.append([int(c) for c in line])
    if len(rows) != n:
        raise GraphError(f"expected {n} matrix rows, got {len(rows)}")
    return reference_from_adjacency_matrix(rows, directed)


def reference_adjacency_lines(lines, directed):
    n = reference_header_n(lines)
    rows = [[] for _ in range(n)]
    filled = [False] * n
    for lineno, line in lines[1:]:
        head, sep, rest = line.partition(":")
        if not sep:
            raise GraphError(f"line {lineno}: expected 'v: neighbours'")
        (v,) = reference_vertices([head.strip()], lineno)
        if not (0 <= v < n):
            raise GraphError(f"line {lineno}: vertex {v} out of range")
        if filled[v]:
            raise GraphError(f"line {lineno}: duplicate row for vertex {v}")
        filled[v] = True
        rows[v] = reference_vertices(rest.split(), lineno)
    return reference_from_adjacency_list(rows, directed)


REFERENCE_PARSERS = {
    "graph": (reference_edge_lines, False),
    "digraph": (reference_edge_lines, True),
    "matrix": (reference_matrix_lines, False),
    "dmatrix": (reference_matrix_lines, True),
    "adjlist": (reference_adjacency_lines, False),
    "dadjlist": (reference_adjacency_lines, True),
}


def reference_parse_automaton_file(text):
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
    return graphs.Automaton(frozenset(states), successor)

# --- comparison ---------------------------------------------------------------


def outcome(fn, *args):
    """A graph as (directed, n, pairs), another value as itself, or the error raised."""
    try:
        value = fn(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    if isinstance(value, (Graph, ReferenceGraph)):
        return False, value.n, value.edges
    if isinstance(value, (Digraph, ReferenceDigraph)):
        return True, value.n, value.arcs
    return value


def reference_of(g):
    """The pair-set graph with the pairs of ``g``."""
    if isinstance(g, Graph):
        return ReferenceGraph(g.n, g.edges)
    return ReferenceDigraph(g.n, g.arcs)


class _SortedSets(ast.NodeTransformer):
    def visit_Set(self, node):
        self.generic_visit(node)
        node.elts.sort(key=ast.unparse)
        return node


def shown(text):
    """``text``, a repr, with each set display's members sorted: set order is hash order."""
    return ast.unparse(_SortedSets().visit(ast.parse(text, mode="eval")))


def random_pairs(rng, n, directed):
    p = rng.choice([0.0, 0.1, 0.3, 0.7, 1.0])
    return {(u, v) for u in range(n) for v in range(n)
            if (u < v or directed and (u > v or rng.random() < 0.2)) and rng.random() < p}


# Lines a mutation inserts: headers, pairs, matrix rows, adjacency rows, noise.
NOISE_LINES = ["", "# c", "graph 3", "digraph 2", "matrix 2", "adjlist 1", "graph -1",
               "graph x", "graph", "0 1", "1 0", "0 0", "2 9", "-1 0", "0 1 2", "0", "a b",
               "0 ١", "01", "10", "0110", "012", "0: 1", "1: 0", "0: 0", "9: 1", "x: 1",
               "0 1", "0:", "1: 9", "Bw", "A_", "?", "~"]


def random_graph_text(rng):
    """Text in one of the seven formats, with the faults the CLI digest draws, or mutated."""
    source = rng.choice(["graph", "digraph", "matrix", "dmatrix", "adjlist", "dadjlist", "g6"])
    n = rng.choice([0, 1, 2, 3, 4, 5, 7, 9, 13, 30]) if source != "g6" else rng.randint(0, 14)
    lines = graph_file_lines(rng, source, n, random_pairs(rng, n, source.startswith("d")))
    if rng.random() < 0.4:
        add_graph_faults(rng, source, n, lines)
    if source != "g6":
        lines.insert(0, f"{source} {n}")
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        where = rng.randint(0, len(lines))
        if rng.random() < 0.6 or not lines:
            lines.insert(where, rng.choice(NOISE_LINES))
        elif rng.random() < 0.5:
            del lines[min(where, len(lines) - 1)]
        else:
            lines.insert(where, rng.choice(lines))
    blank = rng.choice([" ", "\t", "\xa0", "\u3000"])
    return "\n".join(rng.choice(["", blank]) + line.replace(" ", rng.choice([" ", blank]))
                     for line in lines) + rng.choice(["\n", "\r\n", ""])


# Faults the fuzz must meet, numbers written as N.
FAULTS = {
    "edge (N,N) out of range for n=N", "arc (N,N) out of range for n=N",
    "self-loop (N,N) not allowed in an undirected graph", "matrix is not symmetric at (N,N)",
    "nonzero diagonal at N in an undirected matrix", "adjacency list is not symmetric at (N, N)",
    "nonzero padding bits in graphN string", "line N: expected 'u v'",
    "line N: expected N characters of N/N", "expected N matrix rows, got N",
    "line N: duplicate row for vertex N", "line N: vertex N out of range",
    "line N: bad vertex 'x'", "line N: bad vertex count 'x'",
    "line N: expected 'v: neighbours'", "line N: expected '<kind> <n>'",
    "line N: unknown header 'N'", "empty graph text", "line N: vertex count must be >= N",
    "byte N at position N outside graphN range",
}


def test_reader_agrees_with_the_pair_set_reader():
    """Half the texts are edge or adjacency texts with the header first, half
    of those with one near miss or another valid spelling."""
    rng = random.Random(22)
    graphs_read, messages = 0, set()
    for i in range(6000):
        if i % 2:
            miss = rng.choice(GTEXT_MISSES + GTEXT_SPELLINGS) if rng.random() < 0.5 else None
            text = gtext_text(rng, *gtext_graph(rng, miss), miss)
        else:
            text = random_graph_text(rng)
        expected = outcome(reference_parse_graph_text, text)
        got = outcome(graphs.parse_graph_text, text)
        assert got == expected, text
        if isinstance(got[0], bool):
            graphs_read += 1
        else:
            messages.add(re.sub(r"\d+", "N", got[1]))
    assert graphs_read >= 2500
    assert FAULTS <= messages, sorted(FAULTS - messages)


# Words and blanks of automaton lines: arrows, near arrows, comment starts and
# states that look like them, with every break and some blanks of str.split.
AUTOMATON_PIECES = ["a", "b", "c", "->", "-> ", " -> ", "-->", "<-", "#", "#a", "a#", "- >",
                    " ", "\t", "\x1f", "\xa0", "\u3000", "\n", "\n", "\r", "\r\n", "\x0b",
                    "\x1c", "\x1e", "\x85", "\u2029"]


def test_automaton_reader_agrees_with_the_line_walk():
    """Machines on up to four states, some with a second successor line, with
    noise lines made of pieces of lines."""
    rng = random.Random(30)
    outcomes = collections.Counter()
    for _ in range(6000):
        states = rng.sample("abcd", rng.randint(1, 4))
        lines = [f"{s} -> {rng.choice(states)}" for s in states]
        if rng.random() < 0.2:
            lines.insert(rng.randint(0, len(lines)), f"{rng.choice(states)} -> a")
        for _ in range(rng.choice([0, 0, 1, 2])):
            piece = "".join(rng.choice(AUTOMATON_PIECES) for _ in range(rng.randint(1, 5)))
            lines.insert(rng.randint(0, len(lines)), piece)
        text = rng.choice(["\n", "\r\n", "\u2028"]).join(lines)
        got = outcome(graphs.parse_automaton_file, text)
        assert got == outcome(reference_parse_automaton_file, text), text
        outcomes[got[1].split(":")[1] if isinstance(got, tuple) else "read"] += 1
    assert outcomes["read"] >= 2000, outcomes
    assert outcomes[" expected 'state -> state'"] >= 300, outcomes
    assert sum(outcomes[k] for k in outcomes if "two successors" in k) >= 300, outcomes


WRITERS = [
    (graphs.format_graph_file, reference_format_graph_file),
    (graphs.format_matrix_text, reference_format_matrix_text),
    (graphs.format_adjacency_text, reference_format_adjacency_text),
    (graphs.encode_graph6, reference_encode_graph6),
    (graphs.to_edge_list, reference_edge_list),
    (graphs.to_adjacency_list, reference_adjacency_list),
    (graphs.to_adjacency_matrix, reference_adjacency_matrix),
]


def test_writers_agree_with_the_pair_set_writers():
    rng = random.Random(23)
    for _ in range(800):
        directed = rng.random() < 0.4
        n = rng.choice([0, 1, 2, 3, 5, 8, 13, 40, 62, 63, 90])
        g = (Digraph if directed else Graph)(n, random_pairs(rng, n, directed))
        reference = reference_of(g)
        for write, reference_write in WRITERS:
            assert outcome(write, g) == outcome(reference_write, reference), (write, g)


def test_graph6_decoder_agrees_with_the_pair_set_decoder():
    rng = random.Random(24)
    for _ in range(4000):
        n = rng.randint(0, 20)
        text = reference_encode_graph6(ReferenceGraph(n, random_pairs(rng, n, False)))
        if rng.random() < 0.5:
            text = list(text)
            for _ in range(rng.randint(1, 2)):
                text.insert(rng.randint(0, len(text)), chr(rng.choice([62, 63, 64, 100, 126, 127])))
                if rng.random() < 0.5:
                    del text[rng.randrange(len(text))]
            text = "".join(text)
        assert outcome(graphs.decode_graph6, text) == outcome(reference_decode_graph6, text), text


def random_pair_list(rng, n, directed):
    """Pairs in range or out of it, loops, reversed pairs and repeats, in a random order."""
    pairs = list(random_pairs(rng, n, directed))
    pairs += [(v, u) for u, v in pairs if rng.random() < 0.2]
    for _ in range(rng.choice([0, 0, 1, 2])):
        w = rng.choice([-1, n, n + 1, rng.randrange(max(n, 1))])
        pairs.append(rng.choice([(w, w), (0, w), (w, 0)]))
    rng.shuffle(pairs)
    return pairs


def test_direct_builds_agree_with_the_pair_set_builds():
    rng = random.Random(25)
    built = 0
    for _ in range(3000):
        n = rng.choice([-1, 0, 1, 2, 3, 6, 11])
        directed = rng.random() < 0.5
        pairs = random_pair_list(rng, max(n, 0), directed)
        kind = tuple if rng.random() < 0.5 else frozenset
        build, reference = (Digraph, ReferenceDigraph) if directed else (Graph, ReferenceGraph)
        got = outcome(build, n, kind(pairs))
        assert got == outcome(reference, n, kind(pairs)), (n, pairs)
        if isinstance(got[0], bool):
            built += 1
            g = build(n, kind(pairs))
            assert shown(repr(g)) == shown(repr(reference(n, kind(pairs)))[len("Reference"):])
            assert g == build(n, reversed(pairs) if directed else [p[::-1] for p in pairs])
            assert hash(g) == hash(build(n, sorted(set(pairs))))
    assert built >= 1000


def test_library_readers_agree_with_the_pair_set_readers():
    rng = random.Random(26)
    for _ in range(3000):
        n = rng.randint(0, 7)
        directed = rng.random() < 0.5
        g = reference_from_edge_list(n, random_pairs(rng, n, directed), directed)
        rows = reference_adjacency_list(g)
        matrix = reference_adjacency_matrix(g)
        for _ in range(rng.choice([0, 0, 1, 2])):
            u = rng.randrange(max(n, 1))
            if n:
                rows[u].append(rng.choice([u, -1, n, rng.randrange(n)]))
                matrix[u][rng.randrange(n)] ^= 1
            if rng.random() < 0.2:
                matrix.append([0] * n)
        for read, reference, value in (
            (graphs.from_adjacency_list, reference_from_adjacency_list, rows),
            (graphs.from_adjacency_matrix, reference_from_adjacency_matrix, matrix),
        ):
            assert outcome(read, value, directed) == outcome(reference, value, directed), value


def test_random_graphs_and_components_agree_with_the_pair_set_ones():
    rng = random.Random(27)
    for _ in range(400):
        n, p, seed = rng.randint(0, 60), rng.choice([0, 0.01, 0.05, 0.1, 0.5, 0.99, 1]), \
            rng.randrange(10**6)
        g = graphs.er_random_graph(n, p, seed)
        reference = reference_er_random_graph(n, p, seed)
        assert g.edges == reference.edges
        components = [list(graphs._bits(c)) for c in graphs._components(g._masks)[0]]
        assert components == reference_connected_components(reference)
        largest = max(map(len, components)) / n if n else 0.0
        assert graphs.largest_component_fraction(g) == largest


def peak(read, text):
    """The most memory ``read(text)`` held at once, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        read(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_edge_reader_holds_no_more_than_the_pair_set_reader():
    rng = random.Random(28)
    arcs = {(rng.randrange(250), rng.randrange(250)) for _ in range(5000)}
    text = "digraph 250\n" + "".join(f"{u} {v}\n" for u, v in arcs)
    assert peak(graphs.parse_graph_text, text) <= peak(reference_parse_graph_text, text)


def test_adjacency_reader_holds_no_more_than_the_pair_set_reader():
    rng = random.Random(29)
    arcs = {(rng.randrange(250), rng.randrange(250)) for _ in range(5000)}
    text = reference_format_adjacency_text(ReferenceDigraph(250, arcs))
    assert peak(graphs.parse_graph_text, text) <= peak(reference_parse_graph_text, text)


def test_matrix_reader_holds_no_more_than_the_pair_set_reader():
    rng = random.Random(30)
    edges = {(u, v) for u, v in ((rng.randrange(250), rng.randrange(250)) for _ in range(3000))
             if u < v}
    text = reference_format_matrix_text(ReferenceGraph(250, edges))
    assert peak(graphs.parse_graph_text, text) <= peak(reference_parse_graph_text, text)
