import random
from itertools import combinations

from observement.graphs import Digraph, Graph


def all_graphs(n):
    """Every labeled undirected graph on n vertices."""
    pairs = list(combinations(range(n), 2))
    return [
        Graph(n, frozenset(p for i, p in enumerate(pairs) if mask >> i & 1))
        for mask in range(1 << len(pairs))
    ]


def all_digraphs(n, self_loops):
    """Every labeled digraph on n vertices, with or without self-loops."""
    pairs = [(u, v) for u in range(n) for v in range(n) if self_loops or u != v]
    return [
        Digraph(n, frozenset(p for i, p in enumerate(pairs) if mask >> i & 1))
        for mask in range(1 << len(pairs))
    ]


def triangle_pairs(n):
    """The graph6 bit positions in order: the pairs (i, j), i < j, column by column."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def random_graph(rng: random.Random, n: int, p: float = 0.5, directed: bool = False,
                 self_loops: bool = False):
    """Each possible edge, or arc when directed, independently with probability p."""
    if not directed:
        edges = {(i, j) for j in range(n) for i in range(j) if rng.random() < p}
        return Graph(n, frozenset(edges))
    arcs = {(i, j) for i in range(n) for j in range(n)
            if (self_loops or i != j) and rng.random() < p}
    return Digraph(n, frozenset(arcs))
