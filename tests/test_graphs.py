import itertools
import math
import random
import time
from dataclasses import FrozenInstanceError

import networkx as nx
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_digraphs, all_graphs, random_graph
from observement import graphs
from observement.cli import cli
from observement.errors import CapExceeded
from observement.graphs import (
    Automaton,
    Digraph,
    Graph,
    GraphError,
    are_isomorphic,
    decode_graph6,
    encode_graph6,
    er_random_graph,
    format_adjacency_text,
    format_graph_file,
    format_matrix_text,
    from_adjacency_list,
    from_adjacency_matrix,
    from_edge_list,
    is_subgraph,
    largest_component_fraction,
    parse_automaton_file,
    parse_graph_text,
    percolation_sweep,
    relabel,
    state_order,
    state_space_graph,
    to_adjacency_list,
    to_adjacency_matrix,
    to_edge_list,
)

K3 = Graph(3, {(0, 1), (1, 2), (0, 2)})
P3 = Graph(3, {(0, 1), (1, 2)})


@st.composite
def graphs_strategy(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, frozenset(edges))


class TestTypes:
    def test_self_loop_rejected_in_graph(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph(3, {(1, 1)})

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            Graph(2, {(0, 5)})

    def test_edges_normalised_to_sorted_pairs(self):
        assert Graph(3, {(2, 0)}) == Graph(3, {(0, 2)})

    def test_fields_cannot_be_assigned_or_deleted(self):
        with pytest.raises(FrozenInstanceError) as caught:
            K3.n = 4
        assert str(caught.value) == "cannot assign to field 'n'"
        with pytest.raises(FrozenInstanceError) as caught:
            del K3._rows
        assert str(caught.value) == "cannot delete field '_rows'"

    def test_relabel_needs_a_permutation(self):
        with pytest.raises(GraphError) as caught:
            relabel(K3, [0, 0, 1])
        assert str(caught.value) == "relabeling must be a permutation of the vertex set"

    def test_digraph_admits_self_loops(self):
        assert Digraph(2, {(1, 1)}).arcs == frozenset({(1, 1)})


class TestConversions:
    def test_empty_graph_is_zero_matrix(self):
        assert to_adjacency_matrix(Graph(3)) == [[0] * 3 for _ in range(3)]

    def test_k3_matrix(self):
        assert to_adjacency_matrix(K3) == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

    def test_round_trips_exhaustive_small(self):
        for n in range(5):
            for g in all_graphs(n):
                assert from_adjacency_matrix(to_adjacency_matrix(g)) == g
                assert from_adjacency_list(to_adjacency_list(g)) == g
                assert from_edge_list(g.n, to_edge_list(g)) == g

    @settings(max_examples=50)
    @given(graphs_strategy(max_n=30))
    def test_round_trips_random(self, g):
        assert from_adjacency_matrix(to_adjacency_matrix(g)) == g
        assert from_adjacency_list(to_adjacency_list(g)) == g
        assert from_edge_list(g.n, to_edge_list(g)) == g
        assert decode_graph6(encode_graph6(g)) == g

    def test_digraph_round_trips(self):
        rng = random.Random(6)
        for _ in range(25):
            g = random_graph(rng, rng.randint(0, 10), 0.3, directed=True)
            assert from_adjacency_matrix(to_adjacency_matrix(g), directed=True) == g
            assert from_adjacency_list(to_adjacency_list(g), directed=True) == g
            assert from_edge_list(g.n, to_edge_list(g), directed=True) == g

    def test_asymmetric_matrix_rejected_for_graph(self):
        with pytest.raises(GraphError, match="symmetric"):
            from_adjacency_matrix([[0, 1], [0, 0]])

    def test_nonzero_diagonal_rejected_for_graph(self):
        with pytest.raises(GraphError, match="diagonal"):
            from_adjacency_matrix([[1]])

    def test_k3_in_every_representation(self):
        assert to_edge_list(K3) == [(0, 1), (0, 2), (1, 2)]
        assert to_adjacency_list(K3) == [[1, 2], [0, 2], [0, 1]]
        assert to_adjacency_matrix(K3) == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        assert encode_graph6(K3) == "Bw"


class TestGraph6:
    def test_single_edge_two_bytes(self):
        # Size byte: 2 + 63 = 'A'.  One triangle bit set, padded to 100000,
        # value 32, byte 32 + 63 = '_'.
        assert encode_graph6(Graph(2, {(0, 1)})) == "A_"
        assert decode_graph6("A_") == Graph(2, {(0, 1)})

    def test_single_vertex_is_size_byte_only(self):
        assert encode_graph6(Graph(1)) == "@"
        assert decode_graph6("@") == Graph(1)

    def test_known_codes(self):
        assert encode_graph6(K3) == "Bw"
        assert encode_graph6(P3) == "Bg"
        assert encode_graph6(Graph(0)) == "?"

    def test_exhaustive_round_trip_small(self):
        for n in range(5):
            for g in all_graphs(n):
                assert decode_graph6(encode_graph6(g)) == g

    def test_matches_networkx_encoding(self):
        rng = random.Random(12)
        for _ in range(100):
            g = random_graph(rng, rng.randint(0, 20))
            mirror = nx.Graph()
            mirror.add_nodes_from(range(g.n))
            mirror.add_edges_from(g.edges)
            assert encode_graph6(g) == nx.to_graph6_bytes(mirror, header=False).decode().strip()

    def test_size_cap(self):
        with pytest.raises(GraphError, match="62"):
            encode_graph6(Graph(63))

    @pytest.mark.parametrize("g", [
        Digraph(2, {(0, 1)}),
        Digraph(3, {(0, 1), (1, 1)}),
    ], ids=["arc", "self-loop"])
    def test_digraph_is_a_domain_error(self, g):
        with pytest.raises(GraphError, match="^graph6 encodes undirected graphs only$"):
            encode_graph6(g)

    def test_decode_rejects_long_form(self):
        with pytest.raises(GraphError, match="long-form"):
            decode_graph6("~??")

    def test_decode_rejects_bad_byte(self):
        with pytest.raises(GraphError, match="outside graph6 range"):
            decode_graph6("A" + chr(40))

    def test_decode_rejects_the_empty_string(self):
        with pytest.raises(GraphError) as caught:
            decode_graph6("")
        assert str(caught.value) == "empty graph6 string"

    def test_decode_rejects_trailing_garbage(self):
        with pytest.raises(GraphError, match="trailing garbage"):
            decode_graph6("A__")

    def test_decode_rejects_truncation(self):
        with pytest.raises(GraphError, match="too short"):
            decode_graph6("D")

    def test_decode_rejects_nonzero_padding(self):
        # K2's data byte uses only the first bit; force a padding bit on.
        bad = "A" + chr(ord("_") + 1)
        with pytest.raises(GraphError, match="padding"):
            decode_graph6(bad)


class TestIsomorphism:
    def test_graph_is_isomorphic_to_itself_by_identity(self):
        assert are_isomorphic(K3, K3) == {0: 0, 1: 1, 2: 2}

    def test_relabeled_path(self):
        relabeled = relabel(P3, [1, 0, 2])
        witness = are_isomorphic(P3, relabeled)
        assert witness is not None
        assert all(
            tuple(sorted((witness[u], witness[v]))) in relabeled.edges for u, v in P3.edges
        )

    def test_k3_vs_path_absent(self):
        assert are_isomorphic(K3, P3) is None

    def test_cap(self):
        with pytest.raises(CapExceeded):
            are_isomorphic(Graph(11), Graph(11))

    def test_mixed_kinds_rejected(self):
        with pytest.raises(GraphError, match="Graph with a Digraph"):
            are_isomorphic(K3, Digraph(3))

    def test_symmetric_and_reflexive_on_random_graphs(self):
        rng = random.Random(21)
        for _ in range(30):
            g = random_graph(rng, rng.randint(0, 7))
            h = random_graph(rng, rng.randint(0, 7))
            assert are_isomorphic(g, g) is not None
            assert (are_isomorphic(g, h) is None) == (are_isomorphic(h, g) is None)

    def test_invariant_under_relabeling(self):
        rng = random.Random(34)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 8))
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            assert are_isomorphic(g, h) is not None
            assert sorted(map(len, to_adjacency_list(g))) == \
                sorted(map(len, to_adjacency_list(h)))

    def test_directed_cycle_versus_ffl(self):
        cycle = Digraph(3, {(0, 1), (1, 2), (2, 0)})
        ffl = Digraph(3, {(0, 1), (1, 2), (0, 2)})
        assert are_isomorphic(cycle, ffl) is None
        assert are_isomorphic(cycle, relabel(cycle, [2, 0, 1])) is not None

    def test_self_loop_placement_matters(self):
        a = Digraph(2, {(0, 0), (0, 1)})
        b = Digraph(2, {(1, 1), (1, 0)})
        c = Digraph(2, {(1, 1), (0, 1)})
        assert are_isomorphic(a, b) == {0: 1, 1: 0}
        assert are_isomorphic(a, c) is None


class TestSubgraph:
    def test_edgeless_embeds_anywhere_large_enough(self):
        assert is_subgraph(Graph(3), K3) == {0: 0, 1: 1, 2: 2}
        assert is_subgraph(Graph(4), K3) is None

    def test_triangle_into_k4(self):
        k4 = Graph(4, {(i, j) for j in range(4) for i in range(j)})
        witness = is_subgraph(K3, k4)
        assert witness is not None
        assert all(tuple(sorted((witness[u], witness[v]))) in k4.edges for u, v in K3.edges)

    def test_triangle_into_tree_absent(self):
        tree = Graph(7, {(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)})
        assert is_subgraph(K3, tree) is None

    def test_self_embedding_is_identity(self):
        rng = random.Random(40)
        for _ in range(20):
            g = random_graph(rng, rng.randint(0, 8))
            assert is_subgraph(g, g) == {v: v for v in range(g.n)}

    def test_mutual_subgraphs_of_equal_size_are_isomorphic(self):
        rng = random.Random(41)
        for _ in range(60):
            g = random_graph(rng, 5)
            h = random_graph(rng, 5)
            if len(g.edges) != len(h.edges):
                continue
            both = is_subgraph(g, h) is not None and is_subgraph(h, g) is not None
            assert both == (are_isomorphic(g, h) is not None)

    def test_directed_embedding_respects_direction(self):
        chain = Digraph(2, {(0, 1)})
        cycle = Digraph(3, {(0, 1), (1, 2), (2, 0)})
        witness = is_subgraph(chain, cycle)
        assert witness is not None and (witness[0], witness[1]) in cycle.arcs
        sink = Digraph(2, {(1, 0)})
        assert is_subgraph(sink, cycle) is not None
        two_cycle = Digraph(2, {(0, 1), (1, 0)})
        assert is_subgraph(two_cycle, cycle) is None

    def test_cap(self):
        with pytest.raises(CapExceeded):
            is_subgraph(Graph(9), Graph(9))

    def test_a_vertex_no_host_can_take_ends_before_the_search(self):
        # A 5-vertex path, then a triangle, into K_{s,s}: every path vertex
        # has hosts, but parity leaves the triangle none.  Searched, the path
        # is placed every way before the triangle fails, about s^5 nodes:
        # seconds at s = 20.
        s = 20
        pattern = _disjoint(Graph(5, {(v, v + 1) for v in range(4)}), K3)
        host = Graph(2 * s, {(u, s + v) for u in range(s) for v in range(s)})
        start = time.perf_counter()
        assert is_subgraph(pattern, host) is None
        assert time.perf_counter() - start < 0.1


def _pairs(g) -> frozenset:
    # Undirected edges in both orientations, so a mapped edge can be looked up directly.
    if isinstance(g, Digraph):
        return g.arcs
    return g.edges | {(v, u) for u, v in g.edges}


def _first_map_by_brute_force(small, big, exact):
    """First map in permutations order sending edges onto edges (and, if exact, non-edges
    onto non-edges), as a dict; the oracle for the backtracking search's witness."""
    pairs_s, pairs_b = _pairs(small), _pairs(big)
    # An injective map keeps edges distinct, so a pattern with more edges never fits.
    if exact and small.n != big.n or len(pairs_s) > len(pairs_b):
        return None
    for image in itertools.permutations(range(big.n), small.n):
        mapped = {(image[u], image[v]) for u, v in pairs_s}
        if mapped == pairs_b if exact else mapped <= pairs_b:
            return dict(enumerate(image))
    return None


class TestWitnessOracle:
    """Isomorphism and embedding witnesses equal the brute force's first map, exactly."""

    @pytest.mark.parametrize("corpus", ["graphs<=4", "digraphs-with-loops<=3"])
    def test_every_ordered_pair(self, corpus):
        if corpus == "graphs<=4":
            values = [g for n in range(5) for g in all_graphs(n)]
        else:
            values = [g for n in range(4) for g in all_digraphs(n, self_loops=True)]
        for g in values:
            for h in values:
                assert are_isomorphic(g, h) == _first_map_by_brute_force(g, h, True), (g, h)
                assert is_subgraph(g, h) == _first_map_by_brute_force(g, h, False), (g, h)


def _image_requirement(mask_row, below, mapping, offset=0):
    # Images of the already-assigned vertices that mask_row marks as adjacent.
    req = mask_row & below
    need = 0
    while req:
        low = req & -req
        need |= 1 << (mapping[low.bit_length() - 1] + offset)
        req &= req - 1
    return need


def scan_search(small, big, exact):
    """The search that tests host vertices one at a time, kept as the witness oracle.

    Digraph host rows are flattened to out | in << nb, so one mask test
    checks both directions against the images of the placed vertices.
    """
    ns, nb = small.n, big.n
    out_s, in_s = small._masks[0], small._masks[-1]
    out_b, in_b = big._masks[0], big._masks[-1]
    directed = isinstance(small, Digraph)
    shift = nb if directed else 0
    rows_b = [out_b[w] | in_b[w] << nb for w in range(nb)] if directed else out_b
    prof_s, prof_b = graphs._profiles(small), graphs._profiles(big)
    if exact:
        if sorted(prof_s) != sorted(prof_b):
            return None
        candidates = [[w for w, q in enumerate(prof_b) if q == p] for p in prof_s]
    else:
        candidates = [
            [w for w, (o, i, s) in enumerate(prof_b) if o >= out and i >= into and s >= loop]
            for out, into, loop in prof_s
        ]
    mapping = [-1] * ns

    def extend(v, used):
        if v == ns:
            return True
        below = (1 << v) - 1
        need = _image_requirement(out_s[v], below, mapping)
        if directed:
            need |= _image_requirement(in_s[v], below, mapping, nb)
        # Exact: w's adjacency to every placed image must match; else contain.
        seen = used | used << shift if exact else need
        for w in candidates[v]:
            if not used >> w & 1 and rows_b[w] & seen == need:
                mapping[v] = w
                if extend(v + 1, used | 1 << w):
                    return True
        return False

    return {v: mapping[v] for v in range(ns)} if extend(0, 0) else None


def _items(mapping):
    # Dict order is part of the witness, so compare item lists.
    return None if mapping is None else list(mapping.items())


def _relabelled_or_random(rng, g, directed, self_loops):
    if rng.random() < 0.5:
        perm = list(range(g.n))
        rng.shuffle(perm)
        return relabel(g, perm)
    return random_graph(rng, g.n, rng.uniform(0.1, 0.7), directed, self_loops)


class TestScanOracle:
    """Bitset-domain witnesses equal the one-vertex-at-a-time scan's, dict order included."""

    @pytest.mark.parametrize("directed", [False, True])
    def test_patterns_on_up_to_7_vertices_into_hosts_of_up_to_30(self, directed):
        rng = random.Random(41 + directed)
        found = 0
        for _ in range(500):
            small = random_graph(rng, rng.randint(0, 7), rng.uniform(0.1, 0.5), directed)
            big = random_graph(rng, rng.randint(0, 30), rng.uniform(0.05, 0.5), directed)
            witness = is_subgraph(small, big)
            assert _items(witness) == _items(scan_search(small, big, False)), (small, big)
            found += witness is not None
        assert 0 < found < 500

    def test_digraphs_with_self_loops(self):
        rng = random.Random(43)
        for _ in range(1000):
            small = random_graph(rng, rng.randint(0, 6), rng.uniform(0.1, 0.5), True, True)
            big = random_graph(rng, rng.randint(0, 14), rng.uniform(0.1, 0.6), True,
                               rng.random() < 0.8)
            assert _items(is_subgraph(small, big)) == _items(scan_search(small, big, False))
            other = _relabelled_or_random(rng, small, True, True)
            assert _items(are_isomorphic(small, other)) == \
                _items(scan_search(small, other, True))

    @pytest.mark.parametrize("directed", [False, True])
    def test_exact_pairs_on_up_to_10_vertices(self, directed):
        rng = random.Random(47 + directed)
        found = 0
        for _ in range(600):
            g = random_graph(rng, rng.randint(0, 10), rng.uniform(0.1, 0.7), directed)
            h = _relabelled_or_random(rng, g, directed, False)
            witness = are_isomorphic(g, h)
            assert _items(witness) == _items(scan_search(g, h, True)), (g, h)
            found += witness is not None
        assert 0 < found < 600

    @pytest.mark.parametrize("cycle", [3, 5, 7])
    def test_odd_cycles_into_bipartite_hosts(self, cycle):
        rng = random.Random(53 + cycle)
        pattern = Graph(cycle, frozenset((j, (j + 1) % cycle) for j in range(cycle)))
        for _ in range(8):
            half = rng.randint(cycle, 10)
            host = Graph(2 * half, frozenset(
                (u, half + v) for u in range(half) for v in range(half) if rng.random() < 0.4
            ))
            assert is_subgraph(pattern, host) is None
            assert scan_search(pattern, host, False) is None


def _odd_by_networkx(g):
    """The vertices of components that hold a loop or are not bipartite, as a bitset."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(to_edge_list(g))
    odd = 0
    for component in nx.connected_components(h):
        part = h.subgraph(component)
        if nx.number_of_selfloops(part) or not nx.is_bipartite(part):
            odd |= sum(1 << v for v in component)
    return odd


def _cycle(n, directed=False):
    return (Digraph if directed else Graph)(n, {(j, (j + 1) % n) for j in range(n)})


def _disjoint(*parts):
    """The disjoint union, each part's vertices numbered after the previous part's."""
    n, pairs = 0, []
    for g in parts:
        pairs += [(u + n, v + n) for u, v in to_edge_list(g)]
        n += g.n
    return type(parts[0])(n, pairs)


def _mixed_host(rng, directed):
    """A bipartite block and a random block (odd most often), in either order, maybe relabelled."""
    half = rng.randint(2, 6)
    pairs = {(u, half + v) for u in range(half) for v in range(half) if rng.random() < 0.5}
    if directed:
        pairs = {(u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs}
        pairs |= {(v, u) for u, v in pairs if rng.random() < 0.2}
    blocks = [(Digraph if directed else Graph)(2 * half, pairs),
              random_graph(rng, rng.randint(3, 7), 0.5, directed, directed)]
    rng.shuffle(blocks)
    host = _disjoint(*blocks)
    if rng.random() < 0.3:
        perm = list(range(host.n))
        rng.shuffle(perm)
        host = relabel(host, perm)
    return host


# Patterns that join a component with an odd cycle (or a loop) to a bipartite one.
MIXED_PATTERNS = {
    False: [_disjoint(K3, P3), _disjoint(P3, K3), _disjoint(_cycle(5), Graph(2, {(0, 1)})),
            _disjoint(Graph(2, {(0, 1)}), _cycle(5))],
    True: [_disjoint(Digraph(2, {(0, 0), (0, 1)}), Digraph(3, {(0, 1), (2, 1)})),
           _disjoint(Digraph(3, {(0, 1), (1, 2)}), _cycle(3, True)),
           _disjoint(Digraph(2, {(0, 1), (1, 0)}), Digraph(3, {(0, 1), (1, 2), (0, 2)})),
           _disjoint(Digraph(1, {(0, 0)}), Digraph(3, {(0, 1), (1, 2)}))],
}


class TestParity:
    """The odd-component bitset, and the cut it makes, against independent checks."""

    @pytest.mark.parametrize("corpus", ["graphs<=5", "digraphs-with-loops<=3"])
    def test_bitset_matches_networkx_per_component(self, corpus):
        if corpus == "graphs<=5":
            values = [g for n in range(6) for g in all_graphs(n)]
        else:
            values = [g for n in range(4) for g in all_digraphs(n, self_loops=True)]
        for g in values:
            assert g._odd == _odd_by_networkx(g), g

    @pytest.mark.parametrize("directed", [False, True])
    def test_mixed_components_match_the_scan(self, directed):
        rng = random.Random(59 + directed)
        found = 0
        for _ in range(400):
            small = rng.choice(MIXED_PATTERNS[directed])
            if rng.random() < 0.5:
                perm = list(range(small.n))
                rng.shuffle(perm)
                small = relabel(small, perm)
            big = _mixed_host(rng, directed)
            witness = is_subgraph(small, big)
            assert _items(witness) == _items(scan_search(small, big, False)), (small, big)
            found += witness is not None
            other = _relabelled_or_random(rng, small, directed, directed)
            assert _items(are_isomorphic(small, other)) == \
                _items(scan_search(small, other, True)), (small, other)
        assert 0 < found < 400


class TestAutomata:
    def test_identity_successor_gives_self_loops(self):
        machine = Automaton({"a", "b", "c"}, {"a": "a", "b": "b", "c": "c"})
        assert state_space_graph(machine).arcs == frozenset({(0, 0), (1, 1), (2, 2)})

    def test_cycle_successor_gives_directed_cycle(self):
        machine = Automaton({"s0", "s1", "s2"}, {"s0": "s1", "s1": "s2", "s2": "s0"})
        assert state_space_graph(machine).arcs == frozenset({(0, 1), (1, 2), (2, 0)})

    def test_out_degree_is_always_one(self):
        rng = random.Random(3)
        for _ in range(20):
            states = [f"q{i}" for i in range(rng.randint(1, 12))]
            machine = Automaton(set(states), {s: rng.choice(states) for s in states})
            g = state_space_graph(machine)
            assert all(len(row) == 1 for row in to_adjacency_list(g))

    def test_trajectories_enter_a_cycle_within_state_count_steps(self):
        rng = random.Random(5)
        for _ in range(20):
            states = [f"q{i}" for i in range(rng.randint(1, 10))]
            machine = Automaton(set(states), {s: rng.choice(states) for s in states})
            for start in states:
                seen = []
                current = start
                for _ in range(len(states) + 1):
                    if current in seen:
                        break
                    seen.append(current)
                    current = machine.successor[current]
                assert current in seen

    def test_partial_successor_rejected(self):
        with pytest.raises(GraphError, match="not total"):
            Automaton({"a", "b"}, {"a": "b"})

    @pytest.mark.parametrize("successor, message", [
        ({"a": "a", "b": "a"}, "successor defined on unknown states ['b']"),
        ({"a": "z"}, "successor maps outside the state set: ['z']"),
    ])
    def test_successor_outside_the_states_rejected(self, successor, message):
        with pytest.raises(GraphError) as caught:
            Automaton({"a"}, successor)
        assert str(caught.value) == message

    def test_file_parsing(self):
        machine = parse_automaton_file("s0 -> s1\ns1 -> s0\n")
        assert state_order(machine) == ["s0", "s1"]
        with pytest.raises(GraphError, match="two successors"):
            parse_automaton_file("a -> a\na -> b\nb -> b\n")
        with pytest.raises(GraphError, match="not total"):
            parse_automaton_file("a -> b\n")


class TestRandomGraphs:
    def test_p_zero_is_edgeless(self):
        assert er_random_graph(30, 0.0, seed=1).edges == frozenset()

    def test_p_one_is_complete(self):
        g = er_random_graph(10, 1.0, seed=1)
        assert len(g.edges) == math.comb(10, 2)

    def test_deterministic_per_seed(self):
        assert er_random_graph(50, 0.1, seed=9) == er_random_graph(50, 0.1, seed=9)
        assert er_random_graph(50, 0.1, seed=9) != er_random_graph(50, 0.1, seed=10)

    def test_probability_validated(self):
        with pytest.raises(GraphError, match="probability"):
            er_random_graph(5, 1.5, seed=0)

    def test_edge_count_tracks_probability(self):
        counts = [len(er_random_graph(60, 0.2, seed=s).edges) for s in range(30)]
        expected = 0.2 * math.comb(60, 2)
        assert abs(sum(counts) / len(counts) - expected) < 0.1 * expected


class TestComponents:
    def test_components_partition_vertices(self):
        g = Graph(6, {(0, 1), (1, 2), (4, 5)})
        assert graphs._components(g._masks)[0] == [0b111, 0b1000, 0b110000]
        assert largest_component_fraction(g) == 0.5

    def test_percolation_extremes(self):
        rows = percolation_sweep(100, [0.0, 1.0], trials=3, seed=2)
        assert rows[0] == (0.0, 0.01)
        assert rows[1] == (1.0, 1.0)

    def test_percolation_deterministic(self):
        a = percolation_sweep(40, [0.02, 0.05], trials=5, seed=3)
        assert a == percolation_sweep(40, [0.02, 0.05], trials=5, seed=3)

    def test_trials_validated(self):
        with pytest.raises(GraphError, match="trials"):
            percolation_sweep(10, [0.5], trials=0, seed=0)


class TestTextFormats:
    def test_graph_file_round_trip(self):
        text = format_graph_file(K3)
        assert text.splitlines()[0] == "graph 3"
        assert parse_graph_text(text) == K3

    def test_digraph_file_round_trip(self):
        g = Digraph(4, {(0, 1), (3, 3), (2, 0)})
        assert parse_graph_text(format_graph_file(g)) == g

    def test_matrix_text_round_trip(self):
        rng = random.Random(15)
        for _ in range(10):
            g = random_graph(rng, rng.randint(0, 9))
            assert parse_graph_text(format_matrix_text(g)) == g
            d = random_graph(rng, rng.randint(0, 9), 0.3, directed=True)
            assert parse_graph_text(format_matrix_text(d)) == d

    def test_adjacency_text_round_trip(self):
        rng = random.Random(16)
        for _ in range(10):
            g = random_graph(rng, rng.randint(0, 9))
            assert parse_graph_text(format_adjacency_text(g)) == g

    def test_bare_graph6_line_parses(self):
        assert parse_graph_text("Bw\n") == K3

    def test_comments_ignored(self):
        assert parse_graph_text("# triangle\ngraph 3\n0 1\n1 2\n0 2\n") == K3

    def test_bad_header_rejected(self):
        with pytest.raises(GraphError, match="unknown header"):
            parse_graph_text("network 3\n0 1\n")

    def test_bad_edge_line_rejected(self):
        with pytest.raises(GraphError, match="line 2"):
            parse_graph_text("graph 3\n0 1 2\n")

    @pytest.mark.parametrize("keyword", ["graph", "digraph", "matrix", "dmatrix",
                                         "adjlist", "dadjlist"])
    def test_negative_vertex_count_rejected(self, keyword):
        with pytest.raises(GraphError) as info:
            parse_graph_text(f"# comment\n\n{keyword} -1\n")
        assert str(info.value) == "line 3: vertex count must be >= 0"

    def test_self_loop_in_graph_file_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            parse_graph_text("graph 2\n1 1\n")

    @pytest.mark.parametrize("text, fault", [
        ("graph 9\n0 0\n5 5\n", "self-loop (0,0) not allowed in an undirected graph"),
        ("graph 9\n5 5\n0 0\n", "self-loop (5,5) not allowed in an undirected graph"),
        ("digraph 2\n1 3\n4 0\n", "arc (1,3) out of range for n=2"),
        ("adjlist 3\n0: 1\n1:\n2: 5\n", "adjacency list is not symmetric at (2, 5)"),
        ("adjlist 3\n0: 2\n1: 1\n2:\n", "self-loop (1,1) not allowed in an undirected graph"),
    ], ids=["loops", "loops-reversed", "arcs", "adjlist-range", "adjlist-loop"])
    def test_the_first_fault_the_build_meets_is_named(self, text, fault):
        """Pairs in file order; in an adjacency list, vertices out of range first,
        then the cells row by row, a self-loop before an unmirrored pair."""
        with pytest.raises(GraphError) as info:
            parse_graph_text(text)
        assert str(info.value) == fault


class TestCaps:
    """Each cap refuses before anything is allocated, so an input just over it is cheap."""

    @pytest.mark.parametrize("keyword", ["graph", "digraph", "matrix", "dmatrix",
                                         "adjlist", "dadjlist"])
    def test_header_over_the_vertex_cap(self, keyword, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text(f"# comment\n{keyword} {graphs.VERTEX_CAP + 1}\n")
        result = CliRunner().invoke(cli, ["graph", "convert", str(path), "--to", "edges"])
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr == "Error: line 2: graphs are capped at 5000 vertices, got 5001\n"

    @pytest.mark.parametrize("build", [Graph, Digraph, lambda n: er_random_graph(n, 0.5, 0)])
    def test_builds_over_the_vertex_cap(self, build):
        with pytest.raises(CapExceeded) as info:
            build(graphs.VERTEX_CAP + 1)
        assert str(info.value) == "graphs are capped at 5000 vertices, got 5001"

    def test_percolation_over_the_pair_cap(self):
        # 100 graphs of C(1001, 2) = 500,500 pairs each: just over the cap.
        result = CliRunner().invoke(cli, ["percolate", "-n", "1001", "--p-from", "0",
                                          "--p-to", "1", "--steps", "100", "--trials", "1"])
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr == (
            "Error: percolation sweep capped at 50000000 vertex pairs, got 50050000\n")


# One graph and one digraph in every text format.
GRAPH_FILES = {
    "graph": "graph 5\n0 1\n2 1\n1 3\n3 4\n4 2\n",
    "matrix": "matrix 5\n01000\n10110\n01001\n01001\n00110\n",
    "adjlist": "adjlist 5\n0: 1\n1: 0 2 3\n2: 1 4\n3: 1 4\n4: 2 3\n",
    "g6": "DiK\n",
    "digraph": "digraph 4\n0 1\n1 2\n2 0\n3 3\n",
    "dmatrix": "dmatrix 4\n0100\n0010\n1000\n0001\n",
    "dadjlist": "dadjlist 4\n0: 1\n1: 2\n2: 0\n3: 3\n",
}


class TestRowsOnly:
    """No command that reads, writes, compares or percolates graphs builds their pairs."""

    @pytest.fixture
    def made(self, monkeypatch):
        made = []

        def recording(fn):
            def wrapper(*args):
                made.append(fn(*args))
                return made[-1]
            return wrapper

        for name in ("parse_graph_text", "er_random_graph"):
            monkeypatch.setattr(graphs, name, recording(getattr(graphs, name)))
        return made

    def run(self, made, tmp_path, args, exit_code=0):
        files = {f"@{name}": tmp_path / name for name in GRAPH_FILES}
        for name, path in files.items():
            path.write_text(GRAPH_FILES[name[1:]])
        result = CliRunner().invoke(cli, [str(files.get(a, a)) for a in args])
        assert result.exit_code == exit_code, result.output
        assert made
        for g in made:
            assert "edges" not in vars(g) and "arcs" not in vars(g), args

    @pytest.mark.parametrize("source", sorted(GRAPH_FILES))
    @pytest.mark.parametrize("target", ["edges", "adjlist", "matrix", "g6"])
    def test_convert(self, made, tmp_path, source, target):
        refused = target == "g6" and source.startswith("d")
        self.run(made, tmp_path, ["graph", "convert", f"@{source}", "--to", target], int(refused))

    @pytest.mark.parametrize("args", [
        ["graph", "iso", "@graph", "@matrix"], ["graph", "iso", "@digraph", "@dadjlist"],
        ["graph", "sub", "@adjlist", "@g6"], ["graph", "sub", "@dmatrix", "@digraph"],
        ["complexity", "@graph"], ["complexity", "@matrix", "--canonical"],
        ["percolate", "-n", "30", "--p-from", "0", "--p-to", "1", "--steps", "3",
         "--trials", "2"],
    ])
    def test_search_complexity_and_percolation(self, made, tmp_path, args):
        self.run(made, tmp_path, args)
