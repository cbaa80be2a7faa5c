import functools
import math
import random
import sys
from collections import Counter
from itertools import combinations, permutations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_digraphs, all_graphs, random_graph, triangle_pairs
from observement import genetics, motifs
from observement.errors import CapExceeded
from observement.graphs import (
    Digraph,
    Graph,
    _pack_graph6,
    relabel,
    to_adjacency_list,
    to_edge_list,
)
from observement.motifs import (
    AnyOf,
    MotifError,
    MotifPattern,
    Wildcard,
    count_network_motifs,
    derive_motif,
    format_motif,
    match_motif,
    motif_significance,
    parse_motif,
)

AA = "ACDEFGHIKLMNPQRSTVWY"


def degree_sequences(g):
    """Sorted out-degrees and sorted in-degrees; both are the degrees of a Graph."""
    rows = to_adjacency_list(g)
    into = [0] * g.n
    for row in rows:
        for w in row:
            into[w] += 1
    return sorted(map(len, rows)), sorted(into)


def width(pattern):
    """Symbols consumed by a match: 1 per literal or class, N per wildcard."""
    return sum(t.length if isinstance(t, Wildcard) else 1 for t in pattern.tokens)


# Reference matcher for ``match_motif``: a token-by-token scan from each offset.


def _oracle_match_at(tokens, s, start):
    i = start
    for token in tokens:
        if isinstance(token, Wildcard):
            i += token.length
            if i > len(s):
                return None
        elif i >= len(s):
            return None
        elif isinstance(token, str):
            if s[i] != token:
                return None
            i += 1
        else:
            if s[i] not in token.symbols:
                return None
            i += 1
    return i


def oracle_match_motif(pattern, s, anchored=False):
    if anchored:
        return [0] if _oracle_match_at(pattern.tokens, s, 0) is not None else []
    return [i for i in range(len(s) - width(pattern) + 1)
            if _oracle_match_at(pattern.tokens, s, i) is not None]


class TestParseMotif:
    def test_figure_style_pattern(self):
        pattern = parse_motif("M x(3) {S,T} G")
        assert pattern.tokens == (
            "M",
            Wildcard(3),
            AnyOf(frozenset({"S", "T"})),
            "G",
        )

    def test_empty_text(self):
        assert parse_motif("").tokens == ()

    def test_empty_symbol_class_rejected(self):
        with pytest.raises(MotifError) as caught:
            AnyOf(frozenset())
        assert str(caught.value) == "empty symbol class"

    def test_zero_width_wildcard_rejected(self):
        with pytest.raises(MotifError, match=">= 1"):
            parse_motif("x(0)")

    def test_empty_class_rejected(self):
        with pytest.raises(MotifError, match="empty symbol class"):
            parse_motif("{}")

    def test_unknown_character_rejected(self):
        with pytest.raises(MotifError, match="unknown character"):
            parse_motif("M?G")

    def test_malformed_wildcard_count(self):
        with pytest.raises(MotifError, match="wildcard count"):
            parse_motif("x(two)")

    def test_adjacent_wildcards_merge(self):
        assert parse_motif("x(2) x(3)").tokens == (Wildcard(5),)

    def test_bare_x_is_a_literal(self):
        assert parse_motif("xG").tokens == ("x", "G")

    def test_format_round_trip(self):
        pattern = parse_motif("A x(2) {D,E} x(1) K")
        assert parse_motif(format_motif(pattern)) == pattern

    def test_direct_construction_merges_wildcards(self):
        assert MotifPattern((Wildcard(1), Wildcard(2))) == MotifPattern((Wildcard(3),))
        pattern = MotifPattern((Wildcard(1), "A", Wildcard(2), Wildcard(2)))
        assert pattern.tokens == (Wildcard(1), "A", Wildcard(4))


class TestMatchMotif:
    def test_empty_pattern_anchored(self):
        assert match_motif(MotifPattern(), "ANYTHING", anchored=True) == [0]

    def test_empty_pattern_search_hits_every_suffix(self):
        assert match_motif(MotifPattern(), "AB") == [0, 1, 2]

    def test_wildcard_width_anchored(self):
        # Token widths: 1 + 2 + 1 = 4 = len("AXYD"); A at 0, D at 3.
        pattern = MotifPattern(("A", Wildcard(2), "D"))
        assert match_motif(pattern, "AXYD", anchored=True) == [0]
        assert match_motif(pattern, "AXYZ", anchored=True) == []
        assert match_motif(pattern, "AXD", anchored=True) == []

    def test_search_offsets(self):
        assert match_motif(MotifPattern(("A",)), "BABA") == [1, 3]

    def test_anchored_is_prefix_of_search(self):
        pattern = parse_motif("A {B,C}")
        assert match_motif(pattern, "ABAC", anchored=True) == [0]
        assert match_motif(pattern, "ABAC") == [0, 2]

    @settings(max_examples=60)
    @given(st.text(alphabet="ABC", max_size=12), st.text(alphabet="ABC{},x()1 ", max_size=8))
    def test_search_equals_bruteforce_over_suffixes(self, s, raw):
        try:
            pattern = parse_motif(raw)
        except MotifError:
            return
        expected = [
            i for i in range(len(s) + 1)
            if match_motif(pattern, s[i:], anchored=True) == [0]
        ]
        assert match_motif(pattern, s) == expected

    def test_matches_the_scan_oracle_on_regex_metacharacters(self):
        # Symbols and sequences mix letters with characters that mean
        # something to a regular expression, inside a class or outside one.
        rng = random.Random(15)
        alphabet = "ab-^]\\[.*$\n"
        for _ in range(3000):
            tokens = []
            for _ in range(rng.randint(0, 4)):
                kind = rng.random()
                if kind < 0.4:
                    tokens.append(rng.choice(alphabet))
                elif kind < 0.8:
                    tokens.append(AnyOf(frozenset(rng.sample(alphabet, rng.randint(1, 4)))))
                else:
                    tokens.append(Wildcard(rng.randint(1, 3)))
            pattern = MotifPattern(tuple(tokens))
            s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            for anchored in (False, True):
                assert match_motif(pattern, s, anchored=anchored) == \
                    oracle_match_motif(pattern, s, anchored), (pattern, s, anchored)

    def test_wildcard_beyond_the_repeat_limit_matches_nowhere(self):
        pattern = MotifPattern(("A", Wildcard(2 ** 40)))
        assert match_motif(pattern, "AB") == oracle_match_motif(pattern, "AB") == []
        assert match_motif(pattern, "AB", anchored=True) == []


class TestDeriveMotif:
    def test_identical_sequences_give_literals(self):
        assert derive_motif(["AAA", "AAA"], class_cap=2).tokens == (
            "A", "A", "A",
        )

    def test_small_class_kept(self):
        assert derive_motif(["AB", "AC"], class_cap=2).tokens == (
            "A", AnyOf(frozenset({"B", "C"})),
        )

    def test_wide_columns_become_merged_wildcard(self):
        assert derive_motif(["AB", "CD"], class_cap=1).tokens == (Wildcard(2),)

    def test_fewer_than_two_sequences_rejected(self):
        with pytest.raises(MotifError, match="at least 2"):
            derive_motif(["ABC"], class_cap=2)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(MotifError, match="length"):
            derive_motif(["AB", "ABC"], class_cap=2)

    def test_derived_pattern_matches_every_input(self):
        rng = random.Random(9)
        for _ in range(50):
            length = rng.randint(1, 15)
            count = rng.randint(2, 6)
            base = [rng.choice(AA) for _ in range(length)]
            family = []
            for _ in range(count):
                seq = [
                    c if rng.random() < 0.6 else rng.choice(AA)
                    for c in base
                ]
                family.append("".join(seq))
            pattern = derive_motif(family, class_cap=rng.randint(1, 4))
            assert width(pattern) == length
            for seq in family:
                assert match_motif(pattern, seq, anchored=True) == [0]

    def test_protein_to_motif_chain_loses_information_monotonically(self):
        # Genes map to proteins, equal-length proteins map to their shared
        # motif; the pattern is never wider than the strings it summarizes.
        genes = ["atgattgctaaacattag", "atgatggcaagacactag", "atgatagcgagtcattag"]
        proteins = [genetics.translate_gene(g) for g in genes]
        assert len(set(map(len, proteins))) == 1
        pattern = derive_motif(proteins, class_cap=3)
        assert width(pattern) <= len(proteins[0])
        assert len(pattern.tokens) <= width(pattern)
        for protein in proteins:
            assert match_motif(pattern, protein, anchored=True) == [0]


def census_total(census):
    return sum(census.counts.values())


class TestNetworkMotifCensus:
    def test_triangle_graph(self):
        triangle = Graph(3, {(0, 1), (1, 2), (0, 2)})
        census = count_network_motifs(triangle, 3)
        assert census.counts == {"Bw": 1}  # graph6 code of the 3-clique

    def test_feed_forward_loop_digraph(self):
        ffl = Digraph(3, {(0, 1), (1, 2), (0, 2)})
        census = count_network_motifs(ffl, 3)
        assert census_total(census) == 1
        assert list(census.counts.values()) == [1]
        cycle = Digraph(3, {(0, 1), (1, 2), (2, 0)})
        assert count_network_motifs(cycle, 3).counts.keys() != census.counts.keys()

    def test_empty_graph_triads(self):
        census = count_network_motifs(Graph(5), 3)
        assert census.counts == {"B?": 10}  # C(5,3) empty triads

    def test_totals_match_binomial(self):
        rng = random.Random(31)
        for n, k in [(6, 3), (8, 3), (9, 4), (7, 4)]:
            edges = {(i, j) for j in range(n) for i in range(j) if rng.random() < 0.4}
            g = Graph(n, frozenset(edges))
            assert census_total(count_network_motifs(g, k)) == math.comb(n, k)

    def test_census_is_relabeling_invariant(self):
        rng = random.Random(8)
        for _ in range(10):
            n = rng.randint(4, 10)
            g = Graph(n, frozenset(
                (i, j) for j in range(n) for i in range(j) if rng.random() < 0.5
            ))
            perm = list(range(n))
            rng.shuffle(perm)
            assert count_network_motifs(g, 3).counts == \
                count_network_motifs(relabel(g, perm), 3).counts

    def test_directed_census_is_relabeling_invariant(self):
        rng = random.Random(13)
        for _ in range(10):
            n = rng.randint(4, 8)
            g = Digraph(n, frozenset(
                (i, j) for i in range(n) for j in range(n)
                if i != j and rng.random() < 0.3
            ))
            perm = list(range(n))
            rng.shuffle(perm)
            assert count_network_motifs(g, 3).counts == \
                count_network_motifs(relabel(g, perm), 3).counts

    def test_size_cap(self):
        with pytest.raises(CapExceeded):
            count_network_motifs(Graph(61), 4)

    def test_unsupported_k(self):
        with pytest.raises(MotifError, match="motif size"):
            count_network_motifs(Graph(5), 5)


# Reference census for ``count_network_motifs``, one subset at a time: each
# k-subset builds its local mask from edge lookups, is canonicalised through
# k! precomputed bit tables and packs its own identifier.


def _oracle_local_mask(g, vertices):
    k = len(vertices)
    mask = 0
    if isinstance(g, Graph):
        for bit, (i, j) in enumerate(triangle_pairs(k)):
            if (min(vertices[i], vertices[j]), max(vertices[i], vertices[j])) in g.edges:
                mask |= 1 << bit
    else:
        for i in range(k):
            for j in range(k):
                if (vertices[i], vertices[j]) in g.arcs:
                    mask |= 1 << (i * k + j)
    return mask


def _oracle_bit_permutations(k, directed):
    if directed:
        positions = {(i, j): i * k + j for i in range(k) for j in range(k)}
    else:
        positions = {pair: bit for bit, pair in enumerate(triangle_pairs(k))}
    tables = []
    for perm in permutations(range(k)):
        table = []
        for i, j in positions:
            a, b = perm[i], perm[j]
            if not directed:
                a, b = min(a, b), max(a, b)
            table.append((positions[(i, j)], positions[(a, b)]))
        tables.append(table)
    return tables


def _oracle_canonical(mask, tables):
    return min(sum(1 << dst for src, dst in table if mask >> src & 1) for table in tables)


def _oracle_identifier(mask, k, directed):
    if directed:
        return f"d{k}:" + format(mask, f"0{k * k}b")
    return _pack_graph6(k, [(mask >> b) & 1 for b in range(k * (k - 1) // 2)])


def oracle_census(g, k):
    directed = isinstance(g, Digraph)
    tables = _oracle_bit_permutations(k, directed)
    counts = {}
    for vertices in combinations(range(g.n), k):
        canonical = _oracle_canonical(_oracle_local_mask(g, vertices), tables)
        identifier = _oracle_identifier(canonical, k, directed)
        counts[identifier] = counts.get(identifier, 0) + 1
    return counts


@functools.cache
def undirected_names(k):
    """Each undirected k-vertex class's identifier, keyed by the identifier of its
    symmetric digraph."""
    directed, undirected = _oracle_bit_permutations(k, True), _oracle_bit_permutations(k, False)
    names = {}
    for mask in range(1 << k * (k - 1) // 2):
        arcs = sum(1 << i * k + j | 1 << j * k + i
                   for bit, (i, j) in enumerate(triangle_pairs(k)) if mask >> bit & 1)
        names[_oracle_identifier(_oracle_canonical(arcs, directed), k, True)] = \
            _oracle_identifier(_oracle_canonical(mask, undirected), k, False)
    return names


def looped_digraph(rng, n, density, loop_share):
    """Each arc between distinct vertices with probability ``density``, each loop with
    probability ``loop_share``."""
    loops = {(v, v) for v in range(n) if rng.random() < loop_share}
    return Digraph(n, random_graph(rng, n, density, directed=True).arcs | loops)


# The triad codes of Batagelj & Mrvar and ``networkx.triadic_census``, each
# with the identifier of its class.
TRIAD_CODES = {
    "003": "d3:000000000", "012": "d3:000000010", "102": "d3:000001010",
    "021D": "d3:000000110", "021U": "d3:000100100", "021C": "d3:000001100",
    "111D": "d3:001001010", "111U": "d3:000001110", "030T": "d3:000100110",
    "030C": "d3:001100010", "201": "d3:001001110", "120D": "d3:001101100",
    "120U": "d3:000101110", "120C": "d3:001100110", "210": "d3:001101110",
    "300": "d3:011101110",
}


def nx_triadic_census(n, arcs):
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(arcs)
    return nx.triadic_census(g)


class TestCensusOracle:
    @pytest.mark.parametrize("k", [3, 4])
    def test_every_graph_on_at_most_five_vertices(self, k):
        for n in range(6):
            for g in all_graphs(n):
                assert list(count_network_motifs(g, k).counts.items()) == \
                    sorted(oracle_census(g, k).items())

    @pytest.mark.parametrize("k", [3, 4])
    def test_every_digraph_with_self_loops_on_at_most_three_vertices(self, k):
        for n in range(4):
            for g in all_digraphs(n, self_loops=True):
                assert list(count_network_motifs(g, k).counts.items()) == \
                    sorted(oracle_census(g, k).items())

    @pytest.mark.parametrize("k", [3, 4])
    def test_every_loopless_digraph_on_four_vertices(self, k):
        for g in all_digraphs(4, self_loops=False):
            assert list(count_network_motifs(g, k).counts.items()) == \
                sorted(oracle_census(g, k).items())

    @pytest.mark.parametrize("directed, self_loops",
                             [(False, False), (True, False), (True, True)])
    @pytest.mark.parametrize("k, largest", [(3, 30), (4, 16)])
    def test_seeded_random_graphs(self, k, largest, directed, self_loops):
        rng = random.Random(k * 100 + largest + 2 * directed + self_loops)
        for _ in range(10):
            n = rng.randint(6, largest)
            g = random_graph(rng, n, rng.uniform(0.05, 0.6), directed, self_loops)
            assert list(count_network_motifs(g, k).counts.items()) == \
                sorted(oracle_census(g, k).items())

    @pytest.mark.parametrize("density", [0, 0.05, 0.3, 0.9, 1])
    @pytest.mark.parametrize("k", [3, 4])
    def test_construction_matches_the_prefix_split_up_to_the_cap(self, k, density):
        rng = random.Random(k * 10 + int(density * 100))
        cap = motifs.CENSUS_CAPS[k]
        for n in (0, k - 1, k, k + 2, rng.randint(k + 3, cap - 1), cap):
            g = random_graph(rng, n, density)
            # the prefix split, on the symmetric digraph, renamed to undirected classes
            split = motifs._tally_by_prefix(Digraph(n, g.edges | {(j, i) for i, j in g.edges}), k)
            assert list(count_network_motifs(g, k).counts.items()) == \
                sorted((undirected_names(k)[name], count) for name, count in split.items())

    @pytest.mark.parametrize("loop_share", [0, 0.5, 1])
    @pytest.mark.parametrize("density", [0, 0.1, 0.6, 1])
    def test_triad_construction_matches_the_prefix_split_up_to_the_cap(self, density, loop_share):
        # Above half the possible arcs the construction tallies the arc complement.
        rng = random.Random(f"triads-{density}-{loop_share}")
        cap = motifs.CENSUS_CAPS[3]
        for n in (0, 1, 2, 3, 5, rng.randint(6, 40), cap):
            g = looped_digraph(rng, n, density, loop_share)
            assert list(count_network_motifs(g, 3).counts.items()) == \
                sorted(motifs._tally_by_prefix(g, 3).items())

    def test_triad_census_matches_networkx(self):
        codes = {}  # each labelled loopless 3-vertex digraph: its triad code, its identifier
        pairs = [(u, v) for u in range(3) for v in range(3) if u != v]
        for mask in range(1 << len(pairs)):
            arcs = [pair for bit, pair in enumerate(pairs) if mask >> bit & 1]
            (code,) = [code for code, count in nx_triadic_census(3, arcs).items() if count]
            codes.setdefault(code, set()).update(count_network_motifs(Digraph(3, arcs), 3).counts)
        assert codes == {code: {identifier} for code, identifier in TRIAD_CODES.items()}
        assert len(set(TRIAD_CODES.values())) == len(TRIAD_CODES) == 16
        # networkx takes seconds on a dense digraph of 120 vertices or more.
        rng = random.Random(24)
        sizes = [(n, density) for n in (3, 4, 10, 40) for density in (0, 0.1, 0.5, 0.9, 1)]
        for n, density in sizes + [(120, 0.05), (motifs.CENSUS_CAPS[3], 0.02)]:
            g = looped_digraph(rng, n, density, 0)
            expected = {TRIAD_CODES[code]: count
                        for code, count in nx_triadic_census(n, g.arcs).items() if count}
            assert count_network_motifs(g, 3).counts == dict(sorted(expected.items()))

    @pytest.mark.parametrize("k, directed", [(3, True), (4, True)])
    def test_canonical_mask_matches_the_permutation_oracle(self, k, directed):
        tables = _oracle_bit_permutations(k, directed)
        rng = random.Random(k)
        masks = range(1 << k * k) if k < 4 else [rng.getrandbits(k * k) for _ in range(5000)]
        for mask in masks:
            assert motifs._canonical_mask(mask, k) == _oracle_canonical(mask, tables)

    def test_triad_construction_makes_a_tenth_of_the_prefix_splits_popcounts(self):
        # Work, not time: a sparse 200-vertex digraph, mean degree 4, half its vertices looped.
        g = looped_digraph(random.Random(4), 200, 4 / 199, 0.5)

        def popcounts(census):
            calls = 0

            def profile(frame, event, arg):
                nonlocal calls
                if event == "c_call" and arg.__name__ == "bit_count":
                    calls += 1

            sys.setprofile(profile)
            try:
                census(g, 3)
            finally:
                sys.setprofile(None)
            return calls

        built, split = popcounts(count_network_motifs), popcounts(motifs._tally_by_prefix)
        assert 0 < built <= split / 10

    def test_subgraph_copy_table_rebuilds_from_canonical_masks(self):
        for k in (3, 4):
            cells, tables = k * (k - 1) // 2, _oracle_bit_permutations(k, False)
            canonical = [_oracle_canonical(mask, tables) for mask in range(1 << cells)]
            classes = sorted(set(canonical), key=lambda mask: (-mask.bit_count(), mask))
            table = {mask: {} for mask in classes}
            for container in classes:
                for mask in range(1 << cells):
                    inner = canonical[mask]
                    if mask & ~container == 0 and inner != container:
                        table[inner][container] = table[inner].get(container, 0) + 1
            assert list(motifs._SUBGRAPH_COPIES[k]) == classes
            assert motifs._SUBGRAPH_COPIES[k] == table


# Reference rewiring for ``_rewired_copy``: one double-edge-swap attempt per
# call, drawing from the generator in the same order.


def _oracle_rewire_once(pairs, present, rng, directed):
    i, j = rng.randrange(len(pairs)), rng.randrange(len(pairs))
    if i == j:
        return
    a, b = pairs[i]
    c, d = pairs[j]
    if not directed and rng.random() < 0.5:
        c, d = d, c
    e1, e2 = (a, d), (c, b)
    if not directed:
        e1 = (min(e1), max(e1))
        e2 = (min(e2), max(e2))
    if a == b or c == d or a == d or c == b or e1 == e2 or e1 in present or e2 in present:
        return
    present.discard(pairs[i])
    present.discard(pairs[j])
    present.update((e1, e2))
    pairs[i], pairs[j] = e1, e2


def oracle_rewired_copy(g, rng):
    directed = isinstance(g, Digraph)
    pairs = sorted(g.arcs if directed else g.edges)
    present = set(pairs)
    for _ in range(motifs.REWIRE_ATTEMPTS_PER_EDGE * len(pairs)):
        _oracle_rewire_once(pairs, present, rng, directed)
    if directed:
        return Digraph(g.n, frozenset(present))
    return Graph(g.n, frozenset(present))


def randrange_rewired_copy(g, rng):
    """Reference rewiring: the former ``_rewired_copy``, which draws each pair
    index with ``rng.randrange`` and lists the pairs afresh for every sample."""
    directed = isinstance(g, Digraph)
    pairs = to_edge_list(g)
    present = set(pairs)
    size = len(pairs)
    randrange, coin = rng.randrange, rng.random
    for _ in range(motifs.REWIRE_ATTEMPTS_PER_EDGE * size):
        i = randrange(size)
        j = randrange(size)
        if i == j:
            continue
        a, b = pairs[i]
        c, d = pairs[j]
        if not directed and coin() < 0.5:
            c, d = d, c
        if a == b or c == d or a == d or c == b:
            continue
        e1, e2 = (a, d), (c, b)
        if not directed:
            if a > d:
                e1 = (d, a)
            if c > b:
                e2 = (b, c)
        if e1 == e2 or e1 in present or e2 in present:
            continue
        present.discard(pairs[i])
        present.discard(pairs[j])
        present.add(e1)
        present.add(e2)
        pairs[i], pairs[j] = e1, e2
    return type(g)(g.n, frozenset(present))


def rewired(g, rng):
    return motifs._rewired_copy(g, to_edge_list(g), rng)


class TestMotifSignificance:
    @pytest.mark.parametrize("directed", [False, True])
    def test_rewiring_matches_the_per_attempt_oracle(self, directed):
        rng = random.Random(40 + directed)
        for _ in range(12):
            g = random_graph(rng, rng.randint(2, 14), rng.uniform(0.1, 0.7), directed,
                             self_loops=directed and rng.random() < 0.5)
            for seed in (0, 1, 7):
                expected_rng, actual_rng = random.Random(seed), random.Random(seed)
                expected = oracle_rewired_copy(g, expected_rng)
                actual = rewired(g, actual_rng)
                assert actual == expected
                if directed:
                    assert list(actual.arcs) == list(expected.arcs)
                else:
                    assert list(actual.edges) == list(expected.edges)
                assert actual_rng.getstate() == expected_rng.getstate()

    @pytest.mark.parametrize("kind", ["graph", "digraph", "looped"])
    def test_rewiring_keeps_the_randrange_stream(self, kind):
        # Edge counts at and around powers of two, where an index drawn from
        # random bits is redrawn most often.  Equal generator states after each
        # sample prove that the same stream was consumed.
        rng = random.Random(f"stream-{kind}")
        for size in (2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65):
            n = 3
            while (n * n if kind == "looped" else n * (n - 1) // (1 + (kind == "graph"))) < size:
                n += 1
            n += rng.randint(0, 4)
            slots = [(u, v) for u in range(n) for v in range(n)
                     if kind == "looped" or u != v and (kind == "digraph" or u < v)]
            g = (Graph if kind == "graph" else Digraph)(n, rng.sample(slots, size))
            edges = to_edge_list(g)
            expected_rng, actual_rng = random.Random(size), random.Random(size)
            for _ in range(5):
                expected = randrange_rewired_copy(g, expected_rng)
                actual = motifs._rewired_copy(g, edges, actual_rng)
                assert to_edge_list(actual) == to_edge_list(expected), (kind, size)
                assert actual_rng.getstate() == expected_rng.getstate(), (kind, size)
            assert edges == to_edge_list(g)

    def test_rewiring_keeps_every_self_loop_and_degree(self):
        rng = random.Random(16)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 12), rng.uniform(0.1, 0.7), True,
                             self_loops=True)
            sample = rewired(g, random.Random(rng.randrange(1000)))
            assert [(u, v) for u, v in sorted(sample.arcs) if u == v] == \
                [(u, v) for u, v in sorted(g.arcs) if u == v]
            for side in (0, 1):
                assert Counter(arc[side] for arc in sample.arcs) == \
                    Counter(arc[side] for arc in g.arcs)

    def test_edgeless_graph_with_no_samples_gives_the_census(self):
        census = motif_significance(Graph(3), 3, rewires=0, seed=1)
        assert census == count_network_motifs(Graph(3), 3)

    def test_zero_rewires_leaves_background_unavailable(self):
        g = Graph(4, {(0, 1), (1, 2), (2, 3)})
        census = motif_significance(g, 3, rewires=0, seed=1)
        assert census.background is None
        assert census.counts == count_network_motifs(g, 3).counts

    def test_single_edge_cannot_be_rewired(self):
        census = motif_significance(Graph(3, {(0, 1)}), 3, rewires=5, seed=1)
        assert census.background is None

    def test_edgeless_graph_rejected(self):
        with pytest.raises(MotifError, match="at least one edge"):
            motif_significance(Graph(3), 3, rewires=5, seed=1)

    def test_triangle_is_rigid_under_rewiring(self):
        # Only one simple graph has degree sequence (2,2,2) on 3 vertices, so
        # every rewiring attempt must be rejected and the background equals
        # the observed counts exactly.
        triangle = Graph(3, {(0, 1), (1, 2), (0, 2)})
        census = motif_significance(triangle, 3, rewires=20, seed=5)
        assert census.background == {"Bw": 1.0}

    def test_deterministic_for_fixed_seed(self):
        rng = random.Random(77)
        g = Digraph(12, frozenset(
            (i, j) for i in range(12) for j in range(12) if i != j and rng.random() < 0.2
        ))
        first = motif_significance(g, 3, rewires=8, seed=42)
        second = motif_significance(g, 3, rewires=8, seed=42)
        assert first.counts == second.counts
        assert first.background == second.background

    def test_rewiring_preserves_degree_sequences(self):
        rng = random.Random(2)
        g = Graph(10, frozenset(
            (i, j) for j in range(10) for i in range(j) if rng.random() < 0.4
        ))
        sample = rewired(g, random.Random(3))
        assert degree_sequences(sample) == degree_sequences(g)
        dg = Digraph(9, frozenset(
            (i, j) for i in range(9) for j in range(9) if i != j and rng.random() < 0.3
        ))
        dsample = rewired(dg, random.Random(3))
        assert degree_sequences(dsample) == degree_sequences(dg)
