import math
import random
import string
import sys
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_graphs, random_graph, triangle_pairs
from observement.complexity import (
    ComplexityReport,
    LzwError,
    _minimal_graph6_mask,
    canonical_string,
    lzw_compress,
    lzw_decompress,
    relative_complexity,
)
from observement.errors import CapExceeded
from observement.graphs import (
    Digraph,
    Graph,
    GraphError,
    _pack_graph6,
    are_isomorphic,
    encode_graph6,
    relabel,
)


@st.composite
def string_and_alphabet(draw):
    size = draw(st.integers(2, 20))
    alphabet = string.ascii_letters[:size]
    text = draw(st.text(alphabet=alphabet, max_size=200))
    return text, alphabet


class TestLzw:
    def test_empty_string(self):
        out = lzw_compress("", "ab")
        assert out.codes == ()
        assert out.dictionary == ()
        assert lzw_decompress(out, "ab") == ""

    def test_ababab_hand_simulation(self):
        # Dictionary starts a=0, b=1.  Steps:
        #   w=a,  next b: emit 0, add ab=2
        #   w=b,  next a: emit 1, add ba=3
        #   w=ab, next a: emit 2, add aba=4
        #   w=ab, end:    emit 2
        out = lzw_compress("ababab", "ab")
        assert out.codes == (0, 1, 2, 2)
        assert out.dictionary == ("ab", "ba", "aba")
        assert lzw_decompress(out, "ab") == "ababab"

    def test_decompress_accepts_bare_code_sequences(self):
        assert lzw_decompress([0, 1, 2, 2], "ab") == "ababab"

    def test_self_referential_code(self):
        # "aaa" emits code 0 then code 2, which names the entry ("aa") being
        # defined by that very emission.
        out = lzw_compress("aaa", "ab")
        assert out.codes == (0, 2)
        assert lzw_decompress(out, "ab") == "aaa"
        # Nine a's hit the case twice: a|aa|aaa|aaa -> [0, 2, 3, 3].
        assert lzw_compress("a" * 9, "ab").codes == (0, 2, 3, 3)
        assert lzw_decompress([0, 2, 3, 3], "ab") == "a" * 9

    def test_out_of_range_code_rejected(self):
        with pytest.raises(LzwError, match="out of range"):
            lzw_decompress([0, 1, 99], "abc")
        with pytest.raises(LzwError, match="out of range"):
            lzw_decompress([3], "abc")  # self-referential needs a predecessor

    def test_symbol_outside_alphabet_rejected(self):
        # Foreign symbols last, first, in the middle, after a multi-symbol
        # match, and two of them, where the first is named.
        for text, position in [("abz", 2), ("zab", 0), ("abzab", 2), ("aaaz", 3),
                               ("abyaz", 2)]:
            with pytest.raises(LzwError) as caught:
                lzw_compress(text, "ab")
            symbol = text[position]
            assert str(caught.value) == \
                f"symbol {symbol!r} at position {position} is outside the alphabet"

    def test_alphabet_validated(self):
        with pytest.raises(LzwError, match="non-empty"):
            lzw_compress("", "")
        with pytest.raises(LzwError, match="duplicate"):
            lzw_compress("a", "aa")
        with pytest.raises(LzwError) as caught:
            lzw_compress("a", ["a", "bc"])
        assert str(caught.value) == "alphabet symbols must be single characters, got 'bc'"

    def test_stored_dictionary_matches_decoder_rebuild(self):
        # A decoder reconstructs the dictionary from the code stream alone;
        # the entries recorded by the compressor must be exactly that.
        rng = random.Random(4)
        for _ in range(50):
            alphabet = "abcd"
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
            out = lzw_compress(text, alphabet)
            assert lzw_decompress(out, alphabet) == text
            rebuilt = []
            table = list(alphabet)
            previous = None
            for code in out.codes:
                entry = table[code] if code < len(table) else previous + previous[0]
                if previous is not None:
                    table.append(previous + entry[0])
                    rebuilt.append(previous + entry[0])
                previous = entry
            assert tuple(rebuilt) == out.dictionary

    @given(string_and_alphabet())
    def test_round_trip_property(self, pair):
        text, alphabet = pair
        assert lzw_decompress(lzw_compress(text, alphabet), alphabet) == text

    @given(string_and_alphabet())
    def test_determinism(self, pair):
        text, alphabet = pair
        assert lzw_compress(text, alphabet) == lzw_compress(text, alphabet)


def scan_canonical_string(g: Graph) -> str:
    """Oracle: the least graph6 code found by scanning all n! vertex orders."""
    bit_count = g.n * (g.n - 1) // 2
    # Earlier triangle positions get higher bit weights so that integer order
    # on masks is exactly lexicographic order on the packed graph6 strings.
    weight = {
        pair: bit_count - 1 - index for index, pair in enumerate(triangle_pairs(g.n))
    }
    best = None
    for perm in permutations(range(g.n)):
        mask = 0
        for u, v in g.edges:
            a, b = perm[u], perm[v]
            mask |= 1 << weight[(a, b) if a < b else (b, a)]
        if best is None or mask < best:
            best = mask
    bits = [(best >> (bit_count - 1 - p)) & 1 for p in range(bit_count)]
    return _pack_graph6(g.n, bits)


def branch_and_bound_mask(n: int, adj: tuple) -> int:
    """Oracle: the former ``_minimal_graph6_mask``, which branches on every vertex.

    It places any unplaced vertex at each position, cuts a prefix only when it
    is greater than the best complete code's prefix, and skips a vertex whose
    twin was already tried at that position.
    """
    bit_count = n * (n - 1) // 2
    best = None
    order = []

    def extend(prefix: int) -> None:
        nonlocal best
        j = len(order)
        if j == n:
            best = prefix
            return
        shift = bit_count - j * (j + 1) // 2
        tried = []
        for v in range(n):
            if v in order or any(adj[t] & ~(1 << v) == adj[v] & ~(1 << t) for t in tried):
                continue
            tried.append(v)
            code = prefix
            for u in order:
                code = code << 1 | adj[v] >> u & 1
            if best is not None and code > best >> shift:
                continue
            order.append(v)
            extend(code)
            order.pop()

    extend(0)
    return best


def least_column_mask(n: int, adj: tuple) -> int:
    """Oracle: the former ``_minimal_graph6_mask``, which places only least columns.

    Every unplaced vertex's column against the placed ones is kept up to
    date; only the vertices whose column is least are placed next, twins are
    skipped, and a prefix is cut only when it is greater than the best
    complete code's prefix.
    """
    bit_count = n * (n - 1) // 2
    twins = [sum(1 << t for t in range(n) if adj[t] & ~(1 << v) == adj[v] & ~(1 << t))
             for v in range(n)]
    bits = [[row >> u & 1 for u in range(n)] for row in adj]  # bits[v][u]: u's bit for v too
    placed = 1 << n  # above every column, which holds fewer than n bits
    best = None

    def extend(prefix: int, j: int, columns: list) -> None:
        nonlocal best
        if j == n:
            best = prefix
            return
        least = min(columns)
        code = prefix << j | least
        if best is not None and code > best >> bit_count - j * (j + 1) // 2:
            return
        tried = 0
        for v, column in enumerate(columns):
            if column == least and not twins[v] & tried:
                tried |= 1 << v
                after = [c << 1 | bit for c, bit in zip(columns, bits[v])]
                after[v] = placed
                extend(code, j + 1, after)

    extend(0, 0, [0] * n)
    return best


def extend_calls(search, graphs, names=("extend",)) -> int:
    """Calls of the nested functions ``names`` of ``search``'s module while it runs on ``graphs``."""
    filename = sys.modules[search.__module__].__file__
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name in names \
                and frame.f_code.co_filename == filename:
            calls += 1

    sys.setprofile(profile)
    try:
        for g in graphs:
            search(g.n, g._masks[0])
    finally:
        sys.setprofile(None)
    return calls


def sampled_graph(rng, n, share):
    """A graph on ``n`` vertices with ``share`` of the possible edges, drawn as the bench draws."""
    slots = [(u, v) for v in range(n) for u in range(v)]
    return Graph(n, rng.sample(slots, round(len(slots) * share)))


def petersen():
    return Graph(10, {(i, (i + 1) % 5) for i in range(5)}
                 | {(5 + i, 5 + (i + 2) % 5) for i in range(5)} | {(i, i + 5) for i in range(5)})


def prism(k):
    return Graph(2 * k, {(i, (i + 1) % k) for i in range(k)}
                 | {(k + i, k + (i + 1) % k) for i in range(k)} | {(i, i + k) for i in range(k)})


def _complete(vertices):
    return set(combinations(vertices, 2))


def cycle(n):
    return Graph(n, {(i, (i + 1) % n) for i in range(n)})


def complement(g):
    return Graph(g.n, _complete(range(g.n)) - g.edges)


# Graphs at the cap with many automorphisms, many largest independent sets,
# or twin classes that are cliques or independent sets.
NAMED_AT_THE_CAP = {
    "petersen": petersen(),
    "petersen_complement": complement(petersen()),
    "prism5": prism(5),
    "cycle9": cycle(9),
    "cycle10": cycle(10),
    "cycle10_complement": complement(cycle(10)),
    "wheel10": Graph(10, {(0, i) for i in range(1, 10)} | {(i, i % 9 + 1) for i in range(1, 10)}),
    "cocktail_party": complement(Graph(10, {(2 * i, 2 * i + 1) for i in range(5)})),
    "perfect_matching10": Graph(10, {(2 * i, 2 * i + 1) for i in range(5)}),
    "three_k3_and_k1": Graph(10, _complete(range(3)) | _complete(range(3, 6))
                             | _complete(range(6, 9))),
}


# Graphs with many automorphisms, twins and tied prefixes: they exercise the
# twin skip and the rule that a prefix equal to the best one is not cut.
TIE_HEAVY = {
    **{f"edgeless{n}": Graph(n) for n in range(9)},
    **{f"complete{n}": Graph(n, _complete(range(n))) for n in range(9)},
    "star_1_7": Graph(8, {(0, leaf) for leaf in range(1, 8)}),
    "k4_4": Graph(8, {(u, v) for u in range(4) for v in range(4, 8)}),
    "cycle8": Graph(8, {(i, (i + 1) % 8) for i in range(8)}),
    "cube3": Graph(8, {(a, b) for a, b in combinations(range(8), 2) if bin(a ^ b).count("1") == 1}),
    "two_k4": Graph(8, _complete(range(4)) | _complete(range(4, 8))),
    "k4_and_4_isolated": Graph(8, _complete(range(4))),
}


class TestCanonicalString:
    def test_edgeless_graph_is_permutation_proof(self):
        g = Graph(4)
        codes = {canonical_string(relabel(g, perm)) for perm in [
            [0, 1, 2, 3], [3, 2, 1, 0], [1, 0, 3, 2],
        ]}
        assert len(codes) == 1

    def test_isomorphic_pairs_share_code(self):
        rng = random.Random(10)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 5))
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_string(g) == canonical_string(relabel(g, perm))

    def test_nonisomorphic_graphs_differ(self):
        k3 = Graph(3, {(0, 1), (1, 2), (0, 2)})
        p3 = Graph(3, {(0, 1), (1, 2)})
        assert canonical_string(k3) != canonical_string(p3)

    def test_canonical_code_is_minimum_over_relabelings(self):
        rng = random.Random(11)
        for _ in range(10):
            g = random_graph(rng, 4)
            expected = min(
                encode_graph6(relabel(g, list(perm))) for perm in permutations(range(4))
            )
            assert canonical_string(g) == expected

    def test_cap(self):
        with pytest.raises(CapExceeded):
            canonical_string(Graph(11))

    def test_matches_scan_on_every_graph_up_to_5_vertices(self):
        for n in range(6):
            for g in all_graphs(n):
                assert canonical_string(g) == scan_canonical_string(g), sorted(g.edges)

    def test_matches_scan_on_random_graphs_on_6_to_8_vertices(self):
        rng = random.Random(13)
        for n in (6, 7, 8):
            for density in (0.3, 0.4, 0.5, 0.6):
                for _ in range(2):
                    g = random_graph(rng, n, density)
                    assert canonical_string(g) == scan_canonical_string(g), (n, sorted(g.edges))

    @pytest.mark.parametrize("name", sorted(TIE_HEAVY))
    def test_tie_heavy_graph_matches_scan_under_relabellings(self, name):
        g = TIE_HEAVY[name]
        expected = scan_canonical_string(g)
        rng = random.Random(name)
        for _ in range(4):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_string(relabel(g, perm)) == expected, perm


class TestLeastColumnSearch:
    """``_minimal_graph6_mask`` against the branch and bound the least-column search replaced."""

    def test_matches_the_former_search_on_seeded_graphs_up_to_8_vertices(self):
        rng = random.Random(23)
        for _ in range(2400):
            g = random_graph(rng, rng.randint(0, 8), rng.choice([0.05, 0.2, 0.35, 0.5,
                                                                  0.65, 0.8, 0.95]))
            adj = g._masks[0]
            assert _minimal_graph6_mask(g.n, adj) == branch_and_bound_mask(g.n, adj), \
                (g.n, sorted(g.edges))

    @pytest.mark.parametrize("name", sorted(TIE_HEAVY))
    def test_matches_the_former_search_on_tie_heavy_relabellings(self, name):
        g = TIE_HEAVY[name]
        rng = random.Random(name)
        for _ in range(6):
            h = relabel(g, rng.sample(range(g.n), g.n))
            adj = h._masks[0]
            assert _minimal_graph6_mask(h.n, adj) == branch_and_bound_mask(h.n, adj)

    def test_matches_the_former_search_at_9_and_10_vertices(self):
        rng = random.Random(24)
        named = [petersen(), Graph(10, {(i, (i + 1) % 10) for i in range(10)}), prism(5),
                 Graph(9, {(i, (i + 1) % 9) for i in range(9)})]
        randoms = [random_graph(rng, rng.choice([9, 10]), rng.uniform(0.1, 0.9))
                   for _ in range(100)]
        for g in named + randoms:
            adj = g._masks[0]
            assert _minimal_graph6_mask(g.n, adj) == branch_and_bound_mask(g.n, adj), \
                (g.n, sorted(g.edges))

    def test_canonical_string_at_the_cap_is_relabelling_invariant(self):
        rng = random.Random(26)
        for g in [petersen(), prism(5)] + [random_graph(rng, 10, p) for p in (0.2, 0.5, 0.8)]:
            expected = canonical_string(g)
            bit_count = g.n * (g.n - 1) // 2
            mask = branch_and_bound_mask(g.n, g._masks[0])
            assert expected == _pack_graph6(g.n, [mask >> bit_count - 1 - p & 1
                                                  for p in range(bit_count)])
            for _ in range(3):
                assert canonical_string(relabel(g, rng.sample(range(g.n), g.n))) == expected

    def test_visits_at_most_60_percent_of_the_former_search_nodes(self):
        # 7- and 8-vertex graphs holding 30-60% of the possible edges, as the
        # bench's canonical-form jobs do.
        rng = random.Random(25)
        graphs = [sampled_graph(rng, rng.choice([7, 8]), 0.3 + 0.3 * rng.randrange(5) / 4)
                  for _ in range(200)]
        new = extend_calls(_minimal_graph6_mask, graphs)
        old = extend_calls(branch_and_bound_mask, graphs)
        assert old > 0
        assert new <= 0.6 * old, (new, old)


class TestIndependentSetSearch:
    """``_minimal_graph6_mask`` against the least-column search it replaced."""

    def test_matches_the_least_column_search_on_every_graph_up_to_6_vertices(self):
        for n in range(7):
            for g in all_graphs(n):
                adj = g._masks[0]
                assert _minimal_graph6_mask(n, adj) == least_column_mask(n, adj), \
                    (n, sorted(g.edges))

    @pytest.mark.parametrize("name", sorted(TIE_HEAVY))
    def test_matches_the_least_column_search_on_tie_heavy_relabellings(self, name):
        g = TIE_HEAVY[name]
        rng = random.Random(name)
        for _ in range(6):
            h = relabel(g, rng.sample(range(g.n), g.n))
            adj = h._masks[0]
            assert _minimal_graph6_mask(h.n, adj) == least_column_mask(h.n, adj)

    @pytest.mark.parametrize("name", sorted(NAMED_AT_THE_CAP))
    def test_matches_the_least_column_search_on_named_relabellings(self, name):
        g = NAMED_AT_THE_CAP[name]
        expected = least_column_mask(g.n, g._masks[0])
        rng = random.Random(name)
        for _ in range(3):
            h = relabel(g, rng.sample(range(g.n), g.n))
            assert _minimal_graph6_mask(h.n, h._masks[0]) == expected

    def test_matches_the_least_column_search_at_9_and_10_vertices(self):
        rng = random.Random(27)
        densities = [0.05, 0.15, 0.25, 0.35, 0.5, 0.65, 0.75, 0.85, 0.95]
        for i in range(300):
            g = random_graph(rng, 9 + i % 2, densities[i % len(densities)])
            adj = g._masks[0]
            assert _minimal_graph6_mask(g.n, adj) == least_column_mask(g.n, adj), \
                (g.n, sorted(g.edges))

    def test_places_at_most_20_percent_of_the_least_column_search_nodes(self):
        # The corpus of the 60 percent guard above: 7- and 8-vertex graphs as
        # the bench's canonical-form jobs draw them.
        rng = random.Random(25)
        graphs = [sampled_graph(rng, rng.choice([7, 8]), 0.3 + 0.3 * rng.randrange(5) / 4)
                  for _ in range(200)]
        old = extend_calls(least_column_mask, graphs)
        placed = extend_calls(_minimal_graph6_mask, graphs)
        every = extend_calls(_minimal_graph6_mask, graphs, ("extend", "gather"))
        assert placed > 0
        assert every > placed
        assert placed <= 0.2 * old, (placed, old)
        assert every <= 0.4 * old, (every, old)

    @pytest.mark.parametrize("name", sorted(NAMED_AT_THE_CAP))
    def test_makes_at_most_75_percent_of_the_least_column_calls_on_named_graphs(self, name):
        # Dense symmetric graphs have many largest independent sets that are
        # images of each other: unless a set's search ends at a tie with an
        # earlier set, the complement of Petersen makes 904 calls against 881.
        g = NAMED_AT_THE_CAP[name]
        rng = random.Random(name)
        for h in [g] + [relabel(g, rng.sample(range(g.n), g.n)) for _ in range(3)]:
            old = extend_calls(least_column_mask, [h])
            every = extend_calls(_minimal_graph6_mask, [h], ("extend", "gather"))
            assert every <= 0.75 * old, (every, old)

    def test_canonical_string_refuses_a_digraph(self):
        with pytest.raises(GraphError, match="graph6 encodes undirected graphs only"):
            canonical_string(Digraph(3, [(0, 1), (1, 2)]))


class TestRelativeComplexity:
    def test_empty_string(self):
        assert relative_complexity("") == ComplexityReport(0, 0, 0)

    def test_equal_vertex_count_means_equal_total(self):
        # graph6 code length depends only on n: 1 + ceil(C(n,2)/6) bytes.
        edgeless = relative_complexity(Graph(3), canonical=True)
        k3 = relative_complexity(Graph(3, {(0, 1), (1, 2), (0, 2)}), canonical=True)
        assert edgeless.total == k3.total == 2

    def test_code_length_formula(self):
        for n in range(0, 13):
            g = Graph(n, frozenset((i, i + 1) for i in range(n - 1)))
            assert len(encode_graph6(g)) == 1 + math.ceil(math.comb(n, 2) / 6)

    def test_repetition_lowers_secondary_order(self):
        # Expected values frozen from the hand-run compressor: "aaaaaaaa"
        # over (a) emits [0,1,2,1]; "abcdefgh" emits one code per symbol.
        uniform = relative_complexity("aaaaaaaa")
        diverse = relative_complexity("abcdefgh")
        assert uniform.secondary_order == 4
        assert diverse.secondary_order == 8
        assert uniform.secondary_order < diverse.secondary_order

    def test_graph_route_equals_string_route(self):
        rng = random.Random(12)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 6))
            for canonical in (False, True):
                via_graph = relative_complexity(g, canonical=canonical)
                text = canonical_string(g) if canonical else encode_graph6(g)
                via_string = relative_complexity(text)
                assert via_graph == via_string

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            relative_complexity(42)
