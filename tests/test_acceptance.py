"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as they
complete.  Stated runtime bounds are asserted with a wall clock.
"""

import math
import random
import time
from itertools import combinations, permutations

import networkx as nx
import pytest
from scipy.stats import spearmanr

from observement import complexity, core, familytree, genetics, graphs, motifs, strings
from test_familytree import brute_force_query, three_generations


def _report(number, description, check):
    started = time.perf_counter()
    try:
        check()
    except BaseException:
        print(f"[FAIL] criterion {number:02d}: {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"[PASS] criterion {number:02d}: {description} ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def small_corpus():
    """Every labeled undirected graph on up to 6 vertices (33868 graphs)."""
    corpus = []
    for n in range(7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
            corpus.append(graphs.Graph(n, edges))
    return corpus


def make_gene(rng, codons):
    coding = [c for c in genetics.ALL_CODONS if genetics.standard_table().codons[c] != genetics.STOP]
    return "atg" + "".join(rng.choice(coding) for _ in range(codons - 2)) + "tag"


def genetic_fixture():
    """Five genes observed twice: as lowercase base strings and as relabeled
    (RNA-style uppercase) strings, with equal-length as the mirrored relation."""
    rng = random.Random(101)
    genes = {f"g{i}": make_gene(rng, codons) for i, codons in enumerate([2, 3, 3, 5, 7])}
    to_rna = {"a": "A", "c": "C", "g": "G", "t": "U"}
    lower = dict(genes)
    upper = {name: genetics.relabel_bases(dna, to_rna) for name, dna in genes.items()}
    names = sorted(genes)
    same_len = {(a, b) for a in names for b in names if len(genes[a]) == len(genes[b])}
    system = core.ObjectSystem(frozenset(names), {"equal_length": same_len})

    def obs_system(values_by_name):
        values = frozenset(values_by_name.values())
        relation = {(x, y) for x in values for y in values if len(x) == len(y)}
        return core.ObservationSystem(values, {"equal_length_obs": relation})

    obs_lower = obs_system(lower)
    obs_upper = obs_system(upper)
    pairing = {"equal_length": "equal_length_obs"}
    alg_lower = core.ObservationAlgorithm("lowercase_bases", lower, pairing)
    alg_upper = core.ObservationAlgorithm("relabeled_bases", upper, pairing)
    return system, obs_lower, obs_upper, alg_lower, alg_upper


def test_criterion_01_genetic_code_is_strong():
    def check():
        started = time.perf_counter()
        system, obs_lower, obs_upper, alg_lower, alg_upper = genetic_fixture()
        assert core.verify_representation(system, obs_lower, alg_lower).holds
        assert core.verify_representation(system, obs_upper, alg_upper).holds
        assert core.verify_existence([alg_lower, alg_upper], system, obs_lower) is True
        witness = core.find_translation(alg_lower, alg_upper, system, obs_lower, obs_upper)
        assert witness.found
        for dna in alg_lower.image():
            assert witness.mapping[dna] == genetics.relabel_bases(
                dna, {"a": "A", "c": "C", "g": "G", "t": "U"}
            )
        verdict = core.classify(
            system, [obs_lower, obs_upper], [alg_lower, alg_upper]
        )
        assert verdict is core.Classification.STRONG
        assert time.perf_counter() - started < 1.0

    _report(1, "genetic-code fixture satisfies all three conditions (Strong)", check)


def test_criterion_02_height_systems_are_weak():
    def check():
        started = time.perf_counter()
        heights = ("140", "152", "180", "190")

        def label(h, small_below, tall_above):
            h = int(h)
            return "small" if h < small_below else ("tall" if h > tall_above else "medium")

        system = core.ObjectSystem(
            frozenset(heights),
            {"comparable": {(x, y) for x in heights for y in heights}},
        )
        labels = frozenset({"small", "medium", "tall"})
        obs = core.ObservationSystem(
            labels, {"comparable_obs": {(x, y) for x in labels for y in labels}}
        )
        alg_a = core.ObservationAlgorithm(
            "system_a", {h: label(h, 150, 183) for h in heights},
            {"comparable": "comparable_obs"},
        )
        alg_b = core.ObservationAlgorithm(
            "system_b", {h: label(h, 155, 178) for h in heights},
            {"comparable": "comparable_obs"},
        )
        # Proved absent: system_b splits 152 and 180, which system_a reads as
        # one value, so no function of system_a's values yields system_b's.
        witness = core.find_translation(alg_a, alg_b, system, obs, obs)
        assert witness.mapping is None
        assert core.classify(system, [obs, obs], [alg_a, alg_b]) is core.Classification.WEAK
        assert time.perf_counter() - started < 1.0

    _report(2, "height fixture classifies Weak with translation proved absent", check)


def test_criterion_03_turtle_grammar_membership():
    def check():
        turtle = strings.parse_grammar(
            "<path>\n<path> -> F <path> | L <path> | R <path> | T\n"
        )
        assert strings.membership(turtle, "FFLFFFRFT")
        members = strings.generate(turtle, 9)
        assert len(members) == sum(3 ** k for k in range(9))
        for s in members:
            assert strings.membership(turtle, s)
        member_set = set(members)
        rng = random.Random(303)
        rejected = 0
        while rejected < 100:
            s = "".join(rng.choice("LRFT") for _ in range(rng.randint(1, 9)))
            if s in member_set:
                continue
            assert not strings.membership(turtle, s)
            rejected += 1

    _report(3, "turtle grammar accepts generated strings, rejects oracle non-members", check)


def test_criterion_04_codon_fixtures_and_frame_homomorphism():
    def check():
        table = genetics.standard_table()
        assert genetics.codon_lookup(table, "atg") == "M"
        assert genetics.codon_lookup(table, "atc") == "I"
        assert genetics.codon_lookup(table, "tag") == genetics.STOP
        rng = random.Random(404)
        gene = make_gene(rng, 518)
        assert len(gene) == 1554
        assert len(genetics.translate_gene(gene)) == 517
        for _ in range(1000):
            codons = [rng.choice(genetics.ALL_CODONS) for _ in range(rng.randint(0, 12))]
            dna = "".join(codons)
            cut = 3 * rng.randint(0, len(codons))
            left, right = dna[:cut], dna[cut:]
            assert genetics.translate_frame(dna) == (
                genetics.translate_frame(left) + genetics.translate_frame(right)
            )

    _report(4, "codon lookups, 1554-base gene arithmetic, frame concatenation", check)


def test_criterion_05_graph6_exhaustive_round_trip(small_corpus):
    def check():
        started = time.perf_counter()
        for g in small_corpus:
            code = graphs.encode_graph6(g)
            assert graphs.decode_graph6(code) == g
            mirror = nx.Graph()
            mirror.add_nodes_from(range(g.n))
            mirror.add_edges_from(g.edges)
            reference = nx.to_graph6_bytes(mirror, header=False).decode().strip()
            assert code == reference
            assert graphs.encode_graph6(graphs.decode_graph6(reference)) == reference
        assert time.perf_counter() - started < 30.0

    _report(5, "graph6 encode/decode identity and reference agreement, all n <= 6", check)


def test_criterion_06_representation_round_trips(small_corpus):
    def check():
        for g in small_corpus:
            assert graphs.from_adjacency_matrix(graphs.to_adjacency_matrix(g)) == g
            assert graphs.from_adjacency_list(graphs.to_adjacency_list(g)) == g
            assert graphs.from_edge_list(g.n, graphs.to_edge_list(g)) == g
            assert graphs.decode_graph6(graphs.encode_graph6(g)) == g

    _report(6, "matrix/list/edge-list/graph6 conversions are identities, all n <= 6", check)


class PairOracle:
    """Brute-force isomorphism and embedding oracles over all permutations.

    Canonical forms are minima over every vertex permutation; a graph embeds
    in a host exactly when some spanning submask of the host is isomorphic to
    the graph padded with isolated vertices.
    """

    def __init__(self, max_n):
        self.positions = {}
        self.perm_tables = {}
        for n in range(max_n + 1):
            pairs = list(combinations(range(n), 2))
            self.positions[n] = {p: i for i, p in enumerate(pairs)}
            self.perm_tables[n] = [
                [self.positions[n][tuple(sorted((perm[i], perm[j])))] for i, j in pairs]
                for perm in permutations(range(n))
            ]
        self.cache = {n: {} for n in range(max_n + 1)}

    def mask(self, g, n=None):
        n = g.n if n is None else n
        m = 0
        for u, v in g.edges:
            m |= 1 << self.positions[n][(u, v)]
        return m

    def canonical(self, n, mask):
        cache = self.cache[n]
        if mask not in cache:
            best = None
            for table in self.perm_tables[n]:
                out = 0
                mm, bit = mask, 0
                while mm:
                    if mm & 1:
                        out |= 1 << table[bit]
                    mm >>= 1
                    bit += 1
                if best is None or out < best:
                    best = out
            cache[mask] = best
        return cache[mask]

    def embeddable(self, n, host_mask):
        classes = set()
        sub = host_mask
        while True:
            classes.add(self.canonical(n, sub))
            if sub == 0:
                return classes
            sub = (sub - 1) & host_mask


def test_criterion_07_iso_and_subgraph_oracle_agreement():
    def check():
        started = time.perf_counter()
        corpus = []
        for n in range(6):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
                corpus.append(graphs.Graph(n, edges))
        oracle = PairOracle(5)
        canon = [oracle.canonical(g.n, oracle.mask(g)) for g in corpus]
        padded_canon = [oracle.canonical(5, oracle.mask(g, 5)) for g in corpus]
        embed = [
            (g.n, oracle.embeddable(g.n, oracle.mask(g)))
            for g in corpus
        ]
        pad_embed = [oracle.embeddable(5, oracle.mask(g, 5)) for g in corpus]

        sample = 0
        for i, g1 in enumerate(corpus):
            for j, g2 in enumerate(corpus):
                witness = graphs.are_isomorphic(g1, g2)
                expected = g1.n == g2.n and canon[i] == canon[j]
                assert (witness is not None) == expected
                embedding = graphs.is_subgraph(g1, g2)
                if g1.n > g2.n:
                    expected_embed = False
                elif g2.n == 5:
                    expected_embed = padded_canon[i] in pad_embed[j]
                else:
                    expected_embed = oracle.canonical(
                        g2.n, oracle.mask(g1, g2.n)
                    ) in embed[j][1]
                assert (embedding is not None) == expected_embed
                sample += 1
                if sample % 17 == 0:
                    if witness is not None:
                        assert all(
                            tuple(sorted((witness[u], witness[v]))) in g2.edges
                            for u, v in g1.edges
                        )
                        assert sorted(witness.values()) == list(range(g2.n))
                    if embedding is not None:
                        assert len(set(embedding.values())) == g1.n
                        assert all(
                            tuple(sorted((embedding[u], embedding[v]))) in g2.edges
                            for u, v in g1.edges
                        )
        assert time.perf_counter() - started < 60.0

    _report(7, "isomorphism and embedding agree with all-permutation oracles, n <= 5", check)


def test_criterion_08_percolation_phase_change():
    def check():
        started = time.perf_counter()
        probes = graphs.percolation_sweep(200, [0.0025, 0.02], trials=100, seed=7)
        assert probes[0][1] < 0.1
        assert probes[1][1] > 0.6
        p_values = [0.001 + i * (0.03 - 0.001) / 11 for i in range(12)]
        sweep = graphs.percolation_sweep(200, p_values, trials=100, seed=7)
        rho = spearmanr([p for p, _ in sweep], [f for _, f in sweep]).statistic
        assert rho > 0.95
        assert time.perf_counter() - started < 60.0

    _report(8, "random graphs jump from fragmented to connected around p = 1/n", check)


def test_criterion_09_kinship_relations_match_path_enumeration():
    def check():
        g = three_generations()
        assert len(g.persons) == 7
        checked = 0
        for u, v in permutations(sorted(g.persons), 2):
            for relation in familytree.RELATIONS:
                assert familytree.query(g, relation, u, v) == \
                    brute_force_query(g, relation, u, v)
                checked += 1
        assert checked == 42 * 6

    _report(9, "all six kinship relations agree with path enumeration on 42 pairs", check)


def test_criterion_10_lzw_round_trips():
    def check():
        import string as string_module
        assert complexity.lzw_compress("ababab", "ab").codes == (0, 1, 2, 2)
        # Self-referential stream: nine a's parse as a|aa|aaa|aaa.
        assert complexity.lzw_compress("a" * 9, "ab").codes == (0, 2, 3, 3)
        assert complexity.lzw_decompress([0, 2, 3, 3], "ab") == "a" * 9
        rng = random.Random(1010)
        for _ in range(10000):
            size = rng.randint(2, 20)
            alphabet = string_module.ascii_letters[:size]
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 200)))
            out = complexity.lzw_compress(text, alphabet)
            assert complexity.lzw_decompress(out, alphabet) == text

    _report(10, "LZW is lossless on 10000 random strings plus directed fixtures", check)


def test_criterion_11_complexity_chain_commutes():
    def check():
        rng = random.Random(111)
        pool = []
        for _ in range(200):
            n = rng.randint(1, 8)
            edges = frozenset(
                (i, j) for j in range(n) for i in range(j) if rng.random() < 0.5
            )
            g = graphs.Graph(n, edges)
            pool.append(g)
            via_graph = complexity.relative_complexity(g, canonical=True)
            via_string = complexity.relative_complexity(complexity.canonical_string(g))
            assert via_graph == via_string
        for g in pool[:50]:
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert complexity.canonical_string(g) == \
                complexity.canonical_string(graphs.relabel(g, perm))
        compared = 0
        while compared < 100:
            g1, g2 = rng.choice(pool), rng.choice(pool)
            if g1.n != g2.n:
                continue
            same_class = graphs.are_isomorphic(g1, g2) is not None
            assert (complexity.canonical_string(g1) == complexity.canonical_string(g2)) \
                == same_class
            compared += 1

    _report(11, "graph complexity equals its canonical string's, iso-invariantly", check)


def test_criterion_12_motif_properties():
    def check():
        aa = "ACDEFGHIKLMNPQRSTVWY"
        rng = random.Random(1212)
        for _ in range(500):
            length = rng.randint(1, 14)
            base = [rng.choice(aa) for _ in range(length)]
            family = [
                "".join(c if rng.random() < 0.55 else rng.choice(aa) for c in base)
                for _ in range(rng.randint(2, 6))
            ]
            pattern = motifs.derive_motif(family, class_cap=rng.randint(1, 4))
            for seq in family:
                assert motifs.match_motif(pattern, seq, anchored=True) == [0]
        test_graphs = [
            graphs.Graph(5, frozenset()),
            graphs.Graph(3, {(0, 1), (1, 2), (0, 2)}),
            graphs.er_random_graph(12, 0.4, seed=3),
            graphs.er_random_graph(9, 0.6, seed=4),
        ]
        test_digraphs = [
            graphs.Digraph(3, {(0, 1), (1, 2), (0, 2)}),
            graphs.Digraph(
                8,
                frozenset(
                    (i, j) for i in range(8) for j in range(8)
                    if i != j and rng.random() < 0.3
                ),
            ),
        ]
        for g in test_graphs + test_digraphs:
            for k in (3, 4):
                census = motifs.count_network_motifs(g, k)
                assert sum(census.counts.values()) == math.comb(g.n, k)
                perm = list(range(g.n))
                rng.shuffle(perm)
                relabeled = motifs.count_network_motifs(graphs.relabel(g, perm), k)
                assert relabeled.counts == census.counts

    _report(12, "derived motifs match their families; censuses total C(n,k), relabel-invariant", check)
