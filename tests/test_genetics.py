import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from observement import core, genetics
from observement.genetics import (
    STOP,
    CodonTable,
    GeneticsError,
    clean_dna,
    codon_lookup,
    read_sequence_records,
    relabel_bases,
    standard_table,
    translate_frame,
    translate_gene,
)

CODING = [c for c in genetics.ALL_CODONS if standard_table().codons[c] != STOP]

dna_strings = st.text(alphabet="acgt", max_size=60)
codon_aligned = st.lists(st.sampled_from(genetics.ALL_CODONS), max_size=20).map("".join)


def make_gene(rng: random.Random, codons: int) -> str:
    """A well-formed gene with the given total codon count (start and stop included)."""
    assert codons >= 2
    middle = "".join(rng.choice(CODING) for _ in range(codons - 2))
    return "atg" + middle + "tag"


class TestCodonTable:
    def test_standard_table_shape(self):
        table = standard_table()
        assert len(table.codons) == 64
        stops = {c for c, letter in table.codons.items() if letter == STOP}
        assert stops == {"taa", "tag", "tga"}
        assert set(table.codons.values()) - {STOP} == set("ACDEFGHIKLMNPQRSTVWY")

    def test_serine_has_six_codons(self):
        table = standard_table()
        serine = sorted(c for c, letter in table.codons.items() if letter == "S")
        assert serine == ["agc", "agt", "tca", "tcc", "tcg", "tct"]

    def test_text_round_trip(self):
        table = standard_table()
        assert CodonTable.from_text(table.to_text()) == table

    def test_missing_codon_rejected(self):
        text = "\n".join(
            line for line in standard_table().to_text().splitlines() if not line.startswith("aaa")
        )
        with pytest.raises(GeneticsError, match="missing"):
            CodonTable.from_text(text)

    def test_duplicate_codon_rejected(self):
        text = standard_table().to_text() + "aaa\tK\n"
        with pytest.raises(GeneticsError, match="duplicate"):
            CodonTable.from_text(text)

    def test_wrong_stop_count_rejected(self):
        text = standard_table().to_text().replace("tga\tSTOP", "tga\tW")
        with pytest.raises(GeneticsError, match="stop"):
            CodonTable.from_text(text)

    def test_start_codon_must_code_methionine(self):
        with pytest.raises(GeneticsError, match="Methionine"):
            CodonTable.from_text(standard_table().to_text().replace("atg\tM", "atg\tW"))


class TestCodonLookup:
    table = standard_table()

    @pytest.mark.parametrize(
        "codon,expected",
        [("atg", "M"), ("atc", "I"), ("tag", STOP), ("ATG", "M")],
    )
    def test_lookups(self, codon, expected):
        assert codon_lookup(self.table, codon) == expected

    def test_wrong_length_rejected(self):
        with pytest.raises(GeneticsError, match="3 bases"):
            codon_lookup(self.table, "at")

    def test_invalid_base_rejected(self):
        with pytest.raises(GeneticsError, match="invalid base"):
            codon_lookup(self.table, "axg")


class TestTranslateGene:
    def test_minimal_gene(self):
        assert translate_gene("atgtag") == "M"

    def test_uppercase_folded(self):
        assert translate_gene("ATGTAG") == "M"

    def test_long_gene_length_arithmetic(self):
        rng = random.Random(17)
        gene = make_gene(rng, 518)
        assert len(gene) == 1554
        protein = translate_gene(gene)
        assert len(protein) == 517
        assert protein[0] == "M"

    def test_length_not_divisible_by_three(self):
        with pytest.raises(GeneticsError, match="divisible by 3"):
            translate_gene("atgta")

    def test_missing_start(self):
        with pytest.raises(GeneticsError, match="missing start"):
            translate_gene("atctag")

    def test_internal_stop(self):
        with pytest.raises(GeneticsError, match="internal stop"):
            translate_gene("atgtaaatctag")

    def test_missing_terminal_stop(self):
        with pytest.raises(GeneticsError, match="missing terminal stop"):
            translate_gene("atgatcatc")


class TestTranslateFrame:
    def test_empty(self):
        assert translate_frame("") == []

    def test_serine_run(self):
        assert translate_frame("tcttcatcg") == ["S", "S", "S"]

    def test_stop_marker_included(self):
        assert translate_frame("atctaa") == ["I", STOP]

    def test_length_check(self):
        with pytest.raises(GeneticsError, match="divisible by 3"):
            translate_frame("ac")

    @settings(max_examples=60)
    @given(codon_aligned, codon_aligned)
    def test_concatenation_homomorphism(self, left, right):
        assert translate_frame(left + right) == translate_frame(left) + translate_frame(right)

    def test_table_totality_means_no_frame_errors(self):
        rng = random.Random(3)
        for _ in range(50):
            dna = "".join(rng.choice("acgt") for _ in range(3 * rng.randint(0, 30)))
            assert len(translate_frame(dna)) == len(dna) // 3


class TestRelabelBases:
    def test_identity(self):
        sigma = {b: b for b in "acgt"}
        assert relabel_bases("gattaca", sigma) == "gattaca"

    def test_complement_is_involution(self):
        sigma = {"a": "t", "t": "a", "c": "g", "g": "c"}
        assert relabel_bases(relabel_bases("gattaca", sigma), sigma) == "gattaca"

    def test_rna_style_relabel_composes_to_identity(self):
        to_rna = {"a": "A", "c": "C", "g": "G", "t": "U"}
        back = {v: k for k, v in to_rna.items()}
        assert relabel_bases(relabel_bases("gattaca", to_rna), back) == "gattaca"

    @given(dna_strings)
    def test_involution_property(self, dna):
        sigma = {"a": "t", "t": "a", "c": "g", "g": "c"}
        assert relabel_bases(relabel_bases(dna, sigma), sigma) == dna

    def test_non_bijective_rejected(self):
        with pytest.raises(GeneticsError, match="bijection"):
            relabel_bases("ac", {"a": "x", "c": "x", "g": "y", "t": "z"})

    def test_wrong_domain_size_rejected(self):
        with pytest.raises(GeneticsError, match="4-symbol"):
            relabel_bases("ac", {"a": "x", "c": "y"})

    def test_symbol_outside_domain_rejected(self):
        with pytest.raises(GeneticsError, match="outside"):
            relabel_bases("acgu", {"a": "a", "c": "c", "g": "g", "t": "t"})


class TestGeneProteinHomomorphism:
    def test_translation_is_a_valid_observement(self):
        # Genes observed as proteins, with equal-length as the mirrored
        # relation: |protein| = |gene|/3 - 1 determines gene length, so the
        # biconditional holds in both directions.
        rng = random.Random(23)
        genes = {f"g{i}": make_gene(rng, codons) for i, codons in enumerate([2, 4, 4, 6, 9])}
        proteins = {name: translate_gene(dna) for name, dna in genes.items()}
        names = sorted(genes)
        same_len = {
            (a, b) for a in names for b in names if len(genes[a]) == len(genes[b])
        }
        system = core.ObjectSystem(frozenset(names), {"equal_length": same_len})
        values = frozenset(proteins.values())
        obs = core.ObservationSystem(
            values,
            {"equal_length_obs": {(x, y) for x in values for y in values if len(x) == len(y)}},
        )
        alg = core.ObservationAlgorithm(
            "translate", proteins, {"equal_length": "equal_length_obs"}
        )
        assert core.verify_representation(system, obs, alg).holds


class TestSequenceRecords:
    def test_single_headered_record(self):
        assert read_sequence_records(">gene x\natg\ntag\n") == [("gene x", "atgtag")]

    def test_multiple_records(self):
        text = ">a\natgtag\n>b\natg atc tag\n"
        assert read_sequence_records(text) == [("a", "atgtag"), ("b", "atgatctag")]

    def test_headerless_text_is_one_record(self):
        assert read_sequence_records("atg\ntag\n") == [("-", "atgtag")]

    def test_empty_text(self):
        assert read_sequence_records("") == []

    def test_clean_dna_rejects_bad_symbol(self):
        with pytest.raises(GeneticsError, match="position 2"):
            clean_dna("acxg")
