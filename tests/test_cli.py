import random
import time

import click
import pytest
from click.testing import CliRunner

from observement.cli import cli

TURTLE = "<path>\n<path> -> F <path> | L <path> | R <path> | T\n"

WEAK_FIXTURE = """\
OBJECTS
140 152 180 190
OBSERVATIONS
small medium tall
MAP system_a
140 small
152 medium
180 medium
190 tall
MAP system_b
140 small
152 small
180 tall
190 tall
"""

KINSHIP = """\
alice -> carol
bob -> carol
alice -> dave
bob -> dave
alice <-> bob
carol -> frank
dave -> grace
"""

# Names with blanks, quotes, escapes and a no-break space, which is part of a
# word: only space, tab, CR and LF separate words.
QUOTED_KINSHIP = (
    "# names with blanks, quotes and escapes\n"
    "\"p 1\" -> 'p 2'\n"
    "'p 2' -> a\\ b\n"
    "a\\ b -> c\n"
    "person \"d\\\"q\" \"Dee \\\"Q\\\"\"\n"
    "\"p 1\" <-> \"d\\\"q\"\n"
    "c -> n\xa0b\n"
    "person 'e\\x' 'E'\n"
    "c -> 'e\\x'\n"
    "\"x\\\\y\" -> \"p 1\"\n"
)


# One merging and one injective map over a binary and a ternary relation;
# "merge" fails in both directions on both relations.
MIXED_FIXTURE = """\
OBJECTS
a b c d
RELATION next/2
a b
b c
c d
RELATION between/3
a b c
b c d
a c d
OBSERVATIONS
w x y z
RELATION lt/2
x y
y z
w x
RELATION btw/3
x y z
w y z
MAP merge
a x
b y
c y
d z
PAIR
next lt
between btw
MAP spread
a w
b x
c y
d z
PAIR
next lt
between btw
"""


# A unary, a binary and a ternary relation.  Object names sort o1 < o10 < o2,
# not in file order; w is an observation outside every image; under "merge"
# the prefix (o1,) fails both ways: lt(o1, o2) forward and lt(o1, o10) backward.
ROW_FIXTURE = """\
OBJECTS
o2 o10 o1
RELATION big/1
o10
RELATION lt/2
o2 o10
o1 o2
RELATION mid/3
o1 o2 o10
OBSERVATIONS
x y z w
RELATION BIG/1
z
w
RELATION LT/2
x y
y z
x w
RELATION MID/3
x y z
MAP exact
o2 y
o10 z
o1 x
PAIR
big BIG
lt LT
mid MID
MAP swap
o2 z
o10 y
o1 x
PAIR
big BIG
lt LT
mid MID
MAP merge
o2 x
o10 y
o1 x
PAIR
big BIG
lt LT
mid MID
"""


# An ambiguous grammar of X+ Y+ runs over one word: "baaa" three times or more.
RUNS = "<p2> -> <v1>+ <u4>+ <v1>\n<v1> -> <u4>\n<u4> -> <r0> a a\n<r0> -> b a\n"


def weighed_shelf_text():
    """Twelve objects tied in pairs, read by two relabelled fine scales.

    Both MAPs draw on one shared set of 24 observation values.
    """
    objects = [f"o{i:02d}" for i in range(12)]
    relabel = [7, 2, 11, 0, 5, 9, 1, 10, 3, 6, 8, 4]
    labels = {"a": list(range(12)), "b": relabel}
    lines = ["OBJECTS", " ".join(objects), "RELATION not_lighter/2"]
    lines += [f"{x} {y}" for i, x in enumerate(objects) for j, y in enumerate(objects)
              if i // 2 >= j // 2]
    lines += ["OBSERVATIONS", " ".join(f"{p}{k:02d}" for p in labels for k in range(12)),
              "RELATION geq/2"]
    for prefix, label in labels.items():
        lines += [f"{prefix}{label[i]:02d} {prefix}{label[j]:02d}"
                  for i in range(12) for j in range(12) if i // 2 >= j // 2]
    for prefix, label in labels.items():
        lines.append(f"MAP scale_{prefix}")
        lines += [f"{x} {prefix}{label[i]:02d}" for i, x in enumerate(objects)]
        lines += ["PAIR", "not_lighter geq"]
    return "\n".join(lines) + "\n"


# A graph with an isolated vertex, and one digraph with a self-loop written in
# each of the three digraph formats, for `graph convert`.
CONVERT_INPUTS = {
    "graph": "graph 5\n0 1\n1 2\n2 3\n0 3\n0 2\n",
    "digraph": "digraph 3\n0 1\n1 1\n2 0\n1 2\n",
    "dmatrix": "dmatrix 3\n010\n011\n100\n",
    "dadjlist": "dadjlist 3\n0: 1\n1: 1 2\n2: 0\n",
}


def assert_domain_error_without_output(result):
    assert result.exit_code == 1
    assert result.stdout == ""
    assert isinstance(result.exception, SystemExit)


@pytest.fixture()
def runner():
    return CliRunner()


def write(path, text):
    path.write_text(text)
    return str(path)


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, runner):
        result = runner.invoke(cli, ["frobnicate"])
        assert result.exit_code == 2

    def test_missing_file_is_domain_error(self, runner):
        result = runner.invoke(cli, ["translate", "missing.fa"])
        assert result.exit_code == 1

    def test_format_violation_is_domain_error(self, runner, tmp_path):
        path = write(tmp_path / "bad.g", "graph x\n")
        result = runner.invoke(cli, ["graph", "convert", path, "--to", "edges"])
        assert result.exit_code == 1
        assert "vertex count" in result.output

    def test_version_flag(self, runner):
        result = runner.invoke(cli, ["--version"])
        assert result.exit_code == 0
        assert "observe" in result.output


class TestSystem:
    def test_classify_weak_fixture(self, runner, tmp_path):
        path = write(tmp_path / "heights.obs", WEAK_FIXTURE)
        result = runner.invoke(cli, ["system", "classify", path])
        assert result.exit_code == 0
        assert result.output.strip() == "Weak"

    def test_verify_lists_each_algorithm(self, runner, tmp_path):
        path = write(tmp_path / "heights.obs", WEAK_FIXTURE)
        result = runner.invoke(cli, ["system", "verify", path])
        assert result.exit_code == 0
        assert "system_a: holds" in result.output
        assert "system_b: holds" in result.output

    def test_verify_single_algorithm(self, runner, tmp_path):
        path = write(tmp_path / "heights.obs", WEAK_FIXTURE)
        result = runner.invoke(cli, ["system", "verify", path, "--alg", "system_a"])
        assert result.output.strip() == "system_a: holds"

    def test_verify_malformed_second_algorithm_leaves_stdout_empty(self, runner, tmp_path):
        # MAP n pairs no relation, so it fails its definition check after merge is checked.
        text = MIXED_FIXTURE.replace("MAP spread", "MAP n\na w\nb x\nc y\nd z\nMAP spread")
        result = runner.invoke(cli, ["system", "verify", write(tmp_path / "late.fix", text)])
        assert_domain_error_without_output(result)
        assert "must pair every object relation" in result.stderr

    @pytest.mark.parametrize("args", [[], ["--alg", "m"]])
    def test_verify_without_algorithms_is_domain_error(self, runner, tmp_path, args):
        path = write(tmp_path / "bare.obs", "OBJECTS\na\nOBSERVATIONS\nx\n")
        result = runner.invoke(cli, ["system", "verify", path, *args])
        assert_domain_error_without_output(result)
        assert result.stderr == "Error: no algorithms in fixture\n"

    def test_classify_relabelled_twelve_value_scales(self, runner, tmp_path):
        path = write(tmp_path / "shelf.obs", weighed_shelf_text())
        assert runner.invoke(cli, ["system", "verify", path]).output.splitlines() == [
            "scale_a: holds", "scale_b: holds"]
        result = runner.invoke(cli, ["system", "classify", path])
        assert result.exit_code == 0
        assert result.stdout == "Strong\n"

    def test_verify_lists_counterexamples_in_tuple_order(self, runner, tmp_path):
        path = write(tmp_path / "mixed.obs", MIXED_FIXTURE)
        result = runner.invoke(cli, ["system", "verify", path])
        assert result.exit_code == 0
        assert result.stdout == (
            "merge: fails (6 counterexamples)\n"
            "  between(a, b, c) fails =>\n"
            "  between(a, b, d) fails <=\n"
            "  between(b, c, d) fails =>\n"
            "  next(a, c) fails <=\n"
            "  next(b, c) fails =>\n"
            "  next(b, d) fails <=\n"
            "spread: fails (1 counterexamples)\n"
            "  between(a, b, c) fails =>\n"
        )
        assert runner.invoke(cli, ["system", "classify", path]).stdout == "NotObservement\n"

    def test_verify_bytes_over_three_arities(self, runner, tmp_path):
        path = write(tmp_path / "rows.obs", ROW_FIXTURE)
        swap = (
            "swap: fails (8 counterexamples)\n"
            "  big(o10) fails =>\n"
            "  big(o2) fails <=\n"
            "  lt(o1, o10) fails <=\n"
            "  lt(o1, o2) fails =>\n"
            "  lt(o10, o2) fails <=\n"
            "  lt(o2, o10) fails =>\n"
            "  mid(o1, o10, o2) fails <=\n"
            "  mid(o1, o2, o10) fails =>\n"
        )
        merge = (
            "merge: fails (4 counterexamples)\n"
            "  big(o10) fails =>\n"
            "  lt(o1, o10) fails <=\n"
            "  lt(o1, o2) fails =>\n"
            "  mid(o1, o2, o10) fails =>\n"
        )
        for args, stdout in ([[], "exact: holds\n" + swap + merge],
                             [["--alg", "swap"], swap], [["--alg", "merge"], merge]):
            result = runner.invoke(cli, ["system", "verify", path, *args])
            assert (result.exit_code, result.stdout, result.stderr) == (0, stdout, "")
        assert runner.invoke(cli, ["system", "classify", path]).stdout == "Strong\n"


class TestUndecodableInput:
    """A file that is not UTF-8 is a one-line domain error naming the bad byte."""

    @pytest.mark.parametrize("args", [["system", "classify"],
                                      ["graph", "convert", "--to", "edges"]])
    def test_bad_byte_is_named_by_file_offset(self, runner, tmp_path, args):
        # The bad byte sits past the first 8 KiB and after CRLF line ends.
        path = tmp_path / "bad.txt"
        path.write_bytes(b"#" + b"x" * 9000 + b"\r\n\r\nOBJECTS\r\na \xff b\n")
        result = runner.invoke(cli, args[:2] + [str(path)] + args[2:])
        assert_domain_error_without_output(result)
        assert result.stderr == f"Error: {path}: not valid UTF-8 at byte offset 9016\n"


class TestGrammar:
    def test_check_member(self, runner, tmp_path):
        path = write(tmp_path / "turtle.g", TURTLE)
        assert runner.invoke(cli, ["grammar", "check", path, "FFLFFFRFT"]).output.strip() == "true"
        assert runner.invoke(cli, ["grammar", "check", path, "FTF"]).output.strip() == "false"

    def test_gen_orders_by_length(self, runner, tmp_path):
        path = write(tmp_path / "turtle.g", TURTLE)
        result = runner.invoke(cli, ["grammar", "gen", path, "--max-len", "2"])
        assert result.output.splitlines() == ["T", "FT", "LT", "RT"]

    def test_check_answers_on_a_1200_nonterminal_leftmost_chain(self, runner, tmp_path):
        chain = "".join(f"<n{i}> -> <n{i + 1}> a\n" for i in range(1200)) + "<n1200> -> a\n"
        path = write(tmp_path / "chain.g", chain)
        result = runner.invoke(cli, ["grammar", "check", path, "b"])
        assert result.exit_code == 0, result.exception
        assert result.output == "false\n"

    def test_check_answers_on_a_400_symbol_path(self, runner, tmp_path):
        path = write(tmp_path / "turtle.g", TURTLE)
        rng = random.Random(400)
        member = "".join(rng.choice("FLR") for _ in range(399)) + "T"
        result = runner.invoke(cli, ["grammar", "check", path, member], catch_exceptions=False)
        assert result.output == "true\n"

    @pytest.mark.parametrize("text, max_len", [
        ("<s> -> a | a <s>\n", "100000"),  # one symbol at a time
        ("<w> -> <y> <y> <y> <y>\n<y> -> " + "<b> " * 8 + "\n<b> -> 0 | 1\n", "32"),  # one cell
    ])
    def test_gen_refuses_past_the_symbol_cap_at_once(self, runner, tmp_path, text, max_len):
        path = write(tmp_path / "big.g", text)
        began = time.perf_counter()
        result = runner.invoke(cli, ["grammar", "gen", path, "--max-len", max_len])
        assert time.perf_counter() - began < 2
        assert_domain_error_without_output(result)
        assert result.stderr == f"Error: generation held more than {2**25} symbols\n"

    @pytest.mark.parametrize("max_len", [400, 800])
    def test_gen_lists_an_ambiguous_grammar_of_runs_once_per_string(self, runner, tmp_path,
                                                                     max_len):
        path = write(tmp_path / "runs.g", RUNS)
        result = runner.invoke(cli, ["grammar", "gen", path, "--max-len", str(max_len)])
        assert result.exit_code == 0, result.exception
        assert result.output == "".join("baaa" * k + "\n" for k in range(3, max_len // 4 + 1))

    def test_gen_refuses_an_ambiguous_grammar_of_runs_at_once(self, runner, tmp_path):
        # Each length's strings of <v1>+ <u4>+ join every split once: a number of
        # symbols cubic in the length, which passes the cap between 1100 and 1200.
        path = write(tmp_path / "runs.g", RUNS)
        began = time.perf_counter()
        result = runner.invoke(cli, ["grammar", "gen", path, "--max-len", "10000"])
        assert time.perf_counter() - began < 1
        assert_domain_error_without_output(result)
        assert result.stderr == "Error: generation held more than 33554432 symbols\n"

    def test_gen_negative_max_len_is_domain_error(self, runner, tmp_path):
        path = write(tmp_path / "turtle.g", TURTLE)
        result = runner.invoke(cli, ["grammar", "gen", path, "--max-len", "-1"])
        assert_domain_error_without_output(result)


class TestTranslate:
    def test_minimal_gene(self, runner, tmp_path):
        path = write(tmp_path / "gene.fa", ">minimal\natgtag\n")
        result = runner.invoke(cli, ["translate", path])
        assert result.exit_code == 0
        assert result.output.strip() == "M"

    def test_frame_mode(self, runner, tmp_path):
        path = write(tmp_path / "frame.fa", "tcttcatcgtaa\n")
        result = runner.invoke(cli, ["translate", path, "--frame"])
        assert result.output.strip() == "SSS*"

    def test_custom_table(self, runner, tmp_path):
        from observement.genetics import standard_table
        table_path = write(tmp_path / "table.tsv", standard_table().to_text())
        gene_path = write(tmp_path / "gene.fa", "atgatctag\n")
        result = runner.invoke(cli, ["translate", gene_path, "--table", table_path])
        assert result.output.strip() == "MI"

    def test_table_whose_start_codon_is_not_methionine(self, runner, tmp_path):
        from observement.genetics import standard_table
        table_text = standard_table().to_text().replace("atg\tM", "atg\tW")
        table_path = write(tmp_path / "table.tsv", table_text)
        gene_path = write(tmp_path / "gene.fa", "atgatctag\n")
        result = runner.invoke(cli, ["translate", gene_path, "--table", table_path])
        assert_domain_error_without_output(result)
        assert result.stderr == "Error: start codon 'atg' must code for Methionine (M)\n"

    def test_gene_without_start_codon(self, runner, tmp_path):
        path = write(tmp_path / "gene.fa", ">alt\nttgaaatag\n")
        result = runner.invoke(cli, ["translate", path])
        assert_domain_error_without_output(result)
        assert result.stderr == (
            "Error: missing start codon: gene begins with 'ttg', expected 'atg'\n")

    def test_malformed_gene_is_domain_error(self, runner, tmp_path):
        path = write(tmp_path / "gene.fa", "atgta\n")
        result = runner.invoke(cli, ["translate", path])
        assert result.exit_code == 1
        assert "divisible" in result.output

    def test_bad_second_gene_leaves_stdout_empty(self, runner, tmp_path):
        path = write(tmp_path / "genes.fa", ">ok\natgaaagtttaa\n>bad\natgtaagcttaa\n")
        result = runner.invoke(cli, ["translate", path])
        assert_domain_error_without_output(result)


class TestMotif:
    def test_match_search_offsets(self, runner, tmp_path):
        path = write(tmp_path / "seqs.txt", "BABA\n")
        result = runner.invoke(cli, ["motif", "match", "A", path])
        assert result.output.strip() == "0\t1 3"

    def test_match_anchored(self, runner, tmp_path):
        path = write(tmp_path / "seqs.fa", ">s1\nAXYD\n>s2\nBAXYD\n")
        result = runner.invoke(cli, ["motif", "match", "A x(2) D", path, "--anchored"])
        assert result.output.splitlines() == ["s1\t0", "s2\t"]

    def test_match_on_sequences_with_regex_metacharacters(self, runner, tmp_path):
        path = write(tmp_path / "meta.fa", ">m\na.^b\n>n\n\\\\-]a[b\n")
        for pattern, stdout in [("a x(1) {b,c}", "m\t\nn\t4\n"),
                                ("x(2)", "m\t0 1 2\nn\t0 1 2 3 4 5\n")]:
            result = runner.invoke(cli, ["motif", "match", pattern, path])
            assert (result.exit_code, result.stdout, result.stderr) == (0, stdout, "")

    @pytest.mark.parametrize("args", [["A x(4294967295)"], ["x(4294967295)", "--anchored"]])
    def test_wildcard_longer_than_any_sequence_matches_nowhere(self, runner, tmp_path, args):
        path = write(tmp_path / "seqs.txt", "AB\nBABAB\n")
        result = runner.invoke(cli, ["motif", "match", args[0], path] + args[1:])
        assert (result.exit_code, result.stdout, result.stderr) == (0, "0\t\n1\t\n", "")

    @pytest.mark.parametrize("count", ["²", "١"])
    def test_wildcard_count_is_ascii_digits(self, runner, tmp_path, count):
        path = write(tmp_path / "seqs.txt", "AB\n")
        result = runner.invoke(cli, ["motif", "match", f"x({count})", path])
        assert (result.exit_code, result.stdout, result.stderr) == \
            (1, "", f"Error: position 0: bad wildcard count '{count}'\n")

    def test_derive(self, runner, tmp_path):
        path = write(tmp_path / "family.txt", "AB\nAC\n")
        result = runner.invoke(cli, ["motif", "derive", path, "--class-cap", "2"])
        assert result.output.strip() == "A {B,C}"

    def test_match_reads_empty_headers_as_headers(self, runner, tmp_path):
        path = write(tmp_path / "seqs.fa", ">\nACGT\n >\nGGA\n")
        result = runner.invoke(cli, ["motif", "match", "G", path])
        assert (result.exit_code, result.stdout, result.stderr) == (0, "-\t2\n-\t0 1\n", "")

    def test_derive_reads_empty_headers_as_headers(self, runner, tmp_path):
        path = write(tmp_path / "seqs.fa", ">\nACGT\n>\nAGGT\n")
        result = runner.invoke(cli, ["motif", "derive", path, "--class-cap", "2"])
        assert (result.exit_code, result.stdout, result.stderr) == (0, "A {C,G} G T\n", "")


class TestGraph:
    def test_convert_round_trip_through_g6(self, runner, tmp_path):
        edges = "graph 3\n0 1\n1 2\n0 2\n"
        path = write(tmp_path / "k3.edges", edges)
        g6 = runner.invoke(cli, ["graph", "convert", path, "--to", "g6"])
        assert g6.output.strip() == "Bw"
        g6_path = write(tmp_path / "k3.g6", g6.output)
        back = runner.invoke(cli, ["graph", "convert", g6_path, "--to", "edges"])
        lines = back.output.splitlines()
        assert lines[0] == "graph 3"
        assert set(lines[1:]) == {"0 1", "1 2", "0 2"}

    def test_negative_vertex_count_is_domain_error(self, runner, tmp_path):
        path = write(tmp_path / "neg.g", "adjlist -1\n")
        result = runner.invoke(cli, ["graph", "convert", path, "--to", "edges"])
        assert_domain_error_without_output(result)
        assert result.stderr == "Error: line 1: vertex count must be >= 0\n"

    def test_convert_matrix(self, runner, tmp_path):
        path = write(tmp_path / "p2.edges", "graph 2\n0 1\n")
        result = runner.invoke(cli, ["graph", "convert", path, "--to", "matrix"])
        assert result.output == "matrix 2\n01\n10\n"

    @pytest.mark.parametrize("kind, target, stdout", [
        ("graph", "edges", "graph 5\n0 1\n0 2\n0 3\n1 2\n2 3\n"),
        ("graph", "adjlist", "adjlist 5\n0: 1 2 3\n1: 0 2\n2: 0 1 3\n3: 0 2\n4:\n"),
        ("graph", "matrix", "matrix 5\n01110\n10100\n11010\n10100\n00000\n"),
        ("graph", "g6", "D|?\n"),
        ("digraph", "edges", "digraph 3\n0 1\n1 1\n1 2\n2 0\n"),
        ("digraph", "adjlist", "dadjlist 3\n0: 1\n1: 1 2\n2: 0\n"),
        ("digraph", "matrix", "dmatrix 3\n010\n011\n100\n"),
        ("dmatrix", "edges", "digraph 3\n0 1\n1 1\n1 2\n2 0\n"),
        ("dadjlist", "edges", "digraph 3\n0 1\n1 1\n1 2\n2 0\n"),
    ], ids=["graph-edges", "graph-adjlist", "graph-matrix", "graph-g6", "digraph-edges",
            "digraph-adjlist", "digraph-matrix", "dmatrix-edges", "dadjlist-edges"])
    def test_convert_stdout(self, runner, tmp_path, kind, target, stdout):
        path = write(tmp_path / "in.g", CONVERT_INPUTS[kind])
        result = runner.invoke(cli, ["graph", "convert", path, "--to", target])
        assert (result.exit_code, result.stdout, result.stderr) == (0, stdout, "")

    def test_convert_digraph_to_g6_is_domain_error(self, runner, tmp_path):
        path = write(tmp_path / "in.g", CONVERT_INPUTS["digraph"])
        result = runner.invoke(cli, ["graph", "convert", path, "--to", "g6"])
        assert_domain_error_without_output(result)
        assert result.stderr == "Error: graph6 encodes undirected graphs only\n"

    def test_iso_witness_and_none(self, runner, tmp_path):
        a = write(tmp_path / "a.g", "graph 3\n0 1\n1 2\n")
        b = write(tmp_path / "b.g", "graph 3\n1 0\n0 2\n")
        result = runner.invoke(cli, ["graph", "iso", a, b])
        assert result.exit_code == 0
        assert len(result.output.splitlines()) == 3
        c = write(tmp_path / "c.g", "graph 3\n0 1\n1 2\n0 2\n")
        assert runner.invoke(cli, ["graph", "iso", a, c]).output.strip() == "none"

    def test_sub(self, runner, tmp_path):
        small = write(tmp_path / "k3.g", "graph 3\n0 1\n1 2\n0 2\n")
        big = write(tmp_path / "k4.g", "graph 4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        result = runner.invoke(cli, ["graph", "sub", small, big])
        assert result.exit_code == 0
        assert len(result.output.splitlines()) == 3

    @pytest.mark.parametrize("command, small, big, stdout", [
        ("iso", "digraph 4\n0 0\n0 1\n1 2\n2 3\n3 3\n",
         "digraph 4\n2 2\n2 0\n0 3\n3 1\n1 1\n", "0 2\n1 0\n2 3\n3 1\n"),
        ("iso", "digraph 4\n0 0\n0 1\n1 2\n2 3\n3 3\n",
         "digraph 4\n0 0\n0 1\n1 2\n2 3\n1 1\n", "none\n"),
        ("sub", "digraph 2\n0 0\n0 1\n1 1\n",
         "digraph 4\n0 0\n0 1\n1 2\n2 3\n1 1\n", "0 0\n1 1\n"),
        ("sub", "digraph 2\n0 0\n0 1\n1 1\n",
         "digraph 4\n2 2\n2 0\n0 3\n3 1\n1 1\n", "none\n"),
    ], ids=["iso-witness", "iso-none", "sub-witness", "sub-none"])
    def test_search_on_digraphs_with_self_loops(self, runner, tmp_path, command, small, big,
                                                stdout):
        small_path = write(tmp_path / "small.g", small)
        big_path = write(tmp_path / "big.g", big)
        result = runner.invoke(cli, ["graph", command, small_path, big_path])
        assert (result.exit_code, result.stdout, result.stderr) == (0, stdout, "")

    @pytest.mark.parametrize("args, backgrounds", [
        ([], ["NA"] * 9),
        (["--significance", "2", "--seed", "5"],
         ["0.500000", "1.000000", "1.000000", "1.000000", "1.000000", "0.500000", "1.000000",
          "1.000000", "0.500000"]),
    ], ids=["census", "significance"])
    def test_motif_census_of_a_digraph_with_self_loops(self, runner, tmp_path, args,
                                                       backgrounds):
        path = write(tmp_path / "loops.g",
                     "digraph 5\n0 0\n0 1\n1 2\n2 0\n2 3\n3 3\n3 4\n4 1\n")
        counts = [("d3:000001001", 1), ("d3:000001100", 1), ("d3:000001101", 1),
                  ("d3:000010101", 2), ("d3:000011100", 1), ("d3:000100101", 1),
                  ("d3:001010010", 1), ("d3:001100011", 1), ("d3:011010001", 1)]
        expected = "".join(f"{identifier}\t{count}\t{background}\n"
                           for (identifier, count), background in zip(counts, backgrounds))
        result = runner.invoke(cli, ["graph", "motifs", path, "-k", "3"] + args)
        assert (result.exit_code, result.stdout, result.stderr) == (0, expected, "")

    def test_motif_significance_of_a_loopless_digraph(self, runner, tmp_path):
        path = write(tmp_path / "loopless.g",
                     "digraph 6\n0 1\n1 2\n2 0\n2 3\n3 4\n4 5\n5 3\n1 4\n0 5\n4 0\n")
        args = ["graph", "motifs", path, "-k", "3", "--significance", "2", "--seed", "5"]
        result = runner.invoke(cli, args)
        expected = ("d3:000000010\t4\t5.000000\nd3:000000110\t3\t1.500000\n"
                    "d3:000001100\t6\t4.500000\nd3:000100100\t3\t1.500000\n"
                    "d3:000100110\t1\t0.000000\nd3:001100010\t3\t1.000000\n")
        assert (result.exit_code, result.stdout, result.stderr) == (0, expected, "")

    def test_motif_census_tsv(self, runner, tmp_path):
        path = write(tmp_path / "k3.g", "graph 3\n0 1\n1 2\n0 2\n")
        result = runner.invoke(cli, ["graph", "motifs", path, "-k", "3"])
        assert result.output.strip() == "Bw\t1\tNA"

    def test_motif_census_with_significance_is_deterministic(self, runner, tmp_path):
        path = write(tmp_path / "ring.g", "graph 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
        args = ["graph", "motifs", path, "-k", "3", "--significance", "4", "--seed", "9"]
        first = runner.invoke(cli, args)
        second = runner.invoke(cli, args)
        assert first.output == second.output
        assert "NA" not in first.output


def seeded_pairs(rng, n, p, directed=False):
    if directed:
        return sorted((u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p)
    return sorted((u, v) for v in range(n) for u in range(v) if rng.random() < p)


def graph_text(n, pairs, directed=False):
    head = "digraph" if directed else "graph"
    return "".join([f"{head} {n}\n"] + [f"{u} {v}\n" for u, v in pairs])


class TestGraphSearchPins:
    """Exact stdout of seeded search and census jobs, as recorded before the bitset engines."""

    def test_odd_cycle_into_bipartite_host_is_none(self, runner, tmp_path):
        rng = random.Random(7)
        host = [(u, 10 + v) for u in range(10) for v in range(10) if rng.random() < 0.4]
        cycle = sorted((min(j, (j + 1) % 7), max(j, (j + 1) % 7)) for j in range(7))
        small = write(tmp_path / "c7.g", graph_text(7, cycle))
        big = write(tmp_path / "bipartite.g", graph_text(20, host))
        result = runner.invoke(cli, ["graph", "sub", small, big])
        assert (result.exit_code, result.output) == (0, "none\n")

    def test_planted_digraph_witness(self, runner, tmp_path):
        rng = random.Random(11)
        pattern = seeded_pairs(rng, 6, 0.4, directed=True)
        host = set(seeded_pairs(rng, 24, 0.3, directed=True))
        spot = rng.sample(range(24), 6)
        host |= {(spot[u], spot[v]) for u, v in pattern}
        small = write(tmp_path / "pattern.g", graph_text(6, pattern, directed=True))
        big = write(tmp_path / "host.g", graph_text(24, sorted(host), directed=True))
        result = runner.invoke(cli, ["graph", "sub", small, big])
        assert (result.exit_code, result.output) == (0, "0 0\n1 2\n2 4\n3 16\n4 22\n5 19\n")

    # Recorded before the parity cut: none from an odd cycle into a bipartite host,
    # and witnesses that must land in a host's odd component.
    @pytest.mark.parametrize("cycle", [5, 7])
    def test_odd_cycle_into_2x40_bipartite_host_is_none(self, runner, tmp_path, cycle):
        rng = random.Random(19)
        host = [(u, 40 + v) for u in range(40) for v in range(40) if rng.random() < 0.1]
        ring = sorted((min(j, (j + 1) % cycle), max(j, (j + 1) % cycle)) for j in range(cycle))
        small = write(tmp_path / "cycle.g", graph_text(cycle, ring))
        big = write(tmp_path / "bipartite.g", graph_text(80, host))
        result = runner.invoke(cli, ["graph", "sub", small, big])
        assert (result.exit_code, result.output) == (0, "none\n")

    def test_planted_odd_pattern_beside_a_bipartite_block(self, runner, tmp_path):
        rng = random.Random(23)
        # A 5-cycle with a pendant vertex, planted in the one odd component (60-71).
        pattern = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (2, 5)]
        host = {(u, 30 + v) for u in range(30) for v in range(30) if rng.random() < 0.15}
        host |= {(60 + u, 60 + v) for u, v in seeded_pairs(rng, 12, 0.3)}
        spot = rng.sample(range(60, 72), 6)
        host |= {(min(spot[u], spot[v]), max(spot[u], spot[v])) for u, v in pattern}
        small = write(tmp_path / "pattern.g", graph_text(6, pattern))
        big = write(tmp_path / "host.g", graph_text(72, sorted(host)))
        result = runner.invoke(cli, ["graph", "sub", small, big])
        assert (result.exit_code, result.output) == (0, "0 60\n1 65\n2 62\n3 61\n4 66\n5 63\n")

    # The host's loops sit on a directed 4-cycle, which is bipartite but for them;
    # its other component is a loopless directed triangle.
    @pytest.mark.parametrize("small, big, stdout", [
        ("digraph 3\n0 0\n0 1\n1 2\n", "digraph 7\n0 1\n1 2\n2 3\n3 0\n2 2\n4 5\n5 6\n6 4\n",
         "0 2\n1 3\n2 0\n"),
        ("digraph 3\n0 0\n0 1\n1 2\n2 2\n",
         "digraph 7\n0 1\n1 2\n2 3\n3 0\n0 0\n2 2\n4 5\n5 6\n6 4\n", "0 0\n1 1\n2 2\n"),
        ("digraph 3\n0 0\n0 1\n1 2\n2 2\n",
         "digraph 7\n0 1\n1 2\n2 3\n3 0\n2 2\n4 5\n5 6\n6 4\n", "none\n"),
    ], ids=["one-loop", "two-loops", "two-loops-none"])
    def test_looped_pattern_into_host_with_loops_on_an_even_cycle(self, runner, tmp_path,
                                                                  small, big, stdout):
        small_path = write(tmp_path / "small.g", small)
        big_path = write(tmp_path / "big.g", big)
        result = runner.invoke(cli, ["graph", "sub", small_path, big_path])
        assert (result.exit_code, result.stdout, result.stderr) == (0, stdout, "")

    def test_k4_census(self, runner, tmp_path):
        path = write(tmp_path / "g.g", graph_text(30, seeded_pairs(random.Random(5), 30, 0.15)))
        result = runner.invoke(cli, ["graph", "motifs", path, "-k", "4"])
        assert result.exit_code == 0
        assert result.output == (
            "C?\t9782\tNA\nCK\t1031\tNA\nC]\t32\tNA\nC_\t11107\tNA\nCk\t764\tNA\n"
            "Co\t4081\tNA\nCs\t241\tNA\nCw\t248\tNA\nC{\t110\tNA\nC}\t8\tNA\nC~\t1\tNA\n"
        )

    def test_directed_k3_census(self, runner, tmp_path):
        pairs = seeded_pairs(random.Random(9), 30, 0.1, directed=True)
        path = write(tmp_path / "d.g", graph_text(30, pairs, directed=True))
        result = runner.invoke(cli, ["graph", "motifs", path, "-k", "3"])
        assert result.exit_code == 0
        assert result.output == (
            "d3:000000000\t1800\tNA\nd3:000000010\t1617\tNA\nd3:000000110\t122\tNA\n"
            "d3:000001010\t68\tNA\nd3:000001100\t228\tNA\nd3:000001110\t21\tNA\n"
            "d3:000100100\t138\tNA\nd3:000100110\t27\tNA\nd3:000101110\t2\tNA\n"
            "d3:001001010\t16\tNA\nd3:001001110\t1\tNA\nd3:001100010\t18\tNA\n"
            "d3:001101100\t1\tNA\nd3:001101110\t1\tNA\n"
        )


MOTIF_GRAPHS = {
    # A 6-cycle with the chord 0-3: bipartite, so no class with a triangle.
    "triangle_free": graph_text(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)]),
    "k5": graph_text(5, [(u, v) for v in range(5) for u in range(v)]),
    "k3": graph_text(3, [(0, 1), (1, 2), (0, 2)]),
    "p2": graph_text(2, [(0, 1)]),
    "g12": graph_text(12, seeded_pairs(random.Random(12), 12, 0.35)),
}


class TestMotifCensusPins:
    """Exact stdout of `graph motifs` on undirected graphs, as recorded before the construction."""

    @pytest.mark.parametrize("name, args, expected", [
        ("triangle_free", ["-k", "3"], "B?\t2\tNA\nB_\t8\tNA\nBo\t10\tNA\n"),
        ("triangle_free", ["-k", "4"],
         "CK\t1\tNA\nC]\t2\tNA\nCk\t6\tNA\nCo\t4\tNA\nCs\t2\tNA\n"),
        ("k5", ["-k", "3"], "Bw\t10\tNA\n"),
        ("k5", ["-k", "4"], "C~\t5\tNA\n"),
        ("k3", ["-k", "3"], "Bw\t1\tNA\n"),
        ("k3", ["-k", "4"], ""),
        ("p2", ["-k", "3"], ""),
        ("p2", ["-k", "4"], ""),
        ("g12", ["-k", "3"], "B?\t57\tNA\nB_\t111\tNA\nBo\t47\tNA\nBw\t5\tNA\n"),
        ("g12", ["-k", "4"],
         "C?\t24\tNA\nCK\t52\tNA\nC]\t5\tNA\nC_\t128\tNA\nCk\t83\tNA\nCo\t144\tNA\n"
         "Cs\t17\tNA\nCw\t21\tNA\nC{\t18\tNA\nC}\t3\tNA\n"),
        ("triangle_free", ["-k", "4", "--significance", "2", "--seed", "3"],
         "CK\t1\t3.500000\nC]\t2\t0.000000\nCk\t6\t5.500000\nCo\t4\t1.500000\n"
         "Cs\t2\t0.000000\n"),
        ("g12", ["-k", "3", "--significance", "4", "--seed", "9"],
         "B?\t57\t57.250000\nB_\t111\t110.250000\nBo\t47\t47.750000\nBw\t5\t4.750000\n"),
        ("g12", ["-k", "4", "--significance", "2", "--seed", "3"],
         "C?\t24\t19.000000\nCK\t52\t62.500000\nC]\t5\t2.500000\nC_\t128\t135.500000\n"
         "Ck\t83\t69.000000\nCo\t144\t139.500000\nCs\t17\t8.500000\nCw\t21\t30.500000\n"
         "C{\t18\t23.500000\nC}\t3\t4.500000\n"),
    ])
    def test_census_stdout(self, runner, tmp_path, name, args, expected):
        path = write(tmp_path / f"{name}.g", MOTIF_GRAPHS[name])
        result = runner.invoke(cli, ["graph", "motifs", path] + args)
        assert (result.exit_code, result.output) == (0, expected)


class TestAutomaton:
    def test_state_space(self, runner, tmp_path):
        path = write(tmp_path / "m.aut", "s0 -> s1\ns1 -> s2\ns2 -> s0\n")
        result = runner.invoke(cli, ["automaton", "graph", path])
        lines = result.output.splitlines()
        assert lines[:3] == ["# 0 s0", "# 1 s1", "# 2 s2"]
        assert lines[3] == "digraph 3"
        assert set(lines[4:]) == {"0 1", "1 2", "2 0"}

    def test_over_the_cap_writes_nothing(self, runner, tmp_path):
        cycle = "".join(f"s{i} -> s{(i + 1) % 5001}\n" for i in range(5001))
        result = runner.invoke(cli, ["automaton", "graph", write(tmp_path / "m.aut", cycle)])
        assert_domain_error_without_output(result)
        assert result.stderr == "Error: graphs are capped at 5000 vertices, got 5001\n"


class TestPercolate:
    def test_byte_identical_runs(self, runner):
        args = ["percolate", "-n", "40", "--p-from", "0.01", "--p-to", "0.1",
                "--steps", "3", "--trials", "4", "--seed", "7"]
        first = runner.invoke(cli, args)
        second = runner.invoke(cli, args)
        assert first.exit_code == 0
        assert first.output == second.output
        assert first.output.splitlines()[0] == "p,mean_fraction"
        assert len(first.output.splitlines()) == 4

    def test_env_seed_matches_flag(self, runner):
        args = ["percolate", "-n", "30", "--p-from", "0.05", "--p-to", "0.05",
                "--steps", "1", "--trials", "3"]
        via_env = runner.invoke(cli, args, env={"OBSERVE_SEED": "11"})
        via_flag = runner.invoke(cli, args + ["--seed", "11"])
        assert via_env.output == via_flag.output
        other = runner.invoke(cli, args + ["--seed", "12"])
        assert other.output != via_flag.output

    def test_probability_forms_read_as_plain_decimals(self, runner):
        def run(p_from, p_to):
            return runner.invoke(cli, ["percolate", "-n", "12", "--p-from", p_from,
                                       "--p-to", p_to, "--steps", "3", "--trials", "2"])
        plain = run("0.25", "1")
        assert (plain.exit_code, plain.stderr) == (0, "")
        assert run(".25", "1.").stdout == run("00.250", "1.0").stdout == plain.stdout

    def test_probability_above_one_leaves_stdout_empty(self, runner):
        result = runner.invoke(cli, ["percolate", "-n", "20", "--p-from", "0.5", "--p-to", "1.5",
                                     "--steps", "3", "--trials", "2", "--seed", "1"])
        assert_domain_error_without_output(result)

    @pytest.mark.parametrize("p_from, p_to, steps, stderr", [
        ("1" + "0" * 308, "-1" + "0" * 308, "2", "got 1e+308"),
        ("0", "2", "4", "got 2.0"),
    ], ids=["opposite-huge-endpoints", "interpolation-passes-the-bound"])
    def test_the_refusal_names_the_endpoint_given(self, runner, p_from, p_to, steps, stderr):
        result = runner.invoke(cli, ["percolate", "-n", "5", "--p-from", p_from, "--p-to", p_to,
                                     "--steps", steps, "--trials", "1"])
        assert_domain_error_without_output(result)
        assert result.stderr == f"Error: edge probability must be in [0,1], {stderr}\n"

    def test_the_last_point_is_the_endpoint_given(self, runner):
        # 0.059 + 3 * (1 - 0.059) / 3 rounds to 1.0000000000000002.
        result = runner.invoke(cli, ["percolate", "-n", "5", "--p-from", "0.059", "--p-to", "1",
                                     "--steps", "4", "--trials", "1"])
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout == ("p,mean_fraction\n0.059,0.200000\n0.372667,0.800000\n"
                                 "0.686333,1.000000\n1,1.000000\n")


class TestTree:
    def test_query(self, runner, tmp_path):
        path = write(tmp_path / "fam.kin", KINSHIP)
        out = runner.invoke(cli, ["tree", "query", path, "is_descendant_of", "frank", "alice"])
        assert out.output.strip() == "true"
        out = runner.invoke(cli, ["tree", "query", path, "partnered", "alice", "carol"])
        assert out.output.strip() == "false"

    def test_descendants(self, runner, tmp_path):
        path = write(tmp_path / "fam.kin", KINSHIP)
        result = runner.invoke(cli, ["tree", "descendants", path, "alice"])
        assert result.output.splitlines() == ["carol", "dave", "frank", "grace"]

    def test_descendants_of_a_3000_generation_chain(self, runner, tmp_path):
        people = [f"p{i}" for i in range(3001)]
        arcs = "".join(f"{a} -> {b}\n" for a, b in zip(people, people[1:]))
        path = write(tmp_path / "chain.kin", arcs)
        result = runner.invoke(cli, ["tree", "descendants", path, "p0"])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines() == sorted(people[1:])

    @pytest.mark.parametrize("args, stdout", [
        (["descendants", "p 1"], b"a b\nc\ne\\x\nn\xc2\xa0b\np 2\n"),
        (["descendants", "x\\y"], b"a b\nc\ne\\x\nn\xc2\xa0b\np 1\np 2\n"),
        (["query", "is_descendant_of", "n\xa0b", "p 1"], b"true\n"),
        (["query", "partnered", 'd"q', "p 1"], b"true\n"),
        (["query", "is_predecessor_of", "x\\y", "e\\x"], b"true\n"),
        (["query", "is_child_of", "a b", "p 2"], b"true\n"),
    ])
    def test_quoted_and_escaped_names(self, runner, tmp_path, args, stdout):
        path = write(tmp_path / "quoted.kin", QUOTED_KINSHIP)
        result = runner.invoke(cli, ["tree", args[0], path, *args[1:]])
        assert (result.exit_code, result.stdout_bytes, result.stderr_bytes) == (0, stdout, b"")

    @pytest.mark.parametrize("text, stderr", [
        ('a -> b\nperson c "C\n', b"Error: line 2: No closing quotation\n"),
        ("a -> b\n\nc -> d\\\n", b"Error: line 3: No escaped character\n"),
        ('a -> "b\\\n', b"Error: line 1: No escaped character\n"),
    ])
    def test_unbalanced_quoting_is_domain_error(self, runner, tmp_path, text, stderr):
        path = write(tmp_path / "bad.kin", text)
        result = runner.invoke(cli, ["tree", "descendants", path, "a"])
        assert_domain_error_without_output(result)
        assert result.stderr_bytes == stderr

    @pytest.mark.parametrize("text, stderr", [
        ("a -> x\nb -> x\nc -> x\n",
         "Error: kinship file invalid: 'x' has more than two parents\n"),
        ("a <-> b\nb <-> a\n", "Error: kinship file invalid: duplicate partner edge {b,a}\n"),
        ("a -> b\nperson a\n", "Error: line 2: person 'a' declared twice\n"),
        ("a -> b\nb -> c\na -> b\n", "Error: kinship file invalid: duplicate arc (a,b)\n"),
        ("person a\na -> a\n", "Error: kinship file invalid: 'a' cannot be their own parent\n"),
        ("a <-> a\n",
         "Error: kinship file invalid: partner edge {'a'} must join two distinct persons\n"),
        ("b -> a\na <-> b\n",
         "Error: kinship file invalid: {'a', 'b'} cannot be both partners and parent/child\n"),
        ("d -> b\nb -> c\nc -> d\na -> b\n",
         "Error: kinship file invalid: parent arcs form a cycle: b -> c -> d -> b\n"),
        ("a -> b\na -> b\nwhat is this\n",
         "Error: line 3: expected a person, '->', or '<->' line\n"),
    ], ids=["third-parent", "duplicate-partner", "person-after-edge", "duplicate-arc",
            "self-parent", "self-partner", "partners-and-parent", "cycle",
            "malformed-line-before-duplicate-arc"])
    def test_invalid_kinship_file_is_domain_error(self, runner, tmp_path, text, stderr):
        path = write(tmp_path / "bad.kin", text)
        result = runner.invoke(cli, ["tree", "descendants", path, "a"])
        assert_domain_error_without_output(result)
        assert result.stderr == stderr

    def test_unknown_relation_is_domain_error(self, runner, tmp_path):
        path = write(tmp_path / "fam.kin", KINSHIP)
        result = runner.invoke(cli, ["tree", "query", path, "sibling", "alice", "bob"])
        assert result.exit_code == 1


class TestOneWrite:
    """A command that prints several lines writes them at once, and writes nothing
    when it has no lines."""

    @pytest.fixture()
    def writes(self, monkeypatch):
        calls, echo = [], click.echo

        def record(*args, **kwargs):
            calls.append(args)
            echo(*args, **kwargs)

        monkeypatch.setattr(click, "echo", record)
        return calls

    def files(self, tmp_path):
        return {
            "turtle": write(tmp_path / "turtle.g", TURTLE),
            "seqs": write(tmp_path / "seqs.fa", ">s1\nBABA\n>s2\nAAB\n"),
            "gene": write(tmp_path / "gene.fa", ">a\natgtag\n>b\natgttttaa\n"),
            "path": write(tmp_path / "path.g", "graph 3\n0 1\n1 2\n"),
            "digraph": write(tmp_path / "d.g", "digraph 4\n0 1\n1 2\n2 0\n3 3\n"),
            "kin": write(tmp_path / "fam.kin", KINSHIP),
            "empty": write(tmp_path / "empty.g", "graph 0\n"),
            "automaton": write(tmp_path / "m.aut", "s0 -> s1\ns1 -> s0\n"),
        }

    @pytest.mark.parametrize("args, lines", [
        (["grammar", "gen", "{turtle}", "--max-len", "2"], 4),
        (["translate", "{gene}"], 2),
        (["motif", "match", "A", "{seqs}"], 2),
        (["graph", "iso", "{path}", "{path}"], 3),
        (["graph", "sub", "{path}", "{path}"], 3),
        (["graph", "motifs", "{digraph}", "--significance", "2"], 2),
        (["percolate", "-n", "9", "--p-from", "0", "--p-to", "1", "--steps", "3",
          "--trials", "1"], 4),
        (["tree", "descendants", "{kin}", "alice"], 4),
        (["automaton", "graph", "{automaton}"], 5),
    ])
    def test_lines_are_written_at_once(self, runner, tmp_path, writes, args, lines):
        files = self.files(tmp_path)
        result = runner.invoke(cli, [arg.format(**files) for arg in args])
        assert result.exit_code == 0, result.output
        assert len(result.stdout.splitlines()) == lines
        assert len(writes) == 1

    @pytest.mark.parametrize("args", [
        ["grammar", "gen", "{turtle}", "--max-len", "0"],
        ["tree", "descendants", "{kin}", "frank"],
        ["graph", "iso", "{empty}", "{empty}"],
        ["graph", "sub", "{empty}", "{empty}"],
    ])
    def test_no_lines_write_nothing(self, runner, tmp_path, writes, args):
        files = self.files(tmp_path)
        result = runner.invoke(cli, [arg.format(**files) for arg in args])
        assert (result.exit_code, result.stdout, result.stderr, writes) == (0, "", "", [])


def _table_text(edit):
    from observement.genetics import standard_table
    return edit(standard_table().to_text())


class TestErrorBranchPins:
    """Exact stderr of parser error branches that no other test reaches."""

    @pytest.mark.parametrize("command, files, stderr", [
        (["graph", "convert", "{0}", "--to", "edges"], ["graph\n"],
         "line 1: expected '<kind> <n>'"),
        (["graph", "convert", "{0}", "--to", "edges"], ["graph 3 4\n"],
         "line 1: expected '<kind> <n>'"),
        (["graph", "convert", "{0}", "--to", "edges"], ["adjlist 3\n5: 0\n"],
         "line 2: vertex 5 out of range"),
        (["tree", "descendants", "{0}", "a"], ["person\n"],
         "line 1: expected 'person NAME [\"label\"]'"),
        (["tree", "descendants", "{0}", "a"], ['person a "x" y\n'],
         "line 1: expected 'person NAME [\"label\"]'"),
        (["translate", "{0}"], [""], "no sequence records in file"),
        (["translate", "{0}", "--table", "{1}"],
         ["atgtag\n", _table_text(lambda t: t + "nnn\tK\n")],
         "codon table has invalid codons: ['nnn']"),
        (["translate", "{0}", "--table", "{1}"],
         ["atgtag\n", _table_text(lambda t: t.replace("aaa\tK", "aaa\tB"))],
         "codon table maps to unknown letters: ['B']"),
        (["grammar", "check", "{0}", "a"], ["<> -> a\n"],
         "line 1, col 1: empty nonterminal name"),
        (["grammar", "check", "{0}", "a"], ["<s> -> a++\n"],
         "line 1, col 10: repeated '+' on one item"),
        (["grammar", "check", "{0}", "a"], ["<a> -> b -> c\n"],
         "line 1, col 10: unexpected token '->'"),
    ], ids=["graph-header-one-word", "graph-header-three-words", "adjlist-row-out-of-range",
            "person-without-name", "person-with-extra-word", "translate-empty-file",
            "table-invalid-codon", "table-unknown-letter", "grammar-empty-name",
            "grammar-repeated-plus", "grammar-arrow-in-alternatives"])
    def test_stderr(self, runner, tmp_path, command, files, stderr):
        paths = [write(tmp_path / f"in{i}.txt", text) for i, text in enumerate(files)]
        result = runner.invoke(cli, [arg.format(*paths) for arg in command])
        assert_domain_error_without_output(result)
        assert result.stderr == f"Error: {stderr}\n"


class TestAsciiNumbers:
    """Counts, vertices and arities are ASCII digits; int() alone reads '١', '1_0' and '+1'."""

    @pytest.mark.parametrize("command, text, stderr", [
        (["system", "classify"], "OBJECTS\na\nRELATION r/١\n", "line 3: bad arity '١'"),
        (["system", "verify"], "OBJECTS\na\nRELATION r/١\n", "line 3: bad arity '١'"),
        (["system", "classify"], "OBJECTS\na\nRELATION r/1_0\n", "line 3: bad arity '1_0'"),
        (["system", "classify"], "OBJECTS\na\nRELATION r/+1\n", "line 3: bad arity '+1'"),
        (["system", "classify"], "OBJECTS\na\nRELATION r/-1\n",
         "relation 'r' must have arity >= 1"),
        (["graph", "convert", "--to", "edges"], "graph ٣\n", "line 1: bad vertex count '٣'"),
        (["graph", "convert", "--to", "edges"], "graph 1_0\n",
         "line 1: bad vertex count '1_0'"),
        (["graph", "convert", "--to", "edges"], "digraph +3\n",
         "line 1: bad vertex count '+3'"),
        (["graph", "convert", "--to", "edges"], "graph -1\n",
         "line 1: vertex count must be >= 0"),
        (["graph", "convert", "--to", "edges"], "graph 3\n0 ٢\n", "line 2: bad vertex '٢'"),
        (["graph", "convert", "--to", "edges"], "adjlist 3\n0: 1_0\n",
         "line 2: bad vertex '1_0'"),
        (["graph", "convert", "--to", "edges"], "dadjlist 3\n+1: 0\n", "line 2: bad vertex '+1'"),
        (["graph", "convert", "--to", "edges"], "graph 3\n0 1\n1 " + "2" * 5000 + "\n",
         "line 3: bad vertex '" + "2" * 5000 + "'"),
        (["graph", "convert", "--to", "edges"], "adjlist 3\n0: 1 " + "2" * 5000 + "\n",
         "line 2: bad vertex '" + "2" * 5000 + "'"),
        (["lzw", "decompress", "--alphabet", "ab"], "0 " + "1" * 5000 + "\n",
         "bad code in input: code of 5000 digits"),
        (["lzw", "decompress", "--alphabet", "ab"], "0 -1 -" + "1" * 5000 + "\n",
         "bad code in input: code of 5000 digits"),
        (["lzw", "decompress", "--alphabet", "ab"], "0 " + "1" * 5000 + " ١\n",
         "bad code in input: code of 5000 digits"),
        (["lzw", "decompress", "--alphabet", "ab"], "0 --5\n", "bad code in input: '--5'"),
    ], ids=["arity-arabic-indic", "verify-arity-arabic-indic", "arity-underscore", "arity-plus",
            "arity-negative", "count-arabic-indic", "count-underscore", "count-plus",
            "count-negative", "vertex-arabic-indic", "adjlist-vertex-underscore",
            "adjlist-row-plus", "vertex-too-long", "adjlist-vertex-too-long", "lzw-long-code",
            "lzw-long-negative-code", "lzw-first-bad-code-in-file-order", "lzw-double-minus"])
    def test_refusal(self, runner, tmp_path, command, text, stderr):
        path = write(tmp_path / "in.txt", text)
        result = runner.invoke(cli, command[:2] + [path] + command[2:])
        assert_domain_error_without_output(result)
        assert result.stderr == f"Error: {stderr}\n"

    @pytest.mark.parametrize("count", ["1" * 5000, "-1", "-0"],
                             ids=["too-long", "minus", "minus-0"])
    def test_wildcard_count_refusal(self, runner, tmp_path, count):
        path = write(tmp_path / "seqs.txt", "AB\n")
        result = runner.invoke(cli, ["motif", "match", f"x({count})", path])
        assert_domain_error_without_output(result)
        assert result.stderr == f"Error: position 0: bad wildcard count '{count}'\n"

    @pytest.mark.parametrize("args, option, word", [
        (["grammar", "gen", "{0}", "--max-len", "١"], "--max-len", "١"),
        (["motif", "derive", "{1}", "--class-cap", "1_0"], "--class-cap", "1_0"),
        (["graph", "motifs", "{2}", "--significance", "+1"], "--significance", "+1"),
        (["graph", "motifs", "{2}", "--seed", "\xa03"], "--seed", "\xa03"),
        (["percolate", "-n", "٣", "--p-from", "0", "--p-to", "1", "--steps", "1", "--trials", "1"],
         "-n", "٣"),
        (["percolate", "-n", "3", "--p-from", "0", "--p-to", "1", "--steps", "٢", "--trials", "1"],
         "--steps", "٢"),
        (["percolate", "-n", "3", "--p-from", "0", "--p-to", "1", "--steps", "1",
          "--trials", "1\u2028"], "--trials", "1\u2028"),
    ], ids=["max-len", "class-cap", "significance", "seed", "n", "steps", "trials"])
    def test_argument_refusal(self, runner, tmp_path, args, option, word):
        paths = [write(tmp_path / "g.txt", "<s> -> a\n"), write(tmp_path / "s.txt", "AB\nAC\n"),
                 write(tmp_path / "k3.g", "graph 3\n0 1\n1 2\n0 2\n")]
        result = runner.invoke(cli, [arg.format(*paths) for arg in args])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.splitlines()[-1] == \
            f"Error: Invalid value for '{option}': {word!r} is not a valid integer."

    def test_seed_variable_refusal(self, runner):
        result = runner.invoke(cli, ["percolate", "-n", "3", "--p-from", "0", "--p-to", "1",
                                     "--steps", "1", "--trials", "1"], env={"OBSERVE_SEED": "٣"})
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.splitlines()[-1] == \
            "Error: Invalid value for '--seed': '٣' is not a valid integer."


class TestComplexityAndLzw:
    def test_complexity_of_graph_file(self, runner, tmp_path):
        path = write(tmp_path / "k3.g", "graph 3\n0 1\n1 2\n0 2\n")
        result = runner.invoke(cli, ["complexity", path])
        total, primary, secondary = result.output.split()
        assert total == "2"

    def test_complexity_canonical_flag(self, runner, tmp_path):
        path = write(tmp_path / "g.g", "graph 4\n2 3\n")
        plain = runner.invoke(cli, ["complexity", path]).output
        canonical = runner.invoke(cli, ["complexity", path, "--canonical"]).output
        assert plain.split()[0] == canonical.split()[0] == "2"

    @pytest.mark.parametrize("edges, expected", [
        ([], "6\t7\t4\n"),
        ([(i, j) for j in range(8) for i in range(j)], "6\t9\t5\n"),
        ([(0, 1), (1, 3), (1, 6), (1, 7), (2, 3), (2, 7), (3, 6), (4, 5)], "6\t10\t6\n"),
    ], ids=["edgeless", "complete", "random"])
    def test_complexity_canonical_of_8_vertex_graphs(self, runner, tmp_path, edges, expected):
        text = "graph 8\n" + "".join(f"{u} {v}\n" for u, v in edges)
        result = runner.invoke(cli, ["complexity", write(tmp_path / "g.g", text), "--canonical"])
        assert result.exit_code == 0
        assert result.stdout == expected

    def test_complexity_canonical_of_the_petersen_graph(self, runner, tmp_path):
        edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)] \
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        text = "graph 10\n" + "".join(f"{u} {v}\n" for u, v in edges)
        result = runner.invoke(cli, ["complexity", write(tmp_path / "g.g", text), "--canonical"])
        assert result.exit_code == 0
        assert result.stdout == "9\t16\t9\n"

    def test_complexity_canonical_cap_is_one_line_error(self, runner, tmp_path):
        path = write(tmp_path / "g.g", "graph 11\n0 1\n")
        result = runner.invoke(cli, ["complexity", path, "--canonical"])
        assert_domain_error_without_output(result)
        assert result.stderr == "Error: canonical form capped at 10 vertices, got 11\n"

    def test_complexity_of_sequence_file(self, runner, tmp_path):
        path = write(tmp_path / "seq.fa", ">s\naaaaaaaa\n")
        result = runner.invoke(cli, ["complexity", path])
        assert result.output.split() == ["8", "9", "4"]

    def test_lzw_round_trip(self, runner, tmp_path):
        data = write(tmp_path / "data.txt", "ababab")
        compressed = runner.invoke(cli, ["lzw", "compress", data, "--alphabet", "ab"])
        assert compressed.output.strip() == "0 1 2 2"
        codes = write(tmp_path / "codes.txt", compressed.output)
        result = runner.invoke(cli, ["lzw", "decompress", codes, "--alphabet", "ab"])
        assert result.output.strip() == "ababab"

    @pytest.mark.parametrize("token", ["²", "١", "1_0", "+1", "x", "1-2", "-"])
    def test_lzw_codes_are_ascii_integers(self, runner, tmp_path, token):
        codes = write(tmp_path / "codes.txt", f"0 {token} 1\n")
        result = runner.invoke(cli, ["lzw", "decompress", codes, "--alphabet", "ab"])
        assert (result.exit_code, result.stdout, result.stderr) == \
            (1, "", f"Error: bad code in input: '{token}'\n")

    def test_lzw_negative_code_is_out_of_range(self, runner, tmp_path):
        codes = write(tmp_path / "codes.txt", "0 -1\n")
        result = runner.invoke(cli, ["lzw", "decompress", codes, "--alphabet", "ab"])
        assert (result.exit_code, result.stdout, result.stderr) == \
            (1, "", "Error: code -1 out of range for dictionary of size 2\n")

    def test_lzw_symbol_outside_alphabet(self, runner, tmp_path):
        data = write(tmp_path / "data.txt", "abc")
        result = runner.invoke(cli, ["lzw", "compress", data, "--alphabet", "ab"])
        assert result.exit_code == 1
