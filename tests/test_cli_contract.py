"""Every subcommand keeps the CLI contract on small random files and option values.

The contract: the exit code is 0, 1 (a one-line domain error) or 2 (a usage
error); no exception but SystemExit escapes a command, so no traceback is
printed; a command writes its stdout in at most one ``click.echo``; and a
failing command writes nothing to stdout.
"""

import itertools
import random

import click
import pytest
from click.testing import CliRunner

from observement import genetics, graphs
from observement.cli import cli
from observement.familytree import RELATIONS

# One valid file per kind, and the lines that mutations draw on.
VALID = {
    "fixture": ["OBJECTS", "a b c", "RELATION r/2", "a b", "b c", "OBSERVATIONS", "x y z",
                "RELATION p/2", "x y", "y z", "MAP m", "a x", "b y", "c z", "PAIR", "r p",
                "MAP n", "a x", "b x", "c y", "PAIR", "r p"],
    "grammar": ["<s>", "<s> -> a <s> | b <t>", "<t> -> c | c <t>"],
    "seqs": [">g1", "atggctgcttaa", ">g2", "atgaaa", "taa"],
    "automaton": ["a -> b", "b -> c", "c -> a", "d -> a"],
    "kinship": ['person a "Ann"', "a -> b", "a -> c", "b <-> d", "b -> e", "d -> e"],
    "text": ["abab"],
    "codes": ["0 1 2 4"],
}
LINES = {
    "fixture": ["OBJECTS", "a b c", "OBSERVATIONS", "x y", "RELATION r/2", "RELATION p/2",
                "RELATION q/1", "a b", "b c", "x y", "y x", "a", "MAP m", "MAP n", "a x",
                "b y", "c x", "c y", "PAIR", "r p", "q p", "RELATION r/z", "MAP"],
    "grammar": ["<s>", "<s> -> a <s> | b", "<s> -> <t> a", "<t> -> b | c <t>",
                "<t> -> <s> b", "<u> -> 'a' <u>+ | c", "<s> -> <u>", "<s> -> | a",
                "<s -> a", "<s> -> 'ab'", "<t> -> a+ b+", "<u>"],
    "seqs": [">g1", ">", "atgaaataa", "ATGGCTGCTTAG", "atgtaa", "acgt", "nnn", "atgxx",
             "gct gct", "atggcttgataa"],
    "graph": ["0 1", "1 2", "2 0", "0 0", "3 9", "x y", "0: 1 2", "1: 0", "2: 0", "0:",
              "010", "101", "000", "0110", "Bw", "D??", "graph 3", "adjlist -1"],
    "automaton": ["a -> b", "b -> a", "c -> c", "a -> c", "b -> c", "a b", "d -> e"],
    "kinship": ['person a "Ann"', "person b", "a -> b", "b -> c", "c -> a", "a -> d",
                "d <-> e", "a <-> b", "a -> a", 'person "x', "e -> c", "f -> c", '"p 1" -> b',
                "a -> 'c d'", "a\\ b -> c", 'person e "x\\', '"person" -> b', "person -> b"],
    "text": ["abab", "abcab", "aXb", "", "ba"],
    "codes": ["0 1 2 3 4", "5 x", "-1", "0 0 0 9", "1 0 2"],
}
GRAPH_FORMATS = [graphs.format_graph_file, graphs.format_matrix_text,
                 graphs.format_adjacency_text, lambda g: graphs.encode_graph6(g) + "\n"]
JUNK = "abx01 :->#<>'\"|+{}()[],.\\\t"


def random_graph_lines(rng):
    n = rng.randint(0, 6)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    if rng.random() < 0.5:
        g = graphs.Graph(n, frozenset((u, v) for u, v in pairs if u < v and rng.random() < 0.5))
        return rng.choice(GRAPH_FORMATS)(g).splitlines()
    g = graphs.Digraph(n, frozenset(p for p in pairs if rng.random() < 0.3))
    return rng.choice(GRAPH_FORMATS[:3])(g).splitlines()


def random_lines(rng, kind):
    """A valid file of the kind, then up to three line edits."""
    lines = random_graph_lines(rng) if kind == "graph" else list(VALID[kind])
    for _ in range(rng.choice([0, 0, 1, 2, 3])):
        roll = rng.random()
        if roll < 0.6:
            line = rng.choice(LINES[kind])
        elif roll < 0.75:
            line = rng.choice(LINES[rng.choice(sorted(LINES))])
        elif roll < 0.88:
            line = "".join(rng.choice(JUNK) for _ in range(rng.randint(0, 6)))
        else:
            line = rng.choice(["", "  ", "# note", "  # indented"])
        line = " " * rng.randint(0, 2) + line
        at = rng.randrange(len(lines) + 1)
        edit = rng.randrange(3)
        if edit == 0 or at == len(lines):
            lines.insert(at, line)
        elif edit == 1:
            lines[at] = line
        else:
            del lines[at]
    return lines


def codon_table(rng):
    lines = genetics.standard_table().to_text().splitlines()
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(len(lines))
        lines[i] = rng.choice([lines[i].replace("M", "V"), lines[i].upper(), "", "# c",
                               lines[i] + " extra", lines[i].replace("STOP", "W"),
                               lines[i - 1]])
    return lines


def random_command(rng, write):
    def file(kind):
        if rng.random() < 0.02:
            return "missing.txt"
        lines = codon_table(rng) if kind == "codons" else random_lines(rng, kind)
        return write("\n".join(lines) + rng.choice(["", "\n"]))

    def small(lo, hi):
        return str(rng.randint(lo, hi))

    def maybe(*args):
        return list(args) if rng.random() < 0.5 else []

    def word(alphabet, most):
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, most)))

    def member_word():
        # Now and then a long near-member of the valid grammar, a^n b c^m.
        if rng.random() < 0.05:
            return "a" * rng.randint(300, 600) + "b" + "c" * rng.randint(1, 300)
        return word("abcx", 8)

    def probability():
        return f"{rng.uniform(-0.3, 1.3):.2f}"

    names = ["a", "b", "c", "d", "e", "zz"]
    commands = [
        lambda: ["system", "classify", file("fixture")],
        lambda: ["system", "verify", file("fixture")] + maybe("--alg", rng.choice("mnz")),
        lambda: ["grammar", "check", file("grammar"), member_word()],
        lambda: ["grammar", "gen", file("grammar"), "--max-len", small(-2, 5)],
        lambda: ["translate", file("seqs")] + maybe("--table", file("codons"))
        + maybe("--frame"),
        lambda: ["motif", "match", word("ag{,}x(12) ", 8), file("seqs")] + maybe("--anchored"),
        lambda: ["motif", "derive", file("seqs"), "--class-cap", small(-1, 4)],
        lambda: ["graph", "convert", file("graph"), "--to",
                 rng.choice(["edges", "adjlist", "matrix", "g6", "dot"])],
        lambda: ["graph", "iso", file("graph"), file("graph")],
        lambda: ["graph", "sub", file("graph"), file("graph")],
        lambda: ["graph", "motifs", file("graph"), "-k", rng.choice("345"),
                 "--significance", small(-1, 2), "--seed", small(0, 9)],
        lambda: ["automaton", "graph", file("automaton")],
        lambda: ["percolate", "-n", small(-2, 12), "--p-from", probability(),
                 "--p-to", probability(), "--steps", small(-1, 4), "--trials", small(-1, 3),
                 "--seed", small(0, 9)],
        lambda: ["tree", "query", file("kinship"), rng.choice(RELATIONS + ("is_cousin_of",)),
                 rng.choice(names), rng.choice(names)],
        lambda: ["tree", "descendants", file("kinship"), rng.choice(names)],
        lambda: ["complexity", file(rng.choice(["graph", "seqs"]))] + maybe("--canonical"),
        lambda: ["lzw", "compress", file("text"), "--alphabet", rng.choice(["ab", "abc", "aa"])],
        lambda: ["lzw", "decompress", file("codes"), "--alphabet", rng.choice(["ab", "abc", ""])],
    ]
    args = rng.choice(commands)()
    if rng.random() < 0.02:
        args.insert(rng.randrange(len(args) + 1), "--bogus")
    return args


def run_keeping_the_contract(tmp_path, commands):
    """Run every command that ``commands(write)`` yields, checking each; return the exit codes."""
    runner = CliRunner()
    counter = itertools.count()

    def write(text):
        path = tmp_path / f"f{next(counter)}.txt"
        path.write_text(text)
        return str(path)

    writes, echo = [], click.echo

    def record(*args, **kwargs):
        writes.append(args)
        echo(*args, **kwargs)

    exits = set()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(click, "echo", record)
        for args in commands(write):
            writes.clear()
            result = runner.invoke(cli, args)
            assert result.exception is None or isinstance(result.exception, SystemExit), \
                (args, result.exception)
            assert result.exit_code in (0, 1, 2), args
            assert len(writes) <= 1, args
            if result.exit_code != 0:
                assert result.stdout == "", args
            exits.add(result.exit_code)
    return exits


def test_random_inputs_keep_the_contract(tmp_path):
    rng = random.Random(8)
    exits = run_keeping_the_contract(
        tmp_path, lambda write: (random_command(rng, write) for _ in range(2000)))
    assert exits == {0, 1, 2}


# Words at number positions: digits int() reads but the package refuses, blank
# padding that splits away in a file and is refused in an argument, a run too
# long for int(), and plain numbers.
NUMBER_WORDS = ["٣", "²", "1_0", "+1", "\xa03", "3\xa0", "\u20283", "3\u2028", "1" * 5000,
                "2", "-1"]


def number_commands(write):
    """Every number position of a file or an argument word, filled with each NUMBER_WORDS word."""
    percolate = ["percolate", "-n", "4", "--p-from", "0.2", "--p-to", "0.6", "--steps", "2",
                 "--trials", "1", "--seed", "1"]
    for w in NUMBER_WORDS:
        yield ["graph", "convert", write(f"graph {w}\n0 1\n"), "--to", "edges"]
        yield ["graph", "convert", write(f"matrix {w}\n01\n10\n"), "--to", "g6"]
        yield ["graph", "convert", write(f"graph 3\n0 {w}\n"), "--to", "adjlist"]
        yield ["graph", "sub", write(f"adjlist 2\n{w}: 1\n1: 0\n"), write("graph 3\n0 1\n")]
        yield ["graph", "iso", write(f"dadjlist 3\n0: 1 {w}\n"), write("digraph 3\n0 1\n0 2\n")]
        yield ["system", "classify", write(f"OBJECTS\na\nRELATION r/{w}\na\n")]
        yield ["lzw", "decompress", write(f"0 {w} 1\n"), "--alphabet", "ab"]
        yield ["motif", "match", f"a x({w}) b", write("AxB\nab\n")]
        yield ["grammar", "gen", write("<s> -> a | a <s>\n"), "--max-len", w]
        yield ["motif", "derive", write("AB\nAC\n"), "--class-cap", w]
        yield ["graph", "motifs", write("graph 3\n0 1\n1 2\n"), "--significance", "1",
               "--seed", w]
        for i in (2, 4, 6, 8, 10, 12):
            yield percolate[:i] + [w] + percolate[i + 1:]


def test_number_positions_keep_the_contract(tmp_path):
    assert run_keeping_the_contract(tmp_path, number_commands) == {0, 1, 2}


@pytest.mark.parametrize("option", ["--p-from", "--p-to"])
@pytest.mark.parametrize("word", ["١", "٠.٥", "1_0", "inf", "nan", "-inf", "1e-1", "+0.5",
                                  "0.5\xa0", "0..5", ".", "-", "1" * 400])
def test_probability_words_are_refused(option, word):
    args = {"--p-from": "0.2", "--p-to": "0.6", option: word}
    result = CliRunner().invoke(cli, ["percolate", "-n", "4", "--p-from", args["--p-from"],
                                      "--p-to", args["--p-to"], "--steps", "2", "--trials", "1"],
                                prog_name="observe")
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == (
        "Usage: observe percolate [OPTIONS]\n"
        "Try 'observe percolate --help' for help.\n\n"
        f"Error: Invalid value for '{option}': {word!r} is not a valid float.\n")
