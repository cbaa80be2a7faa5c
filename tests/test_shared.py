import random
import re
import sys

import pytest

from observement import core, familytree, genetics, graphs, strings
from observement._shared import one_break, significant_lines
from observement.cli import _looks_like_graph
from observement.errors import ObservementError

# Blank, whitespace-only and indented comment lines: each is skipped but counted.
NOISE = "\n   \n  # indented comment\n\t#tab-indented comment\n"

# Per line format: its parser, the lines before the noise, and a bad line.
FORMATS = {
    "fixture": (core.parse_system_file, "OBJECTS\na b\n", "RELATION r"),
    "grammar": (strings.parse_grammar, "<a> -> x\n", "  <b -> y"),
    "codon table": (genetics.CodonTable.from_text, "aaa\tK\n", "aac N extra"),
    "graph text": (graphs.parse_graph_text, "# header next\ngraph 3\n0 1\n", "1 2 0"),
    "automaton": (graphs.parse_automaton_file, "a -> b\n", "b c"),
    "kinship": (familytree.parse_kinship_file, "a -> b\n", "what is this"),
}


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_error_names_the_true_line_after_blank_and_comment_lines(name):
    parse, before, bad = FORMATS[name]
    text = before + NOISE + bad + "\n"
    lineno = text.count("\n")
    with pytest.raises(ObservementError, match=rf"^line {lineno}[:,]"):
        parse(text)


# Text pieces: comment starts, words, blanks, and every ``str.splitlines`` break.
PIECES = ["#", "# c", "graph", "3", "x#", "Bw", "", " ", "\t", "\xa0", "\u3000", "\x1f",
          "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
          "\u2029"]


def test_first_word_is_the_first_word_of_the_first_significant_line():
    # The header word that the graph reader and ``complexity``'s format check read.
    rng = random.Random(3)
    for _ in range(20000):
        text = "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 8)))
        lines = significant_lines(text)
        head = graphs._HEAD.search(one_break(text))
        word = lines[0][1].split()[0] if lines else ""
        assert (head[1] if head else "") == word, repr(text)
        assert _looks_like_graph(text) == (word in graphs._READERS), repr(text)


def test_breaks_and_blanks_are_where_splitlines_and_split_part():
    # Respelled, the text has a "\n" exactly where ``str.splitlines`` breaks,
    # and the graph readers' blank matches exactly the other whitespace.
    every = "".join(map(chr, range(sys.maxunicode + 1)))  # no "\r\n" pair in it
    respelled = one_break(every)
    assert respelled.split("\n") == every.splitlines()
    blanks = "".join(ch for ch in every if ch.isspace() and len(f"a{ch}b".splitlines()) == 1)
    assert "".join(re.findall(graphs._B, respelled)) == blanks
    plain = "a\nb\n"
    assert one_break(plain) is plain
    assert one_break("a\r\nb\r\n") == "a\nb"
