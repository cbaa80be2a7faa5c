import pytest

from observement import core, familytree, genetics, graphs, strings
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
