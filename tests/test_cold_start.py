"""A fresh ``observe`` process imports only the subsystem its subcommand runs.

Each case starts a new interpreter and lists the ``observement`` modules in
``sys.modules`` at exit.  A module-level import of a subsystem in ``cli.py``,
or a re-export in the package root, would show up here as an extra module.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import observement
from observement import genetics

SRC = str(Path(observement.__file__).resolve().parents[1])

# Prints the loaded package modules, space-separated, as the process exits.
PROBE = (f"import atexit, sys; sys.path.insert(0, {SRC!r}); atexit.register(lambda: print("
         "' '.join(sorted(m for m in sys.modules if m.partition('.')[0] == 'observement'))))")
CLI = "observement", "observement._shared", "observement.cli", "observement.errors"


def loaded_modules(program, *args):
    done = subprocess.run([sys.executable, "-c", f"{PROBE}; {program}", *args],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout, set(done.stdout.splitlines()[-1].split())


def test_translate_loads_genetics_only(tmp_path):
    gene = tmp_path / "gene.fa"
    gene.write_text(">g\natgaaatag\n")
    stdout, loaded = loaded_modules(
        "sys.argv = ['observe', 'translate', sys.argv[1]]; "
        "from observement.cli import main; main()", str(gene))
    assert stdout.splitlines()[0] == "MK"
    expected = {*CLI, "observement.genetics"}
    assert loaded == expected, f"extra: {sorted(loaded - expected)}"


def test_system_classify_loads_core_only(tmp_path):
    fixture = tmp_path / "id.obs"
    fixture.write_text("OBJECTS\na b\nRELATION r/2\na b\n# note\n\nOBSERVATIONS\nx y\n"
                       "RELATION p/2\nx y\nMAP id\na x\nb y\nPAIR\nr p\n")
    stdout, loaded = loaded_modules(
        "sys.argv = ['observe', 'system', 'classify', sys.argv[1]]; "
        "from observement.cli import main; main()", str(fixture))
    assert stdout.splitlines()[0] == "Strong"
    expected = {*CLI, "observement.core"}
    assert loaded == expected, f"extra: {sorted(loaded - expected)}"


def test_graph_convert_loads_graphs_only(tmp_path):
    graph = tmp_path / "p3.g"
    graph.write_text("graph 3\n0 1\n1 2\n")
    stdout, loaded = loaded_modules(
        "sys.argv = ['observe', 'graph', 'convert', sys.argv[1], '--to', 'adjlist']; "
        "from observement.cli import main; main()", str(graph))
    assert stdout.splitlines()[:4] == ["adjlist 3", "0: 1", "1: 0 2", "2: 1"]
    expected = {*CLI, "observement.graphs"}
    assert loaded == expected, f"extra: {sorted(loaded - expected)}"


def test_graph_motifs_loads_graphs_and_motifs(tmp_path):
    graph = tmp_path / "k3.g"
    graph.write_text("adjlist 3\n0: 1 2\n1: 0 2\n2: 0 1\n")
    stdout, loaded = loaded_modules(
        "sys.argv = ['observe', 'graph', 'motifs', sys.argv[1]]; "
        "from observement.cli import main; main()", str(graph))
    assert stdout.splitlines()[0] == "Bw\t1\tNA"  # one triangle, by its graph6 code
    expected = {*CLI, "observement.graphs", "observement.motifs"}
    assert loaded == expected, f"extra: {sorted(loaded - expected)}"


def test_version_loads_no_subsystem():
    stdout, loaded = loaded_modules(
        "sys.argv = ['observe', '--version']; from observement.cli import main; main()")
    assert stdout.startswith(f"observe, version {observement.__version__}\n")
    assert loaded <= set(CLI), f"extra: {sorted(loaded - set(CLI))}"


def test_package_import_loads_no_submodule():
    _, loaded = loaded_modules("import observement")
    assert loaded == {"observement"}, f"extra: {sorted(loaded - {'observement'})}"


def test_lzw_compress_loads_complexity_only(tmp_path):
    text = tmp_path / "s.txt"
    text.write_text("abab\n")
    stdout, loaded = loaded_modules(
        "sys.argv = ['observe', 'lzw', 'compress', sys.argv[1], '--alphabet', 'ab']; "
        "from observement.cli import main; main()", str(text))
    assert stdout.splitlines()[0] == "0 1 2"
    expected = {*CLI, "observement.complexity"}
    assert loaded == expected, f"extra: {sorted(loaded - expected)}"


def test_motif_match_loads_motifs_and_the_sequence_reader(tmp_path):
    # The record reader is loaded only for a file with a '>' header line.
    sequences = tmp_path / "m.txt"
    for text, name, reader in [("ACGTACGT\n", "0", set()),
                               (">s\nACGTACGT\n", "s", {"observement.genetics"})]:
        sequences.write_text(text)
        stdout, loaded = loaded_modules(
            "sys.argv = ['observe', 'motif', 'match', 'ACG', sys.argv[1]]; "
            "from observement.cli import main; main()", str(sequences))
        assert stdout.splitlines()[0] == f"{name}\t0 4"
        expected = {*CLI, "observement.motifs", *reader}
        assert loaded == expected, f"extra: {sorted(loaded - expected)}"


def test_grammar_check_loads_strings_only(tmp_path):
    grammar = tmp_path / "g.txt"
    grammar.write_text("<S> -> a+\n")
    stdout, loaded = loaded_modules(
        "sys.argv = ['observe', 'grammar', 'check', sys.argv[1], 'aaa']; "
        "from observement.cli import main; main()", str(grammar))
    assert stdout.splitlines()[0] == "true"
    expected = {*CLI, "observement.strings"}
    assert loaded == expected, f"extra: {sorted(loaded - expected)}"


def test_tree_query_loads_familytree_only(tmp_path):
    kinship = tmp_path / "k.txt"
    kinship.write_text("a -> b\n")
    stdout, loaded = loaded_modules(
        "sys.argv = ['observe', 'tree', 'query', sys.argv[1], 'is_parent_of', 'a', 'b']; "
        "from observement.cli import main; main()", str(kinship))
    assert stdout.splitlines()[0] == "true"
    expected = {*CLI, "observement.familytree"}
    assert loaded == expected, f"extra: {sorted(loaded - expected)}"


def test_percolate_loads_graphs_only():
    stdout, loaded = loaded_modules(
        "sys.argv = ['observe', 'percolate', '-n', '4', '--p-from', '1', '--p-to', '1', "
        "'--steps', '1', '--trials', '1']; from observement.cli import main; main()")
    assert stdout.splitlines()[:2] == ["p,mean_fraction", "1,1.000000"]
    expected = {*CLI, "observement.graphs"}
    assert loaded == expected, f"extra: {sorted(loaded - expected)}"


FIXTURE = ("OBJECTS\na b\nRELATION r/2\na b\nOBSERVATIONS\nx y\nRELATION p/2\nx y\n"
           "MAP id\na x\nb y\nPAIR\nr p\n")
P3, P2 = "graph 3\n0 1\n1 2\n", "graph 2\n0 1\n"


@pytest.mark.parametrize("args, files, first, modules", [
    (["system", "verify", "{0}"], [FIXTURE], "id: holds", {"core"}),
    (["grammar", "gen", "{0}", "--max-len", "2"], ["<S> -> a+\n"], "a", {"strings"}),
    (["motif", "derive", "{0}", "--class-cap", "2"], ["ACGT\nACGA\n"], "A C G {A,T}",
     {"motifs"}),
    (["graph", "iso", "{0}", "{1}"], [P3, P3], "0 0", {"graphs"}),
    (["graph", "sub", "{0}", "{1}"], [P2, P3], "0 0", {"graphs"}),
    (["automaton", "graph", "{0}"], ["s0 -> s1\ns1 -> s0\n"], "# 0 s0", {"graphs"}),
    (["tree", "descendants", "{0}", "a"], ["a -> b\n"], "b", {"familytree"}),
    (["lzw", "decompress", "{0}", "--alphabet", "ab"], ["0 1 2\n"], "abab", {"complexity"}),
    (["translate", "{0}", "--table", "{1}"],
     [">g\natgaaatag\n", genetics.standard_table().to_text()], "MK", {"genetics"}),
    (["complexity", "{0}"], [P3], "2\t2\t2", {"complexity", "graphs"}),
    # Telling a sequence file from a graph file reads the graph header pattern.
    (["complexity", "{0}"], [">g\nacgtacgt\n"], "8\t11\t6",
     {"complexity", "genetics", "graphs"}),
], ids=["system-verify", "grammar-gen", "motif-derive", "graph-iso", "graph-sub",
        "automaton-graph", "tree-descendants", "lzw-decompress", "translate-table",
        "complexity-graph", "complexity-sequence"])
def test_command_loads_only_its_subsystems(tmp_path, args, files, first, modules):
    paths = []
    for index, text in enumerate(files):
        path = tmp_path / f"in{index}.txt"
        path.write_text(text)
        paths.append(str(path))
    stdout, loaded = loaded_modules(
        "sys.argv = ['observe', *sys.argv[1:]]; from observement.cli import main; main()",
        *(arg.format(*paths) for arg in args))
    assert stdout.splitlines()[0] == first
    expected = {*CLI, *(f"observement.{module}" for module in modules)}
    assert loaded == expected, f"extra: {sorted(loaded - expected)}"
