"""The ``observe`` command line tool.

One subcommand per subsystem operation, all reading and writing line-oriented
plain text.  Exit codes: 0 on success, 1 on a domain error (bad file content,
violated invariants, missing files), 2 on a usage error.  Randomized commands
take ``--seed`` and fall back to the OBSERVE_SEED environment variable, so
every run is reproducible.
"""

from __future__ import annotations

import click

from . import __version__
from ._shared import ascii_decimal, ascii_int, ascii_ints
from .errors import ObservementError


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise click.ClickException(str(exc)) from exc
    except UnicodeDecodeError as exc:
        # read() decodes the whole file at once, so start is a file offset.
        raise click.ClickException(
            f"{path}: not valid UTF-8 at byte offset {exc.start}") from exc


class _Number(click.ParamType):
    """A click number type read by ``ascii_int`` or ``ascii_decimal``, which refuse
    the '١', '1_0', '+1', 'inf' and 'nan' that ``int`` and ``float`` take."""

    def __init__(self, name, read):
        self.name, self._read = name, read

    def convert(self, value, param, ctx):
        try:
            return self._read(str(value))
        except ValueError:
            self.fail(f"{value!r} is not a valid {self.name}.", param, ctx)


_INTEGER, _DECIMAL = _Number("integer", ascii_int), _Number("float", ascii_decimal)

_seed_option = click.option(
    "--seed", type=_INTEGER, default=0, show_default=True, envvar="OBSERVE_SEED",
    help="Random seed (or set OBSERVE_SEED).",
)


class _Observe(click.Group):
    """The root group: a domain error from any subcommand exits 1 with one line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ObservementError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Observe)
@click.version_option(version=__version__, prog_name="observe")
def cli():
    """Work with observement systems: grammars, genes, motifs, graphs, kinship."""


def main():
    cli()


def _echo_lines(lines):
    """Write each line and its newline in one write; nothing when there are no lines."""
    if lines:
        click.echo("\n".join(lines))


# --- observement systems ------------------------------------------------------


@cli.group()
def system():
    """Check observement-system fixture files."""


@system.command("classify")
@click.argument("fixture_file")
def system_classify(fixture_file):
    """Print Strong, Weak, or NotObservement for a fixture file."""
    from . import core
    fixture = core.parse_system_file(_read(fixture_file))
    shared = [fixture.observations] * len(fixture.algorithms)
    verdict = core.classify(fixture.system, shared, list(fixture.algorithms))
    click.echo(verdict.value)


@system.command("verify")
@click.argument("fixture_file")
@click.option("--alg", "algorithm_name", default=None, help="Check one algorithm only.")
def system_verify(fixture_file, algorithm_name):
    """Run the representation check for each algorithm in a fixture file."""
    from . import core
    fixture = core.parse_system_file(_read(fixture_file))
    if not fixture.algorithms:
        raise click.ClickException("no algorithms in fixture")
    selected = [
        a for a in fixture.algorithms
        if algorithm_name is None or a.name == algorithm_name
    ]
    if not selected:
        raise click.ClickException(f"no algorithm named {algorithm_name!r} in fixture")
    # Every algorithm is checked before the one write, so a malformed one
    # leaves stdout empty.
    lines = []
    for algorithm in selected:
        report = core.verify_representation(fixture.system, fixture.observations, algorithm)
        if report.holds:
            lines.append(f"{algorithm.name}: holds")
        else:
            lines.append(f"{algorithm.name}: fails ({len(report.counterexamples)} counterexamples)")
            lines += [f"  {ce}" for ce in report.counterexamples]
    _echo_lines(lines)


# --- grammars -------------------------------------------------------------------


@cli.group()
def grammar():
    """Parse grammars, test membership, generate strings."""


@grammar.command("check")
@click.argument("grammar_file")
@click.argument("string")
def grammar_check(grammar_file, string):
    """Print true/false: is STRING derivable in the grammar?"""
    from . import strings
    g = strings.parse_grammar(_read(grammar_file))
    click.echo("true" if strings.membership(g, string) else "false")


@grammar.command("gen")
@click.argument("grammar_file")
@click.option("--max-len", type=_INTEGER, required=True, help="Largest string length to derive.")
def grammar_gen(grammar_file, max_len):
    """Print every derivable string up to MAX_LEN, shortest first."""
    from . import strings
    g = strings.parse_grammar(_read(grammar_file))
    _echo_lines(strings.generate(g, max_len))


# --- genetics -------------------------------------------------------------------


@cli.command("translate")
@click.argument("seq_file")
@click.option("--table", "table_file", default=None, help="Codon table file (default: standard code).")
@click.option("--frame", is_flag=True, help="Raw frame translation, no gene checks.")
def translate(seq_file, table_file, frame):
    """Translate each DNA record of SEQ_FILE to its protein string."""
    from . import genetics
    table = genetics.CodonTable.from_text(_read(table_file)) if table_file else None
    records = genetics.read_sequence_records(_read(seq_file))
    if not records:
        raise click.ClickException("no sequence records in file")
    if frame:
        proteins = ["".join(genetics.translate_frame(dna, table)) for _, dna in records]
    else:
        proteins = [genetics.translate_gene(dna, table) for _, dna in records]
    _echo_lines(proteins)


# --- motifs ---------------------------------------------------------------------


def _read_sequences(path: str) -> list:
    text = _read(path)
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if any(line.startswith(">") for line in lines):
        from . import genetics
        return genetics.read_sequence_records(text)
    # Headerless: each nonempty line is its own sequence.
    return [(str(i), line) for i, line in enumerate(lines)]


@cli.group()
def motif():
    """Match and derive string motif patterns."""


@motif.command("match")
@click.argument("pattern")
@click.argument("seq_file")
@click.option("--anchored", is_flag=True, help="Match at offset 0 only.")
def motif_match(pattern, seq_file, anchored):
    """Print match offsets of PATTERN in each sequence of SEQ_FILE."""
    from . import motifs
    parsed = motifs.parse_motif(pattern)
    lines = []
    for name, sequence in _read_sequences(seq_file):
        offsets = motifs.match_motif(parsed, sequence, anchored=anchored)
        lines.append(f"{name}\t{' '.join(map(str, offsets))}")
    _echo_lines(lines)


@motif.command("derive")
@click.argument("seqs_file")
@click.option("--class-cap", type=_INTEGER, required=True,
              help="Largest symbol class before a column becomes a wildcard.")
def motif_derive(seqs_file, class_cap):
    """Print the motif shared by the equal-length sequences in SEQS_FILE."""
    from . import motifs
    sequences = [sequence for _, sequence in _read_sequences(seqs_file)]
    click.echo(motifs.format_motif(motifs.derive_motif(sequences, class_cap)))


# --- graphs ---------------------------------------------------------------------


@cli.group()
def graph():
    """Convert, compare, and census graphs."""


@graph.command("convert")
@click.argument("graph_file")
@click.option("--to", "target", required=True,
              type=click.Choice(["edges", "adjlist", "matrix", "g6"]))
def graph_convert(graph_file, target):
    """Re-express a graph file as edges, adjlist, matrix, or g6 text."""
    from . import graphs
    g = graphs.parse_graph_text(_read(graph_file))
    formatters = {
        "edges": graphs.format_graph_file,
        "adjlist": graphs.format_adjacency_text,
        "matrix": graphs.format_matrix_text,
        "g6": lambda g: graphs.encode_graph6(g) + "\n",
    }
    click.echo(formatters[target](g), nl=False)


def _echo_mapping(mapping):
    _echo_lines(["none"] if mapping is None else [f"{v} {mapping[v]}" for v in sorted(mapping)])


@graph.command("iso")
@click.argument("file_a")
@click.argument("file_b")
def graph_iso(file_a, file_b):
    """Print a vertex bijection between two graphs, or 'none'."""
    from . import graphs
    g1 = graphs.parse_graph_text(_read(file_a))
    g2 = graphs.parse_graph_text(_read(file_b))
    _echo_mapping(graphs.are_isomorphic(g1, g2))


@graph.command("sub")
@click.argument("small_file")
@click.argument("big_file")
def graph_sub(small_file, big_file):
    """Print an embedding of the first graph into the second, or 'none'."""
    from . import graphs
    small = graphs.parse_graph_text(_read(small_file))
    big = graphs.parse_graph_text(_read(big_file))
    _echo_mapping(graphs.is_subgraph(small, big))


@graph.command("motifs")
@click.argument("graph_file")
@click.option("-k", type=click.Choice(["3", "4"]), default="3", show_default=True)
@click.option("--significance", type=_INTEGER, default=0, show_default=True,
              help="Number of rewired null-model samples (0 = none).")
@_seed_option
def graph_motifs(graph_file, k, significance, seed):
    """Print the k-vertex motif census as TSV: id, count, background."""
    from . import graphs, motifs
    g = graphs.parse_graph_text(_read(graph_file))
    census = motifs.motif_significance(g, int(k), significance, seed)
    lines = []
    for identifier in sorted(census.counts):
        background = "NA"
        if census.background is not None:
            background = f"{census.background.get(identifier, 0.0):.6f}"
        lines.append(f"{identifier}\t{census.counts[identifier]}\t{background}")
    _echo_lines(lines)


@cli.group()
def automaton():
    """Work with finite automata."""


@automaton.command("graph")
@click.argument("automaton_file")
def automaton_graph(automaton_file):
    """Print the state-space digraph of an automaton file."""
    from . import graphs
    machine = graphs.parse_automaton_file(_read(automaton_file))
    graph = graphs.format_graph_file(graphs.state_space_graph(machine))
    order = enumerate(graphs.state_order(machine))
    click.echo("".join(f"# {index} {state}\n" for index, state in order) + graph, nl=False)


@cli.command("percolate")
@click.option("-n", "n", type=_INTEGER, required=True, help="Vertex count.")
@click.option("--p-from", type=_DECIMAL, required=True)
@click.option("--p-to", type=_DECIMAL, required=True)
@click.option("--steps", type=_INTEGER, required=True, help="Number of probe points.")
@click.option("--trials", type=_INTEGER, required=True, help="Random graphs per probe point.")
@_seed_option
def percolate(n, p_from, p_to, steps, trials, seed):
    """Print CSV of mean largest-component fraction across edge probabilities."""
    from . import graphs
    if steps < 1:
        raise click.ClickException("--steps must be >= 1")
    # Each endpoint in use is checked before any point is interpolated between
    # them, so the refusal names the value the user gave.
    for p in (p_from, p_to) if steps > 1 else (p_from,):
        if not 0 <= p <= 1:
            raise click.ClickException(f"edge probability must be in [0,1], got {p}")
    if steps == 1:
        p_values = [p_from]
    else:
        # The last point is --p-to itself: p_from plus the span can round past it.
        p_values = [p_from + i * (p_to - p_from) / (steps - 1) for i in range(steps - 1)]
        p_values.append(p_to)
    rows = graphs.percolation_sweep(n, p_values, trials, seed)
    _echo_lines(["p,mean_fraction"] + [f"{p:.6g},{fraction:.6f}" for p, fraction in rows])


# --- family trees ----------------------------------------------------------------


@cli.group()
def tree():
    """Query kinship files."""


@tree.command("query")
@click.argument("kinship_file")
@click.argument("relation")
@click.argument("u")
@click.argument("v")
def tree_query(kinship_file, relation, u, v):
    """Print true/false for one of the six kinship relations."""
    from . import familytree
    g = familytree.parse_kinship_file(_read(kinship_file))
    click.echo("true" if familytree.query(g, relation, u, v) else "false")


@tree.command("descendants")
@click.argument("kinship_file")
@click.argument("person")
def tree_descendants(kinship_file, person):
    """Print every descendant of PERSON, one per line."""
    from . import familytree
    g = familytree.parse_kinship_file(_read(kinship_file))
    _echo_lines(sorted(familytree.descendants(g, person)))


# --- complexity -------------------------------------------------------------------


def _looks_like_graph(text: str) -> bool:
    """Whether the header word that ``parse_graph_text`` reads is a graph keyword."""
    from . import graphs
    head = graphs._HEAD.search(text)
    return bool(head) and head[1] in graphs._READERS


@cli.command("complexity")
@click.argument("input_file")
@click.option("--canonical", is_flag=True,
              help="Minimize the graph code over vertex permutations first.")
def complexity_command(input_file, canonical):
    """Print TSV 'total primary secondary' for a graph file or a sequence file."""
    from . import complexity, graphs
    text = _read(input_file)
    if _looks_like_graph(text):
        value = graphs.parse_graph_text(text)
        if not isinstance(value, graphs.Graph):
            raise click.ClickException("complexity is defined for undirected graph files")
        report = complexity.relative_complexity(value, canonical=canonical)
    else:
        from . import genetics
        records = genetics.read_sequence_records(text)
        if not records:
            raise click.ClickException("no sequence records in file")
        report = complexity.relative_complexity("".join(seq for _, seq in records))
    click.echo(f"{report.total}\t{report.primary_order}\t{report.secondary_order}")


@cli.group()
def lzw():
    """Dictionary compression of symbol strings."""


@lzw.command("compress")
@click.argument("input_file")
@click.option("--alphabet", required=True, help="Dictionary seed symbols, in order.")
def lzw_compress_command(input_file, alphabet):
    """Print the LZW code stream of the file's text (one line, space-separated)."""
    from . import complexity
    text = _read(input_file).rstrip("\n")
    output = complexity.lzw_compress(text, alphabet)
    click.echo(" ".join(map(str, output.codes)))


@lzw.command("decompress")
@click.argument("input_file")
@click.option("--alphabet", required=True, help="Dictionary seed symbols, in order.")
def lzw_decompress_command(input_file, alphabet):
    """Print the string for a whitespace-separated code stream file."""
    from . import complexity
    try:
        codes = ascii_ints(_read(input_file).split())  # a negative one is out of range below
    except ValueError as exc:
        (bad,) = exc.args
        digits = bad.removeprefix("-")
        # A well-formed code longer than int() converts is named by its size.
        well_formed = digits.isdigit() and digits.isascii()
        what = f"code of {len(digits)} digits" if well_formed else repr(bad)
        raise click.ClickException(f"bad code in input: {what}") from None
    click.echo(complexity.lzw_decompress(codes, alphabet))
