"""The result records: how each prints, compares and refuses assignment.

Each record is made by the library call that returns it, twice, so the
equality checked is that of two separately built values.  Every set in a
pinned ``repr`` has at most one member, so the text does not depend on the
hash seed.
"""

import pytest

from observement import complexity, core, graphs, motifs, strings

FIXTURE = "OBJECTS\na\nRELATION r/1\na\nOBSERVATIONS\nx\nRELATION p/1\nx\nMAP id\na x\nPAIR\nr p\n"
TRIANGLE = "graph 3\n0 1\n1 2\n0 2\n"

# (record, a call that makes one, its repr, a field to assign)
RECORDS = [
    ("LzwOutput", lambda: complexity.lzw_compress("abab", "ab"),
     "LzwOutput(dictionary=('ab', 'ba'), codes=(0, 1, 2))", "codes"),
    ("ComplexityReport", lambda: complexity.relative_complexity("abab"),
     "ComplexityReport(total=4, primary_order=4, secondary_order=3)", "total"),
    ("HomomorphismReport",
     lambda: core.HomomorphismReport((core.Counterexample("r", ("a", "b"), "forward"),)),
     "HomomorphismReport(counterexamples=(Counterexample(relation='r', members=('a', 'b'), "
     "direction='forward'),))", "counterexamples"),
    ("TranslationWitness", lambda: core.TranslationWitness({"x": "y"}),
     "TranslationWitness(mapping={'x': 'y'})", "mapping"),
    ("SystemFixture", lambda: core.parse_system_file(FIXTURE),
     "SystemFixture(system=ObjectSystem(objects=frozenset({'a'}), relations={'r': "
     "frozenset({('a',)})}, arities={'r': 1}), observations=ObservationSystem(observations="
     "frozenset({'x'}), relations={'p': frozenset({('x',)})}, arities={'p': 1}), algorithms="
     "(ObservationAlgorithm(name='id', mapping={'a': 'x'}, relation_pairing={'r': 'p'}),))",
     "algorithms"),
    ("MotifCensus", lambda: motifs.count_network_motifs(graphs.parse_graph_text(TRIANGLE), 3),
     "MotifCensus(k=3, counts={'Bw': 1}, background=None)", "background"),
    ("Grammar", lambda: strings.parse_grammar("<S> -> a+ <S> | a\n"),
     "Grammar(terminals=frozenset({'a'}), rules={'S': ((('a',), 'S'), ('a',))}, start='S')",
     "start"),
]


@pytest.mark.parametrize("make, shown, field", [r[1:] for r in RECORDS],
                         ids=[r[0] for r in RECORDS])
def test_record_prints_compares_and_stays_frozen(make, shown, field):
    record, again = make(), make()
    assert repr(record) == shown
    assert record == again and record is not again
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(again, field))


@pytest.mark.parametrize("make, fields", [
    (RECORDS[0][1], ("dictionary", "codes")),
    (RECORDS[1][1], ("total", "primary_order", "secondary_order")),
    (RECORDS[2][1], ("counterexamples",)),
], ids=[r[0] for r in RECORDS[:3]])
def test_record_hashes_the_tuple_of_its_fields(make, fields):
    record = make()
    assert hash(record) == hash(tuple(getattr(record, name) for name in fields))
