"""The kinship reader's one loop and the one validity walk, checked against
the line-by-line reader and the sorted checks they replace.

The references below are those earlier implementations, kept as test
oracles: the line reader splits each line's words with ``shlex.split`` and
builds operations, the operations build the fields, and the fields are
checked in sorted order.
"""

import functools
import random
import shlex
import sys
import time
from pathlib import Path

from test_cli_contract import LINES

from observement import familytree as ft
from observement._shared import first_cycle, significant_lines
from observement.familytree import KinshipError, KinshipGraph

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
try:
    from workloads import _family, _kin_text
finally:
    sys.path.pop(0)


def reference_fields(persons, arcs, partners, labels):
    """The normalised fields, or KinshipError for the first fault in sorted order."""
    persons = frozenset(persons)
    arcs = frozenset(tuple(a) for a in arcs)
    partners = frozenset(frozenset(e) for e in partners)
    labels = dict(labels)
    ordered = sorted(arcs)
    for parent, child in ordered:
        if parent not in persons or child not in persons:
            raise KinshipError(f"arc ({parent},{child}) references an unknown person")
        if parent == child:
            raise KinshipError(f"{parent!r} cannot be their own parent")
    for pair in sorted(tuple(sorted(edge)) for edge in partners):
        spelled = "{" + ", ".join(map(repr, pair)) + "}"
        if len(pair) != 2:
            raise KinshipError(f"partner edge {spelled} must join two distinct persons")
        if not persons.issuperset(pair):
            raise KinshipError(f"partner edge {spelled} references an unknown person")
        if pair in arcs or pair[::-1] in arcs:
            raise KinshipError(f"{spelled} cannot be both partners and parent/child")
    for person in labels:
        if person not in persons:
            raise KinshipError(f"label for unknown person {person!r}")
    parent_count = {}
    for _, child in ordered:
        parent_count[child] = parent_count.get(child, 0) + 1
        if parent_count[child] > 2:
            raise KinshipError(f"{child!r} has more than two parents")
    children = {}
    for parent, child in arcs:
        children.setdefault(parent, set()).add(child)
    cycle = first_cycle(children)
    if cycle:
        raise KinshipError("parent arcs form a cycle: " + " -> ".join(cycle))
    return persons, arcs, partners, labels


def reference_build(operations):
    persons, labels, arcs, partners = set(), {}, set(), set()
    for op in operations:
        if op[0] == "person":  # declared once: reference_parse refuses a second declaration
            persons.add(op[1])
            if op[2] is not None:
                labels[op[1]] = op[2]
        elif op[0] == "arc":
            if op[1:] in arcs:
                raise KinshipError(f"duplicate arc ({op[1]},{op[2]})")
            arcs.add(op[1:])
        else:
            if frozenset(op[1:]) in partners:
                raise KinshipError(f"duplicate partner edge {{{op[1]},{op[2]}}}")
            partners.add(frozenset(op[1:]))
    return reference_fields(persons, arcs, partners, labels)


def reference_parse(text):
    """The line-by-line reader: the fields of the file, or KinshipError."""
    operations, declared = [], set()

    def ensure(name):
        if name not in declared:
            declared.add(name)
            operations.append(("person", name, None))

    for lineno, line in significant_lines(text):
        try:
            tokens = shlex.split(line)
        except ValueError as exc:
            raise KinshipError(f"line {lineno}: {exc}") from None
        # Only the unquoted keyword declares, so '"person" -> b' is an arc.
        if ft._WORDS.match(line)[0] == "person":
            if len(tokens) not in (2, 3):
                raise KinshipError(f"line {lineno}: expected 'person NAME [\"label\"]'")
            if tokens[1] in declared:
                raise KinshipError(f"line {lineno}: person {tokens[1]!r} declared twice")
            declared.add(tokens[1])
            operations.append(("person", tokens[1], tokens[2] if len(tokens) == 3 else None))
        elif len(tokens) == 3 and tokens[1] in ("->", "<->"):
            ensure(tokens[0])
            ensure(tokens[2])
            operations.append(("arc" if tokens[1] == "->" else "partner", tokens[0], tokens[2]))
        else:
            raise KinshipError(f"line {lineno}: expected a person, '->', or '<->' line")
    try:
        return reference_build(operations)
    except KinshipError as exc:
        raise KinshipError(f"kinship file invalid: {exc}") from exc


def scanned(text):
    """Whether the one scan of ``text`` takes every line itself, so that no row
    falls to the catch-all group and no line is split into words again."""
    return not any(row[-1] for row in ft._LINE.findall("\n".join(text.splitlines())))


def outcome(make, *args):
    """The four fields that ``make(*args)`` gives, or the text of its KinshipError."""
    try:
        result = make(*args)
    except KinshipError as exc:
        return str(exc)
    if isinstance(result, KinshipGraph):
        return result.persons, result.parent_arcs, result.partner_edges, result.labels
    return result


def count_fault_walks(monkeypatch):
    """A list that gains one entry per ``KinshipGraph._fault`` call."""
    calls, fault = [], KinshipGraph._fault

    def counted(*args):
        calls.append(args)
        return fault(*args)

    monkeypatch.setattr(KinshipGraph, "_fault", counted)
    return calls


def walks(found):
    """The ``_fault`` calls an outcome takes: one for a valid graph, two for a
    fault the constructor names, none for one the reader names first."""
    if not isinstance(found, str):
        return 1
    return 0 if kind(found) in ("line", "declared twice", "duplicate") else 2


def kind(found):
    """A name for an outcome, to check that the fuzz reaches every branch."""
    if not isinstance(found, str):
        return "valid"
    for key in ("declared twice", "line", "duplicate", "own parent", "two distinct",
                "label for", "unknown person", "both partners", "two parents", "cycle"):
        if key in found:
            return key
    return found


# Words that shell splitting reads with care: blanks of several kinds, empty,
# glued and unclosed quotes, escapes inside and outside quotes, a trailing
# escape, and a line break inside a word.
SPLIT_CASES = [
    "", "a", "  a \tb\r\nc  ", "a\xa0b c\x1fd e\u3000f g\x00h", '""', "''", '"" x',
    'a"b c"d', "a'b c'd", 'x"\\"y', '"a\\"b"', '"\\x"', "'\\x'", "a\\ b", "\\\\",
    '"\\$"', '"open', "'open", '"a\\', "\\", '"a\\\\', '"\\"', "a\\\n", "#c -> d",
]
EXTRA_LINES = ['person a ""', "person a Ann", 'person b "B b"', "a#b -> c", "#a -> b",
               "x -> a#b", "person #x", "a <-> a", "person\t-> b", "a -> b -> c", "b <-> a",
               "g -> a", "h -> a", "person a", "a -> e", "e -> a", "b -> a",
               'person ""', '"" -> a', '"" <-> ""']
EXTRA_LINES += [f"person {case}" for case in SPLIT_CASES]
EXTRA_LINES += [f"{case} -> a" for case in SPLIT_CASES]
PADDING = ["", "", "", " ", "\t", "\xa0", "\u3000"]
BREAKS = ["\n", "\n", "\n", "\r\n", "\x0b", " "]


def line_text(rng):
    """Up to ten lines drawn from the contract loop's kinship lines and a few more."""
    pool = LINES["kinship"] + EXTRA_LINES
    lines = [rng.choice(PADDING) + rng.choice(pool) + rng.choice(PADDING)
             for _ in range(rng.randint(0, 10))]
    for _ in range(rng.randint(0, 2)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(["", "# note", " \t", "#x -> y"]))
    return "".join(line + rng.choice(BREAKS) for line in lines)


def family_text(rng, fault):
    """A genealogy shaped like the benchmark's, with a chain now and then, and one
    fault of the given kind, or none."""
    chain = rng.choice([0, 0, 0, rng.randint(1, 40)])
    family = _family(rng, rng.randint(1, 5), rng.randint(2, 12), chain=chain)
    people, arcs, partners, labels = family
    lines = _kin_text(rng, *family).splitlines()
    edges = [line for line in lines if "->" in line]
    if fault == "late" and edges:
        lines.append(f"person {rng.choice(rng.choice(edges).split()[::2])}")
    elif fault == "repeat" and edges:
        lines.insert(rng.randint(1, len(lines)), rng.choice(edges))
    elif fault == "parent":
        child = rng.choice(people)
        parents = rng.sample(people, min(3, len(people)))
        lines += [f"{parent} -> {child}" for parent in parents if parent != child]
    elif fault == "cycle" and arcs:
        parent, child = rng.choice(sorted(arcs))
        lines.append(f"{child} -> {parent}")
    elif fault == "loop":
        lines.append(f"{rng.choice(people)} -> {rng.choice(people)}")
    elif fault == "partner" and arcs:
        lines.append("{1} <-> {0}".format(*rng.choice(sorted(arcs))))
    return "".join(line + rng.choice(BREAKS[:4]) for line in lines)


@functools.cache
def fuzz_texts():
    """600 valid genealogies, 3,000 texts of pooled lines and 900 faulty genealogies."""
    rng = random.Random(20)
    genealogies = [family_text(rng, None) for _ in range(600)]
    texts = genealogies + [line_text(rng) for _ in range(3000)]
    texts += [family_text(rng, rng.choice(["late", "repeat", "parent", "cycle", "loop",
                                           "partner"])) for _ in range(900)]
    return genealogies, texts


class TestReader:
    def test_lines_and_genealogies_match_the_line_reader(self, monkeypatch):
        genealogies, texts = fuzz_texts()
        calls = count_fault_walks(monkeypatch)
        for text in genealogies:  # taken by the scan and proved valid in one walk
            calls.clear()
            assert scanned(text) and ft.parse_kinship_file(text), repr(text)
            assert len(calls) == 1, repr(text)
        kinds = {}
        for text in texts:
            expected = outcome(reference_parse, text)
            calls.clear()
            assert outcome(ft.parse_kinship_file, text) == expected, repr(text)
            assert len(calls) == walks(expected), repr(text)
            kinds[kind(expected)] = kinds.get(kind(expected), 0) + 1
        assert set(kinds) == {"valid", "line", "declared twice", "duplicate", "own parent",
                              "two distinct", "both partners", "two parents", "cycle"}, kinds
        assert kinds["valid"] >= 600

    def test_each_file_is_built_by_at_most_one_constructor_call(self, monkeypatch):
        calls = []

        def counted(*fields):
            calls.append(fields)
            return KinshipGraph(*fields)

        monkeypatch.setattr(ft, "KinshipGraph", counted)
        for text in fuzz_texts()[1]:
            calls.clear()
            outcome(ft.parse_kinship_file, text)
            assert len(calls) <= 1, repr(text)

    def test_a_file_the_scan_takes_reads_as_the_line_reader_reads_it(self):
        text = ('person a ""\nperson b "B b"\n\ta#b -> c \n#a -> b\nx -> a#b\nperson #x\n'
                "person -> \"L\"\nc <-> b\n")
        assert scanned(text)
        assert outcome(ft.parse_kinship_file, text) == outcome(reference_parse, text)

    def test_the_scan_leaves_quotes_escapes_and_other_blanks_to_the_line_reader(self):
        for line in ["'a' -> b", "a\\ b -> c", "a -> b\xa0", "\u3000a -> b", "a\x1fb -> c",
                     "person a Ann", 'person a "A\\"n"', 'person a "A"b', "person -> b",
                     "person\t-> b", "a -> b # c"]:
            assert not scanned(line), line
            assert outcome(ft.parse_kinship_file, line) == outcome(reference_parse, line)

    def test_the_scan_gives_one_row_per_line(self):
        for text in fuzz_texts()[1]:
            lines = text.splitlines()
            assert len(ft._LINE.findall("\n".join(lines))) == max(len(lines), 1), repr(text)

    def test_only_the_lines_the_scan_cannot_take_are_shell_split(self, monkeypatch):
        family = _family(random.Random(3), 5, 60)
        lines = _kin_text(random.Random(4), *family).splitlines()
        assert len(lines) > 300 and scanned("\n".join(lines))
        lines.insert(len(lines) // 2, "person 'q u'")
        text = "\n".join(lines) + "\n"
        calls, split_words = [], ft._split_words

        def split(*args, **kwargs):
            calls.append(args)
            return split_words(*args, **kwargs)

        monkeypatch.setattr(ft, "_split_words", split)
        g = ft.parse_kinship_file(text)
        assert calls == [("person 'q u'",)] and "q u" in g.persons

    def test_a_repeat_splits_each_line_the_scan_cannot_take_once(self, monkeypatch):
        lines = ["person 'q u'", "'q u' -> b", "c\\ d -> e", "b -> f", "'q u' -> b"]
        calls, split_words = [], ft._split_words

        def split(*args, **kwargs):
            calls.append(args)
            return split_words(*args, **kwargs)

        monkeypatch.setattr(ft, "_split_words", split)
        assert outcome(ft.parse_kinship_file, "\n".join(lines)) == \
            "kinship file invalid: duplicate arc (q u,b)"
        assert calls == [(line,) for line in lines if line != "b -> f"]

    def test_long_runs_of_blanks_read_in_linear_time(self):
        for text in ["a" + " " * 100_000 + "b", "\t" * 100_000 + "x\xa0",
                     "a -> b" + " " * 100_000 + "c"]:
            start = time.perf_counter()
            assert outcome(ft.parse_kinship_file, text) == \
                "line 1: expected a person, '->', or '<->' line"
            assert time.perf_counter() - start < 1.0

    def test_a_repeat_after_a_line_the_scan_cannot_take(self):
        cases = [(f"p -> r\n{line}\nd -> e\np -> r\nd <-> q\n", "duplicate arc (p,r)")
                 for line in ["person 'q u'", "a\\ b -> c", '"x y" <-> z']]
        cases += [("a <-> b\n'c d' -> e\nb <-> a\n", "duplicate partner edge {b,a}"),
                  ("'c d' -> e\nx -> y\nc\\ d -> e\nx -> y\n", "duplicate arc (c d,e)")]
        for text, repeat in cases:
            assert not scanned(text)
            assert outcome(ft.parse_kinship_file, text) == f"kinship file invalid: {repeat}"
            assert outcome(reference_parse, text) == f"kinship file invalid: {repeat}"


class TestValidation:
    def test_direct_construction_matches_the_sorted_checks(self, monkeypatch):
        calls = count_fault_walks(monkeypatch)
        rng = random.Random(21)
        kinds = {}
        for _ in range(3000):
            people = rng.sample("abcdefgh", rng.randint(1, 8))
            arcs = [[parent, child] for i, child in enumerate(people)
                    for parent in rng.sample(people[:i], min(i, rng.randint(0, 2)))]
            partners = [pair for pair in (rng.sample(people, 2) for _ in range(len(people) // 3))
                        if pair not in arcs and pair[::-1] not in arcs]
            labels = {name: name.upper() for name in people if rng.random() < 0.3}
            for _ in range(rng.choice([0, 1, 1, 2])):
                fault, anyone = rng.randrange(6), people + ["zz"]
                some = rng.choice(anyone)
                if fault == 0:
                    arcs.append(rng.sample(anyone, 2))
                elif fault == 1:
                    arcs.append([some, rng.choice(anyone)])
                elif fault == 2:
                    partners.append(rng.sample(anyone, min(rng.choice([1, 2, 3]), len(anyone))))
                elif fault == 3 and arcs:
                    partners.append(rng.choice(arcs)[::rng.choice([1, -1])])
                elif fault == 4:
                    labels["zz"] = "L"
                else:
                    arcs += [[parent, some] for parent in rng.sample(people, min(3, len(people)))]
            expected = outcome(reference_fields, people, arcs, partners, labels)
            calls.clear()
            assert outcome(KinshipGraph, people, arcs, partners, labels) == expected, \
                (people, arcs, partners, labels)
            # a valid graph is walked once; a fault is walked again in sorted order
            assert len(calls) == walks(expected), (people, arcs, partners, labels)
            kinds[kind(expected)] = kinds.get(kind(expected), 0) + 1
        assert set(kinds) == {"valid", "own parent", "two distinct", "unknown person",
                              "both partners", "label for", "two parents", "cycle"}, kinds

    def test_long_chains_and_a_cycle_through_them(self):
        people = [f"p{i}" for i in range(3000)]
        arcs = list(zip(people, people[1:]))
        assert outcome(KinshipGraph, people, arcs) == \
            outcome(reference_fields, people, arcs, [], {})
        arcs.append((people[-1], people[1500]))
        expected = outcome(reference_fields, people, arcs, [], {})
        assert expected.startswith("parent arcs form a cycle: p1500 -> p1501")
        assert outcome(KinshipGraph, people, arcs) == expected
