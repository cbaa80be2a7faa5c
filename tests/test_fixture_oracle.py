"""The section-at-a-time fixture reader and the rows grouped at build time,
checked against the line-by-line reader and the lazy grouping they replace.

The references below are those earlier implementations, kept as test oracles.
The reference reader takes arities through ``ascii_int`` like the library,
since only the reading strategy is under test here.
"""

import ast
import collections
import random
import re

import pytest
from test_core import FIXTURE_ERRORS

from observement import core
from observement._shared import ascii_int, significant_lines
from observement.core import (
    ObjectSystem,
    ObservationAlgorithm,
    ObservationSystem,
    SystemDefinitionError,
    SystemFixture,
)


def reference_parse(text):
    """The line-by-line fixture reader."""
    universes = {"OBJECTS": ([], {}, {}), "OBSERVATIONS": ([], {}, {})}
    algorithms = []
    section = universe = None
    for lineno, line in significant_lines(text):
        tokens = line.split()
        head = tokens[0]
        if head in ("OBJECTS", "OBSERVATIONS", "PAIR"):
            if len(tokens) > 1:
                raise SystemDefinitionError(f"line {lineno}: {head} takes no arguments")
            if head != "PAIR":
                universe = universes[head]
                section = (head, universe[0])
            elif not algorithms:
                raise SystemDefinitionError(f"line {lineno}: PAIR before any MAP section")
            else:
                section = (head, algorithms[-1][2])
            continue
        if head == "RELATION":
            if len(tokens) != 2 or "/" not in tokens[1]:
                raise SystemDefinitionError(f"line {lineno}: expected RELATION <name>/<arity>")
            name, _, arity_text = tokens[1].rpartition("/")
            if not name:
                raise SystemDefinitionError(f"line {lineno}: relation name is empty")
            try:
                arity = ascii_int(arity_text)
            except ValueError:
                raise SystemDefinitionError(f"line {lineno}: bad arity {arity_text!r}") from None
            if universe is None:
                raise SystemDefinitionError(
                    f"line {lineno}: RELATION before any OBJECTS or OBSERVATIONS section"
                )
            _, relations, arities = universe
            if name in relations:
                raise SystemDefinitionError(f"line {lineno}: duplicate relation {name!r}")
            relations[name] = set()
            arities[name] = arity
            section = (head, (name, arity, relations[name]))
            continue
        if head == "MAP":
            if len(tokens) != 2:
                raise SystemDefinitionError(f"line {lineno}: expected MAP <algorithm-name>")
            if any(name == tokens[1] for name, _, _ in algorithms):
                raise SystemDefinitionError(f"line {lineno}: duplicate algorithm {tokens[1]!r}")
            algorithms.append((tokens[1], {}, {}))
            section = (head, algorithms[-1][1])
            continue

        if section is None:
            raise SystemDefinitionError(f"line {lineno}: data before any section header")
        kind, target = section
        if kind == "RELATION":
            name, arity, tuples = target
            if len(tokens) != arity:
                raise SystemDefinitionError(
                    f"line {lineno}: relation {name!r} has arity {arity}, got {len(tokens)} tokens"
                )
            tuples.add(tuple(tokens))
        elif kind in core._PAIR_LINE_WORDS:
            shape, noun, verb = core._PAIR_LINE_WORDS[kind]
            if len(tokens) != 2:
                raise SystemDefinitionError(f"line {lineno}: expected '{shape}'")
            if tokens[0] in target:
                raise SystemDefinitionError(f"line {lineno}: {noun} {tokens[0]!r} {verb} twice")
            target[tokens[0]] = tokens[1]
        else:
            target.extend(tokens)

    system = ObjectSystem(*universes["OBJECTS"])
    obs_system = ObservationSystem(*universes["OBSERVATIONS"])
    algs = tuple(ObservationAlgorithm(*a) for a in algorithms)
    for alg in algs:
        for obj, value in alg.mapping.items():
            if obj not in system.objects:
                raise SystemDefinitionError(f"MAP {alg.name}: unknown object {obj!r}")
            if value not in obs_system.observations:
                raise SystemDefinitionError(f"MAP {alg.name}: unknown observation {value!r}")
        for r_name, p_name in alg.relation_pairing.items():
            if r_name not in system.relations:
                raise SystemDefinitionError(
                    f"PAIR in {alg.name}: unknown object relation {r_name!r}"
                )
            if p_name not in obs_system.relations:
                raise SystemDefinitionError(
                    f"PAIR in {alg.name}: unknown observation relation {p_name!r}"
                )
    return SystemFixture(system, obs_system, algs)


def reference_rows(relations):
    """The lazy grouping: per relation, each prefix to the frozenset of last members."""
    out = {}
    for name, tuples in relations.items():
        rows = collections.defaultdict(list)
        for t in tuples:
            rows[t[:-1]].append(t[-1])
        out[name] = {prefix: frozenset(row) for prefix, row in rows.items()}
    return out


def reference_normalise(kind, members, relations, arities):
    """The universe checks that read every tuple three times."""
    members = frozenset(members)
    for m in members:
        if not isinstance(m, str) or not m:
            raise SystemDefinitionError(f"{kind} identifiers must be non-empty strings, got {m!r}")
    out_relations, out_arities = {}, {}
    for name, tuples in relations.items():
        tuples = frozenset(map(tuple, tuples))
        declared = arities.get(name)
        seen = set(map(len, tuples))
        if len(seen) > 1:
            raise SystemDefinitionError(f"relation {name!r} mixes arities {sorted(seen)}")
        if seen:
            arity = seen.pop()
            if declared is not None and declared != arity:
                raise SystemDefinitionError(
                    f"relation {name!r} declared with arity {declared} but holds {arity}-tuples"
                )
        elif declared is not None:
            arity = declared
        else:
            raise SystemDefinitionError(
                f"relation {name!r} is empty; declare its arity explicitly"
            )
        if arity < 1:
            raise SystemDefinitionError(f"relation {name!r} must have arity >= 1")
        undeclared = frozenset().union(*tuples) - members
        if undeclared:
            raise SystemDefinitionError(
                f"relation {name!r} references {min(undeclared, key=repr)!r}, "
                f"not a declared {kind}"
            )
        out_relations[name] = tuples
        out_arities[name] = arity
    for name in arities:
        if name not in relations:
            raise SystemDefinitionError(f"arity declared for unknown relation {name!r}")
    return members, out_relations, out_arities


class _SortedSets(ast.NodeTransformer):
    def visit_Set(self, node):
        self.generic_visit(node)
        node.elts.sort(key=ast.unparse)
        return node


def shown(text):
    """``text``, a repr, with each set display's members sorted: set order is hash order."""
    return ast.unparse(_SortedSets().visit(ast.parse(text, mode="eval")))


def reference_repr(build, normalised):
    """The repr of the system that ``reference_normalise``'s output describes."""
    members, relations, arities = normalised
    field = "objects" if build is ObjectSystem else "observations"
    return f"{build.__name__}({field}={members!r}, relations={relations!r}, arities={arities!r})"


def assert_agrees(got, build, expected):
    """``got``, built by ``build``, has the reference's fields, contents and repr."""
    members = got.objects if build is ObjectSystem else got.observations
    assert (members, got.relations, got.arities) == expected
    assert dict(got.relations) == expected[1]
    assert shown(repr(got)) == shown(reference_repr(build, expected))


def outcome(fn, *args):
    """The value, or the type and text of the exception raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


# Every line break of ``str.splitlines``, and blanks that split tokens but
# not lines: unit separator, no-break space, ideographic space.
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
BLANKS = [" ", "\t", "\x1f", "\xa0", "\u3000"]

NOISE_LINES = [
    "", "  ", "# note", "#", "  # indented", "#RELATION r/2", "a #b", "#b a",
    "OBJECTS", "OBSERVATIONS", "PAIR", "MAP m", "MAP n", "RELATION r/2", "RELATION p/1",
    "RELATION s/3", "RELATION r/0", "RELATION r/-1", "RELATION r/x", "RELATION r/١",
    "RELATION /2", "OBJECTS a", "MAP", "PAIR r", "OBJECTSx a", "a MAP", "RELATIONS r/2",
    "a", "a b", "b a", "a b c", "x y", "a x", "b y", "r p", "s p", "x", "c c c c",
]


def valid_fixture_lines(rng):
    """A well-formed fixture over a few members, with comments and blank lines."""
    objects, values = ["a", "b", "c", "#b"], ["x", "y", "z"]
    lines = ["OBJECTS", " ".join(objects)]
    pairing = []
    for name, arity in rng.sample([("r", 2), ("s", 1), ("t", 3)], rng.randint(0, 3)):
        lines.append(f"RELATION {name}/{arity}")
        for _ in range(rng.randint(0, 5)):
            lines.append(" ".join(rng.choice(objects) for _ in range(arity)))
            if rng.random() < 0.2:
                lines.append(rng.choice(["", "# inside", "  "]))
        pairing.append((name, f"p{arity}", arity))
    lines += ["OBSERVATIONS", " ".join(values)]
    for _, p_name, arity in pairing:
        lines.append(f"RELATION {p_name}/{arity}")
        lines += [" ".join(rng.choice(values) for _ in range(arity)) for _ in range(3)]
    for alg in rng.sample(["m", "n"], rng.randint(1, 2)):
        lines.append(f"MAP {alg}")
        lines += [f"{o} {rng.choice(values)}" for o in objects[:3]]
        if pairing:
            lines.append("PAIR")
            lines += [f"{r} {p}" for r, p, _ in pairing]
    return lines


def render(rng, lines):
    """Join ``lines`` with random line breaks, in-line blanks and margins."""
    out = []
    for line in lines:
        tokens = line.split(" ")
        text = "".join(tok + rng.choice(BLANKS) * rng.randint(1, 2) for tok in tokens[:-1])
        text += tokens[-1]
        if rng.random() < 0.3:
            text = rng.choice(BLANKS) + text + rng.choice(BLANKS)
        out.append(text + rng.choice(LINE_BREAKS))
    if out and rng.random() < 0.3:
        out[-1] = out[-1].rstrip("".join(LINE_BREAKS))
    return "".join(out)


def mutate(rng, lines):
    lines = list(lines)
    for _ in range(rng.randint(0, 3)):
        where = rng.randint(0, len(lines))
        action = rng.random()
        if action < 0.6 or not lines:
            lines.insert(where, rng.choice(NOISE_LINES))
        elif action < 0.8:
            del lines[min(where, len(lines) - 1)]
        else:
            lines.insert(where, rng.choice(lines))
    return lines


def test_reader_agrees_with_line_by_line_reference():
    rng = random.Random(17)
    seeds = [text.split("\n") for text, _ in FIXTURE_ERRORS]
    messages, fixtures = set(), 0
    for _ in range(4000):
        lines = rng.choice(seeds) if rng.random() < 0.3 else valid_fixture_lines(rng)
        text = render(rng, mutate(rng, lines))
        expected = outcome(reference_parse, text)
        got = outcome(core.parse_system_file, text)
        assert got == expected, text
        if isinstance(got, SystemFixture):
            fixtures += 1
            assert got.system._rows == reference_rows(got.system.relations), text
            assert got.observations._rows == reference_rows(got.observations.relations), text
        else:
            assert got[0] is SystemDefinitionError, text
            messages.add(re.sub(r"^line \d+: ", "", got[1]))
    assert fixtures >= 1000
    assert {re.sub(r"^line \d+: ", "", message) for _, message in FIXTURE_ERRORS} <= messages


@pytest.mark.parametrize("relations, arities", [
    ({"r": {("a",), ("a", "b")}}, {}),
    ({"r": {("a", "b"), ("b", "a", "a"), ("a",)}}, {"r": 2}),
    ({"r": {()}}, {}),
    ({"r": {()}}, {"r": 1}),
    ({"r": {(), ("a",)}}, {}),
    ({"r": {("a", "q"), ("a", "r")}}, {}),
    ({"r": {("q", "a")}}, {"r": 2}),
    ({"r": set()}, {}),
    ({"r": set()}, {"r": 0}),
    ({"r": {("a", "b")}}, {"r": 3}),
    ({"r": {("a", "b")}}, {"s": 2}),
    ({"r": ["ab", "ba"]}, {}),
    ({"r": {("a", "b"), ("a", "a"), ("b", "b")}, "s": {("b",)}}, {}),
    ({"r": {("a", "b", "a"), ("b", "b", "a")}, "s": {("a", "b", "q")}}, {"s": 3}),
    ({"r": {("a", "q")}, "s": {("a",), ("a", "b")}}, {}),
    ({"r": {("a", "b"), ("a", "c")}}, {"r": 2, "s": 1}),
    ({"r": {("a", "a")}}, {"r": -1}),
    ({"r": [("a", "b"), ("a", "b"), ["b", "a"]]}, {"r": 2}),
], ids=["mixed", "mixed-declared", "empty-tuple", "empty-tuple-declared", "empty-and-unary",
        "undeclared", "undeclared-prefix", "empty-relation", "empty-arity-0", "declared-other",
        "unknown-arity", "strings", "valid", "ternary", "undeclared-before-mixed",
        "undeclared-before-unknown-arity", "declared-negative", "repeats-and-lists"])
def test_direct_build_agrees_with_reference(relations, arities):
    members = frozenset({"a", "b"})
    for kind, build in (("object", ObjectSystem), ("observation", ObservationSystem)):
        expected = outcome(reference_normalise, kind, members, relations, arities)
        got = outcome(build, members, relations, arities)
        if isinstance(got, build):
            assert_agrees(got, build, expected)
            assert got._rows == reference_rows(expected[1])
        else:
            assert got == expected
            assert got[0] is SystemDefinitionError


def test_random_direct_builds_agree_with_reference():
    rng = random.Random(3)
    members = ["a", "b", "c"]
    for _ in range(3000):
        relations = {name: {tuple(rng.choice(members + ["q"]) for _ in range(rng.choice(
                         [rng.randint(0, 3), arity])))
                             for _ in range(rng.randint(0, 4))}
                     for name, arity in (("r", 2), ("s", 1))[:rng.randint(1, 2)]}
        arities = {name: rng.randint(-1, 3) for name in relations if rng.random() < 0.5}
        for kind, build in (("object", ObjectSystem), ("observation", ObservationSystem)):
            expected = outcome(reference_normalise, kind, members, relations, arities)
            got = outcome(build, members, relations, arities)
            if isinstance(expected, tuple) and expected[0] is SystemDefinitionError:
                assert got == expected
            else:
                assert_agrees(got, build, expected)
                assert got._rows == reference_rows(expected[1])


def test_equality_reads_rows_and_agrees_with_reference():
    rng = random.Random(4)
    members = ["a", "b", "c"]

    def draw():
        return {name: {tuple(rng.choice(members) for _ in range(arity))
                       for _ in range(rng.randint(0, 3))}
                for name, arity in (("r", 2), ("s", 1))[:rng.randint(1, 2)]}

    relations = [draw() for _ in range(40)]
    equal = 0
    for _ in range(3000):
        left, right = rng.choice(relations), rng.choice(relations)
        arities = {name: {"r": 2, "s": 1}[name] for name in set(left) | set(right)}
        expected = reference_normalise("object", members, left, {r: arities[r] for r in left}) \
            == reference_normalise("object", members, right, {r: arities[r] for r in right})
        for build in (ObjectSystem, ObservationSystem):
            a = build(members, left, {r: arities[r] for r in left})
            b = build(members, right, {r: arities[r] for r in right})
            assert (a == b, a != b) == (expected, not expected), (left, right)
            assert not a.relations._sets and not b.relations._sets
            # Against a plain mapping, equality still compares the tuple sets.
            assert (a.relations == dict(b.relations)) == expected
        equal += expected
    assert 100 < equal < 2900
