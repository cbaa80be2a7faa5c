import os
import random
import subprocess
import sys
import time
from itertools import permutations
from pathlib import Path

import pytest
from test_kinship_oracle import SPLIT_CASES, outcome, reference_parse

from observement import familytree as ft
from observement.familytree import KinshipError, KinshipGraph


def three_generations():
    """Seven persons over three generations; carol has two recorded parents."""
    return ft.parse_kinship_file(
        "alice <-> bob\n"
        "alice -> carol\nbob -> carol\n"
        "alice -> dave\nbob -> dave\n"
        "carol <-> eve\n"
        "carol -> frank\neve -> frank\n"
        "dave -> grace\n"
    )


def brute_force_query(g, relation, u, v):
    """Path enumeration over explicit edge lists, independent of the library
    traversals: directed paths via DFS on parent arcs, undirected paths via
    DFS on the union of both edge sets."""
    arcs = set(g.parent_arcs)

    def directed_path(src, dst):
        stack, seen = [src], {src}
        while stack:
            x = stack.pop()
            if x == dst:
                return True
            for a, b in arcs:
                if a == x and b not in seen:
                    seen.add(b)
                    stack.append(b)
        return False

    if relation == "is_child_of":
        return (v, u) in arcs
    if relation == "is_parent_of":
        return (u, v) in arcs
    if relation == "partnered":
        return frozenset({u, v}) in g.partner_edges
    if relation == "is_descendant_of":
        return u != v and directed_path(v, u)
    if relation == "is_predecessor_of":
        return u != v and directed_path(u, v)
    if relation == "is_related_to":
        if u == v:
            return True
        undirected = {frozenset(a) for a in arcs} | set(g.partner_edges)
        stack, seen = [u], {u}
        while stack:
            x = stack.pop()
            if x == v:
                return True
            for edge in undirected:
                if x in edge:
                    (other,) = edge - {x}
                    if other not in seen:
                        seen.add(other)
                        stack.append(other)
        return False
    raise AssertionError(relation)


class TestConstruction:
    def test_singleton(self):
        g = KinshipGraph({"ada"}, labels={"ada": "Ada"})
        assert g.persons == frozenset({"ada"})
        assert g.parent_arcs == frozenset()
        assert g.partner_edges == frozenset()
        assert g.labels == {"ada": "Ada"}

    def test_join_with_parent_arc(self):
        g = KinshipGraph({"p", "c"}, {("p", "c")})
        assert g.parent_arcs == frozenset({("p", "c")})
        assert g.partner_edges == frozenset()

    def test_join_with_partnership(self):
        g = KinshipGraph({"a", "b"}, partner_edges={("a", "b")})
        assert g.partner_edges == frozenset({frozenset({"a", "b"})})
        assert g.parent_arcs == frozenset()

    def test_person_declared_twice_rejected(self):
        with pytest.raises(KinshipError, match="^line 2: person 'x' declared twice$"):
            ft.parse_kinship_file("person x\nperson x\n")

    def test_cycle_rejected(self):
        with pytest.raises(KinshipError, match="cycle"):
            KinshipGraph({"a", "b"}, {("a", "b"), ("b", "a")})

    def test_self_parent_rejected(self):
        with pytest.raises(KinshipError, match="own parent"):
            KinshipGraph({"a"}, {("a", "a")})

    def test_duplicate_arc_rejected(self):
        with pytest.raises(KinshipError,
                           match=r"^kinship file invalid: duplicate arc \(a,b\)$"):
            ft.parse_kinship_file("a -> b\na -> b\n")

    @pytest.mark.parametrize("persons, arcs, partners", [
        ({"a"}, {("a", "ghost")}, set()),
        ({"a"}, set(), {("ghost", "a")}),
        ({"a", "b"}, {("a", "b"), ("ghost", "a")}, set()),
        ({"a", "b"}, {("a", "b"), ("a", "ghost")}, set()),
        ({"a", "b"}, {("a", "b")}, {("a", "ghost")}),
        ({"a", "b"}, {("a", "b")}, {("ghost", "b")}),
    ], ids=["build-arc", "build-partner", "arc-parent", "arc-child", "partner-second",
            "partner-first"])
    def test_unknown_vertex_rejected(self, persons, arcs, partners):
        with pytest.raises(KinshipError, match="unknown person"):
            KinshipGraph(persons, arcs, partners)

    def test_third_parent_rejected(self):
        with pytest.raises(KinshipError, match="more than two parents"):
            KinshipGraph(set("abcx"), {("a", "x"), ("b", "x"), ("c", "x")})

    def test_partner_and_parent_overlap_rejected(self):
        with pytest.raises(KinshipError, match="both partners and parent"):
            KinshipGraph({"a", "b"}, {("a", "b")}, {("a", "b")})


def recursive_cycle_check(arcs):
    """The recursive depth-first cycle check, kept as an oracle: the error message or None."""
    children = {}
    for parent, child in arcs:
        children.setdefault(parent, set()).add(child)
    state = {}

    def visit(person, trail):
        state[person] = 1
        for child in sorted(children.get(person, ())):
            if state.get(child) == 1:
                cycle = trail[trail.index(child):] + [child]
                return "parent arcs form a cycle: " + " -> ".join(cycle)
            if child not in state:
                found = visit(child, trail + [child])
                if found:
                    return found
        state[person] = 2
        return None

    for person in sorted(children):
        if person not in state:
            found = visit(person, [person])
            if found:
                return found
    return None


def first_third_parent(arcs):
    """The error for the first child to reach three parents in sorted arc order, or None."""
    parent_count = {}
    for _, child in sorted(arcs):
        parent_count[child] = parent_count.get(child, 0) + 1
        if parent_count[child] == 3:
            return f"{child!r} has more than two parents"
    return None


class TestCycleOracle:
    def test_random_parent_arcs_match_the_recursive_check(self):
        # The parent limit is checked before the cycle walk, so a graph with a
        # third parent reports that instead of any cycle.
        rng = random.Random(29)
        outcomes = set()
        for _ in range(2000):
            people = rng.sample("pqrstuvwxy", rng.randint(1, 8))
            p = rng.random() * 0.4
            arcs = {(a, b) for a in people for b in people if a != b and rng.random() < p}
            third = first_third_parent(arcs)
            expected = third or recursive_cycle_check(arcs)
            try:
                KinshipGraph(frozenset(people), frozenset(arcs))
                found = None
            except KinshipError as exc:
                found = str(exc)
            assert found == expected, sorted(arcs)
            outcomes.add("parents" if third else "cycle" if found else "valid")
        assert outcomes == {"valid", "cycle", "parents"}


class TestSplitLine:
    """The reader splits a line that its scan does not take by shell rules, or by
    runs of non-blanks when the line holds no quote or backslash.  Its words, and
    its line-numbered error for an unclosed quote or a trailing escape, are checked
    against the line-by-line reference reader, which uses ``shlex.split``."""

    @pytest.mark.parametrize("line", SPLIT_CASES)
    def test_edge_cases_match_shlex(self, line):
        for text in (f"person {line}", f"{line} -> a", f"a <-> {line}", f"person a {line}"):
            assert outcome(ft.parse_kinship_file, text) == outcome(reference_parse, text), \
                repr(text)

    def test_random_lines_match_shlex(self):
        rng = random.Random(9)
        alphabet = [" ", "\t", "\r", "\n", '"', "'", "\\", "#", "->", "a", "b", "\xa0",
                    "\x1f", "\u3000", "\x00"]
        outcomes = set()
        for _ in range(20_000):
            line = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            for text in (line, "person " + line):
                expected = outcome(reference_parse, text)
                assert outcome(ft.parse_kinship_file, text) == expected, repr(text)
                outcomes.add(expected.split(": ")[-1] if isinstance(expected, str) else "words")
        assert {"words", "No closing quotation", "No escaped character"} <= outcomes, outcomes

    @pytest.mark.parametrize("unit", ["<a>", "x\xa0"])
    def test_a_long_unquoted_line_is_refused_in_linear_time(self, unit):
        # 256k units: shlex.split reads such a line in seconds, a character at a time.
        text = "a -> b\n" + unit * 2**18 + "\n"
        began = time.perf_counter()
        with pytest.raises(ft.KinshipError, match="^line 2: expected a person, '->', or '<->' line$"):
            ft.parse_kinship_file(text)
        assert time.perf_counter() - began < 1

    def test_a_long_quoted_word_is_read_and_refused_in_linear_time(self):
        # A 200,000-character quoted word: shlex.split takes about 0.8 s on it.
        word = "x" * 200_000
        began = time.perf_counter()
        assert ft.parse_kinship_file(f'person "{word}"\n').persons == {word}
        with pytest.raises(ft.KinshipError, match="^line 2: expected a person, '->', or '<->' line$"):
            ft.parse_kinship_file(f'person a\n"{word}" -> a ?\n')
        assert time.perf_counter() - began < 0.1


class TestQueries:
    def test_singleton_relations(self):
        g = KinshipGraph({"solo"})
        assert ft.query(g, "is_related_to", "solo", "solo")
        for relation in ("is_child_of", "is_parent_of", "partnered",
                        "is_descendant_of", "is_predecessor_of"):
            assert not ft.query(g, relation, "solo", "solo")

    def test_chain_descent(self):
        g = KinshipGraph(set("abc"), {("a", "b"), ("b", "c")})
        assert ft.query(g, "is_descendant_of", "c", "a")
        assert ft.query(g, "is_predecessor_of", "a", "c")
        assert not ft.query(g, "is_descendant_of", "a", "c")
        assert ft.query(g, "is_child_of", "b", "a")
        assert ft.query(g, "is_parent_of", "b", "c")

    def test_partners_are_related_but_not_kin(self):
        g = KinshipGraph({"a", "b"}, partner_edges={("a", "b")})
        assert ft.query(g, "is_related_to", "a", "b")
        assert not ft.query(g, "is_descendant_of", "a", "b")
        assert not ft.query(g, "is_child_of", "a", "b")

    def test_unknown_person_rejected(self):
        with pytest.raises(KinshipError, match="unknown person"):
            ft.query(KinshipGraph({"a"}), "partnered", "a", "zz")

    def test_unknown_relation_rejected(self):
        with pytest.raises(KinshipError, match="unknown relation"):
            ft.query(KinshipGraph({"a"}), "is_cousin_of", "a", "a")

    def test_all_pairs_agree_with_path_enumeration(self):
        g = three_generations()
        for u, v in permutations(sorted(g.persons), 2):
            for relation in ft.RELATIONS:
                assert ft.query(g, relation, u, v) == brute_force_query(g, relation, u, v), (
                    relation, u, v,
                )

    def test_relation_algebra_invariants(self):
        g = three_generations()
        people = sorted(g.persons)
        for u in people:
            assert not ft.query(g, "is_descendant_of", u, u)
            for v in people:
                assert ft.query(g, "is_descendant_of", u, v) == \
                    ft.query(g, "is_predecessor_of", v, u)
                assert ft.query(g, "is_child_of", u, v) == ft.query(g, "is_parent_of", v, u)
                assert ft.query(g, "is_related_to", u, v) == ft.query(g, "is_related_to", v, u)
                for w in people:
                    if ft.query(g, "is_descendant_of", u, v) and \
                            ft.query(g, "is_descendant_of", v, w):
                        assert ft.query(g, "is_descendant_of", u, w)

    def test_random_graphs_agree_with_path_enumeration(self):
        rng = random.Random(19)
        for _ in range(15):
            names = [f"p{i}" for i in range(rng.randint(2, 8))]
            arcs = {(parent, child) for i, child in enumerate(names)
                    for parent in rng.sample(names[:i], min(i, rng.randint(0, 2)))}
            partners = set()
            if rng.random() < 0.7 and len(names) >= 2:
                a, b = rng.sample(names, 2)
                if (a, b) not in arcs and (b, a) not in arcs:
                    partners.add((a, b))
            g = KinshipGraph(set(names), arcs, partners)
            for u in names:
                for v in names:
                    for relation in ft.RELATIONS:
                        assert ft.query(g, relation, u, v) == \
                            brute_force_query(g, relation, u, v)


class TestClosures:
    def test_leaf_has_no_descendants(self):
        g = three_generations()
        assert ft.descendants(g, "frank") == set()

    def test_root_descendants(self):
        g = three_generations()
        assert ft.descendants(g, "alice") == {"carol", "dave", "frank", "grace"}

    def test_binary_tree_root_counts(self):
        g = KinshipGraph(set("abcdefg"), {("a", "b"), ("a", "c"), ("b", "d"), ("b", "e"),
                                          ("c", "f"), ("c", "g")})
        assert len(ft.descendants(g, "a")) == 6

    def test_descendants_match_is_predecessor_of(self):
        g = three_generations()
        for u in g.persons:
            for v in g.persons:
                assert (u in ft.descendants(g, v)) == ft.query(g, "is_predecessor_of", v, u)


class TestFilesAndRendering:
    def test_round_trip(self):
        g = three_generations()
        assert ft.parse_kinship_file(ft.format_kinship_file(g)) == g

    def test_labels_round_trip(self):
        g = KinshipGraph({"ada", "b"}, labels={"ada": "Ada Lovelace"})
        text = ft.format_kinship_file(g)
        assert 'person ada "Ada Lovelace"' in text
        assert ft.parse_kinship_file(text) == g

    def test_quoted_names_and_labels_round_trip(self):
        names = ["a b", 'q"r', "it's", "back\\slash", "#hash", "x#y", "", "tab\there",
                 "nb\xa0", "->"]
        labels = ['Ada "Bo"', "C:\\dir\\", "it's", "", 'x\\"y']
        g = KinshipGraph(set(names), set(zip(names, names[1:])), {(names[0], names[-1])},
                         dict(zip(names[1::2], labels)))
        text = ft.format_kinship_file(g)
        assert 'person "q\\"r" "Ada \\"Bo\\""' in text.splitlines()
        assert '"#hash" -> x#y' in text.splitlines()
        assert ft.parse_kinship_file(text) == g

    @pytest.mark.parametrize("brk", ["\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                     "\x85", "\u2028", "\u2029"])
    def test_line_breaks_in_names_and_labels_are_refused(self, brk):
        assert len(f"a{brk}b".splitlines()) == 2
        for g, what, text in [(KinshipGraph({f"a{brk}b"}), "name", f"a{brk}b"),
                              (KinshipGraph({"a"}, labels={"a": f"L{brk}"}), "label", f"L{brk}")]:
            with pytest.raises(KinshipError) as caught:
                ft.format_kinship_file(g)
            assert str(caught.value) == f"{what} {text!r} cannot be written on one line"

    def test_other_control_characters_round_trip(self):
        g = KinshipGraph({"a\x1fb", "\x00"}, labels={"a\x1fb": "L\x1f\x00"})
        assert ft.parse_kinship_file(ft.format_kinship_file(g)) == g

    def test_keyword_and_arrow_names_round_trip(self):
        g = KinshipGraph(
            {"person", "->", "<->", "b"},
            {("person", "->"), ("person", "b"), ("->", "<->"), ("<->", "b")},
            {("->", "b"), ("<->", "person")},
            {"person": "P", "->": "A"},
        )
        text = ft.format_kinship_file(g)
        assert 'person "person" "P"' in text.splitlines()
        assert '"person" -> b' in text.splitlines()
        assert ft.parse_kinship_file(text) == g

    def test_only_the_unquoted_keyword_declares(self):
        g = ft.parse_kinship_file('person -> "L"\n"person" -> b\n')
        assert g.labels == {"->": "L"}
        assert g.parent_arcs == frozenset({("person", "b")})
        with pytest.raises(KinshipError, match="line 1: expected a person"):
            ft.parse_kinship_file('"person" x\n')

    def test_edges_auto_declare_persons(self):
        g = ft.parse_kinship_file("a -> b\nb -> c\nx <-> a\n")
        assert g.persons == frozenset({"a", "b", "c", "x"})

    def test_malformed_line_rejected(self):
        with pytest.raises(KinshipError, match="line 2"):
            ft.parse_kinship_file("a -> b\nwhat is this\n")

    def test_cycle_in_file_rejected(self):
        with pytest.raises(KinshipError, match="cycle"):
            ft.parse_kinship_file("a -> b\nb -> a\n")

    def test_reported_cycle_does_not_depend_on_hash_seed(self):
        # Two cycles through b; set iteration order used to pick between them.
        text = "a -> b\nb -> c\nc -> a\nb -> d\nd -> e\ne -> b\nb -> x\nx -> y\n"
        script = (
            "import sys\n"
            "from observement.familytree import KinshipError, parse_kinship_file\n"
            "try:\n"
            "    parse_kinship_file(sys.stdin.read())\n"
            "except KinshipError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(ft.__file__).resolve().parent.parent)
        messages = set()
        for seed in range(1, 9):
            env = {**os.environ, "PYTHONHASHSEED": str(seed),
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            done = subprocess.run([sys.executable, "-c", script], input=text, env=env,
                                  capture_output=True, text=True, timeout=60)
            messages.add(done.stdout)
        assert messages == {
            "kinship file invalid: parent arcs form a cycle: a -> b -> c -> a\n"
        }

    def test_reported_fault_does_not_depend_on_hash_seed(self, tmp_path):
        # Several faults of one kind; set iteration order used to pick which
        # one ``observe tree descendants`` reported.
        files = {
            "loops.kin": "a -> a\nb -> b\nc -> c\nd -> d\n",
            "overlap.kin": "y -> x\nx <-> y\n",
            "parents.kin": "".join(f"{p} -> {c}\n" for c in "uvw" for p in "pqrs"),
        }
        expected = {
            "loops.kin": "'a' cannot be their own parent",
            "overlap.kin": "{'x', 'y'} cannot be both partners and parent/child",
            "parents.kin": "'u' has more than two parents",
        }
        src = str(Path(ft.__file__).resolve().parent.parent)
        for name, text in files.items():
            path = tmp_path / name
            path.write_text(text)
            outcomes = set()
            for seed in range(1, 9):
                env = {**os.environ, "PYTHONHASHSEED": str(seed),
                       "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
                done = subprocess.run(
                    [sys.executable, "-c", "from observement.cli import main; main()",
                     "tree", "descendants", str(path), "a"],
                    env=env, capture_output=True, text=True, timeout=60,
                )
                outcomes.add((done.returncode, done.stdout, done.stderr))
            assert len(outcomes) == 1, outcomes
            returncode, stdout, stderr = outcomes.pop()
            assert returncode == 1 and stdout == ""
            assert expected[name] in stderr
