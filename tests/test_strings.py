import itertools
import random

import pytest

from observement import strings
from observement.errors import CapExceeded
from observement.strings import (
    GrammarError,
    NonTerminal,
    OneOrMore,
    Terminal,
)

TURTLE = """\
<path>
<path> -> F <path>
<path> -> L <path>
<path> -> R <path>
<path> -> T
"""

ARTHROPOD = """\
<body> -> <HEAD> <SEGMENT>+ <TAIL>
<HEAD> -> h
<SEGMENT> -> s
<TAIL> -> t
"""


@pytest.fixture(scope="module")
def turtle():
    return strings.parse_grammar(TURTLE)


class TestParseGrammar:
    def test_turtle_grammar_shape(self, turtle):
        assert sorted(turtle.terminals) == ["F", "L", "R", "T"]
        assert turtle.nonterminals == frozenset({"path"})
        assert turtle.start == "path"
        assert len(turtle.rules["path"]) == 4

    def test_compact_and_spaced_syntax_agree(self):
        compact = strings.parse_grammar("<path> -> F<path> | L<path> | R<path> | T\n")
        spaced = strings.parse_grammar(TURTLE)
        assert compact.rules == spaced.rules

    def test_one_or_more_template(self):
        grammar = strings.parse_grammar(ARTHROPOD)
        body = grammar.rules["body"][0]
        assert body == (
            NonTerminal("HEAD"),
            OneOrMore(NonTerminal("SEGMENT")),
            NonTerminal("TAIL"),
        )

    def test_undefined_nonterminal_named_in_error(self):
        with pytest.raises(GrammarError, match="<foo>"):
            strings.parse_grammar("<a> -> x <foo>\n")

    def test_terminal_nonterminal_clash_rejected(self):
        with pytest.raises(GrammarError, match="both terminal and nonterminal"):
            strings.parse_grammar("<a> -> x <F>\n<F> -> F\n")

    def test_empty_alternative_rejected(self):
        with pytest.raises(GrammarError, match="empty alternative"):
            strings.parse_grammar("<a> -> x | | y\n")
        with pytest.raises(GrammarError, match="empty alternative"):
            strings.parse_grammar("<a> -> x |\n")

    def test_left_recursion_rejected(self):
        with pytest.raises(GrammarError, match="left recursion"):
            strings.parse_grammar("<a> -> <a> x | y\n")
        with pytest.raises(GrammarError, match="left recursion"):
            strings.parse_grammar("<a> -> <b> x | z\n<b> -> <a> y | z\n")

    def test_plus_without_item_rejected(self):
        with pytest.raises(GrammarError, match=r"\+"):
            strings.parse_grammar("<a> -> + x\n")

    def test_quoted_terminals(self):
        grammar = strings.parse_grammar("<a> -> 'x' \"y\"\n")
        assert grammar.rules["a"][0] == (Terminal("x"), Terminal("y"))

    def test_error_carries_line_and_column(self):
        with pytest.raises(GrammarError, match="line 2"):
            strings.parse_grammar("<a> -> x\n<b -> y\n")

    def test_error_column_counts_from_the_unstripped_line(self):
        with pytest.raises(GrammarError) as info:
            strings.parse_grammar("   <a> -> 'x\n")
        assert str(info.value) == "line 1, col 11: unterminated quote"


def recursive_left_recursion_check(grammar):
    """The recursive depth-first check, kept as an oracle: the error message or None."""
    graph = {
        name: {
            strings._leftmost(alt[0]).name
            for alt in alts
            if isinstance(strings._leftmost(alt[0]), NonTerminal)
        }
        for name, alts in grammar.rules.items()
    }
    state = {}

    def visit(name, trail):
        state[name] = 1
        for nxt in sorted(graph[name]):
            if state.get(nxt) == 1:
                cycle = trail[trail.index(nxt):] + [nxt] if nxt in trail else [name, nxt]
                return "left recursion through " + " -> ".join(f"<{n}>" for n in cycle)
            if nxt not in state:
                found = visit(nxt, trail + [nxt])
                if found:
                    return found
        state[name] = 2
        return None

    for name in sorted(graph):
        if name not in state:
            found = visit(name, [name])
            if found:
                return found
    return None


def random_grammar(rng, size):
    """Rules over nonterminals in shuffled order; leftmost items pick other rules at random."""
    names = [f"{letter}{i}" for i, letter in enumerate(rng.sample("pqrstuvw", size))]
    rng.shuffle(names)
    rules = {}
    for name in names:
        alts = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.3:
                head = Terminal("a")
            else:
                head = NonTerminal(rng.choice(names))
                if roll > 0.8:
                    head = OneOrMore(head)
            alts.append((head, Terminal("b")))
        rules[name] = tuple(alts)
    return strings.Grammar(frozenset("ab"), frozenset(names), rules, names[0])


class TestLeftRecursionOracle:
    def test_random_grammars_match_the_recursive_check(self):
        rng = random.Random(23)
        outcomes = set()
        for _ in range(2000):
            grammar = random_grammar(rng, rng.randint(1, 8))
            expected = recursive_left_recursion_check(grammar)
            try:
                strings._reject_left_recursion(grammar)
                found = None
            except GrammarError as exc:
                found = str(exc)
            assert found == expected, grammar.rules
            outcomes.add(found is None)
        assert outcomes == {True, False}

    def test_chain_of_1200_nonterminals(self):
        chain = "".join(f"<n{i}> -> <n{i + 1}> a\n" for i in range(1200)) + "<n1200> -> a\n"
        assert len(strings.parse_grammar(chain).rules) == 1201
        looped = chain.replace("<n1200> -> a", "<n1200> -> <n0> a")
        with pytest.raises(GrammarError, match=r"^left recursion through <n0> -> <n1> -> "):
            strings.parse_grammar(looped)


def recursive_membership(grammar, s):
    """The memoized top-down recursion, kept as an oracle for ``membership``."""
    memo = {}

    def nonterminal_ends(name, pos):
        if (name, pos) not in memo:
            ends = set()
            for alt in grammar.rules[name]:
                ends |= sequence_ends(alt, pos)
            memo[name, pos] = frozenset(ends)
        return memo[name, pos]

    def sequence_ends(items, pos):
        positions = {pos}
        for item in items:
            positions = set().union(*(item_ends(item, q) for q in positions))
            if not positions:
                break
        return positions

    def item_ends(item, pos):
        if isinstance(item, Terminal):
            return {pos + 1} if pos < len(s) and s[pos] == item.symbol else set()
        if isinstance(item, NonTerminal):
            return nonterminal_ends(item.name, pos)
        ends, frontier = set(), {pos}
        while frontier:
            frontier = set().union(*(item_ends(item.item, q) for q in frontier)) - ends
            ends |= frontier
        return ends

    if any(ch not in grammar.terminals for ch in s):
        return False
    return len(s) in nonterminal_ends(grammar.start, 0)


class TestMembership:
    def test_random_grammars_match_the_recursive_oracle(self):
        rng = random.Random(31)
        words = [""] + ["".join(w) for n in range(1, 7)
                        for w in itertools.product("ab", repeat=n)]
        checked = members = 0
        while checked < 300:
            grammar = random_grammar(rng, rng.randint(1, 8))
            if recursive_left_recursion_check(grammar) is not None:
                continue
            checked += 1
            for word in words:
                expected = recursive_membership(grammar, word)
                assert strings.membership(grammar, word) == expected, (grammar.rules, word)
                members += expected
        assert members > 400

    def test_chain_of_1200_nonterminals_is_decided(self):
        chain = "".join(f"<n{i}> -> <n{i + 1}> a\n" for i in range(1200)) + "<n1200> -> a\n"
        grammar = strings.parse_grammar(chain)
        assert strings.membership(grammar, "a" * 1201)
        assert not strings.membership(grammar, "a" * 1200)

    def test_example_path_accepted(self, turtle):
        assert strings.membership(turtle, "FFLFFFRFT")

    def test_empty_string_rejected(self, turtle):
        # Every path ends with the terminate symbol, so the empty string is out.
        assert not strings.membership(turtle, "")

    def test_nothing_follows_terminate(self, turtle):
        # Oracle: generate(turtle, 3) enumerates all members of length <= 3;
        # FTF is absent from that list.
        assert "FTF" not in strings.generate(turtle, 3)
        assert not strings.membership(turtle, "FTF")

    def test_symbols_outside_alphabet_mean_nonmember(self, turtle):
        assert not strings.membership(turtle, "FXT")

    def test_agrees_with_generate_oracle(self, turtle):
        members = set(strings.generate(turtle, 5))
        rng = random.Random(4)
        alphabet = sorted(turtle.terminals)
        for _ in range(300):
            s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 5)))
            assert strings.membership(turtle, s) == (s in members)

    def test_one_or_more_consumes_at_least_one(self):
        grammar = strings.parse_grammar(ARTHROPOD)
        assert strings.membership(grammar, "hst")
        assert strings.membership(grammar, "hssssst")
        assert not strings.membership(grammar, "ht")
        assert not strings.membership(grammar, "hstt")


class TestGenerate:
    def test_turtle_up_to_one(self, turtle):
        assert strings.generate(turtle, 1) == ["T"]

    def test_turtle_up_to_two(self, turtle):
        assert strings.generate(turtle, 2) == ["T", "FT", "LT", "RT"]

    def test_max_len_zero(self, turtle):
        assert strings.generate(turtle, 0) == []

    def test_counts_follow_branching(self, turtle):
        # Members of length k are exactly the {F,L,R}^(k-1) prefixes plus T.
        for k in range(1, 7):
            of_length = [s for s in strings.generate(turtle, k) if len(s) == k]
            assert len(of_length) == 3 ** (k - 1)

    def test_cap_enforced(self, turtle, monkeypatch):
        monkeypatch.setattr(strings, "GENERATE_CAP", 10)
        with pytest.raises(CapExceeded, match="more than 10 strings"):
            strings.generate(turtle, 9)

    def test_form_cap_enforced(self, turtle, monkeypatch):
        monkeypatch.setattr(strings, "FORM_CAP", 5)
        with pytest.raises(CapExceeded, match="more than 5 forms"):
            strings.generate(turtle, 9)

    @pytest.mark.parametrize("text", [
        "<s> -> <w>+ E\n<w> -> A | B C\n",
        "<x> -> A+ | B A\n",
        "<ev> -> A | B C | D E+\n",
    ])
    def test_one_or_more_matches_the_membership_brute_force(self, text):
        grammar = strings.parse_grammar(text)
        alphabet = sorted(grammar.terminals)
        members = [
            word
            for length in range(7)
            for word in map("".join, itertools.product(alphabet, repeat=length))
            if strings.membership(grammar, word)
        ]
        for max_len in range(7):
            expected = [word for word in members if len(word) <= max_len]
            assert strings.generate(grammar, max_len) == expected

    def test_nonterminating_rule_defines_empty_language(self):
        grammar = strings.parse_grammar("<a> -> x <a>\n")
        assert strings.generate(grammar, 6) == []
