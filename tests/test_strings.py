import itertools
import math
import random
import time
from collections import deque

import pytest
from test_golden_cli import bench_workloads

from observement import strings
from observement.errors import CapExceeded
from observement.strings import GrammarError

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
        assert turtle.rules.keys() == {"path"}
        assert turtle.start == "path"
        assert len(turtle.rules["path"]) == 4

    def test_compact_and_spaced_syntax_agree(self):
        compact = strings.parse_grammar("<path> -> F<path> | L<path> | R<path> | T\n")
        spaced = strings.parse_grammar(TURTLE)
        assert compact.rules == spaced.rules

    def test_one_or_more_template(self):
        grammar = strings.parse_grammar(ARTHROPOD)
        body = grammar.rules["body"][0]
        assert body == ("HEAD", ("SEGMENT",), "TAIL")

    def test_undefined_nonterminal_named_in_error(self):
        with pytest.raises(GrammarError, match="<foo>"):
            strings.parse_grammar("<a> -> x <foo>\n")
        # F is also a terminal here; the undefined name is still the first one
        # referenced, taken rule by rule rather than line by line.
        for text, name in [("<a> -> F <G> <F>\n", "G"),
                           ("<a> -> <x>\n<b> -> <y>\n<a> -> <z>\n<x> -> q\n", "z")]:
            with pytest.raises(GrammarError) as info:
                strings.parse_grammar(text)
            assert str(info.value) == f"undefined nonterminal <{name}>"

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
        assert grammar.rules["a"][0] == ("x", "y")

    def test_error_carries_line_and_column(self):
        with pytest.raises(GrammarError, match="line 2"):
            strings.parse_grammar("<a> -> x\n<b -> y\n")

    def test_3000_alternatives_keep_first_seen_order_without_repeats(self):
        words = [f"a{i:04d}" for i in range(3000)]
        text = "<s> -> " + " | ".join(" ".join(word) for word in words) + "\n"
        began = time.perf_counter()
        grammar = strings.parse_grammar(text + text.replace("<s> ->", "<s> -> b |"))
        assert time.perf_counter() - began < 2
        alts = grammar.rules["s"]
        assert ["".join(alt) for alt in alts] == words + ["b"]

    def test_error_column_counts_from_the_unstripped_line(self):
        with pytest.raises(GrammarError) as info:
            strings.parse_grammar("   <a> -> 'x\n")
        assert str(info.value) == "line 1, col 11: unterminated quote"


def recursive_left_recursion_check(grammar):
    """The recursive depth-first check, kept as an oracle: the error message or None."""
    graph = {
        name: {
            strings._leftmost(alt[0])
            for alt in alts
            if strings._leftmost(alt[0]) in grammar.rules
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
    """Rules over nonterminals in shuffled order: one to three alternatives of one to
    three items, each item a terminal or a nonterminal picked at random, a fifth
    of them repeated with ``+``; leftmost items are terminals less often."""
    names = [f"{letter}{i}" for i, letter in enumerate(rng.sample("pqrstuvw", size))]
    rng.shuffle(names)

    def item(terminal_share):
        if rng.random() < terminal_share:
            base = rng.choice("ab")
        else:
            base = rng.choice(names)
        return (base,) if rng.random() < 0.2 else base

    rules = {}
    for name in names:
        rules[name] = tuple(
            tuple(item(0.6 if i else 0.3) for i in range(rng.choice([1, 2, 2, 3])))
            for _ in range(rng.randint(1, 3)))
    return strings.Grammar(frozenset("ab"), rules, names[0])


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
        if item in grammar.rules:
            return nonterminal_ends(item, pos)
        if isinstance(item, str):
            return {pos + 1} if pos < len(s) and s[pos] == item else set()
        ends, frontier = set(), {pos}
        while frontier:
            frontier = set().union(*(item_ends(item[0], q) for q in frontier)) - ends
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
        words += ["c", "cab", "abcab", "abc"]  # a foreign symbol first, in the middle, last
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


def form_search(grammar, max_len):
    """The breadth-first search over sentential forms that ``generate`` replaced,
    kept as an oracle: forms whose shortest completion passes ``max_len`` are
    dropped, shortest completions coming from a fixpoint over every rule."""
    lengths = dict.fromkeys(grammar.rules, math.inf)

    def terminal(item):
        return isinstance(item, str) and item not in grammar.rules

    def least(item):
        if terminal(item):
            return 1
        if isinstance(item, str):
            return lengths[item]
        return least(item[0])

    changed = True
    while changed:
        changed = False
        for name, alts in grammar.rules.items():
            for alt in alts:
                total = sum(map(least, alt))
                if total < lengths[name]:
                    lengths[name], changed = total, True
    start = (grammar.start,)
    if sum(map(least, start)) > max_len:
        return []
    results, seen, queue = set(), {start}, deque([start])
    while queue:
        form = queue.popleft()
        index = next((i for i, item in enumerate(form) if not terminal(item)), None)
        if index is None:
            results.add("".join(form))
            continue
        head, item, tail = form[:index], form[index], form[index + 1:]
        if isinstance(item, str):
            successors = [head + alt + tail for alt in grammar.rules[item]]
        else:
            successors = [head + (item[0],) + tail, head + (item[0], item) + tail]
        for nxt in successors:
            if nxt not in seen and sum(map(least, nxt)) <= max_len:
                seen.add(nxt)
                queue.append(nxt)
    return sorted(results, key=lambda t: (len(t), t))


def chain(size, link):
    """``size`` nonterminals in rule order, each ``link`` of the next, the last one ``a``."""
    return "".join(f"<n{i}> -> {link.format(f'<n{i + 1}>')}\n" for i in range(size)) + \
        f"<n{size}> -> a\n"


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

    def test_symbol_cap_enforced(self, turtle, monkeypatch):
        monkeypatch.setattr(strings, "SYMBOL_CAP", 5)
        with pytest.raises(CapExceeded, match="more than 5 symbols"):
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

    def test_random_grammars_match_the_form_search(self):
        rng = random.Random(37)
        checked, shapes, nonempty = 0, set(), 0
        while checked < 840:
            grammar = random_grammar(rng, rng.randint(1, 8))
            if recursive_left_recursion_check(grammar) is not None:
                continue
            max_len = checked % 8
            expected = form_search(grammar, max_len)
            assert strings.generate(grammar, max_len) == expected, (grammar.rules, max_len)
            checked += 1
            nonempty += bool(expected)
            shapes |= {(len(alt), isinstance(item, tuple), strings._leftmost(item) in grammar.rules)
                       for alts in grammar.rules.values() for alt in alts for item in alt}
        assert nonempty > 400
        # (alternative length, repeated with +, a nonterminal)
        assert {(3, True, False), (1, True, True), (1, False, True)} <= shapes

    @pytest.mark.parametrize("kind", range(4))
    def test_bench_templates_match_the_form_search(self, kind):
        text = bench_workloads().grammar_template(random.Random(kind), kind)[0]
        grammar = strings.parse_grammar(text)
        for max_len in range(9):
            assert strings.generate(grammar, max_len) == form_search(grammar, max_len)

    @pytest.mark.parametrize("text", [
        "<s> -> <x>+ <y>+ <x>\n<x> -> <y>\n<y> -> <r> a\n<r> -> b a\n",
        "<s> -> a+ b+ a+ | a+ a+ b | <x>+ <x>+\n<x> -> a | a b\n",
        "<s> -> <x> <y> a | <x> <y> b <s> | <x> <y> a b a | <t> <x> <y>\n"
        "<x> -> a | b a\n<y> -> b | a <y>\n<t> -> a b | a b <t> b\n",
        "<s> -> <c> <d> <c> <d> <c> <d> | <c> <d> <c>+ | <c> <d> <c> <d>+\n"
        "<c> -> a | a a\n<d> -> b | <c> b\n",
    ])
    def test_ambiguous_grammars_match_the_form_search(self, text):
        # Runs of X+ Y+ and alternatives that share prefixes: many derivations
        # of one string, each prefix joined once at each length.
        grammar = strings.parse_grammar(text)
        for max_len in range(13):
            assert strings.generate(grammar, max_len) == form_search(grammar, max_len)

    def test_finite_language_stops_long_before_max_len(self):
        assert strings.generate(strings.parse_grammar("<s> -> a b\n"), 10**9) == ["ab"]
        empty = "<s> -> <x> <q>\n<x> -> a | a <x>\n<q> -> b <q>\n"
        assert strings.generate(strings.parse_grammar(empty), 10**9) == []

    @pytest.mark.parametrize("text", [
        "<s> -> <h> <body>\n<body> -> a | b | a <body> | b <body>\n",
        "<s> -> <h> <m>\n<m> -> <body> c\n<body> -> <ab>+\n<ab> -> a | b\n",
        "<s> -> <m> <h> | <h> <ab>+\n<m> -> <ab>+ b | b\n<ab> -> a | b\n",
    ])
    def test_only_lengths_that_fit_beside_a_long_context_are_built(self, text):
        # <body>, <ab>+ or <m> at every length up to 36 would pass SYMBOL_CAP.
        grammar = strings.parse_grammar(text + "<h> -> " + "c " * 30 + "\n")
        found = strings.generate(grammar, 36)
        assert found == form_search(grammar, 36)
        assert len(found) > 10

    def test_chain_of_3000_nonterminals_in_rule_order_derives_nothing_short(self):
        grammar = strings.parse_grammar(chain(3000, "{} a"))
        began = time.perf_counter()
        found = strings.generate(grammar, 5)
        assert time.perf_counter() - began < 0.5
        assert found == []

    def test_finite_chain_is_built_only_at_its_own_lengths(self):
        # Each <ni> derives one string; building it at every length up to
        # twice the longest would take seconds.
        grammar = strings.parse_grammar(chain(1000, "{} a"))
        began = time.perf_counter()
        found = strings.generate(grammar, 10**9)
        assert time.perf_counter() - began < 2
        assert found == ["a" * 1001]

    @pytest.mark.parametrize("link", ["{}", "{}+"])
    def test_unit_chain_of_3000_nonterminals_in_rule_order(self, link):
        # Each cell waits for the one below it at the same length; the order
        # that settles them is found in one pass, without recursion.
        grammar = strings.parse_grammar(chain(3000, link))
        began = time.perf_counter()
        assert strings.generate(grammar, 5) == (["a"] if link == "{}" else
                                                ["a" * n for n in range(1, 6)])
        assert time.perf_counter() - began < 2

    def test_an_item_before_a_finite_tail_takes_only_the_lengths_it_leaves(self):
        # b+ has a string at every length; only the one that leaves two symbols
        # for "b a" is joined, not a prefix at every length below.
        grammar = strings.parse_grammar("<s> -> b+ b a\n")
        began = time.perf_counter()
        found = strings.generate(grammar, 2000)
        assert time.perf_counter() - began < 2
        assert found == ["b" * n + "ba" for n in range(1, 1999)]

    def test_one_large_cell_meets_the_symbol_cap_while_it_is_joined(self):
        # 256 bytes of <y> make 2**32 words of 32 bits; the 2**24 three-byte
        # prefixes alone would hold 24 * 2**24 symbols.
        grammar = strings.parse_grammar(
            "<w> -> <y> <y> <y> <y>\n<y> -> " + "<b> " * 8 + "\n<b> -> 0 | 1\n")
        began = time.perf_counter()
        with pytest.raises(CapExceeded, match=f"^generation held more than {2**25} symbols$"):
            strings.generate(grammar, 32)
        assert time.perf_counter() - began < 2
        assert strings.generate(grammar, 31) == []

    def test_one_symbol_at_a_time_to_a_long_max_len_meets_the_symbol_cap(self):
        grammar = strings.parse_grammar("<s> -> a | a <s>\n")
        began = time.perf_counter()
        with pytest.raises(CapExceeded, match=f"^generation held more than {2**25} symbols$"):
            strings.generate(grammar, 100_000)
        assert time.perf_counter() - began < 2
