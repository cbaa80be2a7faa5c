"""Restricted BNF grammars over single-character alphabets.

Supports concatenation, alternation with ``|``, and one-or-more repetition
with a postfix ``+``.  That is enough for path languages and body-plan
templates, while keeping membership decidable by a memoized top-down parse:
alternatives may not be empty, so every item consumes at least one symbol,
and left recursion is rejected up front.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from ._shared import first_cycle, significant_lines
from .errors import CapExceeded, ObservementError

GENERATE_CAP = 100_000
FORM_CAP = 1_000_000


class GrammarError(ObservementError):
    """Grammar source is malformed or violates the restrictions."""


@dataclass(frozen=True)
class Terminal:
    symbol: str


@dataclass(frozen=True)
class NonTerminal:
    name: str


@dataclass(frozen=True)
class OneOrMore:
    item: "Terminal | NonTerminal"


@dataclass(frozen=True)
class Grammar:
    terminals: frozenset
    nonterminals: frozenset
    rules: dict  # name -> tuple of alternatives, each a tuple of items
    start: str


# --- grammar source ---------------------------------------------------------
#
#   <name>                        a solitary nonterminal line designates the start
#   <name> -> items | items ...   rule; repeated left-hand sides merge alternatives
#
# Items: <name> references a nonterminal; a bare or quoted character is a
# terminal; a postfix + makes the preceding item one-or-more.  Blank lines
# and lines whose first non-blank character is '#' are skipped.


def _tokenize_line(line: str, lineno: int) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(line):
        ch = line[i]
        col = i + 1
        if ch.isspace():
            i += 1
        elif ch == "<":
            end = line.find(">", i + 1)
            if end < 0:
                raise GrammarError(f"line {lineno}, col {col}: missing '>'")
            name = line[i + 1:end].strip()
            if not name:
                raise GrammarError(f"line {lineno}, col {col}: empty nonterminal name")
            tokens.append(("NAME", name, col))
            i = end + 1
        elif ch in "'\"":
            end = line.find(ch, i + 1)
            if end < 0:
                raise GrammarError(f"line {lineno}, col {col}: unterminated quote")
            sym = line[i + 1:end]
            if len(sym) != 1:
                raise GrammarError(
                    f"line {lineno}, col {col}: quoted terminal must be one character, got {sym!r}"
                )
            tokens.append(("SYM", sym, col))
            i = end + 1
        elif ch == "-" and line[i:i + 2] == "->":
            tokens.append(("ARROW", "->", col))
            i += 2
        elif ch == "|":
            tokens.append(("PIPE", ch, col))
            i += 1
        elif ch == "+":
            tokens.append(("PLUS", ch, col))
            i += 1
        else:
            tokens.append(("SYM", ch, col))
            i += 1
    return tokens


def _parse_alternatives(tokens, lineno: int):
    alternatives = []
    items: list = []
    for kind, value, col in tokens:
        if kind == "PIPE":
            if not items:
                raise GrammarError(f"line {lineno}, col {col}: empty alternative")
            alternatives.append(tuple(items))
            items = []
        elif kind == "NAME":
            items.append(NonTerminal(value))
        elif kind == "SYM":
            items.append(Terminal(value))
        elif kind == "PLUS":
            if not items:
                raise GrammarError(f"line {lineno}, col {col}: '+' needs a preceding item")
            if isinstance(items[-1], OneOrMore):
                raise GrammarError(f"line {lineno}, col {col}: repeated '+' on one item")
            items[-1] = OneOrMore(items[-1])
        else:  # pragma: no cover - tokenizer emits no other kinds
            raise GrammarError(f"line {lineno}, col {col}: unexpected token {value!r}")
    if not items:
        raise GrammarError(f"line {lineno}: empty alternative")
    alternatives.append(tuple(items))
    return alternatives


def parse_grammar(text: str) -> Grammar:
    rules: dict[str, list] = {}
    order: list[str] = []
    start = None
    raw_lines = text.splitlines()
    for lineno, _ in significant_lines(text):
        # Columns count from the unstripped line.
        tokens = _tokenize_line(raw_lines[lineno - 1], lineno)
        if len(tokens) == 1 and tokens[0][0] == "NAME":
            if start is not None:
                raise GrammarError(f"line {lineno}: start symbol designated twice")
            start = tokens[0][1]
            continue
        if len(tokens) < 2 or tokens[0][0] != "NAME" or tokens[1][0] != "ARROW":
            raise GrammarError(f"line {lineno}: expected '<name> -> ...'")
        lhs = tokens[0][1]
        alternatives = _parse_alternatives(tokens[2:], lineno)
        rules.setdefault(lhs, [])
        if lhs not in order:
            order.append(lhs)
        for alt in alternatives:
            if alt not in rules[lhs]:
                rules[lhs].append(alt)
    if not rules:
        raise GrammarError("grammar has no rules")
    nonterminals = frozenset(rules)
    terminals = set()

    def walk(item):
        if isinstance(item, OneOrMore):
            walk(item.item)
        elif isinstance(item, Terminal):
            terminals.add(item.symbol)
        else:
            if item.name not in nonterminals:
                raise GrammarError(f"undefined nonterminal <{item.name}>")

    for alts in rules.values():
        for alt in alts:
            for item in alt:
                walk(item)
    clash = terminals & nonterminals
    if clash:
        raise GrammarError(
            f"names used as both terminal and nonterminal: {sorted(clash)}"
        )
    if start is None:
        start = order[0]
    elif start not in nonterminals:
        raise GrammarError(f"undefined nonterminal <{start}>")
    grammar = Grammar(
        terminals=frozenset(terminals),
        nonterminals=nonterminals,
        rules={name: tuple(alts) for name, alts in rules.items()},
        start=start,
    )
    _reject_left_recursion(grammar)
    return grammar


def _leftmost(item):
    return item.item if isinstance(item, OneOrMore) else item


def _reject_left_recursion(grammar: Grammar) -> None:
    # Leftmost-reachability graph over nonterminals; a cycle would make the
    # memoized parser recurse without consuming input.
    graph = {
        name: {
            _leftmost(alt[0]).name
            for alt in alts
            if isinstance(_leftmost(alt[0]), NonTerminal)
        }
        for name, alts in grammar.rules.items()
    }
    cycle = first_cycle(graph)
    if cycle:
        raise GrammarError("left recursion through " + " -> ".join(f"<{n}>" for n in cycle))


# --- membership -------------------------------------------------------------


def membership(grammar: Grammar, s: str) -> bool:
    """True iff ``s`` is derivable from the start symbol.

    Strings using symbols outside the alphabet are simply not members.  The
    stack of open nonterminals is explicit, so strings of any length are
    decided.  No key is needed while it is open: without left recursion, a
    nonterminal at ``pos`` depends only on later positions, or on leftmost
    nonterminals at ``pos``, which cannot lead back to it.
    """
    if any(ch not in grammar.terminals for ch in s):
        return False
    memo: dict = {}
    root = (grammar.start, 0)
    stack = [(root, _nonterminal_ends(grammar, s, *root))]
    ends = None
    while stack:
        key, walk = stack[-1]
        try:
            need = walk.send(ends)
        except StopIteration as done:
            ends = memo[key] = done.value
            stack.pop()
            continue
        ends = memo.get(need)
        if ends is None:
            stack.append((need, _nonterminal_ends(grammar, s, *need)))
    return len(s) in memo[root]


def _nonterminal_ends(grammar, s, name, pos):
    """The positions where a derivation of ``name`` from ``pos`` can end.

    A generator: it yields each ``(nonterminal, position)`` whose ends it
    needs, is sent those ends back, and returns its own as a frozenset.
    """
    ends: set = set()
    for alt in grammar.rules[name]:
        positions = {pos}
        for item in alt:
            # One or more repetitions apply the inner item until no new end
            # appears; every application consumes at least one symbol.
            repeat = isinstance(item, OneOrMore)
            inner = item.item if repeat else item
            reached: set = set()
            frontier = positions
            while frontier:
                step: set = set()
                for q in frontier:
                    if isinstance(inner, NonTerminal):
                        step |= yield inner.name, q
                    elif q < len(s) and s[q] == inner.symbol:
                        step.add(q + 1)
                frontier = step - reached if repeat else ()
                reached |= step
            positions = reached
        ends |= positions
    return frozenset(ends)


# --- generation -------------------------------------------------------------


def _item_min(item, lengths: dict):
    """Shortest expansion of one item, given the per-nonterminal table ``lengths``."""
    if isinstance(item, Terminal):
        return 1
    if isinstance(item, NonTerminal):
        return lengths[item.name]
    return _item_min(item.item, lengths)


def _min_lengths(grammar: Grammar) -> dict:
    lengths = {name: math.inf for name in grammar.nonterminals}
    changed = True
    while changed:
        changed = False
        for name, alts in grammar.rules.items():
            for alt in alts:
                total = sum(_item_min(item, lengths) for item in alt)
                if total < lengths[name]:
                    lengths[name] = total
                    changed = True
    return lengths


def generate(grammar: Grammar, max_len: int) -> list:
    """All derivable strings of length at most ``max_len``, sorted by (length, text).

    Breadth-first expansion of sentential forms with duplicate pruning; forms
    whose minimum completion length exceeds ``max_len`` are dropped.  Raises
    CapExceeded when more than ``GENERATE_CAP`` distinct strings would be
    produced, or more than ``FORM_CAP`` distinct forms explored.
    """
    cap, form_cap = GENERATE_CAP, FORM_CAP
    if max_len < 0:
        raise GrammarError(f"max_len must be >= 0, got {max_len}")
    min_lengths = _min_lengths(grammar)

    def lower_bound(form):
        return sum(_item_min(item, min_lengths) for item in form)

    results: set = set()
    start_form = (NonTerminal(grammar.start),)
    if lower_bound(start_form) > max_len:
        return []
    seen = {start_form}
    queue = deque([start_form])
    while queue:
        form = queue.popleft()
        index = next((i for i, item in enumerate(form) if not isinstance(item, Terminal)), None)
        if index is None:
            results.add("".join(item.symbol for item in form))
            if len(results) > cap:
                raise CapExceeded(f"generation produced more than {cap} strings")
            continue
        head, item, tail = form[:index], form[index], form[index + 1:]
        if isinstance(item, NonTerminal):
            successors = [head + alt + tail for alt in grammar.rules[item.name]]
        else:
            successors = [
                head + (item.item,) + tail,
                head + (item.item, item) + tail,
            ]
        for nxt in successors:
            if nxt not in seen and lower_bound(nxt) <= max_len:
                seen.add(nxt)
                if len(seen) > form_cap:
                    raise CapExceeded(f"generation explored more than {form_cap} forms")
                queue.append(nxt)
    return sorted(results, key=lambda t: (len(t), t))
