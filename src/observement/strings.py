"""Restricted BNF grammars over single-character alphabets.

Supports concatenation, alternation with ``|``, and one-or-more repetition
with a postfix ``+``: enough for path languages and body-plan templates.
Membership is a memoized top-down parse, generation a construction by length
that joins two cells at a time.  Both rest on nonempty alternatives, so every
item consumes a symbol or more, and on left recursion being refused up front.

An item is a plain value: a terminal is its one-character symbol, a
nonterminal its name, and ``X+`` the 1-tuple ``(X,)``.  No text is both a
terminal and a nonterminal, so ``item in grammar.rules`` tells them apart.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import NamedTuple

from ._shared import first_cycle, significant_lines
from .errors import CapExceeded, ObservementError

GENERATE_CAP = 100_000
SYMBOL_CAP = 2**25


class GrammarError(ObservementError):
    """Grammar source is malformed or violates the restrictions."""


class Grammar(NamedTuple):
    terminals: frozenset
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
    tokens, i = [], 0
    while i < len(line):
        ch, col = line[i], i + 1
        if ch.isspace():
            i += 1
        elif ch == "<":
            end = line.find(">", i + 1)
            if end < 0:
                raise GrammarError(f"line {lineno}, col {col}: missing '>'")
            if not (name := line[i + 1:end].strip()):
                raise GrammarError(f"line {lineno}, col {col}: empty nonterminal name")
            tokens.append(("NAME", name, col))
            i = end + 1
        elif ch in "'\"":
            end = line.find(ch, i + 1)
            if end < 0:
                raise GrammarError(f"line {lineno}, col {col}: unterminated quote")
            sym = line[i + 1:end]
            if len(sym) != 1:
                raise GrammarError(f"line {lineno}, col {col}: "
                                   f"quoted terminal must be one character, got {sym!r}")
            tokens.append(("SYM", sym, col))
            i = end + 1
        elif line.startswith("->", i):
            tokens.append(("ARROW", "->", col))
            i += 2
        else:
            tokens.append(({"|": "PIPE", "+": "PLUS"}.get(ch, "SYM"), ch, col))
            i += 1
    return tokens


def _parse_alternatives(tokens, lineno: int):
    alternatives, items = [], []
    for kind, value, col in tokens:
        if kind == "PIPE":
            if not items:
                raise GrammarError(f"line {lineno}, col {col}: empty alternative")
            alternatives.append(tuple(items))
            items = []
        elif kind in ("NAME", "SYM"):
            items.append(value)
        elif kind == "PLUS":
            if not items:
                raise GrammarError(f"line {lineno}, col {col}: '+' needs a preceding item")
            if isinstance(items[-1], tuple):
                raise GrammarError(f"line {lineno}, col {col}: repeated '+' on one item")
            items[-1] = (items[-1],)
        else:
            raise GrammarError(f"line {lineno}, col {col}: unexpected token {value!r}")
    if not items:
        raise GrammarError(f"line {lineno}: empty alternative")
    alternatives.append(tuple(items))
    return alternatives


def parse_grammar(text: str) -> Grammar:
    rules: dict[str, dict] = {}  # alternatives as keys: first-seen order, no repeats
    used: dict[str, list] = {}  # per rule, the names it references, in reading order
    terminals, start = set(), None
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
        lhs, rest = tokens[0][1], tokens[2:]
        rules.setdefault(lhs, {}).update(dict.fromkeys(_parse_alternatives(rest, lineno)))
        used.setdefault(lhs, []).extend(value for kind, value, _ in rest if kind == "NAME")
        terminals.update(value for kind, value, _ in rest if kind == "SYM")
    if not rules:
        raise GrammarError("grammar has no rules")
    for name in (name for names in used.values() for name in names):
        if name not in rules:
            raise GrammarError(f"undefined nonterminal <{name}>")
    clash = terminals.intersection(rules)
    if clash:
        raise GrammarError(
            f"names used as both terminal and nonterminal: {sorted(clash)}"
        )
    if start is None:
        start = next(iter(rules))
    elif start not in rules:
        raise GrammarError(f"undefined nonterminal <{start}>")
    grammar = Grammar(terminals=frozenset(terminals),
                      rules={name: tuple(alts) for name, alts in rules.items()}, start=start)
    _reject_left_recursion(grammar)
    return grammar


def _leftmost(item):
    return item[0] if isinstance(item, tuple) else item


def _reject_left_recursion(grammar: Grammar) -> None:
    # Leftmost-reachability graph over nonterminals; a cycle would make the
    # memoized parser recurse without consuming input.
    graph = {name: {item for item in (_leftmost(alt[0]) for alt in alts) if item in grammar.rules}
             for name, alts in grammar.rules.items()}
    if cycle := first_cycle(graph):
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
    memo, ends = {}, None
    root = (grammar.start, 0)
    stack = [(root, _nonterminal_ends(grammar, s, *root))]
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
            repeat = isinstance(item, tuple)
            inner = item[0] if repeat else item
            reached, frontier = set(), positions
            while frontier:
                step: set = set()
                for q in frontier:
                    if inner in grammar.rules:
                        step |= yield inner, q
                    elif q < len(s) and s[q] == inner:
                        step.add(q + 1)
                frontier = step - reached if repeat else ()
                reached |= step
            positions = reached
        ends |= positions
    return frozenset(ends)


# --- generation -------------------------------------------------------------


def _least(rules) -> dict:
    """Each head's least value, in the order settled (Knuth's generalisation of Dijkstra):
    ``(head, needs, weight)`` offers weight plus the values of needs once all are settled."""
    users, heap, tick = {}, [], count()  # the tick settles equal offers first come, first
    for head, needs, weight in rules:
        entry = [head, len(needs), weight]  # needs not yet settled, weight so far
        for need in needs:
            users.setdefault(need, []).append(entry)
        if not needs:
            heappush(heap, (weight, next(tick), head))
    least: dict = {}
    while heap:
        value, _, head = heappop(heap)
        if head not in least:
            least[head] = value
            for entry in users.pop(head, ()):
                entry[1:] = entry[1] - 1, entry[2] + value
                if not entry[1]:
                    heappush(heap, (entry[2], next(tick), entry[0]))
    return least


def _spell(made: set, left: tuple, right: tuple, length: int, held: int) -> int:
    """Add the strings of ``length`` that join ``left``'s to ``right``'s, items' ``(cell,
    fewest, most)``, to ``made``; held plus the symbols joined, or CapExceeded past SYMBOL_CAP."""
    (heads, fewest, most), (tails, least, longest) = left, right
    low, high = max(fewest, length - longest), min(most, length - least)
    for size in range(low, high + 1) if high - low < len(heads) else heads:  # whichever fewer
        firsts, lasts = heads.get(size), tails.get(length - size)
        if low <= size <= high and firsts and lasts:
            held += len(firsts) * len(lasts) * length
            if held > SYMBOL_CAP:
                raise CapExceeded(f"generation held more than {SYMBOL_CAP} symbols")
            made.update([a + b for a in firsts for b in lasts])
    return held


def generate(grammar: Grammar, max_len: int) -> list:
    """All derivable strings of length at most ``max_len``, sorted by (length, text).

    A construction by length for each nonterminal the start reaches, and each
    ``X+`` read as ``X | X X+``, from its shortest length to ``max_len`` less the
    fewest symbols around it, or to its longest length if its language is finite.
    Alternatives are pairs, as in CYK: ``a`` is ``a`` and the empty item, ``a b c``
    the prefix ``a b``, a node shared by every alternative so begun, and ``c``; a
    cell joins two cells at a time, shorter ones or a single item's of the same
    length, built first, as refusing left recursion allows.  Raises CapExceeded
    past ``GENERATE_CAP`` strings, checked after each length, or before the
    symbols joined, each string once, pass ``SYMBOL_CAP``.
    """
    def pair(alt):  # (a,) -> (a, ""); (a, b, c) -> ((a, b), c), the prefix a node of its own
        for item in alt:
            if isinstance(item, tuple):
                rules[item] = [(item[0], ""), (item[0], item)]  # X+ read as X | X X+
        left, *rest = alt
        for item in rest[:-1]:
            left = (left, item)
            rules[left] = [left]
        return left, rest[-1] if rest else ""

    if max_len < 0:
        raise GrammarError(f"max_len must be >= 0, got {max_len}")
    rules: dict = {}  # node -> its alternatives, each a pair of items; pair() adds nodes
    rules |= {lhs: [pair(alt) for alt in alts] for lhs, alts in grammar.rules.items()}
    symbols = (*grammar.terminals, "")  # the empty item: a terminal of no symbols
    least = _least([(t, [], len(t)) for t in symbols] +
                   [(node, alt, 0) for node, alts in rules.items() for alt in alts])
    useful = {node: [alt for alt in alts if all(item in least for item in alt)]
              for node, alts in rules.items() if node in least}
    most = dict.fromkeys(rules, max_len) | {t: len(t) for t in symbols}  # no bound yet
    for node in _least((node, {item for alt in alts for item in alt if item in rules}, 0)
                       for node, alts in useful.items()):  # all items first: none on a cycle
        most[node] = max(sum(map(most.get, alt)) for alt in useful[node])
    least = {**dict.fromkeys(rules, max_len + 1), **least}  # past max_len: derives nothing
    spare = _least([(grammar.start, [], 0)] + [  # fewest symbols around each
        (item, [node], sum(map(least.get, alt)) - least[item])
        for node, alts in rules.items() for alt in alts for item in alt if item in rules])
    cells = {node: {} for node in spare} | {t: {len(t): [t]} for t in symbols}
    items = {item: (cell, least[item], most[item]) for item, cell in cells.items()}
    order = _least((node, [a for a, b in rules[node] if b == "" and a in spare], 0)
                   for node in spare)  # a single item before its left side
    starts: dict = {}  # first length -> (rank in order, last length, cell, its pairs)
    for rank, node in enumerate(order):
        high = min(max_len - spare[node], most[node])
        if least[node] <= high:
            starts.setdefault(least[node], []).append(
                (rank, high, cells[node], [(items[a], items[b]) for a, b in rules[node]]))
    out, held, plans = [], 0, []
    for length in range(1, max_len + 1):
        plans = sorted([plan for plan in plans if plan[1] >= length] + starts.pop(length, []))
        if not (plans or starts):
            break
        for _, _, table, pairs in plans:
            made: set = set()
            for left, right in pairs:
                held = _spell(made, left, right, length, held)
            if made:
                table[length] = made
        out += sorted(cells[grammar.start].get(length, ()))
        if len(out) > GENERATE_CAP:
            raise CapExceeded(f"generation produced more than {GENERATE_CAP} strings")
    return out
