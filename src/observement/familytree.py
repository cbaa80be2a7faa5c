"""Genealogical digraphs: parent-to-child arcs plus symmetric partner edges.

Graphs are read from a kinship file or made by the ``KinshipGraph``
constructor from sets of persons, parent arcs, partner edges and labels, and
are immutable afterwards, so completed graphs can be queried concurrently.
Parent arcs must stay acyclic, so nobody is their own ancestor, and nobody
has more than two parents.  Partner edges are stored as unordered pairs to
reflect the symmetry of the relationship.

A kinship file is read by one loop over one row per line, which builds the
persons, labels, arcs and partner edges and keeps the first repeated arc or
partner edge, named once every line has been read.  One regular-expression
scan of the text gives every row; a line the scan cannot take (a quoted or
escaped word, a faulty line) is kept whole in its row and split as the loop
meets it, by one scan of its quoted, escaped and plain pieces if it holds a
quote or backslash and by runs of non-blanks if not, so the faulty line met
first is the one named.  A graph's invariants are checked by one walk over
its arcs, partner edges and labels in set order, acyclicity by in-degree
counts (Kahn 1962); only when that walk meets a fault does it run again over
the sorted arcs and edges, to name the same fault whatever the set order.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field

from ._shared import first_cycle, one_break, reachable
from .errors import ObservementError

RELATIONS = (
    "is_child_of",
    "is_parent_of",
    "partnered",
    "is_related_to",
    "is_descendant_of",
    "is_predecessor_of",
)


class KinshipError(ObservementError):
    """Invariant violation or malformed kinship query/file."""


@dataclass(frozen=True)
class KinshipGraph:
    persons: frozenset
    parent_arcs: frozenset = frozenset()
    partner_edges: frozenset = frozenset()
    labels: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "persons", frozenset(self.persons))
        object.__setattr__(self, "parent_arcs", frozenset(map(tuple, self.parent_arcs)))
        object.__setattr__(self, "partner_edges", frozenset(map(frozenset, self.partner_edges)))
        object.__setattr__(self, "labels", dict(self.labels))
        if self._fault(self.parent_arcs, self.partner_edges):
            edges = sorted(tuple(sorted(edge)) for edge in self.partner_edges)
            raise KinshipError(self._fault(sorted(self.parent_arcs), edges))

    def _fault(self, arcs, edges):
        """The text of the first fault met walking ``arcs`` and ``edges`` in the order
        given, or None."""
        persons, parents, crowded = self.persons, {}, []
        for parent, child in arcs:
            if parent not in persons or child not in persons:
                return f"arc ({parent},{child}) references an unknown person"
            if parent == child:
                return f"{parent!r} cannot be their own parent"
            parents[child] = count = parents.get(child, 0) + 1
            if count == 3:
                crowded.append(child)
        for edge in edges:
            if len(edge) != 2:
                return f"partner edge {_spelled(edge)} must join two distinct persons"
            if not persons.issuperset(edge):
                return f"partner edge {_spelled(edge)} references an unknown person"
            a, b = edge
            if (a, b) in self.parent_arcs or (b, a) in self.parent_arcs:
                return f"{_spelled(edge)} cannot be both partners and parent/child"
        for person in self.labels:
            if person not in persons:
                return f"label for unknown person {person!r}"
        if crowded:
            return f"{crowded[0]!r} has more than two parents"
        # Kahn's pass: take away the arcs out of each parent left without
        # parents of their own; the arcs are acyclic exactly when every one is
        # taken.
        children = self._children
        left = len(self.parent_arcs)
        ready = [person for person in children if person not in parents]
        while ready:
            kids = children[ready.pop()]
            left -= len(kids)
            for child in kids:
                if child in children:
                    parents[child] = count = parents[child] - 1
                    if not count:
                        ready.append(child)
        if left:
            return "parent arcs form a cycle: " + " -> ".join(first_cycle(children))
        return None

    # Adjacency along parent arcs, built once per graph.  The sets are shared
    # by every query, so nothing may mutate them.

    @functools.cached_property
    def _children(self) -> dict:
        out: dict = {}
        for parent, child in self.parent_arcs:
            out.setdefault(parent, set()).add(child)
        return out


def _spelled(edge) -> str:
    return "{" + ", ".join(map(repr, sorted(edge))) + "}"


# --- queries ----------------------------------------------------------------


def _check_person(g: KinshipGraph, person: str) -> None:
    if person not in g.persons:
        raise KinshipError(f"unknown person {person!r}")


def descendants(g: KinshipGraph, person: str) -> set:
    """Everyone reachable from ``person`` along parent-to-child arcs, exclusive."""
    _check_person(g, person)
    return reachable(person, g._children) - {person}


def query(g: KinshipGraph, relation: str, u: str, v: str) -> bool:
    """Evaluate one of the six kinship relations between two persons.

    is_descendant_of(u, v) holds when u can be reached from v along
    parent-to-child arcs; is_predecessor_of is its converse.  is_related_to
    is connectivity over both edge kinds, ignoring direction, and counts a
    person as related to themselves.
    """
    _check_person(g, u)
    _check_person(g, v)
    if relation == "is_child_of":
        return (v, u) in g.parent_arcs
    if relation == "is_parent_of":
        return (u, v) in g.parent_arcs
    if relation == "partnered":
        return frozenset({u, v}) in g.partner_edges
    if relation == "is_related_to":
        if u == v:
            return True
        neighbours: dict = {}
        for a, b in itertools.chain(g.parent_arcs, map(tuple, g.partner_edges)):
            neighbours.setdefault(a, set()).add(b)
            neighbours.setdefault(b, set()).add(a)
        return v in reachable(u, neighbours)
    if relation == "is_descendant_of":
        return u != v and u in reachable(v, g._children)
    if relation == "is_predecessor_of":
        return query(g, "is_descendant_of", v, u)
    raise KinshipError(f"unknown relation {relation!r}; choose from {', '.join(RELATIONS)}")


# --- file format --------------------------------------------------------------
#
#   person NAME ["Label text"]
#   PARENT -> CHILD
#   A <-> B
#
# '#' lines are comments.  Persons first mentioned on an edge line are
# declared implicitly.  Words are read as ``shlex.split`` reads them, by POSIX
# shell rules: only space, tab, CR and LF separate them, quotes group, and a
# backslash escapes the next character; inside double quotes it escapes only
# '"' and '\\' and is kept before anything else, inside single quotes it is an
# ordinary character.

_WORDS = re.compile(r"[^ \t\r\n]+")
# The pieces of such a line, each read by one pattern in one pass: blanks,
# which end a word, or a piece of one.  Double quotes are spelled as an
# unrolled loop, so a long quoted word is read in linear time.
_PIECES = re.compile(r"""
    [ \t\r\n]+                         # blanks
  | ([^ \t\r\n'"\\]+)                  # 1: unquoted characters
  | \\(.)                              # 2: an escaped character
  | '([^']*)'                          # 3: single quotes, no escapes
  | "([^"\\]*(?:\\.[^"\\]*)*)"         # 4: double quotes
  | (\\|"[^"\\]*(?:\\.[^"\\]*)*\\)\Z   # 5: a line ending in an open escape
  | (.)                                # 6: an unclosed quote
""", re.S | re.X)
_QUOTED_ESCAPE = re.compile(r'\\([\\"])')

# One line of the forms the scan takes: blank, a comment, ``person NAME`` with
# an optional double-quoted label holding no escape, or ``A -> B`` or
# ``A <-> B``.  Words hold no blank of any kind, quote or backslash, and only
# space and tab pad them, so each is read as ``shlex.split`` would read it.
# Any other line falls whole to the last group.  That capture is greedy and
# sits after the leading blanks: a lazy one, or one outside the group, which
# lets the leading blanks be read again, reads a long run of blanks in
# quadratic time.
_WORD = r"""[^\s"'\\]+"""
_LINE = re.compile(rf"""
    ^[ \t]*(?:
        \#.*                                                  # a comment
      | (person)[ \t]+({_WORD})(?:[ \t]+("[^"\\\n]*"))?      # 1: person, 2: name, 3: label
      | (?!person[ \t])({_WORD})[ \t]+(<?->)[ \t]+({_WORD})  # 4, 6: the ends, 5: the arrow
      | (.+)                                                 # 7: any other line
    )?[ \t]*$""", re.M | re.X)


def parse_kinship_file(text: str) -> KinshipGraph:
    """Read a kinship file; see the format above.

    One scan of the text gives one row per line, ``(person, name, label, a,
    arrow, b, other)``, a label within its quotes.  A line the scan cannot
    take is ``other``, and only such a line is split into words, as the loop
    meets it, so the faulty line met first is the one named.  The loop keeps
    the first arc or partner edge that repeats one before it and names it
    after the last line, so a later faulty line or double declaration wins.
    """
    rows = _LINE.findall(one_break(text))
    declared: set = set()
    labels: dict = {}
    arcs: set = set()
    partners: set = set()
    repeat = ""  # the text naming the first repeated arc or partner edge
    for lineno, (person, name, label, a, arrow, b, other) in enumerate(rows, 1):
        if other:
            person, name, label, a, arrow, b = _line_row(lineno, other)
        if person:
            if name in declared:
                raise KinshipError(f"line {lineno}: person {name!r} declared twice")
            declared.add(name)
            if label:
                labels[name] = label[1:-1]
        elif arrow:
            if arrow == "->":
                if (a, b) in arcs:
                    repeat = repeat or f"duplicate arc ({a},{b})"
                arcs.add((a, b))
            else:
                edge = frozenset((a, b))
                if edge in partners:
                    repeat = repeat or f"duplicate partner edge {{{a},{b}}}"
                partners.add(edge)
            declared.add(a)
            declared.add(b)
    try:
        if repeat:
            raise KinshipError(repeat)
        return KinshipGraph(declared, arcs, partners, labels)
    except KinshipError as exc:
        raise KinshipError(f"kinship file invalid: {exc}") from exc


def _split_words(line: str) -> list:
    """The words of ``line`` as ``shlex.split`` gives them, in time linear in its length.

    Raises ValueError("No closing quotation") for an unclosed quote and
    ValueError("No escaped character") for a line that ends in an escape.
    """
    words: list = []
    word = None  # the pieces of the word being read
    for m in _PIECES.finditer(line):
        kind = m.lastindex
        if kind is None:
            if word is not None:
                words.append("".join(word))
                word = None
        elif kind == 5:
            raise ValueError("No escaped character")
        elif kind == 6:
            raise ValueError("No closing quotation")
        else:
            piece = _QUOTED_ESCAPE.sub(r"\1", m[4]) if kind == 4 else m[kind]
            if word is None:
                word = [piece]
            else:
                word.append(piece)
    if word is not None:
        words.append("".join(word))
    return words


def _line_row(lineno: int, line: str) -> tuple:
    """The row of a line the scan does not take, its words split by ``_split_words``."""
    line = line.strip()
    if not line or line[0] == "#":
        return ("",) * 6
    try:
        words = _split_words(line)
    except ValueError as exc:
        raise KinshipError(f"line {lineno}: {exc}") from None
    # Only the unquoted keyword declares, so '"person" -> b' is an arc.
    if _WORDS.match(line)[0] == "person":
        if len(words) not in (2, 3):
            raise KinshipError(f"line {lineno}: expected 'person NAME [\"label\"]'")
        return "person", words[1], f'"{words[2]}"' if len(words) == 3 else "", "", "", ""
    if len(words) == 3 and words[1] in ("->", "<->"):
        return "", "", "", *words
    raise KinshipError(f"line {lineno}: expected a person, '->', or '<->' line")


def format_kinship_file(g: KinshipGraph) -> str:
    lines = []
    for person in sorted(g.persons):
        name = _word(_one_line(person, "name"))
        label = g.labels.get(person)
        if label is not None:
            lines.append(f"person {name} {_quote(_one_line(label, 'label'))}")
        else:
            lines.append(f"person {name}")
    for parent, child in sorted(g.parent_arcs):
        lines.append(f"{_word(parent)} -> {_word(child)}")
    for edge in sorted(map(sorted, g.partner_edges)):
        lines.append(f"{_word(edge[0])} <-> {_word(edge[1])}")
    return "\n".join(lines) + "\n"


# A name that reads back as itself without quotes: no blank, quote or
# backslash, no leading '#', which would make an edge line a comment, and
# not the keyword 'person', which would make an arc line a declaration.
_PLAIN = re.compile(r"[^\s'\"\\#][^\s'\"\\]*")


def _one_line(text: str, what: str) -> str:
    """``text``, refused when it holds a character where ``str.splitlines`` breaks,
    since the reader would split the quoted word there."""
    if "".join(text.splitlines()) != text:
        raise KinshipError(f"{what} {text!r} cannot be written on one line")
    return text


def _word(name: str) -> str:
    return name if _PLAIN.fullmatch(name) and name != "person" else _quote(name)


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
