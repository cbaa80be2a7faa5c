"""Descriptive complexity through a fixed representation frame.

A graph becomes a text string (its graph6 code, optionally minimized over
vertex permutations so isomorphic graphs agree), and the string's length is
the total complexity within that frame.  LZW compression then splits the
description into a patterned part (the dictionary entries it builds) and a
residual part (the code stream): dictionary mass is reported as primary
order, code count as secondary order.  No attempt is made to approximate a
minimal description; every number is relative to this frame.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, ObservementError
from .graphs import Graph, _pack_graph6, encode_graph6

CANONICAL_CAP = 10


class LzwError(ObservementError):
    """Symbol outside the alphabet, or a malformed code stream."""


@dataclass(frozen=True)
class LzwOutput:
    """New dictionary entries (in creation order) and the emitted code stream."""

    dictionary: tuple
    codes: tuple

    def __post_init__(self):
        object.__setattr__(self, "dictionary", tuple(self.dictionary))
        object.__setattr__(self, "codes", tuple(self.codes))


@dataclass(frozen=True)
class ComplexityReport:
    """Frame-relative complexity: total string length, pattern mass, residual code count."""

    total: int
    primary_order: int
    secondary_order: int


def _check_alphabet(alphabet) -> list:
    symbols = list(alphabet)
    if not symbols:
        raise LzwError("alphabet must be non-empty")
    if len(set(symbols)) != len(symbols):
        raise LzwError("alphabet contains duplicate symbols")
    for symbol in symbols:
        if not isinstance(symbol, str) or len(symbol) != 1:
            raise LzwError(f"alphabet symbols must be single characters, got {symbol!r}")
    return symbols


def lzw_compress(s: str, alphabet) -> LzwOutput:
    """Standard LZW with the dictionary seeded by the alphabet, in order.

    Longest known prefix is emitted each step and extended by the following
    symbol to form the next dictionary entry.  Fully deterministic.
    """
    symbols = _check_alphabet(alphabet)
    table = {symbol: code for code, symbol in enumerate(symbols)}
    for i, ch in enumerate(s):
        if ch not in table:
            raise LzwError(f"symbol {ch!r} at position {i} is outside the alphabet")
    codes = []
    new_entries = []
    current = ""
    for ch in s:
        candidate = current + ch
        if candidate in table:
            current = candidate
        else:
            codes.append(table[current])
            table[candidate] = len(table)
            new_entries.append(candidate)
            current = ch
    if current:
        codes.append(table[current])
    return LzwOutput(tuple(new_entries), tuple(codes))


def lzw_decompress(compressed, alphabet) -> str:
    """Exact inverse of lzw_compress; accepts an LzwOutput or a bare code sequence.

    Handles the self-referential case where a code names the entry being
    built (emitted string plus its own first symbol).
    """
    codes = compressed.codes if isinstance(compressed, LzwOutput) else tuple(compressed)
    entries = list(_check_alphabet(alphabet))
    out = []
    previous = None
    for code in codes:
        if 0 <= code < len(entries):
            entry = entries[code]
        elif code == len(entries) and previous is not None:
            entry = previous + previous[0]
        else:
            raise LzwError(f"code {code} out of range for dictionary of size {len(entries)}")
        out.append(entry)
        if previous is not None:
            entries.append(previous + entry[0])
        previous = entry
    return "".join(out)


def canonical_string(g: Graph) -> str:
    """The lexicographically smallest graph6 code over all vertex permutations.

    The canonical form is isomorphism-invariant.  It is found by an exact
    search that fills graph6 columns one at a time, branching only on the
    vertices whose column is least, and it is capped at 10 vertices.
    ``encode_graph6`` gives the code in the given vertex order.
    """
    if g.n > CANONICAL_CAP:
        raise CapExceeded(f"canonical form capped at {CANONICAL_CAP} vertices, got {g.n}")
    bit_count = g.n * (g.n - 1) // 2
    best = _minimal_graph6_mask(g.n, g._masks[0])
    bits = [(best >> (bit_count - 1 - p)) & 1 for p in range(bit_count)]
    return _pack_graph6(g.n, bits)


def _minimal_graph6_mask(n: int, adj: tuple) -> int:
    """Least upper-triangle mask, read as an integer, over all vertex orders.

    Placing vertex v at position j fixes column j of the graph6 triangle: its
    bits are v's adjacency to the vertices at positions 0..j-1, most
    significant first, so the code so far is a prefix of every completion.
    Every unplaced vertex's column is kept up to date, and a placed vertex's
    is pushed above them all.  Only the vertices whose column is least are
    placed next: any other gives a greater prefix than every completion of a
    least one.  A prefix greater than the best complete code's prefix is cut;
    a tie is not, so the minimum is the one a scan of all n! orders finds.
    Of two twins (same neighbours apart from each other) only the first is
    placed at a position: swapping them is an automorphism that fixes every
    placed vertex, so both branches yield the same codes.
    """
    bit_count = n * (n - 1) // 2
    twins = [sum(1 << t for t in range(n) if adj[t] & ~(1 << v) == adj[v] & ~(1 << t))
             for v in range(n)]
    bits = [[row >> u & 1 for u in range(n)] for row in adj]  # bits[v][u]: u's bit for v too
    placed = 1 << n  # above every column, which holds fewer than n bits
    best = None

    def extend(prefix: int, j: int, columns: list) -> None:
        nonlocal best
        if j == n:
            best = prefix
            return
        least = min(columns)
        code = prefix << j | least
        if best is not None and code > best >> bit_count - j * (j + 1) // 2:
            return
        tried = 0
        for v, column in enumerate(columns):
            if column == least and not twins[v] & tried:
                tried |= 1 << v
                after = [c << 1 | bit for c, bit in zip(columns, bits[v])]
                after[v] = placed
                extend(code, j + 1, after)

    extend(0, 0, [0] * n)
    return best


def relative_complexity(value, *, canonical: bool = False) -> ComplexityReport:
    """Complexity of a graph or symbol string within the graph6/LZW frame.

    Graphs are first serialized to graph6: by canonical_string when
    ``canonical``, else by encode_graph6 in the given vertex order.  The
    string is then compressed over its own sorted symbol set.  Reported:
    total string length, summed length of new dictionary entries, and the
    number of emitted codes.
    """
    if isinstance(value, Graph):
        text = canonical_string(value) if canonical else encode_graph6(value)
    elif isinstance(value, str):
        text = value
    else:
        raise TypeError(f"expected a Graph or a string, got {type(value).__name__}")
    if not text:
        return ComplexityReport(0, 0, 0)
    output = lzw_compress(text, sorted(set(text)))
    return ComplexityReport(
        total=len(text),
        primary_order=sum(len(entry) for entry in output.dictionary),
        secondary_order=len(output.codes),
    )
