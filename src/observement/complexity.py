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

from typing import NamedTuple

from .errors import CapExceeded, ObservementError

CANONICAL_CAP = 10


class LzwError(ObservementError):
    """Symbol outside the alphabet, or a malformed code stream."""


class LzwOutput(NamedTuple):
    """New dictionary entries (in creation order) and the emitted code stream."""

    dictionary: tuple
    codes: tuple


class ComplexityReport(NamedTuple):
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
    codes = []
    new_entries = []
    current = ""
    for i, ch in enumerate(s):
        candidate = current + ch
        if candidate in table:
            current = candidate
        elif ch not in table:
            raise LzwError(f"symbol {ch!r} at position {i} is outside the alphabet")
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

    The canonical form is isomorphism-invariant.  Every order that gives it
    starts with a maximum independent set: exactly then are the code's
    leading bits, one per pair of those vertices, all 0.  An exact search
    places such a set first as one unordered block, then fills graph6 columns
    one at a time, branching only on the vertices whose column is least; it
    is capped at 10 vertices.  ``encode_graph6`` gives the code in the given
    vertex order.
    """
    from .graphs import Graph, GraphError, _pack_graph6
    if not isinstance(g, Graph):
        raise GraphError("graph6 encodes undirected graphs only")
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
    With k the independence number, the first k(k-1)/2 bits are all 0 exactly
    when the first k positions hold a maximum independent set S, and no order
    has more leading 0s; so every least code starts that way.  The order
    inside S changes none of those bits, so S is placed as one unordered
    block.  Over a block B, a later vertex u's column is least as u's
    non-neighbours in B (0s) then its neighbours in B (1s), and placing u
    splits B the same way.  The placed vertices thus form a list of blocks in
    position order, a placed vertex being a block of one, and every order
    inside the blocks gives the same code so far; a block still whole at the
    end holds twins.  Only the vertices whose column is least are placed
    next: any other gives a greater prefix than every completion of a least
    one.  A prefix greater than the best complete code's prefix is cut; a tie
    is not, so the minimum is the one a scan of all n! orders finds.  Two
    twins (same neighbours apart from each other) can be swapped by an
    automorphism that fixes every other vertex, so both yield the same codes:
    only the first of them is placed at a position, and of each twin class S
    holds only the highest-numbered members.  The sets are searched one after
    another.  A complete order from the search of S that ties the best code
    found while searching an earlier set S' ends the search of S: the two
    orders give the same adjacency, so mapping one onto the other position by
    position is an automorphism that takes S' to S, and the least code
    starting with S is then the least starting with S'.
    """
    bit_count = n * (n - 1) // 2
    twins = [sum(1 << t for t in range(n) if adj[t] & ~(1 << v) == adj[v] & ~(1 << t))
             for v in range(n)]
    best = None
    earlier = False  # whether best was found while searching an earlier set
    largest = []  # the independent sets of the greatest size found so far
    most = 0

    def gather(chosen: int, size: int, candidates: int) -> None:
        # Take or skip the highest candidate; skipping it skips its lower twins.
        nonlocal most
        if size + candidates.bit_count() < most:
            return
        if not candidates:
            if size > most:
                most = size
                largest.clear()
            largest.append(chosen)
            return
        v = candidates.bit_length() - 1
        gather(chosen | 1 << v, size + 1, candidates & ~(adj[v] | 1 << v))
        gather(chosen, size, candidates & ~twins[v])

    def extend(prefix: int, j: int, blocks: list, unplaced: list) -> bool:
        # True when a complete order ties an earlier set's best: this set is done.
        nonlocal best, earlier
        if j == n:
            if earlier and prefix == best:
                return True
            best, earlier = prefix, False
            return False
        columns = []
        for u in unplaced:
            row, column = adj[u], 0
            for block, size in blocks:
                column = column << size | (1 << (block & row).bit_count()) - 1
            columns.append(column)
        least = min(columns)
        code = prefix << j | least
        if best is not None and code > best >> bit_count - j * (j + 1) // 2:
            return False
        tried = 0
        for u, column in zip(unplaced, columns):
            if column == least and not twins[u] & tried:
                tried |= 1 << u
                row, after = adj[u], []
                for block, size in blocks:
                    inside = block & row
                    if inside != block:
                        after.append((block ^ inside, size - inside.bit_count()))
                    if inside:
                        after.append((inside, inside.bit_count()))
                after.append((1 << u, 1))
                if extend(code, j + 1, after, [w for w in unplaced if w != u]):
                    return True
        return False

    gather(0, 0, (1 << n) - 1)
    for independent in largest:
        extend(0, most, [(independent, most)],
               [u for u in range(n) if not independent >> u & 1])
        earlier = True
    return best


def relative_complexity(value, *, canonical: bool = False) -> ComplexityReport:
    """Complexity of a graph or symbol string within the graph6/LZW frame.

    Graphs are first serialized to graph6: by canonical_string when
    ``canonical``, else by encode_graph6 in the given vertex order.  The
    string is then compressed over its own sorted symbol set.  Reported:
    total string length, summed length of new dictionary entries, and the
    number of emitted codes.
    """
    from .graphs import Graph, encode_graph6
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
