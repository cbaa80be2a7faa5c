"""String motif patterns and network motif censuses.

A string motif is a token sequence: literal symbols, fixed-width wildcards
written ``x(N)``, and classes written ``{A,B,C}`` that match any one of the
listed symbols.  A literal token is its symbol, a one-character ``str``; a
wildcard is a ``Wildcard`` and a class an ``AnyOf``.  A network motif census
buckets every k-vertex induced subgraph of a graph by its isomorphism class,
named by its least local adjacency mask over the k! relabellings, read from
one table per relabelling.  For an undirected graph the census is built:
closed-form counts of each class as a subgraph, from degrees, codegrees and
triangles, turned into induced counts by one inversion over a fixed table.  A
digraph's k-subsets are tallied per local mask, splitting candidates by
adjacency bitsets: for k=3 those of each skeleton edge, with the empty triads
in closed form; for k=4 those above each 3-prefix.  Classes come out in sorted
identifier order.  The census can be compared against a degree-preserving
rewiring null model.
"""

from __future__ import annotations

import functools
import math
import random
import re
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import NamedTuple

from ._shared import ascii_int
from .errors import CapExceeded, ObservementError

CENSUS_CAPS = {3: 200, 4: 60}
REWIRE_ATTEMPTS_PER_EDGE = 10


class MotifError(ObservementError):
    """Malformed pattern text or invalid motif operation."""


@dataclass(frozen=True)
class AnyOf:
    symbols: frozenset

    def __post_init__(self):
        object.__setattr__(self, "symbols", frozenset(self.symbols))
        if not self.symbols:
            raise MotifError("empty symbol class")


@dataclass(frozen=True)
class Wildcard:
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise MotifError(f"wildcard length must be >= 1, got {self.length}")


@dataclass(frozen=True)
class MotifPattern:
    """Canonical token sequence; adjacent wildcards are merged into one on construction."""

    tokens: tuple = ()

    def __post_init__(self):
        merged = []
        for token in self.tokens:
            if isinstance(token, Wildcard) and merged and isinstance(merged[-1], Wildcard):
                merged[-1] = Wildcard(merged[-1].length + token.length)
            else:
                merged.append(token)
        object.__setattr__(self, "tokens", tuple(merged))


def parse_motif(text: str) -> MotifPattern:
    """Parse pattern text: letters are literals, x(N) a wildcard, {A,B} a class."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == "x" and text[i + 1:i + 2] == "(":
            end = text.find(")", i + 2)
            if end < 0:
                raise MotifError(f"position {i}: unterminated wildcard count")
            count_text = text[i + 2:end].strip()
            try:
                if count_text[:1] == "-":  # ascii_int reads a sign; a count has none
                    raise ValueError(count_text)
                tokens.append(Wildcard(ascii_int(count_text)))
            except ValueError:
                raise MotifError(f"position {i}: bad wildcard count {count_text!r}") from None
            i = end + 1
        elif ch == "{":
            end = text.find("}", i + 1)
            if end < 0:
                raise MotifError(f"position {i}: unterminated symbol class")
            symbols = [part.strip() for part in text[i + 1:end].split(",")]
            if symbols == [""]:
                raise MotifError(f"position {i}: empty symbol class")
            for symbol in symbols:
                if len(symbol) != 1 or not symbol.isalpha():
                    raise MotifError(f"position {i}: bad class symbol {symbol!r}")
            tokens.append(AnyOf(frozenset(symbols)))
            i = end + 1
        elif ch.isalpha():
            tokens.append(ch)
            i += 1
        else:
            raise MotifError(f"position {i}: unknown character {ch!r}")
    return MotifPattern(tokens)


def format_motif(pattern: MotifPattern) -> str:
    parts = []
    for token in pattern.tokens:
        if isinstance(token, str):
            parts.append(token)
        elif isinstance(token, Wildcard):
            parts.append(f"x({token.length})")
        else:
            parts.append("{" + ",".join(sorted(token.symbols)) + "}")
    return " ".join(parts)


def _regex(pattern: MotifPattern) -> str:
    # A literal or class matches one symbol and x(N) any N, newlines included
    # under re.S.
    parts = []
    for token in pattern.tokens:
        if isinstance(token, str):
            parts.append(re.escape(token))
        elif isinstance(token, Wildcard):
            parts.append(f".{{{token.length}}}")
        else:
            parts.append("[" + "".join(map(re.escape, sorted(token.symbols))) + "]")
    return "".join(parts)


def match_motif(pattern: MotifPattern, s: str, *, anchored: bool = False) -> list:
    """Offsets where the pattern matches, as one regular expression.

    Anchored mode reports [0] or nothing; search mode reports every offset,
    overlapping ones included, so the empty pattern matches at 0..len(s).
    """
    regex = _regex(pattern)
    try:
        if anchored:
            return [0] if re.match(regex, s, re.S) else []
        return [m.start() for m in re.finditer(f"(?={regex})", s, re.S)]
    except OverflowError:
        # A wildcard beyond the engine's repeat limit is longer than any sequence.
        return []


def derive_motif(sequences, class_cap: int) -> MotifPattern:
    """The column-wise pattern shared by equal-length sequences.

    Per column: a literal when all sequences agree, a class when the distinct
    symbols number at most ``class_cap``, otherwise a width-1 wildcard.
    Every input matches the result in anchored mode.
    """
    sequences = list(sequences)
    if len(sequences) < 2:
        raise MotifError(f"need at least 2 sequences to derive a motif, got {len(sequences)}")
    length = len(sequences[0])
    for s in sequences:
        if len(s) != length:
            raise MotifError(f"sequences differ in length: {length} vs {len(s)}")
    tokens = []
    for column in range(length):
        symbols = {s[column] for s in sequences}
        if len(symbols) == 1:
            tokens.append(next(iter(symbols)))
        elif len(symbols) <= class_cap:
            tokens.append(AnyOf(frozenset(symbols)))
        else:
            tokens.append(Wildcard(1))
    return MotifPattern(tokens)


# --- network motifs -------------------------------------------------------------


class MotifCensus(NamedTuple):
    """Counts per canonical k-vertex subgraph, plus optional null-model means."""

    k: int
    counts: dict
    background: dict | None


@functools.cache
def _relabellings(k: int) -> tuple:
    """Per relabelling of the k local vertices, the destination bit of each cell's
    bit, where cell (i, j) of a directed local mask, diagonal included, is bit k*i + j."""
    return tuple(tuple(1 << k * perm[i] + perm[j] for i in range(k) for j in range(k))
                 for perm in permutations(range(k)))


def _canonical_mask(mask: int, k: int) -> int:
    """The least directed mask, as an integer, over all k! relabellings of the local vertices."""
    bits = [b for b in range(k * k) if mask >> b & 1]
    return min(sum(map(table.__getitem__, bits)) for table in _relabellings(k))


def _mask_identifier(mask: int, k: int, directed: bool) -> str:
    if directed:
        return f"d{k}:" + format(mask, f"0{k * k}b")
    from .graphs import _pack_graph6
    return _pack_graph6(k, [mask >> b & 1 for b in range(k * (k - 1) // 2)])


# The undirected classes on k vertices by canonical mask, most edges first:
# bit b is the b-th pair (i, j), i < j, in graph6's column order (0,1), (0,2),
# (1,2), (0,3), ...  Class G maps each class H with more edges to s(G, H), the
# number of edge subsets of one labelled copy of H that are copies of G, where
# that is not zero.  A literal, so importing costs nothing; the tests rebuild
# it from a permutation oracle.
_SUBGRAPH_COPIES = {
    3: {
        0b111: {},  # triangle
        0b011: {0b111: 3},  # path on 3 vertices
        0b001: {0b111: 3, 0b011: 2},  # edge + vertex
        0b000: {0b111: 1, 0b011: 1, 0b001: 1},  # empty
    },
    4: {
        0b111111: {},  # K4
        0b011111: {0b111111: 6},  # diamond
        0b001111: {0b111111: 12, 0b011111: 4},  # paw
        0b011110: {0b111111: 3, 0b011111: 1},  # 4-cycle
        0b000111: {0b111111: 4, 0b011111: 2, 0b001111: 1},  # triangle + vertex
        0b001011: {0b111111: 4, 0b011111: 2, 0b001111: 1},  # claw
        0b001101: {0b111111: 12, 0b011111: 6, 0b001111: 2, 0b011110: 4},  # path on 4
        0b000011: {0b111111: 12, 0b011111: 8, 0b001111: 5, 0b011110: 4,
                   0b000111: 3, 0b001011: 3, 0b001101: 2},  # path on 3 + vertex
        0b001100: {0b111111: 3, 0b011111: 2, 0b001111: 1, 0b011110: 2,
                   0b001101: 1},  # two disjoint edges
        0b000001: {0b111111: 6, 0b011111: 5, 0b001111: 4, 0b011110: 4, 0b000111: 3,
                   0b001011: 3, 0b001101: 3, 0b000011: 2, 0b001100: 2},  # edge + 2 vertices
        0b000000: {0b111111: 1, 0b011111: 1, 0b001111: 1, 0b011110: 1, 0b000111: 1,
                   0b001011: 1, 0b001101: 1, 0b000011: 1, 0b001100: 1, 0b000001: 1},  # empty
    },
}


def _subgraph_copies(g, k: int) -> dict:
    """Copies of each undirected k-vertex class as a subgraph, induced or not.

    Each count is a closed form in the degrees d, the edge count m, the
    codegrees c(u, v) = |N(u) & N(v)| and the triangles through each vertex;
    only K4 walks the common neighbours of each edge.  Needs n >= k.
    """
    from .graphs import to_edge_list
    rows, n, edges = g._masks[0], g.n, to_edge_list(g)
    degrees = [row.bit_count() for row in rows]
    m = len(edges)
    paths3 = sum(d * (d - 1) // 2 for d in degrees)
    if k == 3:
        triangles = sum((rows[u] & rows[v]).bit_count() for u, v in edges) // 3
        return {0b111: triangles, 0b011: paths3, 0b001: m * (n - 2),
                0b000: math.comb(n, 3)}
    twice_at = [0] * n  # twice the triangles through each vertex
    paths4 = diamonds = cliques = 0
    for u, v in edges:
        common = rows[u] & rows[v]
        c = common.bit_count()
        twice_at[u] += c
        twice_at[v] += c
        paths4 += (degrees[u] - 1) * (degrees[v] - 1)
        diamonds += c * (c - 1) // 2
        # Each K4 once, from its two least vertices: the edges among the
        # common neighbours above v.
        above = common >> v + 1 << v + 1
        while above:
            low = above & -above
            above ^= low
            cliques += (rows[low.bit_length() - 1] & above).bit_count()
    triangles = sum(twice_at) // 6
    squares = 0
    for u in range(n):
        row = rows[u]
        for other in rows[u + 1:]:
            c = (row & other).bit_count()
            squares += c * (c - 1) // 2
    return {
        0b111111: cliques,
        0b011111: diamonds,
        0b001111: sum(t * (d - 2) for t, d in zip(twice_at, degrees)) // 2,
        0b011110: squares // 2,
        0b000111: triangles * (n - 3),
        0b001011: sum(d * (d - 1) * (d - 2) // 6 for d in degrees),
        0b001101: paths4 - 3 * triangles,
        0b000011: paths3 * (n - 3),
        0b001100: m * (m - 1) // 2 - paths3,
        0b000001: m * math.comb(n - 2, 2),
        0b000000: math.comb(n, 4),
    }


def _constructed_census(g, k: int) -> dict:
    # Every induced copy of H holds s(G, H) copies of G, so from the most
    # edges down: induced[G] = copies[G] - sum of s(G, H) * induced[H].
    if g.n < k:
        return {}
    copies = _subgraph_copies(g, k)
    induced: dict[int, int] = {}
    for mask, containers in _SUBGRAPH_COPIES[k].items():
        induced[mask] = copies[mask] - sum(s * induced[h] for h, s in containers.items())
    return {_mask_identifier(mask, k, False): count for mask, count in induced.items() if count}


def _cell_tests(g, k: int) -> tuple:
    """How to read the local mask of k-1 prefix vertices of a digraph plus a last
    one: a cell between prefix vertices is a bit test (i, j, bit) on the
    out-rows, which hold self-loops; a cell with the last vertex splits its
    candidates (rows, i, bit), (i, last) by prefix vertex i's out-row, (last, i)
    by its in-row and (last, last) by the loop set."""
    out_rows, in_rows = g._masks
    loop_rows = (sum(1 << v for v in range(g.n) if out_rows[v] >> v & 1),) * g.n
    last = k - 1
    prefix_cells, splits = [], []
    for bit in range(k * k):
        i, j = divmod(bit, k)
        if i < last and j < last:
            prefix_cells.append((i, j, 1 << bit))
        elif i < last:
            splits.append((out_rows, i, 1 << bit))
        elif j < last:
            splits.append((in_rows, j, 1 << bit))
        else:
            splits.append((loop_rows, 0, 1 << bit))
    return out_rows, prefix_cells, splits


def _tally_split(tally: dict, tests: tuple, prefix: tuple, members: int) -> int:
    """Add the subsets of ``prefix`` plus one of ``members`` to ``tally`` per local
    mask: ``members`` split cell by cell into parts of equal mask, each counted
    by its size.  Returns the prefix's own mask."""
    out_rows, prefix_cells, splits = tests
    mask = 0
    for i, j, bit in prefix_cells:
        if out_rows[prefix[i]] >> prefix[j] & 1:
            mask |= bit
    parts = [(members, mask)]
    for rows, i, bit in splits:
        row = rows[prefix[i]] & members
        if not row:
            continue
        split = []
        for part, part_mask in parts:
            inside = part & row
            if inside:
                split.append((inside, part_mask | bit))
            if inside != part:
                split.append((part ^ inside, part_mask))
        parts = split
    for part, part_mask in parts:
        tally[part_mask] = tally.get(part_mask, 0) + part.bit_count()
    return mask


def _named(tally: dict, k: int) -> dict:
    """Counts by identifier from directed local-mask counts, each distinct mask named once."""
    counts: dict[str, int] = {}
    for mask, count in tally.items():
        if count:
            identifier = _mask_identifier(_canonical_mask(mask, k), k, True)
            counts[identifier] = counts.get(identifier, 0) + count
    return counts


def _tally_by_prefix(g, k: int) -> dict:
    """Count the k-vertex induced subgraphs of a digraph by identifier, splitting
    the candidates above each (k-1)-prefix, in combinations order."""
    tests, full = _cell_tests(g, k), (1 << g.n) - 1
    tally: dict[int, int] = {}
    for prefix in combinations(range(g.n - 1), k - 1):
        _tally_split(tally, tests, prefix, full >> prefix[-1] + 1 << prefix[-1] + 1)
    return _named(tally, k)


def _triad_census(g) -> dict:
    """The directed k=3 census, built from the skeleton edges v < u (an arc either way).

    With local labels v=0, u=1, w=2 (cell (i, j) is bit 3i+j), each edge counts
    the w adjacent to neither by popcount, looped or not, and splits the w that
    give each connected triad once: in N(v) | N(u) above u, or in N(u) - N(v)
    between.  The empty triads with j looped members are C(L, j) * C(n-L, 3-j),
    L the looped vertices, less the other triads with j.
    """
    from .graphs import Digraph, _bits
    n, rows = g.n, g._rows
    loops = sum(1 << v for v in range(n) if rows[v] >> v & 1)
    # Past half the possible arcs, tally the arc complement instead: the same
    # triads with their off-diagonal cells flipped, over fewer skeleton edges.
    arcs = sum(map(int.bit_count, rows)) - loops.bit_count()
    flip = 0b011101110 if 2 * arcs > n * (n - 1) else 0
    if flip:
        g = Digraph._from_rows(n, [row ^ ((1 << n) - 1) ^ (1 << v) for v, row in enumerate(rows)])
    tests, (out_rows, in_rows) = _cell_tests(g, 3), g._masks
    near = [(out | into) & ~(1 << v) for v, (out, into) in enumerate(zip(out_rows, in_rows))]
    tally: dict[int, int] = {}
    for v in range(n):
        near_v = near[v]
        for u in _bits(near_v >> v + 1 << v + 1):
            near_u = near[u]
            either = near_v | near_u
            between = near_u & ~near_v & (1 << u) - (2 << v)
            mask = _tally_split(tally, tests, (v, u), either >> u + 1 << u + 1 | between)
            apart = n - either.bit_count()
            if apart:
                looped = (loops & ~either).bit_count()
                tally[mask | 1 << 8] = tally.get(mask | 1 << 8, 0) + looped
                tally[mask] = tally.get(mask, 0) + apart - looped
    with_loops = [0] * 4
    for mask, count in tally.items():
        with_loops[(mask & 0b100010001).bit_count()] += count
    looped = loops.bit_count()
    for j, mask in enumerate((0, 1, 0b10001, 0b100010001)):
        tally[mask] = math.comb(looped, j) * math.comb(n - looped, 3 - j) - with_loops[j]
    return _named({mask ^ flip: count for mask, count in tally.items()}, 3)


def count_network_motifs(g, k: int) -> MotifCensus:
    """Bucket all k-vertex induced subgraphs by canonical form.

    An undirected census is built, not searched: closed-form counts of every
    class as a subgraph, induced or not, converted to induced counts from the
    most edges down.  A directed k=3 census is built from the skeleton edges,
    the empty triads in closed form; a directed k=4 census splits the
    candidates above each 3-prefix.  Classes appear in sorted identifier
    order, and only those that occur.  Counts sum to C(n, k) and are
    invariant under vertex relabeling.
    """
    from .graphs import Digraph
    if k not in CENSUS_CAPS:
        raise MotifError(f"motif size must be one of {sorted(CENSUS_CAPS)}, got {k}")
    if g.n > CENSUS_CAPS[k]:
        raise CapExceeded(f"census for k={k} capped at {CENSUS_CAPS[k]} vertices, got {g.n}")
    if not isinstance(g, Digraph):
        counts = _constructed_census(g, k)
    elif k == 3:
        counts = _triad_census(g)
    else:
        counts = _tally_by_prefix(g, k)
    return MotifCensus(k, dict(sorted(counts.items())), None)


def _rewired_copy(g, edges: list, rng: random.Random):
    """A degree-preserving rewiring of ``g``, whose ``to_edge_list`` is ``edges``:
    repeated double edge swap attempts, 10 per edge.

    Attempt: draw two pair indices, and for a graph a coin that flips the
    second pair; swap their ends unless either pair is a self-loop or the swap
    makes one, a repeated pair or a pair already present.  So every degree and
    every self-loop is kept.  An index is drawn as ``rng.randrange(size)``
    draws it, from ``size.bit_length()`` random bits redrawn while too large,
    so the generator's stream is the same.
    """
    from .graphs import Digraph
    directed = isinstance(g, Digraph)
    pairs = edges.copy()
    present = set(pairs)
    size = len(pairs)
    width, getrandbits, coin = size.bit_length(), rng.getrandbits, rng.random
    for _ in range(REWIRE_ATTEMPTS_PER_EDGE * size):
        i = getrandbits(width)
        while i >= size:
            i = getrandbits(width)
        j = getrandbits(width)
        while j >= size:
            j = getrandbits(width)
        if i == j:
            continue
        a, b = pairs[i]
        c, d = pairs[j]
        if not directed and coin() < 0.5:
            c, d = d, c
        if a == b or c == d or a == d or c == b:
            continue
        e1, e2 = (a, d), (c, b)
        if not directed:
            if a > d:
                e1 = (d, a)
            if c > b:
                e2 = (b, c)
        if e1 == e2 or e1 in present or e2 in present:
            continue
        present.discard(pairs[i])
        present.discard(pairs[j])
        present.add(e1)
        present.add(e2)
        pairs[i], pairs[j] = e1, e2
    return type(g)(g.n, pairs)


def motif_significance(g, k: int, rewires: int, seed) -> MotifCensus:
    """Census with a null-model background: mean counts over rewired samples.

    Each sample is a fresh rewiring of the input that keeps every degree and
    every self-loop (repeated double edge swaps, 10 attempts per edge).  Zero
    requested samples, or a graph too small to rewire, leaves the background
    unavailable (None); an edgeless graph is refused only when samples are
    requested.
    """
    from .graphs import to_edge_list
    observed = count_network_motifs(g, k)
    if rewires < 1:
        return observed
    edges = to_edge_list(g)
    if not edges:
        raise MotifError("motif significance needs at least one edge")
    if len(edges) < 2:
        return observed
    rng = random.Random(seed)
    totals: dict[str, float] = {}
    for _ in range(rewires):
        sample = count_network_motifs(_rewired_copy(g, edges, rng), k)
        for identifier, count in sample.counts.items():
            totals[identifier] = totals.get(identifier, 0.0) + count
    background = {identifier: total / rewires for identifier, total in sorted(totals.items())}
    return MotifCensus(k, observed.counts, background)
