"""Expected answers for benchmark jobs, computed without the program under test.

Nothing here imports ``observement``.  Each function works from the facts the
generator planted (a partition, a planted embedding, the protein a gene was
built from) or from a direct computation written independently of the
library: counterexamples from relation preimages, motif censuses from
popcounts, canonical graph6 strings from a branch-and-bound search, grammar
membership from an equivalent regular expression.
"""

from __future__ import annotations

import itertools
import re
from math import comb

# --- observement systems ----------------------------------------------------


def counterexamples(obj_rels, obs_rels, mapping, pairing):
    """Representation counterexamples as the CLI prints them, in its order.

    ``obj_rels`` and ``obs_rels`` map a relation name to a set of tuples.
    Forward failures come from the object relation itself; backward ones from
    the preimages of each observation tuple, so nothing enumerates the full
    product of the object set.
    """
    preimage: dict = {}
    for obj, value in mapping.items():
        preimage.setdefault(value, []).append(obj)
    lines = []
    for r_name in sorted(pairing):
        r = obj_rels[r_name]
        p = obs_rels[pairing[r_name]]
        bad = {}
        for members in r:
            if tuple(mapping[x] for x in members) not in p:
                bad[members] = "=>"
        for image in p:
            for members in itertools.product(*(preimage.get(v, ()) for v in image)):
                if members not in r:
                    bad[members] = "<="
        lines.extend(
            f"{r_name}({', '.join(members)}) fails {arrow}"
            for members, arrow in sorted(bad.items())
        )
    return lines


def representation(fixture) -> list:
    """(name, mapping, counterexample lines) for each algorithm, in file order."""
    return [
        (name, mapping, counterexamples(fixture["obj_rels"], fixture["obs_rels"], mapping, pairing))
        for name, mapping, pairing in fixture["algorithms"]
    ]


def verify_output(checked: list, only=None) -> str:
    out = []
    for name, _, failures in checked:
        if only is not None and name != only:
            continue
        if not failures:
            out.append(f"{name}: holds")
        else:
            out.append(f"{name}: fails ({len(failures)} counterexamples)")
            out.extend(f"  {line}" for line in failures)
    return "".join(line + "\n" for line in out)


def kernel_verdict(checked: list) -> str:
    """Strong iff every valid algorithm induces the same partition of the objects.

    A translation a -> b exists exactly when b is constant on the fibres of
    a, so the verdict needs no search over candidate functions.
    """
    partitions = set()
    for _, mapping, failures in checked:
        if failures:
            continue
        fibres: dict = {}
        for obj, value in mapping.items():
            fibres.setdefault(value, set()).add(obj)
        partitions.add(frozenset(frozenset(f) for f in fibres.values()))
    if not partitions:
        return "NotObservement"
    return "Strong" if len(partitions) == 1 else "Weak"


# --- graph6 and canonical strings -------------------------------------------


def graph6(n: int, bits) -> str:
    """Short-form graph6: size byte, then the column-wise upper triangle in 6-bit groups."""
    chars = [chr(63 + n)]
    for start in range(0, len(bits), 6):
        group = list(bits[start:start + 6]) + [0] * (6 - len(bits[start:start + 6]))
        chars.append(chr(63 + int("".join(map(str, group)), 2)))
    return "".join(chars)


def triangle_bits(n: int, adjacent) -> list:
    return [1 if adjacent(i, j) else 0 for j in range(1, n) for i in range(j)]


def canonical_graph6(n: int, edges) -> str:
    """Lexicographically smallest graph6 code over all vertex orders.

    Positions are filled one at a time; placing the vertex for position j
    fixes the j bits of column j, so any prefix already larger than the best
    complete code is cut.  The cut is exact, so the minimum is the one a full
    scan of the n! orders finds.
    """
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best: list = [None]
    order: list = []

    def place(bits, used):
        j = len(order)
        if j == n:
            if best[0] is None or bits < best[0]:
                best[0] = bits
            return
        for v in range(n):
            if used >> v & 1:
                continue
            column = [1 if adj[v] >> order[i] & 1 else 0 for i in range(j)]
            trial = bits + column
            if best[0] is not None and trial > best[0][:len(trial)]:
                continue
            order.append(v)
            place(trial, used | 1 << v)
            order.pop()

    place([], 0)
    return graph6(n, best[0])


def lzw_codes(text: str, alphabet) -> tuple:
    """Textbook LZW: (new dictionary entries, code stream)."""
    table = {symbol: code for code, symbol in enumerate(alphabet)}
    entries, codes, current = [], [], ""
    for ch in text:
        if current + ch in table:
            current += ch
        else:
            codes.append(table[current])
            table[current + ch] = len(table)
            entries.append(current + ch)
            current = ch
    if current:
        codes.append(table[current])
    return entries, codes


def complexity_line(text: str) -> str:
    if not text:
        return "0\t0\t0\n"
    entries, codes = lzw_codes(text, sorted(set(text)))
    return f"{len(text)}\t{sum(map(len, entries))}\t{len(codes)}\n"


# --- motif censuses ---------------------------------------------------------


def _canonical_identifier(mask: int, k: int, directed: bool) -> str:
    """Smallest relabelled mask, spelled as the census spells its class ids."""
    if directed:
        cells = [(i, j) for i in range(k) for j in range(k)]
        bit = {(i, j): i * k + j for i, j in cells}
    else:
        cells = [(i, j) for j in range(1, k) for i in range(j)]
        bit = {cell: index for index, cell in enumerate(cells)}
    best = None
    for perm in itertools.permutations(range(k)):
        out = 0
        for i, j in cells:
            if mask >> bit[(i, j)] & 1:
                a, b = perm[i], perm[j]
                if not directed and a > b:
                    a, b = b, a
                out |= 1 << bit[(a, b)]
        if best is None or out < best:
            best = out
    if directed:
        return f"d{k}:" + format(best, f"0{k * k}b")
    return graph6(k, [best >> b & 1 for b in range(len(cells))])


def census(n: int, pairs, k: int, directed: bool) -> dict:
    """Induced k-vertex subgraph counts by class, via popcounts.

    The first k-1 vertices of each k-set are enumerated; the last one is
    counted in bulk per adjacency pattern with bitmask intersections.
    """
    out = [0] * n
    into = [0] * n
    for u, v in pairs:
        out[u] |= 1 << v
        into[v] |= 1 << u
        if not directed:
            out[v] |= 1 << u
    full = (1 << n) - 1
    counts: dict = {}
    ids: dict = {}

    def add(mask, count):
        if count:
            key = ids.get(mask)
            if key is None:
                key = ids[mask] = _canonical_identifier(mask, k, directed)
            counts[key] = counts.get(key, 0) + count

    if not directed and k == 3:
        for a, b in itertools.combinations(range(n), 2):
            higher = full & ~((2 << b) - 1)
            na, nb = out[a] & higher, out[b] & higher
            base = out[a] >> b & 1
            both = (na & nb).bit_count()
            only_a = na.bit_count() - both
            only_b = nb.bit_count() - both
            none = higher.bit_count() - both - only_a - only_b
            add(base, none)
            add(base | 2, only_a)
            add(base | 4, only_b)
            add(base | 6, both)
    elif not directed and k == 4:
        for a, b, c in itertools.combinations(range(n), 3):
            higher = full & ~((2 << c) - 1)
            base = (out[a] >> b & 1) | (out[a] >> c & 1) << 1 | (out[b] >> c & 1) << 2
            rows = (out[a], out[b], out[c])
            for pattern in range(8):
                sel = higher
                for index in range(3):
                    sel &= rows[index] if pattern >> index & 1 else ~rows[index]
                add(base | pattern << 3, sel.bit_count())
    elif directed and k == 3:
        # Local positions 0, 1, 2 for a < b < c; bit i*3+j is the arc i -> j.
        for a, b in itertools.combinations(range(n), 2):
            higher = full & ~((2 << b) - 1)
            base = (out[a] >> b & 1) << 1 | (out[b] >> a & 1) << 3
            rows = ((out[a], 2), (into[a], 6), (out[b], 5), (into[b], 7))
            for pattern in range(16):
                sel = higher
                mask = base
                for index, (row, bit) in enumerate(rows):
                    if pattern >> index & 1:
                        sel &= row
                        mask |= 1 << bit
                    else:
                        sel &= ~row
                add(mask, sel.bit_count())
    else:
        raise ValueError(f"no census oracle for k={k}, directed={directed}")
    return counts


def census_output(counts: dict) -> str:
    return "".join(f"{key}\t{counts[key]}\tNA\n" for key in sorted(counts))


def check_significance(stdout: str, n: int, pairs) -> str | None:
    """Observed counts exactly; background means through rewiring invariants.

    Degree-preserving rewiring keeps the edge count and every degree, so each
    sample, and therefore the mean, keeps three linear sums of the k=3
    undirected census: the triple count, the edges per triple, and the paths
    of length two.
    """
    counts = census(n, pairs, 3, False)
    rows = [line.split("\t") for line in stdout.splitlines()]
    if [r[0] for r in rows] != sorted(counts):
        return "census classes differ"
    background = {}
    for key, count, mean in rows:
        if int(count) != counts[key]:
            return f"count of {key} is {count}, expected {counts[key]}"
        background[key] = float(mean)
    if len(background) != 4:
        return "significance check needs all four k=3 classes observed"
    edges_of = {key: _edge_count(key) for key in background}
    degrees = [0] * n
    for u, v in pairs:
        degrees[u] += 1
        degrees[v] += 1
    by_edges = {edges_of[key]: value for key, value in background.items()}
    sums = (
        (sum(background.values()), comb(n, 3)),
        (sum(e * value for e, value in by_edges.items()), len(pairs) * (n - 2)),
        (by_edges[2] + 3 * by_edges[3], sum(comb(d, 2) for d in degrees)),
    )
    for got, want in sums:
        if abs(got - want) > 1e-5 * max(1, want):
            return f"background sum {got} breaks rewiring invariant {want}"
    return None


def _edge_count(identifier: str) -> int:
    n = ord(identifier[0]) - 63
    bits = "".join(format(ord(ch) - 63, "06b") for ch in identifier[1:])
    return bits[: n * (n - 1) // 2].count("1")


# --- graph witnesses ----------------------------------------------------------


def _mapping(stdout: str, size: int, target: int):
    lines = stdout.splitlines()
    if len(lines) != size:
        return None
    mapping = {}
    for expected, line in enumerate(lines):
        parts = line.split()
        if len(parts) != 2 or int(parts[0]) != expected:
            return None
        mapping[expected] = int(parts[1])
    if len(set(mapping.values())) != size or not all(0 <= w < target for w in mapping.values()):
        return None
    return mapping


def check_embedding(stdout: str, small_n: int, small_edges, big_n: int, big_edges,
                    directed: bool) -> str | None:
    mapping = _mapping(stdout, small_n, big_n)
    if mapping is None:
        return "not an injective vertex map"
    host = set(big_edges)
    for u, v in small_edges:
        a, b = mapping[u], mapping[v]
        if not directed and a > b:
            a, b = b, a
        if (a, b) not in host:
            return f"edge ({u},{v}) maps to non-edge ({a},{b})"
    return None


def check_isomorphism(stdout: str, n: int, edges_a, edges_b, directed: bool) -> str | None:
    if len(edges_a) != len(edges_b):
        return "edge counts differ"
    reason = check_embedding(stdout, n, edges_a, n, edges_b, directed)
    return reason and f"not an isomorphism: {reason}"


def expect_none(stdout: str) -> str | None:
    return None if stdout == "none\n" else "expected 'none'"


# --- graph text formats -------------------------------------------------------


def edge_text(n: int, pairs, directed: bool) -> str:
    head = "digraph" if directed else "graph"
    return "".join([f"{head} {n}\n"] + [f"{u} {v}\n" for u, v in sorted(pairs)])


def adjacency_text(n: int, pairs, directed: bool) -> str:
    rows = [[] for _ in range(n)]
    for u, v in pairs:
        rows[u].append(v)
        if not directed:
            rows[v].append(u)
    head = "dadjlist" if directed else "adjlist"
    return "".join([f"{head} {n}\n"] + [
        f"{v}: {' '.join(map(str, sorted(row)))}".rstrip() + "\n" for v, row in enumerate(rows)
    ])


def matrix_text(n: int, pairs, directed: bool) -> str:
    cells = [["0"] * n for _ in range(n)]
    for u, v in pairs:
        cells[u][v] = "1"
        if not directed:
            cells[v][u] = "1"
    head = "dmatrix" if directed else "matrix"
    return "".join([f"{head} {n}\n"] + ["".join(row) + "\n" for row in cells])


def graph6_text(n: int, pairs) -> str:
    edges = {(min(p), max(p)) for p in pairs}
    return graph6(n, triangle_bits(n, lambda i, j: (i, j) in edges)) + "\n"


# --- strings, genes, motifs, kinship, percolation ----------------------------


def generated_strings(regex: str, alphabet: str, max_len: int) -> str:
    """Every string up to max_len that the regex accepts, shortest first."""
    pattern = re.compile(regex)
    found = [
        "".join(chars)
        for length in range(1, max_len + 1)
        for chars in itertools.product(sorted(alphabet), repeat=length)
        if pattern.fullmatch("".join(chars))
    ]
    return "".join(s + "\n" for s in sorted(found, key=lambda s: (len(s), s)))


def motif_regex(tokens) -> str:
    parts = []
    for kind, value in tokens:
        if kind == "lit":
            parts.append(re.escape(value))
        elif kind == "any":
            parts.append("[" + "".join(sorted(value)) + "]")
        else:
            parts.append(f".{{{value}}}")
    return "".join(parts)


def motif_offsets(tokens, sequence: str, anchored: bool) -> list:
    body = motif_regex(tokens)
    if anchored:
        return [0] if re.match(body, sequence, re.DOTALL) else []
    return [m.start() for m in re.finditer(f"(?=({body}))", sequence, re.DOTALL)]


def derived_motif(sequences, class_cap: int) -> str:
    parts: list = []
    for column in zip(*sequences):
        symbols = sorted(set(column))
        if len(symbols) == 1:
            parts.append(symbols[0])
        elif len(symbols) <= class_cap:
            parts.append("{" + ",".join(symbols) + "}")
        elif parts and parts[-1].startswith("x("):
            parts[-1] = f"x({int(parts[-1][2:-1]) + 1})"
        else:
            parts.append("x(1)")
    return " ".join(parts) + "\n"


def kin_closure(start: str, neighbours: dict) -> set:
    seen = {start}
    stack = [start]
    while stack:
        for w in neighbours.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def kin_relation(arcs, partners, relation: str, u: str, v: str) -> bool:
    children: dict = {}
    for parent, child in arcs:
        children.setdefault(parent, set()).add(child)
    if relation == "is_child_of":
        return (v, u) in arcs
    if relation == "is_parent_of":
        return (u, v) in arcs
    if relation == "partnered":
        return frozenset((u, v)) in partners
    if relation == "is_descendant_of":
        return u != v and u in kin_closure(v, children)
    if relation == "is_predecessor_of":
        return u != v and v in kin_closure(u, children)
    if relation == "is_related_to":
        links: dict = {}
        for a, b in list(arcs) + [tuple(e) for e in partners]:
            links.setdefault(a, set()).add(b)
            links.setdefault(b, set()).add(a)
        return u == v or v in kin_closure(u, links)
    raise ValueError(relation)


def check_percolation(stdout: str, n: int, p_values, trials: int) -> str | None:
    """Header and p column exactly; each mean fraction is a mean of component sizes over n."""
    lines = stdout.splitlines()
    if not lines or lines[0] != "p,mean_fraction" or len(lines) != len(p_values) + 1:
        return "bad CSV shape"
    for p, line in zip(p_values, lines[1:]):
        text, _, fraction = line.partition(",")
        if text != f"{p:.6g}":
            return f"p column {text!r}, expected {p:.6g}"
        value = float(fraction)
        total = value * n * trials
        if not (1 / n - 1e-6 <= value <= 1 + 1e-6) or abs(total - round(total)) > 1e-3:
            return f"fraction {value} is not a mean of component sizes"
        if p == 0 and abs(value - 1 / n) > 1e-6:
            return "p=0 must leave isolated vertices"
        if p == 1 and value != 1.0:
            return "p=1 must give one component"
    return None
