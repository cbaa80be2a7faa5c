"""The CLI's bytes over a fixed set of seeded commands, checked against a digest.

Each line of ``golden_cli.txt`` is the first 16 hex digits of a sha256 over
one command's exit code, stdout and stderr, with the temporary directory
replaced by a placeholder, followed by the command's label.  The commands:

* the contract loop's seeded generator (``test_cli_contract.random_command``);
* extra ``motif derive`` and ``graph iso`` commands, which that generator
  rarely makes succeed: equal-length sequence files, and graph pairs where
  the second is most often a relabelled copy of the first;
* extra ``tree`` commands on kinship files that mix plain, quoted and
  escaped names, quoted and unquoted labels, and blank padding of several
  kinds, a quarter of them with one fault;
* extra ``tree`` commands on genealogies shaped like the benchmark's, each
  with two or three faults: declarations twice or after an edge, malformed
  lines, repeated arcs and reversed partner edges, empty names, self-parents,
  third parents and cycles, half of them with one quoted or escaped name;
* extra ``system`` commands on fixtures of 20-60 objects with unary, binary,
  ternary and empty relations, whose blocks hold repeated and blank lines,
  blanks of several kinds and several kinds of line break, and whose
  algorithms hold or fail forward or backward;
* the same ``system`` commands with one fault per fixture: a wrong-arity line
  at the start, middle or end of a block, or after a comment that splits it,
  several undeclared members in one relation, a relation of arity 0, a
  relation declared twice, a header glued to a token, and faulty headers on
  the first line and on an unterminated last line, after each blank and break;
* every job of the ``bench/run.py --quick`` rounds and probes, read from
  ``bench/workloads.py``, which bring realistic sizes;
* extra ``graph convert`` commands from every text format to every target,
  and ``complexity`` and ``percolate`` commands, at 0-300 vertices, on files
  with comments, blank and padded lines and repeated and reversed pairs,
  about a third of them with two or more faults of one kind;
* extra ``complexity`` commands, three in four of them ``--canonical``, on
  0-8-vertex graphs at densities 0.05-0.95 and on tie-heavy graphs: cycles,
  stars, the cube, complete bipartite and multipartite graphs, disjoint
  cliques, edgeless and complete graphs, and blow-ups with many twins, each
  under a random relabelling;
* extra ``graph motifs --significance`` commands on graphs, digraphs and
  looped digraphs whose edge counts straddle powers of two, where drawing a
  pair index takes a redraw most often;
* extra ``graph motifs`` commands on digraphs of 0-200 vertices, ``-k 3`` and
  for a quarter of those of at most 60 vertices ``-k 4``: random ones of every
  mean degree, edgeless and complete ones, one mutual dyad, in-stars and
  out-stars, with none, 5%, half or all of their vertices looped.
* extra ``graph convert``, ``graph sub`` and ``complexity`` commands on edge
  and adjacency texts of 0-40 vertices with the header first, half of them
  plain (blank lines, space and tab padding, "\r\n" line ends, no final line
  end, adjacency rows shuffled, left out or empty) and half with one near
  miss: another line break or blank, a comment before the header, a vertex
  spelled ``007``, ``-0``, ``+1`` or in Arabic-Indic digits, a vertex out of
  range, a self-loop in an undirected text, a duplicate adjacency row,
  ``1:2`` with no blank, or an asymmetric undirected adjacency list.
  Later ones take other valid spellings in turn: line ends "\r", "\x1d",
  "\x1e" or "\u2029", "\x1f" among the padding, blanks before an adjacency
  colon, and a vertex count written with leading zeros.
* extra ``grammar gen`` commands: the benchmark's four grammar templates at
  ``--max-len`` 0-9 (the path language at most 8), and grammars with unit
  chains, ``+`` on nonterminals, duplicate alternatives, unreachable and
  unproductive rules and a solitary start line, some of them finite
  languages at ``--max-len 1000000000``, all on random letters and digits;
  later ones take ambiguous grammars of ``X+ Y+`` runs at ``--max-len``
  40-800, and grammars whose alternatives of 3-6 items share prefixes;
* one more ``kinfault/`` command, with a refused line of one 16k-unit word;
* more ``system/`` commands, all ``system verify``, on fixtures of 3-9
  objects: a 4-ary relation, unary relations that fail only backward, binary
  and ternary relations whose failing prefixes have no tuple at all, tuple
  lines repeated up to three times, and ``--alg`` among valid and failing
  algorithms;
* more ``system/`` commands, all ``system classify``, on fixtures with 3-8
  algorithms: every valid kernel equal under relabelled values, or one
  differing kernel first, in the middle or last among the valid ones, with
  invalid algorithms interleaved;
* ``graph sub`` commands of a path and then a cycle, odd three times in
  four, into the complete bipartite graph K_{s,s} for s up to 12;
* one command per cap refusal not pinned above: the vertex cap through a
  graph file and through ``percolate``, the subgraph pattern cap, the
  percolation sweep cap, both census caps, the canonical form cap, and the
  two ``grammar gen`` caps, on strings and on symbols held;
* ``tree query``, ``tree descendants`` and ``automaton graph`` on files whose
  lines end in each ``str.splitlines`` break in turn, each once clean and once
  with a faulty fourth line;
* one command per refusal that no command above pins: paired relations of
  different arities (and ``system classify`` on the same file), a codon table
  with two stops, a wildcard of length 0, a leading '+' and an empty
  alternative in a grammar, long-form and trailing graph6 bytes, and
  ``complexity`` on a lone sequence header.

A change to any of those bytes fails the test, which names each changed
command.  To re-record after a change that is meant, run this module as a
script from the repository root:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import hashlib
import itertools
import random
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner
from test_cli_contract import random_command

from observement.cli import cli
from observement.familytree import RELATIONS

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_cli.txt"
BENCH = HERE.parent / "bench"
PLACEHOLDER = "<tmp>"


def motif_derive_command(rng, write):
    length = rng.randint(0, 6)
    lines = ["".join(rng.choice("ACGT") for _ in range(length))
             for _ in range(rng.choice([0, 1, 2, 2, 3, 4, 5]))]
    if lines and rng.random() < 0.15:
        lines[rng.randrange(len(lines))] += "A"
    if rng.random() < 0.3:
        lines = [line for i, line in enumerate(lines) for line in (f">s{i}", line)]
    return ["motif", "derive", write("\n".join(lines) + "\n"),
            "--class-cap", str(rng.randint(-1, 4))]


# Kinship names, each with the spellings that read back as it: plain words,
# double and single quotes, backslash escapes, and a no-break space, which is
# part of a word.
KIN_SPELLINGS = {
    "a": ["a", '"a"', "'a'", "\\a"],
    "b": ["b", "b", '"b"'],
    "c": ["c", "c", "'c'"],
    "d": ["d", "d"],
    "e#f": ["e#f", '"e#f"'],
    "p 1": ['"p 1"', "'p 1'", "p\\ 1"],
    'q"r': ['"q\\"r"', "'q\"r'", 'q\\"r'],
    "x\\y": ['"x\\\\y"', "'x\\y'", "x\\\\y"],
    "n\xa0b": ["n\xa0b", '"n\xa0b"'],
}
KIN_LABELS = ['"Ann"', '""', "Ann", "'Bo Cy'", '"Di \\"E\\""', '"F\xa0G"']
KIN_PADDING = ["", "", "", " ", "\t", "\xa0", "\u3000"]


def kinship_command(rng, write):
    names = rng.sample(sorted(KIN_SPELLINGS), rng.randint(2, len(KIN_SPELLINGS)))

    def spell(name):
        return rng.choice(KIN_SPELLINGS[name])

    edges, parents = [], {}
    for i, child in enumerate(names):
        for parent in rng.sample(names[:i], min(i, rng.choice([0, 1, 2, 2]))):
            parents.setdefault(child, []).append(parent)
            edges.append(f"{spell(parent)} -> {spell(child)}")
    for _ in range(rng.randint(0, 2)):
        u, v = rng.sample(names, 2)
        if u not in parents.get(v, ()) and v not in parents.get(u, ()):
            edges.append(f"{spell(u)} <-> {spell(v)}")
    rng.shuffle(edges)
    lines = [f"person {spell(name)}" + (f" {rng.choice(KIN_LABELS)}" if rng.random() < 0.5
                                        else "")
             for name in names if rng.random() < 0.4] + edges
    if rng.random() < 0.25:  # one fault: a cycle, a repeat, a late declaration or a bad line
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(
            [f"{spell(names[-1])} -> {spell(names[0])}", rng.choice(lines or ["a -> b"]),
             f"person {spell(names[0])}", f"{spell(names[0])} {spell(names[1])}"]))
    for _ in range(rng.randint(0, 2)):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "# note", "  # c"]))
    lines = [rng.choice(KIN_PADDING) + line + rng.choice(KIN_PADDING) for line in lines]
    path = write("\n".join(lines) + "\n")
    return tree_args(rng, path, names)


def tree_args(rng, path, names):
    """``tree descendants`` or ``tree query`` on ``path`` about some of ``names``."""
    u, v = rng.choice(names), rng.choice(names)
    if rng.random() < 0.3:
        return ["tree", "descendants", path, u]
    return ["tree", "query", path, rng.choice(RELATIONS), u, v]


# The fault plans of the ``kinfault/`` family, taken in turn, each fault placed
# after the one before it.
KIN_FAULT_PLANS = [
    ("twice", "malformed"), ("malformed", "twice"), ("late", "malformed"),
    ("malformed", "late"), ("arc", "partner"), ("partner", "arc"), ("arc", "malformed"),
    ("partner", "malformed"), ("empty",), ("arc", "self"), ("partner", "third"),
    ("arc", "cycle"), ("self", "third", "cycle"), ("third", "cycle"), ("late", "arc"),
]
KIN_MALFORMED = ["{0} {1}", "person", "person {0} {1} {0}", "{0} -> {1} {0}", '"{0} -> {1}',
                 "{0} -> '{1}", "{0} -> {1}\\", 'person {0} "L\\']


def kinfault_command(rng, write, i):
    """``tree`` on a genealogy shaped like the benchmark's, 6-60 persons, with
    the faults of ``KIN_FAULT_PLANS[i % 15]`` for ``i < 100`` and a long line
    after that; odd ``i`` spell one name with quotes or an escape.

    The faults: a person declared twice, or declared after an edge named
    them; a malformed line (a wrong word count, an unclosed quote, a trailing
    escape); a repeated arc, or a partner edge repeated reversed; ``person
    ""``, ``"" -> x`` and ``"" <-> ""`` in some order; a self-parent, a third
    parent and a cycle.  The long line is one unquoted word of 16k ``<a>``
    units.
    """
    workloads = bench_workloads()
    width = rng.randint(3, 12)
    while True:  # a genealogy with an arc, a partner edge and a declaration
        people, arcs, partners, _ = family = workloads._family(rng, rng.randint(2, 5), width)
        lines = workloads._kin_text(rng, *family).splitlines()
        if arcs and partners and any(line.startswith("person ") for line in lines):
            break
    if i % 2:
        k = rng.randrange(1, len(lines))
        words = lines[k].split(" ")
        w = 1 if words[0] == "person" else rng.choice([0, 2])
        name = words[w]
        words[w] = rng.choice([f'"{name}"', f"'{name}'", f"{name[0]}\\{name[1:]}"])
        lines[k] = " ".join(words)
    genealogy, last, floor = lines[1:], people[-width:], 0

    def pick(mark):
        """The index of a random genealogy line that holds ``mark``."""
        return lines.index(rng.choice([line for line in genealogy if mark in line]))

    def place(line, after=0):
        """Insert ``line`` past the line at ``after`` and past the fault before it."""
        nonlocal floor
        floor = rng.randint(max(floor, after) + 1, len(lines))
        lines.insert(floor, line)

    for fault in KIN_FAULT_PLANS[i % len(KIN_FAULT_PLANS)] if i < 100 else ("long",):
        if fault == "long":
            place("<a>" * 2**14)
        elif fault == "twice":
            k = pick("person ")
            place(f"person {lines[k].split(' ')[1]}", k)
        elif fault == "late":
            k = pick("-> ")
            place(f"person {rng.choice(lines[k].split(' ')[::2])}", k)
        elif fault == "malformed":
            place(rng.choice(KIN_MALFORMED).format(*rng.sample(people, 2)))
        elif fault == "arc":
            k = pick(" -> ")
            place(lines[k], k)
        elif fault == "partner":
            k = pick(" <-> ")
            place(" ".join(lines[k].split(" ")[::-1]), k)
        elif fault == "empty":
            for line in rng.sample(['person ""', f'"" -> {rng.choice(people)}', '"" <-> ""'], 3):
                place(line)
        elif fault == "self":
            person = rng.choice(people)
            place(f"{person} -> {person}")
        elif fault == "third":
            child = rng.choice(last)
            had = sum(c == child for _, c in arcs)
            others = [p for p in people if p not in last and (p, child) not in arcs]
            for parent in rng.sample(others, 3 - had):
                place(f"{parent} -> {child}")
        else:
            children = {c for _, c in arcs}
            parent, child = rng.choice(sorted(a for a in arcs if a[0] not in children))
            place(f"{child} -> {parent}")
    return tree_args(rng, write("\n".join(lines) + "\n"), people)


# Fixture line breaks, all of them ``str.splitlines`` breaks, and blanks that
# ``str.split`` takes, a no-break space and an ideographic space among them.
SYSTEM_BREAKS = ["\n", "\n", "\n", "\r\n", "\u2028"]
SYSTEM_BLANKS = [" ", " ", "\t", "\xa0", "\u3000"]


def system_lines(rng):
    """The lines of a fixture whose object relations are unions of class blocks,
    so that class-constant maps hold and the others fail, and its algorithm names.

    Each algorithm labels the classes, or cuts of them, with values of its own;
    the observation relations are the union of every labelling's images.  An
    algorithm may move an object to another class's value, or have an image
    tuple dropped (it then fails forward) or one added (it fails backward).
    Relation ``e`` is declared but empty.
    """
    n = rng.randint(20, 60)
    objects = [f"o{i}" if rng.random() < 0.8 else f"o{i}#{rng.randint(0, 9)}" for i in range(n)]
    classes = rng.randint(max(2, n // 4), n // 2)
    cls = {x: i % classes if i < classes else rng.randrange(classes)
           for i, x in enumerate(rng.sample(objects, n))}
    members = [[x for x in objects if cls[x] == c] for c in range(classes)]
    arity = {"u": 1, "r": 2, "t": 3, "e": 2}
    density = {"u": rng.uniform(0.2, 0.6), "r": rng.uniform(0.05, 0.2)}
    blocks = {name: [c for c in itertools.product(range(classes), repeat=arity[name])
                     if rng.random() < share] for name, share in density.items()}
    blocks["t"] = [tuple(rng.choices(range(classes), k=3)) for _ in range(rng.randint(1, 4))]
    blocks["e"] = []
    relations = {name: {t for c in blocks[name]
                        for t in itertools.product(*map(members.__getitem__, c))}
                 for name in arity}

    values, observed, algorithms = [], {name: set() for name in arity}, []
    for a in range(rng.randint(1, 3)):
        label = {}  # an object to its value: its class, or a cut of its class
        for c, xs in enumerate(members):
            cuts = rng.choice([1, 1, 1, 2])
            for i, x in enumerate(xs):
                label[x] = f"v{a}_{c}" + (f"_{i % cuts}" if cuts > 1 else "")
        values += sorted(set(label.values()))
        images = {name: {tuple(map(label.__getitem__, t)) for t in ts}
                  for name, ts in relations.items()}
        fault = rng.choice(["", "", "move", "drop", "add"])
        if fault == "move":
            x, y = rng.sample(objects, 2)
            label[x] = label[y]
        elif fault == "drop" and images["r"]:
            images["r"].discard(rng.choice(sorted(images["r"])))
        elif fault == "add":
            name = rng.choice("ure")
            own = sorted(set(label.values()))
            images[name].add(tuple(rng.choice(own) for _ in range(arity[name])))
        for name, image in images.items():
            observed[name] |= image
        algorithms.append((f"alg{a}", label))

    def padded(line):
        margin = [""] * 3 + SYSTEM_BLANKS
        return rng.choice(margin) + "".join(
            rng.choice(SYSTEM_BLANKS) * bool(i) + word for i, word in enumerate(line.split())
        ) + rng.choice(margin)

    def block(header, tuples):
        lines = [" ".join(t) for t in tuples]
        lines += rng.sample(lines, min(len(lines), rng.randint(0, 3)))  # duplicates
        lines += ["" for _ in range(rng.randint(0, 2))]
        rng.shuffle(lines)
        return [header] + [padded(line) for line in lines]

    lines = ["# generated", "OBJECTS", " ".join(rng.sample(objects, n))]
    for name in arity:
        lines += block(f"RELATION {name}/{arity[name]}", sorted(relations[name]))
    lines += ["OBSERVATIONS", " ".join(values)]
    for name in arity:
        lines += block(f"RELATION p{name}/{arity[name]}", sorted(observed[name]))
    for name, label in algorithms:
        lines += [f"MAP {name}"] + [f"{x} {label[x]}" for x in objects]
        lines += ["PAIR"] + [f"{r} p{r}" for r in arity]
    return lines, [name for name, _ in algorithms]


def system_args(rng, path, names):
    """``system classify``, or ``verify`` with or without ``--alg``, on ``path``."""
    if rng.random() < 0.5:
        return ["system", "classify", path]
    return ["system", "verify", path] + (["--alg", rng.choice(names + ["missing"])]
                                         if rng.random() < 0.4 else [])


def system_command(rng, write):
    """``system classify`` or ``verify`` on a ``system_lines`` fixture."""
    lines, names = system_lines(rng)
    text = "".join(line + rng.choice(SYSTEM_BREAKS) for line in lines)
    return system_args(rng, write(text), names)


# Section headers, and the faults of the ``sysfault/`` family, one per fixture.
SYSTEM_HEADS = {"OBJECTS", "OBSERVATIONS", "RELATION", "MAP", "PAIR"}
SYSTEM_FAULTS = ["arity", "arity", "arity", "undeclared", "empty/0", "line/0", "duplicate",
                 "glued", "first", "last"]
# Undeclared members whose least by repr is not their least by value: a quote
# or a backslash changes how the repr starts or sorts.
UNDECLARED = ["q", "Q", "zz", "x'y", "a\\b", "o0x", "v", "\u00e9", "_", "o1'"]
# Faulty headers for the unterminated last line, which attaches to the
# observation universe and the last algorithm.
LAST_HEADERS = ["PAIR x", "MAP alg0", "RELATION pr/2", "RELATION r", "OBSERVATIONS v",
                "RELATION z/0", "RELATION z/-1", "MAP extra", "RELATION pu/1 x"]


def is_head(line):
    words = line.split()
    return bool(words) and words[0] in SYSTEM_HEADS


def sysfault_command(rng, write, i):
    """``system classify`` or ``verify`` on a ``system_lines`` fixture with one
    fault, ``SYSTEM_FAULTS[i % 10]``, and a blank margin before most headers.

    The faults: a wrong-arity line first, in the middle or last in an object
    or observation block, half of them after a comment line that splits the
    block; two to four undeclared members in one relation; ``RELATION x/0``
    empty or with one line; a relation declared twice in one universe; a
    header glued to the token after it; a faulty or sound header on the first
    line, or a faulty one on an unterminated last line, each after one of the
    blanks and breaks the fixtures use, taken in turn.
    """
    lines, names = system_lines(rng)
    fault = SYSTEM_FAULTS[i % len(SYSTEM_FAULTS)]
    margin = sorted(set(SYSTEM_BLANKS))[i // 10 % 4]
    brk = sorted(set(SYSTEM_BREAKS))[i // 10 % 3]
    arity = {"u": 1, "r": 2, "t": 3, "e": 2}
    universes = {"object": ("OBJECTS", "OBSERVATIONS"), "observation": ("OBSERVATIONS", "MAP")}

    def heads():
        return [k for k, line in enumerate(lines) if is_head(line)]

    def block(name):
        """The header index of relation ``name``, the end of its block, its arity
        and its universe's members."""
        k = lines.index(f"RELATION {name}/{arity[name.removeprefix('p')]}")
        end = next(j for j in heads() if j > k)
        members = lines[lines.index("OBSERVATIONS" if name.startswith("p") else "OBJECTS") + 1]
        return k, end, arity[name.removeprefix("p")], members.split()

    def universe_slot(kind):
        """An index where a header may go inside the ``kind`` universe."""
        first, after = universes[kind]
        start = lines.index(first) + 2
        stop = next(k for k, line in enumerate(lines) if line.startswith(after) and k > start)
        return rng.choice([k for k in heads() if start <= k < stop] + [stop])

    def wrong_arity():
        name = rng.choice(["u", "r", "t", "e", "pu", "pr", "pt", "pe"])
        k, end, n, members = block(name)
        where = rng.choice(["first", "middle", "last"])
        pos = {"first": k + 1, "middle": (k + 1 + end) // 2, "last": end}[where]
        if rng.random() < 0.5:
            lines.insert(rng.randint(k + 1, pos), rng.choice(["# split", "  # split"]))
            pos += 1
        count = n + rng.choice([-1, 1]) if n > 1 else 2
        lines.insert(pos, rng.choice(SYSTEM_BLANKS).join(rng.choices(members, k=count)))

    if fault == "arity":
        wrong_arity()
    elif fault == "undeclared":
        name = rng.choice(["u", "r", "t", "pu", "pr", "pt"])
        k, end, n, members = block(name)
        for token in rng.sample(UNDECLARED, rng.randint(2, 4)):
            t = rng.choices(members, k=n)
            t[rng.randrange(n)] = token
            lines.insert(rng.randint(k + 1, end), " ".join(t))
    elif fault in ("empty/0", "line/0"):
        kind = rng.choice(sorted(universes))
        k = universe_slot(kind)
        members = lines[lines.index(universes[kind][0]) + 1].split()
        body = [" ".join(rng.sample(members, rng.randint(1, 2)))] if fault == "line/0" else []
        lines[k:k] = ["RELATION x/0"] + body
    elif fault == "duplicate":
        kind = rng.choice(sorted(universes))
        name = rng.choice("urte")
        name = "p" + name if kind == "observation" else name
        k = universe_slot(kind)
        while k <= lines.index(f"RELATION {name}/{arity[name.removeprefix('p')]}"):
            k = universe_slot(kind)
        lines.insert(k, f"RELATION {name}/{rng.choice([arity[name.removeprefix('p')], 1, 3])}")
    elif fault == "glued":
        k = rng.choice(heads())
        head, _, rest = lines[k].partition(" ")
        lines[k] = head + (rest or rng.choice(["x", "o1", "u", "1"]))
    elif fault == "first":
        del lines[0]  # the comment line: the file starts with OBJECTS
        if i // 10 % 2:
            lines[0] += rng.choice([" o1", " x", " OBJECTS"])
        else:
            wrong_arity()
    else:
        lines.append(rng.choice(LAST_HEADERS))
    text = ""
    for k, line in enumerate(lines):
        first, last = k == 0, k == len(lines) - 1
        if is_head(line):
            if fault == "first" and first or fault == "last" and last:
                line = margin + line
            else:
                line = rng.choice(["", ""] + SYSTEM_BLANKS) + line
        if fault == "first" and first or fault == "last" and k == len(lines) - 2:
            text += line + brk
        elif not (fault == "last" and last):
            text += line + rng.choice(SYSTEM_BREAKS)
        else:
            text += line
    return system_args(rng, write(text), names)


VERIFY_CASES = ["arity4", "unary", "unwalked", "repeats", "alg"]


def verify_case_lines(rng, case):
    """The lines of a small fixture for ``system verify`` whose relations are
    unions of class blocks, so that a map by class holds, and its algorithm names.

    ``arity4`` holds a 4-ary relation whose image loses one tuple and gains
    one; ``unary`` two unary relations, one empty, whose images only gain
    values, so every failure is backward; ``unwalked`` a binary and a ternary
    relation in which no tuple starts with one object, a class of its own,
    while the image gains tuples that start with its value, so each failing
    prefix has no row; ``repeats`` repeats each tuple line up to three times,
    some of them after a comment that splits the block, and loses or gains
    image tuples or moves an object; ``alg`` gives three algorithms: by
    class, by a cut of each class, and by class with one object moved.
    """
    n = rng.randint(3, 5) if case == "arity4" else rng.randint(4, 9)
    objects = [f"o{i}" for i in range(n)]
    classes = rng.randint(2, n - 1)
    cls = {x: i % classes for i, x in enumerate(rng.sample(objects, n))}
    bare = rng.choice(objects)  # in ``unwalked``, a class of its own that starts no tuple
    if case == "unwalked":
        cls[bare] = classes
    arity = {"arity4": {"q": 4, "u": 1}, "unary": {"u": 1, "w": 1},
             "unwalked": {"r": 2, "t": 3}}.get(case, {"u": 1, "r": 2, "t": 3})
    density = {1: 0.5, 2: 0.4, 3: 0.2, 4: 0.15}
    relations = {}
    for name, k in arity.items():
        blocks = {c for c in itertools.product(range(classes + 1), repeat=k)
                  if rng.random() < density[k] and name != "w"}
        relations[name] = [t for t in itertools.product(objects, repeat=k)
                           if tuple(map(cls.__getitem__, t)) in blocks
                           and not (case == "unwalked" and t[0] == bare)]
    algorithms, observed, values = [], {name: set() for name in arity}, set()
    for a in range(3 if case == "alg" else rng.randint(1, 2)):
        cuts = 2 if case == "alg" and a == 1 else 1
        label = {x: f"v{a}_{cls[x]}_{i % cuts}" for i, x in enumerate(objects)}
        values |= set(label.values())
        images = {name: {tuple(map(label.__getitem__, t)) for t in ts}
                  for name, ts in relations.items()}
        image = sorted(set(label.values()))
        fault = {"alg": "move" if a == 2 else "", "unary": "add",
                 "unwalked": "unwalked", "arity4": "both"}.get(
            case, rng.choice(["drop", "add", "move"]))
        if fault == "move":
            x, y = rng.sample(objects, 2)
            label[x] = label[y]
        for name, k in arity.items():
            if fault in ("drop", "both") and images[name]:
                images[name].discard(rng.choice(sorted(images[name])))
            if fault in ("add", "both"):
                images[name].add(tuple(rng.choices(image, k=k)))
            if fault == "unwalked":
                images[name].add((label[bare], *rng.choices(image, k=k - 1)))
        for name in arity:
            observed[name] |= images[name]
        algorithms.append((f"alg{a}", label))

    def block(header, tuples):
        lines = [" ".join(t) for t in tuples]
        if case == "repeats":
            lines = [line for line in lines for _ in range(rng.randint(1, 3))]
            rng.shuffle(lines)
            lines.insert(rng.randint(0, len(lines)), "# split")
        return [header] + lines

    lines = ["OBJECTS", " ".join(objects)]
    for name, k in arity.items():
        lines += block(f"RELATION {name}/{k}", relations[name])
    lines += ["OBSERVATIONS", " ".join(sorted(values))]
    for name, k in arity.items():
        lines += block(f"RELATION p{name}/{k}", sorted(observed[name]))
    for name, label in algorithms:
        lines += [f"MAP {name}"] + [f"{x} {label[x]}" for x in objects]
        lines += ["PAIR"] + [f"{r} p{r}" for r in arity]
    return lines, [name for name, _ in algorithms]


def verify_case_command(rng, write, i):
    """``system verify`` on a ``verify_case_lines`` fixture of ``VERIFY_CASES[i % 5]``,
    with ``--alg`` for the ``alg`` case and for some others."""
    case = VERIFY_CASES[i % len(VERIFY_CASES)]
    lines, names = verify_case_lines(rng, case)
    path = write("\n".join(lines) + "\n")
    if case == "alg" or rng.random() < 0.25:
        return ["system", "verify", path, "--alg", rng.choice(names)]
    return ["system", "verify", path]


CLASSIFY_CASES = ["equal", "first", "middle", "last"]


def classify_case_lines(rng, case):
    """The lines of a fixture for ``system classify`` with 3-8 algorithms.

    The objects fall into classes and ``r/2`` is a union of class blocks, so a
    map by class holds, and so does one that splits a class.  Each algorithm
    has its own values: a map by class under a random relabelling, or a
    split of it.  In ``equal`` every valid algorithm maps by class, so all
    kernels are equal; in ``first``, ``middle`` and ``last`` the valid one in
    that place splits a class instead.  Invalid algorithms, maps by class or
    splits whose image loses one tuple, are interleaved among the valid ones.
    """
    n = rng.randint(4, 9)
    objects = [f"o{i}" for i in range(n)]
    classes = rng.randint(2, n - 1)
    cls = {x: i % classes for i, x in enumerate(rng.sample(objects, n))}
    blocks = {(c, d) for c in range(classes) for d in range(classes) if rng.random() < 0.5}
    blocks.add((0, rng.randrange(classes)))
    relation = [(x, y) for x in objects for y in objects if (cls[x], cls[y]) in blocks]
    m = rng.randint(3, 8)
    valid = rng.randint(3 if case == "middle" else 2, m)
    kinds = ["valid"] * valid
    if case == "middle":
        kinds[rng.randint(1, valid - 2)] = "split"
    elif case != "equal":
        kinds[0 if case == "first" else -1] = "split"
    for _ in range(m - valid):
        kinds.insert(rng.randint(0, len(kinds)), "invalid")
    shared = [x for x in objects if cls[x] == 0]  # at least two, as classes < n
    algorithms, values, observed = [], set(), set()
    for a, kind in enumerate(kinds):
        names = rng.sample(range(classes), classes)
        label = {x: f"v{a}_{names[cls[x]]}" for x in objects}
        if kind == "split" or kind == "invalid" and rng.random() < 0.5:
            label[rng.choice(shared)] = f"v{a}_{classes}"
        image = {(label[x], label[y]) for x, y in relation}
        if kind == "invalid":
            image.discard(rng.choice(sorted(image)))
        values |= set(label.values())
        observed |= image
        algorithms.append((f"alg{a}", label))
    lines = ["OBJECTS", " ".join(objects), "RELATION r/2"]
    lines += [f"{x} {y}" for x, y in relation]
    lines += ["OBSERVATIONS", " ".join(sorted(values)), "RELATION p/2"]
    lines += [f"{v} {w}" for v, w in sorted(observed)]
    for name, label in algorithms:
        lines += [f"MAP {name}"] + [f"{x} {label[x]}" for x in objects] + ["PAIR", "r p"]
    return lines


def classify_case_command(rng, write, i):
    """``system classify`` on a ``classify_case_lines`` fixture of ``CLASSIFY_CASES[i % 4]``."""
    lines = classify_case_lines(rng, CLASSIFY_CASES[i % len(CLASSIFY_CASES)])
    return ["system", "classify", write("\n".join(lines) + "\n")]


def odd_last_sub_command(rng, write, i):
    """``graph sub`` of a path of 1-5 vertices, then a cycle, into K_{s,s} at s = i % 12 + 1.

    Three cycles in four are odd, a triangle or a 5-cycle, which no
    bipartite host holds; the others are even, a 4- or 6-cycle, and embed
    when s allows.  The
    host's sides are its first and last s vertices, or its even and odd ones.
    """
    s = i % 12 + 1
    cycle = rng.choice([3, 5]) if i % 4 else rng.choice([4, 6])
    path = rng.randint(1, 8 - cycle)
    pattern = [(v, v + 1) for v in range(path - 1)]
    pattern += [(path + k, path + (k + 1) % cycle) for k in range(cycle)]
    side = (lambda v: v < s) if rng.random() < 0.5 else (lambda v: v % 2)
    host = [(u, v) for v in range(2 * s) for u in range(v) if side(u) != side(v)]
    return ["graph", "sub", write(graph_text(path + cycle, pattern, False, False)),
            write(graph_text(2 * s, host, False, False))]


def graph_text(n, pairs, directed, adjacency):
    if adjacency:
        rows = [[] for _ in range(n)]
        for u, v in pairs:
            rows[u].append(v)
            if not directed:
                rows[v].append(u)
        head = "dadjlist" if directed else "adjlist"
        body = [f"{w}: {' '.join(map(str, sorted(row)))}" for w, row in enumerate(rows)]
    else:
        head = "digraph" if directed else "graph"
        body = [f"{u} {v}" for u, v in sorted(pairs)]
    return "\n".join([f"{head} {n}"] + body) + "\n"


def graph_iso_command(rng, write):
    n = rng.choice([0, 1, 2, 3, 4, 5, 6, 7, 7, 11])
    directed = rng.random() < 0.4
    pairs = {(u, v) for u in range(n) for v in range(n)
             if (u != v and (directed or u < v)) and rng.random() < 0.4}
    permutation = list(range(n))
    rng.shuffle(permutation)
    image = {(permutation[u], permutation[v]) for u, v in pairs}
    if not directed:
        image = {(min(u, v), max(u, v)) for u, v in image}
    if n > 1 and rng.random() < 0.3:
        u, v = rng.sample(range(n), 2)
        image ^= {(u, v) if directed else (min(u, v), max(u, v))}
    other = directed if rng.random() < 0.95 else not directed
    return ["graph", "iso",
            write(graph_text(n, pairs, directed, rng.random() < 0.3)),
            write(graph_text(n, image, other, rng.random() < 0.3))]


# Source formats of ``graph convert``; ``g6`` is a bare graph6 line.
GRAPH_SOURCES = ["graph", "digraph", "matrix", "dmatrix", "adjlist", "dadjlist", "g6"]
GRAPH_TARGETS = ["edges", "adjlist", "matrix", "g6"]
GRAPH_PADDING = ["", "", "", " ", "\t", "  "]


def graph6_text(n, edges):
    """The graph6 short form of an undirected graph, column by column."""
    bits = [int((i, j) in edges) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    return chr(63 + n) + "".join(chr(63 + int("".join(map(str, bits[k:k + 6])), 2))
                                 for k in range(0, len(bits), 6))


def graph_file_lines(rng, source, n, pairs):
    """Data lines of one source format, or the one graph6 line."""
    directed = source.startswith("d")
    if source == "g6":
        return [graph6_text(n, pairs)]
    if source in ("matrix", "dmatrix"):
        cells = [[0] * n for _ in range(n)]
        for u, v in pairs:
            cells[u][v] = 1
            if not directed:
                cells[v][u] = 1
        return ["".join(map(str, row)) for row in cells]
    if source in ("adjlist", "dadjlist"):
        rows = [[] for _ in range(n)]
        for u, v in pairs:
            rows[u].append(v)
            if not directed:
                rows[v].append(u)
        for row in rows:
            row += rng.sample(row, min(len(row), rng.randint(0, 1)))  # a repeat
            rng.shuffle(row)
        lines = [f"{v}: {' '.join(map(str, row))}".rstrip() for v, row in enumerate(rows)
                 if row or rng.random() < 0.7]
        rng.shuffle(lines)
        return lines
    lines = [f"{v} {u}" if not directed and rng.random() < 0.4 else f"{u} {v}"
             for u, v in pairs]
    lines += rng.sample(lines, min(len(lines), rng.randint(0, 3)))  # repeats
    rng.shuffle(lines)
    return lines


def add_graph_faults(rng, source, n, lines):
    """Two or more faults of one kind, when the source and size allow one."""
    out = n + rng.randint(0, 3)
    if source in ("graph", "digraph"):
        faults = [f"{rng.randrange(max(n, 1))} {out}", f"{out + 1} {rng.randrange(max(n, 1))}"]
        if source == "graph" and n and rng.random() < 0.5:  # a loop and a range fault
            faults[rng.randrange(2)] = f"{rng.randrange(n)} " * 2
        for fault in faults:
            lines.insert(rng.randrange(len(lines) + 1), fault)
    elif source in ("matrix", "dmatrix") and n >= 3:
        rows = [list(line) for line in lines]
        i, j, k = rng.sample(range(n), 3)
        if source == "dmatrix":  # only the shape can be wrong
            rows[i].append("0")
            rows[k][j] = "2"
        else:  # two asymmetric cells, or one and a diagonal bit
            flips = [(i, j), rng.choice([(j, k), (k, i), (k, k)])]
            for u, v in flips:
                rows[u][v] = "10"[int(rows[u][v])]
        lines[:] = ["".join(row) for row in rows]
    elif source in ("adjlist", "dadjlist") and n >= 2:
        u, v = rng.sample(range(n), 2)
        extra = {u: [out], v: [u] if source == "adjlist" else [out + 2]}
        head = {int(line.partition(":")[0]): k for k, line in enumerate(lines)}
        for w, add in extra.items():
            if w in head:
                lines[head[w]] += " " + " ".join(map(str, add))
            else:
                lines.append(f"{w}: " + " ".join(map(str, add)))
    elif source == "g6" and n * (n - 1) // 2 % 6:
        text, padding = lines[0], -(n * (n - 1) // 2) % 6
        lines[0] = text[:-1] + chr(63 + (ord(text[-1]) - 63 | (1 << padding) - 1))


def graph_command(rng, write):
    """``graph convert``, ``complexity`` or ``percolate`` on up to 300 vertices."""
    if rng.random() < 0.1:
        n = rng.choice([0, 1, 2, 5, 20, 60, 150, 300])
        ends = sorted(rng.choice(["0", "0.01", "0.05", "0.3", "0.5", "1"]) for _ in range(2))
        return ["percolate", "-n", str(n), "--p-from", ends[0], "--p-to", ends[1],
                "--steps", str(rng.randint(1, 3)), "--trials", str(rng.randint(1, 2)),
                "--seed", str(rng.randint(0, 99))]
    command = "complexity" if rng.random() < 0.15 else "convert"
    source = rng.choice(GRAPH_SOURCES if command == "convert"
                        else ["graph", "matrix", "adjlist", "g6", "digraph"])
    directed = source.startswith("d")
    sizes = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 20, 40, 61, 62]
    if source != "g6" and command == "convert":
        sizes += [63, 100, 250, 300]
    n = rng.choice(sizes)
    degree = rng.choice([0, 1, 3, 8] + ([n] if n <= 40 else []))
    p = min(1.0, degree / max(n - 1, 1))
    pairs = {(u, v) for u in range(n) for v in range(n)
             if (u < v or directed and (u > v or rng.random() < 0.1)) and rng.random() < p}
    lines = graph_file_lines(rng, source, n, pairs)
    if rng.random() < 0.35:
        add_graph_faults(rng, source, n, lines)
    if source != "g6":
        lines.insert(0, f"{source} {n}")
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "# note", "  # c 0 1"]))
    text = "\n".join(rng.choice(GRAPH_PADDING) + line + rng.choice(GRAPH_PADDING)
                     for line in lines) + "\n"
    if command == "complexity":
        return ["complexity", write(text)] + (["--canonical"] if n <= 9 else [])
    return ["graph", "convert", write(text), "--to", rng.choice(GRAPH_TARGETS)]


# Line breaks other than "\n" that ``str.splitlines`` breaks at, and blanks
# that ``str.split`` takes, none of which a plain graph text holds.
GTEXT_BREAKS = ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
GTEXT_BLANKS = ["\xa0", "\u3000"]
GTEXT_PADDING = ["", "", " ", "\t", " \t "]
# The near misses of the ``gtext/`` family, taken in turn by its odd commands.
GTEXT_MISSES = ["break-head", "break-data", "blank", "comment", "numeral", "range", "loop",
                "duplicate", "glued", "asymmetric"]
# Valid spellings the later ``gtext/`` commands take in turn: line ends
# other than ``GTEXT_BREAKS``, "\x1f" among the padding, blanks before an
# adjacency colon, and a vertex count with leading zeros.
GTEXT_SPELLINGS = ["ends", "unit-separator", "colon", "count"]
GTEXT_ENDS = ["\r", "\x1d", "\x1e", "\u2029"]
ARABIC_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66a))))


def gtext_lines(rng, source, n, pairs):
    """The header and data lines of an edge or adjacency text: edge lines
    shuffled, undirected ones half reversed; adjacency rows shuffled, each
    empty one written as ``v:`` or left out."""
    directed = source.startswith("d")
    if source in ("graph", "digraph"):
        body = [f"{v} {u}" if not directed and rng.random() < 0.5 else f"{u} {v}"
                for u, v in sorted(pairs)]
    else:
        rows = [[] for _ in range(n)]
        for u, v in sorted(pairs):
            rows[u].append(v)
            if not directed:
                rows[v].append(u)
        body = [f"{v}: {' '.join(map(str, row))}".rstrip() for v, row in enumerate(rows)
                if row or rng.random() < 0.5]
    rng.shuffle(body)
    return [f"{source} {n}"] + body


def gtext_miss(rng, miss, lines):
    """Apply near miss or spelling ``miss`` to the ``gtext_lines`` of an edge or adjacency text."""
    source, n = lines[0].split()
    n = int(n)
    k = rng.randrange(1, len(lines)) if len(lines) > 1 else 0  # a data line, or the header
    if miss in ("break-head", "break-data", "blank"):
        k = 0 if miss == "break-head" else k
        mark = rng.choice(GTEXT_BREAKS if miss.startswith("break") else GTEXT_BLANKS)
        cuts = [i for i, ch in enumerate(lines[k]) if ch == " "] + [0, len(lines[k])]
        cut = rng.choice(cuts)
        replace = lines[k][cut:cut + 1] == " " and rng.random() < 0.5
        lines[k] = lines[k][:cut] + mark + lines[k][cut + replace:]
    elif miss == "comment":
        lines.insert(0, rng.choice(["# graph", "#", "  # c 0 1"]))
    elif miss == "numeral":
        words = lines[k].split(" ")
        w = rng.randrange(len(words)) if k else 1
        tail = ":" if words[w].endswith(":") else ""
        token = words[w].removesuffix(":")
        spellings = ["0" * rng.randint(1, 2) + token, "+" + token, token.translate(ARABIC_DIGITS)]
        words[w] = rng.choice(spellings + ["-0"] * 2 * (token == "0")) + tail
        lines[k] = " ".join(words)
    elif miss == "range":
        out, w = n + rng.randint(0, 2), rng.randrange(max(n, 1))
        if source in ("graph", "digraph"):
            lines.insert(rng.randint(1, len(lines)), rng.choice([f"{w} {out}", f"{out} {w}"]))
        elif rng.random() < 0.5:
            lines.insert(rng.randint(1, len(lines)), f"{out}: {w}")
        else:
            lines.insert(rng.randint(1, len(lines)), f"{w}: {out}")
    elif miss in ("loop", "asymmetric"):  # one more neighbour in one row only
        u = rng.randrange(n)
        v = u if miss == "loop" else rng.choice([w for w in range(n) if w != u])
        rows = [i for i, line in enumerate(lines) if line.startswith(f"{u}:")]
        if source == "graph":
            lines.insert(rng.randint(1, len(lines)), f"{u} {v}")
        elif not rows:
            lines.append(f"{u}: {v}")
        elif str(v) in lines[rows[0]].split()[1:]:
            lines[rows[0]] = " ".join(w for w in lines[rows[0]].split() if w != str(v))
        else:
            lines[rows[0]] += f" {v}"
    elif miss == "duplicate":
        heads = [line.partition(":")[0] for line in lines[1:]]
        if not heads:
            heads.append(str(rng.randrange(n)))
            lines.append(f"{heads[0]}:")
        lines.insert(rng.randint(1, len(lines)), f"{rng.choice(heads)}:")
    elif miss == "glued":
        full = [i for i, line in enumerate(lines) if ": " in line]
        if full:
            k = rng.choice(full)
            lines[k] = lines[k].replace(": ", ":", 1)
        else:
            lines.append(f"{n - 1}:{n - 1}")
    elif miss == "unit-separator":
        lines = [rng.choice(["", "\x1f"]) + line.replace(" ", rng.choice(["\x1f", " \x1f"]))
                 + rng.choice(["", "\x1f", "\x1f "]) for line in lines]
    elif miss == "colon":  # "3 : 1 2" or "3 :1"
        for k in range(1, len(lines)):
            head, _, rest = lines[k].partition(":")
            lines[k] = head + rng.choice([" :", "\t:", "  : ", " : "]) + rest.lstrip(" ")
    elif miss == "count":
        lines[0] = f"{source} {'0' * rng.randint(1, 3)}{n}"
    return lines


def gtext_text(rng, source, n, pairs, miss=None):
    """An edge or adjacency text with the header first: blank lines between data
    lines, space and tab padding, "\\n" or "\\r\\n" line ends and no final
    line end at times; then near miss ``miss``, if any."""
    lines = gtext_lines(rng, source, n, pairs)
    if miss:
        lines = gtext_miss(rng, miss, lines)
    for _ in range(rng.choice([0, 0, 1, 3])):
        lines.insert(rng.randint(1, len(lines)), rng.choice(["", " ", "\t"]))
    end = rng.choice(GTEXT_ENDS if miss == "ends" else ["\n", "\n", "\r\n"])
    padded = [rng.choice(GTEXT_PADDING) + line.replace(" ", rng.choice([" ", " ", "  ", "\t"]))
              + rng.choice(GTEXT_PADDING) for line in lines]
    return end.join(padded) + rng.choice([end, end, ""])


def gtext_graph(rng, miss):
    """(source, n, pairs) for a ``gtext_text``, of a kind and size ``miss`` can take."""
    sources = {"loop": ["graph", "adjlist"], "duplicate": ["adjlist", "dadjlist"],
               "glued": ["adjlist", "dadjlist"], "asymmetric": ["adjlist"],
               "colon": ["adjlist", "dadjlist"]}
    source = rng.choice(sources.get(miss, ["graph", "digraph", "adjlist", "dadjlist"]))
    n = rng.choice([0, 1, 1, 2, 3, 4, 6, 9, 15, 40])
    if miss in ("loop", "duplicate", "glued", "asymmetric"):
        n = max(n, 2)
    directed = source.startswith("d")
    p = rng.choice([0.1, 0.3, 0.6])
    pairs = {(u, v) for u in range(n) for v in range(n)
             if (u < v or directed and (u > v or rng.random() < 0.1)) and rng.random() < p}
    return source, n, pairs


def gtext_command(rng, write, miss):
    """``graph convert``, ``graph sub`` or ``complexity`` on an edge or adjacency
    text with the header first, plain or with near miss or spelling ``miss``.

    The near misses: a line break other than "\\n" in the header or a data
    line, a no-break or ideographic space among the padding, a comment before
    the header, a vertex written ``007``, ``-0``, ``+1`` or in Arabic-Indic
    digits, a vertex out of range, a self-loop in an undirected text, a
    duplicate adjacency row, ``1:2`` with no blank, and an asymmetric
    undirected adjacency list.  The spellings are ``GTEXT_SPELLINGS``.
    """
    source, n, pairs = gtext_graph(rng, miss)
    path = write(gtext_text(rng, source, n, pairs, miss))
    command = rng.choice(["convert", "convert", "convert", "sub", "complexity"])
    if command == "complexity":
        return ["complexity", path]
    if command == "convert":
        return ["graph", "convert", path, "--to", rng.choice(GRAPH_TARGETS)]
    k = rng.randint(0, 3)
    small = {(u, v) for u, v in pairs if u < k and v < k}
    pattern = write(gtext_text(rng, rng.choice([source, source.lstrip("d")]), k, small))
    return ["graph", "sub", pattern, path]


def tie_heavy_pairs(rng, n):
    """The edges of a graph with many automorphisms or twins on ``n`` vertices."""
    kind = rng.choice(["cycle", "star", "cube", "bipartite", "cliques", "edgeless",
                       "complete", "blowup"])
    if kind == "cycle" and n >= 3:
        return {(i, (i + 1) % n) for i in range(n)}
    if kind == "star":
        return {(0, leaf) for leaf in range(1, n)}
    if kind == "cube" and n == 8:
        return {(a, b) for b in range(8) for a in range(b) if (a ^ b).bit_count() == 1}
    if kind == "edgeless":
        return set()
    if kind in ("bipartite", "cliques"):  # K_{a,n-a} or K_a plus K_{n-a}
        a = rng.randint(0, n)
        cross = kind == "bipartite"
        return {(u, v) for v in range(n) for u in range(v) if (u < a <= v) == cross}
    if kind == "blowup":  # each vertex of a small graph becomes a class of twins
        sizes = []
        while sum(sizes) < n:
            sizes.append(min(rng.randint(1, 3), n - sum(sizes)))
        base = {(i, j) for j in range(len(sizes)) for i in range(j) if rng.random() < 0.5}
        cliques = [rng.random() < 0.5 for _ in sizes]
        cls = [c for c, size in enumerate(sizes) for _ in range(size)]
        return {(u, v) for v in range(n) for u in range(v)
                if (cls[u], cls[v]) in base or cls[u] == cls[v] and cliques[cls[u]]}
    return {(u, v) for v in range(n) for u in range(v)}  # complete


def canon_command(rng, write):
    """``complexity``, mostly ``--canonical``, on a relabelled graph of 0-8 vertices."""
    n = rng.randint(0, 8)
    if rng.random() < 0.5:
        density = rng.choice([0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95])
        pairs = {(u, v) for v in range(n) for u in range(v) if rng.random() < density}
    else:
        pairs = tie_heavy_pairs(rng, n)
    perm = rng.sample(range(n), n)
    pairs = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in pairs}
    source = rng.choice(["graph", "matrix", "adjlist", "g6"])
    lines = graph_file_lines(rng, source, n, pairs)
    if source != "g6":
        lines.insert(0, f"{source} {n}")
    path = write("\n".join(lines) + "\n")
    return ["complexity", path] + (["--canonical"] if rng.random() < 0.75 else [])


# Edge counts at and around powers of two: a pair index below 2**b drawn from
# b + 1 random bits is redrawn most often just above a power of two.
SIGNIFICANCE_SIZES = [2, 3, 4, 5, 8, 9, 16, 17, 31, 32, 33]


def significance_command(rng, write):
    """``graph motifs --significance`` on a graph, digraph or looped digraph."""
    kind = rng.choice(["graph", "digraph", "looped"])
    size = rng.choice(SIGNIFICANCE_SIZES)
    n = 3
    while (n * n if kind == "looped" else n * (n - 1) // (1 + (kind == "graph"))) < size:
        n += 1
    n += rng.randint(0, 5)
    slots = [(u, v) for u in range(n) for v in range(n)
             if kind == "looped" or u != v and (kind == "digraph" or u < v)]
    pairs = set(rng.sample(slots, size))
    text = graph_text(n, pairs, kind != "graph", rng.random() < 0.3)
    return ["graph", "motifs", write(text), "-k", rng.choice("34"),
            "--significance", str(rng.randint(1, 6)), "--seed", str(rng.randint(0, 999))]


LOOP_SHARES = [0, 0.05, 0.5, 1]


def dcensus_command(rng, write, large):
    """``graph motifs`` on a digraph of 0-120 vertices, or of 121-200 when ``large``:
    ``-k 3``, or ``-k 4`` for a quarter of those of 60 vertices or fewer.

    Random digraphs of every mean degree from 0 to n-1, edgeless and complete
    ones, one mutual dyad, in-stars and out-stars, each with a share of its
    vertices looped.
    """
    n = rng.choice([200, rng.randint(121, 199)]) if large else rng.randint(0, 120)
    kind = rng.choice(["random"] * 5 + ["edgeless", "complete", "mutual", "in-star",
                                        "out-star"])
    vertices = range(n)
    if kind == "random":
        degree = rng.choice([0, 0.5, 1, 2, 4, rng.uniform(0, n - 1), n - 1])
        p = degree / max(n - 1, 1)
        pairs = {(u, v) for u in vertices for v in vertices if u != v and rng.random() < p}
    elif kind == "complete":
        pairs = {(u, v) for u in vertices for v in vertices if u != v}
    elif kind == "edgeless" or n < 2:
        pairs = set()
    elif kind == "mutual":
        u, v = rng.sample(vertices, 2)
        pairs = {(u, v), (v, u)}
    else:
        hub = rng.randrange(n)
        pairs = {(u, hub) if kind == "in-star" else (hub, u) for u in vertices if u != hub}
    pairs |= {(v, v) for v in rng.sample(vertices, round(rng.choice(LOOP_SHARES) * n))}
    k = "4" if n <= 60 and rng.random() < 0.25 else "3"
    return ["graph", "motifs", write(graph_text(n, pairs, True, rng.random() < 0.3)), "-k", k]


# Grammar shapes of the ``ggen/`` family over five random symbols, each with
# its ``--max-len`` words: a unit chain into a repetition, a longer unit chain,
# a repeated nonterminal, duplicate alternatives, unreachable and unproductive
# rules, a solitary start line, and finite languages, one of them empty while
# a nonterminal it reaches is not.
GGEN_SHAPES = [
    ("<a> -> <b>\n<b> -> <c>+\n<c> -> {0} | {1} <c>\n", None),
    ("<s> -> <t> | {0} <s>\n<t> -> <u>+ {1}\n<u> -> <v>\n<v> -> {2} | {3} <v>\n", None),
    ("<s> -> <w>+ <w>\n<w> -> {0} | {1} <w>\n", None),
    ("<s> -> {0} <s> | {0} <s> | {1}\n<s> -> {1} | {2} <t>\n<t> -> {3} | {3}\n", None),
    ("<s> -> {0} <t> | {1} <u> | {2}\n<t> -> {2} <t>\n<u> -> {3} | {4}+ <u>\n"
     "<z> -> {0} <z> | {1}\n", None),
    ("# start named first\n<u>\n<s> -> {0} | {1} <s>\n<u> -> {2} <s> | {3}+\n", None),
    ("<s> -> {0} {1}\n", "1000000000"),
    ("<s> -> <x> <y> <x>\n<x> -> {0} | {1} {2}\n<y> -> {3} <x> | {4}\n", "1000000000"),
    ("<s> -> <x> <q>\n<x> -> {0} | {0} <x>\n<q> -> {1} <q>\n", "1000000000"),
    ("<s> -> <t>\n<t> -> {0} <u> <u> {1} | <u>\n<u> -> {2} | {3} {4}\n<w> -> {0}+\n",
     "1000000000"),
]


# Longer ``ggen/`` shapes, each with its ``--max-len`` words: an ambiguous
# grammar of ``X+ Y+`` runs over one four-symbol word, then variants of it with
# a second word, a third run and a terminal run, at ``--max-len`` 40-800; then
# grammars whose alternatives of 3-6 items share prefixes, one of them finite.
GGEN_RUNS = [
    ("<p2> -> <v1>+ <u4>+ <v1>\n<v1> -> <u4>\n<u4> -> <r0> a a\n<r0> -> b a\n",
     ["40", "400", "800"]),
    ("<p> -> <v>+ <u>+ <v> | <u>+ <v>+\n<v> -> <u> | <r> <u>\n<u> -> <r> {0} {0}\n"
     "<r> -> {1} {0}\n", ["40", "60", "70"]),
    ("<s> -> <x>+ <y>+ <x>+ <y>\n<x> -> {0} {1}\n<y> -> <x> | {0} {1} {0} {1}\n",
     ["40", "100", "150"]),
    ("<p> -> <v>+ {0}+ <v>\n<v> -> <u> {0}\n<u> -> {1} {0}\n", ["50", "300", "450"]),
    ("<s> -> {0} {1} {2} | {0} {1} {3} <s> | {0} {1} {2} {3} {4} | <t> {0} {1} {2} {3} {4}\n"
     "<t> -> {0} {1} | {0} {1} <t> {2}\n", ["9", "30", "60"]),
    ("<s> -> <a> <b> <c> | <a> <b> <c> <a> | <a> <b> <a>+ <c> <b> <a> | "
     "<a> <b> <c> <a>+ <b> <c>\n<a> -> {0} | {1}\n<b> -> {2} | {0} {2}\n<c> -> {3} <c> | {4}\n",
     ["6", "9", "12"]),
    ("<s> -> <a> <a> <a> <a> <a> <a> | <a> <a> <a> {0} | <a> <a> <b> <b>\n"
     "<a> -> {0} | {1} | {2}\n<b> -> {3} {4} | <a>\n", ["1000000000"]),
    ("<s> -> <t> <u> {0} <t> | <t> <u> {0} | <t> <u> <u> <t> {1} {2}\n<t> -> {3} | {3} <t>\n"
     "<u> -> {4} <t> | {4}\n", ["8", "12", "16"]),
]
GGEN_LONG = [(shape, max_len) for shape, lengths in GGEN_RUNS for max_len in lengths]


def ggen_command(rng, write, i):
    """``grammar gen`` on a benchmark grammar template for ``i < 80``, at
    ``--max-len i // 4 % 10`` (at most 8 for the path language), on
    ``GGEN_SHAPES[i % 10]`` for ``i < 120``, and on ``GGEN_LONG[i - 120]``
    after that."""
    if i < 80:
        kind = i % 4
        text = bench_workloads().grammar_template(rng, kind)[0]
        max_len = str(min(i // 4 % 10, 8 if kind == 0 else 9))
    else:
        shape, max_len = GGEN_SHAPES[i % len(GGEN_SHAPES)] if i < 120 else GGEN_LONG[i - 120]
        text = shape.format(*rng.sample("ABCDEFdefg0189", 5))
        max_len = max_len or str(rng.randint(0, 8))
    return ["grammar", "gen", write(text), "--max-len", max_len]


def cap_commands(write):
    """One command per ``CapExceeded`` refusal, each just past its cap, as (label, args)."""
    path9 = "graph 9\n" + "".join(f"{i} {i + 1}\n" for i in range(8))
    yield "cap/vertices-file", ["graph", "convert", write("graph 5001\n"), "--to", "edges"]
    yield "cap/vertices-percolate", ["percolate", "-n", "5001", "--p-from", "0.5",
                                     "--p-to", "0.5", "--steps", "1", "--trials", "1"]
    yield "cap/subgraph", ["graph", "sub", write(path9), write("graph 10\n0 1\n")]
    yield "cap/percolation", ["percolate", "-n", "5000", "--p-from", "0", "--p-to", "1",
                              "--steps", "5", "--trials", "1"]
    yield "cap/census3", ["graph", "motifs", write("graph 201\n"), "-k", "3"]
    yield "cap/census4", ["graph", "motifs", write("graph 61\n"), "-k", "4"]
    yield "cap/canonical", ["complexity", "--canonical", write("graph 11\n")]
    yield "cap/strings", ["grammar", "gen",
                          write("<s> -> a <s> | b <s> | c <s> | d <s> | a | b | c | d\n"),
                          "--max-len", "9"]
    yield "cap/symbols", ["grammar", "gen", write("<r> -> a <r> | a\n<s> -> <r> <r>\n<s>\n"),
                          "--max-len", "2000"]


# Every line break of ``str.splitlines``, "\r\n" among them.
BREAK_SPELLINGS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                   "\u2029"]
BREAK_KINSHIP = ['# a family', 'person ann "Ann Lee"', "ann -> bob", "bob -> cid", "",
                 "  ann <-> dee", "cid -> eve"]
BREAK_AUTOMATON = ["a -> b", "b -> c", "# back to a", "c -> a", "", "  d -> a"]


def break_commands(write):
    """``tree query``, ``tree descendants`` and ``automaton graph`` on files whose
    lines end in one break spelling each, as (label, args): once clean, and once
    with a faulty fourth line, so the line number in the error is pinned too."""
    for i, brk in enumerate(BREAK_SPELLINGS):
        for fault, kin_bad, arrow_bad in ((False, "", ""), (True, "bob cid", "c a")):
            name = f"breaks/{i:02d}{'-fault' if fault else ''}"
            kin, arrows = BREAK_KINSHIP[:], BREAK_AUTOMATON[:]
            if fault:
                kin[3], arrows[3] = kin_bad, arrow_bad
            kin_path = write(brk.join(kin) + brk)
            yield f"{name}/query", ["tree", "query", kin_path, "is_descendant_of", "eve", "ann"]
            yield f"{name}/descendants", ["tree", "descendants", kin_path, "ann"]
            yield f"{name}/automaton", ["automaton", "graph", write(brk.join(arrows) + brk)]


def refusal_commands(write):
    """CLI refusals whose messages no other command pins, as (label, args)."""
    arity = write("OBJECTS\na b\nRELATION r/2\na b\nOBSERVATIONS\nx\nRELATION p/1\nx\n"
                  "MAP m\na x\nb x\nPAIR\nr p\n")
    yield "refusal/pair-arity-verify", ["system", "verify", arity]
    yield "refusal/pair-arity-classify", ["system", "classify", arity]
    table = "".join(f"{a}{b}{c}\t{'STOP' if a + b + c in ('taa', 'tag') else 'K'}\n"
                    for a in "acgt" for b in "acgt" for c in "acgt")
    yield "refusal/two-stops", ["translate", write("atgaaataa\n"), "--table", write(table)]
    yield "refusal/wildcard-zero", ["motif", "match", "A x(0) C", write("ACGT\n")]
    yield "refusal/plus-first", ["grammar", "check", write("<a> -> + x\n"), "x"]
    yield "refusal/empty-alternative", ["grammar", "check", write("<a> -> x |\n"), "x"]
    yield "refusal/graph6-long", ["graph", "convert", write("~??~\n"), "--to", "edges"]
    yield "refusal/graph6-trailing", ["graph", "convert", write("Bw?\n"), "--to", "edges"]
    yield "refusal/complexity-header", ["complexity", write(">a\n")]


def bench_workloads():
    """The benchmark's ``workloads`` module."""
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


def bench_commands(write):
    """Every job of the --quick rounds and probes, as (label, args)."""
    workloads = bench_workloads()
    rounds = [(name, workloads.make_round(name, 7, 0, quick=True))
              for name in workloads.WORKLOADS]
    rounds.append(("probes", workloads.probe_round(7)))
    for name, rnd in rounds:
        paths = {f"@{file}": write(text) for file, text in rnd.files.items()}
        for i, job in enumerate(rnd.jobs):
            yield f"bench/{name}/{i:03d}", [paths.get(a, a) for a in job.args]


def commands(write):
    """Every command of the digest, in order, as (label, args)."""
    rng = random.Random(8)
    for i in range(2000):
        yield f"contract/{i:04d}", random_command(rng, write)
    rng = random.Random(18)
    for i in range(300):
        yield f"derive/{i:03d}", motif_derive_command(rng, write)
        yield f"iso/{i:03d}", graph_iso_command(rng, write)
    rng = random.Random(20)
    for i in range(300):
        yield f"kinship/{i:03d}", kinship_command(rng, write)
    rng = random.Random(27)
    for i in range(100):
        yield f"kinfault/{i:03d}", kinfault_command(rng, write, i)
    rng = random.Random(21)
    for i in range(300):
        yield f"system/{i:03d}", system_command(rng, write)
    rng = random.Random(26)
    for i in range(100):
        yield f"sysfault/{i:03d}", sysfault_command(rng, write, i)
    yield from bench_commands(write)
    rng = random.Random(22)
    for i in range(300):
        yield f"graph/{i:03d}", graph_command(rng, write)
    rng = random.Random(23)
    for i in range(200):
        yield f"canon/{i:03d}", canon_command(rng, write)
    rng = random.Random(24)
    for i in range(150):
        yield f"significance/{i:03d}", significance_command(rng, write)
    rng = random.Random(25)
    for i in range(150):
        yield f"dcensus/{i:03d}", dcensus_command(rng, write, large=i % 15 == 7)
    rng = random.Random(28)
    for i in range(150):
        miss = GTEXT_MISSES[i // 2 % len(GTEXT_MISSES)] if i % 2 else None
        yield f"gtext/{i:03d}", gtext_command(rng, write, miss)
    rng = random.Random(29)
    for i in range(120):
        yield f"ggen/{i:03d}", ggen_command(rng, write, i)
    rng = random.Random(30)
    for i in range(150, 198):
        yield f"gtext/{i:03d}", gtext_command(rng, write, GTEXT_SPELLINGS[i % 4])
    rng = random.Random(31)
    for i in range(120, 120 + len(GGEN_LONG)):
        yield f"ggen/{i:03d}", ggen_command(rng, write, i)
    yield "kinfault/100", kinfault_command(random.Random(32), write, 100)
    rng = random.Random(33)
    for i in range(300, 340):
        yield f"system/{i:03d}", verify_case_command(rng, write, i)
    rng = random.Random(34)
    for i in range(340, 400):
        yield f"system/{i:03d}", classify_case_command(rng, write, i)
    rng = random.Random(35)
    for i in range(48):
        yield f"oddsub/{i:03d}", odd_last_sub_command(rng, write, i)
    yield from cap_commands(write)
    yield from break_commands(write)
    yield from refusal_commands(write)


def digests():
    """(label, digest, shown command) for every command, run in one temporary directory."""
    runner = CliRunner(env={"OBSERVE_SEED": None})
    with tempfile.TemporaryDirectory() as folder:
        counter = itertools.count()

        def write(text):
            path = Path(folder, f"f{next(counter)}.txt")
            path.write_text(text, encoding="utf-8")
            return str(path)

        out = []
        for label, args in commands(write):
            result = runner.invoke(cli, args)
            payload = "\0".join([str(result.exit_code), result.stdout, result.stderr])
            digest = hashlib.sha256(payload.replace(folder, PLACEHOLDER).encode()).hexdigest()
            shown = " ".join(args).replace(folder, PLACEHOLDER)
            out.append((label, digest[:16], shown if len(shown) < 120 else shown[:117] + "..."))
        return out


def golden_lines(rows):
    """One line per command: its digest, its label and its leading command words."""
    out = []
    for label, digest, shown in rows:
        words = itertools.takewhile(str.isalpha, shown.split())
        out.append(" ".join([digest, label, *itertools.islice(words, 2)]))
    return out


def test_cli_bytes_match_the_golden_digest():
    rows = digests()
    expected = GOLDEN.read_text().splitlines()
    assert len(expected) == len(rows), "command list changed; re-record the digest"
    changed = [f"{label}: {shown}" for (label, _, shown), now, then
               in zip(rows, golden_lines(rows), expected) if now != then]
    assert not changed, "CLI bytes changed for:\n" + "\n".join(changed)


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(golden_lines(digests())) + "\n")
