"""Seeded job lists for the three benchmark workloads.

A workload is an endless sequence of rounds.  Every round has the same mix
of subcommands, so stopping after any whole round keeps the mix; its input
files are fresh, drawn from ``(workload, seed, round)``, so nothing the
program could cache carries over from one round to the next.  Input sizes
that drive the cost of a job are spread over their range by a van der Corput
sequence over the round index, so a few rounds already cover the range
evenly and two seeds see the same spread.

Each job carries its expected outcome, computed by ``oracles`` from what the
generator planted; nothing here imports the program under test.
"""

from __future__ import annotations

import itertools
import random
import re
import string
from dataclasses import dataclass, field

import oracles

WORKLOADS = ("systems", "graph-search", "short-jobs")


@dataclass
class Job:
    """One ``observe`` invocation and what it must produce.

    ``args`` items starting with ``@`` name files of the round.  ``expect``
    is an exact stdout string or a function from stdout to a reason (None
    when it agrees).  ``exits`` lists the acceptable exit codes; any code
    other than 0 also requires empty stdout.
    """

    sub: str
    args: list
    expect: object = None
    exits: tuple = (0,)


@dataclass
class Round:
    files: dict = field(default_factory=dict)
    jobs: list = field(default_factory=list)

    def add(self, name: str, text: str) -> str:
        self.files[name] = text
        return "@" + name


def van_der_corput(i: int) -> float:
    x, denominator = 0.0, 1.0
    while i:
        denominator *= 2
        x += (i & 1) / denominator
        i >>= 1
    return x


class Plan:
    """Random source and stratified sizes for one round."""

    def __init__(self, workload: str, seed: int, index: int, quick: bool):
        self.workload, self.seed, self.index, self.quick = workload, seed, index, quick
        self.rng = random.Random(f"{workload}/{seed}/{index}")

    def size(self, knob: str, lo: int, hi: int, quick: int | None = None) -> int:
        if self.quick and quick is not None:
            return quick
        offset = random.Random(f"{self.workload}/{self.seed}/{knob}").random()
        return lo + round(((offset + van_der_corput(self.index)) % 1.0) * (hi - lo))


def make_round(workload: str, seed: int, index: int, quick: bool = False) -> Round:
    plan = Plan(workload, seed, index, quick)
    return {"systems": systems_round, "graph-search": graph_round,
            "short-jobs": short_round}[workload](plan)


# --- systems ------------------------------------------------------------------

def _distinct_relation(rng, c: int) -> list:
    """A c x c relation on classes whose rows and columns are pairwise distinct.

    Moving one object to another class then always changes some tuple, so a
    perturbed map is guaranteed to break representation.
    """
    while True:
        rel = [[rng.random() < 0.4 for _ in range(c)] for _ in range(c)]
        if len(set(map(tuple, rel))) == c and len(set(zip(*rel))) == c:
            return rel


def _split(rng, members: list, parts: int) -> dict:
    members = members[:]
    rng.shuffle(members)
    return {x: (i if i < parts else rng.randrange(parts)) for i, x in enumerate(members)}


def _names(rng, count: int) -> list:
    out: set = set()
    while len(out) < count:
        out.add("".join(rng.choice(string.ascii_lowercase) for _ in range(3)))
    return sorted(out)


def system_fixture(rng, n: int, classes: int, splits: list, ternary: bool = False,
                   extras: int = 0, perturb: int = 0, search: tuple | None = None):
    """A fixture whose verdict and counterexamples are known by construction.

    Objects fall into ``classes`` base classes and the object relations are
    unions of class blocks, so a map is a valid algorithm exactly when its
    partition refines the base one.  ``splits`` gives, per algorithm, how many
    buckets each base class is cut into (a key shared by two algorithms makes
    them cut identically, i.e. relabelled equal partitions).  ``perturb``
    moves that many objects of every algorithm into a bucket of another
    class.  ``search`` = (lo, hi) re-draws the observation names until the
    translation search of ``classify`` walks between lo and hi candidates,
    which pins the job's cost without fixing its content.
    """
    objects = [f"o{i}" for i in range(n)]
    # Two members at least per class, so any class can be cut in two.
    cls = {x: (i % classes if i < 2 * classes else rng.randrange(classes))
           for i, x in enumerate(objects)}
    by_class = [[x for x in objects if cls[x] == i] for i in range(classes)]
    rel2 = _distinct_relation(rng, classes)
    obj_rels = {"r": {(x, y) for x in objects for y in objects if rel2[cls[x]][cls[y]]}}
    rel3 = set()
    if ternary:
        rel3 = {t for t in itertools.product(range(classes), repeat=3) if rng.random() < 0.12}
        obj_rels["t"] = {
            (x, y, z) for x in objects for y in objects for z in objects
            if (cls[x], cls[y], cls[z]) in rel3
        }
    cuts: dict = {}
    algorithm_blocks = []
    for key, parts in splits:
        if key not in cuts:
            cut = {}
            for i, members in enumerate(by_class):
                for x, sub in _split(rng, members, min(parts[i], len(members))).items():
                    cut[x] = (i, sub)
            cuts[key] = cut
        algorithm_blocks.append(cuts[key])
    blocks_per_alg = [sorted(set(b.values())) for b in algorithm_blocks]
    names = _names(rng, sum(map(len, blocks_per_alg)) + extras)
    alg_names = [f"alg_{letter}" for letter in "abcdefgh"[:len(splits)]]
    for _ in range(2000):
        rng.shuffle(names)
        labels, start = [], 0
        for blocks in blocks_per_alg:
            labels.append(dict(zip(blocks, names[start:start + len(blocks)])))
            start += len(blocks)
        mappings = [{x: lab[b[x]] for x in objects} for lab, b in zip(labels, algorithm_blocks)]
        if search is None or search[0] <= _classify_candidates(mappings, names) <= search[1]:
            break
    else:
        raise RuntimeError("no labelling meets the search window")
    for mapping, lab in zip(mappings, labels):
        for x in rng.sample(objects, perturb):
            home = cls[x]
            mapping[x] = rng.choice([v for (c, _), v in lab.items() if c != home])
    obs_rels = {"p": set()}
    if ternary:
        obs_rels["q"] = set()
    for lab in labels:
        items = list(lab.items())
        for (b1, v1), (b2, v2) in itertools.product(items, repeat=2):
            if rel2[b1[0]][b2[0]]:
                obs_rels["p"].add((v1, v2))
        if ternary:
            for triple in itertools.product(items, repeat=3):
                if tuple(b[0] for b, _ in triple) in rel3:
                    obs_rels["q"].add(tuple(v for _, v in triple))
    pairing = {"r": "p", "t": "q"} if ternary else {"r": "p"}
    return {
        "objects": objects,
        "observations": sorted(names),
        "obj_rels": obj_rels,
        "obs_rels": obs_rels,
        "algorithms": [(name, m, dict(pairing)) for name, m in zip(alg_names, mappings)],
    }


def _classify_candidates(mappings: list, observations: list) -> int:
    """Candidates the lexicographic translation search walks before its verdict.

    Sizing only: it follows the documented order (ordered pairs of valid
    algorithms; candidates in lexicographic order over sorted names) to pick
    inputs of a given cost.  Correctness is judged by ``kernel_verdict``.
    """
    codomain = sorted(observations)
    rank = {v: i for i, v in enumerate(codomain)}
    total = 0
    for a, b in itertools.permutations(mappings, 2):
        domain = sorted(set(a.values()))
        forced: dict = {}
        if any(forced.setdefault(a[x], b[x]) != b[x] for x in a):
            return total + len(codomain) ** len(domain)
        index = 0
        for d in domain:
            index = index * len(codomain) + rank[forced[d]]
        total += index + 1
    return total


def fixture_text(fixture, rng) -> str:
    lines = ["# generated observement fixture", "OBJECTS"]
    objects = fixture["objects"][:]
    rng.shuffle(objects)
    lines += [" ".join(objects[i:i + 12]) for i in range(0, len(objects), 12)]

    def relations(rels):
        for name in sorted(rels):
            tuples = sorted(rels[name])
            rng.shuffle(tuples)
            arity = len(tuples[0]) if tuples else (3 if name in "tq" else 2)
            lines.append(f"RELATION {name}/{arity}")
            lines.extend(" ".join(t) for t in tuples)

    relations(fixture["obj_rels"])
    lines.append("OBSERVATIONS")
    lines.append(" ".join(fixture["observations"]))
    relations(fixture["obs_rels"])
    for name, mapping, pairing in fixture["algorithms"]:
        lines.append(f"MAP {name}")
        lines.extend(f"{x} {v}" for x, v in mapping.items())
        lines.append("PAIR")
        lines.extend(f"{r} {p}" for r, p in sorted(pairing.items()))
    return "\n".join(lines) + "\n"


def _system_job(rnd: Round, plan: Plan, tag: str, fixture, command: str, verdict: str,
                only=None) -> None:
    checked = oracles.representation(fixture)
    if oracles.kernel_verdict(checked) != verdict:
        raise RuntimeError(f"{tag}: fixture built for {verdict} has another kernel verdict")
    path = rnd.add(f"{tag}.obs", fixture_text(fixture, plan.rng))
    if command == "classify":
        rnd.jobs.append(Job("system_classify", ["system", "classify", path], verdict + "\n"))
    else:
        args = ["system", "verify", path] + (["--alg", only] if only else [])
        rnd.jobs.append(Job("system_verify", args, oracles.verify_output(checked, only)))


def systems_round(plan: Plan) -> Round:
    """Search-bound classify and enumeration-bound verify on 20-130 objects.

    Two heavy classify jobs per round form the tail: a Strong system with two
    relabelled 5-bucket maps over 15 observations, and a Weak one whose fine
    map is listed first.  Their search windows keep every ordered pair within
    the 10^6 candidate cap whatever order a search takes.  Each fixture is
    dropped once its file and answer exist, so the generator's memory stays
    small beside the program's.
    """
    rnd, rng, size = Round(), plan.rng, plan.size
    c3, c4, c5 = (0, (1,) * 3), (0, (1,) * 4), (0, (1,) * 5)
    fine_coarse = [(1, (2, 1, 1, 1)), c4]

    def job(tag, n, classes, splits, verdict, command="classify", only=None, **options):
        fixture = system_fixture(rng, n, classes, splits, **options)
        _system_job(rnd, plan, tag, fixture, command, verdict, only)

    if plan.quick:
        job("strong", 20, 3, [c3] * 2, "Strong", extras=5)
        job("weak_fine_first", 16, 3, [(1, (2, 1, 1)), c3], "Weak", extras=3)
    else:
        job("strong", size("strong_n", 90, 110), 5, [c5] * 2, "Strong", extras=5,
            search=(100_000, 150_000))
        job("weak_fine_first", size("weak_n", 80, 100), 4, fine_coarse, "Weak", extras=6,
            search=(90_000, 140_000))
    job("weak_coarse_first", size("weakc_n", 70, 90, 12), 4, fine_coarse[::-1], "Weak", extras=6)
    job("strong_three", size("three_n", 60, 80, 12), 4, [c4] * 3, "Strong")
    job("not", size("not_n", 100, 130, 20), 4, [c4] * 3, "NotObservement", perturb=2)
    job("strong_ternary", size("tern_n", 28, 32, 10), 4, [c4] * 2, "Strong", ternary=True,
        extras=2)
    job("verify_holds", size("vh_n", 100, 130, 20), 5, [c5, (1, (2, 1, 1, 1, 1))], "Weak",
        "verify")
    job("verify_broken", size("vb_n", 100, 130, 20), 5, [c5] * 2, "NotObservement", "verify",
        perturb=3)
    job("verify_one", size("va_n", 80, 100, 16), 4, [c4] * 3, "NotObservement", "verify",
        only="alg_b", perturb=2)
    job("verify_ternary", size("vt_n", 26, 30, 10), 3, [c3] * 2, "NotObservement", "verify",
        ternary=True, perturb=1)
    # Ten fast verify jobs balance the ten above the six small classify jobs,
    # so the median lands inside that group, not on a boundary between kinds.
    for i in range(6):
        if i % 2:
            job(f"classify{i}", size(f"small{i}_n", 28, 36, 12), 4, fine_coarse[::-1], "Weak")
        else:
            job(f"classify{i}", size(f"small{i}_n", 28, 36, 12), 4, [c4] * 2, "Strong",
                search=None if plan.quick else (2_500, 3_500))
    for i in range(10):
        broken = i % 2 == 1
        job(f"verify{i}", size(f"quick{i}_n", 20, 32, 12), 4, [c4] * 2,
            "NotObservement" if broken else "Strong", "verify", perturb=int(broken))
    return rnd


# --- graph-search -------------------------------------------------------------


def random_pairs(rng, n: int, degree: float, directed: bool = False) -> set:
    p = min(1.0, degree / max(1, n - 1))
    if directed:
        return {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p}
    return {(u, v) for v in range(n) for u in range(v) if rng.random() < p}


def graph_file(rng, n: int, pairs, directed: bool = False) -> str:
    lines = [f"{'digraph' if directed else 'graph'} {n}"]
    shuffled = sorted(pairs)
    rng.shuffle(shuffled)
    for u, v in shuffled:
        if not directed and rng.random() < 0.5:
            u, v = v, u
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def _relabel(pairs, perm, directed: bool) -> set:
    out = set()
    for u, v in pairs:
        a, b = perm[u], perm[v]
        out.add((a, b) if directed or a < b else (b, a))
    return out


def _triangles(n: int, pairs) -> int:
    adj = [0] * n
    for u, v in pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return sum((adj[u] & adj[v]).bit_count() for u, v in pairs) // 3


def _same_degrees_other_triangles(rng, n: int, pairs):
    """A degree-preserving double edge swap that changes the triangle count."""
    edges = sorted(pairs)
    for _ in range(10_000):
        (a, b), (c, d) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            c, d = d, c
        e1, e2 = (min(a, d), max(a, d)), (min(c, b), max(c, b))
        if len({a, b, c, d}) < 4 or e1 in pairs or e2 in pairs:
            continue
        swapped = (pairs - {(a, b), (min(c, d), max(c, d))}) | {e1, e2}
        if _triangles(n, swapped) != _triangles(n, pairs):
            return swapped
    return None


def _connected_pattern(rng, n: int, extra: int) -> set:
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    candidates = [(u, v) for v in range(n) for u in range(v) if (u, v) not in pairs]
    pairs |= set(rng.sample(candidates, min(extra, len(candidates))))
    return pairs


def _census_job(rnd: Round, plan: Plan, tag: str, n: int, degree: float, k: int,
                directed: bool = False, rewires: int = 0) -> None:
    rng = plan.rng
    while True:
        pairs = random_pairs(rng, n, degree, directed)
        if not rewires or (pairs and len(oracles.census(n, pairs, 3, False)) == 4):
            break
    path = rnd.add(f"{tag}.g", graph_file(rng, n, pairs, directed))
    args = ["graph", "motifs", path, "-k", str(k)]
    if rewires:
        args += ["--significance", str(rewires), "--seed", str(rng.randrange(10**6))]
        rnd.jobs.append(Job("graph_motifs", args,
                            lambda out, n=n, pairs=pairs: oracles.check_significance(out, n, pairs)))
    else:
        rnd.jobs.append(Job("graph_motifs", args,
                            oracles.census_output(oracles.census(n, pairs, k, directed))))


def graph_round(plan: Plan) -> Round:
    """Census, subgraph, isomorphism and canonical-form search.

    The k=3 and k=4 censuses on the largest graphs and the significance run
    (a tenth of the list) form the p95 tail; bipartite-host subgraph proofs
    and 8-vertex canonical forms fill the upper middle; planted embeddings and
    isomorphism tests are quick.
    """
    rnd, rng, size = Round(), plan.rng, plan.size
    # The three heavy jobs cost about the same range, so the p95 falls inside
    # one group of like jobs rather than on the edge between two kinds.
    _census_job(rnd, plan, "census3", size("k3_n", 70, 80, 20), 6.0, 3)
    _census_job(rnd, plan, "census4", size("k4_n", 30, 33, 12), 5.0, 4)
    _census_job(rnd, plan, "significance", size("sig_n", 40, 44, 14), 5.0, 3, rewires=4)
    _census_job(rnd, plan, "census_directed", size("d3_n", 30, 45, 12), 2.5, 3, directed=True)
    _census_job(rnd, plan, "census_small", size("s3_n", 25, 40, 10), 5.0, 3)

    for i in range(2):
        # An odd cycle never embeds in a bipartite host: a proof by exhaustion.
        cycle, lo, hi, degree = (5, 20, 30, 6.0) if i == 0 else (7, 12, 20, 4.0)
        half = size(f"bip{i}_n", lo, hi, 6)
        p = degree / half if not plan.quick else 0.5
        host = {(u, half + v) for u in range(half) for v in range(half) if rng.random() < p}
        pattern = {(j, (j + 1) % cycle) for j in range(cycle)}
        pattern = {(min(e), max(e)) for e in pattern}
        small = rnd.add(f"odd{i}.g", graph_file(rng, cycle, pattern))
        big = rnd.add(f"bip{i}.g", graph_file(rng, 2 * half, host))
        rnd.jobs.append(Job("graph_sub", ["graph", "sub", small, big], oracles.expect_none))

    for i in range(4):
        directed = i == 3
        ns = 4 + rng.randrange(3) if directed else 5 + rng.randrange(3)
        nb = 20 + rng.randrange(20) if not plan.quick else 10
        pattern = _connected_pattern(rng, ns, 2)
        if directed:
            pattern = {(u, v) if rng.random() < 0.5 else (v, u) for u, v in pattern}
        host = random_pairs(rng, nb, 3.0, directed)
        spot = rng.sample(range(nb), ns)
        host |= _relabel(pattern, spot, directed)
        small = rnd.add(f"pattern{i}.g", graph_file(rng, ns, pattern, directed))
        big = rnd.add(f"host{i}.g", graph_file(rng, nb, host, directed))
        rnd.jobs.append(Job("graph_sub", ["graph", "sub", small, big],
                            lambda out, ns=ns, pt=pattern, nb=nb, h=host, d=directed:
                            oracles.check_embedding(out, ns, pt, nb, h, d)))

    for i in range(6):
        n = 9 + rng.randrange(2) if not plan.quick else 6
        pairs = random_pairs(rng, n, n * 0.45)
        if i % 2 == 0:
            perm = list(range(n))
            rng.shuffle(perm)
            other = _relabel(pairs, perm, False)
            expect = (lambda out, n=n, a=pairs, b=other:
                      oracles.check_isomorphism(out, n, a, b, False))
        else:
            other = _same_degrees_other_triangles(rng, n, pairs)
            if other is None:
                other = pairs | {(0, n - 1)} if (0, n - 1) not in pairs else pairs - {(0, n - 1)}
            expect = oracles.expect_none
        a = rnd.add(f"iso{i}a.g", graph_file(rng, n, pairs))
        b = rnd.add(f"iso{i}b.g", graph_file(rng, n, other))
        rnd.jobs.append(Job("graph_iso", ["graph", "iso", a, b], expect))

    # Seven 7-vertex canonical forms sit mid-list, so the median lands among
    # them; their cost follows the edge count, so each slot has a fixed one.
    for i in range(10):
        n = (7 if i < 7 else 8) if not plan.quick else 6
        slots = [(u, v) for v in range(n) for u in range(v)]
        pairs = set(rng.sample(slots, round(len(slots) * (0.3 + 0.3 * (i % 5) / 4))))
        path = rnd.add(f"canon{i}.g", graph_file(rng, n, pairs))
        rnd.jobs.append(Job("complexity", ["complexity", path, "--canonical"],
                            oracles.complexity_line(oracles.canonical_graph6(n, pairs))))
    return rnd


# --- short-jobs ---------------------------------------------------------------


def grammar_template(rng, kind: int):
    """Grammar text, an equivalent regular expression, and a member sampler."""
    a, b, c, d, e = rng.sample(string.ascii_uppercase, 5)
    if kind == 0:
        text = f"# path language\n<path>\n<path> -> {a} <path> | {b} <path> | {c} <path> | {d}\n"
        regex = f"[{a}{b}{c}]*{d}"

        def sample(length):
            return "".join(rng.choice((a, b, c)) for _ in range(length - 1)) + d
    elif kind == 1:
        text = f"<s> -> <w>+ {e}\n<w> -> {a} {b} | {c}\n"
        regex = f"(?:{a}{b}|{c})+{e}"

        def sample(length):
            out = ""
            while len(out) < max(1, length - 1):
                out += rng.choice((a + b, c))
            return out + e
    elif kind == 2:
        text = f"<s> -> <x> <y>\n<x> -> {a}+ | {b} {a}\n<y> -> {c} | {d} <y>\n"
        regex = f"(?:{a}+|{b}{a}){d}*{c}"

        def sample(length):
            head = b + a if rng.random() < 0.3 else a * rng.randint(1, max(1, length // 2))
            return head + d * max(0, length - len(head) - 1) + c
    else:
        text = f"<log> -> <ev>+\n<ev> -> {a} | {b} {c} | {d} {e}+\n"
        regex = f"(?:{a}|{b}{c}|{d}{e}+)+"

        def sample(length):
            out = ""
            while len(out) < length:
                out += rng.choice((a, b + c, d + e * rng.randint(1, 3)))
            return out
    return text, regex, sample


def _mutate(rng, s: str, alphabet: str) -> str:
    i = rng.randrange(len(s))
    roll = rng.random()
    if roll < 0.6:
        return s[:i] + rng.choice(alphabet) + s[i + 1:]
    if roll < 0.8:
        return s[:i] + s[i + 1:] or s + s
    return s[:i] + "z" + s[i:]


STANDARD_CODE = dict(zip(
    (x + y + z for x in "tcag" for y in "tcag" for z in "tcag"),
    "FFLLSSSSYY**CC*WLLLLPPPPHHQQRRRRIIIMTTTTNNKKSSRRVVVVAAAADDEEGGGG",
))
AMINO = sorted(set(STANDARD_CODE.values()) - {"*"})


def _permuted_code(rng) -> dict:
    others = [x for x in AMINO if x != "M"]
    shuffled = others[:]
    rng.shuffle(shuffled)
    sigma = dict(zip(others, shuffled), M="M")
    return {codon: ("*" if aa == "*" else sigma[aa]) for codon, aa in STANDARD_CODE.items()}


def _gene(rng, protein: str, code: dict) -> str:
    by_letter: dict = {}
    for codon, aa in code.items():
        by_letter.setdefault(aa, []).append(codon)
    dna = "atg" + "".join(rng.choice(by_letter[aa]) for aa in protein[1:])
    dna += rng.choice(by_letter["*"])
    return dna.upper() if rng.random() < 0.3 else dna


def _fasta(records) -> str:
    out = []
    for name, seq in records:
        out.append(f">{name}")
        out.extend(seq[i:i + 60] for i in range(0, len(seq), 60))
    return "\n".join(out) + "\n"


def _family(rng, generations: int, width: int, chain: int = 0):
    """A genealogy: couples per generation, children with one or two parents."""
    people, arcs, partners, labels = [], set(), set(), {}
    previous: list = []
    serial = itertools.count()
    for g in range(generations):
        current = [f"p{next(serial):04d}" for _ in range(width)]
        for person in current:
            if rng.random() < 0.2:
                labels[person] = f"{rng.choice(['Ada', 'Bo', 'Cy', 'Di'])} {person.upper()}"
        couples = []
        shuffled = current[:]
        rng.shuffle(shuffled)
        for i in range(0, len(shuffled) - 1, 2):
            if rng.random() < 0.7:
                couples.append((shuffled[i], shuffled[i + 1]))
                partners.add(frozenset(couples[-1]))
        if previous:
            for child in current:
                if rng.random() < 0.9:
                    parents = rng.choice(previous) if rng.random() < 0.8 else (
                        rng.choice([p for pair in previous for p in pair]),)
                    for parent in parents:
                        arcs.add((parent, child))
        previous = couples or [(p,) for p in current]
        people.extend(current)
    if chain:
        link = people[0]
        for i in range(chain):
            nxt = f"c{i:04d}"
            people.append(nxt)
            arcs.add((link, nxt))
            link = nxt
    return people, arcs, partners, labels


def _kin_text(rng, people, arcs, partners, labels) -> str:
    lines = ["# kinship file"]
    linked = {x for arc in arcs for x in arc} | {x for edge in partners for x in edge}
    for person in people:
        if person in labels:
            lines.append(f'person {person} "{labels[person]}"')
        elif person not in linked or rng.random() < 0.3:
            lines.append(f"person {person}")
    edges = [f"{p} -> {c}" for p, c in sorted(arcs)] + \
            [f"{a} <-> {b}" for a, b in sorted(tuple(sorted(e)) for e in partners)]
    rng.shuffle(edges)
    return "\n".join(lines + edges) + "\n"


def _lzw_text(rng, alphabet: str, length: int) -> str:
    words = ["".join(rng.choice(alphabet) for _ in range(rng.randint(2, 6))) for _ in range(5)]
    out = ""
    while len(out) < length:
        out += rng.choice(words) if rng.random() < 0.8 else rng.choice(alphabet)
    return out[:length]


def _graph_in_format(rng, n: int, pairs, directed: bool, fmt: str) -> str:
    if fmt == "edges":
        return graph_file(rng, n, pairs, directed)
    if fmt == "adjlist":
        return oracles.adjacency_text(n, pairs, directed)
    if fmt == "matrix":
        return oracles.matrix_text(n, pairs, directed)
    return oracles.graph6_text(n, pairs)


MOTIF_ALPHABET = "ACDEFGHIKLMNPQRSTVWY"


def _motif_tokens(rng, alphabet: str):
    tokens = []
    for _ in range(rng.randint(3, 6)):
        roll = rng.random()
        if roll < 0.5:
            tokens.append(("lit", rng.choice(alphabet)))
        elif roll < 0.8:
            tokens.append(("any", "".join(sorted(rng.sample(alphabet, rng.randint(2, 3))))))
        else:
            tokens.append(("gap", rng.randint(1, 3)))
    if tokens[0][0] == "gap":
        tokens[0] = ("lit", rng.choice(alphabet))
    return tokens


def _motif_text(tokens) -> str:
    return " ".join(
        value if kind == "lit" else "{" + ",".join(value) + "}" if kind == "any"
        else f"x({value})" for kind, value in tokens
    )


def _motif_instance(rng, tokens, alphabet: str) -> str:
    return "".join(
        value if kind == "lit" else rng.choice(value) if kind == "any"
        else "".join(rng.choice(alphabet) for _ in range(value)) for kind, value in tokens
    )


def short_round(plan: Plan) -> Round:
    """Millisecond jobs where reading, parsing, building and printing dominate.

    Two of the 39 jobs are bad inputs that the program refuses with a clean
    domain error (exit 1, nothing on stdout); the deep-but-valid cases are a
    kinship chain of a few hundred generations and grammar strings of up to
    150 symbols.
    """
    rnd, rng, size, q = Round(), plan.rng, plan.size, plan.quick

    for i in range(6):
        text, regex, sample = grammar_template(rng, i % 4)
        alphabet = "".join(sorted(set(re.sub(r"[^A-Z]", "", regex))))
        length = size(f"gc{i}_len", 5, 150, 8)
        s = sample(length)
        if i % 2:
            s = _mutate(rng, s, alphabet)
        path = rnd.add(f"grammar{i}.g", text)
        expect = "true\n" if re.fullmatch(regex, s) else "false\n"
        rnd.jobs.append(Job("grammar_check", ["grammar", "check", path, s], expect))
    for i in range(2):
        text, regex, _ = grammar_template(rng, (plan.index + i) % 4)
        alphabet = "".join(sorted(set(re.sub(r"[^A-Z]", "", regex))))
        max_len = size(f"gg{i}_len", 4, 6 if len(alphabet) > 4 else 7, 3)
        path = rnd.add(f"gen{i}.g", text)
        rnd.jobs.append(Job("grammar_gen", ["grammar", "gen", path, "--max-len", str(max_len)],
                            oracles.generated_strings(regex, alphabet, max_len)))

    proteins = ["M" + "".join(rng.choice(AMINO) for _ in range(rng.randint(20, 120 if not q else 30)))
                for _ in range(rng.randint(2, 5))]
    path = rnd.add("genes.fa", _fasta((f"gene{i} sample", _gene(rng, p, STANDARD_CODE))
                                      for i, p in enumerate(proteins)))
    rnd.jobs.append(Job("translate", ["translate", path], "".join(p + "\n" for p in proteins)))
    code = _permuted_code(rng)
    table = [f"{c}\t{'STOP' if aa == '*' else aa}" for c, aa in code.items()]
    rng.shuffle(table)
    table_path = rnd.add("code.tsv", "# permuted code\n" + "\n".join(table) + "\n")
    proteins = ["M" + "".join(rng.choice(AMINO) for _ in range(rng.randint(20, 80)))
                for _ in range(rng.randint(1, 3))]
    path = rnd.add("genes2.fa", _fasta((f"g{i}", _gene(rng, p, code)) for i, p in enumerate(proteins)))
    rnd.jobs.append(Job("translate", ["translate", path, "--table", table_path],
                        "".join(p + "\n" for p in proteins)))
    dna = "".join(rng.choice("acgt") for _ in range(3 * rng.randint(50, 200)))
    path = rnd.add("frame.fa", _fasta([("frame", dna)]))
    rnd.jobs.append(Job("translate", ["translate", path, "--frame"],
                        "".join(STANDARD_CODE[dna[i:i + 3]] for i in range(0, len(dna), 3)) + "\n"))

    for i in range(3):
        alphabet = "".join(rng.sample(MOTIF_ALPHABET, rng.randint(4, 8)))
        tokens = _motif_tokens(rng, alphabet)
        anchored = i == 2
        sequences = []
        for j in range(rng.randint(5, 15)):
            seq = "".join(rng.choice(alphabet) for _ in range(rng.randint(60, 300 if not q else 80)))
            for _ in range(rng.randint(0, 3)):
                at = 0 if anchored else rng.randrange(len(seq) - 20)
                inst = _motif_instance(rng, tokens, alphabet)
                seq = seq[:at] + inst + seq[at + len(inst):]
            sequences.append((f"seq{j}" if i != 1 else str(j), seq))
        text = _fasta(sequences) if i != 1 else "".join(s + "\n" for _, s in sequences)
        path = rnd.add(f"motif{i}.fa", text)
        args = ["motif", "match", _motif_text(tokens), path] + (["--anchored"] if anchored else [])
        expect = "".join(
            f"{name}\t{' '.join(map(str, oracles.motif_offsets(tokens, s, anchored)))}\n"
            for name, s in sequences)
        rnd.jobs.append(Job("motif_match", args, expect))
    for i in range(2):
        length, count = rng.randint(12, 40), rng.randint(3, 10)
        template = "".join(rng.choice(MOTIF_ALPHABET) for _ in range(length))
        sequences = ["".join(ch if rng.random() < 0.85 else rng.choice(MOTIF_ALPHABET)
                             for ch in template) for _ in range(count)]
        cap = rng.randint(2, 3)
        path = rnd.add(f"family{i}.txt", "".join(s + "\n" for s in sequences))
        rnd.jobs.append(Job("motif_derive", ["motif", "derive", path, "--class-cap", str(cap)],
                            oracles.derived_motif(sequences, cap)))

    generations = 6 if not q else 3
    people, arcs, partners, labels = _family(rng, generations, size("kin_w", 30, 60, 8))
    kin = rnd.add("family.kin", _kin_text(rng, people, arcs, partners, labels))
    relations = ("is_child_of", "is_parent_of", "partnered", "is_related_to",
                 "is_descendant_of", "is_predecessor_of")
    for relation in relations:
        if relation in ("is_child_of", "is_descendant_of") and rng.random() < 0.6:
            u, v = map(str, rng.choice(sorted(arcs))[::-1])
        elif relation == "partnered" and rng.random() < 0.6:
            u, v = sorted(rng.choice(sorted(tuple(sorted(e)) for e in partners)))
        else:
            u, v = rng.sample(people, 2)
        expect = "true\n" if oracles.kin_relation(arcs, partners, relation, u, v) else "false\n"
        rnd.jobs.append(Job("tree_query", ["tree", "query", kin, relation, u, v], expect))
    person = rng.choice(people[: len(people) // 3])
    children: dict = {}
    for parent, child in arcs:
        children.setdefault(parent, set()).add(child)
    below = sorted(oracles.kin_closure(person, children) - {person})
    rnd.jobs.append(Job("tree_descendants", ["tree", "descendants", kin, person],
                        "".join(x + "\n" for x in below)))
    deep = _family(rng, 2, 10, chain=size("chain", 150, 400, 20))
    deep_path = rnd.add("deep.kin", _kin_text(rng, *deep))
    root = deep[0][0]
    children = {}
    for parent, child in deep[1]:
        children.setdefault(parent, set()).add(child)
    below = sorted(oracles.kin_closure(root, children) - {root})
    rnd.jobs.append(Job("tree_descendants", ["tree", "descendants", deep_path, root],
                        "".join(x + "\n" for x in below)))

    for i in range(3):
        alphabet = "".join(rng.sample("abcdefgh0123", rng.randint(2, 5)))
        text = _lzw_text(rng, alphabet, size(f"lzw{i}", 200, 3000, 50))
        path = rnd.add(f"plain{i}.txt", text + "\n")
        _, codes = oracles.lzw_codes(text, alphabet)
        rnd.jobs.append(Job("lzw_compress", ["lzw", "compress", path, "--alphabet", alphabet],
                            " ".join(map(str, codes)) + "\n"))
        text = _lzw_text(rng, alphabet, size(f"unlzw{i}", 200, 3000, 50))
        _, codes = oracles.lzw_codes(text, alphabet)
        lines = [" ".join(map(str, codes[j:j + 20])) for j in range(0, len(codes), 20)]
        path = rnd.add(f"codes{i}.txt", "\n".join(lines) + "\n")
        rnd.jobs.append(Job("lzw_decompress", ["lzw", "decompress", path, "--alphabet", alphabet],
                            text + "\n"))

    converts = [("edges", "adjlist", False), ("adjlist", "matrix", False),
                ("matrix", "g6", False), ("edges", "edges", True)]
    for i, (source, target, directed) in enumerate(converts):
        if target == "g6" or source == "g6":
            n = size("g6_n", 50, 62, 10)
            pairs = random_pairs(rng, n, n * 0.55)
        else:
            n = size(f"conv{i}_n", 120, 250, 15)
            pairs = random_pairs(rng, n, size(f"conv{i}_deg", 8, 20, 3), directed)
        path = rnd.add(f"convert{i}.g", _graph_in_format(rng, n, pairs, directed, source))
        expect = {"edges": oracles.edge_text, "adjlist": oracles.adjacency_text,
                  "matrix": oracles.matrix_text}.get(target)
        expect = expect(n, pairs, directed) if expect else oracles.graph6_text(n, pairs)
        rnd.jobs.append(Job("graph_convert", ["graph", "convert", path, "--to", target], expect))

    n, steps, trials = size("perc_n", 30, 60, 10), rng.randint(3, 5), rng.randint(3, 8)
    p_to = rng.choice((1.0, 0.1, 0.2))
    p_values = [0.0 + i * (p_to - 0.0) / (steps - 1) for i in range(steps)]
    rnd.jobs.append(Job("percolate", [
        "percolate", "-n", str(n), "--p-from", "0", "--p-to", str(p_to), "--steps", str(steps),
        "--trials", str(trials), "--seed", str(rng.randrange(10**6))],
        lambda out, n=n, ps=p_values, t=trials: oracles.check_percolation(out, n, ps, t)))

    seqs = [(f"r{i}", "".join(rng.choice("acgt") for _ in range(rng.randint(100, 400))))
            for i in range(rng.randint(2, 4))]
    path = rnd.add("dna.fa", _fasta(seqs))
    rnd.jobs.append(Job("complexity", ["complexity", path],
                        oracles.complexity_line("".join(s for _, s in seqs))))
    n = size("cx_n", 20, 60, 8)
    pairs = random_pairs(rng, n, n * 0.3)
    path = rnd.add("cx.g", graph_file(rng, n, pairs))
    rnd.jobs.append(Job("complexity", ["complexity", path],
                        oracles.complexity_line(oracles.graph6_text(n, pairs)[:-1])))

    for which in ((2 * plan.index) % 6, (2 * plan.index + 1) % 6):
        rnd.jobs.append(_refused_job(rnd, rng, which, kin, people))
    return rnd


def _refused_job(rnd: Round, rng, which: int, kin: str, people) -> Job:
    """Realistic bad inputs that the program answers with a one-line domain error."""
    if which == 0:
        return Job("tree_query", ["tree", "query", kin, "is_related_to", people[0], "nobody"],
                   exits=(1,))
    if which == 1:
        path = rnd.add("bad.txt", "abcabcabd\n")
        return Job("lzw_compress", ["lzw", "compress", path, "--alphabet", "abc"], exits=(1,))
    if which == 2:
        path = rnd.add("left.g", "<a> -> <b> X\n<b> -> <a> Y | Z\n")
        return Job("grammar_check", ["grammar", "check", path, "ZX"], exits=(1,))
    if which == 3:
        path = rnd.add("badhead.g", f"graph {rng.choice(['x', '-', 'ten'])}\n0 1\n")
        return Job("graph_convert", ["graph", "convert", path, "--to", "edges"], exits=(1,))
    if which == 4:
        path = rnd.add("ragged.txt", "ACDEF\nACDE\nACDEF\n")
        return Job("motif_derive", ["motif", "derive", path, "--class-cap", "2"], exits=(1,))
    path = rnd.add("nostart.fa", ">g\n" + "ccc" + "gct" * 10 + "taa\n")
    return Job("translate", ["translate", path], exits=(1,))


def probe_round(seed: int) -> Round:
    """Inputs that reach known defects; run once per short-jobs run, untimed.

    The expected outcome is the documented contract, so each probe fails
    until the program is fixed: a RecursionError on a long path string and on
    a deep kinship chain, a ValueError traceback for a negative --max-len,
    and partial stdout before the error for percolate with p > 1 and for a
    translate file whose second record is bad.
    """
    rng = random.Random(f"probes/{seed}")
    rnd = Round()
    text, _, sample = grammar_template(rng, 0)
    path = rnd.add("path.g", text)
    rnd.jobs.append(Job("grammar_check", ["grammar", "check", path, sample(400)], "true\n"))
    rnd.jobs.append(Job("grammar_gen", ["grammar", "gen", path, "--max-len", "-1"], exits=(1, 2)))
    rnd.jobs.append(Job("percolate", ["percolate", "-n", "20", "--p-from", "0.5", "--p-to", "1.5",
                                      "--steps", "3", "--trials", "2", "--seed", "1"], exits=(1,)))
    people, arcs, partners, labels = _family(rng, 2, 6, chain=1100)
    path = rnd.add("chain.kin", _kin_text(rng, people, arcs, partners, labels))
    children: dict = {}
    for parent, child in arcs:
        children.setdefault(parent, set()).add(child)
    below = sorted(oracles.kin_closure(people[0], children) - {people[0]})
    rnd.jobs.append(Job("tree_descendants", ["tree", "descendants", path, people[0]],
                        "".join(x + "\n" for x in below)))
    good = _gene(rng, "MKV" + "A" * 20, STANDARD_CODE)
    path = rnd.add("mixed.fa", _fasta([("ok", good), ("bad", "atgtaagcttaa")]))
    rnd.jobs.append(Job("translate", ["translate", path], exits=(1,)))
    return rnd
